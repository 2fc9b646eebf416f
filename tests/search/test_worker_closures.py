"""The block path's closure table stays in the process that built it.

Compiled block-path closures (:mod:`repro.runtime.closures`) are cached
on the compiled program and never cross the process boundary: the specs
shipped to pool workers carry the source program and the block table,
both plain data, and each worker compiles its own closures.  After a
block-mode search has built the table in the driver, the specs and the
block table still pickle, and a sharded search and a parallel stress
sweep run from the same process still give the serial outcome.
"""

import pickle

import pytest

from repro.bugs import get_scenario
from repro.coredump.serialize import dump_to_json
from repro.pipeline import ProgramBundle, ReproSession, ReproductionConfig
from repro.pipeline.stress import StressWorkerSpec, _picklable_spec, \
    stress_test
from repro.search.parallel import WorkerSessionSpec

NAME = "apache-2"
STRATEGIES = ("chess", "chessX+dep", "chessX+temporal")
#: wall budgets that never cut a search off, so tries stay deterministic
_BUDGETS = dict(chess_max_seconds=10_000.0, chessx_max_seconds=10_000.0)


@pytest.fixture(scope="module")
def warm():
    """A serial block-mode session whose searches built the table."""
    scenario = get_scenario(NAME)
    bundle = ProgramBundle(scenario.build())
    session = ReproSession(bundle, config=ReproductionConfig(**_BUDGETS),
                           input_overrides=scenario.input_overrides,
                           expected_kind=scenario.expected_fault)
    outcomes = {name: session.search(name) for name in STRATEGIES}
    assert getattr(bundle.compiled, "_closure_table", None) is not None
    return scenario, bundle, session, outcomes


def test_specs_and_block_table_pickle(warm):
    scenario, bundle, session, _ = warm
    spec = session.worker_spec()
    assert isinstance(spec, WorkerSessionSpec)  # None if it failed to pickle
    assert pickle.loads(pickle.dumps(spec)).block_table == bundle.block_table
    assert pickle.loads(pickle.dumps(bundle.block_table)) \
        == bundle.block_table
    blob = _picklable_spec(bundle, scenario.input_overrides,
                           scenario.expected_fault, None, 0.3, True, True)
    assert blob is not None
    stress_spec = pickle.loads(blob)
    assert isinstance(stress_spec, StressWorkerSpec)
    assert stress_spec.block_table == bundle.block_table


def test_sharded_search_matches_serial(warm):
    scenario, bundle, session, serial = warm
    sharded = ReproSession(
        bundle, config=ReproductionConfig(search_workers=2, **_BUDGETS),
        failure_dump=session.acquire_failure(),
        input_overrides=scenario.input_overrides)
    for name in STRATEGIES:
        a, b = serial[name], sharded.search(name)
        assert (a.plan, a.tries, a.reproduced, a.total_steps) == \
            (b.plan, b.tries, b.reproduced, b.total_steps), name


def test_parallel_stress_matches_serial(warm):
    scenario, bundle, _, _ = warm
    kwargs = dict(input_overrides=scenario.input_overrides,
                  seeds=range(8000), expected_kind=scenario.expected_fault)
    serial = stress_test(bundle, **kwargs)
    parallel = stress_test(bundle, workers=2, **kwargs)
    assert (parallel.seed, parallel.runs_tried) == \
        (serial.seed, serial.runs_tried)
    assert dump_to_json(parallel.dump) == dump_to_json(serial.dump)
