"""Shared pieces of the end-to-end benchmark.

* the host clock that scales every end-to-end time to reference
  seconds, and the percentile rule and medians they go through;
* an in-memory span recorder with self-time arithmetic;
* the output checks (a report reproduces under every strategy with the
  stress dump's failure signature; deterministic counts repeat);
* the scenario sets of each workload;
* per-pass layer accounting shared by the in-process and service
  workloads.

Nothing here starts a process or a thread or touches the repository's
program state at import time.
"""

import bisect
import json
import math
import os
import random
import statistics
import sys
import threading
import time
from statistics import median

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: the benchmark's workloads (README.md says why each exists)
WORKLOADS = ("paper-suite", "synth-tail", "service-mix")

#: canonical strategy name -> metric-name fragment
STRATEGY_KEYS = {"chess": "chess", "chessX+dep": "chessx-dep",
                 "chessX+temporal": "chessx-temporal"}

#: the families the sharded-search probe runs on ``synth-tail``
SHARDED_FAMILIES = ("lock", "order")


def use_repo_source():
    """Make ``import repro`` resolve to this checkout's ``src/``."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit("perfbench: no src/repro in %s; run from the root "
                         "of a full checkout" % ROOT)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

class TooFewSamples(ValueError):
    """A percentile asked of fewer samples than the rule allows."""


#: samples that must lie beyond a reported percentile
MIN_BEYOND = 10


def percentile(values, q):
    """The ``q`` quantile (``q`` a whole percent, e.g. 0.9), refused
    (:class:`TooFewSamples`) unless at least ten samples lie beyond it:
    p50 needs 20 samples, p90 100."""
    if len(values) * (1.0 - q) < MIN_BEYOND - 1e-9:
        raise TooFewSamples("p%g of %d samples leaves fewer than %d beyond it"
                            % (q * 100, len(values), MIN_BEYOND))
    return statistics.quantiles(values, n=100,
                                method="inclusive")[round(q * 100) - 1]


# ---------------------------------------------------------------------------
# host speed
# ---------------------------------------------------------------------------

#: CPU seconds one :func:`reference_work` takes on the reference host;
#: every end-to-end time is reported in seconds of that host
REFERENCE_S = 0.0035


class _Cell:
    __slots__ = ("key", "value", "next")

    def __init__(self, key, value, next_cell):
        self.key, self.value, self.next = key, value, next_cell


_REFERENCE_OPS = [(rng.randrange(3), rng.randrange(512), rng.randrange(1000))
                  for rng in [random.Random(7)] for _ in range(4000)]
_REFERENCE_KEYS = [rng.randrange(10 ** 6)
                   for rng in [random.Random(8)] for _ in range(3000)]


def reference_work():
    """A fixed pure-Python workload that uses no repository code: dict
    updates, small-object allocation, tuples, strings and a sort, the
    interpreter work the pipeline is made of, then a throw-away dict
    of a few hundred kB.  The throw-away dict makes the reference track
    the pipeline more closely: over 380 paper reports, each between two
    reference samples, the spread of log(report / reference) fell from
    0.109 to 0.099 with it."""
    state, head, trail = {}, None, []
    for op, key, value in _REFERENCE_OPS:
        if op == 0:
            state[key] = state.get(key, 0) + value
        elif op == 1:
            head = _Cell(key, value, head)
        else:
            trail.append((key, value, str(value)))
    trail.sort()
    scratch = {key: (key, str(key)) for key in _REFERENCE_KEYS}
    return len(state), head, trail[0], len(scratch)


def reference_sample():
    """CPU seconds one :func:`reference_work` takes on this thread now."""
    start = time.thread_time()
    reference_work()
    return time.thread_time() - start


def reference_mean():
    """Mean of 20 back-to-back reference samples."""
    return sum(reference_sample() for _ in range(20)) / 20


def to_reference(seconds, reference):
    """Wall ``seconds`` measured while a reference sample took
    ``reference`` seconds, as seconds of the reference host."""
    return seconds * REFERENCE_S / reference


class HostClock:
    """The host's speed, sampled on a background thread during a run.

    The host this benchmark was sized on runs the same pure-Python loop
    at speeds up to 2x apart from one minute to the next, and not from
    code changes: other tenants share its cores.  Every
    ``period`` seconds the thread times one :func:`reference_work` in
    its own CPU time (waits for the interpreter lock or for a CPU do
    not count), so :meth:`reference` can say how fast the host ran
    during any interval of the run.  The thread slows the measured
    work by about 10% (8-13% on four paper scenarios), alike in every
    run.
    """

    def __init__(self, period=0.04):
        self.period = period
        self.stamps = []
        self.samples = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="perfbench-hostclock")

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc_info):
        self._stop.set()
        self._thread.join()
        return False

    def _run(self):
        while not self._stop.wait(self.period):
            sample = reference_sample()
            self.stamps.append(time.perf_counter())
            self.samples.append(sample)

    def reference(self, start, end, margin=0.1):
        """Mean reference sample finished within ``margin`` seconds of
        the ``[start, end]`` perf-counter interval."""
        lo = bisect.bisect_left(self.stamps, start - margin)
        hi = bisect.bisect_right(self.stamps, end + margin)
        if hi <= lo:
            raise ValueError("no reference sample near %.3f-%.3f"
                             % (start, end))
        return sum(self.samples[lo:hi]) / (hi - lo)


def write_samples(path, samples_by_scenario):
    """Write a run's ``{scenario: [(seconds, reference), ...]}``."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"reference_s": REFERENCE_S,
                   "reports": samples_by_scenario}, fh, indent=1)


def harrell_davis_median(values):
    """The Harrell-Davis estimate of the median.

    A weighted average of the order statistics, order statistic ``i``
    of ``n`` weighted by the mass a Beta((n+1)/2, (n+1)/2) distribution
    puts on ((i-1)/n, i/n).  Unlike the sample median it does not jump
    from one value to the next when the values in the middle swap
    places, as the mean times of the few scenarios around the middle of
    a workload do from run to run.
    """
    ordered = sorted(values)
    count = len(ordered)
    shape = (count + 1) / 2.0
    log_beta = 2.0 * math.lgamma(shape) - math.lgamma(2.0 * shape)

    def density(x):
        return math.exp((shape - 1.0) * math.log(x * (1.0 - x)) - log_beta)

    steps = 100  # midpoint rule within each order statistic's interval
    weights = [sum(density((i + (j + 0.5) / steps) / count)
                   for j in range(steps)) for i in range(count)]
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


def report_quantiles(samples_by_scenario):
    """``(p50, worst)`` of report times, in reference seconds.

    ``samples_by_scenario`` maps a scenario to ``(seconds, reference)``
    pairs: a report's wall time and the host's mean reference sample
    while it ran.  Each report is scaled by its own reference and each
    scenario reduced to its mean scaled report time; ``p50`` is the
    Harrell-Davis median of those means and ``worst`` their maximum.
    Every run samples each scenario equally often (whole passes or
    cycles), so this is the median report with each scenario's noise
    averaged first.

    The percentile rule applies to the reports underneath (at least 20),
    not to the 8 to 27 scenario means the final median is taken over.
    """
    count = sum(len(pairs) for pairs in samples_by_scenario.values())
    if count < 2 * MIN_BEYOND:
        raise TooFewSamples("p50 of %d reports leaves fewer than %d beyond it"
                            % (count, MIN_BEYOND))
    means = [statistics.mean(to_reference(seconds, reference)
                             for seconds, reference in pairs)
             for pairs in samples_by_scenario.values()]
    return harrell_davis_median(means), max(means)


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------

class Spans:
    """In-memory span recorder; written out once, at the end of a run.

    A span is ``(id, name, start, end, parent, key)``.  ``key`` names
    the scenario or job the span belongs to, so spans of one report
    share it.
    """

    def __init__(self, enabled=True, clock=time.perf_counter):
        self.enabled = enabled
        self.clock = clock
        self.records = []
        self._stack = []

    def span(self, name, key=None):
        return _SpanContext(self, name, key)

    def add(self, name, start, end, parent=None, key=None):
        """Record a span measured elsewhere (e.g. server-side intervals)."""
        span_id = len(self.records)
        self.records.append({"id": span_id, "name": name, "start": start,
                             "end": end, "parent": parent, "key": key})
        return span_id

    def write(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.records,
                       "self_s": self_times(self.records),
                       "self_s_by_name": self_time_by_name(self.records)},
                      fh, indent=1)


class _SpanContext:
    def __init__(self, spans, name, key):
        self.spans = spans
        self.name = name
        self.key = key
        self.record = None

    def __enter__(self):
        spans = self.spans
        if spans.enabled:
            parent = spans._stack[-1] if spans._stack else None
            span_id = spans.add(self.name, spans.clock(), None,
                                parent=parent, key=self.key)
            self.record = spans.records[span_id]
            spans._stack.append(span_id)
        return self

    def __exit__(self, *exc_info):
        if self.record is not None:
            self.record["end"] = self.spans.clock()
            self.spans._stack.pop()
        return False


def self_times(records):
    """``{span id: self seconds}``: duration minus the union of the
    intervals its direct children cover (clipped to the parent)."""
    children = {}
    for record in records:
        if record["parent"] is not None:
            children.setdefault(record["parent"], []).append(record)
    result = {}
    for record in records:
        start, end = record["start"], record["end"]
        covered = 0.0
        cursor = start
        for child in sorted(children.get(record["id"], ()),
                            key=lambda c: c["start"]):
            lo = max(child["start"], cursor)
            hi = min(child["end"], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[record["id"]] = (end - start) - covered
    return result


def self_time_by_name(records):
    """Total self seconds per span name."""
    totals = {}
    own = self_times(records)
    for record in records:
        totals[record["name"]] = \
            totals.get(record["name"], 0.0) + own[record["id"]]
    return totals


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def report_problems(report, strategies):
    """Why ``report`` is not a correct reproduction (empty when it is).

    Every configured strategy must have run and reproduced the failure
    with the stress dump's own signature.
    """
    problems = []
    if report.failure is None:
        return ["%s: report carries no failure" % report.bug]
    target = report.failure.signature()
    for name in strategies:
        outcome = report.searches.get(name)
        if outcome is None:
            problems.append("%s: strategy %s missing" % (report.bug, name))
        elif not outcome.reproduced:
            problems.append("%s: %s did not reproduce" % (report.bug, name))
        elif outcome.failure is None \
                or outcome.failure.signature() != target:
            problems.append("%s: %s reproduced a different failure"
                            % (report.bug, name))
    return problems


class Tally:
    """Operations attempted and failed, with the reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, problems):
        """Count one operation; it failed when ``problems`` is non-empty."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    def merge(self, other):
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems.extend(other.problems)

    def result(self, metrics):
        """The run's result document (``problems`` go to stderr)."""
        return {"correct": self.failed == 0, "attempted": self.attempted,
                "failed": self.failed, "metrics": metrics,
                "problems": self.problems[:20]}


def search_counts(report):
    """``{strategy: (tries, total_steps, executed_steps)}`` of a report."""
    return {name: (o.tries, o.total_steps, o.executed_steps)
            for name, o in report.searches.items()}


class DeterminismCheck:
    """Deterministic counts must repeat exactly for each scenario."""

    def __init__(self):
        self.first = {}

    def observe(self, key, counts):
        """False when ``counts`` differ from the first sighting of ``key``."""
        seen = self.first.setdefault(key, counts)
        return seen == counts


# ---------------------------------------------------------------------------
# workload inputs
# ---------------------------------------------------------------------------

def paper_scenarios():
    from repro.bugs import scenarios_by_tag

    return scenarios_by_tag("paper")


def hang_scenarios():
    from repro.bugs import scenarios_by_tag

    return scenarios_by_tag("handwritten", "hang")


def synth_scenarios():
    """The registered synth suite (base variant seed 0) plus the two
    hand-written hang scenarios."""
    from repro.bugs.synth import FAMILIES, DEFAULT_PER_FAMILY, make_scenario

    return [make_scenario(family, seed)
            for family in FAMILIES
            for seed in range(DEFAULT_PER_FAMILY)] + hang_scenarios()


def scenario_set(workload):
    if workload == "paper-suite":
        return paper_scenarios()
    if workload == "synth-tail":
        return synth_scenarios()
    if workload == "service-mix":
        return paper_scenarios() + hang_scenarios()
    raise ValueError("unknown workload %r" % workload)


def sharded_set(workload):
    """Scenarios the traced run re-searches with ``search_workers=2``."""
    scenarios = scenario_set(workload)
    if workload == "synth-tail":
        return [s for s in scenarios
                if any(t in s.tags for t in SHARDED_FAMILIES)]
    return scenarios


def pass_order(items, seed, pass_index):
    """The seeded interleaving of one pass (same seed, same order)."""
    order = list(items)
    random.Random("perfbench/%d/%d" % (seed, pass_index)).shuffle(order)
    return order


# ---------------------------------------------------------------------------
# per-pass layer accounting
# ---------------------------------------------------------------------------

#: per-layer metric name -> unit (the trace output's contract)
LAYER_UNITS = {
    "lang.build_s": "s",
    "stress.s": "s",
    "stress.runs": "count",
    "stress.runs_per_s": "1/s",
    "analyze.s": "s",
    "analyze.reverse_index_s": "s",
    "analyze.align_run_s": "s",
    "analyze.index_len": "count",
    "analyze.aligned_instrs": "count",
    "diff.s": "s",
    "diff.dump_parse_s": "s",
    "diff.dump_diff_s": "s",
    "diff.slicing_s": "s",
    "diff.dump_bytes": "bytes",
    "diff.csv_count": "count",
    "search.s": "s",
    "search.candidates": "count",
    "search.chess.s": "s",
    "search.chess.tries": "count",
    "search.chessx-dep.s": "s",
    "search.chessx-dep.tries": "count",
    "search.chessx-temporal.s": "s",
    "search.chessx-temporal.tries": "count",
    "search.total_steps": "count",
    "search.executed_steps": "count",
    "search.skipped_steps": "count",
    "search.memo_hits": "count",
    "search.steps_per_s": "1/s",
    "search.tries_per_repro": "tries",
    "replay.restores": "count",
    "replay.scratch_runs": "count",
    "replay.recording_steps": "count",
    "replay.checkpoint_bytes": "bytes",
    "replay.evictions": "count",
    "replay.hit_frac": "frac",
    "parallel.search_s": "s",
    "parallel.speedup": "x",
    "exec.retries": "count",
    "exec.pool_rebuilds": "count",
    "exec.degraded": "count",
    "report.self_s": "s",
    "service.queue_wait_frac": "frac",
    "service.dispatch_frac": "frac",
    "service.notify_lag_frac": "frac",
    "service.submit_s.p50": "s",
    "service.read_s.p50": "s",
    "kb.index_bytes": "bytes",
    "store.index_bytes": "bytes",
    "trace.overhead_frac": "frac",
}


class PassTotals:
    """Layer totals over one pass (each scenario of the workload once).

    Fed from a report and its session-side extras; the same fields are
    available from the live session (in-process) and from the report
    document (service), so both paths share this accounting.
    """

    def __init__(self):
        self.values = {name: 0.0 for name in LAYER_UNITS
                       if not name.startswith(("service.", "kb.", "store.",
                                               "trace.", "parallel."))}
        self.reproductions = 0
        self.replay_hits = 0
        self.replay_lookups = 0

    def add_report(self, report, stress_runs):
        v = self.values
        t = report.timings
        v["stress.s"] += t.stress_s
        v["stress.runs"] += stress_runs
        v["analyze.s"] += t.analyze_s
        v["analyze.reverse_index_s"] += t.reverse_index_s
        v["analyze.align_run_s"] += t.align_run_s
        v["analyze.index_len"] += report.index_len
        v["analyze.aligned_instrs"] += report.aligned_instr_count
        v["diff.s"] += t.diff_s
        v["diff.dump_parse_s"] += t.dump_parse_s
        v["diff.dump_diff_s"] += t.dump_diff_s
        v["diff.slicing_s"] += t.slicing_s
        v["diff.dump_bytes"] += report.fail_dump_bytes \
            + report.aligned_dump_bytes
        v["diff.csv_count"] += report.csv_count
        v["search.s"] += t.search_s
        v["search.candidates"] += report.candidate_count
        for name, outcome in report.searches.items():
            key = STRATEGY_KEYS.get(name)
            if key is not None:
                v["search.%s.s" % key] += outcome.wall_seconds
                v["search.%s.tries" % key] += outcome.tries
            v["search.total_steps"] += outcome.total_steps
            v["search.executed_steps"] += outcome.executed_steps
            v["search.skipped_steps"] += outcome.skipped_steps
            v["search.memo_hits"] += outcome.memo_hits
            self.reproductions += bool(outcome.reproduced)
        v["exec.retries"] += t.exec_retries
        v["exec.pool_rebuilds"] += t.exec_pool_rebuilds
        v["exec.degraded"] += t.exec_degraded

    def add_replay(self, stats):
        v = self.values
        v["replay.restores"] += stats["replayed_runs"]
        v["replay.scratch_runs"] += stats["scratch_runs"]
        v["replay.recording_steps"] += stats["recording_steps"]
        v["replay.checkpoint_bytes"] += stats["bytes"]
        v["replay.evictions"] += stats["evictions"]
        self.replay_hits += stats["hits"]
        self.replay_lookups += stats["hits"] + stats["misses"]

    def finish(self):
        """Derived ratios; returns the value dict."""
        v = self.values
        v["stress.runs_per_s"] = v["stress.runs"] / v["stress.s"] \
            if v["stress.s"] else 0.0
        v["search.steps_per_s"] = v["search.executed_steps"] / v["search.s"] \
            if v["search.s"] else 0.0
        tries = sum(v["search.%s.tries" % key]
                    for key in STRATEGY_KEYS.values())
        v["search.tries_per_repro"] = tries / self.reproductions \
            if self.reproductions else 0.0
        v["replay.hit_frac"] = self.replay_hits / self.replay_lookups \
            if self.replay_lookups else 0.0
        return v


#: counts that must repeat exactly from pass to pass and run to run
DETERMINISTIC = tuple(
    name for name, unit in LAYER_UNITS.items()
    if unit in ("count", "bytes", "tries")
    and name.startswith(("stress.runs", "analyze.", "diff.dump_bytes",
                         "diff.csv", "search.", "replay.")))


def combine_passes(passes):
    """Median over passes of each layer value; deterministic counts are
    taken from the first pass (they must agree across passes)."""
    result = {}
    for name in passes[0]:
        if name in DETERMINISTIC:
            result[name] = passes[0][name]
        else:
            result[name] = median([p[name] for p in passes])
    return result


def counts_agree(passes):
    """Names of deterministic counts that differ between passes."""
    return sorted(name for name in DETERMINISTIC if name in passes[0]
                  and any(p[name] != passes[0][name] for p in passes[1:]))


def metric(value, unit):
    return {"value": value, "unit": unit}


def peak_rss_mb_of(pids):
    """Sum of the peak resident set (VmHWM) of ``pids``, in MB."""
    total_kb = 0
    for pid in pids:
        try:
            with open("/proc/%d/status" % pid, encoding="ascii") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


def descendants(pid):
    """Live descendant pids of ``pid`` (from /proc)."""
    parents = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open("/proc/%s/stat" % entry, encoding="ascii",
                      errors="replace") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        parents.setdefault(int(fields[1]), []).append(int(entry))
    found, frontier = [], [pid]
    while frontier:
        children = parents.get(frontier.pop(), [])
        found.extend(children)
        frontier.extend(children)
    return found
