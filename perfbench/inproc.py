"""In-process workloads: ``paper-suite`` and ``synth-tail``.

Run as a child of ``run.py``, one fresh interpreter per run::

    python3 perfbench/inproc.py --workload paper-suite --seed 0 \
        --seconds 35 --trace 0

The child imports ``repro``, runs one warm-up report that is discarded,
prints ``READY`` (the parent times cold start up to that line) and
``REFERENCE <seconds>`` (the host's speed right then, to scale the
cold start by), then measures.  Its last stdout line is one JSON
document with the checks' tallies and the metrics.

Untraced runs (``--trace 0``) call ``ReproSession.report()`` on a fresh
session per report, serially, with the workload's scenarios interleaved
in seeded passes, while a ``benchlib.HostClock`` samples the host's
speed; they report the end-to-end metrics in reference seconds.
Traced runs (``--trace 1``) alternate untraced passes with traced
passes that call the session stages one at a time, each inside a span,
and then re-search the sharded set with ``search_workers=2``; they
report the per-layer metrics.
"""

import argparse
import gc
import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import benchlib  # noqa: E402
from benchlib import (  # noqa: E402
    DeterminismCheck,
    PassTotals,
    Spans,
    Tally,
    combine_passes,
    counts_agree,
    metric,
    percentile,
    report_problems,
    report_quantiles,
    search_counts,
    self_times,
    to_reference,
)

#: passes every run makes at least, so per-scenario means have three
#: samples (a ``synth-tail`` pass takes about 11 s on the 2-CPU host)
MIN_PASSES = 3

#: the discarded warm-up report of each workload (cheap, exercises
#: every stage)
WARM_UP = {"paper-suite": "apache-2", "synth-tail": "bank-transfer"}

#: spans of the four pipeline stages (the report span's children that
#: are not glue: ``lang`` and ``assemble`` count as the report's own)
STAGE_SPANS = ("pipeline.stress", "indexing", "coredump+slicing", "search")


def _checked(report, name, strategies, determinism):
    problems = report_problems(report, strategies)
    if not determinism.observe(name, search_counts(report)):
        problems.append("%s: tries/steps differ from an earlier pass" % name)
    return problems


def run_pass(scenarios, config, strategies, tally, determinism):
    """One untraced pass; returns ``{scenario: (start, end)}`` of the
    reports that checked out, in perf-counter seconds."""
    from repro.pipeline.session import ReproSession

    times = {}
    for scenario in scenarios:
        # collect the previous report's garbage off this report's clock
        gc.collect()
        start = time.perf_counter()
        try:
            session = ReproSession.from_scenario(scenario, config=config)
            report = session.report()
        except Exception as exc:  # noqa: BLE001 — a failed operation
            tally.record(["%s: %s: %s" % (scenario.name,
                                          type(exc).__name__, exc)])
            continue
        end = time.perf_counter()
        problems = _checked(report, scenario.name, strategies, determinism)
        tally.record(problems)
        if not problems:
            times[scenario.name] = (start, end)
    return times


def traced_pass(scenarios, config, strategies, tally, determinism, spans,
                 samples):
    """One pass calling each stage explicitly, each in its own span.

    Returns the pass's layer totals; appends the pass's report spans to
    ``samples["report"]`` and per-report session-creation and
    report-serialization seconds to ``samples["submit"]`` and
    ``samples["read"]``.
    """
    from repro.pipeline.report import ReproductionReport
    from repro.pipeline.session import ReproSession

    totals = PassTotals()
    reports = []
    samples["report"].append(reports)
    for scenario in scenarios:
        gc.collect()
        name = scenario.name
        try:
            with spans.span("report", key=name) as outer:
                with spans.span("lang", key=name) as lang:
                    session = ReproSession.from_scenario(scenario,
                                                         config=config)
                    # the superblock partition is built lazily on first
                    # execution; build it here so it counts as ``lang``
                    session.bundle.block_table
                with spans.span("pipeline.stress", key=name):
                    session.acquire_failure()
                with spans.span("indexing", key=name):
                    session.analyze_dump()
                with spans.span("coredump+slicing", key=name):
                    session.diff_and_prioritize()
                for strategy in strategies:
                    with spans.span("search", key=name):
                        session.search(strategy)
                with spans.span("assemble", key=name):
                    report = session.report()
            with spans.span("read", key=name) as read:
                text = report.to_json()
        except Exception as exc:  # noqa: BLE001 — a failed operation
            tally.record(["%s: %s: %s" % (name, type(exc).__name__, exc)])
            continue
        problems = _checked(report, name, strategies, determinism)
        if not problems:
            problems = report_problems(ReproductionReport.from_json(text),
                                       strategies)
        tally.record(problems)
        totals.add_report(report, session.stress.runs_tried)
        engine = session.replay_engine()
        if engine is not None:
            totals.add_replay(engine.stats())
        build_s = lang.record["end"] - lang.record["start"]
        totals.values["lang.build_s"] += build_s
        reports.append(outer.record)
        samples["submit"].append(build_s)
        samples["read"].append(read.record["end"] - read.record["start"])
    return totals.finish()


def sharded_probe(scenarios, strategies, spans, tally):
    """Serial vs ``search_workers=2`` search seconds over ``scenarios``.

    Both sides search fresh sessions whose earlier stages ran outside
    the timed span, so only the search layer is compared.  The sharded
    outcome must match the serial one (tries and logical steps).
    """
    from repro.pipeline.config import ReproductionConfig
    from repro.pipeline.session import ReproSession
    from repro.search.parallel import shutdown_shared_pool

    seconds, serial = {}, {}
    exec_counts = [0, 0, 0]
    try:
        for workers in (1, 2):
            config = ReproductionConfig(search_workers=workers)
            total = 0.0
            for scenario in scenarios:
                session = ReproSession.from_scenario(scenario, config=config)
                session.diff_and_prioritize()
                gc.collect()
                with spans.span("search.parallel" if workers > 1
                                else "search.serial", key=scenario.name) as s:
                    for strategy in strategies:
                        session.search(strategy)
                total += s.record["end"] - s.record["start"]
                report = session.report()
                problems = report_problems(report, strategies)
                counts = {name: (o.tries, o.total_steps)
                          for name, o in report.searches.items()}
                if serial.setdefault(scenario.name, counts) != counts:
                    problems.append("%s: sharded search differs from serial"
                                    % scenario.name)
                tally.record(problems)
                stats = session.exec_stats
                exec_counts[0] += stats.retries
                exec_counts[1] += stats.pool_rebuilds
                exec_counts[2] += stats.degraded
            seconds[workers] = total
    finally:
        shutdown_shared_pool()
    return seconds, tuple(exec_counts)


def measure(workload, seed, seconds, trace, out_path):
    from repro.pipeline.config import ReproductionConfig

    config = ReproductionConfig()
    strategies = config.strategy_names()
    scenarios = benchlib.scenario_set(workload)
    tally = Tally()
    determinism = DeterminismCheck()
    spans = Spans(enabled=bool(trace))
    samples = {"report": [], "submit": [], "read": []}
    reports, by_scenario, layer_passes = 0, {}, []
    rates = {"untraced": [0, 0.0], "traced": [0, 0.0]}
    with benchlib.HostClock() as clock:
        started = time.perf_counter()
        pass_index = 0
        while True:
            order = benchlib.pass_order(scenarios, seed, pass_index)
            pass_start = time.perf_counter()
            if trace and pass_index % 2 == 1:
                layer_passes.append(traced_pass(
                    order, config, strategies, tally, determinism, spans,
                    samples))
                side, done = "traced", len(order)
            else:
                times = run_pass(order, config, strategies, tally,
                                 determinism)
                for name, interval in times.items():
                    by_scenario.setdefault(name, []).append(interval)
                reports += len(times)
                side, done = "untraced", len(times)
            rates[side][0] += done
            rates[side][1] += time.perf_counter() - pass_start
            pass_index += 1
            # a traced run compares the layer counts of two traced passes
            # at least, and its read p50 needs 20 samples
            enough = len(layer_passes) >= 2 \
                and len(samples["read"]) >= 2 * benchlib.MIN_BEYOND \
                if trace else pass_index >= MIN_PASSES
            # whole passes only, so every run weighs the scenarios alike;
            # stop before a pass that would end past ``seconds``
            elapsed = time.perf_counter() - started
            if enough \
                    and elapsed * (pass_index + 1) / pass_index > seconds:
                break

    if trace:
        metrics = _layer_metrics(workload, strategies, tally, spans, samples,
                                 layer_passes, rates)
        spans.write(out_path)
    else:
        by_scenario = {name: [(end - start, clock.reference(start, end))
                              for start, end in intervals]
                       for name, intervals in by_scenario.items()}
        benchlib.write_samples(out_path, by_scenario)
        p50, worst = report_quantiles(by_scenario)
        busy = sum(to_reference(seconds, reference)
                   for pairs in by_scenario.values()
                   for seconds, reference in pairs)
        metrics = {
            "reports_per_s": metric(reports / busy, "1/s"),
            "report_s.p50": metric(p50, "s"),
            "report_s.worst": metric(worst, "s"),
            "peak_rss_mb": metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "MB"),
        }
    return tally.result(metrics)


def _layer_metrics(workload, strategies, tally, spans, samples, layer_passes,
                   rates):
    drift = counts_agree(layer_passes)
    if drift:
        tally.record(["deterministic counts drift: %s" % ", ".join(drift)])
    layers = combine_passes(layer_passes)
    shard_s, exec_counts = sharded_probe(benchlib.sharded_set(workload),
                                         strategies, spans, tally)
    for name, count in zip(("exec.retries", "exec.pool_rebuilds",
                            "exec.degraded"), exec_counts):
        layers[name] += count
    if any(exec_counts):
        tally.record(["supervised pool retried, rebuilt or degraded: %r"
                      % (exec_counts,)])
    # a report's self time against its four pipeline stages: the time
    # spent outside stress, analysis, diff and search
    reports = [r for records in samples["report"] for r in records]
    stage_spans = [r for r in spans.records if r["name"] in STAGE_SPANS]
    own = self_times(reports + stage_spans)
    report_s = sum(r["end"] - r["start"] for r in reports)
    report_self = [sum(own[r["id"]] for r in records)
                   for records in samples["report"]]
    layers.update({
        "parallel.search_s": shard_s[2],
        "parallel.speedup": shard_s[1] / shard_s[2],
        "report.self_s": benchlib.median(report_self),
        # the direct path has no queue and no notification; its
        # dispatch cost is the report time outside the stages, its
        # submit is creating the session and its read is serializing
        # the finished report
        "service.queue_wait_frac": 0.0,
        "service.dispatch_frac": sum(report_self) / report_s,
        "service.notify_lag_frac": 0.0,
        "service.submit_s.p50": percentile(samples["submit"], 0.5),
        "service.read_s.p50": percentile(samples["read"], 0.5),
        "kb.index_bytes": 0,
        "store.index_bytes": 0,
        "trace.overhead_frac": 1.0 - (
            (rates["traced"][0] / rates["traced"][1])
            / (rates["untraced"][0] / rates["untraced"][1])),
    })
    return {name: metric(layers[name], unit)
            for name, unit in benchlib.LAYER_UNITS.items()}


def warm_up(workload):
    from repro.pipeline.session import ReproSession

    report = ReproSession.from_scenario(WARM_UP[workload]).report()
    problems = report_problems(report, report.config.strategy_names())
    if problems:
        raise RuntimeError("warm-up report failed: %s" % "; ".join(problems))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WARM_UP))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", dest="out_path", default=None,
                        help="where to write spans (traced) or report samples")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after the warm-up (a cold-start sample)")
    args = parser.parse_args(argv)
    benchlib.use_repo_source()
    warm_up(args.workload)
    print("READY", flush=True)
    # the host's speed right after set-up, to scale the set-up time by
    print("REFERENCE %r" % benchlib.reference_mean(), flush=True)
    if args.setup_only:
        return 0
    result = measure(args.workload, args.seed, args.seconds, args.trace,
                     args.out_path)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
