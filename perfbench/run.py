"""The repository's benchmark: stress → analyze → diff → search, end to end.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper-suite --seed 0 --seconds 35 \
        --trace 0

Workloads (see ``perfbench/README.md`` for why each exists):

``paper-suite``  the 8 paper scenarios, fresh session per report, in-process
``synth-tail``   the generated synth suite plus the 2 hang scenarios
``service-mix``  submit → SSE → report through ``python -m repro serve``

``--trace 0`` prints the end-to-end metrics, with times in reference
seconds (scaled by the host's measured speed, see ``benchlib.HostClock``);
``--trace 1`` runs the workload with spans around each layer and prints
the per-layer metrics.  Spans (traced) or the scaled report samples
(untraced) are written to ``.perfbench-out/``.  The last stdout line is
one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
Exits non-zero without a result when the checkout has no ``src/repro``
or a run cannot complete.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import benchlib  # noqa: E402

#: fresh interpreters timed to ``READY`` before the measured one (which
#: is timed too), so ``setup_s`` is a median of this many plus one
SETUP_PROBES = 4
#: a run must finish within this many seconds, set-up included
RUN_DEADLINE_S = 170.0

#: end-to-end metric -> unit, printed on every workload
END_TO_END = {
    "reports_per_s": "1/s",
    "report_s.p50": "s",
    "report_s.worst": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

WORK_DIR = os.path.join(benchlib.ROOT, ".perfbench-work")
OUT_DIR = os.path.join(benchlib.ROOT, ".perfbench-out")


def _spawn_inproc(args, extra):
    command = [sys.executable, os.path.join(os.path.dirname(__file__),
                                            "inproc.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    # a process group of its own, so a stuck child and any pool workers
    # it forked can be killed together
    return subprocess.Popen(command + extra, cwd=benchlib.ROOT,
                            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)


def _kill_group(proc):
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _child_run(args, extra, deadline):
    """Run one workload child; returns (set-up seconds, stdout lines).

    Set-up is the wall time from spawn to the child's ``READY`` line,
    in reference seconds (scaled by the reference samples the child
    takes right after it).

    The child's process group is killed if it is still running at
    ``deadline``, and any process left in it once the child exits.
    """
    start = time.perf_counter()
    proc = _spawn_inproc(args, extra)
    watchdog = threading.Timer(max(0.0, deadline - start), _kill_group,
                               (proc,))
    watchdog.start()
    try:
        ready = setup = None
        for line in proc.stdout:
            if line.strip() == "READY":
                ready = time.perf_counter() - start
            elif line.startswith("REFERENCE ") and ready is not None:
                setup = benchlib.to_reference(ready, float(line.split()[1]))
                break
        lines = proc.stdout.read().splitlines()
        proc.wait()
    finally:
        watchdog.cancel()
        proc.stdout.close()
        _kill_group(proc)
        proc.wait()
    if setup is None or proc.returncode != 0:
        raise RuntimeError("workload process exited with %d"
                           % proc.returncode)
    return setup, lines


def run_inproc(args, out_path, deadline):
    setup = []
    for _ in range(0 if args.trace else SETUP_PROBES):
        setup.append(_child_run(args, ["--setup-only"], deadline)[0])
    cold, lines = _child_run(args, ["--out", out_path], deadline)
    setup.append(cold)
    result = json.loads(lines[-1])
    if not args.trace:
        result["metrics"]["setup_s"] = benchlib.metric(
            benchlib.median(setup), "s")
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=benchlib.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + RUN_DEADLINE_S
    benchlib.use_repo_source()

    # traced runs write their spans, untraced runs their scaled report
    # samples
    out_path = os.path.join(OUT_DIR, "%s-%s-s%d.json"
                             % ("trace" if args.trace else "reports",
                                args.workload, args.seed))
    if args.workload == "service-mix":
        import service_mix

        workdir = os.path.join(WORK_DIR, "%d" % os.getpid())
        try:
            result = service_mix.measure(workdir, args.seed, args.seconds,
                                         args.trace, out_path, deadline)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
            try:
                os.rmdir(WORK_DIR)
            except OSError:
                pass
    else:
        result = run_inproc(args, out_path, deadline)

    for problem in result.pop("problems", []):
        print("check failed: %s" % problem, file=sys.stderr)
    wanted = benchlib.LAYER_UNITS if args.trace else END_TO_END
    missing = sorted(set(wanted) - set(result["metrics"]))
    if missing:
        raise RuntimeError("metrics missing from the run: %s"
                           % ", ".join(missing))
    for name in sorted(result["metrics"]):
        entry = result["metrics"][name]
        print("%-32s %14.6g %s" % (name, entry["value"], entry["unit"]))
    print(json.dumps({key: result[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
