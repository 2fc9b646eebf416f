"""The ``service-mix`` workload: submit → report through the HTTP service.

``python -m repro serve --workers 2 --kb … --store … --spool …`` runs in
its own process group, so the load generator never shares its
interpreter lock.  Two closed-loop clients (one per CPU of the 2-CPU
reference host) each repeat:

1. submit a fresh job (a write to the store, the KB and the spool);
2. follow its server-sent-event stream to the ``end`` frame;
3. fetch the report;
4. resubmit the same job (a dedup read) and run a store facet query.

Fresh jobs cycle over the paper and hang scenarios in seeded order.
Each uses a distinct stress seed-stop, above every scenario's failing
seed, so its dedup identity changes but the failure it reproduces does
not.  A ``benchlib.HostClock`` in the client process samples the
host's speed during the mix, and report times are scaled by it.
"""

import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time

import benchlib
from benchlib import (
    PassTotals,
    Spans,
    Tally,
    metric,
    percentile,
    report_problems,
)
from repro.service.client import ServiceClient, ServiceError

#: cold starts of the server per run; the last one serves the run
SERVER_STARTS = 3
#: jobs in flight at once (closed-loop clients)
CLIENTS = 2
#: server pool workers
SERVER_WORKERS = 2
#: cycles over the scenarios every run completes at least
MIN_CYCLES = 3
#: first stress seed-stop; job ``i`` uses ``SEED_STOP_BASE + i``
SEED_STOP_BASE = 8001
WARM_UP = "apache-2"
HTTP_TIMEOUT_S = 60.0


class ServiceDown(RuntimeError):
    """The server process exited or never answered."""


class Server:
    """One ``python -m repro serve`` process group with its own state."""

    def __init__(self, workdir):
        self.workdir = workdir
        self.kb_path = os.path.join(workdir, "kb.json")
        self.store_dir = os.path.join(workdir, "store")
        self.proc = None
        self.port = None

    def start(self, deadline):
        os.makedirs(os.path.join(self.workdir, "tmp"), exist_ok=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = benchlib.SRC
        env["TMPDIR"] = os.path.join(self.workdir, "tmp")
        self.port = _free_port()
        log = open(os.path.join(self.workdir, "server.log"), "ab")
        try:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve",
                 "--host", "127.0.0.1", "--port", str(self.port),
                 "--workers", str(SERVER_WORKERS),
                 "--kb", self.kb_path, "--store", self.store_dir,
                 "--spool", os.path.join(self.workdir, "spool")],
                cwd=benchlib.ROOT, env=env, stdin=subprocess.DEVNULL,
                stdout=log, stderr=log, start_new_session=True)
        finally:
            log.close()
        while True:
            if self.proc.poll() is not None:
                raise ServiceDown("server exited with %d; see %s"
                                  % (self.proc.returncode, self.workdir))
            try:
                self.client(timeout_s=1.0).health()
                return self
            except (OSError, ServiceError):
                pass
            if time.perf_counter() > deadline:
                raise ServiceDown("server did not answer /healthz")
            time.sleep(0.01)

    def client(self, timeout_s=HTTP_TIMEOUT_S):
        return ServiceClient("http://127.0.0.1:%d" % self.port,
                             timeout_s=timeout_s)

    def peak_rss_mb(self):
        return benchlib.peak_rss_mb_of(
            [self.proc.pid] + benchlib.descendants(self.proc.pid))

    def stop(self):
        """Interrupt the server, then kill its whole process group, and
        wait until the server and every pool child it started are gone."""
        if self.proc is None:
            return
        pids = [self.proc.pid] + benchlib.descendants(self.proc.pid)
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        for pid in pids[1:]:
            for _ in range(500):
                if not _alive(pid):
                    break
                time.sleep(0.01)
        self.proc = None


def _alive(pid):
    try:
        with open("/proc/%d/stat" % pid, encoding="ascii") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def _free_port():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def follow_events(client, job_id):
    """Read the job's SSE stream to its ``end`` frame.

    ``ServiceClient`` only polls; the stream is read here.  Returns
    ``(end document, wall-clock arrival of the end frame)``.
    """
    conn = http.client.HTTPConnection(client.host, client.port,
                                      timeout=client.timeout_s)
    try:
        conn.request("GET", "/v1/jobs/%s/events" % job_id)
        response = conn.getresponse()
        if response.status != 200:
            raise ServiceDown("events stream answered %d" % response.status)
        event = None
        while True:
            line = response.readline()
            if not line:
                raise ServiceDown("events stream closed before its end frame")
            line = line.decode("utf-8").rstrip("\n")
            if line.startswith("event: "):
                event = line[len("event: "):]
            elif line.startswith("data: ") and event == "end":
                return json.loads(line[len("data: "):]), time.time()
    finally:
        conn.close()


class JobResult:
    """One client iteration's timings and checks."""

    def __init__(self, index, scenario):
        self.index = index
        self.scenario = scenario
        self.seed_stop = SEED_STOP_BASE + index
        self.tally = Tally()
        self.job_id = None
        self.report = None
        self.end_doc = None
        self.submit_s = []
        self.read_s = []
        self.report_s = None
        self.t_start = self.t_end = None
        self.end_arrival = None
        # server timestamps are wall-clock; spans use the perf counter
        self.offset = time.perf_counter() - time.time()

    @property
    def good(self):
        return self.tally.attempted == len(_STEPS) and not self.tally.failed

    def submit(self, client):
        start = time.perf_counter()
        doc = client.submit(self.scenario, stress_seed_stop=self.seed_stop)
        self.submit_s.append(time.perf_counter() - start)
        return doc


def _fresh_job(client, job, strategies):
    """Submit, follow the event stream to its end frame, fetch the report."""
    from repro.pipeline.report import ReproductionReport

    job.t_start = time.perf_counter()
    doc = job.submit(client)
    if doc.get("deduped"):
        return ["%s: fresh submit came back deduped onto %s"
                % (job.scenario, doc.get("job_id"))]
    job.job_id = doc["job_id"]
    job.end_doc, job.end_arrival = follow_events(client, job.job_id)
    if job.end_doc.get("state") != "done":
        return ["%s: job ended %s: %s" % (job.scenario,
                                          job.end_doc.get("state"),
                                          job.end_doc.get("error"))]
    start = time.perf_counter()
    text = client.report(job.job_id)
    job.t_end = time.perf_counter()
    job.read_s.append(job.t_end - start)
    job.report_s = job.t_end - job.t_start
    job.report = ReproductionReport.from_json(text)
    return report_problems(job.report, strategies)


def _resubmit(client, job, strategies):
    """The identical submission must come back deduped onto the job."""
    doc = job.submit(client)
    if not doc.get("deduped") or doc.get("job_id") != job.job_id:
        return ["%s: resubmit not deduped onto %s (got %s, deduped=%s)"
                % (job.scenario, job.job_id, doc.get("job_id"),
                   doc.get("deduped"))]
    return []


def _facet_query(client, job, strategies):
    """A store read: reproduced reports of the job's scenario."""
    start = time.perf_counter()
    entries = client.reports(scenario=job.scenario, reproduced=True)
    job.read_s.append(time.perf_counter() - start)
    if any(e.get("scenario") != job.scenario or not e.get("reproduced")
           for e in entries):
        return ["%s: facet query answered with foreign entries"
                % job.scenario]
    return []


#: the operations of one client iteration; each needs the ones before it
_STEPS = (_fresh_job, _resubmit, _facet_query)


def run_job(client, index, scenario, strategies):
    """Steps 1-4 of a client iteration, each checked; never raises."""
    job = JobResult(index, scenario)
    for step in _STEPS:
        try:
            problems = step(client, job, strategies)
        except (OSError, ValueError, KeyError, ServiceDown, ServiceError,
                http.client.HTTPException) as exc:
            problems = ["%s: %s: %s" % (scenario, type(exc).__name__, exc)]
        job.tally.record(problems)
        if problems:
            break
    return job


class Mix:
    """The closed-loop clients and the seeded job sequence they share."""

    def __init__(self, client, seed, strategies):
        self.client = client
        self.seed = seed
        self.strategies = strategies
        self.cycle = [s.name for s in benchlib.scenario_set("service-mix")]
        self.lock = threading.Lock()
        self.next_index = 0

    def take(self):
        with self.lock:
            index = self.next_index
            self.next_index += 1
        turn, slot = divmod(index, len(self.cycle))
        return index, benchlib.pass_order(self.cycle, self.seed, turn)[slot]

    def run(self, seconds, min_jobs=0):
        """Run both clients until ``seconds`` pass and at least
        ``min_jobs`` jobs were taken; returns (jobs, start, end) with
        the perf-counter start and end of the run."""
        results = []
        started = time.perf_counter()
        deadline = started + seconds

        def loop():
            while time.perf_counter() < deadline \
                    or self.next_index < min_jobs:
                index, scenario = self.take()
                job = run_job(self.client, index, scenario,
                              self.strategies)
                with self.lock:
                    results.append(job)

        threads = [threading.Thread(target=loop, name="perfbench-client")
                   for _ in range(CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return sorted(results, key=lambda j: j.index), started, \
            time.perf_counter()


def cold_start(workdir, strategies, deadline):
    """Start a server and push one warm-up job through it.

    Returns ``(server, seconds from spawn until the warm-up job
    finished)``, in reference seconds (scaled by reference samples
    taken right after).  The end is the job's own ``finished_at``, not
    the arrival of its ``end`` frame, which the server's 0.1-s event
    poll would round up.
    """
    start = time.time()
    server = Server(workdir)
    try:
        server.start(deadline)
        job = run_job(server.client(), -1, WARM_UP, strategies)
    except BaseException:
        server.stop()
        raise
    if not job.good:
        server.stop()
        raise ServiceDown("warm-up job failed: %s"
                          % "; ".join(job.tally.problems))
    elapsed = job.end_doc["finished_at"] - start
    return server, benchlib.to_reference(elapsed, benchlib.reference_mean())


def measure(workdir, seed, seconds, trace, out_path, deadline):
    """The workload's metrics dict plus the check tallies."""
    from repro.pipeline.config import ReproductionConfig

    strategies = ReproductionConfig().strategy_names()
    setup, server = [], None
    try:
        for start in range(1 if trace else SERVER_STARTS):
            if server is not None:
                server.stop()
            server, elapsed = cold_start(
                os.path.join(workdir, "server-%d" % start), strategies,
                deadline)
            setup.append(elapsed)
        mix = Mix(server.client(), seed, strategies)
        # at least three cycles: the p50 needs 20 reports, and by the
        # third cycle every scenario's first job has finished, so a
        # traced run sees a warm job of every scenario
        with benchlib.HostClock() as clock:
            jobs, started, ended = mix.run(
                seconds, min_jobs=MIN_CYCLES * len(mix.cycle))
        rss = server.peak_rss_mb()
        kb_bytes = _size(server.kb_path)
        store_bytes = _size(os.path.join(server.store_dir, "index.json"))
    finally:
        if server is not None:
            server.stop()

    tally = Tally()
    for job in jobs:
        tally.merge(job.tally)
    good = [j for j in jobs if j.good]
    if trace:
        layers = _layers(good, strategies, tally, kb_bytes, store_bytes)
        metrics = {name: metric(layers[name], unit)
                   for name, unit in benchlib.LAYER_UNITS.items()}
        _spans(good).write(out_path)
    else:
        by_scenario = {}
        for job in good:
            by_scenario.setdefault(job.scenario, []).append(
                (job.report_s, clock.reference(job.t_start, job.t_end)))
        benchlib.write_samples(out_path, by_scenario)
        p50, worst = benchlib.report_quantiles(by_scenario)
        wall = benchlib.to_reference(ended - started,
                                     clock.reference(started, ended))
        metrics = {
            "reports_per_s": metric(len(good) / wall, "1/s"),
            "report_s.p50": metric(p50, "s"),
            "report_s.worst": metric(worst, "s"),
            "setup_s": metric(benchlib.median(setup), "s"),
            "peak_rss_mb": metric(rss, "MB"),
        }
    return tally.result(metrics)


def _size(path):
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _warm(jobs):
    """``{scenario: jobs}`` of the jobs submitted after an earlier job of
    their scenario had finished, so their searches started from that
    job's knowledge-base record (cold and warm searches differ)."""
    first_end = {}
    warm = {}
    for job in sorted(jobs, key=lambda j: j.t_start):
        end = first_end.get(job.scenario)
        if end is not None and end < job.t_start:
            warm.setdefault(job.scenario, []).append(job)
        arrival = job.end_arrival + job.offset
        first_end[job.scenario] = min(end or arrival, arrival)
    return warm


def _layers(jobs, strategies, tally, kb_bytes, store_bytes):
    """Per-layer values: for each scenario the median over its warm jobs,
    summed over the cycle of scenarios; counts must repeat exactly."""
    from repro.bugs import get_scenario
    from repro.pipeline.bundle import ProgramBundle

    warm = _warm(jobs)
    names = [s.name for s in benchlib.scenario_set("service-mix")]
    if sorted(warm) != sorted(names):
        raise ServiceDown("some scenario had no warm job: run longer")
    layers = {}
    for name in names:
        values = []
        for job in warm[name]:
            totals = PassTotals()
            totals.add_report(job.report, job.report.failing_seed + 1)
            values.append(totals.finish())
        drift = benchlib.counts_agree(values)
        tally.record(["%s: deterministic counts drift: %s"
                      % (name, ", ".join(drift))] if drift else [])
        for key, value in benchlib.combine_passes(values).items():
            layers[key] = layers.get(key, 0.0) + value
    # ratios of the summed cycle, not sums of per-scenario ratios
    cycle = PassTotals()
    cycle.values.update(layers)
    # every search of a checked report reproduced
    cycle.reproductions = len(names) * len(strategies)
    layers = cycle.finish()
    self_s = sum(benchlib.median([j.report_s - _stage_walls(j.report)
                                  for j in warm[name]]) for name in names)

    builds = []
    for _ in range(3):
        start = time.perf_counter()
        for name in names:
            ProgramBundle(get_scenario(name).build()).block_table
        builds.append(time.perf_counter() - start)
    layers["lang.build_s"] = benchlib.median(builds)

    from inproc import sharded_probe

    shard_s, exec_counts = sharded_probe(
        benchlib.sharded_set("service-mix"), strategies, Spans(), tally)
    for name, count in zip(("exec.retries", "exec.pool_rebuilds",
                            "exec.degraded"), exec_counts):
        layers[name] += count

    report_total = sum(j.report_s for j in jobs)
    layers.update({
        "parallel.search_s": shard_s[2],
        "parallel.speedup": shard_s[1] / shard_s[2],
        "report.self_s": self_s,
        "service.queue_wait_frac": sum(
            j.end_doc["started_at"] - j.end_doc["created_at"]
            for j in jobs) / report_total,
        "service.dispatch_frac": sum(
            (j.end_doc["finished_at"] - j.end_doc["started_at"])
            - _stage_walls(j.report) for j in jobs) / report_total,
        "service.notify_lag_frac": sum(
            j.end_arrival - j.end_doc["finished_at"]
            for j in jobs) / report_total,
        "service.submit_s.p50": percentile(
            [s for j in jobs for s in j.submit_s], 0.5),
        "service.read_s.p50": percentile(
            [s for j in jobs for s in j.read_s], 0.5),
        "kb.index_bytes": kb_bytes,
        "store.index_bytes": store_bytes,
        # spans are derived from the job documents after the run, so
        # the clients do no extra work when traced
        "trace.overhead_frac": 0.0,
    })
    return layers


def _stage_walls(report):
    t = report.timings
    return t.stress_s + t.analyze_s + t.diff_s + t.search_s


def _spans(jobs):
    """Client spans per job, with the server-side intervals as children."""
    spans = Spans()
    for job in jobs:
        doc, offset = job.end_doc, job.offset
        key = "%s#%d" % (job.scenario, job.index)
        root = spans.add("job", job.t_start, job.t_end, key=key)
        spans.add("service.queue", doc["created_at"] + offset,
                  doc["started_at"] + offset, parent=root, key=key)
        run = spans.add("service.run", doc["started_at"] + offset,
                        doc["finished_at"] + offset, parent=root, key=key)
        t = job.report.timings
        cursor = doc["started_at"] + offset
        for stage, seconds in (("pipeline.stress", t.stress_s),
                               ("indexing", t.analyze_s),
                               ("coredump+slicing", t.diff_s),
                               ("search", t.search_s)):
            # stage walls are durations; laid end to end from the start
            # of the run they bound the run's self time from below
            spans.add(stage, cursor, cursor + seconds, parent=run, key=key)
            cursor += seconds
        spans.add("service.notify", doc["finished_at"] + offset,
                  job.end_arrival + offset, parent=root, key=key)
    return spans
