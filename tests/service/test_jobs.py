"""Job model and manager lifecycle — driven by a stub worker body.

The manager is HTTP-agnostic by design, so everything here exercises
:class:`~repro.service.manager.JobManager` directly: the lifecycle
state machine, fingerprint dedup, cancellation in every state, error
capture, and the invariant that concurrent submissions share one
supervisor over the process-wide pool.  A stub runner substitutes for
:func:`repro.pipeline.batch._run_one` so lifecycle scenarios (slow
jobs, failing jobs) need no real reproduction sessions.
"""

import json
import threading
import time

import pytest

from repro.service import (
    CANCELLED,
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    JobManager,
    JobRecord,
    JobStateError,
    ProgressSpool,
    UnknownJobError,
    UnknownScenarioError,
    read_progress,
)
from repro.service.jobs import _TRANSITIONS, TERMINAL_STATES


# ---------------------------------------------------------------------------
# the state machine
# ---------------------------------------------------------------------------

def _record(state=QUEUED):
    job = JobRecord(job_id="j0", scenario="fig1", fingerprint="fp",
                    config_key="{}")
    job.state = state
    return job


def test_legal_lifecycle_paths():
    job = _record()
    job.transition(RUNNING)
    assert job.started_at is not None
    job.transition(DONE)
    assert job.finished_at is not None
    assert job.terminal

    assert _record(QUEUED).transition(CANCELLED).terminal
    assert _record(RUNNING).transition(FAILED).terminal
    assert _record(RUNNING).transition(CANCELLED).terminal


@pytest.mark.parametrize("terminal", sorted(TERMINAL_STATES))
def test_terminal_states_are_final(terminal):
    for requested in _TRANSITIONS:
        with pytest.raises(JobStateError):
            _record(terminal).transition(requested)


def test_queued_cannot_skip_to_done():
    with pytest.raises(JobStateError):
        _record(QUEUED).transition(DONE)


# ---------------------------------------------------------------------------
# the progress spool
# ---------------------------------------------------------------------------

def test_progress_spool_roundtrip(tmp_path):
    path = str(tmp_path / "job.progress")
    spool = ProgressSpool(path)
    spool("stress", 0.25)
    spool("analyze", 0.01)
    events = read_progress(path)
    assert [e["stage"] for e in events] == ["stress", "analyze"]
    assert events[0]["wall_s"] == 0.25
    assert all("at" in e for e in events)


def test_progress_reader_tolerates_missing_and_torn(tmp_path):
    assert read_progress(str(tmp_path / "absent")) == []
    assert read_progress(None) == []
    path = tmp_path / "torn.progress"
    path.write_text(json.dumps({"stage": "stress", "wall_s": 0.1}) + "\n"
                    + '{"stage": "anal')  # worker died mid-write
    events = read_progress(str(path))
    assert [e["stage"] for e in events] == ["stress"]


# ---------------------------------------------------------------------------
# manager lifecycle with a stub worker body
# ---------------------------------------------------------------------------

def _stub_report(name):
    return json.dumps({"schema": "repro.report/1.3", "bug": name,
                       "searches": {"chess": {"reproduced": True}}})


def _ok_runner(name, config, seed_stop, progress=None, fault=None):
    if progress is not None:
        progress("stress", 0.1)
        progress("search", 0.2)
    return (name, _stub_report(name), None)


def _manager(tmp_path, runner=_ok_runner, **kw):
    manager = JobManager(spool_dir=str(tmp_path / "spool"), **kw)
    manager._runner = runner
    return manager


def _wait_terminal(manager, job_id, timeout_s=10.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        job = manager.job(job_id)
        if job.terminal:
            return job
        time.sleep(0.01)
    raise AssertionError("job %s still %s" % (job_id,
                                              manager.job(job_id).state))


def test_submit_runs_to_done_with_progress(tmp_path):
    with _manager(tmp_path) as manager:
        job, deduped = manager.submit("fig1")
        assert not deduped
        job = _wait_terminal(manager, job.job_id)
        assert job.state == DONE
        doc = manager.status_doc(job.job_id)
        assert [e["stage"] for e in doc["stages"]] == ["stress", "search"]
        assert manager.report_json(job.job_id) == _stub_report("fig1")


def test_unknown_scenario_rejected_before_enqueue(tmp_path):
    with _manager(tmp_path) as manager:
        with pytest.raises(UnknownScenarioError):
            manager.submit("no-such-scenario")
        assert manager.jobs() == []


def test_bad_config_override_rejected(tmp_path):
    with _manager(tmp_path) as manager:
        with pytest.raises(ValueError, match="unknown config field"):
            manager.submit("fig1", {"not_a_field": 1})
        with pytest.raises(ValueError):
            manager.submit("fig1", {"search_workers": 0})
        assert manager.jobs() == []


def test_unknown_job_id(tmp_path):
    with _manager(tmp_path) as manager:
        with pytest.raises(UnknownJobError):
            manager.job("nope")


def test_duplicate_submission_dedups(tmp_path):
    calls = []

    def counting(name, config, seed_stop, progress=None, fault=None):
        calls.append(name)
        return _ok_runner(name, config, seed_stop, progress)

    with _manager(tmp_path, runner=counting) as manager:
        first, deduped = manager.submit("fig1")
        assert not deduped
        _wait_terminal(manager, first.job_id)
        again, deduped = manager.submit("fig1")
        assert deduped
        assert again.job_id == first.job_id
        assert again.submissions == 2
        assert calls == ["fig1"]  # the duplicate never re-ran


def test_different_config_is_a_different_job(tmp_path):
    with _manager(tmp_path) as manager:
        a, _ = manager.submit("fig1")
        b, deduped = manager.submit("fig1", {"preemption_bound": 3})
        assert not deduped
        assert b.job_id != a.job_id
        c, deduped = manager.submit("fig1", stress_seed_stop=123)
        assert not deduped
        assert c.job_id not in (a.job_id, b.job_id)


def test_failed_job_does_not_block_resubmission(tmp_path):
    state = {"fail": True}

    def flaky(name, config, seed_stop, progress=None, fault=None):
        if state["fail"]:
            return (name, None, {"stage": "stress", "exc_type": "Boom",
                                 "message": "injected"})
        return _ok_runner(name, config, seed_stop, progress)

    with _manager(tmp_path, runner=flaky) as manager:
        job, _ = manager.submit("fig1")
        job = _wait_terminal(manager, job.job_id)
        assert job.state == FAILED
        assert job.error["exc_type"] == "Boom"
        state["fail"] = False
        retry, deduped = manager.submit("fig1")
        assert not deduped
        assert retry.job_id != job.job_id
        assert _wait_terminal(manager, retry.job_id).state == DONE


def test_runner_exception_becomes_failed_job(tmp_path):
    def raising(name, config, seed_stop, progress=None, fault=None):
        raise RuntimeError("worker body exploded")

    with _manager(tmp_path, runner=raising) as manager:
        job, _ = manager.submit("fig1")
        job = _wait_terminal(manager, job.job_id)
        assert job.state == FAILED
        assert "exploded" in job.error["message"]


def test_cancel_queued_job_never_runs(tmp_path):
    calls = []
    release = threading.Event()

    def gated(name, config, seed_stop, progress=None, fault=None):
        calls.append(name)
        release.wait(timeout=10.0)
        return _ok_runner(name, config, seed_stop, progress)

    manager = _manager(tmp_path, runner=gated)
    with manager:
        blocker, _ = manager.submit("fig1")
        victim, _ = manager.submit("mysql-1")  # queued behind the blocker
        for _ in range(200):
            if calls:
                break
            time.sleep(0.01)
        cancelled = manager.cancel(victim.job_id)
        assert cancelled.state == CANCELLED
        release.set()
        assert _wait_terminal(manager, blocker.job_id).state == DONE
        assert calls == ["fig1"]  # the victim never reached the runner


def test_cancel_terminal_job_raises(tmp_path):
    with _manager(tmp_path) as manager:
        job, _ = manager.submit("fig1")
        _wait_terminal(manager, job.job_id)
        with pytest.raises(JobStateError):
            manager.cancel(job.job_id)


def test_cancelled_running_job_discards_result(tmp_path):
    release = threading.Event()
    started = threading.Event()

    def gated(name, config, seed_stop, progress=None, fault=None):
        started.set()
        release.wait(timeout=10.0)
        return _ok_runner(name, config, seed_stop, progress)

    with _manager(tmp_path, runner=gated) as manager:
        job, _ = manager.submit("fig1")
        assert started.wait(timeout=10.0)
        manager.cancel(job.job_id)
        release.set()
        time.sleep(0.2)  # let the abandoned result come back
        job = manager.job(job.job_id)
        assert job.state == CANCELLED
        assert job.report_json is None


def test_concurrent_submissions_share_one_supervisor(tmp_path):
    """Many concurrent submitters; all jobs run through ONE supervisor
    (hence one shared pool), never one pool per submission."""
    with _manager(tmp_path, workers=2) as manager:
        names = ["fig1", "mysql-1", "apache-1", "bank-transfer"]
        jobs = {}

        def submit(name):
            job, _ = manager.submit(name)
            jobs[name] = job.job_id

        threads = [threading.Thread(target=submit, args=(n,)) for n in names]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        supervisors = set()
        for name in names:
            job = _wait_terminal(manager, jobs[name])
            assert job.state == DONE, job.error
        supervisors.add(id(manager._supervisor))
        assert len(supervisors) == 1
        assert manager._supervisor is not None
        assert manager._supervisor.workers == 2


def test_store_error_leaves_job_done_and_served_from_memory(tmp_path):
    with _manager(tmp_path, store=str(tmp_path / "store")) as manager:
        def broken_put(job, report_json):
            raise OSError("disk full")

        manager.store.put = broken_put
        job, _ = manager.submit("fig1")
        job = _wait_terminal(manager, job.job_id)
        assert job.state == DONE
        assert job.error == {"stage": "store", "exc_type": "OSError",
                             "message": "disk full"}
        assert manager.report_json(job.job_id) == _stub_report("fig1")
        assert manager.store.query(scenario="fig1") == []


def test_store_receives_completed_reports(tmp_path):
    with _manager(tmp_path, store=str(tmp_path / "store")) as manager:
        job, _ = manager.submit("fig1")
        _wait_terminal(manager, job.job_id)
        entry = manager.store.query(scenario="fig1")
        assert len(entry) == 1
        assert entry[0]["job_id"] == job.job_id
        assert manager.store.fetch(job.job_id) == _stub_report("fig1")
