"""The HTTP front-end over a live server on an ephemeral port.

A stub worker body keeps these fast (no real reproduction sessions);
``test_equivalence.py`` covers the real-session end-to-end path.  Each
module-scoped server is shared across tests — every request opens its
own connection, so tests stay independent.
"""

import http.client
import json
import time

import pytest

from repro.service import (
    JobManager,
    ServiceClient,
    ServiceError,
    ServiceThread,
)

from tests.service.test_jobs import _ok_runner, _stub_report


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("svc")
    manager = JobManager(store=str(tmp / "store"),
                         spool_dir=str(tmp / "spool"))
    manager._runner = _ok_runner
    with ServiceThread(manager) as handle:
        yield handle


@pytest.fixture(scope="module")
def client(service):
    return ServiceClient("http://127.0.0.1:%d" % service.port)


def _raw(service, method, path, body=None, headers=None):
    conn = http.client.HTTPConnection("127.0.0.1", service.port, timeout=10)
    try:
        conn.request(method, path, body=body, headers=headers or {})
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def test_healthz(client):
    doc = client.health()
    assert doc["status"] == "ok"
    assert doc["store"] is True


def test_scenarios_lists_registry(client):
    names = {s["name"] for s in client.scenarios()}
    assert "fig1" in names
    assert "mysql-1" in names


def test_submit_poll_fetch_roundtrip(client):
    doc = client.submit("fig1")
    assert doc["deduped"] is False
    final = client.wait(doc["job_id"], timeout_s=30)
    assert final["state"] == "done"
    assert [e["stage"] for e in final["stages"]] == ["stress", "search"]
    assert client.report(doc["job_id"]) == _stub_report("fig1")
    # the persisted copy is the same bytes
    assert client.stored_report(doc["job_id"]) == _stub_report("fig1")


def test_resubmission_dedups_with_200(service, client):
    first = client.submit("mysql-1")
    client.wait(first["job_id"], timeout_s=30)
    status, body = _raw(service, "POST", "/v1/jobs",
                        body=json.dumps({"scenario": "mysql-1"}),
                        headers={"Content-Type": "application/json"})
    assert status == 200  # deduped: not a new resource, so not 202
    doc = json.loads(body)
    assert doc["deduped"] is True
    assert doc["job_id"] == first["job_id"]
    assert doc["submissions"] == 2


def test_fresh_submission_gets_202(service):
    status, body = _raw(service, "POST", "/v1/jobs",
                        body=json.dumps({"scenario": "apache-1"}),
                        headers={"Content-Type": "application/json"})
    assert status == 202
    assert json.loads(body)["deduped"] is False


def test_jobs_listing_filters(client):
    client.wait(client.submit("bank-transfer")["job_id"], timeout_s=30)
    jobs = client.jobs(scenario="bank-transfer")
    assert {j["scenario"] for j in jobs} == {"bank-transfer"}
    assert client.jobs(scenario="bank-transfer", state="done")
    assert client.jobs(scenario="no-such") == []
    by_fp = client.jobs(fingerprint=jobs[0]["fingerprint"])
    assert jobs[0]["job_id"] in {j["job_id"] for j in by_fp}


def test_reports_query_endpoint(client):
    client.wait(client.submit("cache-refill")["job_id"], timeout_s=30)
    entries = client.reports(scenario="cache-refill")
    assert len(entries) == 1
    assert entries[0]["reproduced"] is True
    assert client.reports(scenario="cache-refill", reproduced=False) == []


def test_store_holds_report_once_wait_returns(service, client, monkeypatch):
    """The report reaches the store before the job reads ``done``: a
    facet query issued the moment ``wait()`` returns finds the job, even
    when the store write is slow."""
    store = service.service.manager.store
    put = store.put

    def slow_put(job, report_json):
        time.sleep(0.3)  # far longer than the client's 0.1 s poll
        return put(job, report_json)

    monkeypatch.setattr(store, "put", slow_put)
    job_id = client.submit("synth-atom-s0")["job_id"]
    assert client.wait(job_id, timeout_s=30)["state"] == "done"
    entries = client.reports(scenario="synth-atom-s0")
    assert [e["job_id"] for e in entries] == [job_id]


def test_error_statuses(service, client):
    with pytest.raises(ServiceError) as exc:
        client.submit("no-such-scenario")
    assert (exc.value.status, exc.value.code) == (404, "unknown-scenario")

    with pytest.raises(ServiceError) as exc:
        client.submit("fig1", config={"bogus": 1})
    assert (exc.value.status, exc.value.code) == (400, "bad-config")

    with pytest.raises(ServiceError) as exc:
        client.job("nonexistent")
    assert (exc.value.status, exc.value.code) == (404, "unknown-job")

    with pytest.raises(ServiceError) as exc:
        client.stored_report("nonexistent")
    assert (exc.value.status, exc.value.code) == (404, "unknown-report")

    status, body = _raw(service, "GET", "/v1/nowhere")
    assert status == 404
    status, body = _raw(service, "PUT", "/v1/jobs")
    assert status == 405
    status, body = _raw(service, "DELETE", "/v1/jobs")
    assert status == 405

    status, body = _raw(service, "POST", "/v1/jobs", body=b"not json",
                        headers={"Content-Type": "application/json"})
    assert status == 400
    assert json.loads(body)["error"]["code"] == "bad-json"

    status, body = _raw(service, "POST", "/v1/jobs", body=b"[1, 2]",
                        headers={"Content-Type": "application/json"})
    assert status == 400

    status, body = _raw(service, "POST", "/v1/jobs",
                        body=json.dumps({"scenario": ""}),
                        headers={"Content-Type": "application/json"})
    assert status == 400


def test_oversized_body_rejected(service):
    blob = b"x" * (1024 * 1024 + 1)
    status, body = _raw(service, "POST", "/v1/jobs", body=blob)
    assert status == 413
    assert json.loads(body)["error"]["code"] == "payload-too-large"


def test_report_of_unfinished_job_conflicts(service, client):
    # a queued-or-running job has no report yet: 409, not 404
    import threading

    release = threading.Event()

    def gated(name, config, seed_stop, progress=None, fault=None):
        release.wait(timeout=10.0)
        return _ok_runner(name, config, seed_stop, progress)

    manager = service.service.manager
    original = manager._runner
    manager._runner = gated
    try:
        doc = client.submit("mysql-2")
        with pytest.raises(ServiceError) as exc:
            client.report(doc["job_id"])
        assert (exc.value.status, exc.value.code) == (409, "job-not-done")
    finally:
        release.set()
        manager._runner = original
        client.wait(doc["job_id"], timeout_s=30)


def test_cancel_endpoint(service, client):
    import threading

    release = threading.Event()

    def gated(name, config, seed_stop, progress=None, fault=None):
        release.wait(timeout=10.0)
        return _ok_runner(name, config, seed_stop, progress)

    manager = service.service.manager
    original = manager._runner
    manager._runner = gated
    try:
        blocker = client.submit("mysql-3")
        victim = client.submit("mysql-4")  # queued behind the blocker
        doc = client.cancel(victim["job_id"])
        assert doc["state"] == "cancelled"
        with pytest.raises(ServiceError) as exc:
            client.cancel(victim["job_id"])  # already terminal
        assert (exc.value.status, exc.value.code) == (409, "job-terminal")
    finally:
        release.set()
        manager._runner = original
        client.wait(blocker["job_id"], timeout_s=30)


def test_sse_stream_replays_stages_then_ends(service, client):
    doc = client.submit("mysql-5")
    client.wait(doc["job_id"], timeout_s=30)
    conn = http.client.HTTPConnection("127.0.0.1", service.port, timeout=10)
    try:
        conn.request("GET", "/v1/jobs/%s/events" % doc["job_id"])
        response = conn.getresponse()
        assert response.status == 200
        assert response.getheader("Content-Type") == "text/event-stream"
        body = response.read().decode("utf-8")
    finally:
        conn.close()
    events = [line.split(": ", 1)[1] for line in body.splitlines()
              if line.startswith("event: ")]
    assert events == ["stage", "stage", "end"]
    payloads = [json.loads(line.split(": ", 1)[1])
                for line in body.splitlines() if line.startswith("data: ")]
    assert [p.get("stage") for p in payloads[:-1]] == ["stress", "search"]
    assert payloads[-1]["state"] == "done"


def test_sse_follows_a_live_job(service, client):
    import threading

    release = threading.Event()

    def slow(name, config, seed_stop, progress=None, fault=None):
        progress("stress", 0.1)
        release.wait(timeout=10.0)
        progress("search", 0.2)
        return (name, _stub_report(name), None)

    manager = service.service.manager
    original = manager._runner
    manager._runner = slow
    try:
        doc = client.submit("apache-2")
        # let the first stage land, then release mid-stream
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            if client.job(doc["job_id"]).get("stages"):
                break
            time.sleep(0.02)
        threading.Timer(0.3, release.set).start()
        conn = http.client.HTTPConnection("127.0.0.1", service.port,
                                          timeout=30)
        try:
            conn.request("GET", "/v1/jobs/%s/events" % doc["job_id"])
            response = conn.getresponse()
            body = response.read().decode("utf-8")
        finally:
            conn.close()
    finally:
        release.set()
        manager._runner = original
        client.wait(doc["job_id"], timeout_s=30)
    stages = [json.loads(line.split(": ", 1)[1])["stage"]
              for line in body.splitlines()
              if line.startswith("data: ") and '"stage"' in line]
    assert stages == ["stress", "search"]
    assert "event: end" in body
