"""The service's job model: lifecycle state machine and progress spool.

A *job* is one submission of a registered scenario to the reproduction
service: the unit the HTTP front-end accepts, queues, dedups, runs, and
serves results for.  The lifecycle is a strict state machine::

    queued ──▶ running ──▶ done
       │          │  └────▶ failed
       └──────────┴───────▶ cancelled

``done`` / ``failed`` / ``cancelled`` are terminal.  A duplicate
submission (same program fingerprint, same effective config) never
creates a second run — the manager returns the canonical job and bumps
its ``submissions`` counter, exactly mirroring how ``run_many`` aliases
duplicate batch entries.

Per-stage progress crosses the process boundary through a
:class:`ProgressSpool`: a picklable callable the worker body
(:func:`repro.pipeline.batch._run_one`) invokes after each completed
pipeline stage, appending one JSON line — stage name, the session's
cumulative wall clock for that stage (the same number that lands in the
report's ``PhaseTimings``), and a timestamp — to a spool file the
service tails while the job is still running.
"""

import json
import os
import time
import uuid
from dataclasses import dataclass, field
from typing import Optional

#: job lifecycle states
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

#: states a job can never leave
TERMINAL_STATES = frozenset({DONE, FAILED, CANCELLED})

#: legal transitions of the lifecycle state machine
_TRANSITIONS = {
    QUEUED: frozenset({RUNNING, CANCELLED}),
    RUNNING: frozenset({DONE, FAILED, CANCELLED}),
    DONE: frozenset(),
    FAILED: frozenset(),
    CANCELLED: frozenset(),
}

#: pipeline stages in execution order, as reported through the spool
STAGES = ("stress", "analyze", "diff", "search", "kb")


class JobStateError(RuntimeError):
    """An illegal lifecycle transition (e.g. cancelling a done job)."""

    def __init__(self, job_id, state, requested):
        super().__init__("job %s is %s; cannot move to %s"
                         % (job_id, state, requested))
        self.job_id = job_id
        self.state = state
        self.requested = requested


def new_job_id():
    """A fresh opaque job identifier."""
    return uuid.uuid4().hex[:12]


@dataclass
class JobRecord:
    """One submission's full service-side state."""

    job_id: str
    scenario: str
    #: canonical program fingerprint (exact-dedup identity, see
    #: :func:`repro.kb.scenario_fingerprint`)
    fingerprint: str
    #: canonical JSON of the effective config + seed-stop; with the
    #: fingerprint this is the submission identity dedup keys on
    config_key: str
    #: the effective :class:`ReproductionConfig` this job runs under
    config: object = None
    stress_seed_stop: Optional[int] = None
    state: str = QUEUED
    created_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    #: times this identity was submitted (1 + dedup hits)
    submissions: int = 1
    #: structured error doc once ``failed`` ({stage, exc_type, message})
    error: Optional[dict] = None
    #: completed report document text once ``done``
    report_json: Optional[str] = None
    #: spool file the worker streams stage progress into
    progress_path: Optional[str] = None

    def transition(self, state, now=None):
        """Move to ``state``, enforcing the lifecycle machine.

        ``now`` stamps the transition (default: the current time).
        """
        if state not in _TRANSITIONS[self.state]:
            raise JobStateError(self.job_id, self.state, state)
        self.state = state
        if now is None:
            now = time.time()
        if state == RUNNING:
            self.started_at = now
        if state in TERMINAL_STATES:
            self.finished_at = now
        return self

    @property
    def terminal(self):
        return self.state in TERMINAL_STATES

    def to_doc(self, stages=None):
        """The job's status document (the ``GET /v1/jobs/<id>`` body)."""
        doc = {
            "job_id": self.job_id,
            "scenario": self.scenario,
            "fingerprint": self.fingerprint,
            "state": self.state,
            "created_at": self.created_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "submissions": self.submissions,
        }
        if self.error is not None:
            doc["error"] = dict(self.error)
        if stages is not None:
            doc["stages"] = stages
        return doc


@dataclass
class ProgressSpool:
    """Picklable per-stage progress sink handed to the worker body.

    Instances cross the pool boundary inside the supervised task's
    argument tuple, so the only state is the spool path.  Writes are
    single ``write()`` calls of one full line in append mode — the
    reader may see a torn final line mid-write, which
    :func:`read_progress` tolerates, but never interleaved lines.
    """

    path: str

    def __call__(self, stage, wall_s):
        line = json.dumps({"stage": stage, "wall_s": wall_s,
                           "at": time.time()}, sort_keys=True)
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")


def read_progress(path):
    """Stage events spooled so far (oldest first), tolerant of tearing.

    A missing file is an empty event list (the job has not produced its
    first stage yet); a torn or garbled line — a worker died mid-write —
    is skipped rather than failing the status endpoint.
    """
    if not path or not os.path.exists(path):
        return []
    events = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                try:
                    doc = json.loads(line)
                except ValueError:
                    continue
                if isinstance(doc, dict) and "stage" in doc:
                    events.append(doc)
    except OSError:
        return events
    return events
