"""Fleet worker: claim a lease, run the phase graph, heartbeat, finish.

A :class:`ServiceWorker` polls the shared store for claimable jobs
(queued, or planned/running with a stale lease — a dead colleague's
work), claims the job's ``final_key`` lease and executes the pipeline.
Crash-recovery is entirely inherited: the phase graph restores the
deepest warm boundary and resumes the deepest ``kind="checkpoint"``
artifact, so a takeover continues a dead worker's saturation
mid-phase instead of restarting it (``JobRecord.resumed_phase`` records
that it happened).

Any number of workers on any number of hosts may run against one store;
the lease protocol (:mod:`repro.service.leases`) guarantees one owner
per final key, and content-addressed idempotent writes make even a
pathological double-execution harmless.

Fault injection for tests: setting ``_REPRO_SERVICE_KILL_WORKER_ONCE``
to a marker-file path hard-kills the worker process (``os._exit(17)``)
right after its first mid-phase checkpoint write — the marker's
``O_EXCL`` creation guarantees exactly one kill, and the checkpoint's
existence guarantees the successor has something to resume from.  This
mirrors ``_REPRO_BATCH_KILL_WORKER_ONCE`` in :mod:`repro.core.batch`.
"""

from __future__ import annotations

import os
import random
import threading
import time
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple, Union

from ..core import BoolEOptions
from ..store import KIND_CHECKPOINT, ArtifactStore
from .jobs import (
    STATE_DONE,
    STATE_FAILED,
    STATE_PLANNED,
    STATE_RUNNING,
    JobRecord,
    JobService,
    plan_summary,
)
from .leases import DEFAULT_TTL, Lease, LeaseManager

_KILL_ENV = "_REPRO_SERVICE_KILL_WORKER_ONCE"

#: Idle back-off cap, as a multiple of ``poll_interval``.
_MAX_BACKOFF_FACTOR = 8

#: Phase name → the legacy key its runtime is filed under in
#: ``BoolEResult.timings``.
_PHASE_TIMINGS = {
    "construct": "construct",
    "saturate-r1": "r1",
    "saturate-r2": "r2",
    "insert-fa": "fa_pairing",
    "extract": "extract",
    "reconstruct": "reconstruct",
}


class _KillAfterCheckpointStore(ArtifactStore):
    """Store proxy that hard-kills the process after a checkpoint write.

    The kill happens *after* the checkpoint artifact is durably on disk,
    so the successor is guaranteed a resume point; the ``O_EXCL`` marker
    file makes the kill fire exactly once across retries.
    """

    def __init__(self, root: Union[str, Path], marker: str) -> None:
        super().__init__(root)
        self._marker = marker

    def put(self, key: str, payload: Dict, *, kind: str,
            meta: Optional[Dict] = None) -> Path:
        path = super().put(key, payload, kind=kind, meta=meta)
        if kind == KIND_CHECKPOINT:
            try:
                descriptor = os.open(self._marker,
                                     os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                return path
            os.close(descriptor)
            os._exit(17)
        return path


class ServiceWorker:
    """One worker process of the fleet."""

    def __init__(self, store: Union[ArtifactStore, str, Path], *,
                 owner: Optional[str] = None,
                 ttl: float = DEFAULT_TTL,
                 options: Optional[BoolEOptions] = None,
                 poll_interval: float = 0.25,
                 capabilities: Optional[Sequence[str]] = None) -> None:
        self.service = JobService(store, options)
        self.leases = LeaseManager(self.service.store, owner=owner, ttl=ttl)
        self.poll_interval = poll_interval
        #: Tags this worker offers; jobs requiring others are invisible
        #: to it.  The empty tuple claims only tag-free jobs.
        self.capabilities: Tuple[str, ...] = tuple(
            capabilities if capabilities is not None else ())
        self.jobs_completed = 0

    @property
    def owner(self) -> str:
        return self.leases.owner

    # ------------------------------------------------------------------
    def _run_store(self) -> ArtifactStore:
        marker = os.environ.get(_KILL_ENV)
        if marker:
            return _KillAfterCheckpointStore(self.service.store.root, marker)
        return self.service.store

    def _heartbeat_loop(self, lease: Lease, stop: threading.Event,
                        deposed: threading.Event) -> None:
        interval = max(0.05, lease.ttl / 4.0)
        while not stop.wait(interval):
            if not self.leases.heartbeat(lease):
                deposed.set()
                return

    # ------------------------------------------------------------------
    def run_once(self) -> Optional[str]:
        """Claim and execute one job; returns its id, or ``None`` idle.

        Walks the claimable queue (highest priority first, then oldest;
        dependency-blocked and capability-mismatched jobs are already
        filtered out); keys whose lease another worker holds are simply
        skipped (the back-off of the losing racer), so concurrent
        workers drain disjoint shards of a sweep.
        """
        for record in self.service.claimable(self.capabilities):
            lease = self.leases.claim(record.final_key)
            if lease is None:
                continue
            try:
                return self._execute(record, lease)
            finally:
                self.leases.release(lease)
        return None

    def _idle_delay(self, idle_streak: int) -> float:
        """Jittered exponential back-off for consecutive idle polls.

        Doubles per idle poll up to ``8 × poll_interval``, scaled by a
        uniform [0.5, 1.0) jitter so a fleet of workers that went idle
        together does not stampede the store index in lock-step.  The
        jitter is scheduling noise only — it never touches cache keys or
        serialized output.  One claim resets the streak to zero.
        """
        factor = min(_MAX_BACKOFF_FACTOR, 2 ** idle_streak)
        return self.poll_interval * factor * random.uniform(0.5, 1.0)

    def run_forever(self, *, max_jobs: Optional[int] = None,
                    idle_timeout: Optional[float] = None) -> int:
        """Poll-and-execute until stopped; returns jobs completed.

        ``max_jobs`` bounds the number of jobs to run (for tests and
        drain-style CLIs); ``idle_timeout`` exits after that many
        seconds with nothing claimable.  Idle polls back off
        exponentially with jitter (see :meth:`_idle_delay`); any claim
        snaps the delay back to ``poll_interval``.
        """
        completed = 0
        idle_streak = 0
        idle_since = time.monotonic()
        while True:
            job_id = self.run_once()
            if job_id is not None:
                completed += 1
                idle_streak = 0
                idle_since = time.monotonic()
                if max_jobs is not None and completed >= max_jobs:
                    return completed
                continue
            if (idle_timeout is not None
                    and time.monotonic() - idle_since >= idle_timeout):
                return completed
            delay = self._idle_delay(idle_streak)
            if idle_timeout is not None:
                # Never oversleep past the idle deadline.
                remaining = idle_timeout - (time.monotonic() - idle_since)
                delay = min(delay, max(0.0, remaining))
            idle_streak += 1
            time.sleep(delay)

    # ------------------------------------------------------------------
    def _execute(self, record: JobRecord, lease: Lease) -> Optional[str]:
        service = self.service
        now = time.time()
        record.state = STATE_PLANNED
        record.worker = self.owner
        record.attempts += 1
        record.updated = now
        record.error = None
        record.add_event("claimed", now, worker=self.owner,
                         taken_over_from=lease.taken_over_from)
        service.save(record)

        # Set when another worker takes the lease over: from then on the
        # record is theirs to write, whether this run succeeds or fails.
        deposed = threading.Event()
        try:
            pipeline, aig, plan = service.plan_spec(record.spec)
            now = time.time()
            record.state = STATE_RUNNING
            record.updated = now
            record.add_event("running", now, plan=plan_summary(plan))
            service.save(record)

            stop = threading.Event()
            beat = threading.Thread(target=self._heartbeat_loop,
                                    args=(lease, stop, deposed), daemon=True)
            beat.start()
            try:
                result = pipeline.run(aig, store=self._run_store())
            finally:
                stop.set()
                beat.join()
            if deposed.is_set():
                # Our artifacts are content-addressed, so nothing needs
                # undoing.
                return None

            now = time.time()
            record.state = STATE_DONE
            record.updated = now
            record.result = result.summary()
            record.resumed_phase = result.resumed_phase
            for phase_name in pipeline.phases:
                timing_key = _PHASE_TIMINGS.get(phase_name, phase_name)
                if timing_key in result.timings:
                    record.add_event(
                        "phase", now, name=phase_name,
                        runtime=result.timings[timing_key],
                        resumed=(phase_name == result.resumed_phase))
            record.add_event("done", now, worker=self.owner,
                             cache_hit=result.cache_hit,
                             extraction_cache_hit=result.extraction_cache_hit,
                             resumed_phase=result.resumed_phase,
                             **result.saturation_stats())
            service.save(record)
            self.jobs_completed += 1
            return record.job_id
        except Exception as error:  # noqa: BLE001 - terminal state capture
            if deposed.is_set():
                return None
            now = time.time()
            record.state = STATE_FAILED
            record.updated = now
            record.error = f"{type(error).__name__}: {error}"
            record.add_event("failed", now, error=record.error)
            service.save(record)
            return record.job_id
