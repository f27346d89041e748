"""Durable job model for the saturation service.

A *job* is one request to run the BoolE pipeline over one netlist with
one options set.  Jobs are persisted as ``kind="job"`` artifacts in the
same :class:`~repro.store.ArtifactStore` the pipeline caches into, keyed
by a stable digest of the planner's ``final_key`` — so two submissions
that would produce interchangeable results collapse onto one record, and
submission dedups against both finished artifacts *and* in-flight jobs
before any work is spawned.

States (``JobRecord.state``):

``queued``
    submitted, waiting for a worker to claim the final key's lease;
``planned``
    a worker claimed the lease and is re-planning against the store;
``running``
    the worker is executing the phase graph;
``done`` / ``failed``
    terminal; ``done`` records the result summary, ``failed`` the error.

``duplicate`` never appears on a record: it is the *submission-level*
state returned when a new request collapses onto a live record.

Job records are mutable coordination state at a stable key — unlike
every other artifact kind they are excluded from the store's
byte-identity guarantees (see ``docs/serialization.md``).
"""

from __future__ import annotations

import dataclasses
import time
import typing
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..aig import AIG
from ..core import (
    SCHEDULES,
    BatchJob,
    BatchPlan,
    BoolEOptions,
    BoolEPipeline,
    PipelineCache,
    plan_batch,
)
from ..core.phases import PipelinePlan
from ..store import (
    KIND_CHECKPOINT,
    KIND_JOB,
    KIND_SWEEP,
    ArtifactStore,
    SnapshotError,
    aig_from_wire,
    aig_to_wire,
    canonical_digest,
)

STATE_QUEUED = "queued"
STATE_PLANNED = "planned"
STATE_RUNNING = "running"
STATE_DONE = "done"
STATE_FAILED = "failed"
#: Submission-level only: the request collapsed onto a live record.
STATE_DUPLICATE = "duplicate"

#: States a persisted record can carry.
JOB_STATES = (STATE_QUEUED, STATE_PLANNED, STATE_RUNNING,
              STATE_DONE, STATE_FAILED)
#: Records in these states have (or await) an active worker.
LIVE_STATES = frozenset({STATE_QUEUED, STATE_PLANNED, STATE_RUNNING})
TERMINAL_STATES = frozenset({STATE_DONE, STATE_FAILED})

#: Rollup states of a sweep record (computed from its member jobs).
SWEEP_RUNNING = "running"
SWEEP_DONE = "done"
SWEEP_FAILED = "failed"
SWEEP_TERMINAL_STATES = frozenset({SWEEP_DONE, SWEEP_FAILED})

#: Schedule classes a sweep item can land in — :data:`repro.core.SCHEDULES`
#: minus ``error`` (a member that fails to plan rejects the whole sweep).
SWEEP_SCHEDULES = tuple(kind for kind in SCHEDULES if kind != "error")

#: Netlist generators a spec may name instead of shipping an AIG.
SPEC_ARCHES = ("rca", "csa", "booth", "wallace")

_MAX_WIDTH = 64
#: Server-side generator expansion cap: a cross product beyond this is a
#: client error, not a fleet-sized denial of service.
_MAX_SWEEP_JOBS = 256

def _wire_types(hint: object) -> Tuple[type, ...]:
    """The JSON value types a ``BoolEOptions`` field annotation accepts."""
    args = typing.get_args(hint)
    accepted = args if args else (hint,)
    if float in accepted:
        accepted = accepted + (int,)
    return tuple(kind for kind in accepted if isinstance(kind, type))


#: BoolEOptions fields a spec may override over the wire, with the JSON
#: value types each accepts (``NoneType`` for the optional ones).
_OPTION_TYPES: Dict[str, Tuple[type, ...]] = {
    name: _wire_types(hint)
    for name, hint in typing.get_type_hints(BoolEOptions).items()}


def _check_options(options: Dict) -> None:
    """Reject unknown fields and mistyped or invalid option values."""
    unknown = sorted(set(options) - set(_OPTION_TYPES))
    if unknown:
        raise ValueError(f"unknown option fields: {', '.join(unknown)}")
    for name, value in sorted(options.items()):
        accepted = _OPTION_TYPES[name]
        # bool is an int subclass, but true is not an iteration budget.
        if not isinstance(value, accepted) or (
                isinstance(value, bool) and bool not in accepted):
            kinds = " or ".join(sorted(
                "null" if kind is type(None) else kind.__name__
                for kind in accepted))
            raise ValueError(f"option {name} must be {kinds}")
    BoolEOptions(**options)  # the range checks of __post_init__


def job_key(final_key: str) -> str:
    """Stable job-record key for a planner ``final_key``.

    The record cannot live at ``final_key`` itself — the result artifact
    does — so it lives at a derived digest.  Same final key, same job id:
    that equality is what dedups submissions.
    """
    return canonical_digest({"kind": "job-key", "final": final_key})


def sweep_key(final_keys: Sequence[str]) -> str:
    """Stable sweep-record key for a planned batch's final keys.

    Content-derived on purpose: resubmitting the same sweep (same
    specs against the same codec version) lands on the same record, so
    sweeps dedup exactly like jobs do.  The member order is irrelevant —
    a sweep is a set of jobs plus a plan, not a sequence.
    """
    return canonical_digest({"kind": "sweep-key",
                             "finals": sorted(final_keys)})


def _build_arch_aig(arch: str, width: int, mapped: bool) -> AIG:
    """Materialise a generator-described netlist (post-mapped by default)."""
    from ..generators import (
        booth_multiplier,
        csa_multiplier,
        ripple_carry_adder,
        wallace_multiplier,
    )

    if arch == "rca":
        aig = ripple_carry_adder(width)[0]
    elif arch == "csa":
        aig = csa_multiplier(width).aig
    elif arch == "booth":
        aig = booth_multiplier(width).aig
    elif arch == "wallace":
        aig = wallace_multiplier(width).aig
    else:  # pragma: no cover - guarded by from_request
        raise ValueError(f"unknown arch {arch!r}")
    if mapped:
        from ..opt import post_mapping_flow
        aig = post_mapping_flow(aig)
    return aig


@dataclass
class JobSpec:
    """What to run: a netlist plus pipeline-option overrides.

    The netlist is always materialised to its wire form at submission
    time, so workers replay exactly the submitted structure without
    needing the generators (or their current implementation) to agree
    across hosts.  ``origin`` keeps the human-readable provenance when
    the spec came in as ``arch``/``width``.
    """

    aig_wire: Dict
    options: Dict = field(default_factory=dict)
    name: str = ""
    origin: Optional[Dict] = None

    @classmethod
    def from_request(cls, request: Dict) -> "JobSpec":
        """Validate and normalise a wire-level submission request.

        Accepts either ``{"aig": <wire>}`` or
        ``{"arch": "csa", "width": 4, "mapped": true}``, plus optional
        ``name`` and ``options`` (whitelisted ``BoolEOptions`` fields).
        Raises ``ValueError`` on anything malformed.
        """
        if not isinstance(request, dict):
            raise ValueError("job request must be a JSON object")
        options = request.get("options", {})
        if not isinstance(options, dict):
            raise ValueError("options must be an object")
        _check_options(options)
        name = request.get("name", "")
        if not isinstance(name, str):
            raise ValueError("name must be a string")

        if "aig" in request:
            wire = request["aig"]
            if not isinstance(wire, dict):
                raise ValueError("aig must be a wire object")
            # Round-trip now so malformed netlists fail at submission,
            # not inside a worker.
            try:
                aig_wire = aig_to_wire(aig_from_wire(wire))
            except (KeyError, TypeError, ValueError) as error:
                raise ValueError(f"malformed aig wire: "
                                 f"{type(error).__name__}: {error}") from None
            return cls(aig_wire=aig_wire, options=dict(options),
                       name=name or "submitted-aig")

        arch = request.get("arch")
        if arch not in SPEC_ARCHES:
            raise ValueError(
                f"arch must be one of {', '.join(SPEC_ARCHES)} "
                "(or provide an explicit aig)")
        width = request.get("width")
        if not isinstance(width, int) or isinstance(width, bool) \
                or not 1 <= width <= _MAX_WIDTH:
            raise ValueError(f"width must be an int in [1, {_MAX_WIDTH}]")
        mapped = request.get("mapped", True)
        if not isinstance(mapped, bool):
            raise ValueError("mapped must be a boolean")
        aig = _build_arch_aig(arch, width, mapped)
        origin = {"arch": arch, "width": width, "mapped": mapped}
        default_name = f"{arch}-{width}" + ("" if mapped else "-raw")
        return cls(aig_wire=aig_to_wire(aig), options=dict(options),
                   name=name or default_name, origin=origin)

    def build_aig(self) -> AIG:
        return aig_from_wire(self.aig_wire)

    def build_options(self,
                      defaults: Optional[BoolEOptions] = None
                      ) -> BoolEOptions:
        """Service defaults overridden by this spec's option fields."""
        base = defaults if defaults is not None else BoolEOptions()
        return dataclasses.replace(base, **self.options)

    def to_payload(self) -> Dict:
        payload: Dict = {
            "name": self.name,
            "aig": self.aig_wire,
            "options": dict(self.options),
        }
        if self.origin is not None:
            payload["origin"] = dict(self.origin)
        return payload

    @classmethod
    def from_payload(cls, payload: Dict) -> "JobSpec":
        origin = payload.get("origin")
        return cls(
            aig_wire=payload["aig"],
            options=dict(payload.get("options", {})),
            name=payload.get("name", ""),
            origin=dict(origin) if isinstance(origin, dict) else None,
        )


@dataclass
class JobRecord:
    """Durable state of one job, serialised as a ``kind="job"`` artifact.

    The scheduling fields added for sweeps — ``depends_on``,
    ``priority``, ``requires``, ``sweep_id`` — are queue metadata, not
    content: they never enter any cache fingerprint, and records written
    before they existed deserialise with neutral defaults.
    """

    job_id: str
    spec: JobSpec
    state: str
    base_key: str
    final_key: str
    extraction_key: Optional[str]
    created: float
    updated: float
    worker: Optional[str] = None
    attempts: int = 0
    error: Optional[str] = None
    resumed_phase: Optional[str] = None
    result: Dict = field(default_factory=dict)
    events: List[Dict] = field(default_factory=list)
    #: Store keys that must exist before a worker may claim this job —
    #: the DAG edges of a sweep (each is a prefix leader's final key,
    #: checked with a cheap :meth:`~repro.store.ArtifactStore.probe`).
    depends_on: List[str] = field(default_factory=list)
    #: Claim-ordering key: higher first, age breaks ties.
    priority: int = 0
    #: Index of this job in its sweep's submission order (0 for single
    #: jobs): members of one sweep share ``created``, so this, not the
    #: job id, decides which of them a fleet claims first.
    position: int = 0
    #: Capability tags a worker must offer to claim this job.
    requires: List[str] = field(default_factory=list)
    #: Sweep record this job was materialised by, if any.
    sweep_id: Optional[str] = None

    def to_payload(self) -> Dict:
        return {
            "job_id": self.job_id,
            "spec": self.spec.to_payload(),
            "state": self.state,
            "base_key": self.base_key,
            "final_key": self.final_key,
            "extraction_key": self.extraction_key,
            "created": self.created,
            "updated": self.updated,
            "worker": self.worker,
            "attempts": self.attempts,
            "error": self.error,
            "resumed_phase": self.resumed_phase,
            "result": dict(self.result),
            "events": [dict(event) for event in self.events],
            "depends_on": list(self.depends_on),
            "priority": self.priority,
            "position": self.position,
            "requires": list(self.requires),
            "sweep_id": self.sweep_id,
        }

    @classmethod
    def from_payload(cls, payload: Dict) -> "JobRecord":
        return cls(
            job_id=payload["job_id"],
            spec=JobSpec.from_payload(payload["spec"]),
            state=payload["state"],
            base_key=payload["base_key"],
            final_key=payload["final_key"],
            extraction_key=payload.get("extraction_key"),
            created=payload.get("created", 0.0),
            updated=payload.get("updated", 0.0),
            worker=payload.get("worker"),
            attempts=payload.get("attempts", 0),
            error=payload.get("error"),
            resumed_phase=payload.get("resumed_phase"),
            result=dict(payload.get("result", {})),
            events=[dict(event) for event in payload.get("events", [])],
            depends_on=[str(key) for key in payload.get("depends_on", [])],
            priority=int(payload.get("priority", 0)),
            position=int(payload.get("position", 0)),
            requires=[str(tag) for tag in payload.get("requires", [])],
            sweep_id=payload.get("sweep_id"),
        )

    def add_event(self, event: str, at: float, **fields: object) -> Dict:
        """Append a phase-transition event (served by ``/jobs/<id>/events``)."""
        entry: Dict = {"seq": len(self.events), "event": event, "at": at}
        entry.update(fields)
        self.events.append(entry)
        return entry

    def public_view(self) -> Dict:
        """The record as served over HTTP: everything but the netlist."""
        payload = self.to_payload()
        spec = dict(payload["spec"])
        spec.pop("aig", None)
        payload["spec"] = spec
        return payload


def plan_summary(plan: PipelinePlan) -> Dict:
    """Compact wire form of a plan, incl. the saturation-work counter.

    ``saturations`` is the number of saturation phase bodies execution
    would run — the counter the warm-resubmission acceptance check
    asserts is zero.
    """
    saturating = {"saturate-r1", "saturate-r2"}
    executed = plan.executed_phases
    return {
        "name": plan.name,
        "base_key": plan.base_key,
        "final_key": plan.final_key,
        "extraction_key": plan.extraction_key,
        "fully_warm": plan.is_fully_warm,
        "predicts_cache_hit": plan.predicts_cache_hit,
        "cold_phases": plan.cold_phases,
        "executed_phases": executed,
        "restore_phase": plan.restore_phase,
        "resume_phase": plan.resume_phase,
        "saturations": sum(1 for name in executed if name in saturating),
    }


def _capability_tags(value: object) -> List[str]:
    """Validate a wire-level capability-tag list (sorted, deduped)."""
    if not isinstance(value, list) or not all(
            isinstance(tag, str) and tag for tag in value):
        raise ValueError("requires must be a list of capability tags")
    return sorted(set(value))


def _priority_value(value: object) -> int:
    """Validate a wire-level priority (plain int; bool is a type error)."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError("priority must be an integer")
    return value


def _expand_generator(generator: object) -> List[Dict]:
    """Expand a generator spec into per-job requests (cross product)."""
    if not isinstance(generator, dict):
        raise ValueError("generator must be a JSON object")
    known = {"arch", "archs", "widths", "mapped", "options", "option_sets"}
    unknown = sorted(set(generator) - known)
    if unknown:
        raise ValueError(
            f"unknown generator fields: {', '.join(unknown)}")
    archs = generator.get("archs")
    if archs is None and "arch" in generator:
        archs = [generator["arch"]]
    if not isinstance(archs, list) or not archs:
        raise ValueError("generator needs a non-empty archs list (or arch)")
    widths = generator.get("widths")
    if not isinstance(widths, list) or not widths:
        raise ValueError("generator needs a non-empty widths list")
    mapped = generator.get("mapped", True)
    base_options = generator.get("options", {})
    if not isinstance(base_options, dict):
        raise ValueError("options must be an object")
    option_sets = generator.get("option_sets", [{}])
    if not isinstance(option_sets, list) or not option_sets:
        raise ValueError("option_sets must be a non-empty list")
    count = len(archs) * len(widths) * len(option_sets)
    if count > _MAX_SWEEP_JOBS:  # refuse before materialising the product
        raise ValueError(f"sweep expands to {count} jobs "
                         f"(cap {_MAX_SWEEP_JOBS})")
    entries: List[Dict] = []
    for arch in archs:
        for width in widths:
            for option_set in option_sets:
                if not isinstance(option_set, dict):
                    raise ValueError("each option set must be an object")
                entries.append({
                    "arch": arch, "width": width, "mapped": mapped,
                    "options": {**base_options, **option_set}})
    return entries


def _sweep_rollup(states: Dict[str, int]) -> str:
    """Aggregate member-job states into the sweep's rollup state."""
    total = sum(states.values())
    if total and states.get(STATE_DONE, 0) == total:
        return SWEEP_DONE
    live = sum(states.get(state, 0) for state in sorted(LIVE_STATES))
    if states.get(STATE_FAILED, 0) and not live:
        return SWEEP_FAILED
    return SWEEP_RUNNING


@dataclass
class SweepRecord:
    """Durable aggregate state of one server-planned sweep.

    Serialised as a ``kind="sweep"`` artifact at :func:`sweep_key` of the
    member jobs' final keys.  ``items`` records one entry per submitted
    spec — ``{"name", "job_id", "final_key", "schedule", "depends_on"}``
    in submission order — and ``counts`` the per-schedule-class totals
    the planner decided.  ``state`` / ``result`` are the terminal rollup,
    refreshed from the member job records on every
    :meth:`JobService.sweep_status` read (sweeps have no worker of their
    own, so observation is the only actor that can roll them up).
    """

    sweep_id: str
    state: str
    created: float
    updated: float
    priority: int = 0
    requires: List[str] = field(default_factory=list)
    counts: Dict = field(default_factory=dict)
    plan: Dict = field(default_factory=dict)
    items: List[Dict] = field(default_factory=list)
    result: Dict = field(default_factory=dict)

    def to_payload(self) -> Dict:
        return {
            "sweep_id": self.sweep_id,
            "state": self.state,
            "created": self.created,
            "updated": self.updated,
            "priority": self.priority,
            "requires": list(self.requires),
            "counts": dict(self.counts),
            "plan": dict(self.plan),
            "items": [dict(item) for item in self.items],
            "result": dict(self.result),
        }

    @classmethod
    def from_payload(cls, payload: Dict) -> "SweepRecord":
        return cls(
            sweep_id=payload["sweep_id"],
            state=payload["state"],
            created=payload.get("created", 0.0),
            updated=payload.get("updated", 0.0),
            priority=int(payload.get("priority", 0)),
            requires=[str(tag) for tag in payload.get("requires", [])],
            counts=dict(payload.get("counts", {})),
            plan=dict(payload.get("plan", {})),
            items=[dict(item) for item in payload.get("items", [])],
            result=dict(payload.get("result", {})),
        )


class JobService:
    """Submission, status and bookkeeping shared by server and worker.

    Everything durable lives in the :class:`~repro.store.ArtifactStore`;
    a ``JobService`` holds no state beyond a pipeline cache, so any
    number of servers and workers on any number of hosts coordinate
    through the store alone.
    """

    def __init__(self, store: Union[ArtifactStore, str, Path],
                 options: Optional[BoolEOptions] = None) -> None:
        self.store = (store if isinstance(store, ArtifactStore)
                      else ArtifactStore(store))
        self.defaults = options if options is not None else BoolEOptions()
        self.pipelines = PipelineCache(self.defaults, self.store)

    # ------------------------------------------------------------------
    # Pipeline / planning
    # ------------------------------------------------------------------
    def pipeline_for(self, spec: JobSpec) -> BoolEPipeline:
        return self.pipelines.pipeline_for(spec.build_options(self.defaults))

    def plan_spec(self, spec: JobSpec,
                  aig: Optional[AIG] = None
                  ) -> Tuple[BoolEPipeline, AIG, PipelinePlan]:
        pipeline = self.pipeline_for(spec)
        if aig is None:
            aig = spec.build_aig()
        plan = pipeline.plan(aig, store=self.store)
        if plan.final_key is None:  # pragma: no cover - store always set
            raise RuntimeError("planner produced no final key")
        return pipeline, aig, plan

    # ------------------------------------------------------------------
    # Record persistence
    # ------------------------------------------------------------------
    def load(self, job_id: str) -> Optional[JobRecord]:
        try:
            payload = self.store.get(job_id, expected_kind=KIND_JOB)
        except SnapshotError:
            return None
        if payload is None:
            return None
        return JobRecord.from_payload(payload)

    def save(self, record: JobRecord) -> None:
        self.store.put(record.job_id, record.to_payload(), kind=KIND_JOB,
                       meta={"state": record.state, "name": record.spec.name,
                             "final_key": record.final_key})

    def records(self) -> List[JobRecord]:
        """All job records, oldest submission first (then by id)."""
        loaded: List[JobRecord] = []
        for key, kind in sorted(self.store.kinds().items()):
            if kind != KIND_JOB:
                continue
            record = self.load(key)
            if record is not None:
                loaded.append(record)
        return sorted(loaded, key=lambda record: (record.created,
                                                  record.job_id))

    def claimable(self,
                  capabilities: Optional[Sequence[str]] = None
                  ) -> List[JobRecord]:
        """Jobs a worker may (try to) claim, highest priority first.

        Queued jobs, plus planned/running jobs whose lease went stale —
        the owner died, so the next worker takes over and (thanks to the
        phase graph) resumes from the dead worker's deepest checkpoint.
        Three scheduling gates apply on top:

        * **dependencies** — a record whose ``depends_on`` keys are not
          all in the store yet is invisible (cheap existence probes, no
          deserialisation): its prefix leader has not landed the shared
          boundary artifact, so claiming it would re-saturate the prefix;
        * **capabilities** — with ``capabilities`` given (a worker's tag
          set, possibly empty), records requiring tags the worker does
          not offer are skipped; ``None`` disables the filter (the
          admin's whole-queue view);
        * **priority** — survivors sort by ``(-priority, created,
          position, job_id)``: explicit priority first, then age, then
          submission order within a sweep.
        """
        offered = (None if capabilities is None
                   else frozenset(capabilities))
        ready: List[JobRecord] = []
        for record in self.records():
            if record.state == STATE_QUEUED:
                pass
            elif record.state in (STATE_PLANNED, STATE_RUNNING):
                lease = self.store.read_lease(record.final_key)
                if not self.store.lease_is_stale(lease):
                    continue
            else:
                continue
            if (offered is not None
                    and not frozenset(record.requires) <= offered):
                continue
            if record.depends_on \
                    and not self.store.probe_all(record.depends_on):
                continue
            ready.append(record)
        ready.sort(key=lambda record: (-record.priority, record.created,
                                       record.position, record.job_id))
        return ready

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(self, request: Dict) -> Dict:
        """Plan a submission and serve/dedup/enqueue it.

        Returns a wire-level response: ``state`` is the submission
        outcome (``done`` served warm inline, ``duplicate`` collapsed
        onto a live job, ``queued`` enqueued for the fleet), ``plan`` the
        classification that decided it, ``job`` the current record.
        """
        spec = JobSpec.from_request(request)
        return self.submit_spec(spec)

    def _serve_warm(self, spec: JobSpec, aig: AIG, plan: PipelinePlan,
                    now: float,
                    sweep_id: Optional[str] = None
                    ) -> Tuple[JobRecord, bool]:
        """Run a fully-warm spec inline and persist its done record.

        Every boundary artifact is in the store, so serving the result
        costs one snapshot load — no worker round-trip.  Returns the
        record and whether one already existed.
        """
        pipeline = self.pipeline_for(spec)
        result = pipeline.run(aig, store=self.store)
        final_key = plan.final_key or ""
        job_id = job_key(final_key)
        existing = self.load(job_id)
        record = existing if existing is not None else JobRecord(
            job_id=job_id, spec=spec, state=STATE_DONE,
            base_key=plan.base_key or "", final_key=final_key,
            extraction_key=plan.extraction_key,
            created=now, updated=now)
        record.state = STATE_DONE
        record.updated = now
        record.error = None
        record.result = result.summary()
        if sweep_id is not None:
            record.sweep_id = sweep_id
            record.add_event("served-warm", now, final_key=final_key,
                             sweep_id=sweep_id)
        else:
            record.add_event("served-warm", now, final_key=final_key)
        self.save(record)
        return record, existing is not None

    def submit_spec(self, spec: JobSpec) -> Dict:
        pipeline, aig, plan = self.plan_spec(spec)
        final_key = plan.final_key or ""
        job_id = job_key(final_key)
        existing = self.load(job_id)
        now = time.time()

        if plan.is_fully_warm:
            record, was_existing = self._serve_warm(spec, aig, plan, now)
            return {
                "job_id": job_id,
                "state": STATE_DONE,
                "duplicate": was_existing,
                "warm": True,
                "plan": plan_summary(plan),
                "result": record.result,
                "job": record.public_view(),
            }

        if existing is not None and existing.state in LIVE_STATES:
            # In-flight dedup: same final key, same job — no new work.
            return {
                "job_id": job_id,
                "state": STATE_DUPLICATE,
                "duplicate": True,
                "warm": False,
                "plan": plan_summary(plan),
                "job": existing.public_view(),
            }

        # New job, or a terminal record whose artifacts were evicted
        # (done-but-cold) or which failed: (re-)queue it.
        record = JobRecord(
            job_id=job_id, spec=spec, state=STATE_QUEUED,
            base_key=plan.base_key or "", final_key=final_key,
            extraction_key=plan.extraction_key,
            created=existing.created if existing is not None else now,
            updated=now,
            attempts=existing.attempts if existing is not None else 0)
        record.add_event("queued", now, cold_phases=plan.cold_phases,
                         resume_phase=plan.resume_phase)
        self.save(record)
        return {
            "job_id": job_id,
            "state": STATE_QUEUED,
            "duplicate": False,
            "warm": False,
            "plan": plan_summary(plan),
            "job": record.public_view(),
        }

    # ------------------------------------------------------------------
    # Sweeps
    # ------------------------------------------------------------------
    def expand_sweep_request(self, request: Dict) -> Tuple[
            List[Tuple[JobSpec, int, List[str]]], int, List[str]]:
        """Validate a sweep request into ``(spec, priority, requires)``.

        Accepts ``{"jobs": [<job request>, ...]}`` or
        ``{"generator": {...}}`` — a cross product of
        ``archs × widths × option_sets`` expanded server-side — plus
        top-level ``priority`` / ``requires`` defaults each job request
        may override.  Job names are uniquified with ``#<n>`` suffixes so
        every sweep item is addressable.  Returns the members plus the
        sweep-level priority and capability tags; raises ``ValueError``
        on malformed input or an expansion beyond the server cap.
        """
        if not isinstance(request, dict):
            raise ValueError("sweep request must be a JSON object")
        priority = _priority_value(request.get("priority", 0))
        requires = _capability_tags(request.get("requires", []))
        if ("jobs" in request) == ("generator" in request):
            raise ValueError(
                "sweep request needs exactly one of jobs or generator")
        if "jobs" in request:
            entries = request["jobs"]
            if not isinstance(entries, list):
                raise ValueError("jobs must be a list of job requests")
        else:
            entries = _expand_generator(request["generator"])
        if not entries:
            raise ValueError("sweep expands to zero jobs")
        if len(entries) > _MAX_SWEEP_JOBS:
            raise ValueError(f"sweep expands to {len(entries)} jobs "
                             f"(cap {_MAX_SWEEP_JOBS})")
        members: List[Tuple[JobSpec, int, List[str]]] = []
        seen_names: Dict[str, int] = {}
        for entry in entries:
            if not isinstance(entry, dict):
                raise ValueError("each sweep job must be a JSON object")
            entry = dict(entry)
            job_priority = _priority_value(entry.pop("priority", priority))
            job_requires = _capability_tags(entry.pop("requires", requires))
            spec = JobSpec.from_request(entry)
            count = seen_names.get(spec.name, 0)
            seen_names[spec.name] = count + 1
            if count:
                spec.name = f"{spec.name}#{count + 1}"
            members.append((spec, job_priority, job_requires))
        return members, priority, requires

    def plan_sweep(self, specs: Sequence[JobSpec]
                   ) -> Tuple[List[BatchJob], BatchPlan]:
        """Batch-plan the specs: one store-index read plus the overlay.

        Delegates to :func:`repro.core.plan_batch` — which decides every
        job's schedule class for :class:`~repro.core.BatchPipeline` too —
        with this service's pipeline cache, so a sweep sharing one
        saturated prefix plans as one ``pool`` leader and N-1
        ``dependent`` jobs.
        """
        jobs = [BatchJob(name=spec.name, aig=spec.build_aig(),
                         options=spec.build_options(self.defaults))
                for spec in specs]
        return jobs, plan_batch(jobs, self.pipelines.pipeline_for,
                                self.store)

    def _enqueue_sweep_member(self, spec: JobSpec, plan: PipelinePlan,
                              now: float, *, sweep_id: str,
                              depends_on: List[str], priority: int,
                              position: int, requires: List[str],
                              schedule: str) -> JobRecord:
        """Queue one sweep member (unless a live record already covers it).

        Cross-sweep dedup: a live record at the same final key keeps its
        own scheduling metadata untouched — resetting it could strand a
        claimed lease.  New or terminal records are (re-)queued with the
        sweep's DAG edges and scheduling tags.
        """
        final_key = plan.final_key or ""
        jid = job_key(final_key)
        existing = self.load(jid)
        if existing is not None and existing.state in LIVE_STATES:
            return existing
        record = JobRecord(
            job_id=jid, spec=spec, state=STATE_QUEUED,
            base_key=plan.base_key or "", final_key=final_key,
            extraction_key=plan.extraction_key,
            created=existing.created if existing is not None else now,
            updated=now,
            attempts=existing.attempts if existing is not None else 0,
            depends_on=list(depends_on), priority=priority,
            position=position, requires=list(requires), sweep_id=sweep_id)
        record.add_event("queued", now, cold_phases=plan.cold_phases,
                         resume_phase=plan.resume_phase, schedule=schedule,
                         sweep_id=sweep_id)
        self.save(record)
        return record

    def submit_sweep(self, request: Dict) -> Dict:
        """Plan a whole sweep once, server-side, and materialise it.

        :func:`repro.core.plan_batch` classifies every member against one
        read of the store index; its schedule class *is* the schedule:

        * ``inline`` — fully warm against the store right now, served on
          the front door (one snapshot load, no worker);
        * ``duplicate`` — collapses onto an earlier member's identical
          final key (same job id, no record written);
        * ``dependent`` — shares a saturated prefix an earlier cold
          member will write; queued with ``depends_on=[<leader's final
          key>]`` so no worker claims it before the leader lands;
        * ``pool`` — an independent cold job, queued for the fleet.

        A ``kind="sweep"`` record tracks the aggregate.  Raises
        ``ValueError`` (HTTP 400) when any member fails to plan.
        """
        members, priority, requires = self.expand_sweep_request(request)
        jobs, plan = self.plan_sweep([spec for spec, _, _ in members])
        errors = sorted((item.name, item.error) for item in plan.items
                        if item.error is not None)
        if errors:
            details = "; ".join(f"{name}: {error}"
                                for name, error in errors)
            raise ValueError(f"sweep failed to plan: {details}")
        finals = {item.name: item.final_key or "" for item in plan.items}
        sweep_id = sweep_key(list(finals.values()))
        existing_sweep = self.load_sweep(sweep_id)
        now = time.time()

        counts: Dict[str, int] = {schedule: 0
                                  for schedule in SWEEP_SCHEDULES}
        items: List[Dict] = []
        for position, ((spec, job_priority, job_requires), job, item) in \
                enumerate(zip(members, jobs, plan.items)):
            item_plan = item.plan
            if item_plan is None:  # pragma: no cover - errors raised above
                raise RuntimeError(f"missing plan for {item.name}")
            final_key = finals[item.name]
            schedule = item.kind
            depends_on: List[str] = []
            if schedule == "inline":
                self._serve_warm(spec, job.aig, item_plan, now,
                                 sweep_id=sweep_id)
            elif schedule != "duplicate":
                # A duplicate has the canonical member's final key — the
                # same job id, so that record is already its dedup target.
                if item.leader is not None:
                    depends_on = [finals[item.leader]]
                self._enqueue_sweep_member(
                    spec, item_plan, now, sweep_id=sweep_id,
                    depends_on=depends_on, priority=job_priority,
                    position=position, requires=job_requires,
                    schedule=schedule)
            counts[schedule] += 1
            items.append({
                "name": item.name,
                "job_id": job_key(final_key),
                "final_key": final_key,
                "schedule": schedule,
                "depends_on": list(depends_on),
            })

        sweep = SweepRecord(
            sweep_id=sweep_id, state=SWEEP_RUNNING,
            created=(existing_sweep.created
                     if existing_sweep is not None else now),
            updated=now, priority=priority, requires=list(requires),
            counts=counts, plan=dict(plan.summary()), items=items)
        self.save_sweep(sweep)
        status = self.sweep_status(sweep_id)
        if status is None:  # pragma: no cover - just written
            raise RuntimeError("sweep record vanished after write")
        return {
            "sweep_id": sweep_id,
            "state": status["state"],
            "duplicate": existing_sweep is not None,
            "counts": dict(counts),
            "plan": dict(plan.summary()),
            "jobs": [dict(entry) for entry in items],
            "sweep": status,
        }

    def load_sweep(self, sweep_id: str) -> Optional[SweepRecord]:
        try:
            payload = self.store.get(sweep_id, expected_kind=KIND_SWEEP)
        except SnapshotError:
            return None
        if payload is None:
            return None
        return SweepRecord.from_payload(payload)

    def save_sweep(self, record: SweepRecord) -> None:
        self.store.put(record.sweep_id, record.to_payload(),
                       kind=KIND_SWEEP,
                       meta={"state": record.state,
                             "jobs": len(record.items)})

    def sweep_records(self) -> List[SweepRecord]:
        """All sweep records, oldest first (then by id)."""
        loaded: List[SweepRecord] = []
        for key, kind in sorted(self.store.kinds().items()):
            if kind != KIND_SWEEP:
                continue
            record = self.load_sweep(key)
            if record is not None:
                loaded.append(record)
        return sorted(loaded, key=lambda record: (record.created,
                                                  record.sweep_id))

    def sweep_status(self, sweep_id: str) -> Optional[Dict]:
        """The ``GET /sweeps/<id>`` view, rolled up from member jobs.

        Sweeps have no worker of their own, so observation is what
        advances them: every read recomputes the rollup from the member
        job records and persists it when it changed (or when a terminal
        rollup has no result summary yet).  ``progress`` additionally
        reports which queued members are still blocked on un-landed
        dependency artifacts — the live depth of the DAG.
        """
        record = self.load_sweep(sweep_id)
        if record is None:
            return None
        states: Dict[str, int] = {}
        job_states: Dict[str, str] = {}
        blocked = 0
        for item in record.items:
            job = self.load(str(item.get("job_id", "")))
            state = job.state if job is not None else STATE_QUEUED
            job_states[str(item.get("name", ""))] = state
            states[state] = states.get(state, 0) + 1
            if job is not None and state == STATE_QUEUED \
                    and job.depends_on \
                    and self.store.missing_keys(job.depends_on):
                blocked += 1
        rollup = _sweep_rollup(states)
        if rollup != record.state or (
                rollup in SWEEP_TERMINAL_STATES and not record.result):
            record.state = rollup
            record.updated = time.time()
            if rollup in SWEEP_TERMINAL_STATES:
                record.result = {"jobs": len(record.items),
                                 "states": dict(sorted(states.items()))}
            self.save_sweep(record)
        view = record.to_payload()
        view["progress"] = {
            "states": dict(sorted(states.items())),
            "job_states": job_states,
            "blocked_on_dependency": blocked,
        }
        return view

    # ------------------------------------------------------------------
    # Status / stats
    # ------------------------------------------------------------------
    def progress(self, record: JobRecord) -> Dict:
        """Per-phase progress for ``GET /jobs/<id>``: a fresh read-only
        plan against the store, with checkpoint presence and ages."""
        _, _, plan = self.plan_spec(record.spec)
        now = time.time()
        phases: List[Dict] = []
        for phase_plan in plan.phases:
            entry: Dict = {
                "name": phase_plan.name,
                "classification": phase_plan.classification,
                "cache_key": phase_plan.cache_key,
                "checkpoint_key": phase_plan.checkpoint_key,
            }
            checkpoint_key = phase_plan.checkpoint_key
            if checkpoint_key is not None and self.store.probe(
                    checkpoint_key, expected_kind=KIND_CHECKPOINT):
                entry["checkpoint_present"] = True
                try:
                    mtime = self.store.path_for(checkpoint_key).stat().st_mtime
                    entry["checkpoint_age"] = max(0.0, now - mtime)
                except OSError:  # pragma: no cover - raced with a delete
                    pass
            phases.append(entry)
        return {
            "fully_warm": plan.is_fully_warm,
            "cold_phases": plan.cold_phases,
            "restore_phase": plan.restore_phase,
            "resume_phase": plan.resume_phase,
            "resumed_phase": record.resumed_phase,
            "phases": phases,
        }

    def status(self, job_id: str) -> Optional[Dict]:
        record = self.load(job_id)
        if record is None:
            return None
        view = record.public_view()
        view["progress"] = self.progress(record)
        return view

    def stats(self) -> Dict:
        """Queue depth, lease table, store summary and saturation
        telemetry for ``GET /stats``."""
        states: Dict = {state: 0 for state in JOB_STATES}
        saturation: Dict = {"runs": 0, "ematch_ops": 0,
                            "saturation_seconds": 0.0}
        job_state_by_id: Dict[str, str] = {}
        blocked_jobs = 0
        for record in self.records():
            states[record.state] = states.get(record.state, 0) + 1
            job_state_by_id[record.job_id] = record.state
            if record.state == STATE_QUEUED and record.depends_on \
                    and not self.store.probe_all(record.depends_on):
                blocked_jobs += 1
            for event in record.events:
                # Workers stamp completed cold runs with the e-nodes the
                # matcher scanned (warm serves carry no ops — nothing was
                # matched).
                if event.get("event") != "done" or not event.get("ematch_ops"):
                    continue
                saturation["runs"] += 1
                saturation["ematch_ops"] += event["ematch_ops"]
                saturation["saturation_seconds"] += event.get(
                    "saturation_seconds", 0.0)
        seconds = saturation["saturation_seconds"]
        saturation["ematch_ops_per_s"] = (
            round(saturation["ematch_ops"] / seconds, 1) if seconds else 0.0)
        leases: Dict = {}
        for key, payload in sorted(self.store.leases().items()):
            entry = dict(payload)
            entry["stale"] = self.store.lease_is_stale(payload or None)
            leases[key] = entry
        entries = self.store.entries()
        kinds: Dict = {}
        for entry_record in entries:
            kinds[entry_record.kind] = kinds.get(entry_record.kind, 0) + 1
        # Sweep rollups are recomputed live from the job states gathered
        # above (the durable sweep state only refreshes on /sweeps/<id>
        # reads, so it can lag the fleet).
        sweep_states: Dict[str, int] = {}
        schedules: Dict[str, int] = {schedule: 0
                                     for schedule in SWEEP_SCHEDULES}
        live_sweeps = 0
        sweeps = self.sweep_records()
        for sweep in sweeps:
            member_states: Dict[str, int] = {}
            for item in sweep.items:
                state = job_state_by_id.get(str(item.get("job_id", "")),
                                            STATE_QUEUED)
                member_states[state] = member_states.get(state, 0) + 1
            rollup = (_sweep_rollup(member_states) if sweep.items
                      else sweep.state)
            sweep_states[rollup] = sweep_states.get(rollup, 0) + 1
            if rollup not in SWEEP_TERMINAL_STATES:
                live_sweeps += 1
            for schedule, count in sorted(sweep.counts.items()):
                schedules[schedule] = schedules.get(schedule, 0) + count
        return {
            "jobs": states,
            "queue_depth": states[STATE_QUEUED],
            "saturation": saturation,
            "leases": leases,
            "store": {
                "artifacts": len(entries),
                "total_bytes": self.store.total_bytes(),
                "kinds": dict(sorted(kinds.items())),
            },
            "sweeps": {
                "total": len(sweeps),
                "live": live_sweeps,
                "states": dict(sorted(sweep_states.items())),
                "schedules": dict(sorted(schedules.items())),
                "blocked_on_dependency": blocked_jobs,
            },
        }
