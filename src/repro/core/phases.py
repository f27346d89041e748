"""Phase-graph execution layer: the pipeline as resumable, cacheable phases.

The paper's Figure-2 flow is six distinct stages; this module makes each
stage a first-class :class:`Phase` whose boundary is (optionally) a store
artifact, and a :class:`PhaseGraph` whose one walk decides, phase by phase,
how to

* **restore** — skip a suffix-covering phase entirely when its artifact is
  already in the store (the ``kind="saturated-pipeline"`` and
  ``kind="extraction"`` artifacts each cover everything up to their
  boundary),
* **resume** — pick a killed saturation phase back up mid-phase from a
  ``kind="checkpoint"`` artifact (the :class:`~repro.egraph.Runner`
  checkpoint plus the cumulative upstream state it depends on), and
* **run** — compute a phase the ordinary way, persisting its boundary
  artifact and clearing any superseded checkpoint afterwards.

Phases communicate exclusively through a :class:`PhaseContext`: a run is a
pure fold of phases over the context, which is what lets the batch driver
ship *phases* rather than whole circuits across process boundaries — a
worker that finds the saturated artifact warm computes only extraction,
and a worker that finds a checkpoint replays only the remainder of the
interrupted phase.  Every restore/resume decision is keyed by content
fingerprints (:mod:`repro.store.fingerprint`), so a stale artifact can
mislead scheduling at worst, never results.  The walk is recorded as a
:class:`PipelinePlan` — what execution would do (``plan``, a dry run that
only probes the store), or did (what ``execute`` returns).

The six concrete BoolE phases (``construct``, ``saturate-r1``,
``saturate-r2``, ``insert-fa``, ``extract``, ``reconstruct``) live here
too; :class:`~repro.core.pipeline.BoolEPipeline` is a thin shell that
builds the graph, executes it and assembles the result bundle.
"""

from __future__ import annotations

import time
import weakref
from dataclasses import asdict, dataclass, field
from functools import partial
from itertools import chain, islice
from operator import countOf, lt
from typing import (TYPE_CHECKING, Any, Callable, Dict, List,
                    Optional, Tuple, Union)

from ..egraph import Op, Runner, RunnerCheckpoint, RunnerReport, as_engine
from ..store import (
    KIND_CHECKPOINT,
    KIND_EXTRACTION,
    KIND_SATURATED,
    ArtifactStore,
    SnapshotError,
    aig_from_wire,
    aig_to_wire,
    checkpoint_from_wire,
    checkpoint_to_wire,
    egraph_from_wire,
    egraph_to_wire,
    extraction_from_wire,
    extraction_to_wire,
    node_table_from_wire,
    phase_checkpoint_key,
    report_from_wire,
    report_to_wire,
)
from .construct import ConstructionResult, aig_to_egraph, planned_construction

if TYPE_CHECKING:  # circular: pipeline builds its phases from here
    from ..aig import AIG
    from .pipeline import BoolEOptions, BoolEPipeline
from .extraction import BoolEExtraction, FABlockRecord, reconstruct_aig
from .fa_structure import FAPair, FAInsertionReport, count_npn_fa_pairs, insert_fa_structures

__all__ = [
    "PLAN_COLD",
    "PLAN_SKIPPED",
    "PLAN_WARM_BOUNDARY",
    "PLAN_WARM_CHECKPOINT",
    "Phase",
    "PhaseContext",
    "PhaseGraph",
    "PhasePlan",
    "PipelinePlan",
    "boole_phases",
]

# Plan classifications (see :meth:`PhaseGraph.plan`).
#: The phase would run its body from scratch.
PLAN_COLD = "COLD"
#: The phase is covered by a boundary artifact already in the store — it
#: never runs; the deepest such phase restores, the rest are skipped over.
PLAN_WARM_BOUNDARY = "WARM_BOUNDARY"
#: The phase is covered by a live mid-phase checkpoint: the checkpoint
#: owner replays only its tail, phases before it never run.
PLAN_WARM_CHECKPOINT = "WARM_CHECKPOINT"
#: The phase is disabled for this run (e.g. ``extract=False``).
PLAN_SKIPPED = "SKIPPED"

#: Sentinel published by :meth:`Phase.plan_provide` for products that are
#: only *planned*, never computed.  Phases' ``cache_key``/``enabled``
#: predicates must not dereference it (BoolE's don't — the one product a
#: key depends on, construction, gets a real stand-in).
_PLANNED = "<planned>"

#: Exceptions that mean "this artifact payload cannot be decoded" — the
#: executor degrades them to a cache miss (recompute + overwrite), exactly
#: like a missing object, instead of poisoning every run of the circuit.
_DECODE_ERRORS = (SnapshotError, KeyError, IndexError, TypeError, ValueError)


class PhaseContext:
    """Mutable state threaded through one :meth:`PhaseGraph.execute` call.

    Attributes:
        store: artifact store consulted for restore/resume (``None``
            disables every store interaction).
        state: named phase products (``"construction"``, ``"r1_report"``,
            ...) plus the run inputs (``"aig"``, ``"base_key"``).
        timings: per-step wall-clock seconds, same keys the monolithic
            pipeline used to write (``construct``/``r1``/``cache_load``/...).

    What the run restored or resumed is the walk :meth:`PhaseGraph.execute`
    returns, not context state.
    """

    def __init__(self, store: Optional[ArtifactStore] = None) -> None:
        self.store = store
        self.state: Dict[str, object] = {}
        self.timings: Dict[str, float] = {}

    def __getitem__(self, name: str) -> Any:
        return self.state[name]

    def __setitem__(self, name: str, value: object) -> None:
        self.state[name] = value

    def __contains__(self, name: str) -> bool:
        return name in self.state

    def get(self, name: str, default: Any = None) -> Any:
        return self.state.get(name, default)


class Phase:
    """One resumable unit of the pipeline.

    The protocol a :class:`PhaseGraph` drives:

    * ``name`` — unique label (progress, checkpoint keys, reporting).
    * ``kind`` — artifact kind persisted at this phase's boundary, or
      ``None`` for phases whose output only lives inside a later phase's
      artifact.
    * :meth:`cache_key` — content key of the boundary artifact; ``None``
      when not yet computable from the context (the executor will ask
      again once more state exists) or never cacheable.
    * :meth:`run` — compute the phase, mutating the context.  ``resume``
      carries a mid-phase token produced by :meth:`load_checkpoint`.
    * :meth:`to_wire` / :meth:`from_wire` — (de)serialize the *cumulative*
      state the boundary artifact covers, so restoring a deep phase
      substitutes for running every phase up to it.
    """

    name: str = "?"
    kind: Optional[str] = None
    #: ``timings`` keys used by the executor for artifact load/store time.
    load_timing: Optional[str] = None
    store_timing: Optional[str] = None
    #: Context keys this phase publishes — however it completes (run,
    #: restore or resume).  The planner uses them to advance a context
    #: without executing anything; see :meth:`plan_provide`.
    provides: Tuple[str, ...] = ()

    def enabled(self, ctx: PhaseContext) -> bool:
        """False skips the phase entirely (e.g. ``extract=False``)."""
        return True

    def plan_provide(self, ctx: PhaseContext) -> None:
        """Publish planning stand-ins for this phase's products.

        The default marks every ``provides`` key with a sentinel — enough
        for membership tests like ``"fa_report" in ctx``.  Phases whose
        products feed later *key computations* override this with a cheap
        exact stand-in (construction predicts its class ids dry).
        """
        for key in self.provides:
            ctx[key] = _PLANNED

    def cache_key(self, ctx: PhaseContext) -> Optional[str]:
        return None

    def prerequisites(self, ctx: PhaseContext
                      ) -> Tuple[Tuple[str, str], ...]:
        """``(key, kind)`` of the artifacts that must be in the store (only
        present, never loaded) for this phase's boundary artifact to be
        restored at this point of the walk."""
        return ()

    def checkpoint_key(self, ctx: PhaseContext) -> Optional[str]:
        """Content key of this phase's mid-phase checkpoint artifact."""
        return None

    def run(self, ctx: PhaseContext, resume: Any = None) -> None:
        raise NotImplementedError

    def to_wire(self, ctx: PhaseContext) -> Dict:
        raise NotImplementedError

    def from_wire(self, ctx: PhaseContext, payload: Dict) -> None:
        raise NotImplementedError

    def load_checkpoint(self, ctx: PhaseContext, payload: Dict) -> Any:
        """Restore mid-phase state into ``ctx``; return the resume token."""
        raise NotImplementedError

    def artifact_meta(self, ctx: PhaseContext) -> Dict:
        return {}


@dataclass
class PhasePlan:
    """One phase's slot in a :class:`PipelinePlan`.

    Attributes:
        name: the phase's name.
        classification: one of :data:`PLAN_COLD`,
            :data:`PLAN_WARM_BOUNDARY`, :data:`PLAN_WARM_CHECKPOINT`,
            :data:`PLAN_SKIPPED`.
        cache_key: the phase's boundary-artifact key (``None`` for phases
            without a ``kind``).
        checkpoint_key: the phase's mid-phase checkpoint key, if any.
        covered_by: for warm phases, the name of the phase whose
            artifact/checkpoint stands in for this one.  A restored phase
            names itself; the resumed phase is ``None`` (it still runs).
    """

    name: str
    classification: str
    cache_key: Optional[str] = None
    checkpoint_key: Optional[str] = None
    covered_by: Optional[str] = None

    def to_json(self) -> Dict:
        return asdict(self)


@dataclass
class PipelinePlan:
    """What :meth:`PhaseGraph.execute` would do, or did.

    :meth:`PhaseGraph.plan` (surfaced as ``BoolEPipeline.plan``) computes
    it hash-first, with zero phase bodies run, zero e-graphs built and
    zero store mutations; :meth:`PhaseGraph.execute` returns the same
    record of the walk it actually took.  Every phase carries its content
    keys and how the walk treated it.

    Attributes:
        name: display name of the netlist.
        base_key: the saturated-pipeline cache key.
        phases: one :class:`PhasePlan` per phase, in graph order.
        restore_phase: deepest phase whose boundary artifact is restored,
            if any.
        resume_phase: phase that resumes from a live checkpoint, if any.
        planned_writes: boundary-artifact keys execution puts.
        planned_deletes: checkpoint keys execution deletes.
    """

    name: str
    base_key: Optional[str]
    phases: List[PhasePlan] = field(default_factory=list)
    restore_phase: Optional[str] = None
    resume_phase: Optional[str] = None
    planned_writes: List[str] = field(default_factory=list)
    planned_deletes: List[str] = field(default_factory=list)

    def phase(self, name: str) -> PhasePlan:
        """Return the named phase's plan (KeyError when unknown)."""
        for plan in self.phases:
            if plan.name == name:
                return plan
        raise KeyError(name)

    def classification_of(self, name: str) -> str:
        return self.phase(name).classification

    # -- BoolE-shaped accessors (phase names as wired by boole_phases) --
    @property
    def extraction_key(self) -> Optional[str]:
        """The extraction artifact's key (None when extraction disabled)."""
        plan = next((each for each in self.phases
                     if each.name == "reconstruct"), None)
        if plan is None or plan.classification == PLAN_SKIPPED:
            return None
        return plan.cache_key

    @property
    def final_key(self) -> Optional[str]:
        """Key of the deepest boundary artifact this run resolves to.

        Two jobs with equal final keys produce interchangeable results —
        the batch planner dedups on it.
        """
        for plan in reversed(self.phases):
            if plan.classification != PLAN_SKIPPED and plan.cache_key:
                return plan.cache_key
        return self.base_key

    def _restored(self, name: str) -> bool:
        return any(plan.name == name
                   and plan.classification == PLAN_WARM_BOUNDARY
                   for plan in self.phases)

    @property
    def predicts_cache_hit(self) -> bool:
        """Would execution report ``cache_hit`` (saturated artifact warm)?"""
        return self._restored("insert-fa")

    @property
    def predicts_extraction_cache_hit(self) -> bool:
        return self._restored("reconstruct")

    # -- generic work summary --
    @property
    def cold_phases(self) -> List[str]:
        return [plan.name for plan in self.phases
                if plan.classification == PLAN_COLD]

    @property
    def executed_phases(self) -> List[str]:
        """Phases whose body would actually run (cold + the resume tail)."""
        return [plan.name for plan in self.phases
                if plan.classification == PLAN_COLD
                or (plan.classification == PLAN_WARM_CHECKPOINT
                    and plan.name == self.resume_phase)]

    @property
    def is_fully_warm(self) -> bool:
        """True when execution would run no phase body at all."""
        return not self.executed_phases

    def to_json(self) -> Dict:
        return {
            "name": self.name,
            "base_key": self.base_key,
            "extraction_key": self.extraction_key,
            "final_key": self.final_key,
            "restore_phase": self.restore_phase,
            "resume_phase": self.resume_phase,
            "fully_warm": self.is_fully_warm,
            "cold_phases": self.cold_phases,
            "planned_writes": list(self.planned_writes),
            "planned_deletes": list(self.planned_deletes),
            "phases": [plan.to_json() for plan in self.phases],
        }


#: Signature of the read-only store oracle :meth:`PhaseGraph.plan` takes:
#: ``probe(key, kind) -> bool`` answers "would the store serve this key
#: with this kind right now?" without touching the object.
PlanProbe = Callable[[str, str], bool]

#: An attempt's "no usable artifact" answer (``None`` is a valid token).
_MISS = object()


class _ExecuteStep:
    """Walk step that does the work: fetch and decode artifacts, run phase
    bodies, persist boundaries and delete superseded checkpoints."""

    def __init__(self, store: Optional[ArtifactStore]) -> None:
        self.store = store
        self.active = store is not None

    def attempt(self, ctx: PhaseContext, covered: List[Phase], phase: Phase,
                kind: str, key: str) -> Any:
        """Restore ``phase`` (or load its checkpoint: return the resume
        token); :data:`_MISS` on an absent or undecodable object."""
        assert self.store is not None
        started = time.perf_counter()
        try:
            payload = self.store.get(key, expected_kind=kind)
            if payload is None:
                return _MISS
            if kind == KIND_CHECKPOINT:
                return phase.load_checkpoint(ctx, payload)
            phase.from_wire(ctx, payload)
        except _DECODE_ERRORS:
            return _MISS
        if phase.load_timing:
            ctx.timings[phase.load_timing] = time.perf_counter() - started
        return None

    def present(self, key: str, kind: str) -> bool:
        assert self.store is not None
        return self.store.probe(key, expected_kind=kind)

    def run(self, ctx: PhaseContext, phase: Phase, resume: Any) -> None:
        phase.run(ctx, resume=resume)

    def put(self, ctx: PhaseContext, phase: Phase, key: str) -> None:
        assert self.store is not None and phase.kind is not None
        started = time.perf_counter()
        self.store.put(key, phase.to_wire(ctx), kind=phase.kind,
                       meta=phase.artifact_meta(ctx))
        if phase.store_timing:
            ctx.timings[phase.store_timing] = time.perf_counter() - started

    def delete(self, key: str) -> bool:
        assert self.store is not None
        return self.store.delete(key)


class _PlanStep:
    """Walk step that only predicts: probe the store and publish planning
    stand-ins (:meth:`Phase.plan_provide`); nothing is decoded or written."""

    def __init__(self, probe: Optional[PlanProbe]) -> None:
        self.probe = probe
        self.active = probe is not None

    def attempt(self, ctx: PhaseContext, covered: List[Phase], phase: Phase,
                kind: str, key: str) -> Any:
        assert self.probe is not None
        if not self.probe(key, kind):
            return _MISS
        for each in covered:
            if each.enabled(ctx):
                each.plan_provide(ctx)
        return None

    def present(self, key: str, kind: str) -> bool:
        assert self.probe is not None
        return self.probe(key, kind)

    def run(self, ctx: PhaseContext, phase: Phase, resume: Any) -> None:
        phase.plan_provide(ctx)

    def put(self, ctx: PhaseContext, phase: Phase, key: str) -> None:
        pass

    def delete(self, key: str) -> bool:
        assert self.probe is not None
        return self.probe(key, KIND_CHECKPOINT)


class PhaseGraph:
    """Fold a phase sequence over a context, cheapest path first.

    At every step the walk prefers (1) **restoring** the deepest
    not-yet-passed phase whose boundary artifact is decodable against the
    context — it stands in for every phase before it; (2) **resuming** the
    deepest phase with a live ``kind="checkpoint"`` artifact, which
    carries the cumulative upstream state; (3) **running** the next phase,
    then persisting its boundary artifact and deleting its superseded
    checkpoint.  Corrupt artifacts degrade to recomputes that overwrite
    them.  :meth:`execute` and :meth:`plan` are this one walk with
    different steps: a plan is a dry run of the executor's decisions.
    """

    def __init__(self, phases: List[Phase]) -> None:
        names = [phase.name for phase in phases]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate phase names in {names}")
        self.phases = list(phases)

    def execute(self, ctx: PhaseContext) -> PipelinePlan:
        """Run the graph to completion over ``ctx``; return the walk taken."""
        return self._walk(ctx, _ExecuteStep(ctx.store))

    def plan(self, ctx: PhaseContext,
             probe: Optional[PlanProbe] = None) -> PipelinePlan:
        """Classify every phase without executing or writing anything.

        ``probe`` is the read-only store oracle; ``None`` plans a storeless
        run (everything enabled goes cold, keys are still computed).  The
        context carries the run inputs (``"aig"``, ``"base_key"``) but
        no store: planning never uses ``ctx.store``.
        """
        return self._walk(ctx, _PlanStep(probe))

    def _walk(self, ctx: PhaseContext,
              step: Union[_ExecuteStep, _PlanStep]) -> PipelinePlan:
        phases = self.phases
        walk = PipelinePlan(name=getattr(ctx.get("aig"), "name", "") or "",
                            base_key=ctx.get("base_key"))
        # A content key never changes once computable, so the walk
        # computes each one once (the extraction key digests the roots).
        keys: Dict[str, str] = {}

        def cache_key(phase: Phase) -> Optional[str]:
            key = keys.get(phase.name)
            if key is None and phase.kind is not None:
                key = phase.cache_key(ctx)
                if key is not None:
                    keys[phase.name] = key
            return key

        def record(phase: Phase, classification: str,
                   covered_by: Optional[str] = None) -> None:
            if not phase.enabled(ctx):
                classification, covered_by = PLAN_SKIPPED, None
            walk.phases.append(PhasePlan(
                phase.name, classification, cache_key(phase),
                phase.checkpoint_key(ctx), covered_by))

        def deepest(index: int, resume: bool) -> Tuple[Optional[int], Any]:
            """Deepest enabled phase ``j >= index`` whose boundary artifact
            (checkpoint, with ``resume``) the step accepts, and its token."""
            if not step.active:
                return None, None
            for j in range(len(phases) - 1, index - 1, -1):
                phase = phases[j]
                if not phase.enabled(ctx):
                    continue
                if resume:
                    key, kind = phase.checkpoint_key(ctx), KIND_CHECKPOINT
                    covered = phases[index:j]
                else:
                    key = cache_key(phase)
                    if key is not None and not all(
                            step.present(*needed)
                            for needed in phase.prerequisites(ctx)):
                        key = None
                    kind, covered = phase.kind or "", phases[index:j + 1]
                if key is not None:
                    token = step.attempt(ctx, covered, phase, kind, key)
                    if token is not _MISS:
                        return j, token
            return None, None

        index = 0
        while index < len(phases):
            if not phases[index].enabled(ctx):
                record(phases[index], PLAN_SKIPPED)
                index += 1
                continue
            chosen, token = deepest(index, resume=False)
            if chosen is not None:
                walk.restore_phase = phases[chosen].name
                for covered in phases[index:chosen + 1]:
                    record(covered, PLAN_WARM_BOUNDARY, walk.restore_phase)
                    # The covered phases' checkpoints are superseded: left
                    # alone, an orphaned one (a full e-graph) would sit in
                    # the store as long as this artifact skips its phase.
                    checkpoint_key = covered.checkpoint_key(ctx)
                    if checkpoint_key is not None \
                            and step.delete(checkpoint_key):
                        walk.planned_deletes.append(checkpoint_key)
                index = chosen + 1
                continue
            chosen, token = deepest(index, resume=True)
            how = PLAN_COLD if chosen is None else PLAN_WARM_CHECKPOINT
            if chosen is None:
                chosen = index
            else:
                walk.resume_phase = phases[chosen].name
            for covered in phases[index:chosen]:
                record(covered, how, walk.resume_phase)
            phase = phases[chosen]
            step.run(ctx, phase, token)
            record(phase, how)
            index = chosen + 1
            if not step.active:
                continue
            key = cache_key(phase)
            if key is not None:
                step.put(ctx, phase, key)
                walk.planned_writes.append(key)
            checkpoint_key = phase.checkpoint_key(ctx)
            if checkpoint_key is not None:
                # The phase completed: the checkpoint it resumed from, and
                # any it wrote itself, are superseded.
                step.delete(checkpoint_key)
                if how == PLAN_WARM_CHECKPOINT:
                    walk.planned_deletes.append(checkpoint_key)
        return walk


# ----------------------------------------------------------------------
# Shared wire helpers (construction bookkeeping travels with several
# artifact kinds; the e-graph itself is serialized separately).
# ----------------------------------------------------------------------
#: Fields of the construction wire form: each map is two parallel int
#: columns, keys ascending.
_CONSTRUCTION_FIELDS = {"vars", "var_classes", "output_classes",
                        "literals", "literal_classes"}


def _construction_to_wire(construction: ConstructionResult) -> Dict:
    variables = sorted(construction.class_of_var.items())
    literals = sorted(construction.literal_classes.items())
    return {
        "vars": [var for var, _ in variables],
        "var_classes": [class_id for _, class_id in variables],
        "output_classes": list(construction.output_classes),
        "literals": [lit for lit, _ in literals],
        "literal_classes": [class_id for _, class_id in literals],
    }


def _int_columns(*columns: Any) -> bool:
    """True when every column is a list of non-negative ints."""
    return (all(type(column) is list for column in columns)
            and countOf(map(type, chain(*columns)), int)
            == sum(map(len, columns))
            and min(chain(*columns), default=0) >= 0)


def _int_map(keys: Any, values: Any, what: str) -> Dict[int, int]:
    """The map of two parallel int columns, keys strictly ascending."""
    if not _int_columns(keys, values) or len(keys) != len(values):
        raise SnapshotError(f"{what} must be two int columns of one length")
    if not all(map(lt, keys, islice(keys, 1, None))):
        raise SnapshotError(f"{what} keys must be strictly ascending")
    return dict(zip(keys, values))


def _construction_from_wire(wire: Dict, egraph: Any,
                            aig: "AIG") -> ConstructionResult:
    # ``egraph`` is a restored DenseEGraph (or ``None`` for one loaded
    # later); ConstructionResult is typed by the EGraph API, which both
    # engines implement.
    if type(wire) is not dict or wire.keys() != _CONSTRUCTION_FIELDS:
        raise SnapshotError("construction must be an object with fields "
                            f"{sorted(_CONSTRUCTION_FIELDS)}")
    if not _int_columns(wire["output_classes"]):
        raise SnapshotError("output_classes must be an int column")
    return ConstructionResult(
        egraph=egraph,
        aig=aig,
        class_of_var=_int_map(wire["vars"], wire["var_classes"],
                              "class_of_var"),
        output_classes=list(wire["output_classes"]),
        literal_classes=_int_map(wire["literals"], wire["literal_classes"],
                                 "literal_classes"),
    )


def _untimed_report(report: RunnerReport) -> Dict:
    """``report``'s wire form with its wall-clock fields zeroed."""
    wire = report_to_wire(report)
    wire["total_time"] = 0.0
    for iteration in wire["iterations"]:
        iteration["elapsed"] = 0.0
    return wire


def _saturation_to_wire(ctx: PhaseContext, *, timed: bool = True) -> Dict:
    """Everything phases 1–4 publish except the e-graph itself: shared by
    the saturated snapshot and the (self-contained) extraction artifact.
    ``timed=False`` zeroes the reports' wall-clock fields, so an artifact
    that embeds them stays a pure function of its key."""
    fa_report: FAInsertionReport = ctx["fa_report"]
    reports = report_to_wire if timed else _untimed_report
    return {
        "construction": _construction_to_wire(ctx["construction"]),
        "r1_report": reports(ctx["r1_report"]),
        "r2_report": reports(ctx["r2_report"]),
        "fa_pairs": [[list(pair.inputs), pair.sum_class,
                      pair.carry_class, pair.fa_class]
                     for pair in fa_report.pairs],
        "num_npn_fas": ctx["num_npn"],
    }


def _saturation_from_wire(payload: Dict, egraph: Any,
                          aig: "AIG") -> Dict[str, Any]:
    """Decode :func:`_saturation_to_wire` into context products (nothing is
    published: a payload whose tail is malformed must leave the context
    as it was)."""
    return {
        "construction": _construction_from_wire(
            payload["construction"], egraph, aig),
        "r1_report": report_from_wire(payload["r1_report"]),
        "r2_report": report_from_wire(payload["r2_report"]),
        "fa_report": FAInsertionReport(pairs=[
            FAPair(inputs=tuple(inputs), sum_class=sum_class,
                   carry_class=carry_class, fa_class=fa_class)
            for inputs, sum_class, carry_class, fa_class
            in payload["fa_pairs"]]),
        "num_npn": payload["num_npn_fas"],
    }


class _BoolEPhase(Phase):
    """Base for the concrete phases: holds a weak proxy of the owning
    pipeline, which holds the phases (a strong reference back would make
    every pipeline a reference cycle)."""

    def __init__(self, pipeline: "BoolEPipeline") -> None:
        self.pipeline: "BoolEPipeline" = weakref.proxy(pipeline)

    @property
    def options(self) -> "BoolEOptions":
        return self.pipeline.options


class ConstructPhase(_BoolEPhase):
    """Stage 1: AIG → e-graph (Algorithm 1)."""

    name = "construct"
    provides = ("construction",)

    def plan_provide(self, ctx: PhaseContext) -> None:
        # Construction feeds a key computation downstream (the extraction
        # key digests output class ids), so its stand-in must be exact:
        # predict the ids with the e-graph-free dry construction.
        ctx["construction"] = planned_construction(ctx["aig"])

    def run(self, ctx: PhaseContext, resume: Any = None) -> None:
        started = time.perf_counter()
        ctx["construction"] = aig_to_egraph(ctx["aig"])
        ctx.timings["construct"] = time.perf_counter() - started


class SaturatePhase(_BoolEPhase):
    """Stages 2/3: one ruleset saturation run, checkpointable mid-phase.

    The checkpoint artifact carries the e-graph, the runner resume state
    *and* the cumulative upstream products (construction bookkeeping,
    earlier phase reports), so a cold process can resume the phase without
    re-running anything before it.
    """

    def __init__(self, pipeline: "BoolEPipeline", name: str,
                 rules_attr: str,
                 iterations_attr: str, report_field: str, timing: str,
                 prior_reports: Tuple[str, ...] = ()) -> None:
        super().__init__(pipeline)
        self.name = name
        self.rules_attr = rules_attr
        self.iterations_attr = iterations_attr
        self.report_field = report_field
        self.timing = timing
        self.prior_reports = prior_reports
        self.provides = (report_field,)

    @property
    def rules(self) -> Any:
        return getattr(self.pipeline, self.rules_attr)

    def checkpoint_key(self, ctx: PhaseContext) -> Optional[str]:
        base_key = ctx.get("base_key")
        if base_key is None:
            return None
        return phase_checkpoint_key(base_key, self.name)

    def _checkpoint_payload(self, ctx: PhaseContext,
                            checkpoint: RunnerCheckpoint) -> Dict:
        construction: ConstructionResult = ctx["construction"]
        return {
            # Superset of the standalone checkpoint layout, so
            # ``repro.store.codec.load_checkpoint`` consumers can read
            # phase checkpoints too.
            "egraph": egraph_to_wire(construction.egraph),
            "runner": checkpoint_to_wire(checkpoint),
            "phase": self.name,
            "prior": {
                "construction": _construction_to_wire(construction),
                "reports": {field: report_to_wire(ctx[field])
                            for field in self.prior_reports},
            },
        }

    def load_checkpoint(self, ctx: PhaseContext,
                        payload: Dict) -> Any:
        if payload.get("phase") != self.name:
            raise SnapshotError(
                f"checkpoint belongs to phase {payload.get('phase')!r}, "
                f"not {self.name!r}")
        # Decode everything into locals before touching the context: a
        # payload that fails halfway must leave ctx exactly as it was
        # (the executor degrades the failure to a fresh run).
        egraph = egraph_from_wire(payload["egraph"])
        prior = payload["prior"]
        construction = _construction_from_wire(
            prior["construction"], egraph, ctx["aig"])
        reports = {field: report_from_wire(wire)
                   for field, wire in prior["reports"].items()}
        checkpoint = checkpoint_from_wire(payload["runner"], egraph)
        ctx["construction"] = construction
        for field, report in reports.items():
            ctx[field] = report
        return checkpoint

    def run(self, ctx: PhaseContext, resume: Any = None) -> None:
        pipeline = self.pipeline
        options = self.options
        construction: ConstructionResult = ctx["construction"]
        checkpoint_every = options.checkpoint_every
        on_checkpoint = None
        if checkpoint_every is not None and ctx.store is not None:
            key = self.checkpoint_key(ctx)
            if key is not None:
                store = ctx.store

                def on_checkpoint(checkpoint: RunnerCheckpoint) -> None:
                    store.put(key, self._checkpoint_payload(ctx, checkpoint),
                              kind=KIND_CHECKPOINT,
                              meta={
                                  "phase": self.name,
                                  "aig_name": ctx["aig"].name,
                                  "iteration": checkpoint.iteration,
                                  "saturation_seconds":
                                      round(checkpoint.elapsed, 3),
                              })

        started = time.perf_counter()
        # Saturation runs on the dense engine.  Construction builds the
        # object graph, so convert at the phase boundary (a no-op on a
        # graph decoded from a checkpoint, which is already dense).
        construction.egraph = as_engine(construction.egraph, "dense")
        if resume is not None:
            runner = Runner.from_checkpoint(resume)
        else:
            limits = pipeline._phase_limits(
                getattr(options, self.iterations_attr))
            runner = Runner(limits)
        ctx[self.report_field] = runner.run(
            construction.egraph, self.rules,
            checkpoint_every=checkpoint_every,
            on_checkpoint=on_checkpoint,
            resume_from=resume)
        ctx.timings[self.timing] = time.perf_counter() - started


class InsertFAPhase(_BoolEPhase):
    """Stage 4: redundancy pruning, FA pairing and the NPN count.

    Its boundary artifact is the ``kind="saturated-pipeline"`` snapshot —
    everything the pipeline produces before extraction — so restoring it
    replaces phases 1–4 wholesale.  Extraction reads only the snapshot's
    node table, so a restore publishes that (``construction.node_table``,
    read straight off the columns) and defers ``construction.egraph``: the
    graph is decoded once, on first access, by a walk of phases 1–4 whose
    insert-fa phase is built with ``restore_graph=True``
    (:meth:`~repro.core.pipeline.BoolEPipeline.saturated_egraph`), which
    restores the full graph instead.
    """

    name = "insert-fa"
    kind = KIND_SATURATED
    load_timing = "cache_load"
    store_timing = "cache_store"
    provides = ("fa_report", "num_npn")

    def __init__(self, pipeline: "BoolEPipeline", *,
                 restore_graph: bool = False) -> None:
        super().__init__(pipeline)
        self.restore_graph = restore_graph

    def cache_key(self, ctx: PhaseContext) -> Optional[str]:
        return ctx.get("base_key")

    def run(self, ctx: PhaseContext, resume: Any = None) -> None:
        egraph = ctx["construction"].egraph
        started = time.perf_counter()
        egraph.prune_duplicates({Op.XOR3, Op.MAJ, Op.FA, Op.XOR, Op.AND, Op.OR})
        ctx.timings["prune"] = time.perf_counter() - started
        started = time.perf_counter()
        ctx["fa_report"] = insert_fa_structures(egraph)
        ctx.timings["fa_pairing"] = time.perf_counter() - started
        ctx["num_npn"] = 0
        if self.options.count_npn:
            started = time.perf_counter()
            ctx["num_npn"] = count_npn_fa_pairs(egraph)
            ctx.timings["npn_count"] = time.perf_counter() - started

    def to_wire(self, ctx: PhaseContext) -> Dict:
        return {"egraph": egraph_to_wire(ctx["construction"].egraph),
                **_saturation_to_wire(ctx)}

    def from_wire(self, ctx: PhaseContext, payload: Dict) -> None:
        # Fully decode before publishing anything into the context: a
        # payload whose tail is malformed must not leave a half-restored
        # (already saturated!) e-graph for the fresh phases to mangle.
        if self.restore_graph:
            egraph = egraph_from_wire(payload["egraph"])
            ctx.state.update(_saturation_from_wire(payload, egraph,
                                                   ctx["aig"]))
            return
        # Every column is checked; only the node table is kept (the
        # parent, hashcons and dirty columns go with the payload).
        table = node_table_from_wire(payload["egraph"])
        products = _saturation_from_wire(payload, None, ctx["aig"])
        construction = products["construction"]
        construction.defer_egraph(partial(
            self.pipeline.saturated_egraph, ctx["aig"], ctx.store))
        construction.node_table = table
        ctx.state.update(products,
                         egraph_shape=(table.num_classes, table.num_nodes))

    def artifact_meta(self, ctx: PhaseContext) -> Dict:
        aig = ctx["aig"]
        egraph = ctx["construction"].egraph
        timings = ctx.timings
        # Rebuild cost for the store's cost-aware GC.  The saturation
        # share comes from the runner reports' total_time, which is
        # cumulative across kill/resume cycles — a resumed run's own
        # timings only cover the replayed tail, and under-reporting here
        # would make gc --max-bytes evict exactly the artifacts that
        # were expensive enough to need checkpointing.
        rebuild = sum(timings.get(step, 0.0)
                      for step in ("construct", "prune", "fa_pairing",
                                   "npn_count"))
        rebuild += ctx["r1_report"].total_time
        rebuild += ctx["r2_report"].total_time
        return {
            "aig_name": aig.name,
            "aig_gates": aig.num_gates,
            "egraph_classes": egraph.num_classes,
            "exact_fas": ctx["fa_report"].num_exact_fas,
            "saturation_seconds": round(rebuild, 3),
        }


def _output_classes(ctx: PhaseContext) -> List[int]:
    """The extraction roots: construction's output classes, predicted
    e-graph-free (:func:`planned_construction`) before construction ran or
    was restored."""
    construction = ctx.get("construction") or planned_construction(ctx["aig"])
    return construction.output_classes


class ExtractPhase(_BoolEPhase):
    """Stage 5: DAG cost propagation (Algorithm 2).

    No boundary artifact of its own — the ``reconstruct`` artifact covers
    stages 5–6 together (the two are only ever consumed as a pair).  A
    refining extractor resumes from the stored ``refine_rounds=0``
    extraction of the same snapshot when there is one
    (:meth:`BoolEExtractor.extract`'s ``start``).
    """

    name = "extract"
    provides = ("extraction",)

    def enabled(self, ctx: PhaseContext) -> bool:
        return self.options.extract

    def run(self, ctx: PhaseContext, resume: Any = None) -> None:
        construction: ConstructionResult = ctx["construction"]
        started = time.perf_counter()
        # A restored snapshot's node table, or the live graph (whose own
        # node table the extractor takes).
        table = construction.node_table
        extraction = self.pipeline.extractor.extract(
            construction.egraph if table is None else table,
            roots=construction.output_classes, start=self._first_pass(ctx))
        if table is not None:
            extraction.defer_egraph(partial(getattr, construction, "egraph"))
        ctx["extraction"] = extraction
        ctx.timings["extract"] = time.perf_counter() - started

    def _first_pass(self, ctx: PhaseContext) -> Optional[BoolEExtraction]:
        """The stored single-pass extraction of this snapshot (same cost
        table, same roots), or ``None`` when there is none to resume from
        or it does not decode."""
        base_key = ctx.get("base_key")
        if (not self.pipeline.extractor.refine_rounds or ctx.store is None
                or base_key is None):
            return None
        key = self.pipeline.extraction_key(
            base_key, ctx["construction"].output_classes, refine_rounds=0)
        try:
            payload = ctx.store.get(key, expected_kind=KIND_EXTRACTION)
            if payload is None or payload.get("saturated_key") != base_key:
                return None
            return extraction_from_wire(payload["extraction"])
        except _DECODE_ERRORS:
            return None


class ReconstructPhase(_BoolEPhase):
    """Stage 6: materialise the extraction as an AIG with explicit FAs.

    Its ``kind="extraction"`` artifact is self-contained: next to the
    extraction and the netlist it carries the saturated key, the shape of
    the saturated graph and everything else phases 1–4 publish
    (:func:`_saturation_to_wire`).  Restored at the start of a walk it
    stands in for all six phases, and the saturated e-graph is loaded only
    if a caller reads ``construction.egraph``.
    """

    name = "reconstruct"
    kind = KIND_EXTRACTION
    load_timing = "extraction_cache_load"
    store_timing = "extraction_cache_store"
    provides = ("extracted_aig", "fa_blocks")

    def enabled(self, ctx: PhaseContext) -> bool:
        return self.options.extract

    def cache_key(self, ctx: PhaseContext) -> Optional[str]:
        base_key = ctx.get("base_key")
        if base_key is None:
            return None
        return self.pipeline.extraction_key(base_key, _output_classes(ctx))

    def prerequisites(self, ctx: PhaseContext
                      ) -> Tuple[Tuple[str, str], ...]:
        # Standing in for phases 1–4 too, the artifact needs their snapshot
        # in the store: ``cache_hit`` keeps meaning "the saturated graph is
        # stored", and the deferred ``construction.egraph`` loads from it.
        if "fa_report" in ctx:
            return ()
        return ((ctx["base_key"], KIND_SATURATED),)

    def run(self, ctx: PhaseContext, resume: Any = None) -> None:
        started = time.perf_counter()
        extracted, blocks = reconstruct_aig(ctx["construction"],
                                            ctx["extraction"])
        ctx["extracted_aig"] = extracted
        ctx["fa_blocks"] = blocks
        ctx.timings["reconstruct"] = time.perf_counter() - started

    def to_wire(self, ctx: PhaseContext) -> Dict:
        blocks: List[FABlockRecord] = ctx["fa_blocks"]
        table = ctx["extraction"].node_table
        return {
            "extraction": extraction_to_wire(ctx["extraction"]),
            "extracted_aig": aig_to_wire(ctx["extracted_aig"]),
            "fa_blocks": [[list(block.inputs), block.sum_lit,
                           block.carry_lit] for block in blocks],
            "saturated_key": ctx["base_key"],
            "egraph_shape": [table.num_classes, table.num_nodes],
            **_saturation_to_wire(ctx, timed=False),
        }

    def from_wire(self, ctx: PhaseContext, payload: Dict) -> None:
        # Fully decode before publishing (see InsertFAPhase.from_wire).
        if payload["saturated_key"] != ctx["base_key"]:
            raise SnapshotError("extraction artifact belongs to another "
                                "saturated graph")
        classes, nodes = payload["egraph_shape"]
        if type(classes) is not int or type(nodes) is not int:
            raise SnapshotError("egraph_shape must be two ints")
        products = _saturation_from_wire(payload, None, ctx["aig"])
        extraction = extraction_from_wire(payload["extraction"])
        extracted_aig = aig_from_wire(payload["extracted_aig"])
        fa_blocks = [
            FABlockRecord(inputs=tuple(inputs), sum_lit=sum_lit,
                          carry_lit=carry_lit)
            for inputs, sum_lit, carry_lit in payload["fa_blocks"]
        ]
        if "construction" not in ctx:
            # Restored ahead of phases 1–4: their products come from this
            # artifact, and the e-graph from the snapshot on first access.
            construction = products["construction"]
            construction.defer_egraph(partial(
                self.pipeline.saturated_egraph, ctx["aig"], ctx.store))
            ctx["egraph_shape"] = (classes, nodes)
            ctx.state.update(products)
        construction = ctx["construction"]
        extraction.defer_egraph(partial(getattr, construction, "egraph"))
        extraction.node_table = construction.node_table
        ctx["extraction"] = extraction
        ctx["extracted_aig"] = extracted_aig
        ctx["fa_blocks"] = fa_blocks

    def artifact_meta(self, ctx: PhaseContext) -> Dict:
        timings = ctx.timings
        return {
            "aig_name": ctx["aig"].name,
            "exact_fas": len(ctx["fa_blocks"]),
            "extracted_gates": ctx["extracted_aig"].num_gates,
            "saturated_key": ctx.get("base_key"),
            "saturation_seconds": round(
                timings.get("extract", 0.0)
                + timings.get("reconstruct", 0.0), 3),
        }


def boole_phases(pipeline: "BoolEPipeline") -> List[Phase]:
    """The six Figure-2 phases wired to ``pipeline``, in execution order."""
    return [
        ConstructPhase(pipeline),
        SaturatePhase(pipeline, "saturate-r1", "_r1", "r1_iterations",
                      "r1_report", "r1"),
        SaturatePhase(pipeline, "saturate-r2", "_r2", "r2_iterations",
                      "r2_report", "r2", prior_reports=("r1_report",)),
        InsertFAPhase(pipeline),
        ExtractPhase(pipeline),
        ReconstructPhase(pipeline),
    ]
