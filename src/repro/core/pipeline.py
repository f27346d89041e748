"""The end-to-end BoolE pipeline (Figure 2 of the paper).

``BoolEPipeline.run`` executes a :class:`~repro.core.phases.PhaseGraph`
of six first-class phases (see ``docs/architecture.md``):

1. ``construct`` — e-graph construction (Algorithm 1),
2. ``saturate-r1`` — basic Boolean rules (optimisation trick 2),
3. ``saturate-r2`` — XOR/MAJ identification rules,
4. ``insert-fa`` — redundancy pruning (trick 3), multi-output FA
   structure insertion (Figure 3) and the NPN count,
5. ``extract`` — DAG-based exact extraction (Algorithm 2), and
6. ``reconstruct`` — the extracted netlist as an AIG exposing the
   recovered full adders.

Phases 1–4 are a pure function of ``(netlist, options, ruleset)`` — the
determinism guarantees of ``docs/performance.md`` — so their combined
boundary is a cacheable artifact: pass ``store=`` (an
:class:`~repro.store.ArtifactStore` or a directory path) and the executor
restores the deepest warm phase instead of recomputing, persisting
boundary artifacts on the way (see ``docs/serialization.md``).  Phases
5–6 share a second, independent ``kind="extraction"`` artifact keyed on
(saturated-graph key, extractor cost table, reconstruction roots,
refinement budget).  It is self-contained: a fully warm run loads only
that artifact, skips cost propagation entirely, and loads the saturated
snapshot only if a caller reads ``result.construction.egraph``.  A run
that restores the saturated snapshot and extracts reads only its node
table, and builds the mutable e-graph only on that same first access.

With ``checkpoint_every`` set, the two saturation phases additionally
write mid-phase ``kind="checkpoint"`` artifacts every N iterations: a
killed run — say a 32-bit R2 phase — resumes from its latest checkpoint
(replaying only the remaining iterations, bit-identical to an
uninterrupted run) instead of restarting the phase.
"""

from __future__ import annotations

import dataclasses
import gc
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

from ..aig import AIG
from ..egraph import EGraph, RunnerLimits, RunnerReport
from ..store import (
    ArtifactStore,
    combine_cache_key,
    extraction_cache_key,
    fingerprint_aig,
    fingerprint_options,
    fingerprint_ruleset,
)
from .construct import ConstructionResult
from .extraction import BoolEExtraction, BoolEExtractor, FABlockRecord
from .fa_structure import FAInsertionReport
from .phases import (InsertFAPhase, PhaseContext, PhaseGraph, PipelinePlan,
                     boole_phases)
from .rules_basic import basic_rules
from .rules_xor_maj import identification_rules

__all__ = ["BoolEOptions", "BoolEResult", "BoolEPipeline", "PipelineCache",
           "run_boole"]


@dataclass
class BoolEOptions:
    """Configuration of the BoolE pipeline.

    Attributes:
        r1_iterations: iteration budget for the basic-rule phase (the paper
            uses 10; smaller values already saturate the lightweight
            ruleset); >= 0.
        r2_iterations: iteration budget for the identification phase
            (paper: 3); >= 0.
        lightweight_rules: use the pruned R1 subset (paper trick 1).
        max_nodes: e-graph node limit per phase (>= 1).
        time_limit: wall-clock limit (seconds) per phase; finite and > 0.
        match_limit: initial per-rule match budget per iteration for the
            back-off scheduler; rules exceeding it are banned for
            exponentially growing windows (see ``docs/performance.md``).
            ``None`` disables back-off; otherwise it must be >= 1.
        ban_length: initial back-off ban window, in iterations (>= 1).
        extract: run DAG extraction and netlist reconstruction.
        refine_rounds: bounded choose→repair refinement iterations after
            the first extraction pass; the best materialised FA count
            wins (see :class:`~repro.core.extraction.BoolEExtractor`).
            ``0`` keeps the single-pass extractor.
        count_npn: count NPN FA pairs on the saturated e-graph.
        checkpoint_every: with a store configured, write a mid-phase
            ``kind="checkpoint"`` artifact after every this-many
            saturation iterations (both R1 and R2); a killed run resumes
            from its latest checkpoint.  ``None`` disables checkpointing.
            Cadence never changes results, so it is excluded from cache
            fingerprints.

    Saturation always runs on :class:`~repro.egraph.DenseEGraph` with delta
    e-matching, and the saturated graph is always pruned of permuted
    duplicates (paper trick 3).  The object-graph engine and the full-scan and cross-check
    matchers are test oracles, reached below the options
    (see ``docs/architecture.md``).
    """

    r1_iterations: int = 6
    r2_iterations: int = 4
    lightweight_rules: bool = True
    max_nodes: int = 400_000
    time_limit: float = 120.0
    # Wider than the RunnerLimits default: the R2 identification rules
    # legitimately produce huge match sets on wide multipliers.
    match_limit: Optional[int] = 100_000
    ban_length: int = 2
    extract: bool = True
    refine_rounds: int = 0
    count_npn: bool = True
    checkpoint_every: Optional[int] = None

    def __post_init__(self) -> None:
        if self.r1_iterations < 0 or self.r2_iterations < 0:
            raise ValueError("r1_iterations and r2_iterations must be >= 0")
        if self.max_nodes < 1:
            raise ValueError("max_nodes must be >= 1")
        if not 0 < self.time_limit < math.inf:
            raise ValueError("time_limit must be finite and > 0")
        if self.checkpoint_every is not None and self.checkpoint_every < 1:
            raise ValueError(
                "checkpoint_every must be >= 1 (or None to disable "
                "checkpointing)")
        if self.refine_rounds < 0:
            raise ValueError("refine_rounds must be >= 0")
        if self.match_limit is not None and self.match_limit < 1:
            raise ValueError(
                "match_limit must be >= 1 (or None to disable back-off)")
        if self.ban_length < 1:
            raise ValueError("ban_length must be >= 1")

    def cache_token(self) -> Tuple[object, ...]:
        """Hashable identity of this options object.

        The key under which pipeline caches (the batch overlay planner,
        the service's per-options pipeline table) share one
        :class:`BoolEPipeline` — and with it the parsed rulesets and
        memoized fingerprints — across jobs configured identically.
        """
        return dataclasses.astuple(self)


@dataclass
class BoolEResult:
    """Everything the pipeline produces for one input netlist."""

    source: AIG
    #: ``None`` on :meth:`lightweight` copies (the e-graph and the
    #: construction bookkeeping do not cross process boundaries).
    construction: Optional[ConstructionResult]
    r1_report: RunnerReport
    r2_report: RunnerReport
    fa_report: FAInsertionReport
    extraction: Optional[BoolEExtraction] = None
    extracted_aig: Optional[AIG] = None
    fa_blocks: List[FABlockRecord] = field(default_factory=list)
    num_npn_fas: int = 0
    timings: Dict[str, float] = field(default_factory=dict)
    #: True when the saturated e-graph came from an artifact store instead
    #: of being recomputed (``timings`` then has ``cache_load`` instead of
    #: the construct/r1/r2/prune/fa_pairing stages).
    cache_hit: bool = False
    #: True when the extraction + reconstructed netlist came from a
    #: ``kind="extraction"`` artifact (``timings`` then has
    #: ``extraction_cache_load`` instead of ``extract``/``reconstruct`` —
    #: cost propagation was skipped entirely).
    extraction_cache_hit: bool = False
    #: Name of the phase this run resumed mid-way from a
    #: ``kind="checkpoint"`` artifact (``None`` for uninterrupted runs).
    resumed_phase: Optional[str] = None
    #: (classes, nodes) of the saturated e-graph when it is not at hand:
    #: kept by :meth:`lightweight`, and read off the extraction artifact
    #: by a fully warm run (whose e-graph loads only on access).
    _egraph_shape: Optional[Tuple[int, int]] = field(default=None,
                                                     repr=False)

    @property
    def num_exact_fas(self) -> int:
        """Exact FAs present in the extracted netlist (distinct FA blocks)."""
        return len(self.fa_blocks)

    @property
    def num_paired_fas(self) -> int:
        """Exact FA structures paired in the e-graph (before extraction)."""
        return self.fa_report.num_exact_fas

    @property
    def total_runtime(self) -> float:
        """End-to-end runtime in seconds."""
        return self.timings.get("total", 0.0)

    def _shape(self) -> Tuple[int, int]:
        if self._egraph_shape is not None:
            return self._egraph_shape
        if self.construction is None:
            return (0, 0)
        egraph = self.construction.egraph
        return egraph.num_classes, egraph.num_nodes

    @property
    def egraph_classes(self) -> int:
        """Number of e-classes after saturation."""
        return self._shape()[0]

    @property
    def egraph_nodes(self) -> int:
        """Number of e-nodes after saturation."""
        return self._shape()[1]

    def lightweight(self) -> "BoolEResult":
        """A copy safe to ship across process boundaries.

        Drops the two members that are heavy and bound to live e-graph
        state — the construction (with its e-graph) and the extraction
        entry table — while keeping everything report-shaped: both runner
        reports, the FA pairing report, the reconstructed netlist, the FA
        blocks, the counts and the timings.  ``summary()`` and all shape
        properties keep answering identically.
        """
        return replace(self, construction=None, extraction=None,
                       _egraph_shape=self._shape())

    def saturation_stats(self) -> Dict[str, object]:
        """E-matching telemetry of this run's saturation phases.

        ``ematch_ops`` counts the operator spans the matcher scanned; it is
        0 when no saturation executed in this process (fully warm runs
        decode their reports from artifacts, which do not carry it).
        """
        ops = self.r1_report.ematch_ops + self.r2_report.ematch_ops
        seconds = self.r1_report.total_time + self.r2_report.total_time
        return {
            "ematch_ops": ops,
            "ematch_ops_per_s": (round(ops / seconds, 1)
                                 if ops and seconds > 0 else 0.0),
            "saturation_seconds": round(seconds, 3),
        }

    def summary(self) -> Dict[str, float]:
        """Compact numeric summary used by the benchmark harness."""
        return {
            "aig_nodes": self.source.num_gates,
            "egraph_classes": self.egraph_classes,
            "egraph_nodes": self.egraph_nodes,
            "exact_fas": self.num_exact_fas,
            "paired_fas": self.num_paired_fas,
            "npn_fas": self.num_npn_fas,
            "runtime": self.total_runtime,
        }


class BoolEPipeline:
    """Exact symbolic reasoning for Boolean netlists via equality saturation.

    Args:
        options: pipeline configuration (defaults to :class:`BoolEOptions`).
        store: default artifact store for :meth:`run` — an
            :class:`~repro.store.ArtifactStore` or a directory path.
            ``None`` disables caching unless :meth:`run` is given one.
        extractor: the DAG extractor to run.  Defaults to a fresh
            :class:`BoolEExtractor` configured with
            ``options.refine_rounds``.  Its ``node_cost`` table and
            refinement budget participate in the extraction cache key, so
            a custom cost model never hits a default-cost artifact.
    """

    def __init__(self, options: Optional[BoolEOptions] = None, *,
                 store: Union[ArtifactStore, str, Path, None] = None,
                 extractor: Optional[BoolEExtractor] = None) -> None:
        self.options = options or BoolEOptions()
        self.store = _as_store(store)
        self.extractor = extractor or BoolEExtractor(
            refine_rounds=self.options.refine_rounds)
        self._r1 = basic_rules(lightweight=self.options.lightweight_rules)
        self._r2 = identification_rules()
        self._graph = PhaseGraph(boole_phases(self))
        # Phases 1–4 alone (construct … insert-fa), restoring the full
        # graph rather than the node table: what loading a warm result's
        # deferred e-graph walks (:meth:`saturated_egraph`).
        insert_fa = self.phases.index("insert-fa")
        self._saturation = PhaseGraph(
            self._graph.phases[:insert_fa]
            + [InsertFAPhase(self, restore_graph=True)])
        # Options/ruleset fingerprints are per-pipeline constants; computed
        # lazily once so batch sweeps pay only the per-AIG digest per job.
        self._static_fingerprints: Optional[Tuple[str, List[str]]] = None

    @property
    def num_rules(self) -> Dict[str, int]:
        """Rule counts of the two phases."""
        return {"R1": len(self._r1), "R2": len(self._r2)}

    @property
    def phases(self) -> List[str]:
        """Names of the pipeline's phases, in execution order."""
        return [phase.name for phase in self._graph.phases]

    def cache_key(self, aig: AIG) -> str:
        """Content-addressed store key of ``aig``'s saturated e-graph.

        Combines the fingerprints of the netlist, the options and both
        rulesets (see :mod:`repro.store.fingerprint`); identical inputs
        yield identical keys across processes and hash seeds.
        """
        if self._static_fingerprints is None:
            self._static_fingerprints = (
                fingerprint_options(self.options),
                [fingerprint_ruleset(rules)
                 for rules in (self._r1, self._r2)])
        options_fp, ruleset_fps = self._static_fingerprints
        return combine_cache_key(fingerprint_aig(aig), options_fp,
                                 ruleset_fps)

    def extraction_key(self, saturated_key: str, roots: List[int], *,
                       refine_rounds: Optional[int] = None) -> str:
        """Content key of the ``kind="extraction"`` artifact for this
        pipeline's extractor over ``roots`` (with ``refine_rounds`` in
        place of the extractor's own budget when given)."""
        if refine_rounds is None:
            refine_rounds = self.extractor.refine_rounds
        return extraction_cache_key(saturated_key, self.extractor.node_cost,
                                    roots, refine_rounds=refine_rounds)

    def saturated_egraph(self, aig: AIG,
                         store: Optional[ArtifactStore]) -> EGraph:
        """``aig``'s saturated e-graph: phases 1–4 walked against
        ``store``, so the snapshot is restored as a full graph (one get),
        or recomputed and stored again when it is gone or corrupt.  A warm
        run's deferred ``construction.egraph`` calls this on first
        access."""
        ctx = PhaseContext(store=store)
        ctx["aig"] = aig
        ctx["base_key"] = self.cache_key(aig) if store is not None else None
        with gc_paused():
            self._saturation.execute(ctx)
        return ctx["construction"].egraph

    def _phase_limits(self, iterations: int) -> RunnerLimits:
        options = self.options
        return RunnerLimits(
            max_iterations=iterations,
            max_nodes=options.max_nodes,
            time_limit=options.time_limit,
            match_limit=options.match_limit,
            ban_length=options.ban_length,
        )

    def plan(self, aig: AIG, *,
             store: Union[ArtifactStore, str, Path, None] = None,
             assume_present: Tuple[str, ...] = (),
             assume_absent: Tuple[str, ...] = (),
             kinds: Optional[Dict[str, str]] = None) -> PipelinePlan:
        """Predict what :meth:`run` would do, without doing any of it.

        Walks the phase graph computing every ``cache_key`` /
        ``checkpoint_key`` and classifying each phase as warm or cold
        against the store — zero phase execution, zero e-graph
        construction (construction-time class ids are predicted by
        :func:`~repro.core.construct.planned_construction`) and zero
        store mutation (only read-only :meth:`~repro.store.ArtifactStore.probe`
        calls, which never touch objects or LRU mtimes).

        ``assume_present`` / ``assume_absent`` overlay keys a *previous*
        planned job would have written or deleted by the time this one
        runs — the batch planner threads them through a sweep so later
        jobs see their predecessors' warmth.  ``kinds`` is an optional
        pre-read :meth:`~repro.store.ArtifactStore.kinds` snapshot so
        sweep planners pay one index read, not one per job.

        Unlike :meth:`run`, keys are computed even without a store (the
        plan doubles as the key oracle for the CLI); every enabled phase
        then classifies as cold.
        """
        store = _as_store(store) or self.store
        ctx = PhaseContext(store=None)
        ctx["aig"] = aig
        ctx["base_key"] = self.cache_key(aig)
        probe = None
        if store is not None:
            present = frozenset(assume_present)
            absent = frozenset(assume_absent)
            if kinds is None:
                kinds = store.kinds()

            def probe(key: str, kind: str) -> bool:
                if key in absent:
                    return False
                if key in present:
                    return True
                return store.probe(key, expected_kind=kind, kinds=kinds)

        return self._graph.plan(ctx, probe)

    def run(self, aig: AIG, *,
            store: Union[ArtifactStore, str, Path, None] = None
            ) -> BoolEResult:
        """Run the full BoolE flow on an AIG and return the result bundle.

        With a ``store`` (argument or constructor default), the phase
        graph restores the deepest warm phase by content key instead of
        recomputing: the saturated boundary (phases 1–4 plus the NPN
        count, ``result.cache_hit``) and the extraction boundary (phases
        5–6, ``result.extraction_cache_hit``) are each one artifact, and
        interrupted saturation phases resume from their
        ``kind="checkpoint"`` artifact (``result.resumed_phase``); all
        three flags are read off the walk the phase graph took.  A
        fully warm run loads only the extraction artifact and skips cost
        propagation entirely, and a snapshot-warm run extracts on the
        snapshot's node table; either run's ``construction.egraph`` loads
        the saturated graph on first access.  Phases run with the cyclic
        collector paused (:func:`gc_paused`).
        """
        store = _as_store(store) or self.store
        start = time.perf_counter()

        ctx = PhaseContext(store=store)
        ctx["aig"] = aig
        with gc_paused():
            ctx["base_key"] = self.cache_key(aig) if store is not None else None
            walk = self._graph.execute(ctx)

        timings = ctx.timings
        timings["total"] = time.perf_counter() - start
        return BoolEResult(
            source=aig,
            construction=ctx["construction"],
            r1_report=ctx["r1_report"],
            r2_report=ctx["r2_report"],
            fa_report=ctx["fa_report"],
            extraction=ctx.get("extraction"),
            extracted_aig=ctx.get("extracted_aig"),
            fa_blocks=ctx.get("fa_blocks", []),
            num_npn_fas=ctx["num_npn"],
            timings=timings,
            cache_hit=walk.predicts_cache_hit,
            extraction_cache_hit=walk.predicts_extraction_cache_hit,
            resumed_phase=walk.resume_phase,
            _egraph_shape=ctx.get("egraph_shape"),
        )


@contextmanager
def gc_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector, restoring the caller's state on
    exit (also on an exception).

    A job allocates millions of containers, and every collection they
    trigger re-walks all of them to free nothing: job structures are
    acyclic (analyzer rule MEM001 keeps recursive closures out), so
    reference counting alone reclaims them.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _as_store(store: Union[ArtifactStore, str, Path, None]
              ) -> Optional[ArtifactStore]:
    if store is None or isinstance(store, ArtifactStore):
        return store
    return ArtifactStore(store)


class PipelineCache:
    """One :class:`BoolEPipeline` per distinct options, one shared store.

    Keyed on :meth:`BoolEOptions.cache_token`.  Reusing a pipeline reuses
    its parsed rulesets and memoized options/ruleset fingerprints, so the
    batch planner, every batch worker process and the service's front
    door pay that read-only set-up once per options set, not per job.
    """

    def __init__(self, defaults: Optional[BoolEOptions] = None,
                 store: Union[ArtifactStore, str, Path, None] = None
                 ) -> None:
        self.defaults = defaults if defaults is not None else BoolEOptions()
        self.store = _as_store(store)
        self._pipelines: Dict[Tuple[object, ...], BoolEPipeline] = {}

    def pipeline_for(self, options: Optional[BoolEOptions] = None
                     ) -> BoolEPipeline:
        """The cached pipeline for ``options`` (``None`` = the defaults)."""
        resolved = options if options is not None else self.defaults
        token = resolved.cache_token()
        pipeline = self._pipelines.get(token)
        if pipeline is None:
            pipeline = BoolEPipeline(resolved, store=self.store)
            self._pipelines[token] = pipeline
        return pipeline


def run_boole(aig: AIG, options: Optional[BoolEOptions] = None, *,
              store: Union[ArtifactStore, str, Path, None] = None
              ) -> BoolEResult:
    """Convenience wrapper: run the BoolE pipeline with ``options`` on ``aig``."""
    return BoolEPipeline(options, store=store).run(aig)
