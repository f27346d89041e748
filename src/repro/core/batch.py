"""Batch driver: run many netlists through :class:`BoolEPipeline` at once.

``BatchPipeline`` executes a set of :class:`BatchJob` items, applies
per-circuit resource limits (each job may carry its own
:class:`BoolEOptions`), isolates failures (one broken circuit never aborts
the batch), and aggregates everything into a :class:`BatchReport` suitable
for the benchmark harness.

Every run first computes a :class:`BatchPlan` with :func:`plan_batch` —
each job's :class:`~repro.core.phases.PipelinePlan` against the store,
with zero execution — and the plan gives each job exactly one schedule
(see :data:`SCHEDULES`): ``inline`` jobs are fully warm against the store
and are served on the calling thread; ``duplicate`` jobs collapse onto an
earlier job's final content key and carry its result; ``dependent`` jobs
restore a saturated prefix that an earlier ``pool`` job (their leader)
writes, and so start only after it; ``pool`` jobs start right away.  The
service's ``JobService.submit_sweep`` reads the same classification, so a
sweep is scheduled identically in-process and on the fleet.

Two executor backends drain that plan:

* ``"process"`` (default) — a ``ProcessPoolExecutor`` on a **forkserver**
  context, true parallelism for the pure-Python pipeline.  Workers are
  initialised once with the batch's store root and default options, so the
  parsed rulesets and the store handle are built per *worker*, not per
  job.  Every ``pool`` job is submitted up front and each dependent as
  soon as its leader's future resolves (if the leader failed, the
  dependent saturates for itself).  Results travel back as
  :meth:`~repro.core.pipeline.BoolEResult.lightweight` copies — reports,
  counts, the reconstructed netlist and timings, everything except the
  e-graph.  If a worker dies (OOM-killed, segfault), the broken pool is
  rebuilt and the undone jobs are **requeued** (up to ``retries`` times);
  with a store configured they resume from whatever phase artifacts and
  ``kind="checkpoint"`` snapshots the dead worker already persisted.
* ``"serial"`` — run every job on the calling thread in plan order (which
  is topological: a leader always precedes its dependents), reusing one
  pipeline per distinct options object.  The reference backend for
  determinism comparisons and the cheapest for small batches.

Both backends produce bit-identical summaries and aggregates for the same
job list (``tests/test_batch.py`` holds this across ``PYTHONHASHSEED``
values).  Inside a worker the phase graph applies the same warm/cold
logic per *phase*: a job whose snapshot is warm but whose extraction
artifact is not computes only extraction.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..aig import AIG
from ..store import ArtifactStore
from .phases import PipelinePlan
from .pipeline import BoolEOptions, BoolEPipeline, BoolEResult, PipelineCache

__all__ = [
    "SCHEDULES",
    "BatchItemPlan",
    "BatchItemResult",
    "BatchJob",
    "BatchPipeline",
    "BatchPlan",
    "BatchReport",
    "plan_batch",
]

#: The schedule classes :func:`plan_batch` assigns, one per job:
#: ``error`` (planning failed; run anyway so the failure is reported as
#: the job's own item), ``duplicate`` (same final key as an earlier job;
#: its result is cloned), ``inline`` (fully warm against the store right
#: now; served on the calling thread / the service's front door),
#: ``dependent`` (restores the saturated prefix an earlier ``pool`` job
#: writes; starts after that leader) and ``pool`` (starts right away).
SCHEDULES = ("error", "duplicate", "inline", "dependent", "pool")

#: Test-only fault injection: when this environment variable names a path
#: that does not exist yet, the first job run by any process worker
#: creates it and hard-kills the worker (``os._exit``), simulating an
#: OOM-kill mid-batch.  Used by the requeue tests; never set it in
#: production.
_KILL_ENV = "_REPRO_BATCH_KILL_WORKER_ONCE"


@dataclass
class BatchJob:
    """One circuit to push through the pipeline.

    Attributes:
        name: label used in reports (defaults to the AIG's own name).
        aig: the input netlist.
        options: per-circuit pipeline configuration (iteration budgets, node
            and time limits, ...); ``None`` inherits the batch default.
    """

    name: str
    aig: AIG
    options: Optional[BoolEOptions] = None


@dataclass
class BatchItemResult:
    """Outcome of one batch job.

    Attributes:
        name: the job's label.
        ok: True when the pipeline completed without raising.
        runtime: wall-clock seconds spent inside the pipeline for this job.
        summary: the :meth:`BoolEResult.summary` numbers (empty on failure).
        error: the formatted exception when ``ok`` is False.
        result: the :class:`BoolEResult` when ``keep_results=True`` — the
            full object on the serial backend and for store-warm
            inline jobs, a :meth:`~BoolEResult.lightweight` copy (reports,
            counts, reconstructed netlist; no e-graph) from process
            workers.
        cached: True when the saturated e-graph came from the artifact
            store (the job skipped saturation entirely).
        extraction_cached: True when the extraction + reconstruction
            came from a ``kind="extraction"`` artifact (the job skipped
            cost propagation).  Independent of ``cached``: the extraction
            artifact can survive snapshot GC, so a job may re-saturate yet
            still skip extraction.  A fully warm two-level hit is
            ``cached and extraction_cached``.
        resumed_phase: phase the job resumed from a ``kind="checkpoint"``
            artifact, if any (see ``BoolEOptions.checkpoint_every``).
        attempts: 1 for first-try completions; >1 when the job was
            requeued after a broken worker pool.
        deduped_from: name of the job this item shares its execution with
            — the planner collapsed both jobs onto the same final content
            key, ran one and cloned the outcome (``result`` is the *same*
            object, deliberately).
        prefix_shared: True when the planner scheduled this job behind a
            leader that saturates their shared prefix and the job
            completed by restoring that snapshot (extraction-only work).
    """

    name: str
    ok: bool
    runtime: float = 0.0
    summary: Dict[str, float] = field(default_factory=dict)
    error: Optional[str] = None
    result: Optional[BoolEResult] = None
    cached: bool = False
    extraction_cached: bool = False
    resumed_phase: Optional[str] = None
    attempts: int = 1
    deduped_from: Optional[str] = None
    prefix_shared: bool = False


@dataclass
class BatchItemPlan:
    """One job's slot in a :class:`BatchPlan`.

    Attributes:
        name: the job's label.
        plan: the job's :class:`~repro.core.phases.PipelinePlan` (``None``
            when planning itself failed — bad options, broken netlist).
        error: the captured planning failure, if any.
        kind: the job's schedule class, one of :data:`SCHEDULES`.
        leader: for ``duplicate`` the earlier job this one collapses onto,
            for ``dependent`` the earlier job that saturates the shared
            prefix; ``None`` otherwise.
        leader_index: the position of ``leader`` in the plan.
    """

    name: str
    plan: Optional[PipelinePlan] = None
    error: Optional[str] = None
    kind: str = "pool"
    leader: Optional[str] = None
    leader_index: Optional[int] = None

    @property
    def final_key(self) -> Optional[str]:
        return self.plan.final_key if self.plan is not None else None

    @property
    def schedule(self) -> str:
        """Wire form of the schedule (``after:<leader>`` for dependents)."""
        if self.kind == "duplicate":
            return f"duplicate:{self.leader}"
        if self.kind == "dependent":
            return f"after:{self.leader}"
        return self.kind

    def to_json(self) -> Dict:
        return {
            "name": self.name,
            "schedule": self.schedule,
            "error": self.error,
            "plan": self.plan.to_json() if self.plan is not None else None,
        }


@dataclass
class BatchPlan:
    """A whole sweep planned up front — zero phases executed.

    Produced by :meth:`BatchPipeline.plan` (and computed internally by
    every :meth:`BatchPipeline.run`).  Jobs are planned in submission
    order against the store *plus* an overlay of what earlier planned
    jobs will have written, so a sweep sharing one saturated prefix plans
    as one cold leader and N-1 warm dependents.
    """

    items: List[BatchItemPlan] = field(default_factory=list)
    #: Wall-clock seconds the planning pass itself took.
    plan_seconds: float = 0.0

    def item(self, name: str) -> BatchItemPlan:
        for entry in self.items:
            if entry.name == name:
                return entry
        raise KeyError(name)

    @property
    def num_jobs(self) -> int:
        return len(self.items)

    def _count(self, *kinds: str) -> int:
        """Jobs whose schedule class is one of ``kinds``."""
        return sum(1 for item in self.items if item.kind in kinds)

    @property
    def num_warm(self) -> int:
        """Jobs fully warm against the real store (served inline)."""
        return self._count("inline")

    @property
    def num_fully_warm(self) -> int:
        """Jobs predicted to execute no phase body at all."""
        return sum(1 for item in self.items
                   if item.plan is not None and item.plan.is_fully_warm
                   and item.kind != "duplicate")

    @property
    def num_deduped(self) -> int:
        """Jobs collapsed onto an earlier job's identical final key."""
        return self._count("duplicate")

    @property
    def num_prefix_shared(self) -> int:
        """Jobs scheduled behind a leader that saturates their prefix."""
        return self._count("dependent")

    @property
    def num_cold(self) -> int:
        """Jobs that execute (includes prefix dependents)."""
        return self._count("error", "dependent", "pool")

    @property
    def num_saturations(self) -> int:
        """Distinct saturations the sweep will actually run."""
        return sum(1 for item in self.items
                   if item.plan is not None and item.kind != "duplicate"
                   and not item.plan.predicts_cache_hit)

    def summary(self) -> Dict[str, float]:
        return {
            "jobs": self.num_jobs,
            "warm": self.num_warm,
            "fully_warm": self.num_fully_warm,
            "cold": self.num_cold,
            "deduped": self.num_deduped,
            "prefix_shared": self.num_prefix_shared,
            "saturations": self.num_saturations,
            "plan_seconds": round(self.plan_seconds, 6),
        }

    def to_json(self) -> Dict:
        return {
            "summary": self.summary(),
            "jobs": [item.to_json() for item in self.items],
        }


@dataclass
class BatchReport:
    """Aggregated outcome of a whole batch run."""

    items: List[BatchItemResult] = field(default_factory=list)
    wall_time: float = 0.0
    #: The up-front :class:`BatchPlan` this run was scheduled from
    #: (``None`` only for empty batches).
    plan: Optional[BatchPlan] = None

    @property
    def num_deduped(self) -> int:
        """Jobs served by cloning an identical job's result."""
        return sum(1 for item in self.items
                   if item.deduped_from is not None)

    @property
    def num_prefix_shared(self) -> int:
        """Jobs that ran extraction-only behind a shared-prefix leader."""
        return sum(1 for item in self.items if item.prefix_shared)

    @property
    def num_ok(self) -> int:
        """Number of jobs that completed successfully."""
        return sum(1 for item in self.items if item.ok)

    @property
    def num_failed(self) -> int:
        """Number of jobs that raised."""
        return len(self.items) - self.num_ok

    @property
    def num_cached(self) -> int:
        """Number of jobs whose saturation was served from the store."""
        return sum(1 for item in self.items if item.cached)

    @property
    def num_extraction_cached(self) -> int:
        """Number of jobs whose extraction was served from the store.

        Counts extraction hits regardless of the saturation level — a job
        whose snapshot was GC'd re-saturates but still skips cost
        propagation.  Count fully warm two-level hits with
        ``sum(1 for i in report.items if i.cached and i.extraction_cached)``.
        """
        return sum(1 for item in self.items if item.extraction_cached)

    @property
    def num_requeued(self) -> int:
        """Number of jobs that needed more than one attempt."""
        return sum(1 for item in self.items if item.attempts > 1)

    @property
    def total_runtime(self) -> float:
        """Sum of per-circuit pipeline runtimes (CPU-ish seconds)."""
        return sum(item.runtime for item in self.items)

    @property
    def throughput(self) -> float:
        """Completed circuits per wall-clock second."""
        if self.wall_time <= 0:
            return 0.0
        return self.num_ok / self.wall_time

    @property
    def speedup(self) -> float:
        """Ratio of summed circuit runtimes to wall-clock time.

        Degenerate clocks yield 0.0 instead of dividing by zero — a
        merged all-warm report can legitimately have
        ``total_runtime == 0`` (every job served inline from the store).
        """
        if self.wall_time <= 0 or self.total_runtime <= 0:
            return 0.0
        return self.total_runtime / self.wall_time

    @classmethod
    def merge(cls, *reports: "BatchReport") -> "BatchReport":
        """Merge per-host/per-shard reports into one deterministic whole.

        Items are concatenated and sorted by job name (the sort is
        stable, so shard-internal order breaks ties deterministically);
        ``wall_time`` is the max of the inputs, because shards run
        concurrently — per-item runtimes still sum via
        :meth:`total_runtime`.  The merged report carries no
        :class:`BatchPlan` (each shard planned against a different
        store snapshot); plan-derived counters read as zero.
        :meth:`deterministic_aggregate` of the merge equals the
        column-wise sum of the shards' deterministic aggregates.
        """
        items: List[BatchItemResult] = []
        for report in reports:
            items.extend(report.items)
        items.sort(key=lambda item: item.name)
        wall_time = max((report.wall_time for report in reports),
                        default=0.0)
        return cls(items=items, wall_time=wall_time, plan=None)

    def item(self, name: str) -> BatchItemResult:
        """Return the result of the job called ``name``."""
        for entry in self.items:
            if entry.name == name:
                return entry
        raise KeyError(name)

    def aggregate(self) -> Dict[str, float]:
        """Column-wise sums of the successful jobs' summaries."""
        totals: Dict[str, float] = {}
        for entry in self.items:
            if not entry.ok:
                continue
            for key, value in entry.summary.items():
                totals[key] = totals.get(key, 0.0) + value
        return totals

    def deterministic_aggregate(self) -> Dict[str, float]:
        """:meth:`aggregate` minus the wall-clock column.

        Everything left is a pure function of the job list, so two runs —
        any backend, any worker count, any ``PYTHONHASHSEED`` — must agree
        exactly (the cross-backend property test pins this).
        """
        totals = self.aggregate()
        totals.pop("runtime", None)
        return totals

    def failures(self) -> List[Tuple[str, str]]:
        """Return ``(name, error)`` pairs of the failed jobs."""
        return [(item.name, item.error or "unknown error")
                for item in self.items if not item.ok]


# ----------------------------------------------------------------------
# Worker bodies (module-level so the process backend can pickle them)
# ----------------------------------------------------------------------
def _run_one(cache: PipelineCache, job: BatchJob,
             keep_result: bool, lighten: bool) -> BatchItemResult:
    """Run one job, capturing any failure.

    Pipeline construction happens *inside* the capture: a job whose
    options are invalid (a bad refine_rounds, say) must fail alone, never
    abort the batch.
    """
    start = time.perf_counter()
    try:
        pipeline = cache.pipeline_for(job.options)
        result = pipeline.run(job.aig)
    except Exception as error:  # noqa: BLE001 - failure isolation is the point
        return BatchItemResult(
            name=job.name, ok=False,
            runtime=time.perf_counter() - start,
            error=f"{type(error).__name__}: {error}")
    kept = None
    if keep_result:
        kept = result.lightweight() if lighten else result
    return BatchItemResult(
        name=job.name, ok=True,
        runtime=time.perf_counter() - start,
        summary=result.summary(),
        result=kept,
        cached=result.cache_hit,
        extraction_cached=result.extraction_cache_hit,
        resumed_phase=result.resumed_phase)


#: Per-process worker state, filled by :func:`_process_worker_init`.
_WORKER: Dict[str, object] = {}


def _process_worker_init(store_root: Optional[str],
                         default_options: Optional[BoolEOptions],
                         fault_marker: Optional[str]) -> None:
    """Process-pool initializer: one store handle + pre-parsed rulesets.

    Building the default pipeline here moves the shared read-only setup
    (ruleset parsing, fingerprint memoization, store open) off the job
    path: every job the worker ever runs reuses it.  ``fault_marker`` is
    the test-only kill switch, resolved in the *parent* because the
    forkserver daemon freezes its environment when it starts.
    """
    cache = PipelineCache(default_options, store_root)
    cache.pipeline_for(None)
    _WORKER["cache"] = cache
    _WORKER["fault_marker"] = fault_marker


def _maybe_inject_worker_fault() -> None:
    marker = _WORKER.get("fault_marker")
    if not marker:
        return
    try:
        # O_EXCL makes exactly one worker die even when several race.
        handle = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return
    os.close(handle)
    os._exit(17)


def _run_process_job(job: BatchJob, keep_results: bool) -> BatchItemResult:
    """Worker body: run one job against the per-worker pipeline cache."""
    _maybe_inject_worker_fault()
    return _run_one(_WORKER["cache"], job, keep_results, lighten=True)


def plan_batch(jobs: Sequence[BatchJob],
               pipeline_for: Callable[[Optional[BoolEOptions]],
                                      BoolEPipeline],
               store: Optional[ArtifactStore]) -> BatchPlan:
    """Plan a job list with the prefix-sharing store overlay.

    The one place a job's schedule is decided, for
    :meth:`BatchPipeline.run` and the service's
    ``JobService.submit_sweep`` alike: jobs are planned in submission
    order against one read of the store index *plus* an overlay of what
    earlier planned jobs will have written, and each gets one class of
    :data:`SCHEDULES`.  A sweep sharing one saturated prefix plans as one
    ``pool`` leader and N-1 ``dependent`` jobs; jobs collapsing onto the
    same final content key are ``duplicate`` of the first.
    ``pipeline_for`` maps a job's options to a (cached)
    :class:`BoolEPipeline`; the store is only probed read-only.
    """
    started = time.perf_counter()
    batch = BatchPlan()
    kinds = store.kinds() if store is not None else None
    # Keys earlier planned jobs will have written/deleted by the time
    # a later job runs: later plans see their predecessors' warmth.
    overlay_writes: set = set()
    overlay_deletes: set = set()
    # base_key → index of the pool job that will write it first.
    prefix_writer: Dict[str, int] = {}
    seen_final: Dict[str, int] = {}
    for index, job in enumerate(jobs):
        try:
            pipeline = pipeline_for(job.options)
            plan = pipeline.plan(
                job.aig, store=store,
                assume_present=tuple(sorted(overlay_writes)),
                assume_absent=tuple(sorted(overlay_deletes)),
                kinds=kinds)
        except Exception as error:  # noqa: BLE001 - bad options/netlist
            # Run it anyway; the worker-side capture turns the same
            # failure into this job's own error item.
            batch.items.append(BatchItemPlan(
                name=job.name, kind="error",
                error=f"{type(error).__name__}: {error}"))
            continue
        item = BatchItemPlan(name=job.name, plan=plan)
        batch.items.append(item)
        final_key = plan.final_key
        canonical = seen_final.get(final_key) if final_key else None
        if canonical is not None:
            # Same final content key: interchangeable results.  No
            # overlay updates — the canonical job already made them.
            item.kind = "duplicate"
            item.leader, item.leader_index = jobs[canonical].name, canonical
            continue
        if final_key:
            seen_final[final_key] = index
        leader = (prefix_writer.get(plan.base_key)
                  if plan.base_key and plan.predicts_cache_hit else None)
        if leader is not None:
            # Warm only via the overlay: the prefix does not exist yet —
            # its writer must run first.  Checked before warmth, which is
            # judged against the overlay too.
            item.kind = "dependent"
            item.leader, item.leader_index = jobs[leader].name, leader
        elif plan.is_fully_warm:
            item.kind = "inline"
        if store is not None:
            overlay_writes.update(plan.planned_writes)
            overlay_deletes.update(plan.planned_deletes)
            if (plan.base_key and plan.base_key in plan.planned_writes
                    and plan.base_key not in prefix_writer):
                prefix_writer[plan.base_key] = index
    batch.plan_seconds = time.perf_counter() - started
    return batch


class BatchPipeline:
    """Run many AIGs through :class:`BoolEPipeline` concurrently.

    Example::

        jobs = [BatchJob(f"rca{w}", ripple_carry_adder(w)[0]) for w in (4, 8)]
        report = BatchPipeline(max_workers=4).run(jobs)
        assert report.num_failed == 0

    Args:
        options: default :class:`BoolEOptions` for jobs that carry none.
        max_workers: pool size (``None`` = one per CPU, at most one per
            job; ignored by the serial backend).
        executor: ``"process"`` (default) or ``"serial"`` (see module
            docstring).
        keep_results: attach a :class:`BoolEResult` to each item — the
            full object on serial and for inline jobs, a lightweight copy
            (reports + counts + reconstructed netlist, no e-graph) from
            process workers.
        store: artifact store (or its directory path) consulted before
            dispatch; fully warm jobs bypass the pool entirely, and pool
            workers reuse the store per phase.
        retries: times a broken process pool is rebuilt and the undone
            jobs requeued before they are reported as failures.
    """

    def __init__(self, options: Optional[BoolEOptions] = None, *,
                 max_workers: Optional[int] = None,
                 executor: str = "process",
                 keep_results: bool = True,
                 store: Union[ArtifactStore, str, Path, None] = None,
                 retries: int = 1) -> None:
        if executor not in ("serial", "process"):
            raise ValueError(f"unknown executor backend {executor!r}")
        self.options = options
        self.max_workers = max_workers
        self.executor = executor
        self.keep_results = keep_results
        self.retries = max(0, retries)
        if isinstance(store, ArtifactStore):
            self.store_root: Optional[str] = str(store.root)
        elif store is not None:
            self.store_root = str(Path(store).expanduser())
        else:
            self.store_root = None

    # ------------------------------------------------------------------
    def plan(self, jobs: Iterable[Union[BatchJob, AIG]]) -> BatchPlan:
        """Plan the whole sweep up front, executing nothing.

        Every job gets a :class:`~repro.core.phases.PipelinePlan`
        (per-phase keys + warm/cold classifications against the store)
        and a schedule class (see :func:`plan_batch`).  The store is only
        probed read-only — a plan never mutates anything.
        """
        normalized = [self._normalize(job, index)
                      for index, job in enumerate(jobs)]
        cache = PipelineCache(self.options, self.store_root)
        return plan_batch(normalized, cache.pipeline_for, cache.store)

    def run(self, jobs: Iterable[Union[BatchJob, AIG]]) -> BatchReport:
        """Execute every job and return the aggregated report.

        Bare :class:`AIG` instances are wrapped into jobs named after the
        AIG (falling back to their position in the batch).  Item order in
        the report matches submission order regardless of completion order.

        Scheduling follows the plan (:meth:`plan`): inline jobs are served
        on this thread while the pool works on the rest, duplicates share
        their canonical job's result, and each dependent starts once its
        prefix leader has finished, so a shared prefix is saturated
        exactly once per sweep.
        """
        normalized = [self._normalize(job, index)
                      for index, job in enumerate(jobs)]
        report = BatchReport()
        if not normalized:
            return report

        start = time.perf_counter()
        cache = PipelineCache(self.options, self.store_root)
        plan = plan_batch(normalized, cache.pipeline_for, cache.store)
        report.plan = plan
        if self.executor == "serial":
            results = {index: self._run_here(cache, normalized[index])
                       for index, item in enumerate(plan.items)
                       if item.kind != "duplicate"}
        else:
            results = self._run_process(normalized, plan, cache)

        for index, item in enumerate(plan.items):
            if item.kind == "dependent":
                # Only a dependent that really restored its leader's
                # prefix shared it; a failed one, or one whose leader
                # failed, saturated for itself or not at all.
                result = results[index]
                result.prefix_shared = result.ok and result.cached
            elif item.kind == "duplicate":
                source = results[item.leader_index]
                # The result object is shared on purpose (both items
                # carry the one execution's result); only the per-item
                # identity fields are fresh.
                results[index] = dataclasses.replace(
                    source,
                    name=normalized[index].name,
                    summary=dict(source.summary),
                    deduped_from=source.name)

        report.items = [results[index] for index in range(len(normalized))]
        report.wall_time = time.perf_counter() - start
        return report

    # ------------------------------------------------------------------
    def _run_here(self, cache: PipelineCache, job: BatchJob
                  ) -> BatchItemResult:
        """Run one job on the calling thread."""
        return _run_one(cache, job, self.keep_results, lighten=False)

    def _run_process(self, jobs: List[BatchJob], plan: BatchPlan,
                     cache: PipelineCache) -> Dict[int, BatchItemResult]:
        """Drain the plan on a process pool, rebuilding it if it breaks.

        Inline jobs are served on this thread while the first pool works.
        After a pool break everything undone is requeued on a fresh pool:
        a finished leader already warmed the store for its dependents, and
        a failed one just means they saturate for themselves.
        """
        results: Dict[int, BatchItemResult] = {}
        inline = [index for index, item in enumerate(plan.items)
                  if item.kind == "inline"]
        pooled = [index for index, item in enumerate(plan.items)
                  if item.kind in ("error", "dependent", "pool")]
        method = ("forkserver" if "forkserver"
                  in multiprocessing.get_all_start_methods() else "spawn")
        mp_context = multiprocessing.get_context(method)
        attempt = 0
        while True:
            pending = [index for index in pooled if index not in results]
            if not pending:
                break
            if attempt > self.retries:
                for index in pending:
                    results[index] = BatchItemResult(
                        name=jobs[index].name, ok=False,
                        error="worker process pool broke "
                              f"(after {attempt} attempt(s))",
                        attempts=attempt)
                break
            attempt += 1
            workers = self.max_workers or min(len(pending),
                                              os.cpu_count() or 1)
            with ProcessPoolExecutor(
                    max_workers=workers,
                    mp_context=mp_context,
                    initializer=_process_worker_init,
                    initargs=(self.store_root, self.options,
                              os.environ.get(_KILL_ENV))) as pool:
                self._drain(pool, jobs, plan, pending, attempt, results,
                            inline, cache)
            inline = []
        for index in inline:  # nothing went to the pool
            results[index] = self._run_here(cache, jobs[index])
        return results

    def _drain(self, pool: ProcessPoolExecutor, jobs: List[BatchJob],
               plan: BatchPlan, pending: List[int], attempt: int,
               results: Dict[int, BatchItemResult], inline: List[int],
               cache: PipelineCache) -> None:
        """Submit ``pending`` in dependency order and collect the results.

        A dependent whose leader is still pending waits for the leader's
        future; everything else is submitted at once.  Between inline jobs
        (served on this thread) finished futures are collected, so a
        dependent is released as soon as its leader resolves.  Once the pool
        breaks nothing more is submitted: the remaining futures fail fast
        and the caller requeues whatever has no result.
        """
        futures: Dict[Future, int] = {}
        waiting: Dict[int, List[int]] = {}
        broken = False

        def submit(index: int) -> None:
            nonlocal broken
            if broken:
                return
            try:
                futures[pool.submit(_run_process_job, jobs[index],
                                    self.keep_results)] = index
            except BrokenProcessPool:
                broken = True

        def collect(done: Iterable[Future]) -> None:
            nonlocal broken
            for future in done:
                index = futures.pop(future)
                try:
                    item_result = future.result()
                except BrokenProcessPool:
                    broken = True
                    continue
                except Exception as error:  # noqa: BLE001 - pickling etc.
                    item_result = BatchItemResult(
                        name=jobs[index].name, ok=False,
                        error=f"{type(error).__name__}: {error}")
                item_result.attempts = attempt
                results[index] = item_result
                for dependent in waiting.pop(index, []):
                    submit(dependent)

        todo = set(pending)
        for index in pending:
            item = plan.items[index]
            if item.kind == "dependent" and item.leader_index in todo:
                waiting.setdefault(item.leader_index, []).append(index)
            else:
                submit(index)
        for index in inline:
            results[index] = self._run_here(cache, jobs[index])
            # Release the dependents of leaders that finished meanwhile.
            collect(wait(futures, timeout=0).done)
        while futures:
            collect(wait(futures, return_when=FIRST_COMPLETED).done)

    @staticmethod
    def _normalize(job: Union[BatchJob, AIG], index: int) -> BatchJob:
        if isinstance(job, BatchJob):
            return job
        if isinstance(job, AIG):
            return BatchJob(name=job.name or f"job{index}", aig=job)
        raise TypeError(f"cannot interpret batch job {job!r}")
