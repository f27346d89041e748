"""Saturation runner: applies rewrite rules until convergence or limits.

The runner drives :func:`~repro.egraph.rewrite.apply_rules` in *incremental*
mode: iteration 0 matches every rule against the whole e-graph (the ruleset
is new to this run), and each later iteration re-matches only against the
dirty frontier — the classes changed by the previous iteration, expanded
upward by each rule pattern's height.  Two test oracles remain as
:class:`Runner` arguments: ``incremental=False`` runs a full scan every
iteration, and ``debug_check_full=True`` asserts (expensively) after every
delta iteration that a full scan would not have found more unions.

Explosive rules are governed by a :class:`~repro.egraph.rewrite
.BackoffScheduler` built from :class:`RunnerLimits`: a rule exceeding its
match budget is banned for exponentially growing windows instead of having
an arbitrary subset of its matches applied, which keeps saturation
deterministic and lets delta matching carry each banned rule's unsearched
frontier forward as debt (no full-rescan fallback).  The runner refuses to
report saturation while bans or debts are outstanding — it lifts the bans
and keeps iterating; a run that exhausts its iteration budget in that state
stops with :data:`StopReason.RULES_BANNED`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from .egraph import EGraph
from .rewrite import BackoffScheduler, Rewrite, RuleStats, apply_rules

__all__ = ["RunnerLimits", "IterationReport", "RunnerReport", "Runner",
           "RunnerCheckpoint", "StopReason"]


class StopReason:
    """Why a saturation run stopped."""

    SATURATED = "saturated"
    ITERATION_LIMIT = "iteration_limit"
    NODE_LIMIT = "node_limit"
    CLASS_LIMIT = "class_limit"
    TIME_LIMIT = "time_limit"
    #: The iteration budget ran out while the back-off scheduler still had
    #: banned rules or unsearched frontier debt: the e-graph is *not*
    #: saturated, more iterations would have found more matches.
    RULES_BANNED = "rules_banned"


@dataclass
class RunnerLimits:
    """Resource limits for a saturation run.

    Attributes:
        max_iterations: maximum number of rewrite iterations.
        max_nodes: stop when the e-graph exceeds this many e-nodes.
        max_classes: stop when the e-graph exceeds this many e-classes.
        time_limit: wall-clock budget in seconds.
        match_limit: initial per-rule match budget per iteration for the
            back-off scheduler (egg's ``match_limit``).  A rule exceeding it
            is banned for ``ban_length`` iterations; each repeated ban
            doubles both the budget and the window.  ``None`` disables
            back-off entirely (every match is always applied).
        ban_length: initial ban window, in iterations.
    """

    max_iterations: int = 10
    max_nodes: int = 200_000
    max_classes: int = 100_000
    time_limit: float = 120.0
    match_limit: Optional[int] = 20_000
    ban_length: int = 2

    def build_scheduler(self) -> Optional[BackoffScheduler]:
        """Create the back-off scheduler for one run (fresh state each run)."""
        if self.match_limit is not None:
            return BackoffScheduler(self.match_limit, self.ban_length)
        return None


@dataclass
class IterationReport:
    """Statistics for a single saturation iteration."""

    index: int
    num_classes: int
    num_nodes: int
    unions: int
    elapsed: float
    rule_stats: Dict[str, RuleStats] = field(default_factory=dict)
    #: Number of dirty-frontier classes matched against (None = full scan).
    frontier_size: Optional[int] = None
    #: Rules skipped this iteration because a back-off ban was active.
    banned_rules: List[str] = field(default_factory=list)


@dataclass
class RunnerReport:
    """Summary of a saturation run."""

    stop_reason: str
    iterations: List[IterationReport] = field(default_factory=list)
    total_time: float = 0.0
    #: Times each rule was banned by the back-off scheduler over the run
    #: (rules never banned are omitted).
    scheduler_stats: Dict[str, int] = field(default_factory=dict)
    #: Iteration index this run resumed from (``None`` for uninterrupted
    #: runs; the latest resume wins when a run is resumed repeatedly).
    #: In-memory observability only — deliberately not serialized, so a
    #: resumed run still writes byte-identical snapshot payload structure.
    resumed_at: Optional[int] = None
    #: E-nodes scanned by the e-matcher over the run (engine-specific
    #: metric: the dense engine counts operator-span scans, the reference
    #: engine full-class scans).  In-memory observability only.
    ematch_ops: int = 0

    def ematch_ops_per_second(self) -> float:
        """Effective e-matching rate of the run (0.0 for an empty run)."""
        if self.total_time <= 0.0:
            return 0.0
        return self.ematch_ops / self.total_time

    @property
    def num_iterations(self) -> int:
        """Number of completed iterations."""
        return len(self.iterations)

    @property
    def saturated(self) -> bool:
        """True if the run stopped because no rule produced a new union."""
        return self.stop_reason == StopReason.SATURATED

    def total_unions(self) -> int:
        """Total number of e-class merges performed by the run."""
        return sum(report.unions for report in self.iterations)

    def total_bans(self) -> int:
        """Total number of back-off bans issued over the run."""
        return sum(self.scheduler_stats.values())


@dataclass
class RunnerCheckpoint:
    """A resumable snapshot of a saturation run between two iterations.

    Produced by :meth:`Runner.run` (``checkpoint_every``/``on_checkpoint``)
    after an iteration's effects — including scheduler unbans and the dirty
    frontier hand-off — have fully settled, so resuming replays the exact
    remainder of the interrupted run.  The checkpoint *aliases* live runner
    state (the report, the scheduler): persist it inside the callback (see
    :func:`repro.store.codec.save_checkpoint`) before the run continues.

    Attributes:
        iteration: index of the next iteration to execute.
        dirty: the delta-matching frontier for that iteration (``None`` =
            full scan / non-incremental run).
        limits: the run's resource limits.
        incremental: effective incremental flag of the run.
        debug_check_full: the run's cross-check flag (the verification pass
            may insert e-nodes, so it must survive a resume).
        report: the report accumulated so far (mutated as the run goes on).
        scheduler: the live back-off scheduler (``None`` when disabled).
        elapsed: wall-clock seconds consumed before the checkpoint; resumed
            runs count it against ``limits.time_limit``.
    """

    iteration: int
    dirty: Optional[List[int]]
    limits: RunnerLimits
    incremental: bool
    debug_check_full: bool
    report: RunnerReport
    scheduler: Optional[BackoffScheduler]
    elapsed: float = 0.0


class Runner:
    """Equality-saturation driver, analogous to egg's ``Runner``.

    Example::

        runner = Runner(limits=RunnerLimits(max_iterations=5))
        report = runner.run(egraph, rules)

    Args:
        limits: resource limits (defaults to :class:`RunnerLimits`).
        incremental: after the initial full-scan iteration, match rules only
            against the dirty frontier left by the previous iteration.
            Automatically disabled when any rule carries a ``condition``
            predicate: a condition may read evolving e-graph state, so a
            match rejected once must be re-evaluated on every iteration,
            which only full scans guarantee.
        debug_check_full: assert after every delta iteration that a full
            scan finds no additional unions (slow; for tests/debugging).
    """

    def __init__(self, limits: Optional[RunnerLimits] = None, *,
                 incremental: bool = True,
                 debug_check_full: bool = False) -> None:
        self.limits = limits or RunnerLimits()
        self.incremental = incremental
        self.debug_check_full = debug_check_full

    @classmethod
    def from_checkpoint(cls, checkpoint: RunnerCheckpoint) -> "Runner":
        """Build a runner configured exactly like the checkpointed run."""
        return cls(checkpoint.limits,
                   incremental=checkpoint.incremental,
                   debug_check_full=checkpoint.debug_check_full)

    def run(self, egraph: EGraph, rules: Sequence[Rewrite], *,
            checkpoint_every: Optional[int] = None,
            on_checkpoint: Optional[Callable[[RunnerCheckpoint], None]] = None,
            resume_from: Optional[RunnerCheckpoint] = None) -> RunnerReport:
        """Apply ``rules`` to ``egraph`` until saturation or a limit is hit.

        Args:
            checkpoint_every: invoke ``on_checkpoint`` after every this-many
                completed iterations (counted from iteration 0 of the run,
                so resumed runs keep the original cadence).  Checkpoints are
                only taken when the run is about to continue — never after a
                stop decision — so a restore always has work left to do.
            on_checkpoint: callback receiving a :class:`RunnerCheckpoint`
                that aliases live state; serialize it before returning.
            resume_from: continue a checkpointed run instead of starting
                fresh: the loop picks up at ``checkpoint.iteration`` with
                the checkpoint's dirty frontier, scheduler and report, and
                produces a final e-graph bit-identical to the uninterrupted
                run (``tests/test_store.py`` holds this property across
                hash seeds and schedulers).
        """
        limits = self.limits
        ops_start = getattr(egraph, "match_ops", 0)
        if resume_from is not None:
            incremental = resume_from.incremental
            scheduler = resume_from.scheduler
            report = resume_from.report
            report.resumed_at = resume_from.iteration
            dirty = resume_from.dirty
            first_iteration = resume_from.iteration
            # The checkpointed run already paid this much wall time; count
            # it against the time budget of the resumed run.
            start = time.perf_counter() - resume_from.elapsed
            egraph.rebuild()  # no-op on a well-formed checkpoint
        else:
            incremental = (self.incremental
                           and all(rule.condition is None for rule in rules))
            scheduler = limits.build_scheduler()
            report = RunnerReport(stop_reason=StopReason.ITERATION_LIMIT)
            start = time.perf_counter()
            egraph.rebuild()
            # Discard dirt accumulated before this run: iteration 0 scans
            # the whole e-graph anyway, so pre-existing dirt would only
            # bloat the frontier of iteration 1.
            egraph.take_dirty()
            dirty = None
            first_iteration = 0
        for iteration in range(first_iteration, limits.max_iterations):
            if time.perf_counter() - start > limits.time_limit:
                report.stop_reason = StopReason.TIME_LIMIT
                break
            iter_start = time.perf_counter()
            frontier_size = None if dirty is None else len(dirty)
            stats = apply_rules(egraph, rules,
                                dirty=dirty,
                                verify_full=self.debug_check_full,
                                scheduler=scheduler)
            if incremental:
                dirty = egraph.take_dirty()
            unions = sum(stat.unions for stat in stats.values())
            num_classes, num_nodes = egraph.total_size()
            report.iterations.append(IterationReport(
                index=iteration,
                num_classes=num_classes,
                num_nodes=num_nodes,
                unions=unions,
                elapsed=time.perf_counter() - iter_start,
                rule_stats=stats,
                frontier_size=frontier_size,
                banned_rules=sorted(name for name, stat in stats.items()
                                    if stat.banned or stat.capped),
            ))
            if unions == 0:
                if scheduler is None or not scheduler.outstanding():
                    report.stop_reason = StopReason.SATURATED
                    break
                # Quiet only because rules are held back — lift the bans
                # (budgets stay grown) and keep going; the unbanned rules
                # re-search their recorded debt next iteration.
                scheduler.unban_all()
            elif num_nodes > limits.max_nodes:
                report.stop_reason = StopReason.NODE_LIMIT
                break
            elif num_classes > limits.max_classes:
                report.stop_reason = StopReason.CLASS_LIMIT
                break
            # The run continues past this iteration: every side effect —
            # frontier hand-off, scheduler unbans — has settled, so this is
            # the one safe place to checkpoint.
            if (checkpoint_every is not None and on_checkpoint is not None
                    and (iteration + 1) % checkpoint_every == 0
                    and iteration + 1 < limits.max_iterations):
                on_checkpoint(RunnerCheckpoint(
                    iteration=iteration + 1,
                    dirty=None if dirty is None else list(dirty),
                    limits=limits,
                    incremental=incremental,
                    debug_check_full=self.debug_check_full,
                    report=report,
                    scheduler=scheduler,
                    elapsed=time.perf_counter() - start,
                ))
        if (report.stop_reason == StopReason.ITERATION_LIMIT
                and scheduler is not None and scheduler.outstanding()):
            report.stop_reason = StopReason.RULES_BANNED
        if scheduler is not None:
            report.scheduler_stats = scheduler.stats()
        report.total_time = time.perf_counter() - start
        report.ematch_ops += getattr(egraph, "match_ops", 0) - ops_start
        return report
