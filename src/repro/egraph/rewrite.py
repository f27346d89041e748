"""Rewrite rules and their application to an e-graph.

:func:`apply_rules` supports two matching modes:

* **full scan** (``dirty=None``): every rule is matched against the whole
  e-graph, as a freshly-seen ruleset requires;
* **delta matching** (``dirty`` = changed class ids): each rule is matched
  only against the *dirty frontier* — the changed classes expanded upward
  through parent pointers by the rule pattern's height.  Any match that did
  not exist before the changes must root inside that frontier, so the two
  modes reach the same saturated e-graph (checked by ``verify_full=True``).

Explosive rules are tamed by a :class:`BackoffScheduler` (egg's back-off
scheme): a rule whose match count exceeds its current budget is *banned*
for an exponentially growing window of iterations and its matches for the
round are dropped wholesale — never a partial, order-dependent subset.  The
scheduler remembers, per rule, the dirty classes the rule did not get to
search while banned, so delta matching stays complete without ever falling
back to a full rescan.

Matches are int rows from search to union.  Both engines expose the same
two methods, and a round is one loop over them:

* ``search_rows(plan, restrict, limit) -> (rows, slots)`` returns a
  rule's matches as the matcher built them — a tuple per match, root
  class in position 0, each pattern variable's class at ``slots[name]``.
  ``limit`` is the rule's remaining budget: the search stops as soon as
  one match past it exists.
* ``apply_rows(build, rows, slots) -> unions`` instantiates the rule's
  right-hand side per row and unions it with the row's root.

The dense engine never builds a :data:`~repro.egraph.pattern.Subst` on
this path; the object engine's adapter builds one per row.  Only rules
with an ``applier`` or a ``condition`` see a ``Subst``, built from the
row, so their callable signatures are unchanged.

Determinism: matches are generated in a stable order (candidate roots
ascend by e-class insertion seq, e-nodes within a class by
:func:`~repro.egraph.egraph.enode_sort_key`), so a budget check sees the
same matches on every run and under every hash seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import (
    AbstractSet,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from .egraph import EGraph
from .pattern import (
    MatchPlan,
    Pattern,
    Row,
    Slots,
    Subst,
    compile_pattern,
    parse_pattern,
    pattern_vars,
)

__all__ = ["Rewrite", "RuleStats", "BackoffScheduler", "apply_rules"]


@dataclass
class Rewrite:
    """A directed rewrite rule ``lhs => rhs``.

    Attributes:
        name: rule name used in statistics and reports.
        lhs: left-hand-side pattern (searched).
        rhs: right-hand-side pattern (instantiated and unioned with the match).
        bidirectional: if True, the rule is also applied right-to-left.
        condition: optional predicate ``f(egraph, class_id, subst) -> bool``
            filtering matches before application.
        group: free-form tag (e.g. ``"R1"`` / ``"R2-xor"`` / ``"R2-maj"``).
        applier: optional callable ``f(egraph, subst) -> class_id`` used instead
            of instantiating ``rhs``; used by BoolE to insert symmetric
            operators (XOR3/MAJ) with canonically sorted children so that
            congruent discoveries merge without permutation rules.
    """

    name: str
    lhs: Pattern
    rhs: Pattern
    bidirectional: bool = False
    condition: Optional[Callable[[EGraph, int, Subst], bool]] = None
    group: str = ""
    applier: Optional[Callable[[EGraph, Subst], int]] = None
    _plans: Optional[List[Tuple[MatchPlan, Pattern]]] = field(
        default=None, init=False, repr=False, compare=False)

    @classmethod
    def parse(cls, name: str, lhs: str, rhs: str, *, bidirectional: bool = False,
              group: str = "", condition=None) -> "Rewrite":
        """Build a rule from s-expression strings.

        Raises ValueError if the right-hand side uses a pattern variable that
        does not occur on the left-hand side.
        """
        lhs_pattern = parse_pattern(lhs)
        rhs_pattern = parse_pattern(rhs)
        missing = set(pattern_vars(rhs_pattern)) - set(pattern_vars(lhs_pattern))
        if missing:
            raise ValueError(
                f"rule {name}: rhs variables {sorted(missing)} not bound by lhs")
        return cls(name=name, lhs=lhs_pattern, rhs=rhs_pattern,
                   bidirectional=bidirectional, group=group, condition=condition)

    @classmethod
    def with_applier(cls, name: str, lhs: str,
                     applier: Callable[[EGraph, Subst], int], *,
                     group: str = "", condition=None) -> "Rewrite":
        """Build a rule whose right-hand side is a custom applier callable."""
        lhs_pattern = parse_pattern(lhs)
        return cls(name=name, lhs=lhs_pattern, rhs=lhs_pattern, group=group,
                   condition=condition, applier=applier)

    def searchers(self) -> List[Tuple[Pattern, Pattern]]:
        """Return the (search, build) pattern pairs of this rule."""
        pairs = [(self.lhs, self.rhs)]
        if self.bidirectional:
            pairs.append((self.rhs, self.lhs))
        return pairs

    def plans(self) -> List[Tuple[MatchPlan, Pattern]]:
        """Return the compiled ``(match_plan, build_pattern)`` pairs,
        compiled on the first call (callers must not mutate the list)."""
        if self._plans is None:
            self._plans = [(compile_pattern(search), build)
                           for search, build in self.searchers()]
        return self._plans

    def __str__(self) -> str:
        arrow = "<=>" if self.bidirectional else "=>"
        return f"{self.name}: {self.lhs} {arrow} {self.rhs}"


@dataclass
class RuleStats:
    """Per-rule application statistics for one runner iteration.

    ``matches`` counts the matches that survived the rule's ``condition``
    predicate and were actually applied.  ``capped`` is True when the rule
    went over its :class:`BackoffScheduler` budget this round: its whole
    match set was dropped and the rule banned.  ``banned`` is True when the
    rule was skipped outright because a ban from an earlier iteration is
    still active.
    """

    matches: int = 0
    applications: int = 0
    unions: int = 0
    capped: bool = False
    banned: bool = False


@dataclass
class _RuleBackoff:
    """Scheduler state for one rule."""

    times_banned: int = 0
    banned_until: int = -1
    #: Canonical ids of the classes that changed while this rule was not
    #: searching (banned, or its match set was dropped).  ``None`` means the
    #: rule owes a full rescan (it missed a full-scan round).
    pending: Optional[Set[int]] = field(default_factory=set)


#: Factor by which each repeated ban multiplies a rule's budget and its ban
#: window.
BACKOFF_GROWTH = 2


class BackoffScheduler:
    """Egg-style rule back-off.

    Each rule starts with a budget of ``match_limit`` matches per iteration.
    A rule that exceeds its budget is banned for ``ban_length`` iterations
    and its matches for the round are dropped entirely; every subsequent ban
    multiplies both the budget and the ban window by
    :data:`BACKOFF_GROWTH`, so persistently explosive rules run rarely but
    with enough budget to finish when they do.

    Unlike egg, the scheduler also tracks a per-rule **search debt** for the
    delta-matching engine: the dirty classes a rule did not search while
    banned accumulate in its state and are added to its frontier when the ban
    lifts, so no match is ever lost and no full rescan is needed.

    One scheduler instance must be shared across the iterations of a run
    (the :class:`~repro.egraph.runner.Runner` creates one per ``run``) and
    passed to every :func:`apply_rules` call.
    """

    def __init__(self, match_limit: int = 1000, ban_length: int = 5) -> None:
        if match_limit <= 0:
            raise ValueError("match_limit must be positive")
        if ban_length <= 0:
            raise ValueError("ban_length must be positive")
        self.match_limit = match_limit
        self.ban_length = ban_length
        self.iteration = -1
        self._states: Dict[str, _RuleBackoff] = {}

    def _state(self, name: str) -> _RuleBackoff:
        state = self._states.get(name)
        if state is None:
            state = self._states[name] = _RuleBackoff()
        return state

    def begin_iteration(self) -> int:
        """Advance the scheduler clock; returns the new iteration index."""
        self.iteration += 1
        return self.iteration

    def is_banned(self, name: str) -> bool:
        """True while a previously issued ban is still active."""
        state = self._states.get(name)
        return state is not None and self.iteration < state.banned_until

    def budget(self, name: str) -> int:
        """Current per-iteration match budget of a rule."""
        state = self._states.get(name)
        times = 0 if state is None else state.times_banned
        return self.match_limit * BACKOFF_GROWTH ** times

    def ban(self, name: str, searched: Optional[Iterable[int]]) -> None:
        """Ban a rule that exceeded its budget this iteration.

        ``searched`` is the frontier the rule was searching when it blew the
        budget (``None`` = the whole e-graph); it becomes search debt.
        """
        state = self._state(name)
        window = self.ban_length * BACKOFF_GROWTH ** state.times_banned
        state.banned_until = self.iteration + 1 + window
        state.times_banned += 1
        self.defer(name, searched)

    def defer(self, name: str, dirty: Optional[Iterable[int]]) -> None:
        """Record classes a rule failed to search this iteration."""
        state = self._state(name)
        if dirty is None:
            state.pending = None
        elif state.pending is not None:
            state.pending.update(dirty)

    def frontier_for(self, name: str,
                     dirty: Optional[AbstractSet[int]]
                     ) -> Optional[AbstractSet[int]]:
        """The frontier a rule must search: current dirt plus its debt.

        Returns ``dirty`` itself (same object) when the rule has no debt, a
        combined set when it does, and ``None`` when either the current round
        or the debt requires a full scan.
        """
        state = self._states.get(name)
        if state is None or (state.pending is not None and not state.pending):
            return dirty
        if dirty is None or state.pending is None:
            return None
        combined = set(dirty)
        combined.update(state.pending)
        return combined

    def clear_debt(self, name: str) -> None:
        """Mark a rule fully caught up (its whole frontier was searched)."""
        state = self._states.get(name)
        if state is not None:
            state.pending = set()

    def has_debt(self, name: str) -> bool:
        """True if the rule still owes a (partial or full) rescan."""
        state = self._states.get(name)
        return state is not None and (state.pending is None
                                      or bool(state.pending))

    def banned_rules(self) -> List[str]:
        """Names of the currently banned rules (sorted)."""
        return sorted(name for name in self._states if self.is_banned(name))

    def outstanding(self) -> bool:
        """True while any rule is banned or owes a rescan.

        A saturation driver must not report saturation while this holds:
        the banned rules may still produce unions.
        """
        return any(self.is_banned(name) or self.has_debt(name)
                   for name in self._states)

    def unban_all(self) -> None:
        """Lift every active ban (search debts are kept).

        Called by the runner when an iteration produced no unions but rules
        are still banned: the grown budgets are retained, so each unbanned
        rule retries with a doubled allowance and eventually gets through.
        """
        for state in self._states.values():
            state.banned_until = -1

    def stats(self) -> Dict[str, int]:
        """Times each rule was banned (rules never banned are omitted)."""
        return {name: state.times_banned
                for name, state in sorted(self._states.items())
                if state.times_banned}

    # ------------------------------------------------------------------
    # Snapshot support (repro.store)
    # ------------------------------------------------------------------
    def export_state(self) -> Dict[str, object]:
        """Return the full scheduler state as plain Python containers.

        Per-rule search debts are sets of canonical e-class ids; they are
        exported sorted (``None`` = full-rescan debt) so snapshots do not
        depend on ``PYTHONHASHSEED``.
        """
        return {
            "match_limit": self.match_limit,
            "ban_length": self.ban_length,
            "iteration": self.iteration,
            "rules": {
                name: [state.times_banned, state.banned_until,
                       None if state.pending is None else sorted(state.pending)]
                for name, state in sorted(self._states.items())
            },
        }

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "BackoffScheduler":
        """Rebuild a scheduler from :meth:`export_state` output.

        A resumed saturation run continues with exactly the bans, budgets
        and search debts the checkpointed run had accumulated.
        """
        scheduler = cls(state["match_limit"], state["ban_length"])
        scheduler.iteration = state["iteration"]
        for name, (times_banned, banned_until, pending) in state["rules"].items():
            scheduler._states[name] = _RuleBackoff(
                times_banned=times_banned,
                banned_until=banned_until,
                pending=None if pending is None else set(pending))
        return scheduler


class _DirtyFrontier:
    """Lazily expands a dirty class set upward through parent pointers.

    ``at(height)`` returns the dirty classes together with every ancestor
    reachable in at most ``height`` parent steps — the only classes that can
    root a match of a height-``height`` pattern that did not exist before the
    dirty classes changed.  Levels are computed once and shared by all rules.

    When a level grows to cover most of the e-graph, ``at`` returns ``None``
    ("scan everything") for that height and above: an unrestricted scan is
    cheaper than intersecting near-total candidate sets, and further parent
    walks would be wasted work.
    """

    def __init__(self, egraph: EGraph, dirty: Iterable[int], *,
                 exact: bool = False) -> None:
        self._egraph = egraph
        self._exact = exact
        base = {egraph.find(class_id) for class_id in dirty}
        self._levels: List[Set[int]] = [base]
        self._fresh: List[Set[int]] = [base]
        self._full_from: Optional[int] = (
            0 if self._covers_most(base) else None)

    def _covers_most(self, classes: Set[int]) -> bool:
        if self._exact:
            return False
        return 4 * len(classes) >= 3 * self._egraph.num_classes

    def at(self, height: int) -> Optional[Set[int]]:
        if self._full_from is not None and height >= self._full_from:
            return None
        while len(self._levels) <= height:
            parents: Set[int] = set()
            for class_id in self._fresh[-1]:
                parents |= self._egraph.parent_classes(class_id)
            fresh = parents - self._levels[-1]
            self._levels.append(self._levels[-1] | fresh)
            self._fresh.append(fresh)
            if self._covers_most(self._levels[-1]):
                self._full_from = len(self._levels) - 1
                return None
        return self._levels[height]


def _substs(rows: Iterable[Row], slots: Slots) -> Iterator[Subst]:
    """One :data:`Subst` per row, for appliers and conditions."""
    names = tuple(slots)
    if len(names) < 2:  # itemgetter returns a tuple only for two or more
        for row in rows:
            yield {name: row[slot] for name, slot in slots.items()}
        return
    pick = itemgetter(*slots.values())
    for row in rows:
        yield dict(zip(names, pick(row)))


def _passing(egraph: EGraph, rule: Rewrite, rows: List[Row],
             slots: Slots) -> List[Row]:
    """The rows of ``rule``'s matches that its ``condition`` accepts."""
    return [row for row, subst in zip(rows, _substs(rows, slots))
            if rule.condition(egraph, row[0], subst)]


def _apply(egraph: EGraph, rule: Rewrite, build: Pattern, rows: List[Row],
           slots: Slots) -> int:
    """Apply one rule's rows in order; returns the number of unions."""
    if rule.applier is None:
        return egraph.apply_rows(build, rows, slots)
    applier = rule.applier
    union = egraph.union
    unions = 0
    for row, subst in zip(rows, _substs(rows, slots)):
        if union(row[0], applier(egraph, subst)):
            unions += 1
    return unions


def apply_rules(egraph: EGraph, rules: Sequence[Rewrite],
                dirty: Optional[Iterable[int]] = None,
                verify_full: bool = False,
                scheduler: Optional[BackoffScheduler] = None
                ) -> Dict[str, RuleStats]:
    """Apply one round of every rule to the e-graph.

    All rules are matched first (against a congruence-closed e-graph), then
    all instantiations and unions are performed, then the e-graph is rebuilt.
    Returns per-rule statistics.

    Args:
        egraph: the target e-graph (rebuilt first if needed).
        rules: the rules to match and apply.
        scheduler: shared :class:`BackoffScheduler` driving rule back-off
            across iterations.  Banned rules are skipped; a rule exceeding
            its budget this round has its matches dropped wholesale and is
            banned, with the unsearched frontier recorded as debt.  The
            budget counts matches that pass the rule's ``condition``.
            ``None`` applies every match.
        dirty: canonical ids of the classes changed since the previous round
            (see :meth:`EGraph.take_dirty`).  ``None`` requests a full scan;
            an iterable restricts matching to the dirty frontier.
        verify_full: debug flag — after a delta round, re-match every rule
            against the whole e-graph and raise ``AssertionError`` if the
            full scan still finds a union the delta pass missed.  Rules with
            scheduler debt are exempt (their missing matches are accounted
            for).  The verification pass may insert (already equivalent)
            right-hand-side nodes, so it is for debugging only.
    """
    if not egraph.is_clean:
        egraph.rebuild()
    if scheduler is not None:
        scheduler.begin_iteration()
    dirty_set: Optional[AbstractSet[int]] = (
        None if dirty is None else {egraph.find(class_id) for class_id in dirty})
    shared_frontier = (None if dirty_set is None
                       else _DirtyFrontier(egraph, dirty_set))

    stats: Dict[str, RuleStats] = {}
    planned: List[Tuple[Rewrite, Pattern, List[Row], Slots]] = []
    for rule in rules:
        rule_stats = stats.setdefault(rule.name, RuleStats())
        if scheduler is not None and scheduler.is_banned(rule.name):
            rule_stats.banned = True
            scheduler.defer(rule.name, dirty_set)
            continue

        if scheduler is None:
            rule_dirty = dirty_set
            frontier = shared_frontier
            budget = None
        else:
            rule_dirty = scheduler.frontier_for(rule.name, dirty_set)
            if rule_dirty is None:
                frontier = None
            elif rule_dirty is dirty_set:
                frontier = shared_frontier
            else:  # debt from banned iterations widens this rule's frontier
                frontier = _DirtyFrontier(egraph, rule_dirty)
            budget = scheduler.budget(rule.name)

        # Search each plan for at most the rule's remaining allowance:
        # one match past it is enough to know the rule is over.
        found: List[Tuple[Pattern, List[Row], Slots]] = []
        count = 0
        over = False
        for plan, build in rule.plans():
            restrict = None if frontier is None else frontier.at(plan.height)
            if rule.condition is None:
                rows, slots = egraph.search_rows(
                    plan, restrict, None if budget is None else budget - count)
            else:  # the allowance counts matches that pass the condition
                rows, slots = egraph.search_rows(plan, restrict)
                rows = _passing(egraph, rule, rows, slots)
            count += len(rows)
            if budget is not None and count > budget:
                over = True
                break
            found.append((build, rows, slots))
        if over:
            # Egg-style back-off: applying a partial match set would make the
            # result depend on which matches happened to come first, so drop
            # them all, ban the rule, and remember what it failed to search.
            rule_stats.capped = True
            scheduler.ban(rule.name, rule_dirty)
            continue
        if scheduler is not None:
            scheduler.clear_debt(rule.name)
        rule_stats.matches += count
        planned.extend((rule, build, rows, slots)
                       for build, rows, slots in found if rows)

    for rule, build, rows, slots in planned:
        rule_stats = stats[rule.name]
        rule_stats.applications += len(rows)
        rule_stats.unions += _apply(egraph, rule, build, rows, slots)

    egraph.rebuild()

    if verify_full and shared_frontier is not None:
        _verify_delta_complete(egraph, rules, scheduler)
    return stats


def _verify_delta_complete(egraph: EGraph, rules: Sequence[Rewrite],
                           scheduler: Optional[BackoffScheduler]) -> None:
    """Assert that a full scan finds no union the delta pass missed.

    Matches rooted in the *currently* dirty frontier are excluded: they were
    created by this round's own apply phase and will be searched next round
    (a full-scan engine defers them to the next iteration in exactly the
    same way).  Rules the scheduler is holding back — banned now, or still
    owing a rescan — are also excluded: their missing matches are recorded
    as search debt and will be found when the ban lifts.  Anything else that
    still produces a union is a genuine delta-matching hole.
    """
    # Gather first, mutate after: the frontier's canonical ids and the
    # full-scan search must not observe the verification's own unions.
    pending = _DirtyFrontier(egraph, egraph.peek_dirty(), exact=True)
    suspects: List[Tuple[Rewrite, Pattern, List[Row], Slots]] = []
    for rule in rules:
        if scheduler is not None and (scheduler.is_banned(rule.name)
                                      or scheduler.has_debt(rule.name)):
            continue
        for plan, build in rule.plans():
            rows, slots = egraph.search_rows(plan)
            if rule.condition is not None:
                rows = _passing(egraph, rule, rows, slots)
            # pending: this round created it, next round sees it
            fresh = pending.at(plan.height)
            rows = [row for row in rows if row[0] not in fresh]
            if rows:
                suspects.append((rule, build, rows, slots))
    missed = [rule.name for rule, build, rows, slots in suspects
              if _apply(egraph, rule, build, rows, slots)]
    egraph.rebuild()
    if missed:
        raise AssertionError(
            "delta e-matching missed matches of rules: "
            + ", ".join(sorted(set(missed))))
