"""Tests for the incremental (delta) e-matching engine.

The key property: a saturation run that matches only against the dirty
frontier after iteration 0 must converge to the same e-graph as a run that
re-scans everything every iteration.  This is exercised on random AIGs with
the debug cross-check enabled (which asserts after every delta iteration
that a full scan finds nothing more).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aig import AIG, lit_not
from repro.core.construct import aig_to_egraph
from repro.core.rules_basic import basic_rules
from repro.core.rules_xor_maj import identification_rules
from repro.egraph import (
    BackoffScheduler,
    EGraph,
    Op,
    Rewrite,
    Runner,
    RunnerLimits,
    StopReason,
    apply_rules,
    compile_pattern,
    parse_pattern,
)


@st.composite
def random_aigs(draw):
    """Generate a small random AIG: a DAG of AND gates over negated fanins."""
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


def _class_partition(construction):
    """The grouping of AIG variables into e-classes (canonical-id agnostic)."""
    egraph = construction.egraph
    groups = {}
    for var, class_id in construction.class_of_var.items():
        groups.setdefault(egraph.find(class_id), set()).add(var)
    return {frozenset(group) for group in groups.values()}


def _saturate(aig, incremental, rules, debug_check=False):
    construction = aig_to_egraph(aig)
    limits = RunnerLimits(max_iterations=8, max_nodes=50_000,
                          match_limit=None)
    runner = Runner(limits, incremental=incremental,
                    debug_check_full=debug_check)
    report = runner.run(construction.egraph, rules)
    return construction, report


class TestDeltaMatchingEquivalence:
    @given(random_aigs())
    @settings(max_examples=20, deadline=None)
    def test_delta_equals_full_scan_on_random_aigs(self, aig):
        """Delta matching reaches the same saturated e-graph as full scans."""
        rules = basic_rules()
        full_con, _ = _saturate(aig, incremental=False, rules=rules)
        delta_con, _ = _saturate(aig, incremental=True, rules=rules,
                                 debug_check=True)
        assert full_con.egraph.num_classes == delta_con.egraph.num_classes
        assert full_con.egraph.num_nodes == delta_con.egraph.num_nodes
        assert _class_partition(full_con) == _class_partition(delta_con)

    @given(random_aigs())
    @settings(max_examples=10, deadline=None)
    def test_delta_equals_full_scan_with_identification_rules(self, aig):
        """The deeper R2 patterns also saturate identically under delta."""
        rules = basic_rules() + identification_rules()
        full_con, _ = _saturate(aig, incremental=False, rules=rules)
        delta_con, _ = _saturate(aig, incremental=True, rules=rules,
                                 debug_check=True)
        assert full_con.egraph.num_classes == delta_con.egraph.num_classes
        assert full_con.egraph.num_nodes == delta_con.egraph.num_nodes
        assert _class_partition(full_con) == _class_partition(delta_con)

    def test_delta_round_finds_matches_of_new_nodes(self):
        """apply_rules with an explicit dirty set only rescans the frontier."""
        eg = EGraph()
        eg.add_expr(("~", ("~", "a")))
        rule = Rewrite.parse("nn", "(~ (~ ?x))", "?x")
        apply_rules(eg, [rule])  # full scan saturates
        eg.take_dirty()
        stats = apply_rules(eg, [rule], dirty=set())
        assert stats["nn"].matches == 0  # empty frontier, nothing rescanned

        double = eg.add_expr(("~", ("~", "b")))
        dirty = eg.take_dirty()
        stats = apply_rules(eg, [rule], dirty=dirty, verify_full=True)
        assert stats["nn"].matches == 1
        assert eg.find(double) == eg.find(eg.var("b"))

    def test_union_dirties_parents_for_nonlinear_patterns(self):
        """A union below an existing node must re-enable matches above it."""
        eg = EGraph()
        a, b = eg.var("a"), eg.var("b")
        root = eg.add_term(Op.AND, a, b)
        rule = Rewrite.parse("idem", "(& ?x ?x)", "?x")
        apply_rules(eg, [rule])  # no match yet: a != b
        eg.take_dirty()
        eg.union(a, b)
        eg.rebuild()
        stats = apply_rules(eg, [rule], dirty=eg.take_dirty(),
                            verify_full=True)
        assert stats["idem"].unions == 1
        assert eg.find(root) == eg.find(a)


class TestMatchPlans:
    def test_plan_shape(self):
        plan = compile_pattern(parse_pattern("(| (& ?a ?b) (& (~ ?a) ?c))"))
        assert plan.root_op == Op.OR
        assert plan.height == 3  # ?a under the ~ under the & under the |
        assert plan.op_min_depth[Op.OR] == 0
        assert plan.op_min_depth[Op.AND] == 1
        assert plan.op_min_depth[Op.NOT] == 2

    def test_plan_skips_rule_with_absent_operator(self):
        eg = EGraph()
        eg.add_expr(("&", "a", "b"))
        plan = compile_pattern(parse_pattern("(^ ?x ?y)"))
        assert not list(plan.search(eg))
        assert plan.candidate_roots(eg) == []

    def test_candidate_classes_survive_unions(self):
        eg = EGraph()
        a, b, c = eg.var("a"), eg.var("b"), eg.var("c")
        and1 = eg.add_term(Op.AND, a, b)
        and2 = eg.add_term(Op.AND, a, c)
        eg.union(and1, and2)
        eg.rebuild()
        candidates = eg.candidate_classes(Op.AND)
        assert candidates == {eg.find(and1)}

    def test_stats_count_and_cap_after_condition(self):
        """A back-off budget counts the matches that pass the rule's
        ``condition``: matches the condition rejects never push a rule over
        its budget, while unconditioned matches beyond it get the whole
        set dropped and the rule banned."""
        def graph():
            eg = EGraph()
            eg.add_expr(("&", "a", "b"))
            eg.add_expr(("&", "c", "d"))
            return eg

        eg = graph()
        never = Rewrite.parse("never", "(& ?x ?y)", "(& ?y ?x)",
                              condition=lambda *_: False)
        stats = apply_rules(eg, [never], scheduler=BackoffScheduler(1))
        assert stats["never"].matches == 0  # condition filtered, not capped
        assert not stats["never"].capped

        eg = graph()
        a = eg.var("a")
        only_a = Rewrite.parse(
            "only-a", "(& ?x ?y)", "(& ?y ?x)",
            condition=lambda egraph, root, subst: subst["?x"] == a)
        stats = apply_rules(eg, [only_a], scheduler=BackoffScheduler(1))
        assert stats["only-a"].matches == 1  # 2 raw matches, 1 passes
        assert stats["only-a"].applications == 1
        assert not stats["only-a"].capped

        eg = graph()
        comm = Rewrite.parse("comm", "(& ?x ?y)", "(& ?y ?x)")
        scheduler = BackoffScheduler(1)
        stats = apply_rules(eg, [comm], scheduler=scheduler)
        assert stats["comm"].capped
        assert stats["comm"].matches == stats["comm"].applications == 0
        assert scheduler.is_banned("comm")


class TestRunnerStopReasons:
    def _explosive_rules(self):
        return [Rewrite.parse("assoc", "(& (& ?a ?b) ?c)", "(& ?a (& ?b ?c))",
                              bidirectional=True),
                Rewrite.parse("comm", "(& ?a ?b)", "(& ?b ?a)")]

    def _chain(self, eg, depth=4):
        expr = "x0"
        for i in range(1, depth + 1):
            expr = ("&", expr, f"x{i}")
        return eg.add_expr(expr)

    def test_time_limit(self):
        eg = EGraph()
        self._chain(eg)
        limits = RunnerLimits(max_iterations=100, time_limit=0.0)
        report = Runner(limits).run(eg, self._explosive_rules())
        assert report.stop_reason == StopReason.TIME_LIMIT
        assert report.num_iterations == 0

    def test_node_limit(self):
        eg = EGraph()
        self._chain(eg)
        limits = RunnerLimits(max_iterations=100, max_nodes=12)
        report = Runner(limits).run(eg, self._explosive_rules())
        assert report.stop_reason == StopReason.NODE_LIMIT

    def test_class_limit(self):
        eg = EGraph()
        self._chain(eg)
        limits = RunnerLimits(max_iterations=100, max_nodes=10_000,
                              max_classes=10)
        report = Runner(limits).run(eg, self._explosive_rules())
        assert report.stop_reason == StopReason.CLASS_LIMIT

    def test_iteration_limit(self):
        eg = EGraph()
        self._chain(eg)
        limits = RunnerLimits(max_iterations=1, max_nodes=10_000,
                              max_classes=10_000)
        report = Runner(limits).run(eg, self._explosive_rules())
        assert report.stop_reason == StopReason.ITERATION_LIMIT
        assert report.num_iterations == 1

    def test_saturated_and_frontier_shrinks(self):
        eg = EGraph()
        eg.add_expr(("&", "a", "b"))
        rule = Rewrite.parse("comm", "(& ?a ?b)", "(& ?b ?a)")
        report = Runner(RunnerLimits(max_iterations=10)).run(eg, [rule])
        assert report.stop_reason == StopReason.SATURATED
        # iteration 0 is a full scan, later iterations report their frontier
        assert report.iterations[0].frontier_size is None
        assert all(it.frontier_size is not None
                   for it in report.iterations[1:])
