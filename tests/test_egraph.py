"""Tests for the e-graph engine: union-find, congruence, matching, extraction."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.egraph import (
    EGraph,
    ENode,
    Op,
    Rewrite,
    Runner,
    RunnerLimits,
    StopReason,
    TreeCostExtractor,
    UnionFind,
    apply_rules,
    as_engine,
    ematch,
    expr_of,
    parse_pattern,
    pattern_vars,
)


class TestUnionFind:
    def test_singletons_are_their_own_root(self):
        uf = UnionFind()
        a = uf.make_set()
        b = uf.make_set()
        assert uf.find(a) == a
        assert uf.find(b) == b

    def test_union_merges(self):
        uf = UnionFind()
        a, b, c = uf.make_set(), uf.make_set(), uf.make_set()
        uf.union(a, b)
        uf.union(b, c)
        assert uf.find(c) == uf.find(a)

    def test_union_keeps_first_argument_root(self):
        uf = UnionFind()
        a, b = uf.make_set(), uf.make_set()
        root = uf.union(a, b)
        assert root == a

    @given(st.lists(st.tuples(st.integers(0, 19), st.integers(0, 19)), max_size=40))
    @settings(max_examples=30, deadline=None)
    def test_transitivity_property(self, pairs):
        uf = UnionFind()
        ids = [uf.make_set() for _ in range(20)]
        for a, b in pairs:
            uf.union(ids[a], ids[b])
        # find is idempotent and consistent
        for a, b in pairs:
            assert uf.in_same_set(ids[a], ids[b])
        for x in ids:
            assert uf.find(uf.find(x)) == uf.find(x)


class TestENode:
    def test_arity_validation(self):
        with pytest.raises(ValueError):
            ENode(Op.AND, (1,))

    def test_leaf_str(self):
        assert str(ENode(Op.VAR, (), "a")) == "a"
        assert str(ENode(Op.CONST, (), True)) == "1"


class TestEGraphBasics:
    def test_hashcons_dedupes(self):
        eg = EGraph()
        a = eg.var("a")
        b = eg.var("b")
        first = eg.add_term(Op.AND, a, b)
        second = eg.add_term(Op.AND, a, b)
        assert first == second
        assert eg.num_classes == 3

    def test_var_lookup_is_stable(self):
        eg = EGraph()
        assert eg.var("x") == eg.var("x")

    def test_union_merges_classes(self):
        eg = EGraph()
        a = eg.var("a")
        b = eg.var("b")
        assert eg.union(a, b)
        assert not eg.union(a, b)
        assert eg.find(a) == eg.find(b)

    def test_congruence_after_union(self):
        """f(a) and f(b) must merge when a and b merge (upward congruence)."""
        eg = EGraph()
        a = eg.var("a")
        b = eg.var("b")
        fa = eg.add_term(Op.NOT, a)
        fb = eg.add_term(Op.NOT, b)
        assert eg.find(fa) != eg.find(fb)
        eg.union(a, b)
        eg.rebuild()
        assert eg.find(fa) == eg.find(fb)

    def test_nested_congruence(self):
        eg = EGraph()
        a, b, c = eg.var("a"), eg.var("b"), eg.var("c")
        left = eg.add_term(Op.AND, eg.add_term(Op.AND, a, b), c)
        right = eg.add_term(Op.AND, eg.add_term(Op.AND, a, b), c)
        assert eg.find(left) == eg.find(right)

    def test_add_expr(self):
        eg = EGraph()
        root = eg.add_expr(("&", "a", ("~", "b")))
        assert eg.num_classes == 4
        assert eg.find(root) == root

    def test_lookup(self):
        eg = EGraph()
        a = eg.var("a")
        node = ENode(Op.NOT, (a,))
        assert eg.lookup(node) is None
        added = eg.add(node)
        assert eg.lookup(node) == eg.find(added)

    def test_prune_duplicates(self):
        eg = EGraph()
        a, b = eg.var("a"), eg.var("b")
        c1 = eg.add_term(Op.AND, a, b)
        c2 = eg.add_term(Op.AND, b, a)
        eg.union(c1, c2)
        eg.rebuild()
        removed = eg.prune_duplicates({Op.AND})
        assert removed == 1


class TestPatterns:
    def test_parse_and_vars(self):
        pattern = parse_pattern("(& ?a (~ ?b))")
        assert pattern_vars(pattern) == ["?a", "?b"]

    def test_parse_constant(self):
        pattern = parse_pattern("(& ?a 1)")
        assert pattern_vars(pattern) == ["?a"]

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_pattern("(& ?a ?b) extra")

    def test_ematch_finds_all_ands(self):
        eg = EGraph()
        a, b, c = eg.var("a"), eg.var("b"), eg.var("c")
        eg.add_term(Op.AND, a, b)
        eg.add_term(Op.AND, b, c)
        matches = ematch(eg, parse_pattern("(& ?x ?y)"))
        assert len(matches) == 2

    def test_ematch_nonlinear_pattern(self):
        """A repeated pattern variable must bind to the same e-class."""
        eg = EGraph()
        a, b = eg.var("a"), eg.var("b")
        eg.add_term(Op.AND, a, a)
        eg.add_term(Op.AND, a, b)
        matches = ematch(eg, parse_pattern("(& ?x ?x)"))
        assert len(matches) == 1

    def test_ematch_nested(self):
        eg = EGraph()
        root = eg.add_expr(("~", ("&", "a", "b")))
        matches = ematch(eg, parse_pattern("(~ (& ?x ?y))"))
        assert len(matches) == 1
        assert matches[0][0] == eg.find(root)


class TestRewriteRules:
    def test_parse_rejects_unbound_rhs_vars(self):
        with pytest.raises(ValueError):
            Rewrite.parse("bad", "(& ?a ?b)", "(| ?a ?c)")

    def test_commutativity_saturates(self):
        eg = EGraph()
        root = eg.add_expr(("&", "a", "b"))
        rule = Rewrite.parse("comm", "(& ?a ?b)", "(& ?b ?a)")
        report = Runner(RunnerLimits(max_iterations=5)).run(eg, [rule])
        assert report.stop_reason == StopReason.SATURATED
        nodes = eg.enodes(root)
        assert len(nodes) == 2

    def test_double_negation_merges_with_original(self):
        eg = EGraph()
        a = eg.var("a")
        double = eg.add_expr(("~", ("~", "a")))
        rule = Rewrite.parse("nn", "(~ (~ ?a))", "?a")
        apply_rules(eg, [rule])
        assert eg.find(double) == eg.find(a)

    def test_conditional_rule(self):
        eg = EGraph()
        eg.add_expr(("&", "a", "b"))
        rule = Rewrite.parse("never", "(& ?a ?b)", "(& ?b ?a)",
                             condition=lambda *_: False)
        stats = apply_rules(eg, [rule])
        assert stats["never"].applications == 0

    def test_sorted_rhs_sorts_children(self):
        """An ``(xor3 ...)`` right-hand side is built over children sorted
        by class id on both engines, so permuted discoveries meet."""
        for engine in ("python", "dense"):
            eg = as_engine(EGraph(), engine)
            root1 = eg.add_expr(("^", ("^", "a", "b"), "c"))
            root2 = eg.add_expr(("^", ("^", "c", "b"), "a"))
            rules = [Rewrite.parse("xor3", "(^ (^ ?a ?b) ?c)",
                                   "(xor3 ?a ?b ?c)")]
            apply_rules(eg, rules)
            assert eg.find(root1) == eg.find(root2), engine
            (node,) = [node for node in eg.enodes(root1)
                       if node.op == Op.XOR3]
            assert list(node.children) == sorted(node.children), engine

    def test_node_limit_stops_runner(self):
        eg = EGraph()
        eg.add_expr(("&", ("&", "a", "b"), ("&", "c", "d")))
        rules = [Rewrite.parse("assoc", "(& (& ?a ?b) ?c)", "(& ?a (& ?b ?c))",
                               bidirectional=True),
                 Rewrite.parse("comm", "(& ?a ?b)", "(& ?b ?a)")]
        limits = RunnerLimits(max_iterations=50, max_nodes=10)
        report = Runner(limits).run(eg, rules)
        assert report.stop_reason in (StopReason.NODE_LIMIT, StopReason.SATURATED)


class TestExtraction:
    def test_extracts_smaller_equivalent(self):
        eg = EGraph()
        root = eg.add_expr(("&", "a", ("~", ("~", "b"))))
        rule = Rewrite.parse("nn", "(~ (~ ?a))", "?a")
        apply_rules(eg, [rule])
        result = TreeCostExtractor().extract(eg)
        assert expr_of(result, root) == ("&", "a", "b")

    def test_extraction_reaches_all_roots(self):
        eg = EGraph()
        roots = [eg.add_expr(("&", "a", "b")), eg.add_expr(("|", "a", "c"))]
        result = TreeCostExtractor().extract(eg)
        for root in roots:
            assert result.has_choice(root)

    def test_count_ops(self):
        from repro.egraph import count_ops
        eg = EGraph()
        root = eg.add_expr(("&", ("&", "a", "b"), ("~", "c")))
        result = TreeCostExtractor().extract(eg)
        counts = count_ops(result, [root])
        assert counts[Op.AND] == 2
        assert counts[Op.NOT] == 1
