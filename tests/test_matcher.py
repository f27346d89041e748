"""The generated prefix-shared matchers (``repro.egraph.matcher``).

A group is the plans one round searches over the same candidate roots;
every real group is a subset of the plans sharing a root operator.  Each
such R1/R2 group, and each group minus any one member (what is left when
a rule goes over its budget mid-search), must compile — R2 has programs
deeper than CPython's 20 statically nested blocks — and the source must
embed only ints, never a payload or a name.
"""

from __future__ import annotations

import ast
from unittest import mock

import pytest

from repro.core.construct import aig_to_egraph
from repro.core.rules_basic import basic_rules, full_basic_rules
from repro.core.rules_xor_maj import identification_rules
from repro.egraph import DenseEGraph, EGraph, Runner, RunnerLimits, as_engine
from repro.egraph import matcher
from repro.egraph.matcher import compile_matcher, matcher_source
from repro.generators import csa_multiplier
from repro.opt import post_mapping_flow

RULESETS = {"R1": basic_rules(), "R1-full": full_basic_rules(),
            "R2": identification_rules()}


def _groups(rules):
    """The plans' programs grouped by root operator, on a fresh graph."""
    graph = DenseEGraph()
    groups = {}
    for rule in rules:
        for plan, _ in rule.plans():
            groups.setdefault(plan.root_op, []).append(
                graph._compile_match(plan.pattern))
    return groups


def _variants(programs):
    yield tuple(programs)
    if len(programs) > 1:
        for index in range(len(programs)):
            yield tuple(programs[:index] + programs[index + 1:])


def _assert_ints_only(source):
    constants = [node.value for node in ast.walk(ast.parse(source))
                 if isinstance(node, ast.Constant)]
    assert constants and all(type(value) is int for value in constants)


@pytest.mark.parametrize("ruleset", sorted(RULESETS))
def test_every_group_and_reduced_group_compiles(ruleset):
    for programs in _groups(RULESETS[ruleset]).values():
        for variant in _variants(programs):
            _assert_ints_only(matcher_source(variant))
            assert callable(compile_matcher(variant))


def test_deep_programs_move_into_helpers():
    programs = [program for group in _groups(RULESETS["R2"]).values()
                for program in group]
    deepest = max(programs, key=lambda program: len(program[0]))
    assert len(deepest[0]) > 20
    source = matcher_source((deepest,))
    assert "def h0(" in source
    compile_matcher((deepest,))


def test_shared_prefix_runs_once():
    """Two programs with a common first step expand it once per root."""
    (left, right) = _groups([rule for rule in RULESETS["R2"]
                             if rule.name in ("xor-neg-left",
                                              "xor-neg-both")])["^"]
    assert left[0][0] == right[0][0]
    source = matcher_source((left, right))
    assert source.count(f"expand(s0, {left[0][0][2]}, 2)") == 1


def test_leaf_steps_match_object_engine():
    """Constant leaves in patterns keep only the class's matching leaf
    node, also in a class that holds the other constant's neighbours."""
    graph = EGraph()
    for expr in [("&", "a", True), ("&", "b", False), ("|", "a", True),
                 ("^", "c", True), ("^", "c", False), ("maj", "a", "b", True),
                 ("maj", "a", "c", False), ("~", True), ("~", False),
                 ("&", "a", ("~", "a")), ("&", "d", "d")]:
        graph.add_expr(expr)
    # A class holding a variable next to a constant and an operator node.
    graph.union(graph.add_expr("d"), graph.add_expr(True))
    graph.union(graph.add_expr("d"), graph.add_expr(("&", "a", "b")))
    graph.rebuild()
    state = graph.export_state()
    requests = [(None, [(plan, None)])
                for rule in RULESETS["R1-full"] + RULESETS["R2"]
                for plan, _ in rule.plans()]
    expected = EGraph.from_state(state).search_batch(requests)
    assert sum(len(rows[0]) for rows in expected) > 0
    assert DenseEGraph.from_state(state).search_batch(requests) == expected


def test_helper_split_rows_match_object_engine():
    """Forcing a helper at every loop keeps every plan's rows exact."""
    graph = as_engine(aig_to_egraph(
        post_mapping_flow(csa_multiplier(4).aig)).egraph, "dense")
    Runner(RunnerLimits(max_iterations=2)).run(graph, basic_rules())
    state = graph.export_state()
    requests = [(None, [(plan, None)])
                for rule in RULESETS["R1"] + RULESETS["R2"]
                for plan, _ in rule.plans()]
    expected = EGraph.from_state(state).search_batch(requests)
    compile_matcher.cache_clear()
    try:
        with mock.patch.object(matcher, "MAX_LOOPS", 1), \
                mock.patch.object(matcher, "MAX_INDENT", 4):
            found = DenseEGraph.from_state(state).search_batch(requests)
    finally:
        compile_matcher.cache_clear()
    assert found == expected
