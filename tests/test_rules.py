"""Soundness tests for the BoolE rulesets (R1 and R2).

Every rewrite rule is checked by brute force: the left-hand side is
instantiated over fresh variables in an e-graph, the rule is applied once,
and every e-node that ends up in the matched e-class must evaluate to the
same Boolean value as the original expression under every input assignment.
An unsound rule would corrupt every downstream result, so this is the most
important test in the suite.
"""

from itertools import product

import pytest

from repro.core import basic_rules, full_basic_rules, identification_rules, ruleset_summary
from repro.core.rules_xor_maj import maj_rules, xor_rules
from repro.egraph import (DenseEGraph, EGraph, Op, Rewrite, Runner,
                          RunnerLimits, apply_rules)
from repro.egraph.pattern import instantiate, pattern_vars


def _eval_class(egraph, class_id, assignment, visiting=None):
    """Evaluate an e-class as a Boolean function (first evaluable node)."""
    class_id = egraph.find(class_id)
    if visiting is None:
        visiting = frozenset()
    if class_id in assignment:
        return assignment[class_id]
    if class_id in visiting:
        return None
    visiting = visiting | {class_id}
    for node in egraph.enodes(class_id):
        value = _eval_node(egraph, node, assignment, visiting)
        if value is not None:
            return value
    return None


def _eval_node(egraph, node, assignment, visiting):
    if node.op == Op.VAR:
        return assignment.get(egraph.find(egraph.var(node.payload)))
    if node.op == Op.CONST:
        return bool(node.payload)
    values = [_eval_class(egraph, child, assignment, visiting)
              for child in node.children]
    if any(value is None for value in values):
        return None
    if node.op == Op.NOT:
        return not values[0]
    if node.op == Op.AND:
        return values[0] and values[1]
    if node.op == Op.OR:
        return values[0] or values[1]
    if node.op == Op.XOR:
        return values[0] ^ values[1]
    if node.op == Op.XNOR:
        return not (values[0] ^ values[1])
    if node.op == Op.XOR3:
        return values[0] ^ values[1] ^ values[2]
    if node.op == Op.MAJ:
        return (values[0] and values[1]) or (values[0] and values[2]) \
            or (values[1] and values[2])
    return None


def _rule_is_sound(rule) -> bool:
    names = pattern_vars(rule.lhs)
    for bits in product([False, True], repeat=len(names)):
        egraph = EGraph()
        var_classes = {name: egraph.var(name.lstrip("?")) for name in names}
        root = instantiate(egraph, rule.lhs, dict(var_classes))
        egraph.rebuild()
        assignment = {egraph.find(cls): bit
                      for cls, bit in zip(var_classes.values(), bits)}
        before = _eval_class(egraph, root, dict(assignment))
        apply_rules(egraph, [rule])
        assignment = {egraph.find(cls): bit
                      for cls, bit in zip(var_classes.values(), bits)}
        if before is None:
            continue
        for node in egraph.enodes(egraph.find(root)):
            value = _eval_node(egraph, node, dict(assignment), frozenset({egraph.find(root)}))
            if value is not None and value != before:
                return False
    return True


def _negated(pattern: str, names) -> str:
    for name in names:
        pattern = pattern.replace(name, f"(~ {name})")
    return pattern


def _subsumed_r2_rules():
    """The R2 polarity variants the ruleset no longer lists, with the
    number of saturation iterations of the kept R2 rules that derives each
    (``docs/rulesets.md``)."""
    rules = []
    xor2 = {rule.name: rule for rule in xor_rules()}
    for name in ("xor2-sop", "xor2-pos", "xor2-pos2", "xor2-nand",
                 "xor2-aig", "xnor2-sop", "xnor2-nor", "xnor2-pos",
                 "xnor2-aig", "xnor2-oai"):
        base = xor2[name]
        lhs_text = str(base.lhs)
        negated_output = str(base.rhs).startswith("(~")
        for mask, names, depth in ((1, ("?a",), 2), (2, ("?b",), 4),
                                   (3, ("?a", "?b"), 2)):
            # One negated input complements the output; two cancel.
            flipped = negated_output ^ (len(names) == 1)
            rhs = "(~ (^ ?a ?b))" if flipped else "(^ ?a ?b)"
            rules.append((Rewrite.parse(f"{name}-n{mask}",
                                        _negated(lhs_text, names), rhs,
                                        group="R2-xor"), depth))
    rules.append((Rewrite.parse("xor-neg-right", "(^ ?a (~ ?b))",
                                "(~ (^ ?a ?b))", group="R2-xor"), 3))
    rules.append((Rewrite.parse("xor3-intro-right", "(^ ?a (^ ?b ?c))",
                                "(xor3 ?a ?b ?c)", group="R2-xor"), 2))
    maj = {rule.name: rule for rule in maj_rules()}
    for name in ("maj-sop-rl", "maj-carry-or", "maj-carry-or2",
                 "maj-carry-xor", "maj-pos", "maj-pos2", "maj-pos-full",
                 "maj-paper-nand", "maj-aig"):
        lhs = _negated(str(maj[name].lhs), ("?a", "?b", "?c"))
        rules.append((Rewrite.parse(f"{name}-nall", lhs, "(~ (maj ?a ?b ?c))",
                                    group="R2-maj"), 2))
    return rules


SUBSUMED_R2 = _subsumed_r2_rules()

#: The kept rules, the subsumed R2 variants (their soundness is what a
#: witness carries over) and nothing else.
ALL_RULES = (full_basic_rules() + identification_rules()
             + [rule for rule, _ in SUBSUMED_R2])


@pytest.mark.parametrize("rule", ALL_RULES, ids=lambda rule: rule.name)
def test_rule_soundness(rule):
    assert _rule_is_sound(rule), f"rule {rule.name} changes the Boolean function"


def _witness_depth(rule, kept, max_depth: int = 4):
    """Fewest ``Runner`` iterations of ``kept`` after which ``rule``'s
    right-hand side is in its left-hand side's class, on a fresh graph
    seeded with the left-hand side over fresh variables; ``None`` when
    ``max_depth`` iterations do not get there."""
    for depth in range(1, max_depth + 1):
        graph = DenseEGraph()
        subst = {name: graph.var(name.lstrip("?"))
                 for name in pattern_vars(rule.lhs)}
        root = instantiate(graph, rule.lhs, dict(subst))
        graph.rebuild()
        Runner(RunnerLimits(max_iterations=depth, match_limit=None)).run(
            graph, kept)
        rhs = instantiate(graph, rule.rhs,
                          {name: graph.find(cls) for name, cls in subst.items()})
        graph.rebuild()
        if graph.find(rhs) == graph.find(root):
            return depth
    return None


@pytest.mark.parametrize("rule,depth", SUBSUMED_R2,
                         ids=lambda item: getattr(item, "name", str(item)))
def test_subsumed_r2_rule_has_a_witness(rule, depth):
    """Every polarity variant left out of R2 is derived by the kept R2
    rules alone, at the depth ``docs/rulesets.md`` lists."""
    kept = identification_rules()
    assert rule.name not in {each.name for each in kept}
    assert _witness_depth(rule, kept) == depth


def test_kept_minority_variants_have_no_r2_witness():
    """The three ``min-*-nall`` rules stay: without R1's ``not-not`` the
    other R2 rules cannot derive any of them."""
    names = {"min-sop-nall", "min-nor-nall", "min-oai-nall"}
    kept = identification_rules()
    others = [rule for rule in kept if rule.name not in names]
    minority = [rule for rule in kept if rule.name in names]
    assert len(minority) == 3
    for rule in minority:
        assert _witness_depth(rule, others) is None, rule.name


class TestRulesetStructure:
    def test_lightweight_is_subset_of_full(self):
        light_names = {rule.name for rule in basic_rules(lightweight=True)}
        full_names = {rule.name for rule in basic_rules(lightweight=False)}
        assert light_names <= full_names

    def test_rule_names_unique(self):
        names = [rule.name for rule in ALL_RULES]
        assert len(names) == len(set(names))

    def test_groups_assigned(self):
        for rule in ALL_RULES:
            assert rule.group in ("R1", "R2-xor", "R2-maj")

    def test_summary_counts_match(self):
        summary = ruleset_summary(lightweight=False)
        assert summary["R2-xor"] == len(xor_rules())
        assert summary["R2-maj"] == len(maj_rules())
        assert summary["total"] == (summary["R1-basic"] + summary["R2-xor"]
                                    + summary["R2-maj"])
        assert len(identification_rules()) == 47

    def test_xor_and_maj_rule_volumes(self):
        """The identification library is dominated by XOR rules, as in the paper."""
        assert len(xor_rules()) > len(maj_rules()) > 10
