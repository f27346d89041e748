"""Ruleset R2: XOR and MAJ identification rules.

The paper constructs R2 (39 MAJ rules + 90 XOR rules) by extracting the
structural patterns of sum/carry cones from template CSA and Booth
multipliers and turning each pattern into a rewrite rule.  This module does
the analogous thing: a set of hand-derived base patterns covering the
decompositions produced by this repository's generators, optimiser and
technology mapper.  The paper's counts include input-polarity variants of
each pattern; here a polarity variant is kept only when the other R2 rules
cannot derive it: the ``xor-neg-*`` rules fold negated XOR inputs into the
output within a few iterations, so the variants are subsumed (each dropped
rule and its witness depth are listed in ``docs/rulesets.md`` and checked
by ``tests/test_rules.py``).

The multi-input operators created by these rules (``xor3``, ``maj``) are
written as ordinary right-hand sides such as ``(xor3 ?a ?b ?c)``; both
engines build such nodes over children sorted by e-class id (a canonical
order, :data:`~repro.egraph.enode.SORTED_OPS`), so two discoveries of the
same function merge by congruence without needing the full set of
permutation rules; this implements the paper's redundancy-pruning trick
(optimisation trick 3).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..egraph import Op, Rewrite

__all__ = ["xor_rules", "maj_rules", "identification_rules", "ruleset_summary"]


def _sorted_rhs(op: str, negate_output: bool = False) -> str:
    """``(op ?a ?b ?c)``, complemented when ``negate_output``; the engines
    build ``op`` over its children sorted by class id."""
    rhs = f"({op} ?a ?b ?c)"
    return f"(~ {rhs})" if negate_output else rhs


# ----------------------------------------------------------------------
# XOR identification rules.
# ----------------------------------------------------------------------

# Two-input XOR decompositions as they appear in AND/OR/NOT netlists.  Each
# entry is (name, pattern, output_negated): the pattern equals XOR(?a, ?b)
# when output_negated is False and XNOR(?a, ?b) otherwise.
_XOR2_BASE_PATTERNS: List[Tuple[str, str, bool]] = [
    ("xor2-sop", "(| (& ?a (~ ?b)) (& (~ ?a) ?b))", False),
    ("xor2-pos", "(& (| ?a ?b) (~ (& ?a ?b)))", False),
    ("xor2-pos2", "(& (| ?a ?b) (| (~ ?a) (~ ?b)))", False),
    ("xor2-nand", "(& (~ (& ?a ?b)) (~ (& (~ ?a) (~ ?b))))", False),
    ("xor2-aig", "(~ (& (~ (& ?a (~ ?b))) (~ (& (~ ?a) ?b))))", False),
    ("xnor2-sop", "(| (& ?a ?b) (& (~ ?a) (~ ?b)))", True),
    ("xnor2-nor", "(| (& ?a ?b) (~ (| ?a ?b)))", True),
    ("xnor2-pos", "(& (| ?a (~ ?b)) (| (~ ?a) ?b))", True),
    ("xnor2-aig", "(& (~ (& ?a (~ ?b))) (~ (& (~ ?a) ?b)))", True),
    ("xnor2-oai", "(~ (& (| ?a ?b) (~ (& ?a ?b))))", True),
]

# XOR algebra rules expressed on the ^ operator itself.
_XOR_ALGEBRA: List[Tuple[str, str, str]] = [
    ("xor-comm", "(^ ?a ?b)", "(^ ?b ?a)"),
    ("xor-assoc-lr", "(^ (^ ?a ?b) ?c)", "(^ ?a (^ ?b ?c))"),
    ("xor-assoc-rl", "(^ ?a (^ ?b ?c))", "(^ (^ ?a ?b) ?c)"),
    ("xor-neg-left", "(^ (~ ?a) ?b)", "(~ (^ ?a ?b))"),
    ("xor-neg-both", "(^ (~ ?a) (~ ?b))", "(^ ?a ?b)"),
    ("xor-neg-out", "(~ (^ (~ ?a) ?b))", "(^ ?a ?b)"),
    ("xor-false", "(^ ?a 0)", "?a"),
    ("xor-true", "(^ ?a 1)", "(~ ?a)"),
    ("xor-self", "(^ ?a ?a)", "0"),
    ("xor-self-neg", "(^ ?a (~ ?a))", "1"),
    ("xnor-op-intro", "(xnor ?a ?b)", "(~ (^ ?a ?b))"),
]

# The paper's three-input sum-of-minterms form (Table I) and its XNOR dual.
_XOR3_MINTERM_PATTERNS: List[Tuple[str, str, bool]] = [
    ("xor3-minterms",
     "(| (| (& ?a (& (~ ?b) (~ ?c))) (& (~ ?a) (& ?b (~ ?c)))) "
     "(| (& (~ ?a) (& (~ ?b) ?c)) (& ?a (& ?b ?c))))", False),
    ("xor3-mux-factored",
     "(| (& ?a (~ (^ ?b ?c))) (& (~ ?a) (^ ?b ?c)))", False),
    ("xnor3-mux-factored",
     "(| (& ?a (^ ?b ?c)) (& (~ ?a) (~ (^ ?b ?c))))", True),
]


def xor_rules() -> List[Rewrite]:
    """Build the XOR identification part of R2."""
    rules: List[Rewrite] = []
    for name, lhs, negated in _XOR2_BASE_PATTERNS:
        rhs = "(~ (^ ?a ?b))" if negated else "(^ ?a ?b)"
        rules.append(Rewrite.parse(name, lhs, rhs, group="R2-xor"))

    for name, lhs, rhs in _XOR_ALGEBRA:
        rules.append(Rewrite.parse(name, lhs, rhs, group="R2-xor"))

    # XOR3 formation: a left-leaning XOR chain collapses into a canonical
    # (sorted-children) three-input XOR node; a right-leaning one reaches it
    # through ``xor-assoc-rl``.
    rules.append(Rewrite.parse(
        "xor3-intro-left", "(^ (^ ?a ?b) ?c)", _sorted_rhs(Op.XOR3),
        group="R2-xor"))
    rules.append(Rewrite.parse(
        "xor3-expand", "(xor3 ?a ?b ?c)", "(^ (^ ?a ?b) ?c)", group="R2-xor"))

    for name, lhs, negated in _XOR3_MINTERM_PATTERNS:
        rules.append(Rewrite.parse(name, lhs, _sorted_rhs(Op.XOR3, negated),
                                   group="R2-xor"))
    return rules


# ----------------------------------------------------------------------
# MAJ identification rules.
# ----------------------------------------------------------------------

# Each entry: (name, pattern over ?a ?b ?c, output_negated).  The pattern is
# MAJ(a, b, c) when output_negated is False, minority otherwise.
_MAJ_BASE_PATTERNS: List[Tuple[str, str, bool]] = [
    ("maj-sop-lr", "(| (| (& ?a ?b) (& ?a ?c)) (& ?b ?c))", False),
    ("maj-sop-rl", "(| (& ?a ?b) (| (& ?a ?c) (& ?b ?c)))", False),
    ("maj-carry-or", "(| (& ?a ?b) (& ?c (| ?a ?b)))", False),
    ("maj-carry-or2", "(| (& ?c (| ?a ?b)) (& ?a ?b))", False),
    ("maj-carry-xor", "(| (& ?a ?b) (& ?c (^ ?a ?b)))", False),
    ("maj-pos", "(& (| ?a ?b) (| ?c (& ?a ?b)))", False),
    ("maj-pos2", "(& (| (& ?a ?b) ?c) (| ?a ?b))", False),
    ("maj-pos-full", "(& (& (| ?a ?b) (| ?a ?c)) (| ?b ?c))", False),
    ("maj-paper-nand", "(& (| ?a (& ?b ?c)) (| ?b ?c))", False),
    ("maj-aig", "(~ (& (~ (& ?a ?b)) (~ (& ?c (| ?a ?b)))))", False),
    ("min-sop", "(| (| (& (~ ?a) (~ ?b)) (& (~ ?a) (~ ?c))) (& (~ ?b) (~ ?c)))", True),
    ("min-nor", "(~ (| (| (& ?a ?b) (& ?a ?c)) (& ?b ?c)))", True),
    ("min-oai", "(~ (& (| ?a ?b) (| ?c (& ?a ?b))))", True),
    # The minority forms over negated inputs (AOI/OAI-mapped carries).  The
    # majority forms' all-negated twins are derived by ``maj-neg-all``;
    # these three are not, because their double negations need R1.
    ("min-sop-nall", "(| (| (& (~ (~ ?a)) (~ (~ ?b))) (& (~ (~ ?a)) (~ (~ ?c)))) "
     "(& (~ (~ ?b)) (~ (~ ?c))))", False),
    ("min-nor-nall", "(~ (| (| (& (~ ?a) (~ ?b)) (& (~ ?a) (~ ?c))) "
     "(& (~ ?b) (~ ?c))))", False),
    ("min-oai-nall", "(~ (& (| (~ ?a) (~ ?b)) (| (~ ?c) (& (~ ?a) (~ ?b)))))",
     False),
]

# Majority algebra on the maj operator itself.
_MAJ_ALGEBRA_SORTED: List[Tuple[str, str, bool]] = [
    # maj(~a, ~b, ~c) = ~maj(a, b, c)
    ("maj-neg-all", "(maj (~ ?a) (~ ?b) (~ ?c))", True),
]

_MAJ_ALGEBRA_PATTERNS: List[Tuple[str, str, str]] = [
    ("maj-const0", "(maj ?a ?b 0)", "(& ?a ?b)"),
    ("maj-const1", "(maj ?a ?b 1)", "(| ?a ?b)"),
    ("maj-same", "(maj ?a ?a ?b)", "?a"),
    ("maj-expand", "(maj ?a ?b ?c)", "(| (| (& ?a ?b) (& ?a ?c)) (& ?b ?c))"),
]


def maj_rules() -> List[Rewrite]:
    """Build the MAJ identification part of R2."""
    rules: List[Rewrite] = []
    for name, lhs, negated in _MAJ_BASE_PATTERNS:
        rules.append(Rewrite.parse(name, lhs, _sorted_rhs(Op.MAJ, negated),
                                   group="R2-maj"))
    for name, lhs, negated in _MAJ_ALGEBRA_SORTED:
        rules.append(Rewrite.parse(name, lhs, _sorted_rhs(Op.MAJ, negated),
                                   group="R2-maj"))
    for name, lhs, rhs in _MAJ_ALGEBRA_PATTERNS:
        rules.append(Rewrite.parse(name, lhs, rhs, group="R2-maj"))
    return rules


def identification_rules() -> List[Rewrite]:
    """Return the full R2 ruleset (XOR rules followed by MAJ rules)."""
    return xor_rules() + maj_rules()


def ruleset_summary(lightweight: bool = True) -> Dict[str, int]:
    """Return the rule counts per group (the reproduction's Table I totals)."""
    from .rules_basic import basic_rules

    r1 = basic_rules(lightweight=lightweight)
    xor = xor_rules()
    maj = maj_rules()
    return {
        "R1-basic": len(r1),
        "R2-xor": len(xor),
        "R2-maj": len(maj),
        "total": len(r1) + len(xor) + len(maj),
    }
