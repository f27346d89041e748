"""Ruleset R2: XOR and MAJ identification rules.

The paper constructs R2 (39 MAJ rules + 90 XOR rules) by extracting the
structural patterns of sum/carry cones from template CSA and Booth
multipliers and turning each pattern into a rewrite rule.  This module does
the analogous thing: a set of hand-derived base patterns covering the
decompositions produced by this repository's generators, optimiser and
technology mapper, expanded mechanically with input-negation variants (the
same way the authors' template extraction yields many polarity variants), and
de-duplicated.

The multi-input operators created by these rules (``xor3``, ``maj``) are
written as ordinary right-hand sides such as ``(xor3 ?a ?b ?c)``; both
engines build such nodes over children sorted by e-class id (a canonical
order, :data:`~repro.egraph.enode.SORTED_OPS`), so two discoveries of the
same function merge by congruence without needing the full set of
permutation rules; this implements the paper's redundancy-pruning trick
(optimisation trick 3).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from ..egraph import Op, Rewrite

__all__ = ["xor_rules", "maj_rules", "identification_rules", "ruleset_summary"]


def _sorted_rhs(op: str, negate_output: bool = False) -> str:
    """``(op ?a ?b ?c)``, complemented when ``negate_output``; the engines
    build ``op`` over its children sorted by class id."""
    rhs = f"({op} ?a ?b ?c)"
    return f"(~ {rhs})" if negate_output else rhs


def _negation_variants(lhs: str, variables: Sequence[str]) -> Iterable[Tuple[str, int]]:
    """Yield (lhs, negation_mask) pairs for every input-negation variant.

    Negating variable ``?x`` textually replaces every occurrence of ``?x`` in
    the pattern with ``(~ ?x)``; the mask records which variables were
    negated so the rule builder can adjust the right-hand side.
    """
    num = len(variables)
    for mask in range(1 << num):
        text = lhs
        for position, name in enumerate(variables):
            if (mask >> position) & 1:
                text = text.replace(name, f"(~ {name})")
        yield text, mask


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
    ("xor-neg-right", "(^ ?a (~ ?b))", "(~ (^ ?a ?b))"),
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


def xor_rules(include_variants: bool = True) -> List[Rewrite]:
    """Build the XOR identification part of R2.

    Args:
        include_variants: also generate input-negation variants of the base
            structural patterns (the bulk of the paper's 90 XOR rules).
    """
    rules: List[Rewrite] = []
    seen: set = set()

    def add_structural(name: str, lhs: str, negated_output: bool) -> None:
        key = (lhs, negated_output)
        if key in seen:
            return
        seen.add(key)
        rhs = "(~ (^ ?a ?b))" if negated_output else "(^ ?a ?b)"
        rules.append(Rewrite.parse(name, lhs, rhs, group="R2-xor"))

    for name, lhs, negated in _XOR2_BASE_PATTERNS:
        add_structural(name, lhs, negated)
        if not include_variants:
            continue
        for variant_lhs, mask in _negation_variants(lhs, ("?a", "?b")):
            if mask == 0:
                continue
            # Negating one input of an XOR complements the output; negating
            # both leaves it unchanged.
            parity = bin(mask).count("1") % 2 == 1
            add_structural(f"{name}-n{mask}", variant_lhs, negated ^ parity)

    for name, lhs, rhs in _XOR_ALGEBRA:
        rules.append(Rewrite.parse(name, lhs, rhs, group="R2-xor"))

    # XOR3 formation: both associativity groupings collapse into a canonical
    # (sorted-children) three-input XOR node.
    rules.append(Rewrite.parse(
        "xor3-intro-left", "(^ (^ ?a ?b) ?c)", _sorted_rhs(Op.XOR3),
        group="R2-xor"))
    rules.append(Rewrite.parse(
        "xor3-intro-right", "(^ ?a (^ ?b ?c))", _sorted_rhs(Op.XOR3),
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


def maj_rules(include_variants: bool = True) -> List[Rewrite]:
    """Build the MAJ identification part of R2."""
    rules: List[Rewrite] = []
    seen: set = set()

    def add_structural(name: str, lhs: str, negated_output: bool) -> None:
        key = (lhs, negated_output)
        if key in seen:
            return
        seen.add(key)
        rules.append(Rewrite.parse(name, lhs, _sorted_rhs(Op.MAJ, negated_output),
                                   group="R2-maj"))

    for name, lhs, negated in _MAJ_BASE_PATTERNS:
        add_structural(name, lhs, negated)

    if include_variants:
        # Input-negation variants of the carry-chain forms: these are the
        # shapes AOI/OAI-mapped carries take.  Negating all three inputs of a
        # majority complements it; other negation masks produce functions
        # outside the MAJ NPN-exact set and are not valid rewrites, so only
        # the all-negated variants are generated.
        for name, lhs, negated in _MAJ_BASE_PATTERNS:
            variant_lhs = lhs
            for var in ("?a", "?b", "?c"):
                variant_lhs = variant_lhs.replace(var, f"(~ {var})")
            add_structural(f"{name}-nall", variant_lhs, not negated)

    for name, lhs, negated in _MAJ_ALGEBRA_SORTED:
        rules.append(Rewrite.parse(name, lhs, _sorted_rhs(Op.MAJ, negated),
                                   group="R2-maj"))
    for name, lhs, rhs in _MAJ_ALGEBRA_PATTERNS:
        rules.append(Rewrite.parse(name, lhs, rhs, group="R2-maj"))
    return rules


def identification_rules(include_variants: bool = True) -> List[Rewrite]:
    """Return the full R2 ruleset (XOR rules followed by MAJ rules)."""
    return xor_rules(include_variants) + maj_rules(include_variants)


def ruleset_summary(lightweight: bool = True,
                    include_variants: bool = True) -> Dict[str, int]:
    """Return the rule counts per group (the reproduction's Table I totals)."""
    from .rules_basic import basic_rules

    r1 = basic_rules(lightweight=lightweight)
    xor = xor_rules(include_variants)
    maj = maj_rules(include_variants)
    return {
        "R1-basic": len(r1),
        "R2-xor": len(xor),
        "R2-maj": len(maj),
        "total": len(r1) + len(xor) + len(maj),
    }
