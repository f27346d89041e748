"""NPN classification of small Boolean functions.

Two functions are NPN-equivalent when one can be obtained from the other by
Negating inputs, Permuting inputs, and/or Negating the output.  ABC and
Gamora identify "NPN full adders" — blocks whose sum/carry functions fall in
the XOR3/MAJ3 NPN classes without being exactly equal to XOR3/MAJ3 — while
BoolE distinguishes those from *exact* full adders.
"""

from __future__ import annotations

from itertools import permutations
from typing import Dict, Tuple

from ..aig.truth_table import MAJ3_TABLE, XOR3_TABLE, table_mask

__all__ = [
    "apply_permutation",
    "apply_input_negation",
    "npn_canonical",
    "npn_equivalent",
    "npn_class_of",
    "XOR3_NPN_CANON",
    "MAJ3_NPN_CANON",
]


def apply_permutation(table: int, perm: Tuple[int, ...], num_vars: int) -> int:
    """Permute the input variables of a truth table.

    ``perm[i] = j`` means original variable ``i`` becomes variable ``j``.
    """
    size = 1 << num_vars
    result = 0
    for minterm in range(size):
        if (table >> minterm) & 1:
            target = 0
            for position in range(num_vars):
                if (minterm >> position) & 1:
                    target |= 1 << perm[position]
            result |= 1 << target
    return result


def apply_input_negation(table: int, negation_mask: int, num_vars: int) -> int:
    """Negate the inputs selected by ``negation_mask`` (bit i = negate var i)."""
    size = 1 << num_vars
    result = 0
    for minterm in range(size):
        if (table >> minterm) & 1:
            result |= 1 << (minterm ^ negation_mask)
    return result


def npn_canonical(table: int, num_vars: int) -> int:
    """Return the canonical (minimum) representative of the NPN class."""
    mask = table_mask(num_vars)
    table &= mask
    best = None
    for negation_mask in range(1 << num_vars):
        negated = apply_input_negation(table, negation_mask, num_vars)
        for perm in permutations(range(num_vars)):
            permuted = apply_permutation(negated, perm, num_vars)
            for candidate in (permuted, ~permuted & mask):
                if best is None or candidate < best:
                    best = candidate
    return best if best is not None else 0


def npn_equivalent(table_a: int, table_b: int, num_vars: int) -> bool:
    """Return True if the two functions are NPN-equivalent."""
    return npn_canonical(table_a, num_vars) == npn_canonical(table_b, num_vars)


def npn_class_of(table: int, num_vars: int,
                 classes: Dict[str, int]) -> str:
    """Classify ``table`` against a dictionary of named canonical forms.

    Returns the matching name or ``"other"``.
    """
    canon = npn_canonical(table, num_vars)
    for name, reference in classes.items():
        if canon == reference:
            return name
    return "other"


#: Canonical NPN representatives of the full-adder component functions.
XOR3_NPN_CANON = npn_canonical(XOR3_TABLE, 3)
MAJ3_NPN_CANON = npn_canonical(MAJ3_TABLE, 3)
