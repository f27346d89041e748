"""ABC ``&atree``-style adder-tree detection baseline.

This module reproduces the conventional structural/functional approach the
paper compares against: enumerate K-feasible cuts, compute each cut's truth
table, and detect full adders (FA) and half adders (HA) by matching the cut
functions of a sum node and a carry node that share the same cut leaves.

* An **exact FA** requires one node computing exactly ``XOR3`` and one node
  computing exactly ``MAJ3`` over the same three leaves.
* An **NPN FA** only requires the two functions to fall into the XOR3 and
  MAJ3 NPN classes (e.g. an XNOR3/minority pair still counts), which is what
  ABC's cut-based matching and Gamora's labels provide.

The detector inherits the weaknesses the paper describes: it relies on a
single node per component and on the cut being enumerated within the
priority-cut budget, so technology mapping and logic optimisation make blocks
invisible to it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from ..aig import AIG
from ..aig.truth_table import AND2_TABLE, MAJ3_TABLE, XOR2_TABLE, XOR3_TABLE
from ..cuts import (
    MAJ3_NPN_CANON,
    XOR3_NPN_CANON,
    cut_function,
    enumerate_cuts,
    npn_canonical,
)

__all__ = ["FAMatch", "HAMatch", "AdderTreeReport", "detect_adder_tree"]

_XOR2_NPN_CANON = npn_canonical(XOR2_TABLE, 2)
_AND2_NPN_CANON = npn_canonical(AND2_TABLE, 2)

# "Exact" detection is phase-free on the output: an AIG node whose function is
# the complement of the target still provides the target exactly through its
# complemented edge (complemented edges are free in an AIG).  Input negations,
# by contrast, cannot be absorbed and only yield NPN equivalence.
_MASK3 = (1 << 8) - 1
_MASK2 = (1 << 4) - 1
_XOR3_EXACT_TABLES = {XOR3_TABLE, ~XOR3_TABLE & _MASK3}
_MAJ3_EXACT_TABLES = {MAJ3_TABLE, ~MAJ3_TABLE & _MASK3}
_XOR2_EXACT_TABLES = {XOR2_TABLE, ~XOR2_TABLE & _MASK2}
_AND2_EXACT_TABLES = {AND2_TABLE, ~AND2_TABLE & _MASK2}


@dataclass(frozen=True)
class FAMatch:
    """A detected full adder: sum node, carry node and shared leaves."""

    sum_var: int
    carry_var: int
    leaves: Tuple[int, ...]
    exact: bool


@dataclass(frozen=True)
class HAMatch:
    """A detected half adder: sum node, carry node and shared leaves."""

    sum_var: int
    carry_var: int
    leaves: Tuple[int, ...]
    exact: bool


@dataclass
class AdderTreeReport:
    """Result of adder-tree detection on one netlist."""

    full_adders: List[FAMatch] = field(default_factory=list)
    half_adders: List[HAMatch] = field(default_factory=list)

    @property
    def num_npn_fas(self) -> int:
        """Number of detected FAs up to NPN equivalence (includes exact)."""
        return len(self.full_adders)

    @property
    def num_exact_fas(self) -> int:
        """Number of detected FAs that are exactly XOR3/MAJ3 pairs."""
        return sum(1 for fa in self.full_adders if fa.exact)

    @property
    def num_npn_has(self) -> int:
        """Number of detected HAs up to NPN equivalence (includes exact)."""
        return len(self.half_adders)


def detect_adder_tree(aig: AIG, k: int = 3, max_cuts_per_node: int = 8,
                      detect_half_adders: bool = True) -> AdderTreeReport:
    """Detect FA/HA blocks in an AIG with cut enumeration (ABC baseline).

    Args:
        aig: subject netlist.
        k: cut size limit (3 covers both FA and HA cuts).
        max_cuts_per_node: priority-cut budget per node (ABC-like default 8).
        detect_half_adders: also report half adders.

    Returns:
        An :class:`AdderTreeReport` listing one FA per distinct leaf triple
        and one HA per distinct leaf pair.
    """
    cuts = enumerate_cuts(aig, k=max(k, 3 if not detect_half_adders else k),
                          max_cuts_per_node=max_cuts_per_node)

    # leaves -> candidate component nodes
    xor3_exact: Dict[Tuple[int, ...], Set[int]] = {}
    xor3_npn: Dict[Tuple[int, ...], Set[int]] = {}
    maj3_exact: Dict[Tuple[int, ...], Set[int]] = {}
    maj3_npn: Dict[Tuple[int, ...], Set[int]] = {}
    xor2_exact: Dict[Tuple[int, ...], Set[int]] = {}
    xor2_npn: Dict[Tuple[int, ...], Set[int]] = {}
    and2_exact: Dict[Tuple[int, ...], Set[int]] = {}
    and2_npn: Dict[Tuple[int, ...], Set[int]] = {}

    for var, node_cuts in cuts.items():
        if not aig.is_gate_var(var):
            continue
        for cut in node_cuts:
            leaves = cut.sorted_leaves()
            if 0 in leaves:
                continue
            if cut.size == 3:
                table = cut_function(aig, cut)
                canon = npn_canonical(table, 3)
                if canon == XOR3_NPN_CANON:
                    xor3_npn.setdefault(leaves, set()).add(var)
                    if table in _XOR3_EXACT_TABLES:
                        xor3_exact.setdefault(leaves, set()).add(var)
                elif canon == MAJ3_NPN_CANON:
                    maj3_npn.setdefault(leaves, set()).add(var)
                    if table in _MAJ3_EXACT_TABLES:
                        maj3_exact.setdefault(leaves, set()).add(var)
            elif cut.size == 2 and detect_half_adders:
                table = cut_function(aig, cut)
                canon = npn_canonical(table, 2)
                if canon == _XOR2_NPN_CANON:
                    xor2_npn.setdefault(leaves, set()).add(var)
                    if table in _XOR2_EXACT_TABLES:
                        xor2_exact.setdefault(leaves, set()).add(var)
                elif canon == _AND2_NPN_CANON:
                    and2_npn.setdefault(leaves, set()).add(var)
                    if table in _AND2_EXACT_TABLES:
                        and2_exact.setdefault(leaves, set()).add(var)

    report = AdderTreeReport()
    for leaves, sum_nodes in xor3_npn.items():
        carry_nodes = maj3_npn.get(leaves)
        if not carry_nodes:
            continue
        carry_choices = carry_nodes - sum_nodes
        if not carry_choices:
            continue
        exact_sums = xor3_exact.get(leaves, set())
        exact_carries = maj3_exact.get(leaves, set()) - exact_sums
        exact = bool(exact_sums and exact_carries)
        if exact:
            sum_var = min(exact_sums)
            carry_var = min(exact_carries)
        else:
            sum_var = min(sum_nodes)
            carry_var = min(carry_choices)
        report.full_adders.append(FAMatch(sum_var, carry_var, leaves, exact))

    if detect_half_adders:
        fa_leaf_sets = {frozenset(fa.leaves) for fa in report.full_adders}
        for leaves, sum_nodes in xor2_npn.items():
            carry_nodes = and2_npn.get(leaves)
            if not carry_nodes:
                continue
            carry_choices = carry_nodes - sum_nodes
            if not carry_choices:
                continue
            # A pair of leaves fully contained in a detected FA is part of that
            # FA's internal structure, not an independent half adder.
            if any(frozenset(leaves) <= fa_set for fa_set in fa_leaf_sets):
                continue
            exact_sums = xor2_exact.get(leaves, set())
            exact_carries = and2_exact.get(leaves, set()) - exact_sums
            exact = bool(exact_sums and exact_carries)
            if exact:
                sum_var = min(exact_sums)
                carry_var = min(exact_carries)
            else:
                sum_var = min(sum_nodes)
                carry_var = min(carry_choices)
            report.half_adders.append(HAMatch(sum_var, carry_var, leaves, exact))

    report.full_adders.sort(key=lambda fa: fa.leaves)
    report.half_adders.sort(key=lambda ha: ha.leaves)
    return report
