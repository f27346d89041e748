"""Structure-changing AIG optimisation passes (``dch``-style).

The passes implemented here play the role of ABC's ``dch`` logic optimisation
in the paper's Table II flow: they preserve functionality but restructure the
netlist — flattening and re-balancing XOR and AND/OR trees across adder-block
boundaries and re-expressing majority cones — so that the block-boundary
signals cut enumeration relies on partially disappear.  Every pass is a
semantics-preserving AIG-to-AIG transformation (checked by equivalence tests).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..aig import AIG, lit_is_compl, lit_not, lit_var
from ..aig.truth_table import MAJ3_TABLE, XOR2_TABLE, table_mask
from ..cuts import cut_function, enumerate_cuts

__all__ = ["RestructureOptions", "restructure_xor_trees", "restructure_majorities",
           "rebalance_and_trees"]


@dataclass
class RestructureOptions:
    """Knobs for the restructuring passes.

    Attributes:
        max_xor_leaves: maximum size of a flattened XOR group; groups larger
            than an FA sum (3 leaves) only form when merging across block
            boundaries is allowed for a node.
        merge_fraction: fraction of eligible XOR roots whose groups may absorb
            nested XOR leaves from *other* blocks (deterministic per-node
            choice); this models the selective restructuring real optimisers
            perform under area/delay pressure.
        rewrite_majorities: re-express detected MAJ3 cones through an
            alternative AND/OR decomposition.
        seed: salt for the deterministic per-node merge decision.
    """

    max_xor_leaves: int = 6
    merge_fraction: float = 0.35
    rewrite_majorities: bool = True
    seed: int = 0


def _node_selected(var: int, fraction: float, seed: int) -> bool:
    """Deterministic pseudo-random per-node decision (stable across runs)."""
    if fraction >= 1.0:
        return True
    if fraction <= 0.0:
        return False
    digest = hashlib.sha256(f"{seed}:{var}".encode("ascii")).digest()
    value = int.from_bytes(digest[:4], "big") / 2**32
    return value < fraction


def _detect_xor2_nodes(aig: AIG, cuts) -> Dict[int, Tuple[int, int, bool]]:
    """Find nodes computing XOR2/XNOR2 of a 2-leaf cut.

    Returns a map ``var -> (leaf_a, leaf_b, is_xnor)``.
    """
    xors: Dict[int, Tuple[int, int, bool]] = {}
    mask2 = table_mask(2)
    for var, node_cuts in cuts.items():
        if not aig.is_gate_var(var):
            continue
        for cut in node_cuts:
            if cut.size != 2 or 0 in cut.leaves:
                continue
            table = cut_function(aig, cut)
            leaves = cut.sorted_leaves()
            if table == XOR2_TABLE:
                xors[var] = (leaves[0], leaves[1], False)
                break
            if table == (~XOR2_TABLE & mask2):
                xors[var] = (leaves[0], leaves[1], True)
                break
    return xors


def _collect_xor_group(aig: AIG, root: int, xors: Dict[int, Tuple[int, int, bool]],
                       options: RestructureOptions) -> Optional[Tuple[List[int], bool]]:
    """Flatten the XOR tree rooted at ``root``.

    Returns ``(leaf_vars, parity)`` where the root's function equals the XOR
    of the positive leaf variables complemented iff ``parity`` is True, or
    None if the root is not an XOR node.
    """
    if root not in xors:
        return None
    allow_merge = _node_selected(root, options.merge_fraction, options.seed)
    leaf_a, leaf_b, parity = xors[root]
    leaves = [leaf_a, leaf_b]
    changed = True
    while changed:
        changed = False
        for index, leaf in enumerate(leaves):
            if leaf not in xors:
                continue
            sub_a, sub_b, sub_parity = xors[leaf]
            new_leaves = leaves[:index] + leaves[index + 1:]
            for sub in (sub_a, sub_b):
                if sub in new_leaves:
                    # x ^ x cancels; removing both keeps the function.
                    new_leaves.remove(sub)
                else:
                    new_leaves.append(sub)
            if len(new_leaves) > options.max_xor_leaves:
                continue
            if len(new_leaves) > 3 and not allow_merge:
                continue
            leaves = new_leaves
            parity ^= sub_parity
            changed = True
            break
    if len(leaves) < 2:
        return None
    return leaves, parity


def restructure_xor_trees(aig: AIG, options: Optional[RestructureOptions] = None) -> AIG:
    """Flatten and re-balance XOR trees (sorted-leaf left chains).

    XOR roots whose flattened group crosses a block boundary (more than three
    leaves) are rebuilt directly from the deeper leaves, eliminating the
    intermediate sum signals of the absorbed blocks from that cone.
    """
    options = options or RestructureOptions()
    cuts = enumerate_cuts(aig, k=2, max_cuts_per_node=6)
    xors = _detect_xor2_nodes(aig, cuts)

    groups: Dict[int, Tuple[List[int], bool]] = {}
    for var in xors:
        group = _collect_xor_group(aig, var, xors, options)
        if group is not None:
            groups[var] = group

    new = AIG(name=aig.name)
    mapping: Dict[int, int] = {0: 0}
    for var in aig.inputs:
        mapping[var] = new.add_input(aig.input_names[var])

    def map_lit(lit: int) -> int:
        mapped = mapping[lit_var(lit)]
        return lit_not(mapped) if lit_is_compl(lit) else mapped

    for gate in aig.gates:
        var = gate.out_var
        group = groups.get(var)
        if group is not None:
            leaves, parity = group
            ordered = sorted(leaves)
            acc = mapping[ordered[0]]
            for leaf in ordered[1:]:
                acc = new.xor_(acc, mapping[leaf])
            mapping[var] = lit_not(acc) if parity else acc
        else:
            mapping[var] = new.and_(map_lit(gate.fanin0), map_lit(gate.fanin1))

    for lit, name in zip(aig.outputs, aig.output_names):
        new.add_output(map_lit(lit), name)
    return new.cleanup()


def restructure_majorities(aig: AIG, options: Optional[RestructureOptions] = None) -> AIG:
    """Re-express MAJ3 cones as ``(a | b) & (c | (a & b))``.

    This keeps the majority function but changes its local decomposition (and
    the polarity of internal nodes), the way mapping through AOI/OAI cells
    does.
    """
    options = options or RestructureOptions()
    if not options.rewrite_majorities:
        return aig.copy()
    cuts = enumerate_cuts(aig, k=3, max_cuts_per_node=8)
    mask3 = table_mask(3)
    majorities: Dict[int, Tuple[Tuple[int, int, int], bool]] = {}
    for var, node_cuts in cuts.items():
        if not aig.is_gate_var(var):
            continue
        for cut in node_cuts:
            if cut.size != 3 or 0 in cut.leaves:
                continue
            table = cut_function(aig, cut)
            if table == MAJ3_TABLE:
                majorities[var] = (cut.sorted_leaves(), False)
                break
            if table == (~MAJ3_TABLE & mask3):
                majorities[var] = (cut.sorted_leaves(), True)
                break

    new = AIG(name=aig.name)
    mapping: Dict[int, int] = {0: 0}
    for var in aig.inputs:
        mapping[var] = new.add_input(aig.input_names[var])

    def map_lit(lit: int) -> int:
        mapped = mapping[lit_var(lit)]
        return lit_not(mapped) if lit_is_compl(lit) else mapped

    for gate in aig.gates:
        var = gate.out_var
        match = majorities.get(var)
        if match is not None:
            (a, b, c), parity = match
            la, lb, lc = mapping[a], mapping[b], mapping[c]
            rebuilt = new.and_(new.or_(la, lb), new.or_(lc, new.and_(la, lb)))
            mapping[var] = lit_not(rebuilt) if parity else rebuilt
        else:
            mapping[var] = new.and_(map_lit(gate.fanin0), map_lit(gate.fanin1))

    for lit, name in zip(aig.outputs, aig.output_names):
        new.add_output(map_lit(lit), name)
    return new.cleanup()


def _and_leaves(aig: AIG, fanouts: Dict[int, List[int]], lit: int,
                max_leaves: int, depth: int = 0) -> List[int]:
    """Collect the conjunction leaves (original literals) under ``lit``."""
    var = lit_var(lit)
    if (lit_is_compl(lit) or not aig.is_gate_var(var)
            or len(fanouts.get(var, ())) > 1 or depth >= 4):
        return [lit]
    gate = aig.gate_of(var)
    leaves = _and_leaves(aig, fanouts, gate.fanin0, max_leaves, depth + 1)
    leaves += _and_leaves(aig, fanouts, gate.fanin1, max_leaves, depth + 1)
    if len(leaves) > max_leaves:
        return [lit]
    return leaves


def rebalance_and_trees(aig: AIG, max_leaves: int = 8) -> AIG:
    """Flatten single-fanout AND chains and rebuild them over sorted leaves.

    This is the AND/OR analogue of :func:`restructure_xor_trees` and models
    ABC's ``balance`` pass.  Multi-fanout nodes are kept as boundaries so no
    logic is duplicated.
    """
    fanouts = aig.fanout_map()

    new = AIG(name=aig.name)
    mapping: Dict[int, int] = {0: 0}
    for var in aig.inputs:
        mapping[var] = new.add_input(aig.input_names[var])

    def map_lit(lit: int) -> int:
        mapped = mapping[lit_var(lit)]
        return lit_not(mapped) if lit_is_compl(lit) else mapped

    for gate in aig.gates:
        var = gate.out_var
        leaves = (_and_leaves(aig, fanouts, gate.fanin0, max_leaves)
                  + _and_leaves(aig, fanouts, gate.fanin1, max_leaves))
        if len(leaves) > max_leaves:
            mapping[var] = new.and_(map_lit(gate.fanin0), map_lit(gate.fanin1))
            continue
        # Duplicate literals collapse (x & x); complementary pairs make the
        # conjunction false, which and_ simplification handles.
        ordered = sorted(set(leaves))
        acc = map_lit(ordered[0])
        for leaf in ordered[1:]:
            acc = new.and_(acc, map_lit(leaf))
        mapping[var] = acc

    for lit, name in zip(aig.outputs, aig.output_names):
        new.add_output(map_lit(lit), name)
    return new.cleanup()
