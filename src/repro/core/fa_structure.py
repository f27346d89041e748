"""Multi-output full-adder structure insertion and counting.

Standard e-graphs only support single-output operators.  BoolE models the
multi-output full adder by pairing XOR3 and MAJ e-nodes that share exactly
the same input e-classes: an ``fa`` tuple node is inserted, and ``fst`` /
``snd`` projection nodes are unioned with the carry (MAJ) and sum (XOR3)
classes respectively (Figure 3 of the paper).  Extraction then treats the
``fa``/``fst``/``snd`` triple as an atomic unit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

from ..egraph import EGraph, ENode, MatchPlan, Op, compile_pattern, parse_pattern

__all__ = ["FAPair", "FAInsertionReport", "insert_fa_structures", "count_npn_fa_pairs"]

#: The only operators pairing and the NPN count read.  Both engines answer
#: these plans with candidate classes in seq order and each class's nodes
#: in ``enode_sort_key`` order, so the rows arrive in the order of a full
#: ``classes()`` × ``enodes()`` scan without decoding any other node.
_XOR3 = compile_pattern(parse_pattern(f"({Op.XOR3} ?a ?b ?c)"))
_MAJ = compile_pattern(parse_pattern(f"({Op.MAJ} ?a ?b ?c)"))
_NOT = compile_pattern(parse_pattern(f"({Op.NOT} ?x)"))


def _input_triples(egraph: EGraph, plan: MatchPlan,
                   rename: Optional[Callable[[int], int]] = None
                   ) -> Iterator[Tuple[int, Tuple[int, int, int]]]:
    """``(class, sorted inputs)`` of every ``plan`` node over three distinct
    input classes (after ``rename``), in match order.  A node with a
    repeated input is a degenerate block, not a full adder."""
    for root, *inputs in egraph.search_rows(plan):
        a, b, c = sorted(inputs if rename is None else map(rename, inputs))
        if a < b < c:
            yield root, (a, b, c)


@dataclass(frozen=True)
class FAPair:
    """A paired XOR3/MAJ discovery forming one exact full adder.

    Attributes:
        inputs: the three shared input e-class ids (sorted, canonical at
            insertion time).
        sum_class: e-class holding the XOR3 (sum) signal.
        carry_class: e-class holding the MAJ (carry) signal.
        fa_class: e-class of the inserted ``fa`` tuple node.
    """

    inputs: Tuple[int, int, int]
    sum_class: int
    carry_class: int
    fa_class: int


@dataclass
class FAInsertionReport:
    """Result of the FA pairing pass."""

    pairs: List[FAPair] = field(default_factory=list)

    @property
    def num_exact_fas(self) -> int:
        """Number of exact FA structures inserted into the e-graph."""
        return len(self.pairs)


def insert_fa_structures(egraph: EGraph) -> FAInsertionReport:
    """Pair XOR3/MAJ e-nodes with identical inputs and insert FA structures.

    Returns the list of inserted pairs, ordered by the stable insertion seq
    of the sum (XOR3) class so counting and reporting are deterministic.
    The e-graph is rebuilt afterwards.
    """
    egraph.rebuild()
    # Rows come in seq order, so ``setdefault`` keeps the earliest class
    # per input triple whatever the hash seed.
    xor_by_inputs: Dict[Tuple[int, int, int], int] = {}
    for class_id, key in _input_triples(egraph, _XOR3):
        xor_by_inputs.setdefault(key, class_id)
    maj_by_inputs: Dict[Tuple[int, int, int], int] = {}
    for class_id, key in _input_triples(egraph, _MAJ):
        maj_by_inputs.setdefault(key, class_id)

    report = FAInsertionReport()
    for key, sum_class in sorted(
            xor_by_inputs.items(),
            key=lambda item: (egraph.seq(item[1]), item[0])):
        carry_class = maj_by_inputs.get(key)
        if carry_class is None:
            continue
        fa_class = egraph.add(ENode(Op.FA, key))
        fst_class = egraph.add(ENode(Op.FST, (fa_class,)))
        snd_class = egraph.add(ENode(Op.SND, (fa_class,)))
        egraph.union(fst_class, carry_class)
        egraph.union(snd_class, sum_class)
        report.pairs.append(FAPair(
            inputs=key,
            sum_class=egraph.find(sum_class),
            carry_class=egraph.find(carry_class),
            fa_class=egraph.find(fa_class),
        ))
    egraph.rebuild()
    return report


def count_npn_fa_pairs(egraph: EGraph) -> int:
    """Count FA structures up to NPN equivalence of their inputs.

    Two discoveries whose input classes agree modulo complementation (an input
    arriving in the opposite polarity) describe the same NPN full adder; this
    is the quantity Figure 4 reports as "NPN FAs" for BoolE.
    """
    egraph.rebuild()
    # Each class maps to the class of its complement, where one exists; a
    # class's own NOT node wins over a NOT that points at it.
    complements: Dict[int, int] = {}
    for class_id, child in egraph.search_rows(_NOT):
        complements[class_id] = child
        complements.setdefault(child, class_id)

    def canonical_input(class_id: int) -> int:
        other = complements.get(class_id)
        if other is None:
            return class_id
        return min(class_id, other)

    xor_keys: Set[Tuple[int, int, int]] = {
        key for _, key in _input_triples(egraph, _XOR3, canonical_input)}
    maj_keys: Set[Tuple[int, int, int]] = {
        key for _, key in _input_triples(egraph, _MAJ, canonical_input)}
    return len(xor_keys & maj_keys)
