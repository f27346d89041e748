"""E-node representation and the Boolean operator vocabulary used by BoolE.

An e-node is an operator applied to an ordered tuple of e-class ids (the
labelling function ``lambda`` of the paper's e-graph definition).  Leaf
operators carry a payload (a variable name or a constant value) and have no
children.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Optional, Tuple

__all__ = ["ENode", "Op", "OPERATOR_ARITIES", "SORTED_OPS", "is_leaf_op"]


class Op:
    """Canonical operator names used across the BoolE reproduction."""

    VAR = "var"      # leaf: named Boolean variable
    CONST = "const"  # leaf: Boolean constant (payload True/False)
    NOT = "~"
    AND = "&"
    OR = "|"
    XOR = "^"
    XNOR = "xnor"
    NAND = "nand"
    NOR = "nor"
    XOR3 = "xor3"
    MAJ = "maj"
    FA = "fa"        # multi-output full adder over (a, b, c)
    FST = "fst"      # projection: carry output of an FA tuple
    SND = "snd"      # projection: sum output of an FA tuple
    HA = "ha"        # multi-output half adder over (a, b) (extension)


#: Expected operator arities; used for validation when building e-nodes.
OPERATOR_ARITIES = {
    Op.VAR: 0,
    Op.CONST: 0,
    Op.NOT: 1,
    Op.AND: 2,
    Op.OR: 2,
    Op.XOR: 2,
    Op.XNOR: 2,
    Op.NAND: 2,
    Op.NOR: 2,
    Op.XOR3: 3,
    Op.MAJ: 3,
    Op.FA: 3,
    Op.HA: 2,
    Op.FST: 1,
    Op.SND: 1,
}


#: Symmetric operators that a rule's right-hand side always builds over its
#: children sorted by canonical class id (the paper's redundancy pruning,
#: optimisation trick 3): two discoveries of one function in different
#: child orders then meet in one node by hash-consing, with no permutation
#: rules.
SORTED_OPS = frozenset({Op.XOR3, Op.MAJ})


def is_leaf_op(op: str) -> bool:
    """Return True for operators that carry a payload and take no children."""
    return op in (Op.VAR, Op.CONST)


_new = object.__new__
_set = object.__setattr__


@dataclass(frozen=True)
class ENode:
    """An operator applied to child e-classes.

    Attributes:
        op: operator name (one of :class:`Op` or any user-defined symbol).
        children: ordered tuple of child e-class ids.
        payload: leaf payload (variable name or constant value), None for
            internal operators.
    """

    op: str
    children: Tuple[int, ...] = ()
    payload: Optional[Hashable] = None

    def __post_init__(self) -> None:
        expected = OPERATOR_ARITIES.get(self.op)
        if expected is not None and expected != len(self.children):
            raise ValueError(
                f"operator {self.op!r} expects {expected} children, "
                f"got {len(self.children)}")

    @classmethod
    def unchecked(cls, op: str, children: Tuple[int, ...],
                  payload: Optional[Hashable]) -> "ENode":
        """Build a node whose arity the caller has already checked (a
        decoded node column): the same object, without
        :meth:`__post_init__`."""
        node = _new(cls)
        _set(node, "op", op)
        _set(node, "children", children)
        _set(node, "payload", payload)
        return node

    def canonicalize(self, find) -> "ENode":
        """Return a copy whose children are canonical e-class ids."""
        if not self.children:
            return self
        new_children = tuple(find(child) for child in self.children)
        if new_children == self.children:
            return self
        return ENode(self.op, new_children, self.payload)

    def __str__(self) -> str:
        if self.op == Op.VAR:
            return str(self.payload)
        if self.op == Op.CONST:
            return "1" if self.payload else "0"
        inner = " ".join(str(child) for child in self.children)
        return f"({self.op} {inner})"
