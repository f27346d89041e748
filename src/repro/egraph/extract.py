"""Generic e-graph extraction: pick one representative e-node per e-class.

Two extractors are provided here:

* :class:`TreeCostExtractor` — the classic egg-style bottom-up extractor with
  an additive scalar cost per operator (tree cost, shared sub-expressions are
  counted once per use).
* helpers to materialise the chosen representatives into ordinary nested
  expressions and to count operators.

The BoolE-specific DAG extractor that maximises the number of exact full
adders lives in :mod:`repro.core.extraction`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .egraph import EGraph
from .enode import ENode, Op

__all__ = [
    "CostFunction",
    "ExtractionChoice",
    "ExtractionResult",
    "TreeCostExtractor",
    "DEFAULT_OP_COSTS",
    "default_cost",
    "node_tiebreak_key",
    "expr_of",
    "count_ops",
]

CostFunction = Callable[[ENode, Sequence[float]], float]

#: Default per-operator costs used by the tree extractor.  Structural
#: operators that BoolE wants to surface (FA, XOR3, MAJ) are slightly cheaper
#: than re-expressing them through AND/NOT gates.
DEFAULT_OP_COSTS: Dict[str, float] = {
    Op.VAR: 0.0,
    Op.CONST: 0.0,
    Op.NOT: 0.25,
    Op.AND: 1.0,
    Op.OR: 1.0,
    Op.NAND: 1.0,
    Op.NOR: 1.0,
    Op.XOR: 1.0,
    Op.XNOR: 1.0,
    Op.XOR3: 1.5,
    Op.MAJ: 1.5,
    Op.FA: 0.5,
    Op.HA: 0.5,
    Op.FST: 0.0,
    Op.SND: 0.0,
}


def default_cost(node: ENode, child_costs: Sequence[float]) -> float:
    """Additive cost: per-op weight plus the cost of the chosen children."""
    return DEFAULT_OP_COSTS.get(node.op, 1.0) + sum(child_costs)


@dataclass
class ExtractionChoice:
    """The selected e-node and cost for one e-class."""

    cost: float
    node: ENode


def node_tiebreak_key(egraph: EGraph, node: ENode):
    """Deterministic order among equal-cost extraction candidates.

    Compares by operator name, then the children's stable insertion seqs,
    then the payload rendered as text.  Breaking cost ties with this key
    (instead of keeping whichever node iterated first) makes extracted
    netlists identical across runs and engines.
    """
    return (node.op, tuple(egraph.seq(child) for child in node.children),
            str(node.payload))


def worklist_tables(egraph: EGraph):
    """The deterministic setup scan of :class:`TreeCostExtractor`.

    Returns ``(class_list, nodes, owner, children, tiebreak, waiting,
    users)``: canonical class ids in seq order; the e-nodes flattened in
    (class seq, ``enode_sort_key``) order with their owning class
    position, child class positions and precomputed tie-break keys; the
    per-node count of distinct unresolved child classes (Kahn in-degrees);
    and the node-level dependency index — child class position → the node
    ids that reference it, in insertion order, so propagation walks users
    deterministically.  It decodes every e-node, because a cost function
    takes an :class:`ENode`; :class:`repro.core.extraction.BoolEExtractor`
    builds the same tables from the dense engine's int columns instead.
    """
    class_list = [egraph.find(eclass.id) for eclass in egraph.classes()]
    class_index = {class_id: index
                   for index, class_id in enumerate(class_list)}
    nodes: List[ENode] = []
    owner: List[int] = []
    children: List[Tuple[int, ...]] = []
    tiebreak: List[Tuple] = []
    waiting: List[int] = []
    users: List[List[int]] = [[] for _ in class_list]
    find = egraph.find
    for class_position, class_id in enumerate(class_list):
        for node in egraph.enodes(class_id):
            node_id = len(nodes)
            nodes.append(node)
            owner.append(class_position)
            tiebreak.append(node_tiebreak_key(egraph, node))
            child_positions = tuple(class_index[find(child)]
                                    for child in node.children)
            children.append(child_positions)
            seen = set()
            for child_position in child_positions:
                if child_position not in seen:
                    seen.add(child_position)
                    users[child_position].append(node_id)
            waiting.append(len(seen))
    return class_list, nodes, owner, children, tiebreak, waiting, users


@dataclass
class ExtractionResult:
    """Result of extraction: one chosen e-node per reachable e-class."""

    egraph: EGraph
    choices: Dict[int, ExtractionChoice] = field(default_factory=dict)

    def choice(self, class_id: int) -> ExtractionChoice:
        """Return the choice for (the canonical class of) ``class_id``."""
        return self.choices[self.egraph.find(class_id)]

    def has_choice(self, class_id: int) -> bool:
        """True if extraction reached ``class_id``."""
        return self.egraph.find(class_id) in self.choices

    def node_of(self, class_id: int) -> ENode:
        """Return the chosen e-node of a class."""
        return self.choice(class_id).node

    def reachable_classes(self, roots: Sequence[int]) -> List[int]:
        """Return all classes reachable from ``roots`` through chosen nodes."""
        seen: List[int] = []
        seen_set = set()
        stack = [self.egraph.find(root) for root in roots]
        while stack:
            class_id = stack.pop()
            if class_id in seen_set:
                continue
            seen_set.add(class_id)
            seen.append(class_id)
            node = self.node_of(class_id)
            for child in node.children:
                stack.append(self.egraph.find(child))
        return seen


class TreeCostExtractor:
    """Classic bottom-up extractor minimising an additive tree cost.

    Like :class:`repro.core.extraction.BoolEExtractor`, the fixpoint runs on
    a topological (Kahn) worklist over e-nodes with a node-level dependency
    index instead of repeated full passes over every class: an e-node is
    evaluated once all its child classes have a choice, and an improved
    class re-evaluates only the e-nodes that reference it.  The fixpoint it
    reaches is identical to the old repeated-full-pass loop (kept as
    ``repro.core.extraction_reference.reference_tree_extract`` and
    property-tested against it).
    """

    def __init__(self, cost_function: Optional[CostFunction] = None) -> None:
        self.cost_function = cost_function or default_cost

    def extract(self, egraph: EGraph,
                roots: Optional[Sequence[int]] = None) -> ExtractionResult:
        """Compute the minimum-cost representative for every e-class.

        ``roots`` is accepted for interface parity with the DAG extractor but
        the computation is global (costs are per-class).
        """
        egraph.rebuild()
        result = ExtractionResult(egraph=egraph)
        cost_function = self.cost_function

        (class_list, nodes, owner, children, tiebreak, waiting,
         users) = worklist_tables(egraph)

        best_cost: List[float] = [0.0] * len(class_list)
        choice: List[int] = [-1] * len(class_list)

        queue = deque(node_id for node_id in range(len(nodes))
                      if not waiting[node_id])
        queued = bytearray(len(nodes))
        while queue:
            node_id = queue.popleft()
            queued[node_id] = 0
            cost = cost_function(nodes[node_id],
                                 [best_cost[child_position]
                                  for child_position in children[node_id]])
            class_position = owner[node_id]
            current = choice[class_position]
            if current < 0:
                better = True
            elif cost < best_cost[class_position] - 1e-12:
                better = True
            elif cost <= best_cost[class_position]:
                # Equal-or-lower cost: break the tie deterministically
                # rather than keeping whichever node evaluated first.  The
                # band must not admit cost increases — an epsilon-above
                # acceptance would let three nodes a few ulps apart beat
                # each other cyclically and spin the fixpoint forever;
                # requiring cost <= best keeps (cost, tiebreak) strictly
                # decreasing, so the loop terminates.
                better = tiebreak[node_id] < tiebreak[current]
            else:
                better = False
            if not better:
                continue
            propagate = current < 0 or cost != best_cost[class_position]
            best_cost[class_position] = cost
            choice[class_position] = node_id
            if current < 0:
                for user in users[class_position]:
                    remaining = waiting[user] - 1
                    waiting[user] = remaining
                    if not remaining and not queued[user]:
                        queued[user] = 1
                        queue.append(user)
            elif propagate:
                for user in users[class_position]:
                    if not waiting[user] and not queued[user]:
                        queued[user] = 1
                        queue.append(user)

        choices = result.choices
        for class_position, class_id in enumerate(class_list):
            node_id = choice[class_position]
            if node_id >= 0:
                choices[class_id] = ExtractionChoice(
                    cost=best_cost[class_position], node=nodes[node_id])
        return result


def expr_of(result: ExtractionResult, class_id: int, _depth: int = 0):
    """Materialise the extracted expression of ``class_id`` as nested tuples.

    Variables become their name string, constants become booleans, and
    operator nodes become ``(op, child_expr, ...)`` tuples.  Shared structure
    is duplicated (tree view); use :meth:`ExtractionResult.reachable_classes`
    for DAG-aware processing.
    """
    node = result.node_of(class_id)
    if node.op == Op.VAR:
        return node.payload
    if node.op == Op.CONST:
        return bool(node.payload)
    return tuple([node.op] + [expr_of(result, child) for child in node.children])


def count_ops(result: ExtractionResult, roots: Sequence[int]) -> Dict[str, int]:
    """Count chosen operators over the DAG reachable from ``roots``."""
    counts: Dict[str, int] = {}
    for class_id in result.reachable_classes(roots):
        op = result.node_of(class_id).op
        counts[op] = counts.get(op, 0) + 1
    return counts
