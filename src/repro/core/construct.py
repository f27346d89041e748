"""AIG → e-graph construction (Algorithm 1 of the paper).

Nodes are inserted in topological order (leaves first) so that every child
e-class exists before its parent e-node, exactly as Algorithm 1 requires.
The construction records the correspondence between e-classes and original
netlist literals so downstream consumers (reports, the verification bridge)
can map recovered structures back to circuit signals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, List, Optional, Tuple

from ..aig import AIG, lit_is_compl, lit_not, lit_var
from ..egraph import EGraph, ENode, Op
from ..egraph.dense import NodeTable

__all__ = ["ConstructionResult", "DeferredEGraph", "PlannedConstruction",
           "aig_to_egraph", "planned_construction"]


class DeferredEGraph:
    """An ``egraph`` attribute that may be loaded on first access.

    A fully warm pipeline run serves its answer from the extraction
    artifact alone, and a snapshot-warm one extracts on the snapshot's
    :class:`~repro.egraph.dense.NodeTable`; the saturated e-graph that
    answer refers to stays in the store until a caller reads ``egraph``,
    which then calls the loader once (see :meth:`defer_egraph`).
    """

    _egraph: Optional[EGraph] = None
    _load_egraph: Optional[Callable[[], EGraph]] = None
    #: The graph's read-only node table, when one is at hand: derived
    #: state, never serialized.
    node_table: Optional[NodeTable] = None

    @property
    def egraph(self) -> EGraph:
        if self._egraph is None:
            if self._load_egraph is None:
                raise AttributeError("no e-graph is attached")
            self._egraph = self._load_egraph()
            self._load_egraph = None
        return self._egraph

    @egraph.setter
    def egraph(self, egraph: EGraph) -> None:
        self._egraph = egraph
        self._load_egraph = None

    @property
    def egraph_loaded(self) -> bool:
        """True once the e-graph is in memory (no loader left to call)."""
        return self._egraph is not None

    def defer_egraph(self, load: Callable[[], EGraph]) -> None:
        """Drop the e-graph; ``load()`` supplies it on the next access."""
        self._egraph = None
        self._load_egraph = load


@dataclass
class ConstructionResult(DeferredEGraph):
    """The e-graph built from an AIG plus signal bookkeeping.

    Attributes:
        egraph: the constructed e-graph (loaded on first access when the
            construction was restored from an extraction artifact, see
            :class:`DeferredEGraph`).
        aig: the source netlist.
        class_of_var: map from AIG variable index to its e-class id (as
            created; call ``egraph.find`` before using after saturation).
        output_classes: e-class ids of the primary-output signals, in output
            order (complemented outputs get an explicit NOT class).
        literal_classes: map from AIG literal to the e-class created for it
            (positive literals always present; complemented ones when used).
    """

    egraph: EGraph = field(repr=False, compare=False)
    aig: AIG
    class_of_var: Dict[int, int] = field(default_factory=dict)
    output_classes: List[int] = field(default_factory=list)
    literal_classes: Dict[int, int] = field(default_factory=dict)

    def class_of_literal(self, lit: int) -> int:
        """Return (creating if needed) the e-class of an AIG literal."""
        existing = self.literal_classes.get(lit)
        if existing is not None:
            return self.egraph.find(existing)
        var_class = self.egraph.find(self.class_of_var[lit_var(lit)])
        if not lit_is_compl(lit):
            return var_class
        not_class = self.egraph.add(ENode(Op.NOT, (var_class,)))
        self.literal_classes[lit] = not_class
        return not_class

    def literal_of_class(self, class_id: int) -> Optional[int]:
        """Return an original AIG literal equivalent to ``class_id``, if any."""
        target = self.egraph.find(class_id)
        for lit, recorded in self.literal_classes.items():
            if self.egraph.find(recorded) == target:
                return lit
        return None


#: How a construction walk inserts one node: ``add(op, children, payload)``
#: returns the class id of the node.
AddNode = Callable[[str, Tuple[int, ...], Hashable], int]


def _construction_walk(aig: AIG, add: AddNode
                       ) -> Tuple[Dict[int, int], Dict[int, int], List[int]]:
    """Insert ``aig`` node by node through ``add`` (Algorithm 1).

    The order is the constant, the inputs, the gates from leaves to roots
    (creation order is topological), then the outputs; a complemented
    fanin gets an explicit ``~`` node the first time it is used.  Returns
    ``(class_of_var, literal_classes, output_classes)``.
    """
    class_of_var: Dict[int, int] = {}
    literal_classes: Dict[int, int] = {}

    const_class = add(Op.CONST, (), False)
    class_of_var[0] = const_class
    literal_classes[0] = const_class
    literal_classes[1] = add(Op.NOT, (const_class,), None)

    for var in aig.inputs:
        class_id = add(Op.VAR, (), aig.input_names[var])
        class_of_var[var] = class_id
        literal_classes[2 * var] = class_id

    def literal_class(lit: int) -> int:
        positive = 2 * lit_var(lit)
        base = literal_classes[positive]
        if not lit_is_compl(lit):
            return base
        key = lit_not(positive)
        existing = literal_classes.get(key)
        if existing is None:
            existing = add(Op.NOT, (base,), None)
            literal_classes[key] = existing
        return existing

    for gate in aig.topological_gates():
        child0 = literal_class(gate.fanin0)
        child1 = literal_class(gate.fanin1)
        class_id = add(Op.AND, (child0, child1), None)
        class_of_var[gate.out_var] = class_id
        literal_classes[2 * gate.out_var] = class_id

    output_classes = [literal_class(lit) for lit in aig.outputs]
    return class_of_var, literal_classes, output_classes


def aig_to_egraph(aig: AIG) -> ConstructionResult:
    """Build an e-graph from an AIG (Algorithm 1).

    Every AND gate becomes an ``&`` e-node whose children are the fanin
    classes (with explicit ``~`` e-nodes for complemented fanin edges);
    primary inputs become variable leaves and the constant becomes a constant
    leaf.
    """
    egraph = EGraph()
    class_of_var, literal_classes, output_classes = _construction_walk(
        aig, lambda op, children, payload: egraph.add(
            ENode(op, children, payload)))
    egraph.rebuild()
    return ConstructionResult(egraph=egraph, aig=aig,
                              class_of_var=class_of_var,
                              output_classes=output_classes,
                              literal_classes=literal_classes)


@dataclass
class PlannedConstruction:
    """Construction-time class ids predicted without building an e-graph.

    The planner needs ``output_classes`` (they participate in the
    extraction cache key) but must not pay for — or mutate — an actual
    e-graph.  Construction performs no unions, so ``EGraph.add`` degrades
    to a hashcons lookup plus a sequential id counter, which a plain dict
    reproduces exactly; see :func:`planned_construction`.
    """

    aig: AIG
    output_classes: List[int] = field(default_factory=list)
    #: Total number of e-classes construction would create.
    num_classes: int = 0


def planned_construction(aig: AIG) -> PlannedConstruction:
    """Predict :func:`aig_to_egraph`'s construction-time ids, e-graph-free.

    Runs the same walk as :func:`aig_to_egraph` against a dict keyed on
    ``(op, children, payload)`` — the same identity the e-graph's hashcons
    uses before any union happens.  The returned ``output_classes`` are
    bit-identical to the real construction's, so extraction cache keys
    computed from a plan match execution's.
    """
    hashcons: Dict[tuple, int] = {}

    def add(op: str, children: Tuple[int, ...], payload: Hashable) -> int:
        return hashcons.setdefault((op, children, payload), len(hashcons))

    _, _, output_classes = _construction_walk(aig, add)
    return PlannedConstruction(aig=aig, output_classes=output_classes,
                               num_classes=len(hashcons))
