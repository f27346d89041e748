"""BoolE's DAG-based exact extraction (Algorithm 2) and netlist reconstruction.

The extractor chooses one e-node per reachable e-class so that the number of
distinct exact full adders in the extracted DAG is maximised (the paper's
cost function assigns -1 to every exact-FA node); ties are broken towards
smaller expressions.  Shared full adders are counted once because the cost of
a class carries the *set* of FA classes used underneath it, not a scalar —
this is the "DAG based extraction" that prevents double counting.

``fa``/``fst``/``snd`` triples are atomic: the projection nodes have zero own
cost and simply propagate the FA set of the tuple node, so selecting a sum
projection always selects the full adder it belongs to.

Performance and semantics (ISSUE 4 rewrite — the warm-store hot path):

* **Bitmask FA sets.**  The FA-bearing e-classes are enumerated once up
  front into dense bit positions (``BoolEExtraction.fa_index``, seq order),
  so every per-entry FA set is an arbitrary-precision ``int``: union is
  ``|``, the cost key is ``-mask.bit_count()`` and the refresh check is an
  int compare.  The old per-entry ``frozenset`` unions dominated the whole
  extraction profile on wide multipliers.  ``CostEntry.fa_classes`` decodes
  the mask back to a frozenset, so the observable API is unchanged.
* **Topological worklist.**  Instead of seeding every class into a LIFO
  fixpoint, a Kahn pass over the child→parent DAG evaluates each e-node
  once all its children are resolved; classes on cycles fall out to the
  same queue when an improvement reaches them.  The dependency index is
  *node-level* (child class → the e-nodes that reference it, in
  deterministic insertion order): an improved class re-evaluates only the
  nodes that actually consume it, not every node of every parent class.
* **Value repair.**  A final bottom-up pass over the chosen-node DAG
  recomputes every (mask, size) from the final child entries, so stored
  values are exactly what reconstruction materialises and
  ``num_exact_fas`` always matches the FA block count.  The pre-rewrite
  implementation (kept verbatim in
  :mod:`repro.core.extraction_reference` as the oracle/baseline) shipped
  *stale* values instead: a child refresh could shrink the FA union a
  parent's entry was computed from while the accept-only-improvements
  rule kept the optimistic key forever — on the 16-bit CSA it claimed
  267 root FAs over a netlist that contains 161.
* **Int tables.**  Operators, children, costs and tie-break keys come
  from a :class:`~repro.egraph.dense.NodeTable`: a live graph's
  (:meth:`~repro.egraph.DenseEGraph.node_table`) on a cold run, or one
  read straight off the saturated snapshot's columns
  (:func:`~repro.egraph.dense.read_node_table`) on a warm one, so a warm
  job never builds the mutable graph.  An :class:`ENode` is decoded only
  for each class's chosen node.  The same fixpoint over decoded
  ``ENode`` tables is the oracle in ``tests/enode_scans.py``.

Results are deterministic across ``PYTHONHASHSEED`` values and agree with
the reference entry-for-entry wherever the reference is self-consistent;
measured FA recovery and the quality comparison against the reference's
(scheduling-lottery) stale numbers are recorded in
``docs/performance.md``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import chain, compress, islice, repeat
from operator import sub
from typing import (Callable, Dict, FrozenSet, Iterable, List, Optional,
                    Sequence, Set, Tuple, Union)

from ..aig import AIG
from ..egraph import EGraph, ENode, Op, as_engine
from ..egraph.dense import NodeTable
from .construct import ConstructionResult, DeferredEGraph

__all__ = ["CostEntry", "BoolEExtraction", "BoolEExtractor", "FABlockRecord",
           "reconstruct_aig"]

_SIZE_CAP = 10**9


@dataclass(slots=True)
class CostEntry:
    """Best known extraction choice for one e-class.

    ``fa_mask`` is the set of distinct exact-FA classes used underneath the
    choice, encoded as a bitmask over ``fa_index`` (bit *i* set ⇔
    ``fa_index[i]`` is used).  ``fa_classes`` decodes it on demand.
    """

    fa_mask: int
    size: int
    node: ENode
    fa_index: Tuple[int, ...] = ()

    @property
    def fa_classes(self) -> FrozenSet[int]:
        """The FA e-class ids encoded in :attr:`fa_mask`."""
        mask = self.fa_mask
        index = self.fa_index
        classes = []
        while mask:
            low = mask & -mask
            classes.append(index[low.bit_length() - 1])
            mask ^= low
        return frozenset(classes)

    def key(self) -> Tuple[int, int]:
        """Lexicographic cost: maximise FAs, then minimise size."""
        return (-self.fa_mask.bit_count(), self.size)


@dataclass
class BoolEExtraction(DeferredEGraph):
    """Result of the DAG extraction: one cost entry per reachable e-class.

    ``fa_index`` maps bitmask positions back to FA e-class ids (shared by
    every entry's :attr:`CostEntry.fa_mask`).  ``egraph`` is the graph the
    entries' class ids refer to; an extraction restored from the store, or
    computed on a snapshot's node table, loads it on first access
    (:class:`~repro.core.construct.DeferredEGraph`).  ``node_table`` is
    the table the extraction was computed on, so :attr:`find` answers
    without the graph.
    """

    egraph: EGraph = field(repr=False, compare=False)
    entries: Dict[int, CostEntry] = field(default_factory=dict)
    fa_index: Tuple[int, ...] = ()

    @property
    def find(self) -> Callable[[int], int]:
        """The union-find of the graph the entries refer to: the node
        table's when there is one, else the (loaded) graph's."""
        table = self.node_table
        return table.find if table is not None else self.egraph.find

    def entry(self, class_id: int) -> CostEntry:
        """Return the entry for (the canonical class of) ``class_id``."""
        return self.entries[self.find(class_id)]

    def raw_entry(self, class_id: int) -> CostEntry:
        """Return the entry of an already-canonical class id.

        Skips the union-find lookup of :meth:`entry`; hot callers that have
        just canonicalized (reconstruction, cache serialization) use this to
        avoid paying ``find`` twice per class.
        """
        return self.entries[class_id]

    def num_exact_fas(self, roots: Sequence[int]) -> int:
        """Number of distinct FAs used by the extraction of ``roots``."""
        mask = 0
        find = self.find
        entries = self.entries
        for root in roots:
            entry = entries.get(find(root))
            if entry is not None:
                mask |= entry.fa_mask
        return mask.bit_count()


class BoolEExtractor:
    """DAG cost extractor maximising the number of exact full adders.

    Args:
        node_cost: per-operator base costs (participates in the extraction
            cache key).
        refine_rounds: bounded choose→repair refinement iterations after
            the first pass.  The greedy fixpoint keeps *repaired* (true)
            values, so re-running the propagation from them can discover
            choices the optimistic first pass missed (the "unapplied
            improvement" headroom of ``docs/performance.md``); each round
            re-seeds every resolved e-node, propagates, repairs, and the
            round with the best materialised FA count at the extraction
            roots wins.  Rounds stop early once a sweep changes nothing.
            ``0`` (default) keeps the single-pass behaviour exactly.
    """

    def __init__(self, node_cost: Optional[Dict[str, int]] = None, *,
                 refine_rounds: int = 0) -> None:
        self.node_cost = node_cost or {
            Op.VAR: 0, Op.CONST: 0, Op.FST: 0, Op.SND: 0,
            Op.NOT: 1, Op.AND: 1, Op.OR: 1, Op.XOR: 1, Op.XNOR: 1,
            Op.NAND: 1, Op.NOR: 1, Op.XOR3: 2, Op.MAJ: 2, Op.FA: 2, Op.HA: 1,
        }
        if refine_rounds < 0:
            raise ValueError("refine_rounds must be >= 0")
        self.refine_rounds = refine_rounds

    def extract(self, source: Union[NodeTable, EGraph],
                roots: Optional[Sequence[int]] = None, *,
                start: Optional[BoolEExtraction] = None) -> BoolEExtraction:
        """Run the bottom-up cost propagation (Algorithm 2).

        A topological (Kahn) first pass evaluates each e-node as soon as all
        of its child classes have entries; later improvements re-enter the
        same queue but touch only the nodes that reference the improved
        class.  Every table is built from a
        :class:`~repro.egraph.dense.NodeTable`'s int columns (classes in
        seq order, nodes in ``enode_sort_key`` order), so the pass is
        independent of ``PYTHONHASHSEED`` and decodes an :class:`ENode`
        only for each class's chosen node.  ``source`` is that table, or a
        graph: it is rebuilt and its
        :meth:`~repro.egraph.DenseEGraph.node_table` taken (an
        object-engine graph is converted with
        :func:`~repro.egraph.as_engine` first), and the result keeps the
        graph it was given.  A result computed on a table carries no graph
        (the caller attaches one, or a loader).

        ``start`` is a single-pass (``refine_rounds=0``) extraction of the
        same graph under the same cost table, such as the stored one a
        warm run finds: its entries are the first pass's choices and
        repaired values, so the refinement rounds start from them instead
        of recomputing the pass.  The first pass is deterministic, so the
        result is identical; a ``start`` that does not fit the graph (a
        different ``fa_index``, a class or chosen node the graph lacks) is
        ignored.
        """
        egraph: Optional[EGraph] = None
        if isinstance(source, NodeTable):
            table = source
        else:
            egraph = source
            egraph.rebuild()
            table = as_engine(egraph, "dense").node_table()

        # ---- one deterministic setup pass over the int columns ----------
        # Extractor node ``i`` is graph node ``graph_nodes[i]``; classes
        # are addressed by their position in seq order.
        class_list = table.class_ids
        num_classes = len(class_list)
        graph_nodes = table.nodes
        num_nodes = len(graph_nodes)
        class_off = table.class_off
        owner: List[int] = list(chain.from_iterable(map(
            repeat, range(num_classes),
            map(sub, islice(class_off, 1, None), class_off))))
        node_op = list(map(table.node_op.__getitem__, graph_nodes))
        node_off = table.node_off
        node_child = table.node_child
        class_index = dict(zip(class_list, range(num_classes)))
        position_of = class_index.__getitem__
        children: List[Tuple[int, ...]] = [
            tuple(map(position_of,
                      node_child[node_off[node]:node_off[node + 1]]))
            for node in graph_nodes]
        # node_tiebreak_key from the columns: (op name, child seqs,
        # payload text).
        op_names = table.op_names
        seqs = table.class_seqs.__getitem__
        payload_text = [str(payload) for payload in table.payloads]
        node_payload = table.node_payload
        tiebreak: List[Tuple] = [
            (op_names[op_id], tuple(map(seqs, kids)),
             payload_text[node_payload[node]])
            for node, op_id, kids in zip(graph_nodes, node_op, children)]
        base_of_op = [self.node_cost.get(name, 1) for name in op_names]
        base: List[int] = list(map(base_of_op.__getitem__, node_op))
        # FA-bearing classes enumerated into dense bit positions in node
        # order, which is (class seq, node sort) order.
        fa_index: List[int] = []      # bit position -> FA class id
        fa_self_bit: List[int] = [0] * num_nodes
        if Op.FA in op_names:
            fa_bit_of_class: Dict[int, int] = {}
            for node_id in compress(range(num_nodes), map(
                    op_names.index(Op.FA).__eq__, node_op)):
                class_position = owner[node_id]
                bit = fa_bit_of_class.get(class_position)
                if bit is None:
                    bit = fa_bit_of_class[class_position] = 1 << len(fa_index)
                    fa_index.append(class_list[class_position])
                fa_self_bit[node_id] = bit
        # Kahn in-degrees (distinct child classes) and the node-level
        # dependency index: child class -> the nodes that read it, in node
        # order.
        waiting: List[int] = [0] * num_nodes
        users: List[List[int]] = [[] for _ in range(num_classes)]
        for node_id, kids in enumerate(children):
            if kids:
                distinct = set(kids) if len(kids) > 1 else kids
                waiting[node_id] = len(distinct)
                for child_position in distinct:
                    users[child_position].append(node_id)

        # ---- cost propagation -------------------------------------------
        # Best entry per class as parallel arrays (choice < 0 = no entry);
        # ``best_count`` caches ``best_mask[i].bit_count()``.
        best_mask: List[int] = [0] * num_classes
        best_size: List[int] = [0] * num_classes
        best_count: List[int] = [0] * num_classes
        choice: List[int] = [-1] * num_classes

        def evaluate(node_id: int) -> Tuple[int, int]:
            mask = fa_self_bit[node_id]
            size = base[node_id]
            for child_position in children[node_id]:
                mask |= best_mask[child_position]
                size += best_size[child_position]
            return mask, (size if size <= _SIZE_CAP else _SIZE_CAP)

        def propagate(seeds: Iterable[int]) -> bool:
            """Run the worklist fixpoint from ``seeds``; True if anything
            was accepted.  The hot loop inlines :func:`evaluate`."""
            queue = deque(seeds)
            queued = bytearray(num_nodes)
            for node_id in queue:
                queued[node_id] = 1
            popleft = queue.popleft
            append = queue.append
            changed = False
            while queue:
                node_id = popleft()
                queued[node_id] = 0
                mask = fa_self_bit[node_id]
                size = base[node_id]
                for child_position in children[node_id]:
                    mask |= best_mask[child_position]
                    size += best_size[child_position]
                if size > _SIZE_CAP:
                    size = _SIZE_CAP
                count = mask.bit_count()
                class_position = owner[node_id]
                current = choice[class_position]
                if current >= 0:
                    current_count = best_count[class_position]
                    current_size = best_size[class_position]
                    if count != current_count:
                        if count < current_count:
                            continue
                    elif size != current_size:
                        if size > current_size:
                            continue
                    elif node_id == current:
                        # Same choice, but a child's tie-break swap changed
                        # *which* FA classes flow up while keeping their
                        # count; store the refreshed mask and let it
                        # propagate.  (Keeping the strictly-improving
                        # discipline here is what keeps the chosen-node
                        # graph acyclic for reconstruction; any residual
                        # staleness is fixed by the value-repair pass.)
                        if mask == best_mask[class_position]:
                            continue
                    elif not tiebreak[node_id] < tiebreak[current]:
                        # Equal (FA count, size): the (op, child seqs,
                        # payload) tie-break keeps the chosen
                        # representative independent of evaluation order.
                        continue
                changed = True
                spread = (current < 0
                          or mask != best_mask[class_position]
                          or size != best_size[class_position])
                best_mask[class_position] = mask
                best_size[class_position] = size
                best_count[class_position] = count
                choice[class_position] = node_id
                if current < 0:
                    # First entry: release Kahn successors of this class.
                    for user in users[class_position]:
                        remaining = waiting[user] - 1
                        waiting[user] = remaining
                        if not remaining and not queued[user]:
                            queued[user] = 1
                            append(user)
                elif spread:
                    # Improvement/refresh: only re-evaluate the e-nodes
                    # that actually consume this class (released ones).
                    for user in users[class_position]:
                        if not waiting[user] and not queued[user]:
                            queued[user] = 1
                            append(user)
            return changed

        def repair() -> bytearray:
            """Value repair along the chosen DAG.

            The monotone loop never downgrades a stored value, so a child
            refresh that shrank the FA union a parent's value was computed
            from leaves the parent's (mask, size) stale — the pre-rewrite
            extractor shipped those values, making ``num_exact_fas`` claim
            FAs the reconstructed netlist does not contain.  The *choices*
            stand; the values are recomputed bottom-up along the
            chosen-node DAG so every reported (mask, size) is exactly what
            materialising the choice yields.  Returns the repaired-class
            bitmap: classes on chosen-node cycles stay 0 (unreachable
            bookkeeping only — reconstruction rejects them).
            """
            chosen_indegree = [0] * num_classes
            chosen_users: List[List[int]] = [[] for _ in range(num_classes)]
            for class_position in range(num_classes):
                node_id = choice[class_position]
                if node_id < 0:
                    continue
                seen = set()
                for child_position in children[node_id]:
                    if (child_position != class_position
                            and child_position not in seen):
                        seen.add(child_position)
                        chosen_users[child_position].append(class_position)
                        chosen_indegree[class_position] += 1
            repaired = bytearray(num_classes)
            queue = deque(
                class_position for class_position in range(num_classes)
                if choice[class_position] >= 0
                and not chosen_indegree[class_position])
            while queue:
                class_position = queue.popleft()
                repaired[class_position] = 1
                mask, size = evaluate(choice[class_position])
                best_mask[class_position] = mask
                best_size[class_position] = size
                best_count[class_position] = mask.bit_count()
                for user in chosen_users[class_position]:
                    chosen_indegree[user] -= 1
                    if not chosen_indegree[user]:
                        queue.append(user)
            return repaired

        def resume(start: BoolEExtraction) -> bool:
            """Load ``start`` as the first pass's outcome: choices, values
            and the Kahn counters they leave (a node waits on its child
            classes without an entry).  False, with nothing changed, when
            ``start`` does not fit this graph."""
            if start.fa_index != tuple(fa_index):
                return False
            op_of = dict(zip(op_names, range(len(op_names))))
            payloads = table.payloads
            chosen = []
            for class_id, entry in start.entries.items():
                position = class_index.get(class_id)
                node = entry.node
                if position is None or node.op not in op_of:
                    return False
                op_id = op_of[node.op]
                kids = tuple(map(class_index.get, node.children))
                for node_id in range(class_off[position],
                                     class_off[position + 1]):
                    if (node_op[node_id] == op_id
                            and children[node_id] == kids
                            and payloads[node_payload[graph_nodes[node_id]]]
                            == node.payload):
                        chosen.append((position, node_id, entry))
                        break
                else:
                    return False
            for position, node_id, entry in chosen:
                choice[position] = node_id
                best_mask[position] = entry.fa_mask
                best_size[position] = entry.size
                best_count[position] = entry.fa_mask.bit_count()
            for node_id, kids in enumerate(children):
                if kids:
                    waiting[node_id] = len({child for child in kids
                                            if choice[child] < 0})
            return True

        if start is None or not resume(start):
            propagate(node_id for node_id in range(num_nodes)
                      if not waiting[node_id])
        # Repair is idempotent on repaired values: after ``resume`` it
        # only recomputes the repaired-class bitmap.
        repaired = repair()

        # ---- bounded choose→repair refinement ---------------------------
        # The repaired values are the *true* costs of the first-pass
        # choices; re-seeding the fixpoint from them lets nodes that beat
        # their class's stored choice under true (rather than stale
        # optimistic) child values take over, and another repair trues the
        # values again.  Rounds are scored by the materialised FA count at
        # the extraction roots (all classes when no roots are given) and
        # the best round wins; a round whose chosen DAG turns cyclic under
        # a root is discarded and refinement stops.
        if self.refine_rounds > 0:
            if roots is not None:
                root_positions = []
                seen_roots = set()
                for root in roots:
                    position = class_index.get(table.find(root))
                    if position is not None and position not in seen_roots:
                        seen_roots.add(position)
                        root_positions.append(position)
            else:
                root_positions = [position for position in range(num_classes)
                                  if choice[position] >= 0]

            def round_score(repaired_bitmap: bytearray):
                """(valid, FA count, -size) of the current choice set."""
                mask = 0
                size = 0
                stack = list(root_positions)
                visited = bytearray(num_classes)
                while stack:
                    position = stack.pop()
                    if visited[position]:
                        continue
                    visited[position] = 1
                    node_id = choice[position]
                    if node_id < 0 or not repaired_bitmap[position]:
                        # Unreachable root or a chosen-node cycle under a
                        # root: materialising this round would fail.
                        return None
                    stack.extend(children[node_id])
                for position in root_positions:
                    mask |= best_mask[position]
                    size += best_size[position]
                return (mask.bit_count(), -size)

            best_score = round_score(repaired)
            snapshot = (best_mask[:], best_size[:], choice[:])
            for _ in range(self.refine_rounds):
                changed = propagate(node_id for node_id in range(num_nodes)
                                    if not waiting[node_id])
                if not changed:
                    break
                repaired = repair()
                score = round_score(repaired)
                if score is None:
                    break
                if best_score is None or score > best_score:
                    best_score = score
                    snapshot = (best_mask[:], best_size[:], choice[:])
            best_mask[:], best_size[:], choice[:] = snapshot

        # ---- assemble the result ----------------------------------------
        fa_index_tuple = tuple(fa_index)
        extraction = BoolEExtraction(egraph=egraph, fa_index=fa_index_tuple)
        extraction.node_table = table
        entries = extraction.entries
        decode = table.decode
        for class_position, class_id in enumerate(class_list):
            node_id = choice[class_position]
            if node_id >= 0:
                entries[class_id] = CostEntry(
                    fa_mask=best_mask[class_position],
                    size=best_size[class_position],
                    node=decode(graph_nodes[node_id]),
                    fa_index=fa_index_tuple)
        return extraction


@dataclass(frozen=True)
class FABlockRecord:
    """An exact full adder materialised in the reconstructed netlist.

    Attributes:
        inputs: literals (in the reconstructed AIG) of the three FA inputs.
        sum_lit: literal of the sum output.
        carry_lit: literal of the carry output.
    """

    inputs: Tuple[int, int, int]
    sum_lit: int
    carry_lit: int


#: AIG builders of the plain gate operators, by e-node operator.
_GATES = {Op.NOT: AIG.not_, Op.AND: AIG.and_, Op.OR: AIG.or_,
          Op.NAND: AIG.nand_, Op.NOR: AIG.nor_, Op.XOR: AIG.xor_,
          Op.XNOR: AIG.xnor_, Op.XOR3: AIG.xor3_, Op.MAJ: AIG.maj3_}


class _Materializer:
    """Materialises extracted classes into an AIG, memoised per class.

    Methods rather than nested closures: the three steps recurse into one
    another, and closures that did would form a reference cycle.
    """

    def __init__(self, extraction: BoolEExtraction, aig: AIG,
                 input_literal: Dict[str, int]) -> None:
        self.extraction = extraction
        self.find = extraction.find
        self.aig = aig
        self.input_literal = input_literal
        self.literal_memo: Dict[int, int] = {}
        self.fa_memo: Dict[int, Tuple[int, int]] = {}
        self.blocks: List[FABlockRecord] = []

    def fa(self, class_id: int, visiting: Set[int]) -> Tuple[int, int]:
        class_id = self.find(class_id)
        if class_id in self.fa_memo:
            return self.fa_memo[class_id]
        node = self.extraction.raw_entry(class_id).node
        inputs = tuple(self.literal(child, visiting) for child in node.children)
        sum_lit, carry_lit = self.aig.full_adder(*inputs)
        self.fa_memo[class_id] = (sum_lit, carry_lit)
        self.blocks.append(FABlockRecord(inputs=inputs, sum_lit=sum_lit,
                                         carry_lit=carry_lit))
        return sum_lit, carry_lit

    def literal(self, class_id: int, visiting: Set[int]) -> int:
        class_id = self.find(class_id)
        if class_id in self.literal_memo:
            return self.literal_memo[class_id]
        if class_id in visiting:
            raise RuntimeError("cyclic extraction choice encountered")
        entry = self.extraction.entries.get(class_id)
        if entry is None:
            raise RuntimeError(f"extraction did not reach class {class_id}")
        literal = self.node(entry.node, visiting | {class_id})
        self.literal_memo[class_id] = literal
        return literal

    def node(self, node: ENode, visiting: Set[int]) -> int:
        aig = self.aig
        if node.op == Op.VAR:
            return self.input_literal[node.payload]
        if node.op == Op.CONST:
            return aig.const(bool(node.payload))
        if node.op == Op.FST:
            return self.fa(node.children[0], visiting)[1]
        if node.op == Op.SND:
            return self.fa(node.children[0], visiting)[0]
        children = [self.literal(child, visiting) for child in node.children]
        gate = _GATES.get(node.op)
        if gate is not None:
            return gate(aig, *children)
        if node.op == Op.HA:
            return aig.half_adder(children[0], children[1])[0]
        if node.op == Op.FA:
            raise RuntimeError("FA tuple class reached outside FST/SND projection")
        raise RuntimeError(f"cannot materialise operator {node.op!r}")


def reconstruct_aig(construction: ConstructionResult,
                    extraction: BoolEExtraction,
                    name: str = "") -> Tuple[AIG, List[FABlockRecord]]:
    """Materialise the extracted expressions of all primary outputs as an AIG.

    Full-adder tuple nodes become explicit sum/carry cones (recorded in the
    returned block list) so the output netlist exposes the reconstructed adder
    tree to downstream tools such as the SCA verifier.
    """
    source = construction.aig
    aig = AIG(name=name or f"{source.name}_boole")
    input_literal: Dict[str, int] = {}
    for var in source.inputs:
        input_literal[source.input_names[var]] = aig.add_input(source.input_names[var])
    builder = _Materializer(extraction, aig, input_literal)
    for class_id, lit, name_ in zip(construction.output_classes,
                                    construction.aig.outputs,
                                    construction.aig.output_names):
        literal = builder.literal(class_id, set())
        aig.add_output(literal, name_)
    return aig, builder.blocks
