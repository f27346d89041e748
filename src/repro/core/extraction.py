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
  (:func:`repair_values`) recomputes every (mask, size) from the final
  child entries, so values are exactly what reconstruction materialises
  and ``num_exact_fas`` always matches the FA block count.  Values are
  therefore a function of the choices: the result, and its wire form,
  store the chosen node per class, and the decoder derives the values
  with the same function.  The pre-rewrite
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
  when a caller reads a class's chosen node.  The same fixpoint over decoded
  ``ENode`` tables is the oracle in ``tests/enode_scans.py``.

Results are deterministic across ``PYTHONHASHSEED`` values and agree with
the reference entry-for-entry wherever the reference is self-consistent;
measured FA recovery and the quality comparison against the reference's
(scheduling-lottery) stale numbers are recorded in
``docs/performance.md``.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import chain, compress, islice, repeat
from operator import ne, not_, or_, sub
from typing import (Any, Callable, Dict, FrozenSet, Iterable, Iterator, List,
                    Optional, Sequence, Set, Tuple, Union)

from ..aig import AIG
from ..egraph import EGraph, ENode, Op, as_engine
from ..egraph.dense import NodeTable, write_node_columns
from .construct import ConstructionResult, DeferredEGraph

__all__ = ["CostEntry", "BoolEExtraction", "BoolEExtractor", "FABlockRecord",
           "reconstruct_aig", "repair_values"]

_SIZE_CAP = 10**9


@dataclass(slots=True)
class CostEntry:
    """Extraction choice and value of one e-class, as
    :attr:`BoolEExtraction.entries` hands it out.

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


#: :func:`repair_values`' DFS states to its repaired bitmap: state 2
#: (resolved) reads 1, the others 0.
_RESOLVED = bytes.maketrans(b"\x00\x01\x02\x03", b"\x00\x00\x01\x00")


def repair_values(kids: Sequence[Sequence[int]], own_mask: Sequence[int],
                  own_size: Sequence[int], mask: List[int],
                  size: List[int]) -> bytearray:
    """Value repair along the chosen-node DAG: the one place values come
    from, shared by the extractor and the wire decoder.

    Position ``i``'s chosen node has child positions ``kids[i]``, own FA
    bit ``own_mask[i]`` and own cost ``own_size[i]``.  Every position whose
    chosen descendants all resolve gets ``mask[i] = own_mask[i] |
    mask[children]`` and ``size[i] = own_size[i] + size[children]``
    (capped), children first; the rest — on a chosen-node cycle, a
    self-loop included, or above one — keep the values they came in with.
    Returns the repaired-position bitmap.
    """
    # Iterative DFS: 0 unseen, 1 open (on the current path), 2 resolved,
    # 3 on or above a cycle (a child still open closes the cycle).
    state = bytearray(len(kids))
    order = []
    for root in range(len(kids)):
        if state[root]:
            continue
        stack = [root]
        while stack:
            position = stack[-1]
            if not state[position]:
                state[position] = 1
                for child in kids[position]:
                    if not state[child]:
                        stack.append(child)
                continue
            stack.pop()
            if state[position] == 1:
                for child in kids[position]:
                    if state[child] != 2:
                        state[position] = 3
                        break
                else:
                    state[position] = 2
                    order.append(position)
    for position in order:
        value_mask = own_mask[position]
        value_size = own_size[position]
        for child in kids[position]:
            value_mask |= mask[child]
            value_size += size[child]
        mask[position] = value_mask
        size[position] = value_size if value_size <= _SIZE_CAP else _SIZE_CAP
    return state.translate(_RESOLVED)


class _Entries(Mapping):
    """Read-only ``class id → CostEntry`` view of a
    :class:`BoolEExtraction`: each access builds the entry from the
    columns, in ascending class-id order."""

    __slots__ = ("_extraction",)

    def __init__(self, extraction: "BoolEExtraction") -> None:
        self._extraction = extraction

    def __getitem__(self, class_id: int) -> CostEntry:
        extraction = self._extraction
        position = extraction.position(class_id)
        if position is None:
            raise KeyError(class_id)
        return CostEntry(fa_mask=extraction.fa_masks[position],
                         size=extraction.sizes[position],
                         node=extraction.node_at(position),
                         fa_index=extraction.fa_index)

    def __contains__(self, class_id: object) -> bool:
        return self._extraction.position(class_id) is not None

    def __iter__(self) -> Iterator[int]:
        return iter(self._extraction.entry_class)

    def __len__(self) -> int:
        return len(self._extraction.entry_class)


@dataclass
class BoolEExtraction(DeferredEGraph):
    """Result of the DAG extraction: one chosen e-node per reachable
    e-class, as int columns in the layout of its wire form
    (:func:`~repro.store.extraction_to_wire`).

    Entry ``i`` is class ``entry_class[i]`` (ascending) choosing node
    ``entry_node[i]`` of ``node_columns`` (the chosen nodes, tabled as
    :func:`~repro.egraph.dense.write_node_columns` writes them, children as
    class ids); ``op_cost`` is the extractor's cost of each operator of
    that table.  The values ``fa_masks[i]``/``sizes[i]`` are what
    :func:`repair_values` derives from the choices, except at the entries
    listed in ``cyclic`` (on or above a chosen-node cycle), which keep the
    propagation's values.  ``fa_index`` maps mask bits back to FA class
    ids.  :attr:`entries` is a read-only mapping over the columns.

    ``egraph`` is the graph the class ids refer to; an extraction restored
    from the store, or computed on a snapshot's node table, loads it on
    first access (:class:`~repro.core.construct.DeferredEGraph`).
    ``node_table`` is the table the extraction was computed on, so
    :attr:`find` answers without the graph.
    """

    egraph: EGraph = field(repr=False, compare=False)
    fa_index: Tuple[int, ...]
    node_columns: Dict[str, List]
    op_cost: List[int]
    entry_class: List[int]
    entry_node: List[int]
    fa_masks: List[int]
    sizes: List[int]
    cyclic: List[int]

    def __post_init__(self) -> None:
        # class id -> entry position, built on first lookup.
        self._positions: Optional[Dict[int, int]] = None

    @property
    def entries(self) -> Mapping[int, CostEntry]:
        """``class id → CostEntry``, built per access."""
        return _Entries(self)

    @property
    def find(self) -> Callable[[int], int]:
        """The union-find of the graph the entries refer to: the node
        table's when there is one, else the (loaded) graph's."""
        table = self.node_table
        return table.find if table is not None else self.egraph.find

    def position(self, class_id: Any) -> Optional[int]:
        """The entry position of an already-canonical class id, or
        ``None`` when the extraction did not reach it."""
        if self._positions is None:
            self._positions = dict(zip(self.entry_class,
                                       range(len(self.entry_class))))
        return self._positions.get(class_id)

    def chosen_node(self, class_id: int) -> Optional[ENode]:
        """The chosen :class:`ENode` of an already-canonical class id, or
        ``None`` when the extraction did not reach it."""
        position = self.position(class_id)
        return None if position is None else self.node_at(position)

    def node_at(self, position: int) -> ENode:
        """The chosen :class:`ENode` of entry ``position``."""
        columns = self.node_columns
        node = self.entry_node[position]
        offsets = columns["node_off"]
        return ENode.unchecked(
            columns["ops"][columns["node_op"][node]],
            tuple(columns["node_child"][offsets[node]:offsets[node + 1]]),
            columns["payloads"][columns["node_payload"][node]])

    def entry(self, class_id: int) -> CostEntry:
        """Return the entry for (the canonical class of) ``class_id``."""
        return self.entries[self.find(class_id)]

    def raw_entry(self, class_id: int) -> CostEntry:
        """Return the entry of an already-canonical class id (no
        union-find lookup)."""
        return self.entries[class_id]

    def num_exact_fas(self, roots: Sequence[int]) -> int:
        """Number of distinct FAs used by the extraction of ``roots``."""
        mask = 0
        find = self.find
        masks = self.fa_masks
        for root in roots:
            position = self.position(find(root))
            if position is not None:
                mask |= masks[position]
        return mask.bit_count()


#: Operator costs of :class:`BoolEExtractor` when none are given; any
#: other operator costs 1.
DEFAULT_NODE_COST = {
    Op.VAR: 0, Op.CONST: 0, Op.FST: 0, Op.SND: 0,
    Op.NOT: 1, Op.AND: 1, Op.OR: 1, Op.XOR: 1, Op.XNOR: 1,
    Op.NAND: 1, Op.NOR: 1, Op.XOR3: 2, Op.MAJ: 2, Op.FA: 2, Op.HA: 1,
}


class BoolEExtractor:
    """DAG cost extractor maximising the number of exact full adders.

    Args:
        node_cost: per-operator base costs (participates in the extraction
            cache key); an operator it does not list costs 1, so ``{}``
            costs every operator 1.  ``None`` (default) is
            :data:`DEFAULT_NODE_COST`.
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
        self.node_cost = (dict(DEFAULT_NODE_COST) if node_cost is None
                          else node_cost)
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
        independent of ``PYTHONHASHSEED`` and builds no :class:`ENode`.
        ``source`` is that table, or a graph: it is rebuilt and its
        :meth:`~repro.egraph.DenseEGraph.node_table` taken (an
        object-engine graph is converted with
        :func:`~repro.egraph.as_engine` first), and the result keeps the
        graph it was given.  A result computed on a table carries no graph
        (the caller attaches one, or a loader).

        ``start`` is a single-pass (``refine_rounds=0``) extraction of the
        same graph under the same cost table, such as the stored one a
        warm run finds: its choices and values are the first pass's, so
        the refinement rounds start from them instead of recomputing the
        pass.  The first pass is deterministic, so the result is
        identical; a ``start`` that does not fit the graph (a different
        ``fa_index`` or cost, a class or chosen node the graph lacks) is
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
        class_index = dict(zip(class_list, range(num_classes)))
        position_of = class_index.__getitem__
        children: List[Tuple[int, ...]] = [
            tuple(map(position_of, kids)) for kids in table.kids]
        op_names = table.op_names
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
        # node_tiebreak_key from the columns — (op name, child seqs,
        # payload text) — built only for nodes that tie.
        seqs = table.class_seqs.__getitem__
        payloads = table.payloads
        node_payload = table.node_payload
        tiebreak: List[Optional[Tuple]] = [None] * num_nodes

        def tiebreak_key(node_id: int) -> Tuple:
            key = tiebreak[node_id] = (
                op_names[node_op[node_id]],
                tuple(map(seqs, children[node_id])),
                str(payloads[node_payload[graph_nodes[node_id]]]))
            return key

        # Kahn in-degrees (distinct child classes) and the node-level
        # dependency index: child class -> the nodes that read it, in node
        # order.
        waiting: List[int] = list(map(len, map(set, children)))
        users: List[List[int]] = [[] for _ in range(num_classes)]
        add_user = [class_users.append for class_users in users]
        for node_id, kids in enumerate(children):
            if len(kids) != waiting[node_id]:
                kids = dict.fromkeys(kids)
            for child_position in kids:
                add_user[child_position](node_id)
        # Index -1 (no choice) reads as "no children, no cost" below: a
        # class without an entry repairs to its (0, 0) start values.
        children.append(())
        fa_self_bit.append(0)
        base.append(0)

        # ---- cost propagation -------------------------------------------
        # Best entry per class as parallel arrays (choice < 0 = no entry);
        # ``best_count`` caches ``best_mask[i].bit_count()``.
        best_mask: List[int] = [0] * num_classes
        best_size: List[int] = [0] * num_classes
        best_count: List[int] = [0] * num_classes
        choice: List[int] = [-1] * num_classes
        # ``stale[n]``: a child's or n's own class's value may have changed
        # since n was last evaluated.  A fixpoint leaves every released
        # node stable — a re-evaluation would be a no-op (within a pass a
        # class's value only improves) — so a seed that is not stale is
        # skipped at its place in the queue, and the FIFO order of every
        # other evaluation is unchanged.
        stale = bytearray(b"\x01") * num_nodes

        def propagate(seeds: Iterable[int]) -> bool:
            """Run the worklist fixpoint from ``seeds``; True if anything
            was accepted."""
            queue = list(seeds)
            queued = bytearray(num_nodes)
            for node_id in queue:
                queued[node_id] = 1
            append = queue.append
            changed = False
            # FIFO: the loop also visits what it appends.
            for node_id in queue:
                queued[node_id] = 0
                if not stale[node_id]:
                    continue
                stale[node_id] = 0
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
                    elif not ((tiebreak[node_id] or tiebreak_key(node_id))
                              < (tiebreak[current]
                                 or tiebreak_key(current))):
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
                        if not waiting[user]:
                            stale[user] = 1
                            if not queued[user]:
                                queued[user] = 1
                                append(user)
            return changed

        def repair() -> bytearray:
            """:func:`repair_values` over the current choices.

            The monotone loop never downgrades a stored value, so a child
            refresh that shrank the FA union a parent's value was computed
            from leaves the parent's (mask, size) stale — the pre-rewrite
            extractor shipped those values, making ``num_exact_fas`` claim
            FAs the reconstructed netlist does not contain.  The *choices*
            stand; the values are recomputed bottom-up along the
            chosen-node DAG.  Classes on chosen-node cycles stay 0 in the
            returned bitmap (unreachable bookkeeping only — reconstruction
            rejects them).
            """
            masks = best_mask[:]
            sizes = best_size[:]
            repaired = repair_values(
                list(map(children.__getitem__, choice)),
                list(map(fa_self_bit.__getitem__, choice)),
                list(map(base.__getitem__, choice)), best_mask, best_size)
            best_count[:] = map(int.bit_count, best_mask)
            # A changed class may now lose to another of its nodes, and
            # its users see new child values.
            for class_position in compress(range(num_classes), map(
                    or_, map(ne, masks, best_mask), map(ne, sizes, best_size))):
                low = class_off[class_position]
                high = class_off[class_position + 1]
                stale[low:high] = b"\x01" * (high - low)
                for user in users[class_position]:
                    stale[user] = 1
            return repaired

        def resume(start: BoolEExtraction) -> Optional[bytearray]:
            """Load ``start`` as the first pass's outcome — choices, values
            and the Kahn counters they leave (a node waits on its child
            classes without an entry) — and return its repaired bitmap;
            ``None``, with nothing changed, when ``start`` does not fit
            this graph.  Nodes are matched by int comparison."""
            if start.fa_index != tuple(fa_index):
                return None
            columns = start.node_columns
            op_of = dict(zip(op_names, range(len(op_names))))
            op_map = list(map(op_of.get, columns["ops"]))
            if None in op_map or list(map(base_of_op.__getitem__, op_map)) \
                    != start.op_cost:
                return None
            payload_of = dict(zip(payloads, range(len(payloads))))
            payload_map = list(map(payload_of.get, columns["payloads"]))
            positions = list(map(class_index.get, start.entry_class))
            child_positions = list(map(class_index.get,
                                       columns["node_child"]))
            if None in payload_map or None in positions \
                    or None in child_positions:
                return None
            start_op = list(map(op_map.__getitem__, columns["node_op"]))
            start_payload = list(map(payload_map.__getitem__,
                                     columns["node_payload"]))
            start_off = columns["node_off"]
            start_kids = list(map(tuple, map(child_positions.__getitem__, map(
                slice, start_off, islice(start_off, 1, None)))))
            payload_of_node = list(map(node_payload.__getitem__, graph_nodes))
            chosen = []
            for position, node in zip(positions, start.entry_node):
                op_id = start_op[node]
                payload_id = start_payload[node]
                kids = start_kids[node]
                for node_id in range(class_off[position],
                                     class_off[position + 1]):
                    if (node_op[node_id] == op_id
                            and payload_of_node[node_id] == payload_id
                            and children[node_id] == kids):
                        chosen.append(node_id)
                        break
                else:
                    return None
            repaired = bytearray(num_classes)
            for position, node_id, mask, size in zip(
                    positions, chosen, start.fa_masks, start.sizes):
                choice[position] = node_id
                best_mask[position] = mask
                best_size[position] = size
                best_count[position] = mask.bit_count()
                repaired[position] = 1
            for entry in start.cyclic:
                repaired[positions[entry]] = 0
            waiting[:] = repeat(0, num_nodes)
            for position in compress(range(num_classes),
                                     map((-1).__eq__, choice)):
                for user in users[position]:
                    waiting[user] += 1
            return repaired

        repaired = resume(start) if start is not None else None
        if repaired is None:
            propagate(compress(range(num_nodes), map(not_, waiting)))
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
            snapshot = (best_mask[:], best_size[:], choice[:], repaired)
            for _ in range(self.refine_rounds):
                changed = propagate(compress(range(num_nodes),
                                             map(not_, waiting)))
                if not changed:
                    break
                repaired = repair()
                score = round_score(repaired)
                if score is None:
                    break
                if best_score is None or score > best_score:
                    best_score = score
                    snapshot = (best_mask[:], best_size[:], choice[:],
                                repaired)
            best_mask[:], best_size[:], choice[:], repaired = snapshot

        # ---- the result: choice columns, ascending class id -------------
        order = sorted(range(num_classes), key=class_list.__getitem__)
        positions = list(compress(order, map(
            (0).__le__, map(choice.__getitem__, order))))
        chosen = list(map(choice.__getitem__, positions))
        distinct = list(dict.fromkeys(chosen))
        node_index = dict(zip(distinct, range(len(distinct))))
        graph_chosen = list(map(graph_nodes.__getitem__, distinct))
        node_columns = write_node_columns(
            list(map(op_names.__getitem__,
                     map(table.node_op.__getitem__, graph_chosen))),
            list(map(payloads.__getitem__,
                     map(node_payload.__getitem__, graph_chosen))),
            map(table.node_child.__getitem__, map(
                slice, map(table.node_off.__getitem__, graph_chosen),
                map(table.node_off.__getitem__,
                    map((1).__add__, graph_chosen)))))
        extraction = BoolEExtraction(
            egraph, fa_index=tuple(fa_index), node_columns=node_columns,
            op_cost=[self.node_cost.get(name, 1)
                     for name in node_columns["ops"]],
            entry_class=list(map(class_list.__getitem__, positions)),
            entry_node=list(map(node_index.__getitem__, chosen)),
            fa_masks=list(map(best_mask.__getitem__, positions)),
            sizes=list(map(best_size.__getitem__, positions)),
            cyclic=list(compress(range(len(positions)), map(
                (0).__eq__, map(repaired.__getitem__, positions)))))
        extraction.node_table = table
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
        node = self.extraction.chosen_node(class_id)
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
        node = self.extraction.chosen_node(class_id)
        if node is None:
            raise RuntimeError(f"extraction did not reach class {class_id}")
        literal = self.node(node, visiting | {class_id})
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
