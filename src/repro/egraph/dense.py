"""Dense struct-of-arrays e-graph engine with batched e-matching.

:class:`DenseEGraph` implements the same public API (and the same
*observable semantics*, down to snapshot bytes) as the object-graph
:class:`~repro.egraph.egraph.EGraph`, but stores everything as flat integer
structures:

* the union-find is a plain ``List[int]`` parent array with iterative path
  compression;
* operator names and leaf payloads are interned to small integer ids;
* e-nodes are interned rows of a struct-of-arrays node table — an op-code
  column, a payload-id column, and the children flattened into one int
  buffer with CSR-style offsets.  A given ``(op, children, payload)`` shape
  is interned exactly once, so node identity is integer identity and the
  hashcons is a plain ``Dict[int, int]``;
* per-class node sets and parent lists hold node *ids*, not node objects.

E-matching is **prefix-shared and batched**: a pattern compiles once into
a linear program of ``expand`` / ``leaf`` / ``check`` steps over row slots,
and :meth:`DenseEGraph.search_batch` merges the programs of every plan a
round searches over the same candidate roots into one generated
nested-loop function (:mod:`repro.egraph.matcher`), so a step several
rules start with runs once per partial match.  Each plan's rows come out
in exactly the order of the recursive reference matcher, so the back-off
scheduler's budget sees the same matches on both engines.

Bit-identity contract
---------------------

The object-graph engine stays the property-test oracle (the
``extraction_reference.py`` freeze is the template): for any input,
saturating with either engine must produce byte-identical snapshot
artifacts.  That works because this class mirrors ``EGraph``'s mutation
logic *operation for operation* — hashcons insertion/eviction order,
parent-list append order, the rebuild work-set iteration, leader selection
by parent-list length — and :meth:`export_state` decodes the interned ids
back into the exact structures ``EGraph.export_state`` produces (the
union-find array is exported fully path-compressed by both engines, so
search-layer differences cannot leak into snapshots).

Cross-engine round-trips are therefore free: ``DenseEGraph.from_state(
python_graph.export_state())`` and the reverse direction both preserve all
observable state, which is how checkpoints written by one engine resume
under the other.

Snapshots are this engine's arrays: :meth:`DenseEGraph.to_columns` writes
them as flat int columns in a canonical node order and
:meth:`DenseEGraph.from_columns` adopts such columns as the node table of
a fresh graph, so the snapshot codec never builds an :class:`ENode`.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate, chain, compress, islice, repeat
from operator import countOf, eq, ge, le, lt, ne, sub
from typing import (
    AbstractSet,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from .egraph import EGraph, enode_sort_key
from .enode import SORTED_OPS, ENode, Op, OPERATOR_ARITIES
from .matcher import Program, compile_matcher
from .pattern import (
    MatchPlan,
    Pattern,
    PatternVar,
    Request,
    Row,
    Slots,
)

__all__ = ["DenseEGraph", "NodeTable", "as_engine", "PAYLOAD_TYPES",
           "read_node_columns", "read_node_table", "write_node_columns"]

#: Candidate roots are fed through a group's matcher in chunks of this
#: many classes; a rule whose budget is exceeded at a chunk end leaves the
#: group instead of materialising every match in the e-graph.
_ROOT_CHUNK = 256


def _ranks(keys: List) -> List[int]:
    """``rank[i]`` = position of ``keys[i]`` in sorted order."""
    order = sorted(range(len(keys)), key=keys.__getitem__)
    rank = [0] * len(order)
    for position, index in enumerate(order):
        rank[index] = position
    return rank


def _payload_ranks(payloads: Sequence[Hashable]) -> List[int]:
    """Rank by str(payload) — the component ``enode_sort_key`` compares —
    with the table index as a deterministic tie-break."""
    return _ranks([(str(payload), index)
                   for index, payload in enumerate(payloads)])


def _tabled(values: Sequence[Hashable]) -> Tuple[List, List[int]]:
    """The distinct ``values`` in order of first use, and ``values``
    rewritten as indices into that table."""
    table = list(dict.fromkeys(values))
    index = dict(zip(table, range(len(table))))
    return table, list(map(index.__getitem__, values))


def _roots(uf: List[int]) -> List[int]:
    """Ids ``i`` with ``uf[i] == i``, ascending: the e-classes of a
    path-compressed union-find array."""
    ids = range(len(uf))
    return list(compress(ids, map(eq, uf, ids)))


#: JSON scalar types a leaf payload may have in a snapshot.
PAYLOAD_TYPES = (str, bool, int, type(None))


def _int_column(columns: Dict, name: str, length: Optional[int] = None,
                high: Optional[int] = None) -> List[int]:
    """Fetch and validate a snapshot int column with O(n) builtins.

    Every entry must be a plain ``int`` (``bool`` is rejected too) in
    ``[0, high)`` — ``high=None`` skips the range check — and the column
    must have ``length`` entries when given.  Raises ``TypeError`` /
    ``ValueError`` on the first violation.
    """
    column = columns[name]
    if type(column) is not list:
        raise TypeError(f"column {name!r} is not a list")
    if length is not None and len(column) != length:
        raise ValueError(f"column {name!r} has {len(column)} entries, "
                         f"expected {length}")
    if countOf(map(type, column), int) != len(column):
        raise TypeError(f"column {name!r} holds non-int entries")
    if high is not None and column and (min(column) < 0
                                        or max(column) >= high):
        raise ValueError(f"column {name!r} has an entry out of range")
    return column


def _offset_column(columns: Dict, name: str, rows: int) -> List[int]:
    """Fetch and validate a CSR offset column: ``rows + 1`` ints, starting
    at 0, non-decreasing."""
    column = _int_column(columns, name, length=rows + 1)
    if column[0] != 0 or not all(map(le, column, islice(column, 1, None))):
        raise ValueError(f"column {name!r} is not a monotone offset array")
    return column


def write_node_columns(ops: Sequence[str], payloads: Sequence[Hashable],
                       children: Iterable[Sequence[int]]) -> Dict[str, List]:
    """The node-table columns of a snapshot or an extraction artifact.

    Node ``i`` is ``ops[i]`` with leaf payload ``payloads[i]`` over the
    ``i``-th child list of ``children``.  Operators and payloads are
    tabled in order of first use; children are flattened CSR-style.
    """
    op_table, node_op = _tabled(ops)
    payload_table, node_payload = _tabled(payloads)
    node_off = [0]
    node_child: List[int] = []
    for kids in children:
        node_child += kids
        node_off.append(len(node_child))
    return {"ops": op_table, "payloads": payload_table, "node_op": node_op,
            "node_payload": node_payload, "node_off": node_off,
            "node_child": node_child}


def read_node_columns(columns: Dict, child_high: Optional[int],
                      count: Optional[int] = None) -> Tuple[List, ...]:
    """``(ops, payloads, node_op, node_payload, node_off, node_child)``
    as :func:`write_node_columns` writes them: distinct tables in order of
    first use, ``count`` nodes when given, known arities and child ids
    below ``child_high`` (``None``: the caller checks them).  Raises
    ``KeyError``, ``TypeError`` or ``ValueError`` on the first violation.
    """
    ops = columns["ops"]
    payloads = columns["payloads"]
    if type(ops) is not list or type(payloads) is not list or not (
            set(map(type, ops)) <= {str}
            and set(map(type, payloads)) <= set(PAYLOAD_TYPES)):
        raise TypeError("operator/payload tables must be lists of "
                        "strings/JSON scalars")
    if len(set(ops)) != len(ops) or len(set(payloads)) != len(payloads):
        raise ValueError("duplicate operator or payload table entry")
    node_op = _int_column(columns, "node_op", length=count, high=len(ops))
    count = len(node_op)
    node_payload = _int_column(columns, "node_payload", length=count,
                               high=len(payloads))
    node_off = _offset_column(columns, "node_off", count)
    node_child = _int_column(columns, "node_child", length=node_off[-1],
                             high=child_high)
    for table, column in ((ops, node_op), (payloads, node_payload)):
        if list(dict.fromkeys(column)) != list(range(len(table))):
            raise ValueError("operator/payload table is not in first-use "
                             "order")
    for op_id, arity in sorted(set(zip(node_op, map(
            sub, islice(node_off, 1, None), node_off)))):
        expected = OPERATOR_ARITIES.get(ops[op_id])
        if expected is not None and expected != arity:
            raise ValueError(f"operator {ops[op_id]!r} expects "
                             f"{expected} children, got {arity}")
    return ops, payloads, node_op, node_payload, node_off, node_child


class NodeTable(NamedTuple):
    """Read-only int view of a clean graph's canonical e-nodes: everything
    extraction reads.  Built from a live graph
    (:meth:`DenseEGraph.node_table`) or straight from snapshot columns
    (:func:`read_node_table`), which give equal tables for equal graphs.

    Class ``class_ids[i]`` owns ``nodes[class_off[i]:class_off[i + 1]]``;
    the node columns are indexed by node id, and node ``n``'s children are
    ``node_child[node_off[n]:node_off[n + 1]]``.  The node columns may be
    a live graph's own lists, which only ever grow.
    """

    #: Canonical class ids in seq order, and their seqs.
    class_ids: List[int]
    class_seqs: List[int]
    class_off: List[int]
    #: Each class's canonical node ids in ``enode_sort_key`` order.
    nodes: List[int]
    #: The child class ids of each of ``nodes`` (its ``node_child``
    #: slice), in the same order.
    kids: List[List[int]]
    node_op: List[int]
    node_payload: List[int]
    node_off: List[int]
    node_child: List[int]
    #: Operator name by op id, payload by payload id.
    op_names: List[str]
    payloads: List[Hashable]
    #: Path-compressed union-find: ``uf[i]`` is the class of id ``i``.
    uf: List[int]
    #: E-nodes the graph stores (:attr:`DenseEGraph.num_nodes`).
    num_nodes: int

    @property
    def num_classes(self) -> int:
        return len(self.class_ids)

    def find(self, class_id: int) -> int:
        return self.uf[class_id]

    def decode(self, node_id: int) -> ENode:
        """The :class:`ENode` of node ``node_id``."""
        offsets = self.node_off
        return ENode.unchecked(
            self.op_names[self.node_op[node_id]],
            tuple(self.node_child[offsets[node_id]:offsets[node_id + 1]]),
            self.payloads[self.node_payload[node_id]])


class _SnapshotColumns(NamedTuple):
    """Every column of a :meth:`DenseEGraph.to_columns` snapshot, checked
    (:func:`_read_snapshot_columns`)."""

    uf: List[int]
    ops: List[str]
    payloads: List[Hashable]
    node_op: List[int]
    node_payload: List[int]
    node_off: List[int]
    node_child: List[int]
    #: Union-find roots ascending; class ``class_ids[i]`` owns
    #: ``class_nodes[class_node_off[i]:class_node_off[i + 1]]`` (in
    #: ``enode_sort_key`` order) and has seq ``seq[i]``.
    class_ids: List[int]
    class_node_off: List[int]
    class_nodes: List[int]
    seq: List[int]
    #: The child class ids of each of ``class_nodes``.
    class_node_kids: List[List[int]]
    #: True when every class node's children are roots.
    canonical: bool
    class_parent_off: List[int]
    parent_nodes: List[int]
    parent_classes: List[int]
    hashcons: Dict[int, int]
    dirty: List[int]
    pending: List[int]
    clean: bool


def _read_snapshot_columns(columns: Dict) -> _SnapshotColumns:
    """The one reader of snapshot columns.

    Checks lengths, monotone offsets, index ranges, operator arities and
    tables (:func:`read_node_columns`), that the union-find array is
    path-compressed (so it is its own ``find``), and that each class's
    node slice is strictly ascending under ``enode_sort_key`` (as
    :meth:`DenseEGraph.to_columns` writes it); raises ``KeyError``,
    ``TypeError`` or ``ValueError`` on the first violation.
    """
    sizes = columns["sizes"]
    if type(sizes) is not dict:
        raise TypeError("'sizes' must be an object")
    uf = _int_column(columns, "uf", length=sizes["uf"], high=sizes["uf"])
    size = len(uf)
    if list(map(uf.__getitem__, uf)) != uf:
        raise ValueError("union-find array is not path-compressed")
    ops, payloads, node_op, node_payload, node_off, node_child = \
        read_node_columns(columns, size, sizes["node_op"])
    count = len(node_op)
    class_ids = _roots(uf)
    class_node_off = _offset_column(columns, "class_node_off",
                                    len(class_ids))
    class_nodes = _int_column(columns, "class_nodes",
                              length=class_node_off[-1], high=count)
    seq = _int_column(columns, "seq", length=len(class_ids))
    if seq and min(seq) < 0:
        raise ValueError("column 'seq' has a negative entry")
    # Each slice strictly ascends under DenseEGraph._node_sort_key, built
    # column-wise: a descent may only fall on a class boundary.
    kids = list(map(node_child.__getitem__, map(
        slice, map(node_off.__getitem__, class_nodes),
        map(node_off.__getitem__, map((1).__add__, class_nodes)))))
    keys = list(zip(
        map(_ranks(ops).__getitem__, map(node_op.__getitem__, class_nodes)),
        kids,
        map(_payload_ranks(payloads).__getitem__,
            map(node_payload.__getitem__, class_nodes))))
    if not set(compress(range(1, len(keys)), map(
            ge, keys, islice(keys, 1, None)))) <= set(class_node_off):
        raise ValueError("a class's nodes are not in enode_sort_key order")
    flat = list(chain.from_iterable(kids))
    canonical = list(map(uf.__getitem__, flat)) == flat

    class_parent_off = _offset_column(columns, "class_parent_off",
                                      len(class_ids))
    parent_nodes = _int_column(columns, "class_parent_nodes",
                               length=class_parent_off[-1], high=count)
    parent_classes = _int_column(columns, "class_parent_classes",
                                 length=class_parent_off[-1], high=size)
    hashcons_nodes = _int_column(columns, "hashcons_nodes",
                                 length=sizes["hashcons_nodes"], high=count)
    hashcons_classes = _int_column(columns, "hashcons_classes",
                                   length=len(hashcons_nodes), high=size)
    hashcons = dict(zip(hashcons_nodes, hashcons_classes))
    if len(hashcons) != len(hashcons_nodes):
        raise ValueError("duplicate hashcons entry")
    dirty = _int_column(columns, "dirty", length=sizes["dirty"], high=size)
    if not all(map(lt, dirty, islice(dirty, 1, None))):
        raise ValueError("column 'dirty' is not sorted")
    pending = _int_column(columns, "pending", length=sizes["pending"],
                          high=size)
    clean = columns["clean"]
    if type(clean) is not bool:
        raise TypeError("'clean' must be a bool")
    return _SnapshotColumns(
        uf, ops, payloads, node_op, node_payload, node_off, node_child,
        class_ids, class_node_off, class_nodes, seq, kids, canonical,
        class_parent_off, parent_nodes, parent_classes, hashcons, dirty,
        pending, clean)


def read_node_table(columns: Dict) -> NodeTable:
    """The :class:`NodeTable` of a snapshot, without building its graph.

    Every column is checked as :meth:`DenseEGraph.from_columns` checks
    it; the table further needs every class node to be canonical (all
    children are roots).  The pipeline's saturated snapshot is: pruning
    canonicalises every class, and FA insertion then merges away only
    classes no node references.  The parent, hashcons and dirty columns
    are checked and dropped.  Equal to
    ``DenseEGraph.from_columns(columns).node_table()``.
    """
    read = _read_snapshot_columns(columns)
    if not read.canonical:
        raise ValueError("a class node has a child that is not a root")
    class_node_off = read.class_node_off
    class_nodes = read.class_nodes
    order = sorted(range(len(read.class_ids)), key=read.seq.__getitem__)
    lows = list(map(class_node_off.__getitem__, order))
    highs = list(map(class_node_off.__getitem__, map((1).__add__, order)))
    return NodeTable(
        class_ids=list(map(read.class_ids.__getitem__, order)),
        class_seqs=list(map(read.seq.__getitem__, order)),
        class_off=[0, *accumulate(map(sub, highs, lows))],
        nodes=list(chain.from_iterable(map(
            class_nodes.__getitem__, map(slice, lows, highs)))),
        kids=list(chain.from_iterable(map(
            read.class_node_kids.__getitem__, map(slice, lows, highs)))),
        node_op=read.node_op, node_payload=read.node_payload,
        node_off=read.node_off, node_child=read.node_child,
        op_names=read.ops,
        payloads=read.payloads, uf=read.uf, num_nodes=len(class_nodes))


class _DenseClass:
    """Per-class storage: node ids and a flat ``[node, class, ...]`` parent
    list.  It holds no reference back to its graph, so a finished graph is
    acyclic and reference counting alone frees it."""

    __slots__ = ("id", "node_ids", "parent_pairs")

    def __init__(self, class_id: int, node_ids: Set[int],
                 parent_pairs: List[int]) -> None:
        self.id = class_id
        self.node_ids = node_ids
        self.parent_pairs = parent_pairs


class DenseEGraph:
    """A congruence-closed e-graph over interned integer e-nodes.

    Drop-in replacement for :class:`~repro.egraph.egraph.EGraph`: same
    constructors, same queries, same snapshot format.  See the module
    docstring for the representation and the bit-identity contract.
    """

    def __init__(self) -> None:
        # Union-find over class ids (flat parent array).
        self._uf: List[int] = []
        # Interning tables.  Payload ids are keyed by the payload *value*
        # (dict equality), which reproduces ENode equality exactly —
        # including Python's bool/int unification.
        self._op_names: List[str] = []
        self._op_ids: Dict[str, int] = {}
        self._op_rank: List[int] = []
        self._payloads: List[Hashable] = []
        self._payload_ids: Dict[Hashable, int] = {}
        self._payload_rank: List[int] = []
        # Node table (struct of arrays + CSR children).
        self._node_op: List[int] = []
        self._node_payload: List[int] = []
        self._node_off: List[int] = [0]
        self._node_child: List[int] = []
        # Interning table ``(op, payload, *children) -> node id``; ``None``
        # until first use after a snapshot decode (see _index_nodes).
        self._node_ids: Optional[Dict[Tuple[int, ...], int]] = {}
        self._node_obj: List[Optional[ENode]] = []
        # Canonicalization memo, valid while ``_epoch`` is unchanged (the
        # epoch advances on every successful union).
        self._node_canon: List[int] = []
        self._canon_stamp: List[int] = []
        self._epoch = 0
        # Mirrors of EGraph's mutable state, in the int domain.
        self._classes: Dict[int, _DenseClass] = {}
        self._hashcons: Dict[int, int] = {}
        self._pending: List[int] = []
        self._clean = True
        # Operator index (op id -> classes); ``None`` until first use after
        # a snapshot decode (see _index_ops).
        self._op_classes: Optional[Dict[int, Set[int]]] = {}
        self._dirty: Set[int] = set()
        self._seq: Dict[int, int] = {}
        # Derived caches (same invalidation discipline as EGraph).
        self._enode_cache: Dict[int, List[int]] = {}
        self._span_cache: Dict[int, Dict[int, Tuple[int, int]]] = {}
        self._decoded_cache: Dict[int, List[ENode]] = {}
        # (op, arity) -> class -> (child tuples in span order, span
        # length): the expand step's working set, shared across rules.
        # Two levels so the per-row lookup in the hottest loop is an
        # int-keyed get instead of a fresh 3-tuple hash.
        self._tail_cache: Dict[
            Tuple[int, int],
            Dict[int, Tuple[List[Tuple[int, ...]], int]]] = {}
        self._class_order: Optional[List[int]] = None
        self._num_canonical: Optional[int] = None
        # candidate_classes memo, valid for one (epoch, class count).
        self._candidates_key: Tuple[int, int] = (-1, -1)
        self._candidates: Dict[str, Set[int]] = {}
        # Compiled matcher/builder programs, keyed by ``id(pattern)``.
        # Each entry keeps a strong reference to its pattern, which pins
        # the id for the graph's lifetime (patterns hash recursively, so
        # hashing them on every search would dominate small searches).
        self._match_programs: Dict[int, Tuple[Pattern, Program]] = {}
        self._build_programs: Dict[int, Tuple[Pattern, List[Tuple]]] = {}
        #: E-node span entries scanned by the matcher, a step shared by
        #: several plans counted once (in-memory observability only; never
        #: serialized).
        self.match_ops = 0

    # ------------------------------------------------------------------
    # Interning
    # ------------------------------------------------------------------
    def _intern_op(self, op: str) -> int:
        op_id = self._op_ids.get(op)
        if op_id is None:
            op_id = len(self._op_names)
            self._op_ids[op] = op_id
            self._op_names.append(op)
            # Relative ranks of existing ops never change, so cached
            # per-class sort orders stay valid.
            self._rank_ops()
        return op_id

    def _intern_payload(self, payload: Hashable) -> int:
        payload_id = self._payload_ids.get(payload)
        if payload_id is None:
            payload_id = len(self._payloads)
            self._payload_ids[payload] = payload_id
            self._payloads.append(payload)
            self._rank_payloads()
        return payload_id

    def _rank_ops(self) -> None:
        """Lexicographic rank of every interned operator name."""
        self._op_rank = _ranks(self._op_names)

    def _rank_payloads(self) -> None:
        self._payload_rank = _payload_ranks(self._payloads)

    def _intern_node(self, op_id: int, payload_id: int,
                     children: Tuple[int, ...]) -> int:
        key = (op_id, payload_id) + children
        node_ids = self._node_ids
        if node_ids is None:
            node_ids = self._index_nodes()
        node_id = node_ids.get(key)
        if node_id is None:
            node_id = len(self._node_op)
            node_ids[key] = node_id
            self._node_op.append(op_id)
            self._node_payload.append(payload_id)
            self._node_child.extend(children)
            self._node_off.append(len(self._node_child))
            self._node_obj.append(None)
            self._node_canon.append(-1)
            self._canon_stamp.append(-1)
        return node_id

    def _index_nodes(self) -> Dict[Tuple[int, ...], int]:
        """Build the interning table from the node columns.

        :meth:`from_columns` defers this: a warm restore that only
        extracts never interns a node, so it never pays for the table.
        """
        buffer = self._node_child
        offsets = self._node_off
        table = dict(zip(
            [(op_id, payload_id, *buffer[low:high])
             for op_id, payload_id, low, high
             in zip(self._node_op, self._node_payload, offsets,
                    islice(offsets, 1, None))],
            range(len(self._node_op))))
        self._node_ids = table
        return table

    def _intern_enode(self, node: ENode) -> int:
        """Intern an :class:`ENode` verbatim (children left as given)."""
        return self._intern_node(self._intern_op(node.op),
                                 self._intern_payload(node.payload),
                                 tuple(node.children))

    def decode(self, node_id: int) -> ENode:
        """The :class:`ENode` of an interned node id (memoised)."""
        node = self._node_obj[node_id]
        if node is None:
            offsets = self._node_off
            children = tuple(
                self._node_child[offsets[node_id]:offsets[node_id + 1]])
            node = ENode.unchecked(
                self._op_names[self._node_op[node_id]], children,
                self._payloads[self._node_payload[node_id]])
            self._node_obj[node_id] = node
        return node

    def _canonical(self, node_id: int) -> int:
        """Canonical interned form of a node (children mapped through find).

        Memoized per union epoch: between unions the union-find mapping is
        constant, so each node is re-canonicalised at most once per epoch.
        """
        if self._canon_stamp[node_id] == self._epoch:
            return self._node_canon[node_id]
        offsets = self._node_off
        low, high = offsets[node_id], offsets[node_id + 1]
        if low == high:
            result = node_id
        else:
            buffer = self._node_child
            parent = self._uf
            find = self._find
            changed = False
            children = []
            for index in range(low, high):
                child = buffer[index]
                if parent[child] == child:
                    children.append(child)
                    continue
                children.append(find(child))
                changed = True
            if changed:
                result = self._intern_node(self._node_op[node_id],
                                           self._node_payload[node_id],
                                           tuple(children))
                # Its children are all roots: it is its own canonical form
                # for the rest of the epoch.
                self._canon_stamp[result] = self._epoch
                self._node_canon[result] = result
            else:
                result = node_id
        self._canon_stamp[node_id] = self._epoch
        self._node_canon[node_id] = result
        return result

    # ------------------------------------------------------------------
    # Union-find
    # ------------------------------------------------------------------
    def _find(self, item: int) -> int:
        parent = self._uf
        root = item
        while parent[root] != root:
            root = parent[root]
        while parent[item] != root:
            parent[item], item = root, parent[item]
        return root

    # ------------------------------------------------------------------
    # Basic queries (API parity with EGraph)
    # ------------------------------------------------------------------
    @property
    def num_classes(self) -> int:
        return len(self._classes)

    @property
    def num_nodes(self) -> int:
        return sum(len(cls.node_ids) for cls in self._classes.values())

    def num_canonical_nodes(self) -> int:
        count = self._num_canonical
        if count is None:
            count = self._num_canonical = sum(
                len(self._canonical_ids(class_id))
                for class_id in self._classes)
        return count

    @property
    def is_clean(self) -> bool:
        return self._clean

    def find(self, class_id: int) -> int:
        parent = self._uf
        if parent[class_id] == class_id:
            return class_id
        return self._find(class_id)

    def seq(self, class_id: int) -> int:
        if self._uf[class_id] != class_id:
            class_id = self._find(class_id)
        return self._seq[class_id]

    def sorted_by_seq(self, ids: Iterable[int]) -> List[int]:
        return sorted(ids, key=self._seq.__getitem__)

    def _ordered_class_ids(self) -> List[int]:
        order = self._class_order
        if order is None:
            order = self._class_order = self.sorted_by_seq(self._classes.keys())
        return order

    def classes(self) -> Iterator[_DenseClass]:
        classes = self._classes
        return iter([classes[class_id]
                     for class_id in self._ordered_class_ids()])

    def eclass(self, class_id: int) -> _DenseClass:
        return self._classes[self._find(class_id)]

    def _canonical_ids(self, root: int) -> List[int]:
        """Sorted canonical node ids of a class (the int-domain ``enodes``).

        Sorted by ``(op rank, children, payload rank)``, which realises the
        same total order as :func:`~repro.egraph.egraph.enode_sort_key`
        over the decoded nodes.
        """
        cached = self._enode_cache.get(root)
        if cached is None:
            canonical = self._canonical
            stamps = self._canon_stamp
            canon = self._node_canon
            epoch = self._epoch
            ids = {canon[node_id] if stamps[node_id] == epoch
                   else canonical(node_id)
                   for node_id in self._classes[root].node_ids}
            cached = sorted(ids, key=self._node_sort_key())
            self._enode_cache[root] = cached
        return cached

    def _node_sort_key(self):
        """Key realising :func:`~repro.egraph.egraph.enode_sort_key` over
        node ids: ``(op rank, children, payload rank)``."""
        op_rank = self._op_rank
        payload_rank = self._payload_rank
        node_op = self._node_op
        node_payload = self._node_payload
        offsets = self._node_off
        buffer = self._node_child

        def sort_key(node_id: int):
            return (op_rank[node_op[node_id]],
                    buffer[offsets[node_id]:offsets[node_id + 1]],
                    payload_rank[node_payload[node_id]])

        return sort_key

    def _op_spans(self, root: int) -> Dict[int, Tuple[int, int]]:
        """Map op-code -> contiguous ``[lo, hi)`` span in the class's sorted
        canonical node-id list (nodes of one op are adjacent by sort order)."""
        spans = self._span_cache.get(root)
        if spans is None:
            ids = self._canonical_ids(root)
            spans = {}
            node_op = self._node_op
            previous = -1
            start = 0
            for index, node_id in enumerate(ids):
                op_id = node_op[node_id]
                if op_id != previous:
                    if previous >= 0:
                        spans[previous] = (start, index)
                    previous = op_id
                    start = index
            if previous >= 0:
                spans[previous] = (start, len(ids))
            self._span_cache[root] = spans
        return spans

    def enodes(self, class_id: int) -> List[ENode]:
        root = self._find(class_id)
        decoded = self._decoded_cache.get(root)
        if decoded is None:
            decode = self.decode
            decoded = [decode(node_id)
                       for node_id in self._canonical_ids(root)]
            self._decoded_cache[root] = decoded
        return decoded

    def node_table(self) -> NodeTable:
        """The canonical e-nodes as int columns: the int form of
        ``classes()`` × ``enodes()``, with no :class:`ENode` built.  Call
        it on a clean graph (after :meth:`rebuild`)."""
        class_ids = self._ordered_class_ids()
        class_off = [0]
        nodes: List[int] = []
        canonical_ids = self._canonical_ids
        for class_id in class_ids:
            nodes += canonical_ids(class_id)
            class_off.append(len(nodes))
        # Pointer jumping to a fully path-compressed copy of the
        # union-find, a few C-speed passes instead of a find per id.
        uf = self._uf
        while True:
            jumped = list(map(uf.__getitem__, uf))
            if jumped == uf:
                break
            uf = jumped
        node_off = self._node_off
        return NodeTable(
            class_ids=list(class_ids),
            class_seqs=list(map(self._seq.__getitem__, class_ids)),
            class_off=class_off, nodes=nodes,
            kids=list(map(self._node_child.__getitem__, map(
                slice, map(node_off.__getitem__, nodes),
                map(node_off.__getitem__, map((1).__add__, nodes))))),
            node_op=self._node_op,
            node_payload=self._node_payload, node_off=self._node_off,
            node_child=self._node_child, op_names=self._op_names,
            payloads=self._payloads, uf=jumped, num_nodes=self.num_nodes)

    def _invalidate_caches(self) -> None:
        if self._enode_cache:
            self._enode_cache.clear()
            self._span_cache.clear()
            self._decoded_cache.clear()
        if self._tail_cache:
            self._tail_cache.clear()
        self._class_order = None
        self._num_canonical = None

    def __contains__(self, node: ENode) -> bool:
        return self.lookup(node) is not None

    def lookup(self, node: ENode) -> Optional[int]:
        op_id = self._op_ids.get(node.op)
        if op_id is None:
            return None
        payload_id = self._payload_ids.get(node.payload)
        if payload_id is None:
            return None
        find = self._find
        key = (op_id, payload_id) + tuple(find(child)
                                          for child in node.children)
        node_ids = self._node_ids
        if node_ids is None:
            node_ids = self._index_nodes()
        node_id = node_ids.get(key)
        if node_id is None:
            return None
        found = self._hashcons.get(node_id)
        return None if found is None else find(found)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add(self, node: ENode) -> int:
        """Insert an e-node and return its (canonical) e-class id."""
        find = self._find
        parent = self._uf
        node_id = self._intern_node(
            self._intern_op(node.op), self._intern_payload(node.payload),
            tuple(child if parent[child] == child else find(child)
                  for child in node.children))
        return self._add_node(node_id)

    def _add_node(self, node_id: int) -> int:
        """Insert an interned node whose children are already canonical."""
        existing = self._hashcons.get(node_id)
        if existing is not None:
            if self._uf[existing] == existing:
                return existing
            return self._find(existing)
        class_id = len(self._uf)
        self._uf.append(class_id)
        self._classes[class_id] = _DenseClass(class_id, {node_id}, [])
        self._seq[class_id] = class_id  # fresh ids are already monotone
        self._hashcons[node_id] = class_id
        offsets = self._node_off
        buffer = self._node_child
        classes = self._classes
        for index in range(offsets[node_id], offsets[node_id + 1]):
            pairs = classes[buffer[index]].parent_pairs
            pairs.append(node_id)
            pairs.append(class_id)
        op_classes = self._op_classes
        if op_classes is not None:
            # (a deferred index picks the new class up when it is built)
            op_classes.setdefault(self._node_op[node_id],
                                  set()).add(class_id)
        self._dirty.add(class_id)
        # A fresh node lives in a fresh class: no other class's canonical
        # node list (or op spans) can change, so only the order/count
        # caches go stale — unions do the wholesale invalidation.
        self._class_order = None
        self._num_canonical = None
        return class_id

    def add_leaf(self, op: str, payload: Hashable) -> int:
        return self._add_node(self._intern_node(
            self._intern_op(op), self._intern_payload(payload), ()))

    def var(self, name: str) -> int:
        return self.add_leaf(Op.VAR, name)

    def const(self, value: bool) -> int:
        return self.add_leaf(Op.CONST, bool(value))

    def add_term(self, op: str, *children: int) -> int:
        expected = OPERATOR_ARITIES.get(op)
        if expected is not None and expected != len(children):
            raise ValueError(
                f"operator {op!r} expects {expected} children, "
                f"got {len(children)}")
        find = self._find
        parent = self._uf
        return self._add_node(self._intern_node(
            self._intern_op(op), self._intern_payload(None),
            tuple(child if parent[child] == child else find(child)
                  for child in children)))

    def add_expr(self, expr) -> int:
        if isinstance(expr, bool):
            return self.const(expr)
        if isinstance(expr, int):
            return self.const(bool(expr))
        if isinstance(expr, str):
            return self.var(expr)
        if isinstance(expr, tuple) and expr:
            op = expr[0]
            children = [self.add_expr(child) for child in expr[1:]]
            return self.add_term(op, *children)
        raise TypeError(f"cannot interpret expression {expr!r}")

    # ------------------------------------------------------------------
    # Union and rebuilding
    # ------------------------------------------------------------------
    def union(self, a: int, b: int) -> bool:
        parent = self._uf
        root_a = a if parent[a] == a else self._find(a)
        root_b = b if parent[b] == b else self._find(b)
        if root_a == root_b:
            return False
        classes = self._classes
        class_a = classes[root_a]
        class_b = classes[root_b]
        # Keep the class with more parents as the leader to move less data
        # (same tie-break as EGraph.union, so both engines elect the same
        # leaders and export identical parent arrays).
        if len(class_a.parent_pairs) < len(class_b.parent_pairs):
            root_a, root_b = root_b, root_a
            class_a, class_b = class_b, class_a
        self._uf[root_b] = root_a
        self._epoch += 1
        del classes[root_b]
        class_a.node_ids.update(class_b.node_ids)
        class_a.parent_pairs.extend(class_b.parent_pairs)
        seq = self._seq
        seq_b = seq.pop(root_b)
        if seq_b < seq[root_a]:
            seq[root_a] = seq_b
        self._pending.append(root_a)
        self._clean = False
        self._dirty.add(root_a)
        self._invalidate_caches()
        return True

    def rebuild(self) -> int:
        repairs = 0
        while self._pending:
            todo = {self._find(class_id) for class_id in self._pending}
            self._pending.clear()
            for class_id in todo:
                repairs += self._repair(class_id)
        self._clean = True
        return repairs

    def _repair(self, class_id: int) -> int:
        find = self._find
        class_id = find(class_id)
        eclass = self._classes.get(class_id)
        if eclass is None:
            return 0
        repairs = 0
        canonical_of = self._canonical
        stamps = self._canon_stamp
        canon = self._node_canon
        hashcons = self._hashcons
        seen: Dict[int, int] = {}
        new_pairs: List[int] = []
        pairs = eclass.parent_pairs
        # The live list may grow while we scan it (a congruence union can
        # merge another class into this one); iterate by live length, like
        # the reference engine's ``for ... in eclass.parents`` does.
        index = 0
        while index < len(pairs):
            parent_node = pairs[index]
            parent_class = pairs[index + 1]
            index += 2
            # Inline _canonical's epoch-memo hit (re-read the epoch each
            # time — the unions below bump it).
            if stamps[parent_node] == self._epoch:
                canonical = canon[parent_node]
            else:
                canonical = canonical_of(parent_node)
            hashcons.pop(parent_node, None)
            existing = seen.get(canonical)
            parent_root = find(parent_class)
            if existing is not None:
                if find(existing) != parent_root:
                    self.union(existing, parent_root)
                    repairs += 1
                parent_root = find(existing)
            else:
                seen[canonical] = parent_root
            previous = hashcons.get(canonical)
            if previous is not None and find(previous) != parent_root:
                self.union(previous, parent_root)
                repairs += 1
                parent_root = find(previous)
            hashcons[canonical] = parent_root
            new_pairs.append(canonical)
            new_pairs.append(parent_root)
        root = find(class_id)
        current = self._classes.get(root)
        if current is None:
            return repairs
        if root == class_id:
            current.parent_pairs = new_pairs
        else:
            current.parent_pairs.extend(new_pairs)
        current.node_ids = {canonical_of(node_id)
                            for node_id in current.node_ids}
        return repairs

    # ------------------------------------------------------------------
    # Indexing and maintenance helpers
    # ------------------------------------------------------------------
    def class_ids(self) -> List[int]:
        return list(self._ordered_class_ids())

    def candidate_classes(self, op: str) -> Set[int]:
        """Canonical ids of every class that may hold an ``op`` node.

        Memoised per ``(union epoch, class count)``: a round's search makes
        no union and no insertion, so every rule of the round shares one
        answer per operator.  Callers must treat the set as read-only.
        """
        key = (self._epoch, len(self._classes))
        if key != self._candidates_key:
            self._candidates_key = key
            self._candidates = {}
        found = self._candidates.get(op)
        if found is None:
            found = self._candidates[op] = self._scan_candidates(op)
        return found

    def _scan_candidates(self, op: str) -> Set[int]:
        op_id = self._op_ids.get(op)
        if op_id is None:
            return set()
        op_classes = self._op_classes
        if op_classes is None:
            op_classes = self._index_ops()
        ids = op_classes.get(op_id)
        if not ids:
            return set()
        find = self._find
        canonical = {find(class_id) for class_id in ids}
        if len(canonical) != len(ids):
            op_classes[op_id] = set(canonical)
        return canonical

    def _index_ops(self) -> Dict[int, Set[int]]:
        """Build the operator index from the class contents (deferred by
        :meth:`from_columns` and :meth:`from_state`)."""
        node_op = self._node_op
        op_classes: Dict[int, Set[int]] = {}
        for class_id, eclass in self._classes.items():
            for op_id in set(map(node_op.__getitem__, eclass.node_ids)):
                op_classes.setdefault(op_id, set()).add(class_id)
        self._op_classes = op_classes
        return op_classes

    def parent_classes(self, class_id: int) -> Set[int]:
        eclass = self._classes.get(self._find(class_id))
        if eclass is None:
            return set()
        find = self._find
        pairs = eclass.parent_pairs
        return {find(pairs[index]) for index in range(1, len(pairs), 2)}

    def peek_dirty(self) -> List[int]:
        find = self._find
        return self.sorted_by_seq({find(class_id)
                                   for class_id in self._dirty})

    def take_dirty(self) -> List[int]:
        find = self._find
        dirty = {find(class_id) for class_id in self._dirty}
        self._dirty.clear()
        return self.sorted_by_seq(dirty)

    def prune_duplicates(self, ops: Iterable[str]) -> int:
        op_ids = {self._op_ids[op] for op in ops if op in self._op_ids}
        removed = 0
        self._invalidate_caches()
        canonical_of = self._canonical
        node_op = self._node_op
        node_payload = self._node_payload
        offsets = self._node_off
        buffer = self._node_child
        sort_key = self._node_sort_key()

        for eclass in self._classes.values():
            kept: Dict[Tuple, int] = {}
            new_ids: Set[int] = set()
            # Canonicalise first, keep duplicates in the sort (the oracle
            # counts every stale duplicate of a pruned node as removed).
            for node_id in sorted([canonical_of(node_id)
                                   for node_id in eclass.node_ids],
                                  key=sort_key):
                op_id = node_op[node_id]
                if op_id in op_ids:
                    key = (op_id,
                           tuple(sorted(
                               buffer[offsets[node_id]:offsets[node_id + 1]])),
                           node_payload[node_id])
                    if key in kept:
                        removed += 1
                        continue
                    kept[key] = node_id
                new_ids.add(node_id)
            eclass.node_ids = new_ids
        return removed

    def total_size(self) -> Tuple[int, int]:
        return self.num_classes, self.num_nodes

    # ------------------------------------------------------------------
    # Batched e-matching
    # ------------------------------------------------------------------
    def _compile_match(self, pattern: Pattern) -> Program:
        """Compile a pattern into a pre-order program over row slots.

        Instructions (see :mod:`repro.egraph.matcher` for how they run):

        * ``("expand", src, op_id, arity, base)`` — branch on every
          ``op_id`` e-node of arity ``arity`` in class ``slot[src]``,
          binding the node's children to slots ``base..base+arity-1``;
        * ``("leaf", src, op_id, payload_id)`` — keep one branch per
          matching leaf e-node in ``slot[src]`` (payload compared by id);
        * ``("check", src, bound)`` — keep branches with ``slot[src] ==
          slot[bound]`` (a repeated pattern variable).

        Slots are allocated in pattern pre-order and the steps follow the
        same order, which reproduces the recursive matcher's depth-first
        match order exactly.  The second element, the *sink*, lists the
        slots a match row is built from: the root, then each variable's
        first slot in :func:`~repro.egraph.pattern.pattern_vars` order.
        """
        cached = self._match_programs.get(id(pattern))
        if cached is not None:
            return cached[1]
        steps: List[Tuple] = []
        var_slots: Slots = {}
        slot_count = 1
        stack: List[Tuple[Pattern, int]] = [(pattern, 0)]
        while stack:  # pre-order, children left to right
            node, slot = stack.pop()
            if isinstance(node, PatternVar):
                previous = var_slots.get(node.name)
                if previous is None:
                    var_slots[node.name] = slot
                else:
                    steps.append(("check", slot, previous))
                continue
            op_id = self._intern_op(node.op)
            if node.op in (Op.VAR, Op.CONST):
                steps.append(("leaf", slot, op_id,
                              self._intern_payload(node.payload)))
                continue
            base = slot_count
            slot_count += len(node.children)
            steps.append(("expand", slot, op_id, len(node.children), base))
            stack += reversed([(child, base + position) for position, child
                               in enumerate(node.children)])
        program = (tuple(steps), (0, *var_slots.values()))
        self._match_programs[id(pattern)] = (pattern, program)
        return program

    def _expand_tails(self, class_id: int, op_id: int, arity: int
                      ) -> Tuple[List[Tuple[int, ...]], int]:
        """Child tuples (in span order) of the class's ``op_id``/``arity``
        nodes, plus the scanned span length — the expand step's memo."""
        spans = self._span_cache.get(class_id)
        if spans is None:
            spans = self._op_spans(class_id)
        span = spans.get(op_id)
        if span is None:
            entry: Tuple[List[Tuple[int, ...]], int] = ([], 0)
        else:
            low, high = span
            offsets = self._node_off
            buffer = self._node_child
            tails = []
            for node_id in self._enode_cache[class_id][low:high]:
                start = offsets[node_id]
                if offsets[node_id + 1] - start == arity:
                    tails.append(tuple(buffer[start:start + arity]))
            entry = (tails, high - low)
        self._tail_cache.setdefault((op_id, arity), {})[class_id] = entry
        return entry

    def search_rows(self, plan: MatchPlan,
                    restrict: Optional[AbstractSet[int]] = None) -> List[Row]:
        """Match one plan: its rows, ``(root, *variables)`` in the order of
        :meth:`MatchPlan.search`'s match stream."""
        return self.search_batch([(None, [(plan, restrict)])])[0][0]

    def search_batch(self, requests: Sequence[Request]
                     ) -> List[Optional[List[List[Row]]]]:
        """Answer one round's searches with one shared matcher per group.

        Returns, per request, the rows of each of its plans, or ``None``
        when they add up to more than the request's budget (the same
        answers as :meth:`EGraph.search_batch`).  Plans whose candidate
        roots coincide form a group and run through one generated
        function (:func:`~repro.egraph.matcher.compile_matcher`), chunk
        by chunk over the roots.  At each chunk end a request past its
        budget leaves every group and its rows are freed, so an explosive
        rule pays for little more of the e-graph than its budget.
        """
        budgets = [budget for budget, _ in requests]
        counts = [0] * len(requests)
        found: List[List[List[Row]]] = []
        groups: Dict[Tuple[int, ...], List[Tuple[int, List[Row],
                                                 Program]]] = {}
        for index, (_, searches) in enumerate(requests):
            lists: List[List[Row]] = []
            found.append(lists)
            for plan, restrict in searches:
                rows: List[Row] = []
                lists.append(rows)
                pattern = plan.pattern
                if isinstance(pattern, PatternVar):
                    rows += [(class_id, class_id) for class_id in (
                        self.class_ids() if restrict is None
                        else self.sorted_by_seq(restrict))]
                    counts[index] += len(rows)
                    continue
                roots = plan.candidate_roots(self, restrict)
                if roots:
                    groups.setdefault(tuple(roots), []).append(
                        (index, rows, self._compile_match(pattern)))
        over = [False] * len(requests)

        def settle(indices: Iterable[int]) -> bool:
            """Mark the requests past their budget and free their rows."""
            gone = False
            for index in indices:
                budget = budgets[index]
                if (budget is not None and counts[index] > budget
                        and not over[index]):
                    over[index] = gone = True
                    for rows in found[index]:
                        rows.clear()
            return gone

        settle(range(len(requests)))
        scanned = 0
        for roots, members in groups.items():
            members = [member for member in members if not over[member[0]]]
            run = None
            for start in range(0, len(roots), _ROOT_CHUNK):
                if not members:
                    break
                if run is None:
                    run = compile_matcher(tuple(
                        program for _, _, program in members))(
                        self._tail_cache, self._expand_tails,
                        self._span_cache.get, self._op_spans,
                        self._enode_cache, self._node_payload,
                        [rows for _, rows, _ in members])
                sizes = [len(rows) for _, rows, _ in members]
                scanned += run(roots[start:start + _ROOT_CHUNK])
                for (index, rows, _), size in zip(members, sizes):
                    counts[index] += len(rows) - size
                if settle([index for index, _, _ in members]):
                    members = [member for member in members
                               if not over[member[0]]]
                    run = None
        self.match_ops += scanned
        return [None if gone else lists for gone, lists in zip(over, found)]

    def _compile_build(self, pattern: Pattern) -> List[Tuple]:
        """Compile a rule right-hand side into a post-order stack program.

        Instructions (executed over a stack of class ids):

        * ``("var", name)`` — push the variable's class (:meth:`apply_rows`
          resolves ``name`` to its row slot first);
        * ``("leaf", op_id, payload_id)`` — add a leaf node, push its
          class;
        * ``("node", op_id, payload_id, arity, sort)`` — pop ``arity``
          children (mapped through find, and sorted for a
          :data:`~repro.egraph.enode.SORTED_OPS` operator), add the node,
          push its class;
        * ``("simple", op_id, payload_id, names, wraps, sort)`` — the whole
          program when the RHS is one operator over variables under zero
          or more unary operators ``wraps`` (innermost first).

        Post-order emission interns ops/payloads in the same order the
        recursive instantiation would, and arity errors surface at
        compile time — before any mutation, like the recursive version.
        """
        steps: List[Tuple] = []
        # Post-order with an explicit stack: ``done`` marks a node whose
        # children are already emitted.
        stack: List[Tuple[Pattern, bool]] = [(pattern, False)]
        while stack:
            node, done = stack.pop()
            if isinstance(node, PatternVar):
                steps.append(("var", node.name))
            elif done:
                steps.append(("node", self._intern_op(node.op),
                              self._intern_payload(None), len(node.children),
                              node.op in SORTED_OPS))
            elif node.op in (Op.VAR, Op.CONST):
                steps.append(("leaf", self._intern_op(node.op),
                              self._intern_payload(node.payload)))
            else:
                expected = OPERATOR_ARITIES.get(node.op)
                if expected is not None and expected != len(node.children):
                    raise ValueError(
                        f"operator {node.op!r} expects {expected} children, "
                        f"got {len(node.children)}")
                stack.append((node, True))
                stack += [(child, False) for child in reversed(node.children)]
        # One operator over pattern variables, possibly under unary
        # operators (a negated output), is the dominant rule shape; collapse
        # it to a single instruction so instantiation skips the stack
        # machine entirely.
        body = steps
        wraps: List[Tuple[int, int]] = []
        while (len(body) > 2 and body[-1][0] == "node" and body[-1][3] == 1
               and body[-2][0] == "node"):
            wraps.insert(0, body[-1][1:3])
            body = body[:-1]
        if (len(body) > 1 and body[-1][0] == "node"
                and body[-1][3] == len(body) - 1
                and all(step[0] == "var" for step in body[:-1])):
            _, op_id, payload_id, arity, sort = body[-1]
            steps = [("simple", op_id, payload_id,
                      tuple(step[1] for step in body[:-1]), tuple(wraps),
                      sort)]
        self._build_programs[id(pattern)] = (pattern, steps)
        return steps

    def apply_rows(self, build: Pattern, rows: Iterable[Row],
                   slots: Slots) -> int:
        """Instantiate ``build`` for every row, union it with the row's
        root (slot 0) in row order, and return the number of unions that
        merged two classes.

        The build program is resolved against ``slots`` once per call, so
        each row costs one find per child, one interning lookup and one
        union — no substitution dict and no :class:`ENode`.  A
        :data:`~repro.egraph.enode.SORTED_OPS` node is built over its
        children sorted by canonical class id.
        """
        cached = self._build_programs.get(id(build))
        steps = cached[1] if cached is not None else self._compile_build(build)
        try:
            steps = [(step[0], slots[step[1]]) if step[0] == "var"
                     else step[:3] + (tuple(slots[name] for name in step[3]),
                                      *step[4:])
                     if step[0] == "simple" else step for step in steps]
        except KeyError as error:
            raise KeyError(f"pattern variable {error.args[0]} unbound "
                           "during instantiation") from error
        parent = self._uf
        find = self._find
        union = self.union
        add_node = self._add_node
        hashcons_get = self._hashcons.get
        unions = 0
        first = steps[0]
        if first[0] == "simple":
            # One operator over pattern variables, the dominant rule shape:
            # intern the node straight from the row.
            _, op_id, payload_id, picks, wraps, sort = first
            intern_node = self._intern_node
            node_ids = self._node_ids
            if node_ids is None:
                node_ids = self._index_nodes()
            node_get = node_ids.get
            binary = len(picks) == 2 and not sort
            left, right = picks if binary else (0, 0)
            for row in rows:
                if binary:
                    a = row[left]
                    if parent[a] != a:
                        a = find(a)
                    b = row[right]
                    if parent[b] != b:
                        b = find(b)
                    node_id = node_get((op_id, payload_id, a, b))
                    if node_id is None:
                        node_id = intern_node(op_id, payload_id, (a, b))
                else:
                    children = [find(row[slot]) for slot in picks]
                    if sort:
                        children.sort()
                    node_id = intern_node(op_id, payload_id, tuple(children))
                new_class = hashcons_get(node_id)
                if new_class is None or parent[new_class] != new_class:
                    new_class = add_node(node_id)
                for wrap_op, wrap_payload in wraps:
                    # add_node returned a canonical class: no find needed.
                    node_id = node_get((wrap_op, wrap_payload, new_class))
                    if node_id is None:
                        node_id = intern_node(wrap_op, wrap_payload,
                                              (new_class,))
                    new_class = hashcons_get(node_id)
                    if new_class is None or parent[new_class] != new_class:
                        new_class = add_node(node_id)
                if union(row[0], new_class):
                    unions += 1
            return unions
        for row in rows:
            if union(row[0], self._run_build(steps, row)):
                unions += 1
        return unions

    def _run_build(self, steps: List[Tuple], row: Row) -> int:
        """Execute a slot-resolved stack build program for one row."""
        find = self._find
        intern_node = self._intern_node
        add_node = self._add_node
        stack: List[int] = []
        append = stack.append
        for step in steps:
            kind = step[0]
            if kind == "node":
                _, op_id, payload_id, arity, sort = step
                if arity == 2 and not sort:
                    children = (find(stack[-2]), find(stack[-1]))
                    del stack[-2:]
                else:
                    children = tuple(sorted(map(find, stack[-arity:])) if sort
                                     else map(find, stack[-arity:]))
                    del stack[-arity:]
                append(add_node(intern_node(op_id, payload_id, children)))
            elif kind == "var":
                append(row[step[1]])
            else:  # leaf
                append(add_node(intern_node(step[1], step[2], ())))
        return stack[0]

    # ------------------------------------------------------------------
    # Snapshot support (repro.store)
    # ------------------------------------------------------------------
    def export_state(self) -> Dict[str, object]:
        """Identical structure (and, downstream, identical bytes) to
        :meth:`EGraph.export_state` — interned ids decode back to e-nodes
        and the union-find is exported fully path-compressed."""
        decode = self.decode
        classes = {}
        for class_id in sorted(self._classes):
            eclass = self._classes[class_id]
            pairs = eclass.parent_pairs
            classes[class_id] = (
                sorted((decode(node_id) for node_id in eclass.node_ids),
                       key=enode_sort_key),
                [(decode(pairs[index]), pairs[index + 1])
                 for index in range(0, len(pairs), 2)],
            )
        find = self._find
        return {
            "parents_array": [find(item) for item in range(len(self._uf))],
            "classes": classes,
            "hashcons": {decode(node_id): class_id
                         for node_id, class_id in self._hashcons.items()},
            "pending": list(self._pending),
            "clean": self._clean,
            "dirty": sorted(self._dirty),
            "seq": dict(self._seq),
        }

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "DenseEGraph":
        graph = cls()
        graph._uf = list(state["parents_array"])
        intern = graph._intern_enode
        for class_id, (nodes, parents) in state["classes"].items():
            node_ids = {intern(node) for node in nodes}
            flat: List[int] = []
            for node, parent_class in parents:
                flat.append(intern(node))
                flat.append(parent_class)
            graph._classes[class_id] = _DenseClass(class_id, node_ids, flat)
        graph._op_classes = None
        graph._hashcons = {intern(node): class_id
                           for node, class_id in state["hashcons"].items()}
        graph._pending = list(state["pending"])
        graph._clean = bool(state["clean"])
        graph._dirty = set(state["dirty"])
        graph._seq = dict(state["seq"])
        return graph

    def to_columns(self) -> Dict[str, object]:
        """Encode the complete state as flat columns (the snapshot wire form).

        The e-node table is renumbered in a canonical order — classes
        ascending, each class's nodes by the int-domain
        :func:`~repro.egraph.egraph.enode_sort_key`, then its parent list,
        then the hashcons in insertion order — so the columns depend only
        on the e-graph's observable state, never on internal node ids:
        both engines (the object engine via :func:`as_engine`) produce
        identical columns for identical state.  The node columns come from
        :func:`write_node_columns`, which extraction artifacts share.
        Classes are implicit: they are the roots of the (fully
        path-compressed) union-find array, ascending.
        ``sizes`` declares the length of every column whose length no
        other column implies, so a truncated column never decodes.  See
        ``docs/serialization.md`` for the column table.
        """
        find = self._find
        uf = [find(item) for item in range(len(self._uf))]
        class_ids = sorted(self._classes)
        if class_ids != _roots(uf):
            raise ValueError("e-classes out of sync with union-find roots")
        classes = self._classes
        sort_key = self._node_sort_key()
        class_nodes: List[int] = []
        class_node_off = [0]
        parent_nodes: List[int] = []
        parent_classes: List[int] = []
        class_parent_off = [0]
        visits: List[int] = []
        for class_id in class_ids:
            eclass = classes[class_id]
            nodes = sorted(eclass.node_ids, key=sort_key)
            parents = eclass.parent_pairs[0::2]
            class_nodes += nodes
            class_node_off.append(len(class_nodes))
            parent_nodes += parents
            parent_classes += eclass.parent_pairs[1::2]
            class_parent_off.append(len(parent_nodes))
            visits += nodes
            visits += parents
        hashcons_nodes = list(self._hashcons)
        visits += hashcons_nodes
        order = list(dict.fromkeys(visits))
        renumber = dict(zip(order, range(len(order)))).__getitem__
        offsets = self._node_off
        buffer = self._node_child
        dirty = sorted(self._dirty)
        return {
            "sizes": {"uf": len(uf), "node_op": len(order),
                      "hashcons_nodes": len(hashcons_nodes),
                      "dirty": len(dirty), "pending": len(self._pending)},
            "uf": uf,
            **write_node_columns(
                list(map(self._op_names.__getitem__,
                         map(self._node_op.__getitem__, order))),
                list(map(self._payloads.__getitem__,
                         map(self._node_payload.__getitem__, order))),
                (buffer[offsets[node_id]:offsets[node_id + 1]]
                 for node_id in order)),
            "class_node_off": class_node_off,
            "class_nodes": list(map(renumber, class_nodes)),
            "class_parent_off": class_parent_off,
            "class_parent_nodes": list(map(renumber, parent_nodes)),
            "class_parent_classes": parent_classes,
            "hashcons_nodes": list(map(renumber, hashcons_nodes)),
            "hashcons_classes": list(self._hashcons.values()),
            "seq": [self._seq[class_id] for class_id in class_ids],
            "dirty": dirty,
            "pending": list(self._pending),
            "clean": self._clean,
        }

    @classmethod
    def from_columns(cls, columns: Dict) -> "DenseEGraph":
        """Rebuild an e-graph from :meth:`to_columns` output.

        The columns become the node table as they are (wire node index ==
        node id), so no :class:`ENode` is built.  Every column is checked
        first by the reader :func:`read_node_table` shares
        (:func:`_read_snapshot_columns`), and a malformed input raises
        ``KeyError``, ``TypeError`` or ``ValueError`` before any graph
        exists.  A class whose nodes are all canonical seeds the
        sorted-node cache with its (checked) slice, so ``node_table`` on a
        fresh snapshot sorts nothing.  The node interning table and the
        operator index are built on first use.
        """
        read = _read_snapshot_columns(columns)
        uf = read.uf
        node_off = read.node_off
        node_child = read.node_child
        count = len(read.node_op)

        graph = cls()
        graph._uf = list(uf)
        graph._op_names = list(read.ops)
        graph._op_ids = dict(zip(read.ops, range(len(read.ops))))
        graph._rank_ops()
        graph._payloads = list(read.payloads)
        graph._payload_ids = dict(zip(read.payloads,
                                      range(len(read.payloads))))
        graph._rank_payloads()
        graph._node_op = list(read.node_op)
        graph._node_payload = list(read.node_payload)
        graph._node_off = list(node_off)
        graph._node_child = list(node_child)
        graph._node_ids = None
        graph._node_obj = [None] * count
        # A node over root classes only is its own canonical form at the
        # fresh graph's epoch 0; the others canonicalise on first use.
        graph._node_canon = list(range(count))
        stamps = graph._canon_stamp = [graph._epoch] * count
        for slot in compress(range(len(node_child)), map(
                ne, map(uf.__getitem__, node_child), node_child)):
            stamps[bisect_right(node_off, slot) - 1] = -1
        parent_nodes = read.parent_nodes
        pairs = [0] * (2 * len(parent_nodes))
        pairs[0::2] = parent_nodes
        pairs[1::2] = read.parent_classes
        graph._op_classes = None
        classes = graph._classes
        class_nodes = read.class_nodes
        canonical = bytes(map(eq, map(stamps.__getitem__, class_nodes),
                              repeat(graph._epoch)))
        cache = graph._enode_cache
        class_node_off = read.class_node_off
        class_parent_off = read.class_parent_off
        for class_id, node_low, node_high, parent_low, parent_high in zip(
                read.class_ids, class_node_off,
                islice(class_node_off, 1, None), class_parent_off,
                islice(class_parent_off, 1, None)):
            nodes = class_nodes[node_low:node_high]
            classes[class_id] = _DenseClass(
                class_id, set(nodes), pairs[2 * parent_low:2 * parent_high])
            if canonical.count(1, node_low, node_high) \
                    == node_high - node_low:
                cache[class_id] = nodes
        graph._hashcons = read.hashcons
        graph._pending = list(read.pending)
        graph._clean = read.clean
        graph._dirty = set(read.dirty)
        graph._seq = dict(zip(read.class_ids, read.seq))
        return graph

    def dump(self, limit: int = 50) -> str:  # pragma: no cover - debugging aid
        lines = []
        for count, eclass in enumerate(self._classes.values()):
            if count >= limit:
                lines.append("...")
                break
            nodes = ", ".join(str(self.decode(node_id))
                              for node_id in eclass.node_ids)
            lines.append(f"class {eclass.id}: {nodes}")
        return "\n".join(lines)


def as_engine(egraph, engine: str):
    """Return ``egraph`` as a ``"dense"`` :class:`DenseEGraph` or a
    ``"python"`` object-graph :class:`~repro.egraph.egraph.EGraph`.

    Conversion round-trips through :meth:`export_state`, which preserves
    every bit of observable state, so switching representations
    mid-saturation (e.g. resuming a checkpoint under the object graph) is
    transparent.  Returns the input object unchanged when it already has
    the requested representation.
    """
    if engine not in ("dense", "python"):
        raise ValueError(f"unknown e-graph engine {engine!r}; expected "
                         "'dense' or 'python'")
    target = DenseEGraph if engine == "dense" else EGraph
    if isinstance(egraph, target):
        return egraph
    return target.from_state(egraph.export_state())
