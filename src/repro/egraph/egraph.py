"""The e-graph data structure: hash-consed e-nodes grouped into e-classes.

This is a from-scratch Python implementation of the data structure described
in the egg paper (Willsey et al., POPL 2021), providing the operations BoolE
needs: insertion with hash-consing, union, deferred rebuilding (congruence
closure), per-operator indexing for e-matching, and pruning helpers.

Two structures are maintained incrementally to support delta e-matching
(see ``docs/performance.md``):

* an **operator index** mapping each operator to the set of e-class ids that
  have ever contained an e-node with that operator.  Entries may be stale
  (classes merge away); they are canonicalised lazily on read, which keeps
  ``add``/``union`` O(1) while queries stay sound over-approximations.
* a **dirty set** of e-classes touched by ``add``/``union`` (and therefore by
  congruence repair) since the last :meth:`take_dirty`.  Rewrite drivers use
  it to re-match rules only against the changed frontier of the e-graph.

Determinism: every e-class carries a monotone **insertion sequence id** that
survives unions (the merged class keeps the smaller of the two seqs), and
every collection handed out for iteration — :meth:`enodes`,
:meth:`class_ids`, :meth:`classes`, :meth:`take_dirty`, :meth:`peek_dirty` —
is sorted by that seq (e-nodes by a structural key).  Python randomises
``str`` hashing per process (``PYTHONHASHSEED``), so anything that iterates
a set of e-nodes in raw hash order would make saturation results depend on
the seed; sorting at the hand-out points makes the whole saturation
pipeline a pure function of its input.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    AbstractSet,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from .enode import ENode, Op
from .pattern import MatchPlan, Pattern, Request, Row, Slots, instantiate
from .unionfind import UnionFind

__all__ = ["EClass", "EGraph", "enode_sort_key"]


def enode_sort_key(node: ENode) -> Tuple[str, Tuple[int, ...], str]:
    """A total, hash-independent order over e-nodes.

    Orders by operator name, then child class ids, then payload rendered as
    text (payloads mix ``str``/``bool`` so they cannot be compared directly).
    Used everywhere a set of e-nodes is handed out for iteration.
    """
    return (node.op, node.children, str(node.payload))


@dataclass
class EClass:
    """An equivalence class of e-nodes.

    Attributes:
        id: canonical id of the class (kept in sync by the e-graph).
        nodes: the e-nodes belonging to this class (children may be stale
            between rebuilds; they are canonicalised lazily).
        parents: list of ``(parent_enode, parent_class_id)`` pairs used for
            congruence repair during rebuilding.
    """

    id: int
    nodes: Set[ENode] = field(default_factory=set)
    parents: List[Tuple[ENode, int]] = field(default_factory=list)


class EGraph:
    """A congruence-closed e-graph over :class:`~repro.egraph.enode.ENode`.

    The public API mirrors egg: :meth:`add`, :meth:`union`, :meth:`rebuild`,
    :meth:`find`, plus convenience constructors for Boolean terms.
    """

    def __init__(self) -> None:
        self._union_find = UnionFind()
        #: E-nodes scanned by the e-matcher (in-memory observability only;
        #: never serialized).  Incremented by the pattern matcher, read by
        #: the runner to report an effective e-matching rate.
        self.match_ops = 0
        self._classes: Dict[int, EClass] = {}
        self._hashcons: Dict[ENode, int] = {}
        self._pending: List[int] = []
        self._clean = True
        self._op_classes: Dict[str, Set[int]] = {}
        self._dirty: Set[int] = set()
        self._enode_cache: Dict[int, List[ENode]] = {}
        # Seq-sorted canonical class ids; rebuilt lazily after mutations so
        # the per-call cost of class_ids()/classes() stays O(n), not
        # O(n log n) (extraction fixpoint loops call them every pass).
        self._class_order: Optional[List[int]] = None
        # Canonical class id -> insertion sequence id.  Seqs are allocated
        # monotonically at ``add`` time and survive unions: the surviving
        # class keeps the smaller seq, giving a stable total order over
        # classes that both engines (full-scan and delta) agree on.
        self._seq: Dict[int, int] = {}
        # Cached num_canonical_nodes(); invalidated with the e-node cache.
        self._num_canonical: Optional[int] = None

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    @property
    def num_classes(self) -> int:
        """Number of (canonical) e-classes."""
        return len(self._classes)

    @property
    def num_nodes(self) -> int:
        """Total number of stored e-nodes across all classes.

        Between rebuilds this may count *stale duplicates* — nodes that
        differ only in not-yet-canonicalised children; use
        :meth:`num_canonical_nodes` for a representation-independent count.
        """
        return sum(len(cls.nodes) for cls in self._classes.values())

    def num_canonical_nodes(self) -> int:
        """Number of distinct e-nodes after canonicalising children.

        Unlike :attr:`num_nodes` this is invariant under the merge history
        that produced the e-graph, so two saturation engines reaching the
        same e-graph agree on it exactly.  The count is cached until the
        next mutation (it shares the e-node cache's invalidation), so
        repeated calls between rewrites are O(1).
        """
        count = self._num_canonical
        if count is None:
            count = self._num_canonical = sum(
                len(self.enodes(class_id)) for class_id in self._classes)
        return count

    @property
    def is_clean(self) -> bool:
        """True when the congruence invariant holds (no pending unions)."""
        return self._clean

    def find(self, class_id: int) -> int:
        """Return the canonical id of an e-class."""
        return self._union_find.find(class_id)

    def seq(self, class_id: int) -> int:
        """Stable sort key of an e-class: its insertion sequence id.

        Seqs are assigned monotonically on insertion and survive
        canonicalisation — when two classes merge, the surviving class keeps
        the smaller seq.  Sorting by seq therefore gives the same relative
        order before and after any series of unions.
        """
        return self._seq[self.find(class_id)]

    def sorted_by_seq(self, ids: Iterable[int]) -> List[int]:
        """Sort **canonical** class ids by their insertion seq.

        The ids must be canonical (stale ids raise ``KeyError``); this keeps
        the hot path a plain C-level dict lookup per element.
        """
        return sorted(ids, key=self._seq.__getitem__)

    def _ordered_class_ids(self) -> List[int]:
        order = self._class_order
        if order is None:
            order = self._class_order = self.sorted_by_seq(self._classes.keys())
        return order

    def classes(self) -> Iterator[EClass]:
        """Iterate over the canonical e-classes in stable (seq) order.

        The snapshot is taken eagerly so callers that mutate the e-graph
        mid-iteration see the classes as they were when iteration started.
        """
        classes = self._classes
        return iter([classes[class_id]
                     for class_id in self._ordered_class_ids()])

    def eclass(self, class_id: int) -> EClass:
        """Return the canonical :class:`EClass` containing ``class_id``."""
        return self._classes[self.find(class_id)]

    def enodes(self, class_id: int) -> List[ENode]:
        """Return the canonicalised e-nodes of a class in stable order.

        The list is sorted by :func:`enode_sort_key` so iteration order is
        independent of ``PYTHONHASHSEED``, and cached until the next mutation
        (this is the e-matching hot path); callers must not modify it.
        """
        root = self.find(class_id)
        cached = self._enode_cache.get(root)
        if cached is None:
            # The stored set may hold stale duplicates (same node reached
            # through different pre-merge children); canonicalising into a
            # set first merges them so matching never sees duplicates.
            cached = sorted({node.canonicalize(self.find)
                             for node in self._classes[root].nodes},
                            key=enode_sort_key)
            self._enode_cache[root] = cached
        return cached

    def _invalidate_enode_cache(self) -> None:
        if self._enode_cache:
            self._enode_cache.clear()
        self._class_order = None
        self._num_canonical = None

    def __contains__(self, node: ENode) -> bool:
        return node.canonicalize(self.find) in self._hashcons

    def lookup(self, node: ENode) -> Optional[int]:
        """Return the class id of ``node`` if it is already present."""
        canonical = node.canonicalize(self.find)
        found = self._hashcons.get(canonical)
        return None if found is None else self.find(found)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add(self, node: ENode) -> int:
        """Insert an e-node and return its (canonical) e-class id."""
        canonical = node.canonicalize(self.find)
        existing = self._hashcons.get(canonical)
        if existing is not None:
            return self.find(existing)
        class_id = self._union_find.make_set()
        eclass = EClass(id=class_id)
        eclass.nodes.add(canonical)
        self._classes[class_id] = eclass
        self._seq[class_id] = class_id  # make_set ids are already monotone
        self._hashcons[canonical] = class_id
        # ``canonical.children`` are already canonical ids (canonicalize maps
        # every child through ``find``), so they index ``_classes`` directly.
        for child in canonical.children:
            self._classes[child].parents.append((canonical, class_id))
        self._op_classes.setdefault(canonical.op, set()).add(class_id)
        self._dirty.add(class_id)
        self._invalidate_enode_cache()
        return class_id

    def add_leaf(self, op: str, payload: Hashable) -> int:
        """Insert a leaf node (variable or constant)."""
        return self.add(ENode(op, (), payload))

    def var(self, name: str) -> int:
        """Insert (or look up) the variable ``name``."""
        return self.add_leaf(Op.VAR, name)

    def const(self, value: bool) -> int:
        """Insert (or look up) a Boolean constant."""
        return self.add_leaf(Op.CONST, bool(value))

    def add_term(self, op: str, *children: int) -> int:
        """Insert an operator node over existing class ids."""
        return self.add(ENode(op, tuple(children)))

    def add_expr(self, expr) -> int:
        """Insert a nested tuple expression.

        ``expr`` is either a string (variable name), a bool/int constant, or a
        tuple ``(op, child_expr...)``.  Returns the e-class id of the root.
        """
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
        """Assert that classes ``a`` and ``b`` are equivalent.

        Returns True if the e-graph changed (the classes were distinct).
        """
        root_a = self.find(a)
        root_b = self.find(b)
        if root_a == root_b:
            return False
        # Keep the class with more parents as the leader to move less data.
        if len(self._classes[root_a].parents) < len(self._classes[root_b].parents):
            root_a, root_b = root_b, root_a
        self._union_find.union(root_a, root_b)
        class_a = self._classes[root_a]
        class_b = self._classes.pop(root_b)
        class_a.nodes.update(class_b.nodes)
        class_a.parents.extend(class_b.parents)
        # The survivor keeps the smaller insertion seq so the stable order
        # is insensitive to which id the leader heuristic picked.
        seq_b = self._seq.pop(root_b)
        if seq_b < self._seq[root_a]:
            self._seq[root_a] = seq_b
        self._pending.append(root_a)
        self._clean = False
        self._dirty.add(root_a)
        self._invalidate_enode_cache()
        return True

    def rebuild(self) -> int:
        """Restore the congruence invariant; returns the number of repairs."""
        repairs = 0
        while self._pending:
            todo = {self.find(class_id) for class_id in self._pending}
            self._pending.clear()
            for class_id in todo:
                repairs += self._repair(class_id)
        self._clean = True
        return repairs

    def _repair(self, class_id: int) -> int:
        class_id = self.find(class_id)
        eclass = self._classes.get(class_id)
        if eclass is None:
            return 0
        repairs = 0

        # Re-canonicalise the parents and detect congruent duplicates.
        seen: Dict[ENode, int] = {}
        new_parents: List[Tuple[ENode, int]] = []
        for parent_node, parent_class in eclass.parents:
            canonical = parent_node.canonicalize(self.find)
            stale = self._hashcons.pop(parent_node, None)
            if stale is not None and parent_node != canonical:
                # keep hashcons keyed by canonical form
                pass
            existing = seen.get(canonical)
            parent_root = self.find(parent_class)
            if existing is not None:
                if self.find(existing) != parent_root:
                    self.union(existing, parent_root)
                    repairs += 1
                parent_root = self.find(existing)
            else:
                seen[canonical] = parent_root
            previous = self._hashcons.get(canonical)
            if previous is not None and self.find(previous) != parent_root:
                self.union(previous, parent_root)
                repairs += 1
                parent_root = self.find(previous)
            self._hashcons[canonical] = parent_root
            new_parents.append((canonical, parent_root))

        root = self.find(class_id)
        current = self._classes.get(root)
        if current is None:
            return repairs
        if root == class_id:
            current.parents = new_parents
        else:
            # The class was merged away during repair (self-referential
            # union); its parents were already moved by ``union``.
            current.parents.extend(new_parents)

        # Canonicalise the nodes stored in the (possibly merged) class.
        current.nodes = {node.canonicalize(self.find) for node in current.nodes}
        return repairs

    # ------------------------------------------------------------------
    # Indexing and maintenance helpers
    # ------------------------------------------------------------------
    def class_ids(self) -> List[int]:
        """Return the canonical class ids in stable (seq) order."""
        return list(self._ordered_class_ids())

    def candidate_classes(self, op: str) -> Set[int]:
        """Canonical ids of every e-class that may contain an ``op`` e-node.

        The persistent operator index is a sound over-approximation:
        classes are never missing, but a class may no longer hold the
        operator after pruning.  Stale ids left behind by unions are
        compacted on read.  Callers must treat the result as read-only, and
        must not iterate it directly for matching — order it first with
        :meth:`sorted_by_seq` (``MatchPlan.candidate_roots`` does this) so
        match order is deterministic.
        """
        ids = self._op_classes.get(op)
        if not ids:
            return set()
        canonical = {self.find(class_id) for class_id in ids}
        if len(canonical) != len(ids):
            self._op_classes[op] = set(canonical)
        return canonical

    def search_rows(self, plan: MatchPlan,
                    restrict: Optional[AbstractSet[int]] = None) -> List[Row]:
        """:meth:`MatchPlan.search` as match rows (the engine-neutral form
        :func:`~repro.egraph.rewrite.apply_rules` consumes).

        Row ``(root, c1, c2, ...)`` binds the plan's variables in
        :func:`pattern_vars` order; ``plan.slots`` names their positions.
        """
        names = list(plan.slots)
        return [(root, *[subst[name] for name in names])
                for root, subst in plan.search(self, restrict)]

    def search_batch(self, requests: Sequence[Request]
                     ) -> List[Optional[List[List[Row]]]]:
        """Answer one round's searches: per request, the rows of each of
        its plans, or ``None`` when they add up to more than the request's
        budget.  A plain loop over :meth:`search_rows` — the oracle for the
        dense engine's shared matcher."""
        results: List[Optional[List[List[Row]]]] = []
        for budget, searches in requests:
            found: Optional[List[List[Row]]] = []
            count = 0
            for plan, restrict in searches:
                rows = self.search_rows(plan, restrict)
                count += len(rows)
                if budget is not None and count > budget:
                    found = None
                    break
                found.append(rows)
            results.append(found)
        return results

    def apply_rows(self, build: Pattern, rows: Iterable[Row],
                   slots: Slots) -> int:
        """Instantiate ``build`` per row and union it with the row's root;
        returns the number of unions that merged two classes."""
        unions = 0
        for row in rows:
            subst = {name: row[slot] for name, slot in slots.items()}
            if self.union(row[0], instantiate(self, build, subst)):
                unions += 1
        return unions

    def parent_classes(self, class_id: int) -> Set[int]:
        """Canonical ids of the classes whose e-nodes use ``class_id`` as a child."""
        eclass = self._classes.get(self.find(class_id))
        if eclass is None:
            return set()
        return {self.find(parent_class) for _node, parent_class in eclass.parents}

    def peek_dirty(self) -> List[int]:
        """Return the current dirty classes (canonical, seq-sorted) without
        clearing them."""
        return self.sorted_by_seq({self.find(class_id)
                                   for class_id in self._dirty})

    def take_dirty(self) -> List[int]:
        """Return and clear the classes touched since the last call.

        A class is *touched* when a new e-node is inserted into it or when it
        absorbs another class through :meth:`union` (including the unions
        triggered by congruence repair during :meth:`rebuild`).  The returned
        ids are canonical with respect to the current union-find state and
        sorted by insertion seq (deterministic iteration order).
        """
        dirty = {self.find(class_id) for class_id in self._dirty}
        self._dirty.clear()
        return self.sorted_by_seq(dirty)

    def prune_duplicates(self, ops: Iterable[str]) -> int:
        """Drop redundant e-nodes that differ only by child permutation.

        For commutative/symmetric operators (the paper prunes ``XOR``, ``MAJ``
        and ``FA`` variants produced by commutativity) only one representative
        per multiset of children is kept inside each e-class.  Returns the
        number of removed e-nodes.
        """
        ops = set(ops)
        removed = 0
        self._invalidate_enode_cache()
        for eclass in self._classes.values():
            kept: Dict[Tuple, ENode] = {}
            new_nodes: Set[ENode] = set()
            # Canonicalise before sorting so the surviving representative of
            # each permutation group does not depend on set iteration (hash)
            # order or on stale child ids.
            for canonical in sorted((node.canonicalize(self.find)
                                     for node in eclass.nodes),
                                    key=enode_sort_key):
                if canonical.op in ops:
                    key = (canonical.op, tuple(sorted(canonical.children)),
                           canonical.payload)
                    if key in kept:
                        removed += 1
                        continue
                    kept[key] = canonical
                new_nodes.add(canonical)
            eclass.nodes = new_nodes
        return removed

    def total_size(self) -> Tuple[int, int]:
        """Return ``(num_classes, num_nodes)``."""
        return self.num_classes, self.num_nodes

    # ------------------------------------------------------------------
    # Snapshot support (repro.store)
    # ------------------------------------------------------------------
    def export_state(self) -> Dict[str, object]:
        """Return the complete mutable state as plain Python containers.

        Everything a bit-identical restore needs is included: the union-find
        parent array (exported fully path-compressed — see
        :meth:`~repro.egraph.unionfind.UnionFind.canonical_list` — so the
        bytes depend only on the unions performed, not on which searches
        compressed which paths), the per-class node sets and parent lists,
        the hashcons, pending repairs, the dirty set and the insertion seqs.
        The operator index and the e-node/order caches are *derived* state
        and are rebuilt by :meth:`from_state`.

        Collections that are sets in memory are handed out sorted so the
        exported state is independent of ``PYTHONHASHSEED``.  This state is
        the bridge between the engines (:func:`~repro.egraph.as_engine`);
        snapshots are encoded from the dense engine's arrays
        (:meth:`~repro.egraph.DenseEGraph.to_columns`).  Nodes are shared
        with the live object — :class:`ENode` is immutable.
        """
        classes = {}
        for class_id in sorted(self._classes):
            eclass = self._classes[class_id]
            classes[class_id] = (
                sorted(eclass.nodes, key=enode_sort_key),
                list(eclass.parents),
            )
        return {
            "parents_array": self._union_find.canonical_list(),
            "classes": classes,
            "hashcons": dict(self._hashcons),
            "pending": list(self._pending),
            "clean": self._clean,
            "dirty": sorted(self._dirty),
            "seq": dict(self._seq),
        }

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "EGraph":
        """Rebuild an e-graph from :meth:`export_state` output.

        The operator index is repopulated from the stored class contents
        (every class that holds an ``op`` node is registered for ``op``,
        which keeps :meth:`candidate_classes` a sound over-approximation)
        and the e-node/order caches start cold.
        """
        egraph = cls()
        egraph._union_find = UnionFind.from_list(state["parents_array"])
        for class_id, (nodes, parents) in state["classes"].items():
            eclass = EClass(id=class_id, nodes=set(nodes),
                            parents=list(parents))
            egraph._classes[class_id] = eclass
            for node in eclass.nodes:
                egraph._op_classes.setdefault(node.op, set()).add(class_id)
        egraph._hashcons = dict(state["hashcons"])
        egraph._pending = list(state["pending"])
        egraph._clean = bool(state["clean"])
        egraph._dirty = set(state["dirty"])
        egraph._seq = dict(state["seq"])
        return egraph

    def dump(self, limit: int = 50) -> str:  # pragma: no cover - debugging aid
        """Return a human-readable dump of the first ``limit`` classes."""
        lines = []
        for count, eclass in enumerate(self._classes.values()):
            if count >= limit:
                lines.append("...")
                break
            nodes = ", ".join(str(node) for node in eclass.nodes)
            lines.append(f"class {eclass.id}: {nodes}")
        return "\n".join(lines)
