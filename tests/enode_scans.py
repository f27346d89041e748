"""The ``ENode`` scans that FA pairing, the NPN count and extraction ran
on before they read the dense engine's int columns, kept as test oracles.

Each walks every class through ``classes()`` and decodes every node
through ``enodes()``.  ``tests/test_int_passes.py`` asserts the production
passes give exactly their answers: the same pair list in the same order,
the same NPN count and the same ``(fa_mask, size, node)`` per extraction
entry.  Do not optimise this module; its slowness is what it is for.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.extraction import _SIZE_CAP, BoolEExtractor, CostEntry
from repro.core.fa_structure import FAInsertionReport, FAPair
from repro.egraph import EGraph, ENode, Op
from repro.egraph.extract import worklist_tables


def scan_insert_fa_structures(egraph: EGraph) -> FAInsertionReport:
    """Pair XOR3/MAJ e-nodes with identical inputs and insert FA structures.

    Returns the list of inserted pairs, ordered by the stable insertion seq
    of the sum (XOR3) class so counting and reporting are deterministic.
    The e-graph is rebuilt afterwards.
    """
    egraph.rebuild()
    # ``classes()``/``enodes()`` iterate in stable (seq / structural) order,
    # so discovery order — and with it ``setdefault`` winners and the pair
    # list below — is independent of the hash seed.
    xor_by_inputs: Dict[Tuple[int, ...], int] = {}
    maj_by_inputs: Dict[Tuple[int, ...], int] = {}
    for eclass in list(egraph.classes()):
        class_id = egraph.find(eclass.id)
        for node in egraph.enodes(class_id):
            if node.op not in (Op.XOR3, Op.MAJ):
                continue
            key = tuple(sorted(egraph.find(child) for child in node.children))
            if len(set(key)) != 3:
                continue  # degenerate (repeated input) blocks are not FAs
            if node.op == Op.XOR3:
                xor_by_inputs.setdefault(key, class_id)
            else:
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


def _complement_map(egraph: EGraph) -> Dict[int, int]:
    """Map each e-class to the class of its complement (where one exists)."""
    complements: Dict[int, int] = {}
    for eclass in egraph.classes():
        class_id = egraph.find(eclass.id)
        for node in egraph.enodes(class_id):
            if node.op == Op.NOT:
                child = egraph.find(node.children[0])
                complements[class_id] = child
                complements.setdefault(child, class_id)
    return complements


def scan_count_npn_fa_pairs(egraph: EGraph) -> int:
    """Count FA structures up to NPN equivalence of their inputs.

    Two discoveries whose input classes agree modulo complementation (an input
    arriving in the opposite polarity) describe the same NPN full adder; this
    is the quantity Figure 4 reports as "NPN FAs" for BoolE.
    """
    egraph.rebuild()
    complements = _complement_map(egraph)

    def canonical_input(class_id: int) -> int:
        other = complements.get(class_id)
        if other is None:
            return class_id
        return min(class_id, other)

    xor_keys: Set[Tuple[int, ...]] = set()
    maj_keys: Set[Tuple[int, ...]] = set()
    for eclass in egraph.classes():
        class_id = egraph.find(eclass.id)
        for node in egraph.enodes(class_id):
            if node.op not in (Op.XOR3, Op.MAJ):
                continue
            key = tuple(sorted(canonical_input(egraph.find(child))
                               for child in node.children))
            if len(set(key)) != 3:
                continue
            if node.op == Op.XOR3:
                xor_keys.add(key)
            else:
                maj_keys.add(key)
    return len(xor_keys & maj_keys)


@dataclass
class ScanExtraction:
    """The oracle's extraction: ``fa_index`` and a ``class id →
    CostEntry`` dict, as :class:`~repro.core.extraction.BoolEExtraction`
    hands them out."""

    fa_index: Tuple[int, ...]
    entries: Dict[int, CostEntry]


def scan_extract(egraph: EGraph, roots: Optional[Sequence[int]] = None, *,
                 refine_rounds: int = 0) -> ScanExtraction:
    """``BoolEExtractor(refine_rounds=...).extract`` over decoded
    :class:`ENode` tables (``worklist_tables``), with the default node
    costs."""
    egraph.rebuild()
    node_cost = BoolEExtractor().node_cost

    # ---- one deterministic setup scan -------------------------------
    # Dense class indices in seq order, nodes flattened with
    # owners/children/tie-breaks, Kahn in-degrees and the
    # insertion-ordered node-level dependency index.
    (class_list, nodes, owner, children, tiebreak, waiting,
     users) = worklist_tables(egraph)
    num_classes = len(class_list)

    # BoolE-specific node tables: per-operator base costs, and the
    # FA-bearing classes enumerated into dense bit positions (the nodes
    # list is in (class seq, node sort) order, so bit assignment is
    # deterministic).
    base: List[int] = [node_cost.get(node.op, 1) for node in nodes]
    fa_index: List[int] = []      # bit position -> FA class id
    fa_self_bit: List[int] = [0] * len(nodes)
    fa_bit_of_class: Dict[int, int] = {}
    for node_id, node in enumerate(nodes):
        if node.op == Op.FA:
            class_position = owner[node_id]
            bit = fa_bit_of_class.get(class_position)
            if bit is None:
                bit = fa_bit_of_class[class_position] = 1 << len(fa_index)
                fa_index.append(class_list[class_position])
            fa_self_bit[node_id] = bit

    # ---- cost propagation -------------------------------------------
    # Best entry per class as parallel arrays (choice < 0 = no entry).
    best_mask: List[int] = [0] * num_classes
    best_size: List[int] = [0] * num_classes
    choice: List[int] = [-1] * num_classes

    def evaluate(node_id: int) -> Tuple[int, int]:
        mask = fa_self_bit[node_id]
        size = base[node_id]
        for child_position in children[node_id]:
            mask |= best_mask[child_position]
            size += best_size[child_position]
        return mask, (size if size <= _SIZE_CAP else _SIZE_CAP)

    def propagate(seeds) -> bool:
        """Run the worklist fixpoint from ``seeds``; True if anything
        was accepted."""
        queue = deque(seeds)
        queued = bytearray(len(nodes))
        for node_id in queue:
            queued[node_id] = 1
        changed = False
        while queue:
            node_id = queue.popleft()
            queued[node_id] = 0
            mask, size = evaluate(node_id)
            class_position = owner[node_id]
            current = choice[class_position]
            if current < 0:
                accept = True
            else:
                current_mask = best_mask[class_position]
                current_size = best_size[class_position]
                count = mask.bit_count()
                current_count = current_mask.bit_count()
                if count != current_count:
                    accept = count > current_count
                elif size != current_size:
                    accept = size < current_size
                elif node_id == current:
                    # Same choice, but a child's tie-break swap changed
                    # *which* FA classes flow up while keeping their
                    # count; store the refreshed mask and let it
                    # propagate.  (Keeping the strictly-improving
                    # discipline here is what keeps the chosen-node
                    # graph acyclic for reconstruction; any residual
                    # staleness is fixed by the value-repair pass.)
                    accept = mask != current_mask
                else:
                    # Equal (FA count, size): break the tie by (op,
                    # child seqs, payload) so the chosen representative
                    # does not depend on evaluation order.
                    accept = tiebreak[node_id] < tiebreak[current]
            if not accept:
                continue
            changed = True
            spread = (current < 0
                      or mask != best_mask[class_position]
                      or size != best_size[class_position])
            best_mask[class_position] = mask
            best_size[class_position] = size
            choice[class_position] = node_id
            if current < 0:
                # First entry: release Kahn successors of this class.
                for user in users[class_position]:
                    remaining = waiting[user] - 1
                    waiting[user] = remaining
                    if not remaining and not queued[user]:
                        queued[user] = 1
                        queue.append(user)
            elif spread:
                # Improvement/refresh: only re-evaluate the e-nodes
                # that actually consume this class (released ones).
                for user in users[class_position]:
                    if not waiting[user] and not queued[user]:
                        queued[user] = 1
                        queue.append(user)
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
        bitmap: classes on chosen-node cycles (a chosen node over its own
        class included) stay 0 (unreachable bookkeeping only —
        reconstruction rejects them).
        """
        chosen_indegree = [0] * num_classes
        chosen_users: List[List[int]] = [[] for _ in range(num_classes)]
        for class_position in range(num_classes):
            node_id = choice[class_position]
            if node_id < 0:
                continue
            seen = set()
            for child_position in children[node_id]:
                if child_position not in seen:
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
            for user in chosen_users[class_position]:
                chosen_indegree[user] -= 1
                if not chosen_indegree[user]:
                    queue.append(user)
        return repaired

    propagate(node_id for node_id in range(len(nodes))
              if not waiting[node_id])
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
    if refine_rounds > 0:
        if roots is not None:
            class_index = {class_id: position for position, class_id
                           in enumerate(class_list)}
            root_positions = []
            seen_roots = set()
            for root in roots:
                position = class_index.get(egraph.find(root))
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
        for _ in range(refine_rounds):
            changed = propagate(node_id for node_id in range(len(nodes))
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
    entries: Dict[int, CostEntry] = {}
    for class_position, class_id in enumerate(class_list):
        node_id = choice[class_position]
        if node_id >= 0:
            entries[class_id] = CostEntry(
                fa_mask=best_mask[class_position],
                size=best_size[class_position],
                node=nodes[node_id],
                fa_index=fa_index_tuple)
    return ScanExtraction(fa_index=fa_index_tuple, entries=entries)
