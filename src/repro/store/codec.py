"""Versioned snapshot codec for e-graphs and resumable saturation runs.

The codec turns e-graphs (via :meth:`repro.egraph.DenseEGraph.to_columns`),
:meth:`repro.egraph.BackoffScheduler.export_state` and
:class:`repro.egraph.RunnerCheckpoint` into a compact JSON *wire form* and
back, and reads/writes the wire form as snapshot files: one gzip member
holding a JSON skeleton and the payload's int lists as packed blobs.

Design points:

* **Columns.**  The e-graph section is a set of flat int columns written
  straight from the dense engine's struct-of-arrays (union-find array,
  node op/payload/CSR-children columns, per-class node and parent
  offsets, hashcons, seqs) and decoded straight back into a
  :class:`~repro.egraph.DenseEGraph` — no :class:`~repro.egraph.ENode` is
  built on either side — or, for a reader that only extracts, into the
  read-only :class:`~repro.egraph.dense.NodeTable`
  (:func:`node_table_from_wire`).  Object-engine graphs reach the codec
  through :func:`~repro.egraph.as_engine`.  The ``kind="extraction"`` wire form
  keeps its chosen nodes in the same node columns
  (:func:`~repro.egraph.dense.write_node_columns`).
* **Blobs.**  Every list of plain ints in a payload (the columns above,
  and any other long enough) leaves the JSON and is stored as a packed
  little-endian array after it, so writing and reading a snapshot costs
  array conversions instead of decimal text (:func:`write_snapshot`).
* **Determinism.**  The columns number e-nodes in a canonical order
  (class ids ascending, nodes by
  :func:`~repro.egraph.egraph.enode_sort_key`, then parent lists, then
  the hashcons), JSON is written with sorted keys and blobs in that same
  key order, so snapshotting the same e-graph twice — under any
  ``PYTHONHASHSEED``, with either engine — produces byte-identical files
  (gzip is written with a zeroed mtime for the same reason).
* **Versioning.**  Every file carries ``codec_version``; loading a
  mismatched version raises :class:`SnapshotVersionError`.  The version
  also salts every fingerprint (:mod:`repro.store.fingerprint`), so a
  codec bump invalidates all previously cached artifacts at the key level
  — stale snapshots are never even opened.
* **Atomicity.**  Files are written to a temporary sibling and
  ``os.replace``d into place, so readers never observe a half-written
  snapshot and a crashed writer leaves at most a ``*.tmp*`` file for GC.

The derived e-graph structures (operator index, node interning table,
caches) are *not* serialized; ``DenseEGraph.from_columns`` rebuilds them
on load.
"""

from __future__ import annotations

import json
import math
import operator
import os
import sys
import tempfile
import zlib
from array import array
from itertools import chain, compress, islice
from operator import countOf
from pathlib import Path
from typing import (TYPE_CHECKING, Any, Callable, Dict, Iterable, List,
                    Optional, Sequence, Tuple, Union)

from ..aig import AIG, AndGate

if TYPE_CHECKING:  # import cycle: repro.core imports repro.store
    from ..core.extraction import BoolEExtraction
from ..egraph import (
    BackoffScheduler,
    DenseEGraph,
    EGraph,
    IterationReport,
    Op,
    RuleStats,
    RunnerCheckpoint,
    RunnerLimits,
    RunnerReport,
    StopReason,
    as_engine,
)
from ..egraph.dense import (PAYLOAD_TYPES, NodeTable, read_node_columns,
                            read_node_table)

__all__ = [
    "CODEC_VERSION",
    "SNAPSHOT_FORMAT",
    "KIND_EGRAPH",
    "KIND_CHECKPOINT",
    "KIND_SATURATED",
    "KIND_EXTRACTION",
    "KIND_JOB",
    "KIND_SWEEP",
    "SnapshotError",
    "SnapshotVersionError",
    "egraph_to_wire",
    "egraph_from_wire",
    "node_table_from_wire",
    "aig_to_wire",
    "aig_from_wire",
    "extraction_to_wire",
    "extraction_from_wire",
    "scheduler_to_wire",
    "scheduler_from_wire",
    "report_to_wire",
    "report_from_wire",
    "checkpoint_to_wire",
    "checkpoint_from_wire",
    "write_snapshot",
    "read_snapshot",
    "save_egraph",
    "load_egraph",
    "save_checkpoint",
    "load_checkpoint",
]

#: Bump on any change to the wire layout below.  The version is embedded in
#: every snapshot file *and* salts every content fingerprint, so a bump
#: atomically invalidates all cached artifacts.
#:
#: v2: added the ``kind="extraction"`` wire form, and the extraction
#: rewrite changed entry *semantics* (values are repaired along the chosen
#: DAG instead of carrying the old stale optimism) — pre-rewrite artifacts
#: must never hit.
#:
#: v3: phase-graph pipeline — ``kind="checkpoint"`` artifacts gained the
#: ``phase``/``prior`` fields (cumulative upstream state for mid-phase
#: resume), runner reports carry ``resumed_at``, and the option
#: fingerprint's excluded-field set changed (``refine_rounds``,
#: ``checkpoint_every``), which silently re-keys every artifact anyway.
#:
#: v4: the e-graph section is flat int columns encoded from and decoded
#: into the dense engine (:meth:`DenseEGraph.to_columns`), replacing the
#: nested, object-interned class/node lists; deflate level 6.
#:
#: v5: the file is a JSON skeleton plus packed little-endian blobs, one
#: per list of plain ints in the payload (:func:`write_snapshot`), deflated
#: at level 1.  The wire dicts themselves are unchanged.
#:
#: v6: the extraction wire form is the e-graph's node columns plus four
#: parallel entry columns, replacing its private payload table and rows.
#:
#: v7: the ``kind="extraction"`` artifact is self-contained (it carries the
#: saturated key, the construction bookkeeping, both runner reports, the
#: FA pairs, the NPN count and the graph's shape, so serving it needs no
#: saturated e-graph), and entry FA masks are a CSR column of ``fa_index``
#: positions instead of JSON big ints.
#:
#: v8: the construction bookkeeping's ``class_of_var`` and
#: ``literal_classes`` maps are each two parallel int columns, keys
#: ascending, instead of ``[key, class]`` rows that never packed.
#:
#: v9: the extraction wire form stores choices, not values: the per-entry
#: ``entry_size``/``entry_fa_off``/``entry_fa_bit`` columns are gone (the
#: decoder derives them from the chosen nodes), and ``op_cost`` plus the
#: ``cyclic_*`` values of entries above a chosen-node cycle are new.
CODEC_VERSION = 9

SNAPSHOT_FORMAT = "repro.store/snapshot"

#: Deflate level of snapshot files.  Packed int blobs leave deflate much
#: less to find than JSON digits did: on the 16-bit CSA saturated e-graph
#: (1.9 MB on disk) level 1 writes the file 2.7x faster than level 6 for
#: 1.5% more bytes, and level 9 is slower still.  Part of the format's
#: byte-identity, so a constant, not an option.
_DEFLATE_LEVEL = 1

#: ``wbits`` of a zlib stream in gzip framing (header, CRC-32, length):
#: a snapshot is one gzip member, so ``zcat`` still opens it.
_GZIP_WBITS = 31

#: Snapshot file kinds written by this module / the pipeline cache.
KIND_EGRAPH = "egraph"
KIND_CHECKPOINT = "checkpoint"
KIND_SATURATED = "saturated-pipeline"
KIND_EXTRACTION = "extraction"
#: Durable service job records (:mod:`repro.service.jobs`).  Unlike the
#: other kinds — whose payloads are pure functions of their key — a job
#: record is *mutable state at a stable key* (the key digests the job's
#: final artifact key, the payload tracks queued→running→done), so job
#: records are excluded from byte-identity guarantees.
KIND_JOB = "job"
#: Durable sweep records (:mod:`repro.service.jobs`): one server-side
#: planned batch fanned out as a DAG of ``kind="job"`` records.  The key
#: digests the member jobs' final keys; like job records the payload is
#: mutable coordination state (terminal rollup), excluded from
#: byte-identity guarantees.
KIND_SWEEP = "sweep"


class SnapshotError(RuntimeError):
    """A snapshot file is malformed or of an unexpected kind."""


class SnapshotVersionError(SnapshotError):
    """A snapshot was written by a different codec version."""


# ----------------------------------------------------------------------
# Strict wire readers
# ----------------------------------------------------------------------
# The report, checkpoint and extraction decoders accept exactly what their
# encoders write: exact JSON types (a ``bool`` is not an ``int``), ids in
# range, tables in first-use order.  Anything else raises SnapshotError
# before a decoded object exists, so the phase executor treats the
# artifact as a miss and recomputes.


def _fields(wire: Any, names: Sequence[str], what: str) -> Dict:
    if type(wire) is not dict or wire.keys() != set(names):
        raise SnapshotError(f"{what} must be an object with fields "
                            f"{sorted(names)}")
    return wire


def _list(value: Any, what: str, length: Optional[int] = None) -> List:
    if type(value) is not list or (length is not None
                                   and len(value) != length):
        raise SnapshotError(f"{what} must be a list"
                            + ("" if length is None else f" of {length}"))
    return value


def _int(value: Any, what: str, low: int = 0,
         high: Optional[int] = None) -> int:
    if type(value) is not int or value < low or (high is not None
                                                 and value >= high):
        raise SnapshotError(f"{what} must be an int in [{low}, "
                            f"{'inf' if high is None else high})")
    return value


def _ints(value: Any, what: str) -> List[int]:
    """A list of non-negative ints, checked with O(n) builtins."""
    column = _list(value, what)
    if countOf(map(type, column), int) != len(column) or (
            column and min(column) < 0):
        raise SnapshotError(f"{what} must be non-negative ints")
    return column


def _of(value: Any, kind: type, what: str) -> Any:
    if type(value) is not kind:
        raise SnapshotError(f"{what} must be a {kind.__name__}")
    return value


def _number(value: Any, what: str) -> float:
    if type(value) not in (int, float):
        raise SnapshotError(f"{what} must be a number")
    return value


def _finite(value: Any, what: str, *, positive: bool = False) -> float:
    """A finite number, ``> 0`` when ``positive`` and ``>= 0`` otherwise
    (NaN fails both)."""
    number = _number(value, what)
    if not (0 < number < math.inf if positive else 0 <= number < math.inf):
        raise SnapshotError(f"{what} must be finite and "
                            + ("> 0" if positive else ">= 0"))
    return number


def _optional(value: Any, read: Callable, *args: Any) -> Any:
    return None if value is None else read(value, *args)


def _ascending(ids: List[int], what: str) -> List[int]:
    if any(map(int.__ge__, ids, ids[1:])):
        raise SnapshotError(f"{what} must be strictly ascending")
    return ids


def _known_classes(egraph: Any, ids: Iterable[int], what: str, *,
                   canonical: bool) -> None:
    """Every id must be allocated in ``egraph`` (and a current class when
    ``canonical``)."""
    for class_id in ids:
        try:
            root = egraph.find(class_id)
        except IndexError:
            root = None
        if root is None or (canonical and root != class_id):
            raise SnapshotError(f"{what} names unknown class {class_id}")


# ----------------------------------------------------------------------
# E-graph wire form
# ----------------------------------------------------------------------
def _serializable(columns: Dict) -> Dict:
    """``columns`` (from :func:`~repro.egraph.dense.write_node_columns`)
    when every payload of its table is a JSON scalar."""
    for payload in columns["payloads"]:
        if not isinstance(payload, PAYLOAD_TYPES):
            raise SnapshotError(
                f"cannot serialize e-node payload of type "
                f"{type(payload).__name__!r} (supported: str, bool, int)")
    return columns


def egraph_to_wire(egraph: Union[EGraph, DenseEGraph]) -> Dict:
    """Encode the complete e-graph state as flat JSON columns.

    Either engine is accepted; the object engine is converted through
    :func:`~repro.egraph.as_engine`, which preserves every bit of state,
    so both engines write identical columns.
    """
    return _serializable(as_engine(egraph, "dense").to_columns())


def egraph_from_wire(wire: Dict) -> DenseEGraph:
    """Decode :func:`egraph_to_wire` output into a dense e-graph.

    Malformed columns raise :class:`SnapshotError` before anything is
    built (see :meth:`DenseEGraph.from_columns` for the checks).
    """
    try:
        return DenseEGraph.from_columns(wire)
    except (KeyError, IndexError, TypeError, ValueError) as error:
        raise SnapshotError(
            f"malformed e-graph columns: {error!r}") from error


def node_table_from_wire(wire: Dict) -> NodeTable:
    """Decode :func:`egraph_to_wire` output into the read-only node table
    extraction reads, without building the e-graph.

    The columns are checked as :func:`egraph_from_wire` checks them, and
    every class node must be canonical, as a clean graph's are (see
    :func:`~repro.egraph.dense.read_node_table`); anything else raises
    :class:`SnapshotError`.
    """
    try:
        return read_node_table(wire)
    except (KeyError, IndexError, TypeError, ValueError) as error:
        raise SnapshotError(
            f"malformed e-graph columns: {error!r}") from error


# ----------------------------------------------------------------------
# AIG / extraction wire forms (the ``kind="extraction"`` artifact)
# ----------------------------------------------------------------------
def aig_to_wire(aig: AIG) -> Dict:
    """Encode an AIG (structure, signal names, display name) for a snapshot."""
    return {
        "name": aig.name,
        "inputs": [[var, aig.input_names[var]] for var in aig.inputs],
        "gates": [[gate.out_var, gate.fanin0, gate.fanin1]
                  for gate in aig.gates],
        "outputs": [[lit, name]
                    for lit, name in zip(aig.outputs, aig.output_names)],
    }


def aig_from_wire(wire: Dict) -> AIG:
    """Decode :func:`aig_to_wire` output back into a live AIG."""
    return AIG(
        name=wire["name"],
        inputs=[var for var, _name in wire["inputs"]],
        input_names={var: name for var, name in wire["inputs"]},
        outputs=[lit for lit, _name in wire["outputs"]],
        output_names=[name for _lit, name in wire["outputs"]],
        gates=[AndGate(out_var=out_var, fanin0=fanin0, fanin1=fanin1)
               for out_var, fanin0, fanin1 in wire["gates"]],
    )


#: Fields of the extraction wire form: the chosen nodes' columns with the
#: extractor's cost of each of their operators, the FA decode table, the
#: parallel entry columns, and the values of the entries whose values the
#: choices do not determine (``cyclic_*``, see :func:`extraction_to_wire`).
_NODE_COLUMNS = ("ops", "payloads", "node_op", "node_payload", "node_off",
                 "node_child")
_EXTRACTION_FIELDS = (*_NODE_COLUMNS, "op_cost", "fa_index", "entry_class",
                      "entry_node", "cyclic_entry", "cyclic_size",
                      "cyclic_fa_mask")


def extraction_to_wire(extraction: "BoolEExtraction") -> Dict:
    """Encode a :class:`~repro.core.extraction.BoolEExtraction`: its
    choices, not its values.

    The chosen e-nodes are node columns exactly like an e-graph
    snapshot's (:func:`~repro.egraph.dense.write_node_columns`), in order
    of first use, and ``op_cost`` is the extractor's cost of each of their
    operators; entry ``i`` is class ``entry_class[i]`` (ascending)
    choosing node ``entry_node[i]``, so identical choices produce
    identical wire bytes.  Values are derived from the choices on decode
    (:func:`~repro.core.extraction.repair_values`), except at the entries
    the bottom-up pass cannot reach (on or above a chosen-node cycle):
    ``cyclic_entry`` lists those positions ascending, with their
    ``cyclic_size`` and ``cyclic_fa_mask``.
    """
    cyclic = list(extraction.cyclic)
    columns = extraction.node_columns
    wire = _serializable({name: list(columns[name])
                          for name in _NODE_COLUMNS})
    wire.update(
        op_cost=list(extraction.op_cost),
        fa_index=list(extraction.fa_index),
        entry_class=list(extraction.entry_class),
        entry_node=list(extraction.entry_node),
        cyclic_entry=cyclic,
        cyclic_size=list(map(extraction.sizes.__getitem__, cyclic)),
        cyclic_fa_mask=list(map(extraction.fa_masks.__getitem__, cyclic)))
    return wire


def extraction_from_wire(wire: Dict) -> "BoolEExtraction":
    """Decode :func:`extraction_to_wire` output, without any e-graph.

    The class ids refer to the saturated e-graph the extraction was
    computed on; the result carries no graph (the caller attaches one, or
    a loader, see :class:`~repro.core.construct.DeferredEGraph`).  Every
    column is checked once, with C-speed builtins, and the values are
    derived from the choices by the extractor's own repair pass: anything
    :func:`extraction_to_wire` would not have written — a wrong type, an
    index out of range, a chosen node's child that has no entry, a
    duplicate node, a table out of first-use order, a cost table that does
    not match the operator table, an FA node whose class is not in
    ``fa_index``, or explicit values on any other entries than those the
    repair cannot reach — raises :class:`SnapshotError`.
    """
    # Deferred: repro.core imports repro.store at module level; importing it
    # lazily here breaks the cycle (this function only runs long after both
    # packages are loaded).
    from ..core.extraction import BoolEExtraction, repair_values

    _fields(wire, _EXTRACTION_FIELDS, "extraction")
    try:
        ops, payloads, node_op, node_payload, node_off, node_child = \
            read_node_columns(wire, None)
    except (TypeError, ValueError) as error:
        raise SnapshotError(
            f"malformed extraction node columns: {error!r}") from error
    op_cost = _ints(wire["op_cost"], "op_cost")
    if len(op_cost) != len(ops):
        raise SnapshotError("op_cost must give one cost per operator")
    class_ids = _ints(wire["entry_class"], "entry_class")
    node_indices = _ints(wire["entry_node"], "entry_node")
    count = len(class_ids)
    if len(node_indices) != count:
        raise SnapshotError("entry columns differ in length")
    _ascending(class_ids, "entry classes")
    if list(dict.fromkeys(node_indices)) != list(range(len(node_op))):
        raise SnapshotError("entry nodes are not in first-use order")
    position = dict(zip(class_ids, range(count)))
    try:
        flat = list(map(position.__getitem__, node_child))
    except KeyError:
        raise SnapshotError("a chosen node's child has no entry") from None
    # ``read_node_columns`` checked every arity.
    kids = list(map(flat.__getitem__,
                    map(slice, node_off, islice(node_off, 1, None))))
    if len(set(zip(node_op, node_payload, map(tuple, kids)))) != len(kids):
        raise SnapshotError("duplicate node table entry")
    fa_index = tuple(_ints(wire["fa_index"], "fa_index"))
    if len(set(fa_index)) != len(fa_index):
        raise SnapshotError("fa_index must list distinct classes")
    entry_op = list(map(node_op.__getitem__, node_indices))
    own_mask = [0] * count
    if Op.FA in ops:
        bit_of = dict(zip(fa_index, map((1).__lshift__,
                                        range(len(fa_index)))))
        for entry in compress(range(count), map(
                ops.index(Op.FA).__eq__, entry_op)):
            bit = bit_of.get(class_ids[entry])
            if bit is None:
                raise SnapshotError("an FA node's class is not in fa_index")
            own_mask[entry] = bit
    fa_masks = [0] * count
    sizes = [0] * count
    repaired = repair_values(list(map(kids.__getitem__, node_indices)),
                             own_mask,
                             list(map(op_cost.__getitem__, entry_op)),
                             fa_masks, sizes)
    cyclic = _ints(wire["cyclic_entry"], "cyclic_entry")
    cyclic_size = _ints(wire["cyclic_size"], "cyclic_size")
    cyclic_mask = _ints(wire["cyclic_fa_mask"], "cyclic_fa_mask")
    if cyclic != list(compress(range(count), map((0).__eq__, repaired))):
        raise SnapshotError("explicit values must be given for exactly the "
                            "entries the repair cannot reach")
    if not len(cyclic_size) == len(cyclic_mask) == len(cyclic):
        raise SnapshotError("cyclic value columns differ in length")
    if max(cyclic_mask, default=0).bit_length() > len(fa_index):
        raise SnapshotError("cyclic FA mask exceeds fa_index")
    for entry, size, mask in zip(cyclic, cyclic_size, cyclic_mask):
        sizes[entry] = size
        fa_masks[entry] = mask
    return BoolEExtraction(
        None, fa_index=fa_index,
        node_columns=dict(zip(_NODE_COLUMNS, (
            ops, payloads, node_op, node_payload, node_off, node_child))),
        op_cost=op_cost, entry_class=class_ids, entry_node=node_indices,
        fa_masks=fa_masks, sizes=sizes, cyclic=cyclic)


# ----------------------------------------------------------------------
# Scheduler / report / checkpoint wire forms
# ----------------------------------------------------------------------
def scheduler_to_wire(scheduler: Optional[BackoffScheduler]) -> Optional[Dict]:
    """Encode a back-off scheduler (``None`` passes through)."""
    if scheduler is None:
        return None
    return scheduler.export_state()


def scheduler_from_wire(wire: Optional[Dict]) -> Optional[BackoffScheduler]:
    """Decode :func:`scheduler_to_wire` output (strictly; see above)."""
    if wire is None:
        return None
    _fields(wire, ("match_limit", "ban_length", "iteration", "rules"),
            "scheduler")
    for name in ("match_limit", "ban_length"):
        _int(wire[name], f"scheduler {name}", low=1)
    _int(wire["iteration"], "scheduler iteration", low=-1)
    for name, state in _of(wire["rules"], dict, "scheduler rules").items():
        times_banned, banned_until, pending = _list(state, "rule state", 3)
        _int(times_banned, "rule times_banned")
        _int(banned_until, "rule banned_until", low=-1)
        _optional(pending, _ints, "rule debt")
        if pending is not None:
            _ascending(pending, "rule debt")
    return BackoffScheduler.from_state(wire)


def report_to_wire(report: RunnerReport) -> Dict:
    """Encode a :class:`RunnerReport` (rule stats included)."""
    return {
        # ``resumed_at`` is deliberately NOT serialized: a resumed run must
        # write byte-identical artifacts to an uninterrupted one (content
        # addressing relies on it), so resume provenance stays in memory.
        "stop_reason": report.stop_reason,
        "total_time": report.total_time,
        "scheduler_stats": dict(report.scheduler_stats),
        "iterations": [
            {
                "index": it.index,
                "num_classes": it.num_classes,
                "num_nodes": it.num_nodes,
                "unions": it.unions,
                "elapsed": it.elapsed,
                "frontier_size": it.frontier_size,
                "banned_rules": list(it.banned_rules),
                "rule_stats": {
                    name: [stat.matches, stat.applications, stat.unions,
                           stat.capped, stat.banned]
                    for name, stat in sorted(it.rule_stats.items())
                },
            }
            for it in report.iterations
        ],
    }


#: Every stop reason a report may carry.
_STOP_REASONS = frozenset(value for name, value in vars(StopReason).items()
                          if name.isupper())

_ITERATION_FIELDS = ("index", "num_classes", "num_nodes", "unions",
                     "elapsed", "frontier_size", "banned_rules",
                     "rule_stats")


def _rule_stats(values: Any) -> RuleStats:
    matches, applications, unions, capped, banned = _list(
        values, "rule stats", 5)
    return RuleStats(matches=_int(matches, "rule matches"),
                     applications=_int(applications, "rule applications"),
                     unions=_int(unions, "rule unions"),
                     capped=_of(capped, bool, "rule capped"),
                     banned=_of(banned, bool, "rule banned"))


def _iteration_report(entry: Any) -> IterationReport:
    _fields(entry, _ITERATION_FIELDS, "iteration report")
    for name in _list(entry["banned_rules"], "banned rules"):
        _of(name, str, "banned rule name")
    return IterationReport(
        index=_int(entry["index"], "iteration index"),
        num_classes=_int(entry["num_classes"], "iteration num_classes"),
        num_nodes=_int(entry["num_nodes"], "iteration num_nodes"),
        unions=_int(entry["unions"], "iteration unions"),
        elapsed=_number(entry["elapsed"], "iteration elapsed"),
        rule_stats={_of(name, str, "rule name"): _rule_stats(values)
                    for name, values in _of(entry["rule_stats"], dict,
                                            "rule stats").items()},
        frontier_size=_optional(entry["frontier_size"], _int,
                                "frontier size"),
        banned_rules=list(entry["banned_rules"]),
    )


def report_from_wire(wire: Dict) -> RunnerReport:
    """Decode :func:`report_to_wire` output.

    Strict: a field of the wrong JSON type or out of range raises
    :class:`SnapshotError`.
    """
    _fields(wire, ("stop_reason", "total_time", "scheduler_stats",
                   "iterations"), "report")
    if _of(wire["stop_reason"], str, "stop reason") not in _STOP_REASONS:
        raise SnapshotError(f"unknown stop reason {wire['stop_reason']!r}")
    scheduler_stats = {
        _of(name, str, "rule name"): _int(times, "times banned")
        for name, times in _of(wire["scheduler_stats"], dict,
                               "scheduler stats").items()}
    report = RunnerReport(
        stop_reason=wire["stop_reason"],
        total_time=_number(wire["total_time"], "total time"),
        scheduler_stats=scheduler_stats)
    report.iterations = [_iteration_report(entry) for entry
                         in _list(wire["iterations"], "iterations")]
    return report


def _limits_to_wire(limits: RunnerLimits) -> Dict:
    return {
        "max_iterations": limits.max_iterations,
        "max_nodes": limits.max_nodes,
        "max_classes": limits.max_classes,
        "time_limit": limits.time_limit,
        "match_limit": limits.match_limit,
        "ban_length": limits.ban_length,
    }


def _limits_from_wire(wire: Dict) -> RunnerLimits:
    _fields(wire, ("max_iterations", "max_nodes", "max_classes",
                   "time_limit", "match_limit", "ban_length"),
            "runner limits")
    # The ranges of BoolEOptions: a resumed run must keep a wall-clock
    # bound and room for at least one node and class.
    _int(wire["max_iterations"], "limit max_iterations")
    for name in ("max_nodes", "max_classes"):
        _int(wire[name], f"limit {name}", low=1)
    _finite(wire["time_limit"], "limit time_limit", positive=True)
    _optional(wire["match_limit"], _int, "limit match_limit", 1)
    _int(wire["ban_length"], "limit ban_length", low=1)
    return RunnerLimits(**wire)


def checkpoint_to_wire(checkpoint: RunnerCheckpoint) -> Dict:
    """Encode runner-resume state (the e-graph travels separately)."""
    return {
        "iteration": checkpoint.iteration,
        "dirty": checkpoint.dirty,
        "incremental": checkpoint.incremental,
        "debug_check_full": checkpoint.debug_check_full,
        "elapsed": checkpoint.elapsed,
        "limits": _limits_to_wire(checkpoint.limits),
        "report": report_to_wire(checkpoint.report),
        "scheduler": scheduler_to_wire(checkpoint.scheduler),
    }


def checkpoint_from_wire(wire: Dict,
                         egraph: Optional[DenseEGraph] = None
                         ) -> RunnerCheckpoint:
    """Decode :func:`checkpoint_to_wire` output.

    Strict like :func:`report_from_wire`.  Given the checkpoint's decoded
    ``egraph``, it also checks that the dirty frontier names current
    classes of it and that every scheduler debt names a class id it
    allocated — a resumed run would index the graph with them.
    """
    _fields(wire, ("iteration", "dirty", "incremental", "debug_check_full",
                   "elapsed", "limits", "report", "scheduler"), "checkpoint")
    dirty = _optional(wire["dirty"], _ints, "checkpoint dirty")
    checkpoint = RunnerCheckpoint(
        iteration=_int(wire["iteration"], "checkpoint iteration"),
        dirty=None if dirty is None else list(dirty),
        limits=_limits_from_wire(wire["limits"]),
        incremental=_of(wire["incremental"], bool, "incremental"),
        debug_check_full=_of(wire["debug_check_full"], bool,
                             "debug_check_full"),
        report=report_from_wire(wire["report"]),
        scheduler=scheduler_from_wire(wire["scheduler"]),
        elapsed=_finite(wire["elapsed"], "checkpoint elapsed"),
    )
    if egraph is not None:
        _known_classes(egraph, dirty or (), "checkpoint dirty",
                       canonical=True)
        if wire["scheduler"] is not None:
            for _, _, pending in wire["scheduler"]["rules"].values():
                _known_classes(egraph, pending or (), "scheduler debt",
                               canonical=False)
    return checkpoint


# ----------------------------------------------------------------------
# Snapshot file I/O
# ----------------------------------------------------------------------
#: Packed-blob element types, narrowest first: array typecode -> (byte
#: width, lowest value, highest value + 1).  Every blob is little-endian.
_BLOB_TYPES = {
    "B": (1, 0, 1 << 8), "b": (1, -(1 << 7), 1 << 7),
    "H": (2, 0, 1 << 16), "h": (2, -(1 << 15), 1 << 15),
    "I": (4, 0, 1 << 32), "i": (4, -(1 << 31), 1 << 31),
    "Q": (8, 0, 1 << 64), "q": (8, -(1 << 63), 1 << 63),
}
if any(array(code).itemsize != width
       for code, (width, _, _) in _BLOB_TYPES.items()):  # pragma: no cover
    raise ImportError("the snapshot codec needs 1/2/4/8-byte array types")

#: Int lists shorter than this stay in the JSON skeleton: a blob table
#: entry would cost more than it saves.
_MIN_BLOB = 16


def _blob_type(column: List[int]) -> Optional[str]:
    """The narrowest typecode holding every int of ``column``; ``None``
    when none does (an int beyond 64 bits stays JSON)."""
    low, high = min(column), max(column)
    for code, (_, lowest, limit) in _BLOB_TYPES.items():
        if lowest <= low and high < limit:
            return code
    return None


_is_container = frozenset((dict, list, tuple)).__contains__


def _nothing_to_pack(containers: List) -> bool:
    """True when no list or tuple in ``containers``, or nested in them, is
    long enough to pack and none of them holds a dict: checked level by
    level with builtins, so a long table of short rows costs a few C
    passes instead of a call per row."""
    level = containers
    while level:
        if countOf(map(type, level), dict) or max(map(len, level)) >= _MIN_BLOB:
            return False
        flat = list(chain.from_iterable(level))
        level = list(compress(flat, map(_is_container, map(type, flat))))
    return True


def _pack(value: Any, path: List[Union[str, int]],
          blobs: List[List], chunks: List[bytes]) -> Any:
    """``value`` with every list (or tuple: JSON reads both back as a list)
    of at least :data:`_MIN_BLOB` plain ints (``bool`` is not one)
    replaced by ``None``; each replaced list is appended to ``chunks`` as
    packed bytes and to ``blobs`` as ``[path, typecode, count]``.
    Containers are walked in JSON order (dict keys sorted), and one that
    holds nothing packable is returned as is."""
    if type(value) is dict:
        if not all(type(key) is str for key in value):
            return value  # json.dumps would rename the keys: leave it
        packed = {key: _pack(item, path + [key], blobs, chunks)
                  for key, item in sorted(value.items())}
        if all(packed[key] is value[key] for key in packed):
            return value
        return packed
    if type(value) not in (list, tuple):
        return value
    if countOf(map(type, value), int) == len(value):
        code = _blob_type(value) if len(value) >= _MIN_BLOB else None
        if code is None:
            return value
        column = array(code, value)
        if sys.byteorder == "big":  # pragma: no cover - little-endian hosts
            column.byteswap()
        blobs.append([list(path), code, len(column)])
        chunks.append(column.tobytes())
        return None
    if _nothing_to_pack(list(compress(value, map(_is_container,
                                                 map(type, value))))):
        return value  # e.g. a table of short rows: skip it at C speed
    items = [_pack(item, path + [index], blobs, chunks)
             if _is_container(type(item)) else item
             for index, item in enumerate(value)]
    if all(map(operator.is_, items, value)):
        return value
    return items


def _unpack(document: Dict, blobs: Any, body: bytes) -> None:
    """Put every blob of ``body`` back at its path in ``document``.

    The blob table must name known typecodes, account for ``body`` to
    the byte, and point each blob at a ``None`` placeholder inside the
    payload, reached through dict keys and list indices."""
    total = 0
    for entry in _list(blobs, "blob table"):
        path, code, count = _list(entry, "blob table entry", 3)
        if type(code) is not str or code not in _BLOB_TYPES:
            raise SnapshotError(f"unknown blob typecode {code!r}")
        total += _BLOB_TYPES[code][0] * _int(count, "blob length")
    if total != len(body):
        raise SnapshotError(f"blob table declares {total} bytes, "
                            f"the file holds {len(body)}")
    offset = 0
    for path, code, count in blobs:
        steps = _list(path, "blob path")
        if not steps or steps[0] != "payload":
            raise SnapshotError(f"blob path {steps!r} is outside the payload")
        container: Any = document
        for step in steps[:-1]:
            container = _step(container, step)
        last = steps[-1]
        if _step(container, last) is not None:
            raise SnapshotError(f"blob path {steps!r} has no placeholder")
        width = _BLOB_TYPES[code][0]
        column = array(code, body[offset:offset + width * count])
        if sys.byteorder == "big":  # pragma: no cover - little-endian hosts
            column.byteswap()
        offset += width * count
        container[last] = column.tolist()


def _step(container: Any, step: Any) -> Any:
    """``container[step]`` for a dict key or an in-range list index."""
    if type(container) is dict and type(step) is str and step in container:
        return container[step]
    if (type(container) is list and type(step) is int
            and 0 <= step < len(container)):
        return container[step]
    raise SnapshotError(f"blob path step {step!r} does not resolve")


def write_snapshot(path: Union[str, Path], kind: str, payload: Dict,
                   meta: Optional[Dict] = None) -> Path:
    """Atomically write a versioned snapshot file.

    The file is one gzip member (deflate level :data:`_DEFLATE_LEVEL`,
    zeroed mtime) holding a JSON skeleton with sorted keys, a newline,
    then the packed little-endian int blobs the skeleton's ``blobs``
    table lists (see ``docs/serialization.md``), so identical state
    produces byte-identical files.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    blobs: List[List] = []
    chunks: List[bytes] = []
    document = {
        "format": SNAPSHOT_FORMAT,
        "codec_version": CODEC_VERSION,
        "kind": kind,
        "meta": meta or {},
        "payload": _pack(payload, ["payload"], blobs, chunks),
        "blobs": blobs,
    }
    # ensure_ascii (the default) escapes every control character, so the
    # skeleton holds no raw newline and the first one ends it.
    head = json.dumps(document, sort_keys=True,
                      separators=(",", ":")).encode("ascii")
    handle, tmp_name = tempfile.mkstemp(dir=path.parent,
                                        prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(handle, "wb") as raw:
            deflate = zlib.compressobj(_DEFLATE_LEVEL, zlib.DEFLATED,
                                       _GZIP_WBITS)
            raw.write(deflate.compress(head))
            raw.write(deflate.compress(b"\n"))
            for chunk in chunks:
                raw.write(deflate.compress(chunk))
            raw.write(deflate.flush())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return path


def read_snapshot(path: Union[str, Path],
                  expected_kind: Optional[str] = None) -> Dict:
    """Read a snapshot document, validating format, version and kind.

    Anything but one complete gzip member holding a well-formed skeleton
    and exactly the blobs it declares raises :class:`SnapshotError`; a
    file of another codec version (a v4 file is plain gzip-JSON) raises
    :class:`SnapshotVersionError` before any blob is read.
    """
    path = Path(path)
    try:
        inflate = zlib.decompressobj(_GZIP_WBITS)
        data = inflate.decompress(path.read_bytes())
        if not inflate.eof or inflate.unused_data:
            raise ValueError("truncated file or trailing bytes")
        head, newline, body = data.partition(b"\n")
        document = json.loads(head)
    except (OSError, zlib.error, ValueError, RecursionError) as error:
        # Corrupt deflate data raises zlib.error, a bad skeleton
        # ValueError, and a pathologically nested one RecursionError: all
        # of them are unreadable snapshots, never crashes of the reader.
        raise SnapshotError(f"cannot read snapshot {path}: {error}") from error
    if not isinstance(document, dict) or document.get("format") != SNAPSHOT_FORMAT:
        raise SnapshotError(f"{path} is not a {SNAPSHOT_FORMAT} file")
    version = document.get("codec_version")
    if version != CODEC_VERSION:
        raise SnapshotVersionError(
            f"{path} was written by codec version {version}, "
            f"this build reads version {CODEC_VERSION}")
    if not newline or "blobs" not in document:
        raise SnapshotError(f"{path} has no blob section")
    _unpack(document, document.pop("blobs"), body)
    if expected_kind is not None and document.get("kind") != expected_kind:
        raise SnapshotError(
            f"{path} holds a {document.get('kind')!r} snapshot, "
            f"expected {expected_kind!r}")
    return document


def save_egraph(path: Union[str, Path],
                egraph: Union[EGraph, DenseEGraph],
                meta: Optional[Dict] = None) -> Path:
    """Write a standalone e-graph snapshot."""
    return write_snapshot(path, KIND_EGRAPH,
                          {"egraph": egraph_to_wire(egraph)}, meta=meta)


def load_egraph(path: Union[str, Path]) -> DenseEGraph:
    """Load a standalone e-graph snapshot (as a dense e-graph)."""
    document = read_snapshot(path, expected_kind=KIND_EGRAPH)
    return egraph_from_wire(document["payload"]["egraph"])


def save_checkpoint(path: Union[str, Path],
                    egraph: Union[EGraph, DenseEGraph],
                    checkpoint: RunnerCheckpoint,
                    meta: Optional[Dict] = None) -> Path:
    """Write a mid-saturation checkpoint (e-graph + runner state).

    Intended to be called from a :meth:`Runner.run` ``on_checkpoint``
    callback — the snapshot is fully materialised before the call returns,
    so the run may keep mutating the live objects afterwards.
    """
    payload = {
        "egraph": egraph_to_wire(egraph),
        "runner": checkpoint_to_wire(checkpoint),
    }
    return write_snapshot(path, KIND_CHECKPOINT, payload, meta=meta)


def load_checkpoint(path: Union[str, Path]
                    ) -> Tuple[DenseEGraph, RunnerCheckpoint]:
    """Load a checkpoint; returns the restored (dense) e-graph and runner
    state.

    Resume with::

        egraph, checkpoint = load_checkpoint(path)
        report = Runner.from_checkpoint(checkpoint).run(
            egraph, rules, resume_from=checkpoint)
    """
    document = read_snapshot(path, expected_kind=KIND_CHECKPOINT)
    payload = document["payload"]
    egraph = egraph_from_wire(payload["egraph"])
    return egraph, checkpoint_from_wire(payload["runner"], egraph)
