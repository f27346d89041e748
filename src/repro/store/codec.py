"""Versioned snapshot codec for e-graphs and resumable saturation runs.

The codec turns e-graphs (via :meth:`repro.egraph.DenseEGraph.to_columns`),
:meth:`repro.egraph.BackoffScheduler.export_state` and
:class:`repro.egraph.RunnerCheckpoint` into a compact JSON *wire form* and
back, and reads/writes the wire form as gzip-compressed snapshot files.

Design points:

* **Columns.**  The e-graph section is a set of flat int columns written
  straight from the dense engine's struct-of-arrays (union-find array,
  node op/payload/CSR-children columns, per-class node and parent
  offsets, hashcons, seqs) and decoded straight back into a
  :class:`~repro.egraph.DenseEGraph` — no :class:`~repro.egraph.ENode` is
  built on either side.  Object-engine graphs reach the codec through
  :func:`~repro.egraph.as_engine`.
* **Determinism.**  The columns number e-nodes in a canonical order
  (class ids ascending, nodes by
  :func:`~repro.egraph.egraph.enode_sort_key`, then parent lists, then
  the hashcons) and JSON is written with sorted keys, so snapshotting the
  same e-graph twice — under any ``PYTHONHASHSEED``, with either engine —
  produces byte-identical files (gzip is written with a zeroed mtime for
  the same reason).
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

import gzip
import json
import math
import os
import tempfile
import zlib
from itertools import chain
from operator import countOf, itemgetter
from pathlib import Path
from typing import (TYPE_CHECKING, AbstractSet, Any, Callable, Dict,
                    Hashable, Iterable, List, Optional, Sequence, Tuple,
                    Union)

from ..aig import AIG, AndGate

if TYPE_CHECKING:  # import cycle: repro.core imports repro.store
    from ..core.extraction import BoolEExtraction
from ..egraph import (
    OPERATOR_ARITIES,
    BackoffScheduler,
    DenseEGraph,
    EGraph,
    ENode,
    IterationReport,
    RuleStats,
    RunnerCheckpoint,
    RunnerLimits,
    RunnerReport,
    StopReason,
    as_engine,
)
from ..egraph.dense import PAYLOAD_TYPES

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
CODEC_VERSION = 4

SNAPSHOT_FORMAT = "repro.store/snapshot"

#: Deflate level of snapshot files.  Measured on the 16-bit CSA saturated
#: snapshot (8.8 MB of JSON): level 6 compresses 2x faster than gzip's
#: default 9 for +0.3% bytes; level 1 is faster still but +12% bytes.
#: Part of the format's byte-identity, so a constant, not an option.
_DEFLATE_LEVEL = 6

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
# E-node interning
# ----------------------------------------------------------------------
class _NodeTable:
    """Interns operators, leaf payloads and e-nodes into index tables."""

    def __init__(self) -> None:
        self.ops: List[str] = []
        self._op_index: Dict[str, int] = {}
        self.payloads: List[List] = []
        self._payload_index: Dict[Tuple[str, Hashable], int] = {}
        self.nodes: List[List] = []
        self._node_index: Dict[ENode, int] = {}

    def _intern_op(self, op: str) -> int:
        index = self._op_index.get(op)
        if index is None:
            index = self._op_index[op] = len(self.ops)
            self.ops.append(op)
        return index

    def _intern_payload(self, payload: Hashable) -> int:
        if payload is None:
            return -1
        if isinstance(payload, bool):
            tag = "b"
        elif isinstance(payload, str):
            tag = "s"
        elif isinstance(payload, int):
            tag = "i"
        else:
            raise SnapshotError(
                f"cannot serialize e-node payload of type "
                f"{type(payload).__name__!r} (supported: str, bool, int)")
        wire = [tag, payload]
        key = (tag, payload)
        index = self._payload_index.get(key)
        if index is None:
            index = self._payload_index[key] = len(self.payloads)
            self.payloads.append(wire)
        return index

    def intern(self, node: ENode) -> int:
        index = self._node_index.get(node)
        if index is None:
            index = self._node_index[node] = len(self.nodes)
            self.nodes.append([self._intern_op(node.op),
                               list(node.children),
                               self._intern_payload(node.payload)])
        return index


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


def _ints(value: Any, what: str, low: int = 0,
          high: Optional[int] = None) -> List[int]:
    """A list of ints in ``[low, high)``, checked with O(n) builtins."""
    column = _list(value, what)
    if countOf(map(type, column), int) != len(column) or (column and (
            min(column) < low or (high is not None
                                  and max(column) >= high))):
        raise SnapshotError(f"{what} must be ints in [{low}, "
                            f"{'inf' if high is None else high})")
    return column


def _columns(value: Any, what: str, width: int) -> List[List]:
    """A list of ``width``-entry lists, transposed into ``width`` columns."""
    rows = _list(value, what)
    if countOf(map(type, rows), list) != len(rows) or not set(
            map(len, rows)) <= {width}:
        raise SnapshotError(f"{what} must be lists of {width}")
    return [list(map(itemgetter(index), rows)) for index in range(width)]


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


def _first_use(indices: Iterable[int], count: int, what: str) -> None:
    """An interning table lists its entries in order of first use."""
    if list(dict.fromkeys(indices)) != list(range(count)):
        raise SnapshotError(f"{what} table is not in first-use order")


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


def _payload(wire: Any) -> Hashable:
    tag, value = _list(wire, "payload", 2)
    kind = {"b": bool, "s": str, "i": int}.get(tag) if type(tag) is str \
        else None
    if kind is None:
        raise SnapshotError(f"unknown payload tag {tag!r}")
    return _of(value, kind, "payload value")


def _nodes(wire: Dict, classes: AbstractSet[int]) -> List[ENode]:
    """Decode a :class:`_NodeTable` (ops, payloads, nodes) exactly."""
    ops = _list(wire["ops"], "operator table")
    if countOf(map(type, ops), str) != len(ops) or len(set(ops)) != len(ops):
        raise SnapshotError("operator table must hold distinct names")
    payload_wires = _list(wire["payloads"], "payload table")
    payloads = [_payload(entry) for entry in payload_wires]
    if len(set(map(tuple, payload_wires))) != len(payloads):
        raise SnapshotError("duplicate payload table entry")
    op_indices, children, payload_indices = _columns(
        wire["nodes"], "node table", 3)
    _ints(op_indices, "node operator", high=len(ops))
    _ints(payload_indices, "node payload", low=-1, high=len(payloads))
    if countOf(map(type, children), list) != len(children) or not (
            classes.issuperset(_ints(list(chain.from_iterable(children)),
                                     "node child"))):
        raise SnapshotError("node children must be lists of classes")
    for op_index, arity in sorted(set(zip(op_indices, map(len, children)))):
        expected = OPERATOR_ARITIES.get(ops[op_index])
        if expected is not None and expected != arity:
            raise SnapshotError(f"operator {ops[op_index]!r} expects "
                                f"{expected} children")
    _first_use(op_indices, len(ops), "operator")
    _first_use([index for index in payload_indices if index >= 0],
               len(payloads), "payload")
    nodes = [ENode(ops[op_index], tuple(kids),
                   None if payload_index < 0 else payloads[payload_index])
             for op_index, kids, payload_index
             in zip(op_indices, children, payload_indices)]
    if len(set(nodes)) != len(nodes):
        raise SnapshotError("duplicate node table entry")
    return nodes


# ----------------------------------------------------------------------
# E-graph wire form
# ----------------------------------------------------------------------
def egraph_to_wire(egraph: Union[EGraph, DenseEGraph]) -> Dict:
    """Encode the complete e-graph state as flat JSON columns.

    Either engine is accepted; the object engine is converted through
    :func:`~repro.egraph.as_engine`, which preserves every bit of state,
    so both engines write identical columns.
    """
    wire = as_engine(egraph, "dense").to_columns()
    for payload in wire["payloads"]:
        if not isinstance(payload, PAYLOAD_TYPES):
            raise SnapshotError(
                f"cannot serialize e-node payload of type "
                f"{type(payload).__name__!r} (supported: str, bool, int)")
    return wire


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


def extraction_to_wire(extraction: "BoolEExtraction") -> Dict:
    """Encode a :class:`~repro.core.extraction.BoolEExtraction`.

    Chosen e-nodes are interned exactly like e-graph snapshots; each entry
    stores ``(class id, node index, size, fa_mask)`` with the shared
    ``fa_index`` decode table alongside.  Entries are written in ascending
    class-id order so identical extractions produce identical wire bytes.
    """
    table = _NodeTable()
    entries = [[class_id, table.intern(entry.node), entry.size, entry.fa_mask]
               for class_id, entry in sorted(extraction.entries.items())]
    return {
        "ops": table.ops,
        "payloads": table.payloads,
        "nodes": table.nodes,
        "fa_index": list(extraction.fa_index),
        "entries": entries,
    }


def extraction_from_wire(wire: Dict, egraph: EGraph) -> "BoolEExtraction":
    """Decode :func:`extraction_to_wire` output against a live e-graph.

    The class ids in the wire form refer to the deterministic saturated
    e-graph the extraction was computed on; ``egraph`` must be that graph
    (typically just deserialized from the sibling ``saturated-pipeline``
    artifact, or recomputed — determinism makes the ids line up either way).
    Anything :func:`extraction_to_wire` would not have written for that
    graph — a wrong type, an index or class out of range, an ``fa_mask``
    beyond ``fa_index``, a table out of first-use order — raises
    :class:`SnapshotError`.
    """
    # Deferred: repro.core imports repro.store at module level; importing it
    # lazily here breaks the cycle (this function only runs long after both
    # packages are loaded).
    from ..core.extraction import BoolEExtraction, CostEntry

    _fields(wire, ("ops", "payloads", "nodes", "fa_index", "entries"),
            "extraction")
    classes = set(egraph.class_ids())
    nodes = _nodes(wire, classes)
    fa_index = tuple(_ints(wire["fa_index"], "fa_index"))
    if len(set(fa_index)) != len(fa_index) or not classes.issuperset(
            fa_index):
        raise SnapshotError("fa_index must list distinct classes")
    class_ids, node_indices, sizes, fa_masks = _columns(
        wire["entries"], "extraction entries", 4)
    if not classes.issuperset(_ints(class_ids, "entry class")):
        raise SnapshotError("entry class is not a class")
    _ascending(class_ids, "entry classes")
    _ints(node_indices, "entry node", high=len(nodes))
    _ints(sizes, "entry size")
    if max(_ints(fa_masks, "entry fa_mask"), default=0).bit_length() > len(
            fa_index):
        raise SnapshotError("entry fa_mask exceeds fa_index")
    _first_use(node_indices, len(nodes), "node")
    extraction = BoolEExtraction(egraph=egraph, fa_index=fa_index)
    for class_id, node_index, size, fa_mask in zip(
            class_ids, node_indices, sizes, fa_masks):
        extraction.entries[class_id] = CostEntry(
            fa_mask=fa_mask, size=size, node=nodes[node_index],
            fa_index=fa_index)
    return extraction


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
def write_snapshot(path: Union[str, Path], kind: str, payload: Dict,
                   meta: Optional[Dict] = None) -> Path:
    """Atomically write a versioned, gzip-compressed snapshot file.

    The document is JSON with sorted keys inside a gzip stream whose mtime
    field is zeroed, so identical state produces byte-identical files.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    document = {
        "format": SNAPSHOT_FORMAT,
        "codec_version": CODEC_VERSION,
        "kind": kind,
        "meta": meta or {},
        "payload": payload,
    }
    handle, tmp_name = tempfile.mkstemp(dir=path.parent,
                                        prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(handle, "wb") as raw:
            with gzip.GzipFile(fileobj=raw, mode="wb", mtime=0,
                               compresslevel=_DEFLATE_LEVEL) as zipped:
                zipped.write(json.dumps(
                    document, sort_keys=True,
                    separators=(",", ":")).encode("utf-8"))
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
    """Read a snapshot document, validating format, version and kind."""
    path = Path(path)
    try:
        document = json.loads(
            gzip.decompress(path.read_bytes()).decode("utf-8"))
    except (OSError, EOFError, zlib.error, ValueError,
            RecursionError) as error:
        # Truncated gzip raises EOFError, corrupt deflate data zlib.error,
        # and a pathologically nested document RecursionError: all of
        # them are unreadable snapshots, never crashes of the reader.
        raise SnapshotError(f"cannot read snapshot {path}: {error}") from error
    if not isinstance(document, dict) or document.get("format") != SNAPSHOT_FORMAT:
        raise SnapshotError(f"{path} is not a {SNAPSHOT_FORMAT} file")
    version = document.get("codec_version")
    if version != CODEC_VERSION:
        raise SnapshotVersionError(
            f"{path} was written by codec version {version}, "
            f"this build reads version {CODEC_VERSION}")
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
