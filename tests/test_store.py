"""repro.store: snapshot codec, artifact store, resumable saturation.

The headline property (ISSUE acceptance): checkpoint a saturation run at
iteration *k*, serialize to disk, restore, continue — the final e-graph
and its extraction are bit-identical to an uninterrupted run, for both
the back-off scheduler and the deprecated flat alias, and across
``PYTHONHASHSEED`` values (subprocess cases).  Everything else pins the
codec (round trips, versioning, atomicity guarantees), the
content-addressed store semantics (put/get, index, verify, GC) and the
pipeline/batch cache integration.
"""

import functools
import gzip
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BatchJob, BatchPipeline, BoolEOptions, BoolEPipeline, run_boole
from repro.core import extraction as extraction_module
from repro.core import phases as phases_module
from repro.core.construct import aig_to_egraph
from repro.core.extraction import BoolEExtractor
from repro.core.fa_structure import insert_fa_structures
from repro.core.phases import _DECODE_ERRORS, InsertFAPhase, PhaseContext
from repro.core.rules_basic import basic_rules
from repro.core.rules_xor_maj import identification_rules
from repro.egraph import (
    BackoffScheduler,
    DenseEGraph,
    EGraph,
    ENode,
    Op,
    Runner,
    RunnerLimits,
)
from repro.generators import csa_multiplier, ripple_carry_adder
from repro.opt import post_mapping_flow
from repro.store import (
    KIND_EXTRACTION,
    KIND_SATURATED,
    ArtifactStore,
    SnapshotError,
    SnapshotVersionError,
    checkpoint_from_wire,
    checkpoint_to_wire,
    egraph_from_wire,
    egraph_to_wire,
    extraction_from_wire,
    extraction_to_wire,
    fingerprint_aig,
    fingerprint_options,
    fingerprint_ruleset,
    load_checkpoint,
    load_egraph,
    read_snapshot,
    report_from_wire,
    report_to_wire,
    save_checkpoint,
    save_egraph,
    scheduler_from_wire,
    scheduler_to_wire,
    write_snapshot,
)

from repro.store.codec import SNAPSHOT_FORMAT

SRC_DIR = str(Path(__file__).resolve().parent.parent / "src")


def _mapped_csa3():
    return post_mapping_flow(csa_multiplier(3).aig)


def _saturated_egraph():
    """A small but non-trivial e-graph: saturated width-2 CSA multiplier."""
    construction = aig_to_egraph(post_mapping_flow(csa_multiplier(2).aig))
    Runner(RunnerLimits(max_iterations=4)).run(construction.egraph,
                                               basic_rules())
    return construction.egraph


def _wire_bytes(egraph: EGraph) -> str:
    return json.dumps(egraph_to_wire(egraph), sort_keys=True)


def _extraction_signature(egraph: EGraph) -> str:
    """Digest of the complete extraction choice set (order-independent)."""
    insert_fa_structures(egraph)
    extraction = BoolEExtractor().extract(egraph)
    entries = sorted((class_id, entry.size, len(entry.fa_classes),
                      str(entry.node))
                     for class_id, entry in extraction.entries.items())
    blob = json.dumps([egraph.num_classes, egraph.num_canonical_nodes(),
                       entries])
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class TestEGraphRoundTrip:
    def test_wire_round_trip_is_byte_identical(self):
        egraph = _saturated_egraph()
        first = _wire_bytes(egraph)
        restored = egraph_from_wire(json.loads(first))
        assert _wire_bytes(restored) == first

    def test_round_trip_preserves_queries(self):
        egraph = _saturated_egraph()
        restored = egraph_from_wire(egraph_to_wire(egraph))
        assert restored.class_ids() == egraph.class_ids()
        assert restored.num_canonical_nodes() == egraph.num_canonical_nodes()
        assert restored.peek_dirty() == egraph.peek_dirty()
        for class_id in egraph.class_ids():
            assert restored.enodes(class_id) == egraph.enodes(class_id)
            assert restored.seq(class_id) == egraph.seq(class_id)
            for node in egraph.enodes(class_id):
                assert restored.lookup(node) == egraph.lookup(node)

    def test_op_index_rebuilt_on_load(self):
        egraph = _saturated_egraph()
        restored = egraph_from_wire(egraph_to_wire(egraph))
        for op in (Op.AND, Op.NOT, Op.VAR):
            wanted = {class_id for class_id in egraph.class_ids()
                      if any(node.op == op
                             for node in egraph.enodes(class_id))}
            assert wanted <= restored.candidate_classes(op)

    def test_restored_graph_saturates_identically(self):
        """Mutating a restored snapshot behaves exactly like the original:
        continuing saturation with a second ruleset converges to the same
        e-graph."""
        original = _saturated_egraph()
        restored = egraph_from_wire(egraph_to_wire(original))
        rules = identification_rules()
        Runner(RunnerLimits(max_iterations=4)).run(original, rules)
        Runner(RunnerLimits(max_iterations=4)).run(restored, rules)
        assert _wire_bytes(restored) == _wire_bytes(original)

    def test_unsupported_payload_rejected(self):
        egraph = EGraph()
        egraph.add(ENode("weird", (), payload=(1, 2)))
        with pytest.raises(SnapshotError, match="payload"):
            egraph_to_wire(egraph)


class TestSnapshotFiles:
    def test_save_load_egraph(self, tmp_path):
        egraph = _saturated_egraph()
        path = save_egraph(tmp_path / "graph.json.gz", egraph,
                           meta={"width": 2})
        assert _wire_bytes(load_egraph(path)) == _wire_bytes(egraph)
        document = read_snapshot(path)
        assert document["meta"] == {"width": 2}

    def test_identical_state_writes_identical_bytes(self, tmp_path):
        egraph = _saturated_egraph()
        first = save_egraph(tmp_path / "a.json.gz", egraph)
        second = save_egraph(tmp_path / "b.json.gz", egraph)
        assert first.read_bytes() == second.read_bytes()

    def test_version_mismatch_raises(self, tmp_path):
        path = save_egraph(tmp_path / "graph.json.gz", EGraph())
        document = json.loads(gzip.decompress(path.read_bytes()))
        document["codec_version"] = 999
        path.write_bytes(gzip.compress(
            json.dumps(document).encode("utf-8")))
        with pytest.raises(SnapshotVersionError):
            load_egraph(path)

    def test_kind_mismatch_raises(self, tmp_path):
        path = write_snapshot(tmp_path / "x.json.gz", "something-else", {})
        with pytest.raises(SnapshotError, match="kind|expected"):
            load_egraph(path)

    def test_garbage_file_raises(self, tmp_path):
        path = tmp_path / "garbage.json.gz"
        path.write_bytes(b"definitely not gzip json")
        with pytest.raises(SnapshotError):
            read_snapshot(path)

    def test_no_temp_files_left_behind(self, tmp_path):
        save_egraph(tmp_path / "graph.json.gz", EGraph())
        leftovers = [p for p in tmp_path.iterdir() if "tmp" in p.name]
        assert leftovers == []


def _container_parts(path):
    """A v5 file's skeleton document and its blob bytes."""
    head, _, body = gzip.decompress(path.read_bytes()).partition(b"\n")
    return json.loads(head), body


def _write_container(path, skeleton, body, tail=b""):
    """A hand-built gzip container: ``skeleton`` JSON, newline, ``body``
    (plus ``tail`` after the gzip member)."""
    path.write_bytes(gzip.compress(
        json.dumps(skeleton).encode("ascii") + b"\n" + body) + tail)
    return path


#: Values the container must give back exactly: bools (not ints), negative
#: ints, ints from 2**63 to 2**64 (unsigned 64-bit blobs) and beyond 64
#: bits (JSON), short and empty lists, mixed lists, nested tables and a
#: tuple (read back as a list, as JSON does).
ROUND_TRIP_PAYLOAD = {
    "bools": [True, False] * 10,
    "negative": list(range(-40, 0)),
    "wide": [2**63 + index for index in range(20)],
    "wider": [2**64 + index for index in range(20)],
    "short": [1, 2, 3],
    "empty": [],
    "mixed": [1, "two", 3.0, None, True] * 4,
    "bytes": list(range(256)) * 2,
    "signed": [-(2**31)] + [2**31 - 1] * 16,
    "nested": {"rows": [[index, -index, 2 * index] for index in range(20)],
               "columns": [list(range(index, index + 20))
                           for index in range(3)]},
    "scalar": 7,
    "tuple": tuple(range(100, 120)),
}


class TestSnapshotContainer:
    """The v5 container: a gzip member holding a JSON skeleton, a newline
    and the packed int blobs its ``blobs`` table lists.  A malformed file
    raises SnapshotError (or SnapshotVersionError) and nothing else."""

    def _written(self, tmp_path, payload=None):
        return write_snapshot(tmp_path / "x.json.gz", "egraph",
                              payload if payload is not None
                              else {"egraph": egraph_to_wire(
                                  _saturated_egraph())})

    def test_values_round_trip_unchanged(self, tmp_path):
        path = self._written(tmp_path, ROUND_TRIP_PAYLOAD)
        document = read_snapshot(path)
        # JSON text tells True from 1, so this also checks the types.
        assert json.dumps(document["payload"], sort_keys=True) == \
            json.dumps(ROUND_TRIP_PAYLOAD, sort_keys=True)
        skeleton, body = _container_parts(path)
        packed = {tuple(entry[0]) for entry in skeleton["blobs"]}
        assert ("payload", "negative") in packed
        assert ("payload", "wide") in packed
        assert ("payload", "nested", "columns", 0) in packed
        assert ("payload", "tuple") in packed
        for name in ("bools", "wider", "short", "empty", "mixed"):
            assert ("payload", name) not in packed
            assert skeleton["payload"][name] == ROUND_TRIP_PAYLOAD[name]
        assert len(body) == sum(
            {"B": 1, "b": 1, "H": 2, "h": 2, "I": 4, "i": 4, "Q": 8,
             "q": 8}[code] * count for _, code, count in skeleton["blobs"])

    def test_identical_state_gives_identical_bytes(self, tmp_path):
        first = write_snapshot(tmp_path / "a.json.gz", "k",
                               ROUND_TRIP_PAYLOAD)
        second = write_snapshot(tmp_path / "b.json.gz", "k",
                                json.loads(json.dumps(ROUND_TRIP_PAYLOAD)))
        assert first.read_bytes() == second.read_bytes()

    def test_hand_built_container_reads(self, tmp_path):
        """The helpers below build files the reader accepts, so each
        rejection is down to the one defect it introduces."""
        path = self._written(tmp_path)
        skeleton, body = _container_parts(path)
        expected = read_snapshot(path)
        _write_container(path, skeleton, body)
        assert read_snapshot(path) == expected

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_wrong_blob_length_raises(self, tmp_path, delta):
        path = self._written(tmp_path)
        skeleton, body = _container_parts(path)
        skeleton["blobs"][0][2] += delta
        with pytest.raises(SnapshotError, match="blob"):
            read_snapshot(_write_container(path, skeleton, body))

    def test_lengths_summing_right_still_checked(self, tmp_path):
        """Two blobs trading lengths keep the byte total but not the
        columns' declared sizes."""
        path = self._written(tmp_path)
        skeleton, body = _container_parts(path)
        same = [entry for entry in skeleton["blobs"]
                if entry[1] == skeleton["blobs"][0][1]]
        same[0][2] += 1
        same[1][2] -= 1
        with pytest.raises(SnapshotError):
            document = read_snapshot(_write_container(path, skeleton, body))
            egraph_from_wire(document["payload"]["egraph"])

    def test_missing_blob_entry_raises(self, tmp_path):
        path = self._written(tmp_path)
        skeleton, body = _container_parts(path)
        del skeleton["blobs"][-1]
        with pytest.raises(SnapshotError, match="blob"):
            read_snapshot(_write_container(path, skeleton, body))

    def test_extra_blob_entry_raises(self, tmp_path):
        path = self._written(tmp_path)
        skeleton, body = _container_parts(path)
        skeleton["blobs"].append(list(skeleton["blobs"][0]))
        with pytest.raises(SnapshotError, match="blob"):
            read_snapshot(_write_container(path, skeleton, body + body))

    @pytest.mark.parametrize("code", ["d", "f", "l", "u", "", 3, None])
    def test_unknown_typecode_raises(self, tmp_path, code):
        path = self._written(tmp_path)
        skeleton, body = _container_parts(path)
        skeleton["blobs"][0][1] = code
        with pytest.raises(SnapshotError, match="typecode"):
            read_snapshot(_write_container(path, skeleton, body))

    @pytest.mark.parametrize("blob_path", [
        [], ["meta"], ["payload", "missing"], ["payload", "egraph", "ops", 0],
        ["payload", "egraph", "sizes"], ["payload", 0], "payload"])
    def test_bad_blob_path_raises(self, tmp_path, blob_path):
        path = self._written(tmp_path)
        skeleton, body = _container_parts(path)
        skeleton["blobs"][0][0] = blob_path
        with pytest.raises(SnapshotError):
            read_snapshot(_write_container(path, skeleton, body))

    def test_trailing_bytes_inside_raise(self, tmp_path):
        path = self._written(tmp_path)
        skeleton, body = _container_parts(path)
        with pytest.raises(SnapshotError, match="blob"):
            read_snapshot(_write_container(path, skeleton, body + b"\0"))

    @pytest.mark.parametrize("tail", [b"\0", b"\0" * 8, b"junk",
                                      b"\x1f\x8b"])
    def test_trailing_bytes_after_the_member_raise(self, tmp_path, tail):
        path = self._written(tmp_path)
        path.write_bytes(path.read_bytes() + tail)
        with pytest.raises(SnapshotError):
            read_snapshot(path)

    def test_second_gzip_member_raises(self, tmp_path):
        path = self._written(tmp_path)
        path.write_bytes(path.read_bytes() + gzip.compress(b"{}"))
        with pytest.raises(SnapshotError):
            read_snapshot(path)

    def test_missing_blob_section_raises(self, tmp_path):
        path = self._written(tmp_path)
        skeleton, _ = _container_parts(path)
        path.write_bytes(gzip.compress(json.dumps(skeleton).encode()))
        with pytest.raises(SnapshotError, match="blob section"):
            read_snapshot(path)

    def test_v4_gzip_json_file_is_a_version_error(self, tmp_path):
        """What codec v4 wrote: the whole document as gzip-JSON."""
        path = tmp_path / "v4.json.gz"
        path.write_bytes(gzip.compress(json.dumps({
            "format": SNAPSHOT_FORMAT, "codec_version": 4,
            "kind": "egraph", "meta": {},
            "payload": {"egraph": egraph_to_wire(_saturated_egraph())},
        }, sort_keys=True, separators=(",", ":")).encode(), mtime=0))
        with pytest.raises(SnapshotVersionError, match="version 4"):
            read_snapshot(path)

    def test_every_truncation_raises(self, tmp_path):
        path = self._written(tmp_path)
        intact = path.read_bytes()
        for keep in range(0, len(intact), max(1, len(intact) // 97)):
            path.write_bytes(intact[:keep])
            with pytest.raises(SnapshotError):
                read_snapshot(path)

    def test_bit_flips_raise_or_read_identically(self, tmp_path):
        path = self._written(tmp_path)
        intact = path.read_bytes()
        expected = read_snapshot(path)
        step = max(1, len(intact) // 211)
        for index in list(range(0, 12)) + list(range(12, len(intact), step)):
            for bit in (0, 7):
                damaged = bytearray(intact)
                damaged[index] ^= 1 << bit
                path.write_bytes(bytes(damaged))
                try:
                    document = read_snapshot(path)
                except SnapshotError:
                    continue
                # Only bits gzip ignores may survive (the header's FTEXT
                # hint, mtime, XFL and OS bytes, the deflate stream's
                # final padding bits): never a different document.
                assert document == expected


def _uf_not_compressed(payload):
    """One non-root id pointed at another non-root id: a chain."""
    uf = payload["egraph"]["uf"]
    first, second = [index for index, root in enumerate(uf)
                     if root != index][:2]
    uf[first] = second


def _child_not_a_root(payload):
    """The only node of a class reads a non-root alias of its child (one
    node per slice, so the slice stays in order)."""
    wire = payload["egraph"]
    uf, offsets, children = wire["uf"], wire["node_off"], wire["node_child"]
    aliases = {root: index for index, root in enumerate(uf) if root != index}
    class_off = wire["class_node_off"]
    for low, high in zip(class_off, class_off[1:]):
        node = wire["class_nodes"][low]
        slot = offsets[node]
        if high - low == 1 and slot < offsets[node + 1] \
                and children[slot] in aliases:
            children[slot] = aliases[children[slot]]
            return
    raise AssertionError("no single-node class over an aliased child")


def _slice_out_of_order(payload):
    wire = payload["egraph"]
    offsets = wire["class_node_off"]
    low = next(offsets[index] for index in range(len(offsets) - 1)
               if offsets[index + 1] - offsets[index] >= 2)
    nodes = wire["class_nodes"]
    nodes[low], nodes[low + 1] = nodes[low + 1], nodes[low]


def _class_offsets_not_monotone(payload):
    offsets = payload["egraph"]["class_node_off"]
    offsets[1] = offsets[2] + 1


def _swap_map_keys(payload, keys):
    column = payload["construction"][keys]
    column[0], column[1] = column[1], column[0]


#: One malformed saturated snapshot per check of the column reader and of
#: the construction columns: (tamper, the SnapshotError it must raise).
_MALFORMED_SNAPSHOTS = {
    "uf-not-path-compressed": (_uf_not_compressed, "path-compressed"),
    "class-node-child-not-a-root": (_child_not_a_root, "not a root"),
    "class-slice-out-of-order": (_slice_out_of_order, "enode_sort_key"),
    "class-node-offsets-not-monotone": (_class_offsets_not_monotone,
                                        "monotone offset"),
    "class-node-out-of-range": (
        lambda payload: payload["egraph"]["class_nodes"].__setitem__(
            0, len(payload["egraph"]["node_op"])), "out of range"),
    "seq-wrong-length": (lambda payload: payload["egraph"]["seq"].pop(),
                         "'seq' has"),
    "var-columns-unequal": (
        lambda payload: payload["construction"]["var_classes"].pop(),
        "class_of_var must be"),
    "var-class-negative": (
        lambda payload: payload["construction"]["var_classes"].__setitem__(
            0, -1), "class_of_var must be"),
    "var-class-bool": (
        lambda payload: payload["construction"]["var_classes"].__setitem__(
            0, True), "class_of_var must be"),
    "vars-not-ascending": (lambda payload: _swap_map_keys(payload, "vars"),
                           "class_of_var keys"),
    "literal-columns-unequal": (
        lambda payload: payload["construction"]["literals"].pop(),
        "literal_classes must be"),
    "literal-negative": (
        lambda payload: payload["construction"]["literals"].__setitem__(
            0, -1), "literal_classes must be"),
    "literals-not-ascending": (
        lambda payload: _swap_map_keys(payload, "literals"),
        "literal_classes keys"),
    "construction-field-missing": (
        lambda payload: payload["construction"].pop("literals"),
        "construction must be"),
}


class TestCorruptSnapshots:
    """Damaged gzip streams are unreadable snapshots, never reader crashes:
    truncation (EOFError inside gzip) and corrupt deflate data (zlib.error)
    both surface as SnapshotError, and so does a readable snapshot whose
    columns fail one check of the column reader."""

    def _damaged(self, tmp_path, damage):
        path = save_egraph(tmp_path / "graph.json.gz", _saturated_egraph())
        path.write_bytes(damage(path.read_bytes()))
        return path

    @pytest.mark.parametrize("keep", [0.25, 0.5, 0.9])
    def test_truncated_gzip_raises_snapshot_error(self, tmp_path, keep):
        path = self._damaged(tmp_path,
                             lambda data: data[:int(len(data) * keep)])
        with pytest.raises(SnapshotError):
            read_snapshot(path)

    @pytest.mark.parametrize("where", [10, 11, 0.5, -6])
    def test_bit_flipped_gzip_raises_snapshot_error(self, tmp_path, where):
        def flip(data):
            data = bytearray(data)
            index = int(len(data) * where) if isinstance(where, float) \
                else where
            data[index] ^= 0x5A
            return bytes(data)

        path = self._damaged(tmp_path, flip)
        with pytest.raises(SnapshotError):
            read_snapshot(path)

    def test_truncated_object_reported_collected_and_recomputed(
            self, tmp_path):
        store = ArtifactStore(tmp_path)
        aig = _mapped_csa3()
        pipeline = BoolEPipeline(BoolEOptions(r1_iterations=2,
                                              r2_iterations=2), store=store)
        cold = pipeline.run(aig)
        key = pipeline.cache_key(aig)
        path = store.path_for(key)
        intact = path.read_bytes()
        egraph_wire = store.get(key)["egraph"]

        # A run degrades the unreadable artifact to a miss and recomputes
        # (a fully warm run never reads it: make the run need it).
        path.write_bytes(intact[:len(intact) // 2])
        store.delete(pipeline.plan(aig).extraction_key)
        healed = pipeline.run(aig)
        assert not healed.cache_hit
        assert healed.fa_blocks == cold.fa_blocks
        assert store.get(key)["egraph"] == egraph_wire   # overwritten

        # verify lists it as unreadable; gc removes it.
        path.write_bytes(intact[:len(intact) // 2])
        assert store.verify()["unreadable"] == [str(path)]
        assert store.gc() == [key]
        assert not store.contains(key)

    @pytest.mark.parametrize("case", sorted(_MALFORMED_SNAPSHOTS))
    def test_each_reader_check_raises_and_recomputes(self, tmp_path, case):
        """A saturated snapshot that fails one check is never restored:
        the restore raises, and a run that needs it recomputes and
        overwrites it."""
        tamper, message = _MALFORMED_SNAPSHOTS[case]
        store = ArtifactStore(tmp_path)
        pipeline = BoolEPipeline(BoolEOptions(r1_iterations=2,
                                              r2_iterations=2), store=store)
        aig = _mapped_csa3()
        cold = pipeline.run(aig)
        key = pipeline.cache_key(aig)
        intact = store.get(key, expected_kind=KIND_SATURATED)
        payload = json.loads(json.dumps(intact))
        tamper(payload)
        store.put(key, payload, kind=KIND_SATURATED,
                  meta=store.describe(key)["meta"])
        ctx = PhaseContext()
        ctx["aig"] = aig
        with pytest.raises(SnapshotError, match=message):
            InsertFAPhase(pipeline).from_wire(ctx, store.get(key))
        assert list(ctx.state) == ["aig"]

        store.delete(pipeline.plan(aig).extraction_key)
        rerun = pipeline.run(aig)
        assert not rerun.cache_hit
        assert rerun.fa_blocks == cold.fa_blocks
        assert rerun.extracted_aig.gates == cold.extracted_aig.gates
        assert store.get(key)["egraph"] == intact["egraph"]


@functools.lru_cache(maxsize=None)
def _saturated_payload_text() -> str:
    """Canonical JSON of a small ``saturated-pipeline`` payload."""
    with tempfile.TemporaryDirectory() as root:
        store = ArtifactStore(root)
        pipeline = BoolEPipeline(BoolEOptions(r1_iterations=2,
                                              r2_iterations=2), store=store)
        aig = _mapped_csa3()
        pipeline.run(aig)
        payload = store.get(pipeline.cache_key(aig),
                            expected_kind=KIND_SATURATED)
    return json.dumps(payload, sort_keys=True)


def _column_bounds(wire):
    """Exclusive upper bound of every bounded int column of ``wire``."""
    classes, nodes = len(wire["uf"]), len(wire["node_op"])
    bounds = {name: classes for name in
              ("uf", "node_child", "class_parent_classes",
               "hashcons_classes", "dirty", "pending")}
    bounds.update({name: nodes for name in
                   ("class_nodes", "class_parent_nodes", "hashcons_nodes")})
    bounds["node_op"] = len(wire["ops"])
    bounds["node_payload"] = len(wire["payloads"])
    return bounds


_WRONG_COLUMN = ["0", 1.5, None, {}, True, 7]
_WRONG_INT = ["1", 1.0, None, [], {}, True, False]
_WRONG_TABLE_ENTRY = [1.5, [], {}]
_OFFSET_COLUMNS = ("node_off", "class_node_off", "class_parent_off")


def _mutate(wire, data):
    """Apply one malformation drawn by ``data`` to the e-graph columns."""
    lists = sorted(name for name, value in wire.items()
                   if isinstance(value, list) and value)
    kind = data.draw(st.sampled_from(
        ["drop", "truncate", "out_of_range", "swap_column", "swap_entry"]))
    if kind == "drop":
        del wire[data.draw(st.sampled_from(sorted(wire)))]
    elif kind == "truncate":
        name = data.draw(st.sampled_from(lists))
        cut = data.draw(st.integers(1, len(wire[name])))
        del wire[name][-cut:]
    elif kind == "out_of_range":
        bounds = _column_bounds(wire)
        name = data.draw(st.sampled_from(
            sorted(set(lists) & (set(bounds) | {"seq", *_OFFSET_COLUMNS}))))
        column = wire[name]
        index = data.draw(st.integers(0, len(column) - 1))
        if name in _OFFSET_COLUMNS:
            wrong = [-1, column[-1] + 1]
        else:
            wrong = [-1] + ([bounds[name]] if name in bounds else [])
        column[index] = data.draw(st.sampled_from(wrong))
    elif kind == "swap_column":
        name = data.draw(st.sampled_from(sorted(wire)))
        wire[name] = data.draw(st.sampled_from(
            [wrong for wrong in _WRONG_COLUMN
             if type(wrong) is not type(wire[name])]))
    else:
        name = data.draw(st.sampled_from(lists))
        column = wire[name]
        index = data.draw(st.integers(0, len(column) - 1))
        column[index] = data.draw(st.sampled_from(
            _WRONG_TABLE_ENTRY if name in ("ops", "payloads")
            else _WRONG_INT))


class TestColumnDecodeFuzz:
    """Bounded fuzzers for the snapshot decoders (tier-1)."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_malformed_columns_raise_and_leave_context_untouched(
            self, data):
        payload = json.loads(_saturated_payload_text())
        _mutate(payload["egraph"], data)
        with pytest.raises(SnapshotError):
            egraph_from_wire(payload["egraph"])

        pipeline = BoolEPipeline(BoolEOptions(r1_iterations=2,
                                              r2_iterations=2))
        ctx = PhaseContext()
        ctx["aig"] = aig = _mapped_csa3()
        before = dict(ctx.state)
        with pytest.raises(_DECODE_ERRORS):
            InsertFAPhase(pipeline).from_wire(ctx, payload)
        assert ctx.state == before and ctx["aig"] is aig

    def test_intact_payload_decodes_to_dense(self):
        payload = json.loads(_saturated_payload_text())
        egraph = egraph_from_wire(payload["egraph"])
        assert isinstance(egraph, DenseEGraph)
        assert egraph_to_wire(egraph) == payload["egraph"]

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_damaged_files_raise_or_read_identically(self, data):
        with tempfile.TemporaryDirectory() as root:
            path = save_egraph(Path(root) / "graph.json.gz",
                               _saturated_egraph())
            intact = path.read_bytes()
            damaged = bytearray(intact)
            if data.draw(st.booleans()):
                del damaged[data.draw(st.integers(0, len(damaged) - 1)):]
            else:
                index = data.draw(st.integers(0, len(damaged) - 1))
                damaged[index] ^= 1 << data.draw(st.integers(0, 7))
            expected = read_snapshot(path)
            path.write_bytes(bytes(damaged))
            try:
                document = read_snapshot(path)
            except SnapshotError:
                return
            # Only bits gzip ignores (header mtime/XFL/OS) may survive.
            assert document == expected


@functools.lru_cache(maxsize=None)
def _extraction_payload_text() -> str:
    """Canonical JSON of a small ``extraction`` artifact payload."""
    with tempfile.TemporaryDirectory() as root:
        store = ArtifactStore(root)
        BoolEPipeline(BoolEOptions(r1_iterations=2, r2_iterations=2),
                      store=store).run(_mapped_csa3())
        (key,) = [entry.key for entry in store.entries()
                  if entry.kind == KIND_EXTRACTION]
        payload = store.get(key, expected_kind=KIND_EXTRACTION)
    return json.dumps(payload, sort_keys=True)


@functools.lru_cache(maxsize=None)
def _checkpoint_payload_text() -> str:
    """Canonical JSON of ``{"egraph", "runner"}`` at the first checkpoint
    of a run whose scheduler carries bans and search debt."""
    egraph = aig_to_egraph(_mapped_csa3()).egraph
    captured = []

    def on_checkpoint(checkpoint):
        if not captured and checkpoint.scheduler.stats():
            captured.append({"egraph": egraph_to_wire(egraph),
                             "runner": checkpoint_to_wire(checkpoint)})

    Runner(RunnerLimits(max_iterations=12, match_limit=60, ban_length=1)).run(
        egraph, basic_rules() + identification_rules(),
        checkpoint_every=1, on_checkpoint=on_checkpoint)
    assert captured, "no checkpoint carried scheduler state"
    return json.dumps(captured[0], sort_keys=True)


_WRONG_VALUES = [-1, 10 ** 9, "1", 1.5, None, True, False, [], {}]


def _positions(value, out):
    """Every ``(container, key)`` pair nested under ``value``."""
    if isinstance(value, dict):
        items = list(value.items())
    elif isinstance(value, list):
        items = list(enumerate(value))
    else:
        items = []
    for key, child in items:
        out.append((value, key))
        _positions(child, out)
    return out


def _mutate_wire(wire, data):
    """Replace, delete or duplicate one value anywhere in ``wire``."""
    field = data.draw(st.sampled_from(sorted(wire)))
    container, key = data.draw(st.sampled_from(
        [(wire, field)] + _positions(wire[field], [])))
    kind = data.draw(st.sampled_from(["replace", "delete", "extend"]))
    if kind == "replace":
        container[key] = data.draw(st.sampled_from(_WRONG_VALUES))
    elif kind == "delete":
        del container[key]
    elif isinstance(container, list):
        container.append(json.loads(json.dumps(container[key])))
    else:
        container["extra"] = 0


def _decodes_identically(decode, encode, wire):
    """``decode(wire)`` raises SnapshotError or re-encodes to ``wire``."""
    try:
        decoded = decode(wire)
    except SnapshotError:
        return
    assert json.loads(json.dumps(encode(decoded))) == wire


class TestWireDecodeFuzz:
    """Bounded fuzzers for the extraction, report and checkpoint decoders
    (tier-1): every input decodes to the object it encodes or raises
    SnapshotError — never another exception, never a silent repair."""

    def test_intact_payloads_round_trip(self):
        extraction = json.loads(_extraction_payload_text())["extraction"]
        # Flat columns only: the node and entry rows are gone since v6.
        assert all(type(column) is list and list not in map(type, column)
                   for column in extraction.values())
        assert extraction_to_wire(
            extraction_from_wire(extraction)) == extraction
        saturated = json.loads(_saturated_payload_text())
        for name in ("r1_report", "r2_report"):
            assert report_to_wire(report_from_wire(saturated[name])) \
                == saturated[name]
        checkpoint = json.loads(_checkpoint_payload_text())
        restored = checkpoint_from_wire(
            checkpoint["runner"], egraph_from_wire(checkpoint["egraph"]))
        assert json.loads(json.dumps(checkpoint_to_wire(restored))) \
            == checkpoint["runner"]

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_extraction_decoder(self, data):
        wire = json.loads(_extraction_payload_text())["extraction"]
        _mutate_wire(wire, data)
        _decodes_identically(extraction_from_wire, extraction_to_wire, wire)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_report_decoder(self, data):
        wire = json.loads(_saturated_payload_text())["r2_report"]
        _mutate_wire(wire, data)
        _decodes_identically(report_from_wire, report_to_wire, wire)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_checkpoint_decoder(self, data):
        payload = json.loads(_checkpoint_payload_text())
        egraph = egraph_from_wire(payload["egraph"])
        wire = payload["runner"]
        _mutate_wire(wire, data)
        _decodes_identically(
            lambda wire: checkpoint_from_wire(wire, egraph),
            checkpoint_to_wire, wire)


def _extraction_blob_paths(store, key):
    """The ``extraction`` keys a stored artifact packs as blobs."""
    head, _, _ = gzip.decompress(
        store.path_for(key).read_bytes()).partition(b"\n")
    return {path[2] for path, _, _ in json.loads(head)["blobs"]
            if path[:2] == ["payload", "extraction"]}


def _swap_first_two(column):
    column[0], column[1] = column[1], column[0]


def _non_class_child(wire, _):
    """A chosen node's child that has no entry (so is not a class the
    extraction reached)."""
    classes = set(wire["entry_class"])
    wire["node_child"][0] = min(set(range(max(classes) + 2)) - classes)


def _fa_entry(wire):
    """Position of the first entry whose chosen node is a full adder."""
    fa_op = wire["ops"].index(Op.FA)
    return next(entry for entry, node in enumerate(wire["entry_node"])
                if wire["node_op"][node] == fa_op)


def _fa_class_dropped(wire, _):
    """An FA node's class replaced in ``fa_index`` by an unused id."""
    fa_index = wire["fa_index"]
    class_id = wire["entry_class"][_fa_entry(wire)]
    fa_index[fa_index.index(class_id)] = max(wire["entry_class"]) + 1


def _value_on_reachable_class(wire, _):
    """An explicit value for entry 0, which the repair reaches."""
    wire["cyclic_entry"].append(0)
    wire["cyclic_size"].append(1)
    wire["cyclic_fa_mask"].append(0)


def _self_loop(wire, _):
    """The first inner chosen node rewired over its own class: a
    chosen-node cycle that carries no explicit values."""
    offsets = wire["node_off"]
    entry, node = next(
        (entry, node) for entry, node in enumerate(wire["entry_node"])
        if offsets[node + 1] > offsets[node])
    low, high = offsets[node], offsets[node + 1]
    wire["node_child"][low:high] = [wire["entry_class"][entry]] * (high - low)


def _ops_reversed(wire, _):
    """The same nodes over a reversed operator table."""
    last = len(wire["ops"]) - 1
    wire["ops"].reverse()
    wire["node_op"][:] = [last - op_id for op_id in wire["node_op"]]


def _last_node_duplicated(wire, _):
    """The last node overwritten with a copy of the one before it."""
    offsets = wire["node_off"]
    low, high = offsets[-3], offsets[-2]
    wire["node_child"][high:] = wire["node_child"][low:high]
    offsets[-1] = 2 * high - low
    for column in ("node_op", "node_payload"):
        wire[column][-1] = wire[column][-2]


#: One malformed extraction wire form per check of the decoder: each is
#: a SnapshotError, never a restored extraction.
_MALFORMED_EXTRACTIONS = {
    "entry-columns-unequal": lambda wire, _: wire["entry_node"].pop(),
    "entry-node-out-of-range": lambda wire, _: wire["entry_node"].__setitem__(
        0, len(wire["node_op"])),
    "entry-node-not-first-use": lambda wire, _: _swap_first_two(
        wire["entry_node"]),
    "entry-class-unsorted": lambda wire, _: _swap_first_two(
        wire["entry_class"]),
    "child-not-a-class": _non_class_child,
    "bool-in-node-column": lambda wire, _: wire["node_op"].__setitem__(
        0, True),
    "duplicate-op": lambda wire, _: wire["ops"].append(wire["ops"][0]),
    "duplicate-payload": lambda wire, _: wire["payloads"].append(
        wire["payloads"][0]),
    "op-table-not-first-use": _ops_reversed,
    "duplicate-node": _last_node_duplicated,
    "op-cost-short": lambda wire, _: wire["op_cost"].pop(),
    "op-cost-negative": lambda wire, _: wire["op_cost"].__setitem__(0, -1),
    "fa-class-not-in-fa-index": _fa_class_dropped,
    "value-on-a-reachable-class": _value_on_reachable_class,
    "cycle-without-values": _self_loop,
    "cyclic-columns-unequal": lambda wire, _: _cyclic_values(
        wire)["cyclic_size"].pop(),
    "cyclic-mask-beyond-fa-index": lambda wire, _: _cyclic_values(
        wire, mask=1 << len(wire["fa_index"])),
}


class TestMalformedExtractionArtifact:
    #: Entry field -> the column it is read or derived from.
    COLUMNS = {"node_index": "entry_node", "size": "op_cost",
               "fa_mask": "fa_index"}

    def _assert_recomputed(self, tmp_path, tamper):
        """Store a cold run's extraction artifact after ``tamper(wire,
        egraph)`` edits it: it must no longer decode, and a rerun must
        recompute the extraction instead of serving it."""
        store = ArtifactStore(tmp_path)
        pipeline = BoolEPipeline(BoolEOptions(r1_iterations=2,
                                              r2_iterations=2), store=store)
        aig = _mapped_csa3()
        cold = pipeline.run(aig)
        (entry,) = [entry for entry in store.entries()
                    if entry.kind == KIND_EXTRACTION]
        payload = store.get(entry.key, expected_kind=KIND_EXTRACTION)
        tamper(payload["extraction"], cold.construction.egraph)
        store.put(entry.key, payload, kind=KIND_EXTRACTION, meta=entry.meta)
        with pytest.raises(SnapshotError):
            extraction_from_wire(store.get(entry.key)["extraction"])
        rerun = pipeline.run(aig)
        assert rerun.cache_hit and not rerun.extraction_cache_hit
        assert rerun.fa_blocks == cold.fa_blocks
        assert rerun.extracted_aig.gates == cold.extracted_aig.gates

    @pytest.mark.parametrize("field, value", [
        ("node_index", -1), ("fa_mask", "3"), ("size", True)])
    def test_malformed_entry_is_recomputed_not_served(
            self, tmp_path, field, value):
        """A well-formed file whose extraction entry is garbage must not be
        restored as an extraction cache hit."""
        self._assert_recomputed(
            tmp_path, lambda wire, _: wire[self.COLUMNS[field]].__setitem__(
                0, value))

    @pytest.mark.parametrize("case", sorted(_MALFORMED_EXTRACTIONS))
    def test_each_column_check_raises_and_recomputes(self, tmp_path, case):
        self._assert_recomputed(tmp_path, _MALFORMED_EXTRACTIONS[case])

    def test_csa8_artifact_packs_entry_and_node_columns(self, tmp_path):
        store = ArtifactStore(tmp_path)
        BoolEPipeline(BoolEOptions(r1_iterations=2, r2_iterations=2),
                      store=store).run(post_mapping_flow(
                          csa_multiplier(8).aig))
        (entry,) = [entry for entry in store.entries()
                    if entry.kind == KIND_EXTRACTION]
        assert _extraction_blob_paths(store, entry.key) >= {
            "entry_class", "entry_node", "node_op", "node_payload",
            "node_off", "node_child"}

    def test_cyclic_entries_keep_their_explicit_values(self, tmp_path):
        """Entries on or above a chosen-node cycle carry their values; the
        decoder keeps exactly those and derives the rest."""
        store = ArtifactStore(tmp_path)
        pipeline = BoolEPipeline(BoolEOptions(r1_iterations=2,
                                              r2_iterations=2), store=store)
        aig = _mapped_csa3()
        pipeline.run(aig)
        wire = store.get(pipeline.plan(aig).extraction_key)["extraction"]
        derived = extraction_from_wire(wire)
        cyclic = _cyclic_values(wire, size=7, mask=1)["cyclic_entry"]
        assert cyclic
        decoded = extraction_from_wire(wire)
        assert decoded.cyclic == cyclic
        for entry, (size, mask) in enumerate(zip(decoded.sizes,
                                                  decoded.fa_masks)):
            if entry in cyclic:
                assert (size, mask) == (7, 1)
            else:
                assert (size, mask) == (derived.sizes[entry],
                                        derived.fa_masks[entry])
        assert extraction_to_wire(decoded) == wire


def _cyclic_values(wire, size=1, mask=0):
    """``wire`` with a chosen-node self-loop and explicit values (``size``,
    ``mask``) for exactly the entries it cuts off."""
    _self_loop(wire, None)
    cyclic = _unresolved_entries(wire)
    wire.update(cyclic_entry=cyclic, cyclic_size=[size] * len(cyclic),
                cyclic_fa_mask=[mask] * len(cyclic))
    return wire


def _unresolved_entries(wire):
    """Entry positions whose chosen descendants do not all resolve (a
    plain fixpoint, independent of the decoder's)."""
    position = {class_id: index
                for index, class_id in enumerate(wire["entry_class"])}
    offsets = wire["node_off"]
    kids = [[position[child] for child in
             wire["node_child"][offsets[node]:offsets[node + 1]]]
            for node in wire["entry_node"]]
    resolved = set()
    grew = True
    while grew:
        grew = False
        for entry, children in enumerate(kids):
            if entry not in resolved and resolved.issuperset(children):
                resolved.add(entry)
                grew = True
    return [entry for entry in range(len(kids)) if entry not in resolved]


class _CountingStore(ArtifactStore):
    """An artifact store that records the kind of every ``get``."""

    def __init__(self, root):
        super().__init__(root)
        self.gets = []

    def get(self, key, *, expected_kind=None):
        self.gets.append(expected_kind)
        return super().get(key, expected_kind=expected_kind)

    def count(self, kind):
        return self.gets.count(kind)


def _entries(extraction):
    return {class_id: (entry.node, entry.size, entry.fa_mask)
            for class_id, entry in extraction.entries.items()}


def _record_graph_decodes(monkeypatch):
    """Record every ``DenseEGraph.from_columns`` call."""
    decodes = []
    from_columns = DenseEGraph.from_columns

    def spy(cls, columns):
        decodes.append(cls)
        return from_columns(columns)

    monkeypatch.setattr(DenseEGraph, "from_columns", classmethod(spy))
    return decodes


def _record_starts(monkeypatch):
    """Record, per ``BoolEExtractor.extract`` call, whether it was given
    a first pass to resume from."""
    starts = []
    extract = BoolEExtractor.extract

    def spy(self, egraph, roots=None, *, start=None):
        starts.append(start is not None)
        return extract(self, egraph, roots, start=start)

    monkeypatch.setattr(BoolEExtractor, "extract", spy)
    return starts


class TestWarmLoadsOnlyWhatItUses:
    """A fully warm job is served from the extraction artifact alone, and
    a refining job resumes from the stored single-pass extraction."""

    OPTIONS = {"r1_iterations": 2, "r2_iterations": 2}

    @pytest.fixture(scope="class")
    def csa8(self):
        return post_mapping_flow(csa_multiplier(8).aig)

    def test_fully_warm_job_defers_the_saturated_graph(self, tmp_path, csa8):
        store = _CountingStore(tmp_path)
        options = BoolEOptions(**self.OPTIONS)
        cold = BoolEPipeline(options, store=store).run(csa8)
        cold_wire = egraph_to_wire(cold.construction.egraph)
        store.gets.clear()

        warm = BoolEPipeline(options, store=store).run(csa8)
        assert warm.cache_hit and warm.extraction_cache_hit
        assert store.count(KIND_SATURATED) == 0
        assert store.count(KIND_EXTRACTION) == 1
        assert not warm.construction.egraph_loaded
        # Everything report-shaped answers without the graph.
        assert warm.summary() == {**cold.summary(),
                                  "runtime": warm.summary()["runtime"]}
        light = warm.lightweight()
        assert light.egraph_nodes == cold.egraph_nodes
        assert warm.fa_report.pairs == cold.fa_report.pairs
        assert warm.r2_report.total_unions() == cold.r2_report.total_unions()
        assert store.count(KIND_SATURATED) == 0

        graph = warm.construction.egraph
        assert store.count(KIND_SATURATED) == 1
        assert warm.extraction.egraph is graph
        assert egraph_to_wire(graph) == cold_wire
        assert (warm.extraction.num_exact_fas(warm.construction.output_classes)
                == cold.num_exact_fas)
        assert store.count(KIND_SATURATED) == 1

    def test_snapshot_warm_job_builds_no_graph(self, tmp_path, csa8,
                                               monkeypatch):
        """A refining job on a warm snapshot extracts on the snapshot's
        node table: no e-graph is decoded until a caller reads it."""
        options = BoolEOptions(**self.OPTIONS, refine_rounds=2)
        reference = BoolEPipeline(options, store=tmp_path / "cold").run(csa8)
        cold_wire = egraph_to_wire(reference.construction.egraph)
        store = _CountingStore(tmp_path / "warm")
        BoolEPipeline(BoolEOptions(**self.OPTIONS), store=store).run(csa8)
        store.gets.clear()

        decodes = _record_graph_decodes(monkeypatch)
        warm = BoolEPipeline(options, store=store).run(csa8)
        assert warm.cache_hit and not warm.extraction_cache_hit
        assert not warm.construction.egraph_loaded
        assert _entries(warm.extraction) == _entries(reference.extraction)
        assert warm.fa_blocks == reference.fa_blocks
        assert warm.extracted_aig.gates == reference.extracted_aig.gates
        assert warm.extracted_aig.outputs == reference.extracted_aig.outputs
        assert warm.summary() == {**reference.summary(),
                                  "runtime": warm.summary()["runtime"]}
        assert decodes == [] and store.count(KIND_SATURATED) == 1

        graph = warm.construction.egraph
        assert warm.extraction.egraph is graph
        assert warm.construction.egraph is graph
        assert egraph_to_wire(graph) == cold_wire
        assert len(decodes) == 1 and store.count(KIND_SATURATED) == 2

    @pytest.mark.parametrize("damage", ["deleted", "corrupted"])
    def test_snapshot_warm_graph_heals_a_lost_snapshot(self, tmp_path,
                                                       damage):
        aig = _mapped_csa3()
        store = ArtifactStore(tmp_path)
        options = BoolEOptions(**self.OPTIONS, refine_rounds=2)
        cold = BoolEPipeline(options, store=tmp_path / "cold").run(aig)
        cold_wire = egraph_to_wire(cold.construction.egraph)
        pipeline = BoolEPipeline(options, store=store)
        BoolEPipeline(BoolEOptions(**self.OPTIONS), store=store).run(aig)

        warm = pipeline.run(aig)
        assert warm.cache_hit and not warm.construction.egraph_loaded
        key = pipeline.cache_key(aig)
        if damage == "deleted":
            store.delete(key)
        else:
            store.path_for(key).write_bytes(b"corrupted mid-copy")
        assert egraph_to_wire(warm.construction.egraph) == cold_wire
        assert store.get(key, expected_kind=KIND_SATURATED)["egraph"] \
            == cold_wire                               # recomputed, stored
        assert store.verify()["unreadable"] == []

    def test_deferred_graph_heals_a_corrupt_snapshot(self, tmp_path):
        aig = _mapped_csa3()
        store = ArtifactStore(tmp_path)
        pipeline = BoolEPipeline(BoolEOptions(**self.OPTIONS), store=store)
        cold = pipeline.run(aig)
        cold_wire = egraph_to_wire(cold.construction.egraph)
        path = store.path_for(pipeline.cache_key(aig))
        path.write_bytes(b"corrupted mid-copy")

        warm = pipeline.run(aig)
        assert warm.cache_hit and warm.extraction_cache_hit
        assert egraph_to_wire(warm.construction.egraph) == cold_wire
        assert store.verify()["unreadable"] == []    # recomputed, rewritten

    def test_extraction_artifact_of_another_snapshot_is_not_served(
            self, tmp_path):
        aig = _mapped_csa3()
        store = ArtifactStore(tmp_path)
        pipeline = BoolEPipeline(BoolEOptions(**self.OPTIONS), store=store)
        cold = pipeline.run(aig)
        key = pipeline.plan(aig).extraction_key
        entry = store.describe(key)
        for tamper in (lambda payload: payload.update(saturated_key="0" * 64),
                       lambda payload: payload.update(egraph_shape=[1.5, 2])):
            payload = store.get(key, expected_kind=KIND_EXTRACTION)
            tamper(payload)
            store.put(key, payload, kind=KIND_EXTRACTION, meta=entry["meta"])
            rerun = pipeline.run(aig)
            assert rerun.cache_hit and not rerun.extraction_cache_hit
            assert rerun.fa_blocks == cold.fa_blocks

    @pytest.mark.parametrize("refine_rounds", [1, 2, 3])
    def test_refinement_resumes_from_stored_first_pass(
            self, tmp_path, csa8, refine_rounds, monkeypatch):
        options = BoolEOptions(**self.OPTIONS, refine_rounds=refine_rounds)
        reference = BoolEPipeline(options, store=tmp_path / "cold").run(csa8)

        starts = _record_starts(monkeypatch)
        store = ArtifactStore(tmp_path / "warm")
        BoolEPipeline(BoolEOptions(**self.OPTIONS), store=store).run(csa8)
        assert starts == [False]
        resumed = BoolEPipeline(options, store=store).run(csa8)
        assert resumed.cache_hit and not resumed.extraction_cache_hit
        assert starts == [False, True]
        assert resumed.extraction.fa_index == reference.extraction.fa_index
        assert _entries(resumed.extraction) == _entries(reference.extraction)
        assert resumed.fa_blocks == reference.fa_blocks

    def test_fully_warm_job_builds_no_cost_entry(self, tmp_path, csa8,
                                                 monkeypatch):
        """A fully warm job validates the stored choices and materialises
        no entry; reading one through the mapping builds just that one."""
        options = BoolEOptions(**self.OPTIONS)
        BoolEPipeline(options, store=tmp_path).run(csa8)
        built = []
        cost_entry = extraction_module.CostEntry

        def counted(*args, **kwargs):
            built.append(1)
            return cost_entry(*args, **kwargs)

        monkeypatch.setattr(extraction_module, "CostEntry", counted)
        warm = BoolEPipeline(options, store=tmp_path).run(csa8)
        assert warm.cache_hit and warm.extraction_cache_hit
        assert warm.summary()["exact_fas"] == warm.num_exact_fas
        assert built == []
        root = warm.extraction.entry_class[-1]
        assert warm.extraction.entries[root].node is not None
        assert built == [1]

    def test_snapshot_warm_refine_job_decodes_the_first_pass_once(
            self, tmp_path, csa8, monkeypatch):
        store = ArtifactStore(tmp_path)
        BoolEPipeline(BoolEOptions(**self.OPTIONS), store=store).run(csa8)
        decodes = []
        decode = phases_module.extraction_from_wire

        def counted(wire):
            decodes.append(1)
            return decode(wire)

        monkeypatch.setattr(phases_module, "extraction_from_wire", counted)
        refined = BoolEPipeline(BoolEOptions(**self.OPTIONS, refine_rounds=2),
                                store=store).run(csa8)
        assert refined.cache_hit and not refined.extraction_cache_hit
        assert decodes == [1]

    def test_extraction_wire_is_byte_identical_for_identical_choices(
            self, tmp_path, csa8):
        """A refinement resumed from the stored first pass stores the same
        bytes as a cold one, and a decoded record re-encodes to itself."""
        options = BoolEOptions(**self.OPTIONS, refine_rounds=2)
        cold = BoolEPipeline(options, store=tmp_path / "cold")
        cold.run(csa8)
        store = ArtifactStore(tmp_path / "warm")
        BoolEPipeline(BoolEOptions(**self.OPTIONS), store=store).run(csa8)
        warm = BoolEPipeline(options, store=store)
        assert not warm.run(csa8).extraction_cache_hit
        key = cold.plan(csa8).extraction_key
        assert warm.plan(csa8).extraction_key == key
        wires = [ArtifactStore(tmp_path / side).get(key)["extraction"]
                 for side in ("cold", "warm")]
        files = []
        for side, wire in zip(("cold", "warm"), wires):
            assert extraction_to_wire(extraction_from_wire(wire)) == wire
            files.append(tmp_path / f"{side}.snap")
            write_snapshot(files[-1], KIND_EXTRACTION, {"extraction": wire})
        assert files[0].read_bytes() == files[1].read_bytes()

    def test_corrupt_first_pass_falls_back(self, tmp_path, monkeypatch):
        aig = _mapped_csa3()
        options = BoolEOptions(**self.OPTIONS, refine_rounds=2)
        reference = BoolEPipeline(options, store=tmp_path / "cold").run(aig)
        store = ArtifactStore(tmp_path / "warm")
        single = BoolEPipeline(BoolEOptions(**self.OPTIONS), store=store)
        single.run(aig)
        store.path_for(single.plan(aig).extraction_key).write_bytes(b"junk")

        starts = _record_starts(monkeypatch)
        refined = BoolEPipeline(options, store=store).run(aig)
        assert starts == [False]
        assert _entries(refined.extraction) == _entries(reference.extraction)


class TestSchedulerRoundTrip:
    def test_bans_budgets_and_debt_survive(self):
        scheduler = BackoffScheduler(match_limit=4, ban_length=2)
        scheduler.begin_iteration()
        scheduler.ban("boom", searched=[3, 1, 2])
        scheduler.defer("boom", [7])
        scheduler.ban("flood", searched=None)
        restored = scheduler_from_wire(scheduler_to_wire(scheduler))
        assert restored.iteration == scheduler.iteration
        for name in ("boom", "flood", "never-banned"):
            assert restored.is_banned(name) == scheduler.is_banned(name)
            assert restored.budget(name) == scheduler.budget(name)
            assert restored.has_debt(name) == scheduler.has_debt(name)
        assert restored.frontier_for("boom", {9}) == {1, 2, 3, 7, 9}
        assert restored.frontier_for("flood", {9}) is None
        assert restored.export_state() == scheduler.export_state()

    def test_none_scheduler_passes_through(self):
        assert scheduler_to_wire(None) is None
        assert scheduler_from_wire(None) is None


def _run_limits() -> RunnerLimits:
    return RunnerLimits(max_iterations=12, match_limit=60, ban_length=1)


class TestCheckpointResume:
    def test_resume_bit_identical_to_uninterrupted(self, tmp_path):
        """Checkpoint at iteration k -> save -> load -> continue == one
        uninterrupted run, down to the serialized e-graph bytes and the
        extraction choices."""
        aig = _mapped_csa3()
        rules = basic_rules() + identification_rules()

        reference = aig_to_egraph(aig)
        ref_report = Runner(_run_limits()).run(reference.egraph, rules)

        checkpointed = aig_to_egraph(aig)
        paths = []

        def on_checkpoint(checkpoint):
            path = tmp_path / f"cp{checkpoint.iteration}.json.gz"
            save_checkpoint(path, checkpointed.egraph, checkpoint)
            paths.append(path)

        Runner(_run_limits()).run(checkpointed.egraph, rules,
                                  checkpoint_every=3,
                                  on_checkpoint=on_checkpoint)
        assert paths, "run finished before the first checkpoint; " \
                      "tighten the budget"

        for path in paths:
            restored, checkpoint = load_checkpoint(path)
            report = Runner.from_checkpoint(checkpoint).run(
                restored, rules, resume_from=checkpoint)
            assert report.stop_reason == ref_report.stop_reason
            assert report.num_iterations == ref_report.num_iterations
            assert _wire_bytes(restored) == _wire_bytes(reference.egraph)
        assert (_extraction_signature(restored)
                == _extraction_signature(reference.egraph))

    def test_checkpoint_cadence_and_shape(self, tmp_path):
        egraph = aig_to_egraph(_mapped_csa3()).egraph
        rules = basic_rules()
        seen = []
        # Checkpoints alias live state, so record the interesting facts at
        # callback time (the report keeps growing after the callback).
        Runner(RunnerLimits(max_iterations=6, match_limit=60,
                            ban_length=1)).run(
            egraph, rules, checkpoint_every=2,
            on_checkpoint=lambda cp: seen.append(
                (cp.iteration, len(cp.report.iterations))))
        assert seen, "no checkpoints taken"
        for iteration, completed in seen:
            assert iteration % 2 == 0
            assert iteration == completed
            assert iteration < 6  # never after a stop decision

    def test_resume_without_callback_is_plain_run(self):
        """checkpoint_every without on_checkpoint is inert."""
        aig = _mapped_csa3()
        plain = aig_to_egraph(aig)
        Runner(RunnerLimits(max_iterations=4)).run(plain.egraph,
                                                   basic_rules())
        silent = aig_to_egraph(aig)
        Runner(RunnerLimits(max_iterations=4)).run(
            silent.egraph, basic_rules(), checkpoint_every=1)
        assert _wire_bytes(silent.egraph) == _wire_bytes(plain.egraph)


_SUBPROCESS_SCRIPT = """
import sys, json, hashlib
from repro.core.construct import aig_to_egraph
from repro.core.extraction import BoolEExtractor
from repro.core.fa_structure import insert_fa_structures
from repro.core.rules_basic import basic_rules
from repro.core.rules_xor_maj import identification_rules
from repro.egraph import Runner, RunnerLimits
from repro.generators import csa_multiplier
from repro.opt import post_mapping_flow
from repro.store import save_checkpoint, load_checkpoint

mode, path = sys.argv[1], sys.argv[2]
aig = post_mapping_flow(csa_multiplier(3).aig)
rules = basic_rules() + identification_rules()
limits = RunnerLimits(max_iterations=12, match_limit=60, ban_length=1)

def signature(egraph):
    insert_fa_structures(egraph)
    extraction = BoolEExtractor().extract(egraph)
    entries = sorted((cid, e.size, len(e.fa_classes), str(e.node))
                     for cid, e in extraction.entries.items())
    blob = json.dumps([egraph.num_classes, egraph.num_canonical_nodes(),
                       entries])
    return hashlib.sha256(blob.encode()).hexdigest()

if mode == "full":
    con = aig_to_egraph(aig)
    Runner(limits).run(con.egraph, rules)
    print(signature(con.egraph))
elif mode == "checkpoint":
    con = aig_to_egraph(aig)
    saved = []
    def on_checkpoint(cp):
        if not saved:
            save_checkpoint(path, con.egraph, cp)
            saved.append(cp.iteration)
    Runner(limits).run(con.egraph, rules, checkpoint_every=3,
                       on_checkpoint=on_checkpoint)
    print(saved[0] if saved else -1)
else:
    egraph, cp = load_checkpoint(path)
    Runner.from_checkpoint(cp).run(egraph, rules, resume_from=cp)
    print(signature(egraph))
"""


def _subprocess(mode: str, path: str, hash_seed: int) -> str:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(hash_seed)
    env["PYTHONPATH"] = SRC_DIR + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run(
        [sys.executable, "-c", _SUBPROCESS_SCRIPT, mode, path],
        env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


class TestCheckpointResumeAcrossHashSeeds:
    def test_three_processes_three_seeds_one_result(self, tmp_path):
        """Uninterrupted (seed A), checkpoint writer (seed B) and resumer
        (seed C) all land on the same saturated e-graph + extraction."""
        path = str(tmp_path / "checkpoint.json.gz")
        reference = _subprocess("full", path, hash_seed=0)
        first_checkpoint = _subprocess("checkpoint", path, hash_seed=31337)
        assert int(first_checkpoint) > 0, "no checkpoint was written"
        resumed = _subprocess("resume", path, hash_seed=98765)
        assert resumed == reference


class TestArtifactStore:
    def test_put_get_contains(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        key = "ab" * 20
        assert not store.contains(key)
        assert store.get(key) is None
        store.put(key, {"hello": [1, 2]}, kind="egraph",
                  meta={"width": 4})
        assert store.contains(key)
        assert store.get(key) == {"hello": [1, 2]}
        header = store.describe(key)
        assert header["kind"] == "egraph"
        assert header["meta"] == {"width": 4}

    def test_invalid_key_rejected(self, tmp_path):
        store = ArtifactStore(tmp_path)
        with pytest.raises(ValueError):
            store.put("../escape", {}, kind="egraph")
        with pytest.raises(ValueError):
            store.contains("UPPERCASE-NOT-HEX")

    def test_index_lists_newest_first(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put("aa" * 20, {}, kind="one")
        store.put("bb" * 20, {}, kind="two")
        entries = store.entries()
        assert [entry.kind for entry in entries] == ["two", "one"]
        assert store.total_bytes() > 0

    def test_verify_adopts_orphans_and_drops_ghosts(self, tmp_path):
        store = ArtifactStore(tmp_path)
        kept, lost = "aa" * 20, "bb" * 20
        store.put(kept, {}, kind="egraph")
        store.put(lost, {}, kind="egraph")
        (tmp_path / "index.json").unlink()          # orphan both objects
        store.path_for(lost).unlink()               # ...and lose one
        report = store.verify()
        assert report["adopted"] == [kept]
        assert report["dropped"] == []
        assert [entry.key for entry in store.entries()] == [kept]

    def test_gc_unreadable_and_age(self, tmp_path):
        store = ArtifactStore(tmp_path)
        fresh, stale = "aa" * 20, "bb" * 20
        store.put(fresh, {}, kind="egraph")
        store.put(stale, {}, kind="egraph")
        corrupt = store.path_for("cc" * 20)
        corrupt.parent.mkdir(parents=True, exist_ok=True)
        corrupt.write_bytes(b"junk")
        old = store.path_for(stale)
        os.utime(old, (1.0, 1.0))
        would = store.gc(max_age_seconds=3600, dry_run=True)
        assert set(would) == {"cc" * 20, stale}
        assert store.contains(stale)                # dry run removed nothing
        removed = store.gc(max_age_seconds=3600)
        assert set(removed) == {"cc" * 20, stale}
        assert store.contains(fresh)
        assert not store.contains(stale)
        assert [entry.key for entry in store.entries()] == [fresh]

    def test_concurrent_instances_lose_no_index_entries(self, tmp_path):
        # Two store instances over one root (a server and a worker of the
        # service layer, or two processes on a shared mount) interleave
        # index read-modify-writes; without cross-instance locking one
        # writer's entry vanishes and e.g. a queued job becomes invisible
        # to the fleet.  Every key written by either side must be indexed.
        import threading

        first = ArtifactStore(tmp_path)
        second = ArtifactStore(tmp_path)
        keys = [f"{i:08x}" for i in range(120)]

        def writer(store, shard):
            for key in shard:
                store.put(key, {"key": key}, kind="egraph")

        threads = [
            threading.Thread(target=writer, args=(first, keys[::2])),
            threading.Thread(target=writer, args=(second, keys[1::2])),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert set(first.kinds()) == set(keys)

    def test_gc_size_budget_evicts_lru(self, tmp_path):
        store = ArtifactStore(tmp_path)
        first, second = "aa" * 20, "bb" * 20
        store.put(first, {"blob": "x" * 512}, kind="egraph")
        store.put(second, {"blob": "y" * 512}, kind="egraph")
        os.utime(store.path_for(first), (1.0, 1.0))   # least recently used
        removed = store.gc(max_total_bytes=store.path_for(second)
                           .stat().st_size)
        assert removed == [first]
        assert store.contains(second)


class TestPipelineStoreCache:
    OPTIONS = dict(r1_iterations=2, r2_iterations=2)

    def test_miss_then_hit_bit_identical(self, tmp_path):
        store = ArtifactStore(tmp_path)
        aig = _mapped_csa3()
        pipeline = BoolEPipeline(BoolEOptions(**self.OPTIONS), store=store)
        cold = pipeline.run(aig)
        warm = pipeline.run(aig)
        assert not cold.cache_hit and warm.cache_hit
        assert "cache_store" in cold.timings
        # Fully warm: only the extraction artifact is loaded.
        assert "extraction_cache_load" in warm.timings
        assert "cache_load" not in warm.timings and "r1" not in warm.timings
        assert warm.summary() == {**cold.summary(),
                                  "runtime": warm.summary()["runtime"]}
        assert warm.extracted_aig.gates == cold.extracted_aig.gates
        assert warm.fa_blocks == cold.fa_blocks
        assert warm.num_npn_fas == cold.num_npn_fas
        assert warm.r1_report.stop_reason == cold.r1_report.stop_reason
        assert (warm.r2_report.scheduler_stats
                == cold.r2_report.scheduler_stats)
        # The cold run persists both cache levels: the saturated snapshot
        # and the extraction artifact.
        assert (sorted(entry.kind for entry in store.entries())
                == ["extraction", "saturated-pipeline"])

    def test_display_name_does_not_split_cache(self, tmp_path):
        aig = _mapped_csa3()
        renamed = aig.copy()
        renamed.name = "same-circuit-other-name"
        store = ArtifactStore(tmp_path)
        options = BoolEOptions(**self.OPTIONS)
        first = BoolEPipeline(options, store=store).run(aig)
        second = BoolEPipeline(options, store=store).run(renamed)
        assert not first.cache_hit and second.cache_hit

    def test_option_change_misses(self, tmp_path):
        store = ArtifactStore(tmp_path)
        aig = _mapped_csa3()
        BoolEPipeline(BoolEOptions(**self.OPTIONS), store=store).run(aig)
        other = BoolEPipeline(BoolEOptions(r1_iterations=3, r2_iterations=2),
                              store=store)
        assert not other.run(aig).cache_hit
        # Two (saturated, extraction) artifact pairs: one per option set.
        assert len(store.entries()) == 4

    def test_corrupt_artifact_degrades_to_miss_and_heals(self, tmp_path):
        """A damaged object file at a live key must not poison the circuit:
        the run recomputes (miss), overwrites the artifact, and the next
        run hits again."""
        store = ArtifactStore(tmp_path)
        aig = _mapped_csa3()
        pipeline = BoolEPipeline(BoolEOptions(**self.OPTIONS), store=store)
        cold = pipeline.run(aig)
        path = store.path_for(pipeline.cache_key(aig))
        path.write_bytes(b"corrupted mid-copy")
        # A fully warm run never reads the snapshot: make the run need it.
        store.delete(pipeline.plan(aig).extraction_key)
        healed = pipeline.run(aig)
        assert not healed.cache_hit
        assert healed.fa_blocks == cold.fa_blocks
        warm = pipeline.run(aig)
        assert warm.cache_hit

    def test_run_boole_accepts_store_path(self, tmp_path):
        aig = _mapped_csa3()
        options = BoolEOptions(**self.OPTIONS)
        run_boole(aig, options, store=str(tmp_path))
        warm = run_boole(aig, options, store=str(tmp_path))
        assert warm.cache_hit


class TestBatchStoreIntegration:
    def test_second_sweep_served_from_cache(self, tmp_path):
        jobs = [BatchJob(f"rca{width}", ripple_carry_adder(width)[0])
                for width in (3, 4)]
        options = BoolEOptions(r1_iterations=2, r2_iterations=1)
        cold = BatchPipeline(options, max_workers=2,
                             store=tmp_path / "store").run(jobs)
        assert cold.num_failed == 0 and cold.num_cached == 0
        warm = BatchPipeline(options, max_workers=2,
                             store=tmp_path / "store").run(jobs)
        assert warm.num_failed == 0
        assert warm.num_cached == len(jobs)
        for cold_item, warm_item in zip(cold.items, warm.items):
            assert warm_item.cached
            assert warm_item.summary == {
                **cold_item.summary, "runtime": warm_item.summary["runtime"]}

    def test_store_disabled_keeps_legacy_behavior(self):
        jobs = [ripple_carry_adder(3)[0]]
        report = BatchPipeline(BoolEOptions(r1_iterations=1,
                                            r2_iterations=1,
                                            extract=False,
                                            count_npn=False)).run(jobs)
        assert report.num_cached == 0


class TestFingerprints:
    def test_aig_fingerprint_ignores_display_name_only(self):
        aig = csa_multiplier(2).aig
        renamed = aig.copy()
        renamed.name = "other"
        assert fingerprint_aig(renamed) == fingerprint_aig(aig)
        grown = aig.copy()
        lit = grown.add_input("extra")
        grown.add_output(lit, "extra_out")
        assert fingerprint_aig(grown) != fingerprint_aig(aig)

    def test_options_fingerprint_ignores_extract_only(self):
        base = BoolEOptions()
        assert (fingerprint_options(BoolEOptions(extract=False))
                == fingerprint_options(base))
        assert (fingerprint_options(BoolEOptions(r1_iterations=9))
                != fingerprint_options(base))
        assert (fingerprint_options(BoolEOptions(match_limit=None))
                != fingerprint_options(base))

    def test_ruleset_fingerprint_sensitivity(self):
        light = basic_rules(lightweight=True)
        full = basic_rules(lightweight=False)
        assert fingerprint_ruleset(light) != fingerprint_ruleset(full)
        assert (fingerprint_ruleset(light, revision="v2")
                != fingerprint_ruleset(light))
        assert fingerprint_ruleset(light) == fingerprint_ruleset(
            basic_rules(lightweight=True))


class TestCommandLine:
    def _cli(self, root, *args):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        return subprocess.run(
            [sys.executable, "-m", "repro.store", "--root", str(root), *args],
            env=env, capture_output=True, text=True, timeout=300)

    def test_list_inspect_verify_gc(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = "cd" * 20
        store.put(key, {"x": 1}, kind="egraph", meta={"width": 3})
        listed = self._cli(tmp_path, "list")
        assert listed.returncode == 0, listed.stderr
        assert key[:16] in listed.stdout

        inspected = self._cli(tmp_path, "inspect", key)
        assert inspected.returncode == 0
        assert json.loads(inspected.stdout)["meta"] == {"width": 3}

        verified = self._cli(tmp_path, "verify")
        assert verified.returncode == 0

        collected = self._cli(tmp_path, "gc", "--max-age-days", "0",
                              "--dry-run")
        assert collected.returncode == 0
        assert key in collected.stdout

    def test_verify_reports_truncated_object_and_exits_zero(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = "cd" * 20
        path = store.put(key, {"x": list(range(1000))}, kind="egraph")
        path.write_bytes(path.read_bytes()[:40])
        verified = self._cli(tmp_path, "verify")
        assert verified.returncode == 0, verified.stderr
        assert json.loads(verified.stdout)["unreadable"] == [str(path)]

    def test_missing_key_inspect_fails(self, tmp_path):
        result = self._cli(tmp_path, "inspect", "ef" * 20)
        assert result.returncode == 1


class TestPinsAndCostAwareGC:
    def test_pin_unpin_round_trip(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = "ab" * 20
        with pytest.raises(KeyError):
            store.pin(key)            # pinning nothing is an error
        store.put(key, {}, kind="egraph")
        assert not store.is_pinned(key)
        store.pin(key)
        assert store.is_pinned(key)
        assert store.describe(key)["pinned"]
        assert [entry.pinned for entry in store.entries()] == [True]
        assert store.unpin(key)
        assert not store.is_pinned(key)
        assert not store.unpin(key)   # idempotent

    def test_pinned_artifacts_survive_age_and_size_gc(self, tmp_path):
        store = ArtifactStore(tmp_path)
        pinned, loose = "aa" * 20, "bb" * 20
        store.put(pinned, {"blob": "x" * 512}, kind="egraph")
        store.put(loose, {"blob": "y" * 512}, kind="egraph")
        store.pin(pinned)
        os.utime(store.path_for(pinned), (1.0, 1.0))
        os.utime(store.path_for(loose), (1.0, 1.0))
        removed = store.gc(max_age_seconds=3600, max_total_bytes=1)
        assert removed == [loose]
        assert store.contains(pinned)

    def test_gc_removes_unreadable_even_when_pinned(self, tmp_path):
        """A pinned object from an old codec can never be read again;
        keeping it would wedge the store after a version bump."""
        store = ArtifactStore(tmp_path)
        key = "cc" * 20
        store.put(key, {}, kind="egraph")
        store.pin(key)
        store.path_for(key).write_bytes(b"junk from an old codec")
        assert store.gc() == [key]
        assert not store.contains(key)
        assert not store.is_pinned(key)   # the sidecar went with it

    def test_size_gc_evicts_cheapest_rebuild_first(self, tmp_path):
        """--max-bytes orders by the saturation_seconds recorded in meta:
        the artifact that took 90s to saturate outlives the one that took
        2s, even when the expensive one is older and less recently used."""
        store = ArtifactStore(tmp_path)
        cheap, dear = "aa" * 20, "bb" * 20
        store.put(dear, {"blob": "x" * 512}, kind="saturated-pipeline",
                  meta={"saturation_seconds": 90.0})
        store.put(cheap, {"blob": "y" * 512}, kind="saturated-pipeline",
                  meta={"saturation_seconds": 2.0})
        # Make the expensive artifact the LRU one: pure-LRU would evict it.
        os.utime(store.path_for(dear), (1.0, 1.0))
        budget = store.path_for(dear).stat().st_size
        removed = store.gc(max_total_bytes=budget)
        assert removed == [cheap]
        assert store.contains(dear)

    def test_delete_removes_object_index_and_pin(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = "dd" * 20
        store.put(key, {}, kind="egraph")
        store.pin(key)
        assert store.delete(key)
        assert not store.contains(key)
        assert not store.is_pinned(key)
        assert store.entries() == []
        assert not store.delete(key)   # second delete is a no-op

    def test_saturated_artifacts_record_rebuild_cost(self, tmp_path):
        """The pipeline stamps saturation_seconds into both artifact
        levels so the cost-aware GC has something to order by."""
        store = ArtifactStore(tmp_path)
        pipeline = BoolEPipeline(BoolEOptions(r1_iterations=2,
                                              r2_iterations=2), store=store)
        pipeline.run(_mapped_csa3())
        for entry in store.entries():
            assert "saturation_seconds" in entry.meta
            assert entry.meta["saturation_seconds"] >= 0.0


class TestPinCommandLine:
    def _cli(self, root, *args):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        return subprocess.run(
            [sys.executable, "-m", "repro.store", "--root", str(root), *args],
            env=env, capture_output=True, text=True, timeout=300)

    def test_pin_unpin_and_gc_respect(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = "ee" * 20
        store.put(key, {}, kind="egraph")
        pinned = self._cli(tmp_path, "pin", key)
        assert pinned.returncode == 0, pinned.stderr
        assert store.is_pinned(key)
        listed = self._cli(tmp_path, "list")
        assert "1 pinned" in listed.stdout

        collected = self._cli(tmp_path, "gc", "--max-age-days", "0")
        assert collected.returncode == 0
        assert store.contains(key)       # pin held against age eviction

        unpinned = self._cli(tmp_path, "unpin", key)
        assert unpinned.returncode == 0
        collected = self._cli(tmp_path, "gc", "--max-age-days", "0")
        assert not store.contains(key)

    def test_pin_missing_key_fails(self, tmp_path):
        result = self._cli(tmp_path, "pin", "ff" * 20)
        assert result.returncode == 1


class TestPlanAndKeyCommandLine:
    """CLI surface of the planner: ``plan`` (warm/cold frontier, executes
    nothing) and ``key --kind`` parity with the artifacts execution
    actually stores."""

    _CLI_OPTIONS = dict(r1_iterations=2, r2_iterations=2,
                        match_limit=100_000, ban_length=2)
    _CLI_ARGS = ("--arch", "csa", "--width", "2",
                 "--r1-iterations", "2", "--r2-iterations", "2")

    def _cli(self, root, *args):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        return subprocess.run(
            [sys.executable, "-m", "repro.store", "--root", str(root), *args],
            env=env, capture_output=True, text=True, timeout=300)

    def test_plan_cold_then_warm(self, tmp_path):
        from repro.core import BatchJob, BatchPipeline

        plan_args = ("plan", "--arch", "csa", "--widths", "2",
                     "--refine-rounds", "0,1",
                     "--r1-iterations", "2", "--r2-iterations", "2")
        cold = self._cli(tmp_path, *plan_args, "--json")
        assert cold.returncode == 0, cold.stderr
        payload = json.loads(cold.stdout)
        assert payload["summary"]["jobs"] == 2
        assert payload["summary"]["warm"] == 0
        # The two refine_rounds values share the width's saturated prefix.
        assert payload["summary"]["saturations"] == 1
        assert payload["summary"]["prefix_shared"] == 1
        assert payload["jobs"][1]["schedule"] == "after:csa2-rr0"

        # Execute the same sweep in-process, then the frontier is warm.
        mapped = post_mapping_flow(csa_multiplier(2).aig)
        jobs = [BatchJob(f"rr{refine}", mapped,
                         options=BoolEOptions(refine_rounds=refine,
                                              **self._CLI_OPTIONS))
                for refine in (0, 1)]
        report = BatchPipeline(executor="serial", store=str(tmp_path)).run(jobs)
        assert report.num_failed == 0

        warm = self._cli(tmp_path, *plan_args)
        assert warm.returncode == 0, warm.stderr
        assert "WARM_BOUNDARY" in warm.stdout
        assert "COLD" not in warm.stdout
        assert "warm: 2" in warm.stdout
        assert "saturations: 0" in warm.stdout
        assert "planned in" in warm.stdout

    def test_plan_rejects_bad_widths(self, tmp_path):
        result = self._cli(tmp_path, "plan", "--widths", "4,banana")
        assert result.returncode == 2
        assert "comma-separated" in result.stderr

    def test_key_kinds_match_stored_artifacts(self, tmp_path):
        """``key --kind`` prints, for every artifact kind, exactly the key
        the executing pipeline stores (or would store) the artifact under."""
        from repro.store import phase_checkpoint_key

        saturated = self._cli(tmp_path, "key", *self._CLI_ARGS)
        extraction = self._cli(tmp_path, "key", *self._CLI_ARGS,
                               "--kind", "extraction")
        checkpoint = self._cli(tmp_path, "key", *self._CLI_ARGS,
                               "--kind", "checkpoint", "--phase",
                               "saturate-r1")
        for result in (saturated, extraction, checkpoint):
            assert result.returncode == 0, result.stderr

        mapped = post_mapping_flow(csa_multiplier(2).aig)
        pipeline = BoolEPipeline(BoolEOptions(**self._CLI_OPTIONS),
                                 store=tmp_path)
        base_key = pipeline.cache_key(mapped)
        assert saturated.stdout.strip() == base_key
        assert (checkpoint.stdout.strip()
                == phase_checkpoint_key(base_key, "saturate-r1"))

        pipeline.run(mapped)
        store = ArtifactStore(tmp_path)
        assert store.contains(saturated.stdout.strip())
        assert store.contains(extraction.stdout.strip())
        roots = aig_to_egraph(mapped).output_classes
        assert (extraction.stdout.strip()
                == pipeline.extraction_key(base_key, roots))

    def test_key_unknown_phase_fails(self, tmp_path):
        result = self._cli(tmp_path, "key", *self._CLI_ARGS,
                           "--kind", "checkpoint", "--phase", "nope")
        assert result.returncode == 1
        assert "unknown phase" in result.stderr
