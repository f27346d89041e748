"""The bitmask/worklist extraction rewrite and the extraction cache (ISSUE 4).

Three properties are pinned here:

* **Achievability.**  Every stored (mask, size) is exactly what the
  chosen node materialises (the value-repair pass), so
  ``num_exact_fas`` always equals the reconstructed FA block count.  The
  frozen pre-rewrite reference (:mod:`repro.core.extraction_reference`)
  violates this on wide circuits — a child refresh could shrink the FA
  set a parent's stored entry was computed from, and the
  accept-only-improvements rule then kept the stale, unachievable key
  forever (at width 16 it claimed 267 root FAs over a 161-FA netlist).
  Where the reference *is* self-consistent the two agree entry for
  entry; where it is not, the rewrite must stay within 5% of its
  materialised FA count (measured: better at widths 4/8, 155 vs 161 at
  width 16 — the reference's count there is a scheduling-lottery
  artifact of hash-set iteration order).
* **Determinism.**  Setup tables, the dependency index and the worklist
  are built in seq/structural order only, so extraction is bit-identical
  across ``PYTHONHASHSEED`` values (subprocess property test).
* **Caching.**  ``kind="extraction"`` artifacts hit/miss/invalidate
  correctly and corrupt artifacts degrade to a recompute (mirrors the
  PR 3 snapshot hardening).
"""

import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aig import AIG, aig_equivalent, lit_not
from repro.core import BoolEOptions, BoolEPipeline
from repro.core.construct import aig_to_egraph
from repro.core.extraction import (
    BoolEExtractor,
    CostEntry,
    _SIZE_CAP,
    reconstruct_aig,
)
from repro.core.extraction_reference import (
    ReferenceBoolEExtractor,
    reference_tree_extract,
)
from repro.core.rules_basic import basic_rules
from repro.egraph import ENode, Op, Runner, RunnerLimits, TreeCostExtractor
from repro.store import (
    KIND_EXTRACTION,
    ArtifactStore,
    extraction_cache_key,
)
from repro.generators import csa_multiplier
from repro.opt import post_mapping_flow

SRC_DIR = str(Path(__file__).resolve().parent.parent / "src")

#: Options shared with ``python -m repro.store warm`` so the nightly run of
#: the wide widths can reuse the shared artifact store.
PIPELINE_OPTIONS = dict(r1_iterations=3, r2_iterations=3)

#: Widths for the expensive end-to-end properties: 3 on every run, the
#: ISSUE acceptance widths 8 and 16 on the nightly cron (REPRO_NIGHTLY=1).
WIDE_WIDTHS = [8, 16] if os.environ.get("REPRO_NIGHTLY") else []


def _mapped(width):
    return post_mapping_flow(csa_multiplier(width).aig)


def _pipeline_result(width, store=None):
    if store is None:
        # The nightly cron points REPRO_STORE_DIR at its warmed store so
        # the acceptance widths skip re-saturation.
        store = os.environ.get("REPRO_STORE_DIR")
    return BoolEPipeline(BoolEOptions(**PIPELINE_OPTIONS),
                         store=store).run(_mapped(width))


def _functionally_equal(left, right, seed=7):
    """Equivalence check that scales past the exhaustive truth-table cap."""
    if left.num_inputs <= 16:
        return aig_equivalent(left, right)
    import random

    rng = random.Random(seed)
    mask = (1 << 256) - 1
    for _round in range(8):
        words = {var: rng.getrandbits(256) for var in left.inputs}
        left_values = left.simulate(dict(words), mask=mask)
        right_words = {var: words[old_var]
                       for var, old_var in zip(right.inputs, left.inputs)}
        right_values = right.simulate(right_words, mask=mask)
        if (left.output_words(left_values, mask)
                != right.output_words(right_values, mask)):
            return False
    return True


def _recompute_candidate(egraph, extractor, fa_bit, entries, class_id, node):
    """Candidate (mask, size) of ``node`` from the final entries, or None."""
    mask = 0
    size = extractor.node_cost.get(node.op, 1)
    for child in node.children:
        entry = entries.get(egraph.find(child))
        if entry is None:
            return None
        mask |= entry.fa_mask
        size += entry.size
    if node.op == Op.FA:
        mask |= fa_bit[class_id]
    return mask, min(size, _SIZE_CAP)


def _assert_achievable_entries(egraph, extraction, extractor=None):
    """Every stored (mask, size) is exactly what its chosen node yields.

    This is the invariant the pre-rewrite extractor violated (stale
    optimistic values made ``num_exact_fas`` overcount the reconstructed
    netlist).  Choice-level *local optimality* against the repaired values
    is deliberately NOT asserted: the greedy propagation picks nodes under
    intermediate values, so better-looking candidates can exist afterwards
    (true of the old extractor too, hidden behind its stale bookkeeping —
    closing that gap is a ROADMAP refinement item).
    """
    extractor = extractor or BoolEExtractor()
    entries = extraction.entries
    fa_bit = {class_id: 1 << position
              for position, class_id in enumerate(extraction.fa_index)}
    for class_id in egraph.class_ids():
        class_id = egraph.find(class_id)
        best = entries.get(class_id)
        if best is None:
            assert all(
                _recompute_candidate(egraph, extractor, fa_bit, entries,
                                     class_id, node) is None
                for node in egraph.enodes(class_id)), \
                f"feasible node but no entry at class {class_id}"
            continue
        recomputed = _recompute_candidate(egraph, extractor, fa_bit,
                                          entries, class_id, best.node)
        assert recomputed == (best.fa_mask, best.size), \
            f"stale entry at class {class_id}"


def _reference_is_consistent(egraph, extractor, reference_entries):
    for class_id, entry in reference_entries.items():
        mask_set = set()
        size = extractor.node_cost.get(entry.node.op, 1)
        feasible = True
        for child in entry.node.children:
            child_entry = reference_entries.get(egraph.find(child))
            if child_entry is None:
                feasible = False
                break
            mask_set |= set(child_entry.fa_classes)
            size += child_entry.size
        if not feasible:
            return False
        if entry.node.op == Op.FA:
            mask_set.add(class_id)
        if (mask_set != set(entry.fa_classes)
                or min(size, _SIZE_CAP) != entry.size):
            return False
    return True


class TestCostEntryBitmask:
    def test_fa_classes_decodes_mask(self):
        node = ENode(Op.VAR, (), "x")
        entry = CostEntry(fa_mask=0b101, size=3, node=node,
                          fa_index=(10, 20, 30))
        assert entry.fa_classes == frozenset({10, 30})
        assert entry.key() == (-2, 3)

    def test_empty_mask(self):
        entry = CostEntry(fa_mask=0, size=7, node=ENode(Op.VAR, (), "x"))
        assert entry.fa_classes == frozenset()
        assert entry.key() == (0, 7)

    def test_wide_mask_beyond_machine_word(self):
        index = tuple(range(100, 200))
        entry = CostEntry(fa_mask=(1 << 99) | (1 << 64) | 1, size=0,
                          node=ENode(Op.VAR, (), "x"), fa_index=index)
        assert entry.fa_classes == frozenset({100, 164, 199})
        assert entry.key() == (-3, 0)

    def test_num_exact_fas_counts_shared_fas_once(self):
        aig = AIG()
        a, b, c = (aig.add_input(name) for name in "abc")
        sum_lit, carry_lit = aig.full_adder(a, b, c)
        aig.add_output(sum_lit, "s")
        aig.add_output(carry_lit, "c")
        result = BoolEPipeline(BoolEOptions(r1_iterations=2,
                                            r2_iterations=2)).run(aig)
        roots = [result.construction.egraph.find(class_id)
                 for class_id in result.construction.output_classes]
        # Both outputs project the same FA tuple: counted once.
        assert result.extraction.num_exact_fas(roots) == 1
        assert result.num_exact_fas == 1

    def test_raw_entry_skips_find(self):
        result = _pipeline_result(2)
        extraction = result.extraction
        egraph = result.construction.egraph
        for class_id in result.construction.output_classes:
            canonical = egraph.find(class_id)
            assert (extraction.raw_entry(canonical)
                    == extraction.entry(class_id))


class TestReferenceEquivalence:
    @pytest.mark.parametrize("width", [2, 3] + WIDE_WIDTHS)
    def test_pipeline_extraction_vs_reference(self, width):
        """The production extractor is a consistent fixpoint; the reference
        agrees wherever it is self-consistent, and never reconstructs more
        exact FAs."""
        result = _pipeline_result(width)
        construction = result.construction
        egraph = construction.egraph
        extractor = BoolEExtractor()
        extraction = result.extraction

        _assert_achievable_entries(egraph, extraction, extractor)
        roots = [egraph.find(class_id)
                 for class_id in construction.output_classes]
        # The old implementation violated this: stale masks made
        # num_exact_fas overcount the materialised blocks (267 vs 161 on
        # the 16-bit CSA).
        assert extraction.num_exact_fas(roots) == len(result.fa_blocks)

        reference = ReferenceBoolEExtractor().extract(egraph)
        assert set(reference) == set(extraction.entries)
        if _reference_is_consistent(egraph, extractor, reference):
            for class_id, entry in extraction.entries.items():
                ref = reference[class_id]
                assert entry.node == ref.node
                assert entry.size == ref.size
                assert entry.fa_classes == ref.fa_classes

        # The reference's choices, read the way reconstruction reads them.
        shim = SimpleNamespace(
            find=egraph.find,
            chosen_node=lambda class_id: (reference[class_id].node
                                          if class_id in reference else None))
        ref_aig, ref_blocks = reconstruct_aig(construction, shim)
        # Quality floor: the reference's stale optimism is a scheduling
        # lottery (its materialised count swings with iteration order —
        # docs/performance.md records 7/40/161 vs the rewrite's 8/43/155
        # at widths 4/8/16), so the consistent extractor must stay within
        # 5% of it and usually beats it.
        assert len(result.fa_blocks) * 20 >= len(ref_blocks) * 19
        assert _functionally_equal(result.source, result.extracted_aig)

    def test_tree_extractor_matches_reference(self):
        result = _pipeline_result(3)
        egraph = result.construction.egraph
        new = TreeCostExtractor().extract(egraph)
        reference = reference_tree_extract(egraph)
        assert set(new.choices) == set(reference)
        for class_id, choice in new.choices.items():
            cost, node = reference[class_id]
            assert choice.node == node
            assert abs(choice.cost - cost) < 1e-9


@st.composite
def random_aigs(draw):
    num_inputs = draw(st.integers(min_value=2, max_value=4))
    num_gates = draw(st.integers(min_value=1, max_value=10))
    aig = AIG(name="rand")
    literals = [aig.add_input(f"x{i}") for i in range(num_inputs)]
    for _ in range(num_gates):
        a = literals[draw(st.integers(0, len(literals) - 1))]
        b = literals[draw(st.integers(0, len(literals) - 1))]
        if draw(st.booleans()):
            a = lit_not(a)
        if draw(st.booleans()):
            b = lit_not(b)
        literals.append(aig.and_(a, b))
    aig.add_output(literals[-1], "f")
    return aig


class TestRandomGraphEquivalence:
    @given(random_aigs())
    @settings(max_examples=20, deadline=None)
    def test_boole_extractor_identical_on_fa_free_graphs(self, aig):
        """Without FA nodes the cost system is confluent, so the worklist
        must reproduce the reference entry-for-entry (including on the
        cyclic classes saturation creates)."""
        construction = aig_to_egraph(aig)
        egraph = construction.egraph
        Runner(RunnerLimits(max_iterations=6)).run(egraph, basic_rules())
        extraction = BoolEExtractor().extract(egraph)
        reference = ReferenceBoolEExtractor().extract(egraph)
        assert set(reference) == set(extraction.entries)
        for class_id, entry in extraction.entries.items():
            ref = reference[class_id]
            assert entry.node == ref.node
            assert entry.size == ref.size
            assert entry.fa_mask == 0 and not ref.fa_classes

    @given(random_aigs())
    @settings(max_examples=20, deadline=None)
    def test_tree_extractor_identical(self, aig):
        construction = aig_to_egraph(aig)
        egraph = construction.egraph
        Runner(RunnerLimits(max_iterations=6)).run(egraph, basic_rules())
        new = TreeCostExtractor().extract(egraph)
        reference = reference_tree_extract(egraph)
        assert set(new.choices) == set(reference)
        for class_id, choice in new.choices.items():
            cost, node = reference[class_id]
            assert choice.node == node
            assert abs(choice.cost - cost) < 1e-9


_HASHSEED_SCRIPT = """
import hashlib, json, sys
from repro.core import BoolEOptions, BoolEPipeline
from repro.generators import csa_multiplier
from repro.opt import post_mapping_flow
from repro.store import ArtifactStore

width, store_root = int(sys.argv[1]), sys.argv[2]
mapped = post_mapping_flow(csa_multiplier(width).aig)
options = BoolEOptions(r1_iterations=3, r2_iterations=3)
result = BoolEPipeline(options).run(mapped, store=ArtifactStore(store_root))
assert result.cache_hit, "saturated artifact missing; test setup broken"
assert not result.extraction_cache_hit, "extraction unexpectedly cached"
entries = sorted((class_id, entry.size, sorted(entry.fa_classes),
                  str(entry.node))
                 for class_id, entry in result.extraction.entries.items())
blob = json.dumps([
    result.num_exact_fas,
    [[gate.out_var, gate.fanin0, gate.fanin1]
     for gate in result.extracted_aig.gates],
    list(result.extracted_aig.outputs),
    [[list(block.inputs), block.sum_lit, block.carry_lit]
     for block in result.fa_blocks],
    entries,
])
print(hashlib.sha256(blob.encode()).hexdigest())
"""


def _extraction_digest_subprocess(width, store_root, hash_seed):
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(hash_seed)
    env["PYTHONPATH"] = SRC_DIR + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run(
        [sys.executable, "-c", _HASHSEED_SCRIPT, str(width), str(store_root)],
        env=env, capture_output=True, text=True, timeout=1200)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


class TestHashSeedInvariance:
    """Satellite: the node-level dependency index is insertion-ordered, so
    extraction (entries, reconstructed AIG, FA blocks) is bit-identical
    across hash seeds.  Runs at width 3 always; the ISSUE acceptance widths
    8 and 16 join on the nightly cron."""

    @pytest.mark.parametrize("width", [3] + WIDE_WIDTHS)
    def test_extraction_bit_identical_across_seeds(self, width,
                                                   tmp_path_factory):
        store_root = os.environ.get("REPRO_STORE_DIR")
        if store_root is None:
            store_root = tmp_path_factory.mktemp("extraction-store")
        store = ArtifactStore(store_root)
        pipeline = BoolEPipeline(BoolEOptions(**PIPELINE_OPTIONS),
                                 store=store)
        mapped = _mapped(width)
        cold = pipeline.run(mapped)  # warms the saturated artifact
        ext_key = extraction_cache_key(
            pipeline.cache_key(mapped), pipeline.extractor.node_cost,
            cold.construction.output_classes)
        digests = []
        for seed in (0, 31337):
            # Each subprocess must *recompute* extraction, not load it.
            store.path_for(ext_key).unlink(missing_ok=True)
            digests.append(_extraction_digest_subprocess(width, store_root,
                                                         seed))
        assert digests[0] == digests[1]


class TestExtractionCache:
    OPTIONS = dict(r1_iterations=2, r2_iterations=2)

    def _pipeline(self, store, **overrides):
        return BoolEPipeline(BoolEOptions(**{**self.OPTIONS, **overrides}),
                             store=store)

    def _ext_key(self, pipeline, aig, result):
        return extraction_cache_key(pipeline.cache_key(aig),
                                    pipeline.extractor.node_cost,
                                    result.construction.output_classes)

    def test_second_run_hits_and_skips_propagation(self, tmp_path):
        store = ArtifactStore(tmp_path)
        aig = _mapped(3)
        pipeline = self._pipeline(store)
        cold = pipeline.run(aig)
        assert not cold.extraction_cache_hit
        assert "extraction_cache_store" in cold.timings
        warm = pipeline.run(aig)
        assert warm.cache_hit and warm.extraction_cache_hit
        # Cost propagation + reconstruction were skipped entirely.
        assert "extract" not in warm.timings
        assert "reconstruct" not in warm.timings
        assert "extraction_cache_load" in warm.timings
        assert warm.extracted_aig.gates == cold.extracted_aig.gates
        assert warm.extracted_aig.outputs == cold.extracted_aig.outputs
        assert warm.fa_blocks == cold.fa_blocks
        assert warm.num_exact_fas == cold.num_exact_fas
        # The cached extraction is a live object over the loaded e-graph.
        roots = [warm.construction.egraph.find(class_id)
                 for class_id in warm.construction.output_classes]
        assert (warm.extraction.num_exact_fas(roots)
                == cold.extraction.num_exact_fas(roots))
        for class_id, entry in cold.extraction.entries.items():
            loaded = warm.extraction.entries[class_id]
            assert loaded.node == entry.node
            assert loaded.size == entry.size
            assert loaded.fa_mask == entry.fa_mask
        assert warm.extraction.fa_index == cold.extraction.fa_index

    def test_node_cost_change_misses(self, tmp_path):
        store = ArtifactStore(tmp_path)
        aig = _mapped(3)
        default = self._pipeline(store)
        cold = default.run(aig)
        assert default.run(aig).extraction_cache_hit
        costly = BoolEExtractor()
        costly.node_cost = dict(costly.node_cost)
        costly.node_cost[Op.XOR] = 5
        custom = BoolEPipeline(BoolEOptions(**self.OPTIONS), store=store,
                               extractor=costly)
        other = custom.run(aig)
        assert other.cache_hit            # saturation is shared
        assert not other.extraction_cache_hit
        # ... and the custom-cost artifact is stored under its own key.
        assert custom.run(aig).extraction_cache_hit
        assert (self._ext_key(custom, aig, other)
                != self._ext_key(default, aig, cold))

    def test_roots_change_changes_key(self, tmp_path):
        store = ArtifactStore(tmp_path)
        aig = _mapped(3)
        pipeline = self._pipeline(store)
        result = pipeline.run(aig)
        key = pipeline.cache_key(aig)
        node_cost = pipeline.extractor.node_cost
        roots = list(result.construction.output_classes)
        assert (extraction_cache_key(key, node_cost, roots)
                != extraction_cache_key(key, node_cost, roots[:-1]))
        assert (extraction_cache_key(key, node_cost, roots)
                != extraction_cache_key(key, node_cost,
                                        list(reversed(roots))))

    def test_codec_bump_changes_key(self, tmp_path, monkeypatch):
        store = ArtifactStore(tmp_path)
        aig = _mapped(3)
        pipeline = self._pipeline(store)
        result = pipeline.run(aig)
        key = pipeline.cache_key(aig)
        roots = list(result.construction.output_classes)
        before = extraction_cache_key(key, pipeline.extractor.node_cost,
                                      roots)
        import repro.store.fingerprint as fingerprint

        monkeypatch.setattr(fingerprint, "CODEC_VERSION",
                            fingerprint.CODEC_VERSION + 1)
        after = extraction_cache_key(key, pipeline.extractor.node_cost,
                                     roots)
        assert before != after
        # A bumped build would probe the new key: a miss, then overwrite.
        assert store.contains(before)
        assert not store.contains(after)

    def test_corrupt_extraction_artifact_degrades_and_heals(self, tmp_path):
        store = ArtifactStore(tmp_path)
        aig = _mapped(3)
        pipeline = self._pipeline(store)
        cold = pipeline.run(aig)
        ext_key = self._ext_key(pipeline, aig, cold)
        store.path_for(ext_key).write_bytes(b"corrupted mid-copy")
        healed = pipeline.run(aig)
        assert healed.cache_hit
        assert not healed.extraction_cache_hit
        assert healed.fa_blocks == cold.fa_blocks
        assert healed.extracted_aig.gates == cold.extracted_aig.gates
        warm = pipeline.run(aig)
        assert warm.extraction_cache_hit

    def test_wrong_kind_and_malformed_payload_degrade(self, tmp_path):
        store = ArtifactStore(tmp_path)
        aig = _mapped(3)
        pipeline = self._pipeline(store)
        cold = pipeline.run(aig)
        ext_key = self._ext_key(pipeline, aig, cold)
        # A foreign kind at the extraction key is a miss, not a crash.
        store.put(ext_key, {"egraph": {}}, kind="egraph")
        rerun = pipeline.run(aig)
        assert not rerun.extraction_cache_hit
        assert rerun.fa_blocks == cold.fa_blocks
        # A well-formed snapshot with a garbage payload is also a miss.
        store.put(ext_key, {"nonsense": True}, kind=KIND_EXTRACTION)
        rerun = pipeline.run(aig)
        assert not rerun.extraction_cache_hit
        assert rerun.fa_blocks == cold.fa_blocks
        assert pipeline.run(aig).extraction_cache_hit

    def test_extraction_hit_survives_snapshot_eviction(self, tmp_path):
        """The extraction artifact is keyed on content, not on the snapshot
        file: if the (much larger) snapshot is GC'd the pipeline
        re-saturates but still skips cost propagation."""
        store = ArtifactStore(tmp_path)
        aig = _mapped(3)
        pipeline = self._pipeline(store)
        cold = pipeline.run(aig)
        store.path_for(pipeline.cache_key(aig)).unlink()
        rerun = pipeline.run(aig)
        assert not rerun.cache_hit
        assert rerun.extraction_cache_hit
        assert rerun.fa_blocks == cold.fa_blocks
        assert rerun.extracted_aig.gates == cold.extracted_aig.gates

    def test_wire_round_trip_preserves_fa_blocks(self, tmp_path):
        store = ArtifactStore(tmp_path)
        aig = _mapped(3)
        cold = self._pipeline(store).run(aig)
        warm = self._pipeline(store).run(aig)
        assert warm.extraction_cache_hit
        assert json.dumps([[list(b.inputs), b.sum_lit, b.carry_lit]
                           for b in warm.fa_blocks]) \
            == json.dumps([[list(b.inputs), b.sum_lit, b.carry_lit]
                           for b in cold.fa_blocks])


class TestRefinementRounds:
    """``BoolEExtractor(refine_rounds=N)``: bounded choose→repair passes.

    The refined extraction must stay achievable (values == what the chosen
    DAG materialises), reconstructible and deterministic, never lose FAs
    against the single-pass extractor at the extraction roots, and key its
    cache entries separately so refined and unrefined artifacts cannot
    shadow each other.
    """

    def test_empty_cost_table_costs_every_operator_one(self):
        """``node_cost={}`` is a table, not "use the default": every
        operator then costs 1, leaves included."""
        egraph = _pipeline_result(2).construction.egraph
        default = BoolEExtractor().extract(egraph)
        extractor = BoolEExtractor(node_cost={})
        assert extractor.node_cost == {}
        flat = extractor.extract(egraph)
        assert flat.op_cost == [1] * len(flat.op_cost)
        leaves = [class_id for class_id, entry in flat.entries.items()
                  if entry.node.op == Op.VAR]
        assert leaves
        for class_id in leaves:
            assert flat.entries[class_id].size == 1
            assert default.entries[class_id].size == 0

    def test_negative_rounds_rejected(self):
        with pytest.raises(ValueError):
            BoolEExtractor(refine_rounds=-1)
        with pytest.raises(ValueError):
            BoolEOptions(refine_rounds=-1)   # caught at options level too

    def _saturated(self, width=3):
        result = BoolEPipeline(BoolEOptions(**PIPELINE_OPTIONS)).run(
            _mapped(width))
        return result.construction

    def test_refined_extraction_is_achievable_and_no_worse(self):
        construction = self._saturated()
        roots = construction.output_classes
        single = BoolEExtractor().extract(construction.egraph, roots=roots)
        refined = BoolEExtractor(refine_rounds=3).extract(
            construction.egraph, roots=roots)
        _assert_achievable_entries(construction.egraph, refined)
        assert (refined.num_exact_fas(roots)
                >= single.num_exact_fas(roots))

    def test_refined_pipeline_reconstructs_equivalent_netlist(self):
        options = BoolEOptions(refine_rounds=2, **PIPELINE_OPTIONS)
        result = BoolEPipeline(options).run(_mapped(3))
        assert result.num_exact_fas == len(result.fa_blocks)
        assert _functionally_equal(result.source, result.extracted_aig)

    def test_refinement_deterministic(self):
        construction = self._saturated()
        roots = construction.output_classes
        first = BoolEExtractor(refine_rounds=2).extract(
            construction.egraph, roots=roots)
        second = BoolEExtractor(refine_rounds=2).extract(
            construction.egraph, roots=roots)
        assert sorted((cid, e.size, e.fa_mask, str(e.node))
                      for cid, e in first.entries.items()) \
            == sorted((cid, e.size, e.fa_mask, str(e.node))
                      for cid, e in second.entries.items())

    def test_refine_rounds_key_separation(self, tmp_path):
        """refine_rounds joins the extraction key but not the saturated
        key: a refined run shares the snapshot yet never hits the
        unrefined extraction artifact (or vice versa)."""
        store = ArtifactStore(tmp_path)
        aig = _mapped(3)
        plain_options = BoolEOptions(**PIPELINE_OPTIONS)
        refined_options = BoolEOptions(refine_rounds=2, **PIPELINE_OPTIONS)
        plain = BoolEPipeline(plain_options, store=store)
        refined = BoolEPipeline(refined_options, store=store)
        assert plain.cache_key(aig) == refined.cache_key(aig)

        cold = plain.run(aig)
        assert not cold.cache_hit
        second = refined.run(aig)
        assert second.cache_hit            # shared saturated snapshot
        assert not second.extraction_cache_hit  # but its own extraction key
        assert refined.run(aig).extraction_cache_hit
        assert plain.run(aig).extraction_cache_hit
