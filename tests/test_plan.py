"""Hash-propagated planner: plan-vs-execution agreement, batch folding.

The planner (``BoolEPipeline.plan`` / ``BatchPipeline.plan``) is the
executor's own restore/resume/run walk run dry: no phase body runs, no
e-graph is built (construction ids come from the dry construction) and
the store is only probed read-only.  These tests pin that contract, and
the walk ``execute`` returns against the plan, per store state (empty /
snapshot-only / two-level / extraction-only / checkpoint-only /
stale-checkpoint), pin the batch layer's dedup and prefix-sharing
semantics (a shared saturated prefix is saturated exactly once per
sweep), and hold the whole thing as a randomized subprocess property
across ``PYTHONHASHSEED`` values.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core import (
    PLAN_COLD,
    PLAN_SKIPPED,
    PLAN_WARM_BOUNDARY,
    PLAN_WARM_CHECKPOINT,
    BatchJob,
    BatchPipeline,
    BoolEOptions,
    BoolEPipeline,
    aig_to_egraph,
    planned_construction,
)
from repro.generators import (
    booth_multiplier,
    csa_multiplier,
    ripple_carry_adder,
)
from repro.opt import post_mapping_flow
from repro.store import KIND_CHECKPOINT, ArtifactStore, phase_checkpoint_key

SRC_DIR = str(Path(__file__).resolve().parent.parent / "src")

OPTIONS = dict(r1_iterations=2, r2_iterations=2, count_npn=False)


def _mapped(width=3):
    return post_mapping_flow(csa_multiplier(width).aig)


def _store_snapshot(root):
    """Byte- and mtime-exact fingerprint of every file under ``root``.

    ``ArtifactStore.get`` bumps object mtimes (LRU bookkeeping), so a
    planning pass that accidentally *got* instead of *probed* shows up
    here even though the bytes are unchanged.
    """
    snapshot = {}
    for path in sorted(Path(root).rglob("*")):
        if path.is_file():
            stat = path.stat()
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            snapshot[str(path)] = (stat.st_mtime_ns, digest)
    return snapshot


def _capture_checkpoint(options, aig, store):
    """Run ``aig`` with checkpointing, returning the first mid-R2
    checkpoint ``(key, payload, meta)`` the run wrote (the completed run
    deletes it from the store again)."""
    checkpoint_key = phase_checkpoint_key(
        BoolEPipeline(options).cache_key(aig), "saturate-r2")
    captured = {}
    original_put = ArtifactStore.put

    def capturing_put(self, key, payload, *, kind, meta=None):
        path = original_put(self, key, payload, kind=kind, meta=meta)
        if kind == KIND_CHECKPOINT and key not in captured:
            captured[key] = (payload, meta)
        return path

    ArtifactStore.put = capturing_put
    try:
        BoolEPipeline(options, store=store).run(aig)
    finally:
        ArtifactStore.put = original_put
    assert checkpoint_key in captured, "no mid-R2 checkpoint was taken"
    payload, meta = captured[checkpoint_key]
    return checkpoint_key, payload, meta


class TestPlannedConstruction:
    @pytest.mark.parametrize("make", [
        lambda: ripple_carry_adder(3)[0],
        lambda: ripple_carry_adder(6)[0],
        lambda: csa_multiplier(2).aig,
        lambda: post_mapping_flow(csa_multiplier(3).aig),
        lambda: post_mapping_flow(booth_multiplier(2).aig),
    ])
    def test_matches_real_construction(self, make):
        """The dry construction predicts the real construction's output
        class ids (and class count) exactly — construction performs no
        unions, so hashcons + sequential ids is the whole story."""
        aig = make()
        real = aig_to_egraph(aig)
        planned = planned_construction(aig)
        assert planned.output_classes == real.output_classes
        assert planned.num_classes == real.egraph.num_classes


class TestPipelinePlan:
    def test_without_store_all_cold_but_keys_computed(self):
        aig = _mapped()
        pipeline = BoolEPipeline(BoolEOptions(**OPTIONS))
        plan = pipeline.plan(aig)
        assert [p.classification for p in plan.phases] == [PLAN_COLD] * 6
        assert plan.base_key == pipeline.cache_key(aig)
        assert plan.extraction_key == pipeline.extraction_key(
            plan.base_key, aig_to_egraph(aig).output_classes)
        assert plan.final_key == plan.extraction_key
        assert not plan.predicts_cache_hit
        assert plan.planned_writes == []  # nowhere to write

    def test_empty_store_then_warm_cycle(self, tmp_path):
        aig = _mapped()
        pipeline = BoolEPipeline(BoolEOptions(**OPTIONS), store=tmp_path)
        cold = pipeline.plan(aig)
        assert cold.cold_phases == ["construct", "saturate-r1",
                                    "saturate-r2", "insert-fa", "extract",
                                    "reconstruct"]
        assert cold.planned_writes == [cold.base_key, cold.extraction_key]
        result = pipeline.run(aig)
        assert not result.cache_hit

        warm = pipeline.plan(aig)
        assert warm.is_fully_warm
        assert warm.predicts_cache_hit
        assert warm.predicts_extraction_cache_hit
        assert warm.restore_phase == "reconstruct"
        # The self-contained extraction artifact stands in for phases 1–4.
        assert warm.phase("insert-fa").covered_by == "reconstruct"
        assert warm.phase("extract").covered_by == "reconstruct"
        rerun = pipeline.run(aig)
        assert rerun.cache_hit and rerun.extraction_cache_hit

    def test_snapshot_only_predicts_extraction_cold(self, tmp_path):
        aig = _mapped()
        pipeline = BoolEPipeline(BoolEOptions(**OPTIONS), store=tmp_path)
        pipeline.run(aig)
        store = ArtifactStore(tmp_path)
        full = pipeline.plan(aig)
        store.delete(full.extraction_key)

        plan = pipeline.plan(aig)
        assert plan.predicts_cache_hit
        assert not plan.predicts_extraction_cache_hit
        assert plan.restore_phase == "insert-fa"
        assert plan.classification_of("reconstruct") == PLAN_COLD
        assert plan.planned_writes == [plan.extraction_key]
        result = pipeline.run(aig)
        assert result.cache_hit and not result.extraction_cache_hit

    def test_extraction_only_predicts_resaturation(self, tmp_path):
        """Snapshot GC'd but extraction artifact alive: saturation re-runs
        cold, extraction restores — plan must predict the split."""
        aig = _mapped()
        pipeline = BoolEPipeline(BoolEOptions(**OPTIONS), store=tmp_path)
        pipeline.run(aig)
        store = ArtifactStore(tmp_path)
        store.delete(pipeline.plan(aig).base_key)

        plan = pipeline.plan(aig)
        assert not plan.predicts_cache_hit
        assert plan.predicts_extraction_cache_hit
        assert plan.classification_of("insert-fa") == PLAN_COLD
        assert plan.classification_of("reconstruct") == PLAN_WARM_BOUNDARY
        result = pipeline.run(aig)
        assert not result.cache_hit
        assert result.extraction_cache_hit

    def test_checkpoint_only_predicts_resume(self, tmp_path):
        aig = _mapped()
        options = BoolEOptions(checkpoint_every=1, **OPTIONS)
        key, payload, meta = _capture_checkpoint(
            options, aig, ArtifactStore(tmp_path / "scratch"))
        store = ArtifactStore(tmp_path / "killed")
        store.put(key, payload, kind=KIND_CHECKPOINT, meta=meta)

        pipeline = BoolEPipeline(options, store=store)
        plan = pipeline.plan(aig)
        assert plan.resume_phase == "saturate-r2"
        assert plan.classification_of("construct") == PLAN_WARM_CHECKPOINT
        assert plan.phase("construct").covered_by == "saturate-r2"
        assert plan.classification_of("saturate-r2") == PLAN_WARM_CHECKPOINT
        assert plan.classification_of("insert-fa") == PLAN_COLD
        assert not plan.predicts_cache_hit
        assert key in plan.planned_deletes

        result = pipeline.run(aig)
        assert result.resumed_phase == "saturate-r2"
        assert not result.cache_hit
        assert not store.contains(key)  # the planned delete happened

    def test_stale_checkpoint_superseded_by_boundary(self, tmp_path):
        """Boundary artifacts *and* an orphaned checkpoint: execution
        restores the deepest boundary and clears the checkpoint; the plan
        predicts both (no resume!)."""
        aig = _mapped()
        options = BoolEOptions(checkpoint_every=1, **OPTIONS)
        store = ArtifactStore(tmp_path)
        key, payload, meta = _capture_checkpoint(options, aig, store)
        store.put(key, payload, kind=KIND_CHECKPOINT, meta=meta)

        pipeline = BoolEPipeline(options, store=store)
        plan = pipeline.plan(aig)
        assert plan.is_fully_warm
        assert plan.resume_phase is None
        assert plan.restore_phase == "reconstruct"
        assert key in plan.planned_deletes

        result = pipeline.run(aig)
        assert result.cache_hit and result.extraction_cache_hit
        assert result.resumed_phase is None
        assert not store.contains(key)

    def test_extract_disabled_phases_skipped(self, tmp_path):
        aig = _mapped()
        options = BoolEOptions(extract=False, **OPTIONS)
        pipeline = BoolEPipeline(options, store=tmp_path)
        plan = pipeline.plan(aig)
        assert plan.classification_of("extract") == PLAN_SKIPPED
        assert plan.classification_of("reconstruct") == PLAN_SKIPPED
        assert plan.extraction_key is None
        assert plan.final_key == plan.base_key

    def test_plan_constructs_no_egraph(self, tmp_path, monkeypatch):
        """The acceptance property: planning executes no phase and builds
        no e-graph — poison both entry points and plan cold, warm and a
        whole batch."""
        aig = _mapped()
        pipeline = BoolEPipeline(BoolEOptions(**OPTIONS), store=tmp_path)
        pipeline.run(aig)  # warm the store first (real e-graphs allowed)

        def forbidden(*_args, **_kwargs):
            raise AssertionError("planning touched an e-graph")

        monkeypatch.setattr("repro.egraph.egraph.EGraph.__init__", forbidden)
        monkeypatch.setattr("repro.core.construct.EGraph", forbidden)
        monkeypatch.setattr("repro.core.phases.aig_to_egraph", forbidden)

        warm = pipeline.plan(aig)
        assert warm.is_fully_warm
        cold = BoolEPipeline(BoolEOptions(r1_iterations=3, r2_iterations=2,
                                          count_npn=False),
                             store=tmp_path).plan(aig)
        assert not cold.predicts_cache_hit
        batch_plan = BatchPipeline(store=str(tmp_path)).plan(
            [BatchJob("warm", aig, options=BoolEOptions(**OPTIONS)),
             BatchJob("cold", _mapped(2), options=BoolEOptions(**OPTIONS))])
        assert batch_plan.item("warm").kind == "inline"
        assert batch_plan.item("cold").kind == "pool"

    def test_plan_mutates_nothing(self, tmp_path):
        """Planning leaves the store byte- and mtime-identical — it must
        never call ``get`` (mtime bump) or write/delete anything."""
        aig = _mapped()
        options = BoolEOptions(checkpoint_every=1, **OPTIONS)
        store = ArtifactStore(tmp_path)
        key, payload, meta = _capture_checkpoint(options, aig, store)
        store.put(key, payload, kind=KIND_CHECKPOINT, meta=meta)

        before = _store_snapshot(tmp_path)
        pipeline = BoolEPipeline(options, store=store)
        pipeline.plan(aig)
        pipeline.plan(_mapped(2))  # a cold circuit probes and misses
        BatchPipeline(store=str(tmp_path)).plan(
            [BatchJob("a", aig, options=options),
             BatchJob("b", _mapped(2), options=options)])
        assert _store_snapshot(tmp_path) == before


STORE_STATES = ["empty", "snapshot-only", "extraction-only", "two-level",
                "checkpoint-only", "stale-checkpoint"]


def _seed(state, aig, store):
    """Bring ``store`` into one of :data:`STORE_STATES` for ``aig``."""
    if state == "empty":
        return
    options = BoolEOptions(checkpoint_every=1, **OPTIONS)
    key, payload, meta = _capture_checkpoint(options, aig, store)
    keys = BoolEPipeline(options).plan(aig)
    if state in ("snapshot-only", "checkpoint-only"):
        store.delete(keys.extraction_key)
    if state in ("extraction-only", "checkpoint-only"):
        store.delete(keys.base_key)
    if state in ("checkpoint-only", "stale-checkpoint"):
        store.put(key, payload, kind=KIND_CHECKPOINT, meta=meta)


def _run_walk(pipeline, aig, monkeypatch):
    """Run ``aig``; return the result and the plan ``execute`` returned."""
    graph = pipeline._graph
    execute = graph.execute
    walks = []

    def spy(ctx):
        walks.append(execute(ctx))
        return walks[-1]

    monkeypatch.setattr(graph, "execute", spy)
    result = pipeline.run(aig)
    (walk,) = walks
    return result, walk


class TestWalkIsThePlan:
    @pytest.mark.parametrize("extract", [True, False])
    @pytest.mark.parametrize("state", STORE_STATES)
    def test_execute_returns_the_plan(self, tmp_path, monkeypatch, state,
                                      extract):
        """``PhaseGraph.execute`` returns the walk it took, and on an
        intact store that walk is exactly what ``plan`` predicted."""
        aig = ripple_carry_adder(4)[0]
        store = ArtifactStore(tmp_path)
        _seed(state, aig, store)
        pipeline = BoolEPipeline(
            BoolEOptions(checkpoint_every=1, extract=extract, **OPTIONS),
            store=store)
        plan = pipeline.plan(aig)
        _, walk = _run_walk(pipeline, aig, monkeypatch)
        assert walk.to_json() == plan.to_json()

    def test_corrupt_artifact_walks_cold(self, tmp_path, monkeypatch):
        """The plan only probes, so it trusts a corrupt snapshot; the walk
        decodes it, degrades to a cold run and says so."""
        aig = ripple_carry_adder(4)[0]
        store = ArtifactStore(tmp_path)
        _seed("snapshot-only", aig, store)
        pipeline = BoolEPipeline(BoolEOptions(**OPTIONS), store=store)
        plan = pipeline.plan(aig)
        store.path_for(plan.base_key).write_bytes(b"garbage")
        assert plan.classification_of("insert-fa") == PLAN_WARM_BOUNDARY
        assert plan.restore_phase == "insert-fa"

        result, walk = _run_walk(pipeline, aig, monkeypatch)
        assert walk.classification_of("insert-fa") == PLAN_COLD
        assert walk.restore_phase is None
        assert walk.cold_phases == pipeline.phases
        assert walk.planned_writes == [plan.base_key, plan.extraction_key]
        assert not result.cache_hit


class TestBatchPlanFolding:
    def test_non_semantic_twins_dedup_to_one_execution(self, tmp_path,
                                                       monkeypatch):
        """Two jobs identical up to the non-semantic option fields
        (checkpoint cadence here) collapse onto one final key: exactly one
        executes — even on an empty store — and both items carry the
        shared result."""
        aig = ripple_carry_adder(3)[0]
        twin_a = BoolEOptions(**OPTIONS)
        twin_b = BoolEOptions(checkpoint_every=50, **OPTIONS)
        jobs = [BatchJob("a", aig, options=twin_a),
                BatchJob("b", aig, options=twin_b)]

        constructions = []
        real = aig_to_egraph

        def counting(aig_in):
            constructions.append(aig_in.name)
            return real(aig_in)

        monkeypatch.setattr("repro.core.phases.aig_to_egraph", counting)
        batch = BatchPipeline(executor="serial", store=str(tmp_path))
        plan = batch.plan(jobs)
        assert plan.item("b").leader == "a"
        assert plan.item("b").schedule == "duplicate:a"
        assert plan.num_deduped == 1

        report = batch.run(jobs)
        assert len(constructions) == 1  # one execution total
        assert report.num_failed == 0
        assert report.num_deduped == 1
        item_a, item_b = report.item("a"), report.item("b")
        assert item_b.deduped_from == "a"
        assert item_b.result is item_a.result  # shared, by contract
        assert item_b.summary == item_a.summary

    def test_dedup_without_store(self):
        """Final keys exist even store-less, so identical jobs dedup."""
        aig = ripple_carry_adder(3)[0]
        jobs = [BatchJob("a", aig, options=BoolEOptions(**OPTIONS)),
                BatchJob("b", aig, options=BoolEOptions(checkpoint_every=9,
                                                        **OPTIONS))]
        report = BatchPipeline(executor="serial").run(jobs)
        assert report.num_failed == 0
        assert report.item("b").deduped_from == "a"

    def test_shared_prefix_saturates_exactly_once(self, tmp_path,
                                                  monkeypatch):
        """The acceptance property: same saturation, three refine_rounds
        values — the prefix is saturated once, the dependents restore it
        and do extraction-only work."""
        aig = _mapped()
        jobs = [BatchJob(f"rr{refine}", aig,
                         options=BoolEOptions(refine_rounds=refine,
                                              **OPTIONS))
                for refine in (0, 1, 2)]

        constructions = []
        real = aig_to_egraph

        def counting(aig_in):
            constructions.append(aig_in.name)
            return real(aig_in)

        monkeypatch.setattr("repro.core.phases.aig_to_egraph", counting)
        batch = BatchPipeline(executor="serial", store=str(tmp_path))
        plan = batch.plan(jobs)
        assert plan.item("rr0").schedule == "pool"
        assert plan.item("rr1").schedule == "after:rr0"
        assert plan.item("rr2").schedule == "after:rr0"
        assert plan.num_saturations == 1
        assert plan.num_prefix_shared == 2

        report = batch.run(jobs)
        assert report.num_failed == 0
        assert len(constructions) == 1  # the prefix saturated once
        assert not report.item("rr0").cached
        for name in ("rr1", "rr2"):
            item = report.item(name)
            assert item.cached  # saturation served from the leader's write
            assert item.prefix_shared
        assert report.num_prefix_shared == 2
        store = ArtifactStore(tmp_path)
        kinds = sorted(entry.kind for entry in store.entries())
        assert kinds == ["extraction", "extraction", "extraction",
                        "saturated-pipeline"]

    def test_shared_prefix_on_process_backend(self, tmp_path):
        """Dependency gating holds under the process pool: dependents only
        dispatch after their leader persisted the prefix, so they report
        cache hits; results match a serial reference bit-exactly."""
        aig = _mapped()
        jobs = [BatchJob(f"rr{refine}", aig,
                         options=BoolEOptions(refine_rounds=refine,
                                              **OPTIONS))
                for refine in (0, 1)]
        report = BatchPipeline(executor="process", max_workers=2,
                               store=str(tmp_path / "proc")).run(jobs)
        assert report.num_failed == 0
        assert report.item("rr1").cached
        assert report.item("rr1").prefix_shared
        serial = BatchPipeline(executor="serial",
                               store=str(tmp_path / "serial")).run(jobs)
        assert (report.deterministic_aggregate()
                == serial.deterministic_aggregate())

    def test_overlay_warm_twin_waits_for_its_leader(self, tmp_path):
        """A saturation-only twin of an extracting leader is fully warm
        only through the overlay (the leader has not written the prefix
        yet), so it is scheduled behind the leader, not inline — and both
        backends saturate the prefix once and agree on ``cached``."""
        aig = _mapped()
        jobs = [BatchJob("full", aig, options=BoolEOptions(**OPTIONS)),
                BatchJob("sat-only", aig,
                         options=BoolEOptions(extract=False, **OPTIONS))]
        plan = BatchPipeline(store=str(tmp_path / "plan")).plan(jobs)
        assert plan.item("full").schedule == "pool"
        assert plan.item("sat-only").schedule == "after:full"
        assert plan.num_saturations == 1

        for executor in ("serial", "process"):
            report = BatchPipeline(executor=executor, max_workers=2,
                                   store=str(tmp_path / executor)).run(jobs)
            assert report.num_failed == 0, executor
            assert not report.item("full").cached, executor
            assert report.item("sat-only").cached, executor
            assert report.item("sat-only").prefix_shared, executor
            kinds = sorted(entry.kind for entry in
                           ArtifactStore(tmp_path / executor).entries())
            assert kinds == ["extraction", "saturated-pipeline"], executor

    def test_plan_failure_stays_isolated(self, tmp_path):
        """A job whose options break pipeline construction gets an error
        slot in the plan, is scheduled cold, and fails alone at run time
        with the same error class as before."""
        bad = BoolEOptions()
        bad.refine_rounds = -1
        jobs = [BatchJob("bad-options", ripple_carry_adder(3)[0],
                         options=bad),
                BatchJob("rca3", ripple_carry_adder(3)[0],
                         options=BoolEOptions(**OPTIONS))]
        batch = BatchPipeline(executor="serial", store=str(tmp_path))
        plan = batch.plan(jobs)
        assert plan.item("bad-options").schedule == "error"
        assert "refine_rounds" in plan.item("bad-options").error
        report = batch.run(jobs)
        assert report.num_failed == 1
        (name, error), = report.failures()
        assert name == "bad-options" and "refine_rounds" in error
        assert report.item("rca3").ok

    def test_plan_json_round_trips(self, tmp_path):
        aig = ripple_carry_adder(3)[0]
        plan = BatchPipeline(store=str(tmp_path)).plan(
            [BatchJob("a", aig, options=BoolEOptions(**OPTIONS))])
        payload = json.loads(json.dumps(plan.to_json()))
        assert payload["summary"]["jobs"] == 1
        assert payload["jobs"][0]["schedule"] == "pool"
        phases = payload["jobs"][0]["plan"]["phases"]
        assert [p["name"] for p in phases] == [
            "construct", "saturate-r1", "saturate-r2", "insert-fa",
            "extract", "reconstruct"]


_PROPERTY_SCRIPT = """
import hashlib, json, random, sys
from pathlib import Path

from repro.core import BatchJob, BatchPipeline, BoolEOptions, BoolEPipeline
from repro.generators import csa_multiplier, ripple_carry_adder
from repro.opt import post_mapping_flow
from repro.store import KIND_CHECKPOINT, ArtifactStore, phase_checkpoint_key

root = Path(sys.argv[1])
rng = random.Random(int(sys.argv[2]))

def options(**kw):
    base = dict(r1_iterations=2, r2_iterations=2, count_npn=False)
    base.update(kw)
    return BoolEOptions(**base)

circuits = {
    "rca3": ripple_carry_adder(3)[0],
    "rca4": ripple_carry_adder(4)[0],
    "csa2": post_mapping_flow(csa_multiplier(2).aig),
}
store_root = root / "store"
store = ArtifactStore(store_root)

# Seed a randomized store state per circuit.
states = {}
for name in sorted(circuits):
    aig = circuits[name]
    state = rng.choice(["empty", "snapshot-only", "two-level",
                        "checkpoint-only", "stale-checkpoint"])
    states[name] = state
    if state == "empty":
        continue
    opts = options(checkpoint_every=1)
    keys = BoolEPipeline(opts, store=store).plan(aig)
    checkpoint_key = phase_checkpoint_key(keys.base_key, "saturate-r2")
    captured = {}
    original_put = ArtifactStore.put
    def capturing_put(self, key, payload, *, kind, meta=None,
                      _captured=captured, _original=original_put):
        path = _original(self, key, payload, kind=kind, meta=meta)
        if kind == KIND_CHECKPOINT and key not in _captured:
            _captured[key] = (payload, meta)
        return path
    ArtifactStore.put = capturing_put
    try:
        BoolEPipeline(opts, store=store).run(aig)
    finally:
        ArtifactStore.put = original_put
    if state == "snapshot-only":
        store.delete(keys.extraction_key)
    elif state == "checkpoint-only":
        store.delete(keys.base_key)
        store.delete(keys.extraction_key)
        payload, meta = captured[checkpoint_key]
        store.put(checkpoint_key, payload, kind=KIND_CHECKPOINT, meta=meta)
    elif state == "stale-checkpoint":
        payload, meta = captured[checkpoint_key]
        store.put(checkpoint_key, payload, kind=KIND_CHECKPOINT, meta=meta)

# A randomized sweep over circuits x non-semantic/extraction options.
jobs = []
for index in range(rng.randint(6, 9)):
    name = rng.choice(sorted(circuits))
    jobs.append(BatchJob(f"job{index}-{name}", circuits[name],
                         options=options(
                             refine_rounds=rng.choice([0, 1]),
                             extract=rng.random() < 0.9,
                             checkpoint_every=rng.choice([None, 50]))))

def snapshot():
    result = {}
    for path in sorted(store_root.rglob("*")):
        if path.is_file():
            stat = path.stat()
            result[str(path)] = (
                stat.st_mtime_ns,
                hashlib.sha256(path.read_bytes()).hexdigest())
    return result

batch = BatchPipeline(executor="serial", store=str(store_root))
before = snapshot()
plan = batch.plan(jobs)
assert snapshot() == before, "planning mutated the store"

report = batch.run(jobs)
lines = []
for item_plan, item in zip(plan.items, report.items):
    assert item.ok, (item.name, item.error)
    if item_plan.kind == "duplicate":
        canonical = report.item(item_plan.leader)
        assert item.deduped_from == item_plan.leader, item.name
        assert item.summary == canonical.summary, item.name
        lines.append({"name": item.name,
                      "schedule": item_plan.schedule})
        continue
    predicted = item_plan.plan
    assert item.cached == predicted.predicts_cache_hit, item.name
    assert (item.extraction_cached
            == predicted.predicts_extraction_cache_hit), item.name
    assert item.resumed_phase == predicted.resume_phase, item.name
    lines.append({"name": item.name,
                  "schedule": item_plan.schedule,
                  "final": predicted.final_key,
                  "cached": item.cached,
                  "extraction_cached": item.extraction_cached,
                  "resumed": item.resumed_phase})
print(json.dumps({"states": states, "items": lines,
                  "aggregate": report.deterministic_aggregate()},
                 sort_keys=True))
"""


def _property_subprocess(tmp_path, rng_seed, hash_seed):
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(hash_seed)
    env["PYTHONPATH"] = SRC_DIR + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    workdir = tmp_path / f"rng{rng_seed}-hash{hash_seed}"
    workdir.mkdir()
    proc = subprocess.run(
        [sys.executable, "-c", _PROPERTY_SCRIPT, str(workdir),
         str(rng_seed)],
        env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


class TestPlanExecutionAgreementProperty:
    def test_randomized_sweeps_across_hash_seeds(self, tmp_path):
        """For randomized sweeps over circuits × options × store states,
        every plan classification matches execution's observed behavior,
        planning mutates nothing (asserted in-subprocess), and the whole
        plan+run transcript is identical across ``PYTHONHASHSEED``."""
        first = _property_subprocess(tmp_path, rng_seed=7, hash_seed=0)
        second = _property_subprocess(tmp_path, rng_seed=7, hash_seed=31337)
        assert first == second
        payload = json.loads(first)
        assert payload["items"], payload
        # A different random universe, one seed: still self-consistent.
        other = json.loads(_property_subprocess(tmp_path, rng_seed=11,
                                                hash_seed=1))
        assert other["items"], other
