"""Phase-graph executor: restore/resume scheduling, kill/resume property.

Unit tests drive :class:`~repro.core.phases.PhaseGraph` with synthetic
phases to pin the executor's scheduling contract (deepest-artifact
restore, checkpoint resume, persistence, checkpoint cleanup, corrupt
artifacts degrading to recomputes).  The integration tests hold the
ISSUE acceptance property end-to-end: a ``BoolEPipeline.run`` hard-killed
mid-R2 resumes from its ``kind="checkpoint"`` artifact and finishes
bit-identical to an uninterrupted run (width 3 in tier-1; the width-16
variant is nightly-gated via ``REPRO_NIGHTLY``).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core import (
    PLAN_COLD,
    PLAN_WARM_BOUNDARY,
    BoolEOptions,
    BoolEPipeline,
    Phase,
    PhaseContext,
    PhaseGraph,
)
from repro.generators import csa_multiplier
from repro.opt import post_mapping_flow
from repro.store import (
    KIND_CHECKPOINT,
    ArtifactStore,
    SnapshotError,
    phase_checkpoint_key,
)
from repro.store.codec import checkpoint_from_wire

SRC_DIR = str(Path(__file__).resolve().parent.parent / "src")

NIGHTLY = os.environ.get("REPRO_NIGHTLY") == "1"


# ----------------------------------------------------------------------
# Synthetic phases for executor unit tests
# ----------------------------------------------------------------------
class RecordingPhase(Phase):
    """A phase that appends its name to a log and sets one state field."""

    kind = "egraph"  # reuse an existing kind; payload shape is ours

    def __init__(self, name, log, *, cacheable=False, requires=()):
        self.name = name
        self.log = log
        self.cacheable = cacheable
        self.requires = tuple(requires)

    def cache_key(self, ctx):
        # Upfront-computable (like the saturated boundary key): the
        # executor may probe it before any prefix phase has run.
        if not self.cacheable:
            return None
        return ("ab" * 16) + format(
            sum(ord(ch) for ch in self.name) & 0xFFFF, "04x")

    def run(self, ctx, resume=None):
        self.log.append(self.name)
        ctx[self.name] = f"computed-{self.name}"

    def to_wire(self, ctx):
        return {"value": ctx[self.name]}

    def from_wire(self, ctx, payload):
        # Cumulative: a boundary artifact covers everything before it.
        for field in self.requires:
            ctx[field] = f"restored-{field}"
        ctx[self.name] = payload["value"]


class TestPhaseGraphExecutor:
    def test_duplicate_names_rejected(self):
        log = []
        with pytest.raises(ValueError):
            PhaseGraph([RecordingPhase("a", log), RecordingPhase("a", log)])

    def test_runs_in_order_without_store(self):
        log = []
        graph = PhaseGraph([RecordingPhase("a", log), RecordingPhase("b", log),
                            RecordingPhase("c", log)])
        ctx = PhaseContext(store=None)
        graph.execute(ctx)
        assert log == ["a", "b", "c"]
        assert ctx["b"] == "computed-b"

    def test_disabled_phase_skipped(self):
        log = []

        class Disabled(RecordingPhase):
            def enabled(self, ctx):
                return False

        graph = PhaseGraph([RecordingPhase("a", log), Disabled("b", log)])
        ctx = PhaseContext()
        graph.execute(ctx)
        assert log == ["a"]
        assert "b" not in ctx

    def test_deepest_artifact_restores_and_skips_prefix(self, tmp_path):
        store = ArtifactStore(tmp_path)
        log = []
        a = RecordingPhase("a", log)
        b = RecordingPhase("b", log, cacheable=True, requires=("a",))
        c = RecordingPhase("c", log)
        graph = PhaseGraph([a, b, c])

        cold = PhaseContext(store=store)
        graph.execute(cold)
        assert log == ["a", "b", "c"]
        assert store.contains(b.cache_key(cold))

        log.clear()
        warm = PhaseContext(store=store)
        walk = graph.execute(warm)
        # a and b are covered by b's boundary artifact; only c runs.
        assert log == ["c"]
        assert warm["a"] == "restored-a"
        assert warm["b"] == "computed-b"
        assert walk.restore_phase == "b"
        assert [(p.classification, p.covered_by) for p in walk.phases] == [
            (PLAN_WARM_BOUNDARY, "b"), (PLAN_WARM_BOUNDARY, "b"),
            (PLAN_COLD, None)]

    def test_corrupt_artifact_degrades_to_recompute(self, tmp_path):
        store = ArtifactStore(tmp_path)
        log = []
        b = RecordingPhase("b", log, cacheable=True)
        graph = PhaseGraph([b])
        cold = PhaseContext(store=store)
        graph.execute(cold)
        store.path_for(b.cache_key(cold)).write_bytes(b"garbage")

        log.clear()
        healed = PhaseContext(store=store)
        walk = graph.execute(healed)
        assert log == ["b"]              # recomputed, not crashed
        assert walk.restore_phase is None
        assert walk.classification_of("b") == PLAN_COLD

        log.clear()
        warm = PhaseContext(store=store)
        walk = graph.execute(warm)
        assert log == []                 # the recompute overwrote it
        assert walk.restore_phase == "b"
        assert walk.classification_of("b") == PLAN_WARM_BOUNDARY


# ----------------------------------------------------------------------
# Pipeline integration: phases, checkpoints, kill/resume
# ----------------------------------------------------------------------
OPTIONS = dict(r1_iterations=3, r2_iterations=3)


def _mapped(width=3):
    return post_mapping_flow(csa_multiplier(width).aig)


def _captured_r2_checkpoint(tmp_path):
    """Run with ``checkpoint_every=1`` and return the mid-R2 checkpoint's
    ``(key, payload, meta)`` as a killed run would leave it behind."""
    aig = _mapped()
    options = BoolEOptions(checkpoint_every=1, **OPTIONS)
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
        BoolEPipeline(options, store=ArtifactStore(tmp_path)).run(aig)
    finally:
        ArtifactStore.put = original_put
    assert checkpoint_key in captured, "no mid-R2 checkpoint was taken"
    return (checkpoint_key,) + captured[checkpoint_key]


class TestPipelinePhases:
    def test_pipeline_reports_six_phases(self):
        assert BoolEPipeline().phases == [
            "construct", "saturate-r1", "saturate-r2", "insert-fa",
            "extract", "reconstruct"]

    def test_checkpoints_written_and_cleared(self, tmp_path):
        """With checkpoint_every set, saturation phases write checkpoint
        artifacts while running and delete them once the phase completes:
        a finished run leaves only the two boundary artifacts."""
        store = ArtifactStore(tmp_path)
        pipeline = BoolEPipeline(
            BoolEOptions(checkpoint_every=1, **OPTIONS), store=store)
        result = pipeline.run(_mapped())
        assert result.resumed_phase is None
        kinds = sorted(entry.kind for entry in store.entries())
        assert kinds == ["extraction", "saturated-pipeline"]

    def test_checkpoint_every_validated(self):
        with pytest.raises(ValueError, match="checkpoint_every"):
            BoolEOptions(checkpoint_every=0)
        BoolEOptions(checkpoint_every=None)   # disabled is fine
        BoolEOptions(checkpoint_every=1)

    def test_checkpoint_cadence_excluded_from_cache_key(self):
        aig = _mapped()
        with_checkpoints = BoolEPipeline(
            BoolEOptions(checkpoint_every=2, **OPTIONS))
        without = BoolEPipeline(BoolEOptions(**OPTIONS))
        assert with_checkpoints.cache_key(aig) == without.cache_key(aig)

    def test_partially_corrupt_artifact_leaves_no_half_restored_state(
            self, tmp_path):
        """A saturated artifact whose e-graph decodes but whose report
        tail is malformed must degrade to a *clean* recompute — not leave
        the already-saturated graph in the context for the fresh phases
        to saturate again."""
        store = ArtifactStore(tmp_path)
        aig = _mapped()
        pipeline = BoolEPipeline(BoolEOptions(**OPTIONS), store=store)
        cold = pipeline.run(aig)
        key = pipeline.cache_key(aig)
        payload = store.get(key)
        payload["r1_report"] = {"bogus": True}   # malformed tail
        store.put(key, payload, kind="saturated-pipeline")
        # A fully warm run never reads the snapshot: make the run need it.
        store.delete(pipeline.plan(aig).extraction_key)

        healed = pipeline.run(aig)
        assert not healed.cache_hit
        assert healed.fa_blocks == cold.fa_blocks
        assert healed.summary()["egraph_nodes"] \
            == cold.summary()["egraph_nodes"]
        assert pipeline.run(aig).cache_hit     # the recompute overwrote it

    def test_resume_from_checkpoint_artifact(self, tmp_path):
        """Seed the store with only a mid-R2 checkpoint (as a killed run
        would leave behind); the next run resumes it — construct and R1
        never re-run — and matches an uninterrupted reference exactly."""
        aig = _mapped()
        options = BoolEOptions(checkpoint_every=1, **OPTIONS)

        reference = BoolEPipeline(BoolEOptions(**OPTIONS)).run(aig)
        checkpoint_key, payload, meta = _captured_r2_checkpoint(tmp_path)

        # Fresh store holding only the checkpoint — the killed-run state.
        resume_store = ArtifactStore(tmp_path / "killed")
        resume_store.put(checkpoint_key, payload, kind=KIND_CHECKPOINT,
                         meta=meta)

        resumed = BoolEPipeline(options, store=resume_store).run(aig)
        assert resumed.resumed_phase == "saturate-r2"
        assert resumed.r2_report.resumed_at == meta["iteration"]
        assert "construct" not in resumed.timings
        assert "r1" not in resumed.timings
        assert resumed.fa_blocks == reference.fa_blocks
        assert resumed.extracted_aig.gates == reference.extracted_aig.gates
        assert (resumed.summary()["egraph_nodes"]
                == reference.summary()["egraph_nodes"])
        # The completed phase cleared its checkpoint; the boundary
        # artifacts are in place for the next run to hit.
        assert not resume_store.contains(checkpoint_key)
        warm = BoolEPipeline(options, store=resume_store).run(aig)
        assert warm.cache_hit and warm.extraction_cache_hit


class TestMalformedCheckpoint:
    @staticmethod
    def _assert_recomputes(tmp_path, damage):
        """Leave behind a mid-R2 checkpoint whose runner state ``damage``
        edited in place: the next run must recompute from scratch to the
        uninterrupted answer instead of resuming or crashing."""
        aig = _mapped()
        options = BoolEOptions(checkpoint_every=1, **OPTIONS)
        reference = BoolEPipeline(BoolEOptions(**OPTIONS)).run(aig)
        key, payload, meta = _captured_r2_checkpoint(tmp_path / "capture")
        payload = json.loads(json.dumps(payload))
        damage(payload["runner"])
        store = ArtifactStore(tmp_path / "killed")
        store.put(key, payload, kind=KIND_CHECKPOINT, meta=meta)

        result = BoolEPipeline(options, store=store).run(aig)
        assert result.resumed_phase is None
        assert "construct" in result.timings
        assert result.fa_blocks == reference.fa_blocks
        assert result.extracted_aig.gates == reference.extracted_aig.gates

    @pytest.mark.parametrize("field, value", [
        ("dirty", [10 ** 9]),
        ("dirty", "abc"),
        ("iteration", "3"),
    ])
    def test_malformed_runner_state_degrades_to_recompute(
            self, tmp_path, field, value):
        """A checkpoint whose runner state is well-formed JSON but not a
        valid resume point is a miss: the run recomputes from scratch
        instead of crashing mid-saturation."""
        def damage(runner):
            runner[field] = value

        self._assert_recomputes(tmp_path, damage)

    @pytest.mark.parametrize("section, field, value", [
        ("limits", "time_limit", float("nan")),
        ("limits", "time_limit", -5),
        ("limits", "time_limit", float("inf")),
        ("limits", "max_nodes", 0),
        ("limits", "max_classes", 0),
        (None, "elapsed", float("nan")),
        (None, "elapsed", -1e9),
    ])
    def test_unsafe_limits_degrade_to_recompute(
            self, tmp_path, section, field, value):
        """Limits outside ``BoolEOptions``' ranges (no wall-clock bound,
        no room for a node) and a non-finite or negative elapsed time
        are rejected, so the phase re-runs instead of resuming."""
        def damage(runner):
            (runner if section is None else runner[section])[field] = value
            with pytest.raises(SnapshotError):
                checkpoint_from_wire(runner)

        self._assert_recomputes(tmp_path, damage)

    # The wire fields of the removed flat per-rule cap and of the old
    # configurable growth factors, assembled from parts so the removed
    # names appear nowhere else in the tree.
    @pytest.mark.parametrize("section, old_fields", [
        ("limits", {"_".join(("max", "matches", "per", "rule")): None}),
        ("scheduler", {"_".join(("budget", "growth")): 2,
                       "_".join(("ban", "growth")): 2}),
    ])
    def test_old_policy_fields_degrade_to_recompute(
            self, tmp_path, section, old_fields):
        """A checkpoint in the shape written before back-off became the
        only saturation policy does not decode, and the phase re-runs
        fresh instead of resuming it."""
        def damage(runner):
            runner[section].update(old_fields)
            with pytest.raises(SnapshotError):
                checkpoint_from_wire(runner)

        self._assert_recomputes(tmp_path, damage)


_KILL_SCRIPT = """
import os, sys
from repro.core import BoolEOptions, BoolEPipeline
from repro.generators import csa_multiplier
from repro.opt import post_mapping_flow
from repro.store import KIND_CHECKPOINT, ArtifactStore

root, width = sys.argv[1], int(sys.argv[2])
aig = post_mapping_flow(csa_multiplier(width).aig)
options = BoolEOptions(r1_iterations=3, r2_iterations=3, checkpoint_every=1)

original_put = ArtifactStore.put
def put(self, key, payload, *, kind, meta=None):
    path = original_put(self, key, payload, kind=kind, meta=meta)
    if (kind == KIND_CHECKPOINT and meta
            and meta.get("phase") == "saturate-r2"):
        os._exit(9)   # hard kill, mid-R2, checkpoint durable on disk
    return path
ArtifactStore.put = put
BoolEPipeline(options, store=ArtifactStore(root)).run(aig)
raise SystemExit("run finished before a mid-R2 checkpoint; widen the budget")
"""

_FINISH_SCRIPT = """
import json, sys
from repro.core import BoolEOptions, BoolEPipeline
from repro.generators import csa_multiplier
from repro.opt import post_mapping_flow

root, width = sys.argv[1], int(sys.argv[2])
aig = post_mapping_flow(csa_multiplier(width).aig)
options = BoolEOptions(r1_iterations=3, r2_iterations=3, checkpoint_every=1)
result = BoolEPipeline(options, store=root).run(aig)
summary = {k: v for k, v in result.summary().items() if k != "runtime"}
print(json.dumps({
    "resumed_phase": result.resumed_phase,
    "resumed_at": result.r2_report.resumed_at,
    "summary": summary,
    "fa_blocks": [[list(b.inputs), b.sum_lit, b.carry_lit]
                  for b in result.fa_blocks],
}, sort_keys=True))
"""


def _phase_subprocess(script: str, root: str, width: int,
                      hash_seed: int, expect_exit=0) -> str:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(hash_seed)
    env["PYTHONPATH"] = SRC_DIR + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run(
        [sys.executable, "-c", script, root, str(width)],
        env=env, capture_output=True, text=True, timeout=1800)
    assert proc.returncode == expect_exit, proc.stderr
    return proc.stdout.strip()


class TestKillAndResume:
    """The acceptance property: kill mid-R2, resume, finish identically."""

    def _run(self, tmp_path, width: int):
        killed_root = str(tmp_path / "killed-store")
        _phase_subprocess(_KILL_SCRIPT, killed_root, width,
                          hash_seed=31337, expect_exit=9)
        killed = ArtifactStore(killed_root)
        kinds = sorted(entry.kind for entry in killed.entries())
        assert "checkpoint" in kinds, "the kill left no checkpoint behind"

        resumed = json.loads(_phase_subprocess(
            _FINISH_SCRIPT, killed_root, width, hash_seed=98765))
        reference = json.loads(_phase_subprocess(
            _FINISH_SCRIPT, str(tmp_path / "fresh-store"), width,
            hash_seed=0))

        assert resumed["resumed_phase"] == "saturate-r2"
        assert resumed["resumed_at"] is not None
        assert reference["resumed_phase"] is None
        assert resumed["summary"] == reference["summary"]
        assert resumed["fa_blocks"] == reference["fa_blocks"]

    def test_killed_mid_r2_resumes_bit_identical(self, tmp_path):
        self._run(tmp_path, width=3)

    @pytest.mark.skipif(not NIGHTLY,
                        reason="width-16 kill/resume runs on nightly "
                               "(REPRO_NIGHTLY=1)")
    def test_killed_mid_r2_resumes_bit_identical_width16(self, tmp_path):
        self._run(tmp_path, width=16)
