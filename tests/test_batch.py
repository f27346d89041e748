"""Tests for the BatchPipeline driver.

Covers the two executor backends (serial / process), the lightweight-
result contract of the process backend (workers ship reports + counts +
the reconstructed netlist, just not the e-graph), the dependency-gated
drain of the plan (each dependent starts as soon as its own leader
finishes; snapshot-warm, extraction-cold jobs run on the pool),
broken-pool requeue, and the headline determinism property: both
backends produce bit-identical report aggregates for the same job list,
across ``PYTHONHASHSEED`` values (subprocess cases).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core import (
    BatchJob,
    BatchPipeline,
    BatchReport,
    BoolEOptions,
    BoolEPipeline,
)
from repro.generators import csa_multiplier, ripple_carry_adder
from repro.opt import post_mapping_flow
from repro.store import ArtifactStore

SRC_DIR = str(Path(__file__).resolve().parent.parent / "src")

FAST = BoolEOptions(r1_iterations=2, r2_iterations=2, count_npn=False)


def small_jobs():
    return [
        BatchJob("rca3", ripple_carry_adder(3)[0], options=FAST),
        BatchJob("rca4", ripple_carry_adder(4)[0], options=FAST),
        BatchJob("csa2", csa_multiplier(2).aig, options=FAST),
    ]


class TestBatchPipeline:
    def test_batch_matches_serial_results(self):
        report = BatchPipeline(executor="serial").run(small_jobs())
        assert report.num_failed == 0
        assert [item.name for item in report.items] == ["rca3", "rca4", "csa2"]
        serial = BoolEPipeline(FAST).run(ripple_carry_adder(4)[0])
        batch = report.item("rca4")
        assert batch.summary["exact_fas"] == serial.summary()["exact_fas"]
        assert batch.summary["paired_fas"] == serial.summary()["paired_fas"]
        assert batch.result is not None  # serial backend keeps full results
        assert batch.result.construction is not None

    def test_accepts_bare_aigs(self):
        aig, _ = ripple_carry_adder(3)
        report = BatchPipeline(FAST, executor="serial").run([aig])
        assert report.num_ok == 1
        assert report.items[0].name == aig.name

    def test_failure_is_isolated(self):
        jobs = [BatchJob("bad", aig=None),
                BatchJob("rca3", ripple_carry_adder(3)[0], options=FAST)]
        report = BatchPipeline(executor="serial").run(jobs)
        assert report.num_failed == 1
        assert report.num_ok == 1
        (name, error), = report.failures()
        assert name == "bad"
        assert error
        assert report.item("rca3").ok

    def test_failure_is_isolated_in_process_workers(self):
        jobs = [BatchJob("bad", aig=None),
                BatchJob("rca3", ripple_carry_adder(3)[0], options=FAST)]
        report = BatchPipeline(max_workers=1, executor="process").run(jobs)
        assert report.num_failed == 1
        assert report.item("rca3").ok

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_bad_job_options_fail_alone(self, backend):
        """Invalid per-job options (pipeline construction raises) must
        fail that job only — never abort the batch or poison its worker.
        BoolEOptions validates at construction, so simulate options that
        went bad afterwards (mutation skips __post_init__); the extractor
        still rejects them when the job's pipeline is built."""
        bad = BoolEOptions()
        bad.refine_rounds = -1
        jobs = [BatchJob("bad-options", ripple_carry_adder(3)[0],
                         options=bad),
                BatchJob("rca3", ripple_carry_adder(3)[0], options=FAST)]
        report = BatchPipeline(executor=backend, max_workers=1).run(jobs)
        assert report.num_failed == 1
        (name, error), = report.failures()
        assert name == "bad-options"
        assert "refine_rounds" in error
        assert report.item("rca3").ok

    def test_per_job_options_override_default(self):
        no_extract = BoolEOptions(r1_iterations=1, r2_iterations=1,
                                  extract=False, count_npn=False)
        jobs = [BatchJob("plain", ripple_carry_adder(3)[0], options=FAST),
                BatchJob("no-extract", ripple_carry_adder(3)[0],
                         options=no_extract)]
        report = BatchPipeline(FAST, executor="serial").run(jobs)
        assert report.num_failed == 0
        assert report.item("plain").result.extracted_aig is not None
        assert report.item("no-extract").result.extracted_aig is None

    def test_aggregate_and_throughput(self):
        report = BatchPipeline(keep_results=False,
                               executor="serial").run(small_jobs())
        totals = report.aggregate()
        assert totals["exact_fas"] == sum(
            item.summary["exact_fas"] for item in report.items)
        assert report.throughput > 0
        assert report.total_runtime >= max(item.runtime
                                           for item in report.items)
        assert all(item.result is None for item in report.items)

    def test_deterministic_aggregate_drops_runtime_only(self):
        report = BatchPipeline(FAST, executor="serial").run(small_jobs())
        deterministic = report.deterministic_aggregate()
        assert "runtime" not in deterministic
        totals = report.aggregate()
        totals.pop("runtime")
        assert deterministic == totals

    def test_empty_batch(self):
        report = BatchPipeline().run([])
        assert isinstance(report, BatchReport)
        assert report.items == []
        assert report.throughput == 0.0

    def test_rejects_unknown_backend(self):
        with pytest.raises(ValueError):
            BatchPipeline(executor="fleet")

    def test_rejects_unknown_job_type(self):
        with pytest.raises(TypeError):
            BatchPipeline().run(["not-a-job"])

    def test_process_backend_keeps_lightweight_results(self):
        """The process backend no longer drops results: workers return a
        lightweight copy (reports + counts + reconstructed netlist, no
        e-graph)."""
        jobs = [BatchJob("rca3", ripple_carry_adder(3)[0], options=FAST)]
        report = BatchPipeline(executor="process", max_workers=1).run(jobs)
        assert report.num_failed == 0
        item = report.items[0]
        assert item.summary["exact_fas"] >= 0
        result = item.result
        assert result is not None
        assert result.construction is None  # the e-graph stays behind
        assert result.extraction is None
        assert result.extracted_aig is not None
        assert result.fa_blocks
        assert result.r1_report.num_iterations > 0
        # Shape properties survive the lightweight copy.
        assert result.egraph_classes == item.summary["egraph_classes"]
        assert result.egraph_nodes == item.summary["egraph_nodes"]

    def test_process_backend_keep_results_false(self):
        jobs = [BatchJob("rca3", ripple_carry_adder(3)[0], options=FAST)]
        report = BatchPipeline(executor="process", max_workers=1,
                               keep_results=False).run(jobs)
        assert report.num_failed == 0
        assert report.items[0].result is None


class TestBackendEquivalence:
    def test_serial_and_process_bit_identical(self):
        """Serial and process runs of the same jobs agree exactly on every
        per-item summary and on the aggregate."""
        jobs = small_jobs()
        reports = {
            backend: BatchPipeline(max_workers=2, executor=backend).run(jobs)
            for backend in ("serial", "process")}
        reference = reports["serial"]
        assert reference.num_failed == 0
        ref_summaries = [
            {key: value for key, value in item.summary.items()
             if key != "runtime"}
            for item in reference.items]
        for backend, report in reports.items():
            assert report.num_failed == 0, (backend, report.failures())
            summaries = [
                {key: value for key, value in item.summary.items()
                 if key != "runtime"}
                for item in report.items]
            assert summaries == ref_summaries, backend
            assert (report.deterministic_aggregate()
                    == reference.deterministic_aggregate()), backend


def _refine_options(refine_rounds):
    return BoolEOptions(r1_iterations=2, r2_iterations=2, count_npn=False,
                        refine_rounds=refine_rounds)


class TestDependencyDrain:
    """The process backend drains the plan's dependency DAG: pool jobs
    start at once, each dependent as soon as its own leader is done."""

    def test_dependents_do_not_wait_for_an_unrelated_leader(self, tmp_path):
        """A skewed sweep — one wide leader, one narrow leader with two
        narrow dependents, two workers: the narrow dependents finish (and
        write their extraction artifacts) while the wide leader still
        runs, instead of queueing behind it."""
        wide = post_mapping_flow(csa_multiplier(7).aig)
        narrow = ripple_carry_adder(3)[0]
        jobs = [BatchJob("wide", wide, options=_refine_options(0))] + [
            BatchJob(f"narrow-r{rounds}", narrow,
                     options=_refine_options(rounds))
            for rounds in (0, 1, 2)]
        report = BatchPipeline(executor="process", max_workers=2,
                               store=str(tmp_path)).run(jobs)
        assert report.num_failed == 0, report.failures()
        assert [item.schedule for item in report.plan.items] == [
            "pool", "pool", "after:narrow-r0", "after:narrow-r0"]
        store = ArtifactStore(tmp_path)

        def written(name):
            key = report.plan.item(name).plan.extraction_key
            assert store.probe(key, expected_kind="extraction"), name
            return store.path_for(key).stat().st_mtime_ns

        for name in ("narrow-r1", "narrow-r2"):
            assert report.item(name).prefix_shared
            assert written(name) < written("wide"), name

    def test_snapshot_warm_extraction_cold_runs_on_the_pool(self, tmp_path):
        """Jobs whose saturated snapshot is in the store but whose
        extraction is not still compute extraction: they are planned
        ``pool`` and run on the workers (lightweight results), not one
        after another on the calling thread.  Only the fully warm job is
        served inline, on the calling thread, while the pool works."""
        aig = ripple_carry_adder(3)[0]
        BoolEPipeline(_refine_options(0), store=tmp_path).run(aig)
        jobs = [BatchJob(f"r{rounds}", aig, options=_refine_options(rounds))
                for rounds in (0, 1, 2)]
        batch = BatchPipeline(executor="process", max_workers=2,
                              store=str(tmp_path))
        assert [item.kind for item in batch.plan(jobs).items] == [
            "inline", "pool", "pool"]
        report = batch.run(jobs)
        assert report.num_failed == 0, report.failures()
        warm = report.item("r0")
        assert warm.cached and warm.extraction_cached
        assert warm.result.construction is not None  # the calling thread
        for name in ("r1", "r2"):
            item = report.item(name)
            assert item.cached and not item.extraction_cached
            assert item.result.construction is None  # a worker ran it


class TestWorkerRequeue:
    def test_killed_worker_requeues_jobs(self, tmp_path, monkeypatch):
        """A worker hard-killed mid-job (simulating an OOM kill) breaks
        the pool; the driver rebuilds it and requeues the undone jobs."""
        marker = tmp_path / "kill-once"
        monkeypatch.setenv("_REPRO_BATCH_KILL_WORKER_ONCE", str(marker))
        jobs = [BatchJob("rca3", ripple_carry_adder(3)[0], options=FAST),
                BatchJob("rca4", ripple_carry_adder(4)[0], options=FAST)]
        report = BatchPipeline(executor="process", max_workers=1,
                               retries=2).run(jobs)
        assert marker.exists()  # the fault actually fired
        assert report.num_failed == 0
        assert report.num_requeued >= 1
        serial = BatchPipeline(executor="serial").run(jobs)
        assert (report.deterministic_aggregate()
                == serial.deterministic_aggregate())

    def test_unrun_dependent_is_not_prefix_shared(self, tmp_path,
                                                 monkeypatch):
        """A dependent that never ran — the pool broke under its leader
        and retries are exhausted — failed; it did not share a prefix."""
        marker = tmp_path / "kill-once"
        monkeypatch.setenv("_REPRO_BATCH_KILL_WORKER_ONCE", str(marker))
        aig = ripple_carry_adder(3)[0]
        jobs = [BatchJob(f"r{rounds}", aig, options=_refine_options(rounds))
                for rounds in (0, 1)]
        report = BatchPipeline(executor="process", max_workers=1,
                               retries=0, store=str(tmp_path / "store")
                               ).run(jobs)
        assert marker.exists()
        assert report.plan.item("r1").kind == "dependent"
        assert report.num_failed == 2
        assert all("pool broke" in error for _, error in report.failures())
        assert not report.item("r1").prefix_shared
        assert report.num_prefix_shared == 0

    def test_retries_exhausted_reports_failures(self, tmp_path, monkeypatch):
        """With retries=0, the jobs a dead worker took down are reported
        as failures instead of hanging or crashing the batch."""
        marker = tmp_path / "kill-once"
        monkeypatch.setenv("_REPRO_BATCH_KILL_WORKER_ONCE", str(marker))
        jobs = [BatchJob("rca3", ripple_carry_adder(3)[0], options=FAST)]
        report = BatchPipeline(executor="process", max_workers=1,
                               retries=0).run(jobs)
        assert report.num_failed == 1
        (_name, error), = report.failures()
        assert "pool broke" in error


_BACKEND_SWEEP_SCRIPT = """
import json, sys
from repro.core import BatchJob, BatchPipeline, BoolEOptions
from repro.generators import csa_multiplier, ripple_carry_adder

backend = sys.argv[1]
options = BoolEOptions(r1_iterations=2, r2_iterations=2, count_npn=False)
jobs = [BatchJob(f"rca{w}", ripple_carry_adder(w)[0]) for w in (3, 4, 5)]
jobs.append(BatchJob("csa2", csa_multiplier(2).aig))
report = BatchPipeline(options, max_workers=2, executor=backend).run(jobs)
assert report.num_failed == 0, report.failures()
print(json.dumps(report.deterministic_aggregate(), sort_keys=True))
"""


def _sweep_subprocess(backend: str, hash_seed: int) -> str:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(hash_seed)
    env["PYTHONPATH"] = SRC_DIR + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run(
        [sys.executable, "-c", _BACKEND_SWEEP_SCRIPT, backend],
        env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


class TestCrossBackendDeterminismProperty:
    def test_backends_and_hash_seeds_agree(self):
        """Cross-backend × cross-hash-seed: every (backend, seed) cell of
        the sweep produces the same aggregate JSON."""
        results = {
            (backend, seed): _sweep_subprocess(backend, seed)
            for backend, seed in (("serial", 0), ("serial", 12345),
                                  ("process", 98765))}
        values = set(results.values())
        assert len(values) == 1, results
        assert json.loads(values.pop())["exact_fas"] > 0


class TestDedupAcrossBackends:
    """Jobs identical up to the non-semantic option fields share one
    final artifact key; the planner folds them to a single execution on
    every backend (the deeper single-backend checks live in
    ``test_plan.py``)."""

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_non_semantic_twins_share_one_result(self, backend, tmp_path):
        aig, _ = ripple_carry_adder(3)
        twin = BoolEOptions(checkpoint_every=50, r1_iterations=2,
                            r2_iterations=2, count_npn=False)
        jobs = [BatchJob("canonical", aig, options=FAST),
                BatchJob("twin", aig, options=twin)]
        report = BatchPipeline(max_workers=2, executor=backend,
                               store=str(tmp_path)).run(jobs)
        assert report.num_failed == 0
        assert report.num_deduped == 1
        canonical, twin_item = report.item("canonical"), report.item("twin")
        assert twin_item.deduped_from == "canonical"
        assert twin_item.summary == canonical.summary
        assert twin_item.runtime == canonical.runtime
        # One store write per artifact kind: the pair ran exactly once.
        from repro.store import ArtifactStore
        kinds = sorted(entry.kind for entry in ArtifactStore(tmp_path).entries())
        assert kinds == ["extraction", "saturated-pipeline"]
