"""Cross-engine A/B properties: the dense SoA engine vs the reference.

The dense struct-of-arrays engine (:mod:`repro.egraph.dense`) promises
*bit identity* with the reference object-graph engine: same wire bytes,
same fingerprints, same extraction choices — only faster.  These tests
enforce that contract from three directions:

* in-process state round-trips (``export_state``/``from_state`` across
  engines is a byte-preserving bijection),
* Hypothesis property runs with the reference engine as oracle
  (identical mutation sequences => identical wire bytes),
* full-pipeline subprocess runs across ``PYTHONHASHSEED`` values, both
  schedulers, and cross-engine checkpoint resume — a checkpoint written
  under one engine resumed under the other must land on the same bytes
  as an uninterrupted run.

The pipeline always saturates on the dense engine; its oracle runs reach
the object graph by substituting the saturate phases' conversion
(``repro.core.phases.as_engine``), not through an option.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aig import AIG, lit_not
from repro.core import BoolEOptions, BoolEPipeline, phases
from repro.core.construct import aig_to_egraph
from repro.core.fa_structure import insert_fa_structures
from repro.core.rules_basic import basic_rules
from repro.core.rules_xor_maj import identification_rules
from repro.egraph import (
    BackoffScheduler,
    DenseEGraph,
    EGraph,
    Rewrite,
    Runner,
    RunnerLimits,
    apply_rules,
    as_engine,
    compile_pattern,
    parse_pattern,
)
from repro.egraph.rewrite import _DirtyFrontier
from repro.generators import booth_multiplier, csa_multiplier
from repro.opt import post_mapping_flow
from repro.service import JobService, ServiceWorker
from repro.store import KIND_SATURATED, ArtifactStore, aig_to_wire
from repro.store.codec import egraph_to_wire

SRC_DIR = str(Path(__file__).resolve().parent.parent / "src")


def _wire_bytes(egraph) -> bytes:
    return json.dumps(egraph_to_wire(egraph), sort_keys=True).encode()


def _mapped_csa3():
    return post_mapping_flow(csa_multiplier(3).aig)


FAST = {"r1_iterations": 2, "r2_iterations": 2, "count_npn": False}


def _subprocess_env(hash_seed: int) -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(hash_seed)
    env["PYTHONPATH"] = SRC_DIR + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# ----------------------------------------------------------------------
# Engine registry basics
# ----------------------------------------------------------------------
class TestEngineRegistry:
    def test_pipeline_saturates_on_dense(self):
        result = BoolEPipeline(BoolEOptions(**FAST)).run(_mapped_csa3())
        assert isinstance(result.construction.egraph, DenseEGraph)

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="engine"):
            as_engine(EGraph(), "fortran")

    def test_as_engine_is_identity_on_matching_engine(self):
        egraph = EGraph()
        egraph.var("a")
        assert as_engine(egraph, "python") is egraph
        dense = as_engine(egraph, "dense")
        assert isinstance(dense, DenseEGraph)
        assert as_engine(dense, "dense") is dense


# ----------------------------------------------------------------------
# State round-trips
# ----------------------------------------------------------------------
class TestStateRoundTrip:
    def _saturated_reference(self):
        construction = aig_to_egraph(_mapped_csa3())
        limits = RunnerLimits(max_iterations=6, match_limit=60, ban_length=1)
        Runner(limits).run(construction.egraph, basic_rules())
        return construction.egraph

    def test_python_to_dense_preserves_bytes(self):
        reference = self._saturated_reference()
        dense = DenseEGraph.from_state(reference.export_state())
        assert _wire_bytes(dense) == _wire_bytes(reference)
        assert dense.num_classes == reference.num_classes
        assert (dense.num_canonical_nodes()
                == reference.num_canonical_nodes())

    def test_dense_to_python_round_trip_is_bijective(self):
        reference = self._saturated_reference()
        dense = DenseEGraph.from_state(reference.export_state())
        back = EGraph.from_state(dense.export_state())
        assert _wire_bytes(back) == _wire_bytes(reference)

    def test_class_handouts_match(self):
        reference = self._saturated_reference()
        dense = DenseEGraph.from_state(reference.export_state())
        ref_ids = [eclass.id for eclass in reference.classes()]
        assert [eclass.id for eclass in dense.classes()] == ref_ids
        for class_id in ref_ids:
            assert (dense.enodes(class_id)
                    == reference.enodes(class_id)), class_id
            assert dense.seq(class_id) == reference.seq(class_id)


# ----------------------------------------------------------------------
# Reference engine as property-test oracle
# ----------------------------------------------------------------------
@st.composite
def random_aigs(draw):
    """A small random AIG: a DAG of AND gates over negated fanins."""
    num_inputs = draw(st.integers(min_value=2, max_value=4))
    num_gates = draw(st.integers(min_value=1, max_value=12))
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


@st.composite
def random_adder_aigs(draw):
    """A random netlist of XOR/MAJ/full-adder cells over possibly negated
    signals, so the R2 identification rules have XOR3/MAJ3 to find."""
    num_inputs = draw(st.integers(min_value=3, max_value=5))
    aig = AIG(name="rand-adders")
    signals = [aig.add_input(f"x{i}") for i in range(num_inputs)]
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        a, b, c = (signals[draw(st.integers(0, len(signals) - 1))]
                   ^ draw(st.integers(0, 1)) for _ in range(3))
        cell = draw(st.sampled_from(["fa", "xor", "maj", "and"]))
        if cell == "fa":
            signals.extend(aig.full_adder(a, b, c))
        elif cell == "xor":
            signals.append(aig.xor_(aig.xor_(a, b), c))
        elif cell == "maj":
            signals.append(aig.or_(aig.and_(a, b),
                                   aig.and_(c, aig.or_(a, b))))
        else:
            signals.append(aig.and_(a, b))
    for index, lit in enumerate(signals[num_inputs:]):
        aig.add_output(lit, f"f{index}")
    return aig


class TestDenseOracleEquivalence:
    @given(random_aigs())
    @settings(max_examples=12, deadline=None)
    def test_saturation_bit_identical_to_reference(self, aig):
        """Identical inputs through both engines => identical wire bytes
        after saturation, pruning and FA structuring."""
        reference = aig_to_egraph(aig).egraph
        dense = DenseEGraph.from_state(reference.export_state())
        limits = RunnerLimits(max_iterations=10, match_limit=12,
                              ban_length=1)
        ref_report = Runner(limits).run(reference, basic_rules())
        dense_report = Runner(limits).run(dense, basic_rules())
        assert _wire_bytes(dense) == _wire_bytes(reference)
        assert dense_report.stop_reason == ref_report.stop_reason
        assert dense_report.num_iterations == ref_report.num_iterations
        insert_fa_structures(reference)
        insert_fa_structures(dense)
        assert _wire_bytes(dense) == _wire_bytes(reference)

    @given(random_aigs())
    @settings(max_examples=8, deadline=None)
    def test_full_scan_engine_agrees_too(self, aig):
        reference = aig_to_egraph(aig).egraph
        dense = DenseEGraph.from_state(reference.export_state())
        limits = RunnerLimits(max_iterations=8, match_limit=12,
                              ban_length=1)
        Runner(limits, incremental=False).run(reference, basic_rules())
        Runner(limits, incremental=False).run(dense, basic_rules())
        assert _wire_bytes(dense) == _wire_bytes(reference)


    @given(random_adder_aigs())
    @settings(max_examples=10, deadline=None)
    def test_r2_after_r1_same_stats_with_bans(self, aig):
        """R2 on both engines after R1, with a budget small enough that
        bans fire: identical per-iteration RuleStats and wire bytes."""
        reference = aig_to_egraph(aig).egraph
        dense = DenseEGraph.from_state(reference.export_state())
        reports = {}
        for name, graph in (("python", reference), ("dense", dense)):
            Runner(RunnerLimits(max_iterations=4)).run(graph, basic_rules())
            reports[name] = Runner(RunnerLimits(
                max_iterations=6, match_limit=4, ban_length=1)).run(
                graph, identification_rules())
        assert _wire_bytes(dense) == _wire_bytes(reference)
        assert _rule_stats(reports["dense"]) == _rule_stats(
            reports["python"])

    @given(random_adder_aigs())
    @settings(max_examples=10, deadline=None)
    def test_budget_and_condition_same_stats(self, aig):
        """A tight back-off budget plus a ``condition`` rule, driven
        through ``apply_rules`` directly: identical RuleStats every round
        and identical wire bytes.  Every applied match set fits its rule's
        budget, and an over-budget rule applies nothing."""
        rules = identification_rules() + [Rewrite.parse(
            "and-comm-filtered", "(& ?a ?b)", "(& ?b ?a)",
            condition=lambda egraph, root, subst:
                (subst["?a"] + 2 * subst["?b"] + root) % 3 != 0)]
        reference = aig_to_egraph(aig).egraph
        dense = DenseEGraph.from_state(reference.export_state())
        rounds = {}
        for name, graph in (("python", reference), ("dense", dense)):
            Runner(RunnerLimits(max_iterations=3)).run(graph, basic_rules())
            scheduler = BackoffScheduler(match_limit=3, ban_length=1)
            rounds[name] = []
            for _ in range(3):
                budgets = {rule.name: scheduler.budget(rule.name)
                           for rule in rules}
                rounds[name].append(
                    (budgets, apply_rules(graph, rules, scheduler=scheduler)))
        assert _wire_bytes(dense) == _wire_bytes(reference)
        assert rounds["dense"] == rounds["python"]
        for budgets, stats in rounds["dense"]:
            for rule, stat in stats.items():
                assert stat.matches == stat.applications <= budgets[rule]
                assert not stat.capped or stat.matches == 0


def _rule_stats(report):
    return [iteration.rule_stats for iteration in report.iterations]


def _r1_state(arch: str, width: int) -> dict:
    """A post-mapping multiplier's e-graph after the pipeline's R1."""
    generator = csa_multiplier if arch == "csa" else booth_multiplier
    graph = as_engine(aig_to_egraph(
        post_mapping_flow(generator(width).aig)).egraph, "dense")
    Runner(RunnerLimits(max_iterations=3)).run(graph, basic_rules())
    return graph.export_state()


#: Every R1/R2 plan, one search request each.
_PLANS = [plan for rule in basic_rules() + identification_rules()
          for plan, _ in rule.plans()]


class TestBatchedSearch:
    """The dense engine's shared matcher returns exactly the object
    engine's rows, plan by plan, and reaches the same over/under decision
    for every budget-limited request."""

    @pytest.fixture(scope="class", params=["csa4", "booth4", "csa8"])
    def states(self, request):
        """Two rounds to search — the R1 state as a full scan, and the
        state after one full R2 round restricted to the dirty classes it
        left (the next round's delta) — each with its requests and the
        object engine's unbounded answers."""
        arch, width = request.param[:-1], int(request.param[-1])
        state = _r1_state(arch, width)
        graph = DenseEGraph.from_state(state)
        apply_rules(graph, identification_rules())
        dirty = graph.take_dirty()
        assert dirty
        rounds = []
        for round_state, round_dirty in ((state, None),
                                         (graph.export_state(), dirty)):
            python = EGraph.from_state(round_state)
            # One frontier (the oracle's) for both, so only search differs.
            frontier = (None if round_dirty is None
                        else _DirtyFrontier(python, round_dirty))
            searches = [[(plan, None if frontier is None
                          else frontier.at(plan.height))]
                        for plan in _PLANS]
            expected = python.search_batch(
                [(None, plan_searches) for plan_searches in searches])
            assert sum(len(rows[0]) for rows in expected) > 0
            rounds.append((round_state, searches, expected))
        return rounds

    @staticmethod
    def _dense(state, searches, budgets):
        return DenseEGraph.from_state(state).search_batch(
            list(zip(budgets, searches)))

    def test_full_scan_rows_match_object_engine(self, states):
        state, searches, expected = states[0]
        assert self._dense(state, searches, [None] * len(_PLANS)) == expected

    def test_delta_round_rows_match_object_engine(self, states):
        state, searches, expected = states[1]
        assert self._dense(state, searches, [None] * len(_PLANS)) == expected

    def test_budget_decisions_match_object_engine(self, states):
        for state, searches, unbounded in states:
            counts = [len(rows[0]) for rows in unbounded]
            # Alternate just-over and exactly-at budgets, so members leave
            # a group mid-search while their neighbours keep matching.
            budgets = [max(count - 1 + index % 2, 0)
                       for index, count in enumerate(counts)]
            # The object engine's answer: every row under budget, None over.
            expected = [None if count > budget else rows for count, budget,
                        rows in zip(counts, budgets, unbounded)]
            assert any(rows is None for rows in expected)
            assert not all(rows is None for rows in expected)
            assert self._dense(state, searches, budgets) == expected

    @given(random_adder_aigs())
    @settings(max_examples=10, deadline=None)
    def test_same_match_sequence_on_random_adders(self, aig):
        """On random adder netlists after R1, every R1/R2 plan's rows
        match the object engine's, match for match."""
        graph = aig_to_egraph(aig).egraph
        Runner(RunnerLimits(max_iterations=3)).run(graph, basic_rules())
        state = graph.export_state()
        requests = [(None, [(plan, None)]) for plan in _PLANS]
        assert DenseEGraph.from_state(state).search_batch(
            requests) == EGraph.from_state(state).search_batch(requests)

    def test_rule_budget_spans_its_plans(self, states):
        """A request's budget counts the rows of all its plans."""
        state = states[0][0]
        plan = compile_pattern(parse_pattern("(& ?a ?b)"))
        total = len(EGraph.from_state(state).search_rows(plan))
        for budget in (2 * total - 1, 2 * total):
            requests = [(budget, [(plan, None), (plan, None)])]
            expected = EGraph.from_state(state).search_batch(requests)
            assert DenseEGraph.from_state(state).search_batch(
                requests) == expected
            assert (expected[0] is None) == (budget < 2 * total)


# ----------------------------------------------------------------------
# Full pipeline across engines, hash seeds and schedulers (subprocess)
# ----------------------------------------------------------------------
# The BoolE pipeline's stages with its default options except the
# saturation budgets, saturated by ``Runner(incremental=...)`` directly
# (the pipeline itself always matches incrementally).
_ENGINE_PIPELINE_SCRIPT = """
import hashlib
import json
from repro.core.construct import aig_to_egraph
from repro.core.extraction import BoolEExtractor, reconstruct_aig
from repro.core.fa_structure import count_npn_fa_pairs, insert_fa_structures
from repro.core.rules_basic import basic_rules
from repro.core.rules_xor_maj import identification_rules
from repro.egraph import Op, Runner, RunnerLimits, as_engine
from repro.generators import csa_multiplier
from repro.opt import post_mapping_flow
from repro.store.codec import egraph_to_wire

mapped = post_mapping_flow(csa_multiplier(3).aig)
construction = aig_to_egraph(mapped)
egraph = construction.egraph = as_engine(construction.egraph, {engine!r})
r1_report, r2_report = (
    Runner(RunnerLimits(max_iterations=iterations, max_nodes=400_000,
                        match_limit=60, ban_length=1),
           incremental={incremental}).run(egraph, rules)
    for iterations, rules in ((30, basic_rules()),
                              (40, identification_rules())))
egraph.prune_duplicates({{Op.XOR3, Op.MAJ, Op.FA, Op.XOR, Op.AND, Op.OR}})
insert_fa_structures(egraph)
npn_fas = count_npn_fa_pairs(egraph)
extraction = BoolEExtractor().extract(egraph,
                                      roots=construction.output_classes)
_, fa_blocks = reconstruct_aig(construction, extraction)
wire = json.dumps(egraph_to_wire(egraph), sort_keys=True).encode()
print(json.dumps({{
    "wire_sha": hashlib.sha256(wire).hexdigest(),
    "exact_fas": len(fa_blocks),
    "npn_fas": npn_fas,
    "classes": egraph.num_classes,
    "nodes": egraph.num_canonical_nodes(),
    "total_bans": r1_report.total_bans() + r2_report.total_bans(),
    "r1_stop": r1_report.stop_reason,
    "r2_stop": r2_report.stop_reason,
    "engine_reported": type(egraph).__name__,
    "counted_ops": r1_report.ematch_ops + r2_report.ematch_ops > 0,
}}))
"""


def _run_engine_pipeline(engine: str, hash_seed: int,
                         incremental: bool = True) -> dict:
    script = _ENGINE_PIPELINE_SCRIPT.format(engine=engine,
                                            incremental=incremental)
    proc = subprocess.run([sys.executable, "-c", script],
                          env=_subprocess_env(hash_seed),
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _strip_telemetry(row: dict) -> dict:
    return {key: value for key, value in row.items()
            if key not in ("engine_reported", "counted_ops")}


_RESTORE_OPTIONS = dict(r1_iterations=2, r2_iterations=2)


def _netlist_sha(result) -> str:
    wire = json.dumps(aig_to_wire(result.extracted_aig), sort_keys=True)
    return hashlib.sha256(wire.encode("utf-8")).hexdigest()


def _saturated_payload_bytes(store: ArtifactStore, key: str) -> bytes:
    """Canonical bytes of a ``saturated-pipeline`` payload, with the
    runner reports' wall-clock fields (``total_time``, per-iteration
    ``elapsed``) zeroed — the only run-to-run variation it may carry."""
    payload = store.get(key, expected_kind=KIND_SATURATED)
    for field in ("r1_report", "r2_report"):
        payload[field]["total_time"] = 0
        for iteration in payload[field]["iterations"]:
            iteration["elapsed"] = 0
    return json.dumps(payload, sort_keys=True).encode("utf-8")


@pytest.fixture(scope="class")
def cold_width8(tmp_path_factory):
    """Width-8 cold runs: dense with refine_rounds 0 into one store,
    python with refine_rounds 2 into another."""
    aig = post_mapping_flow(csa_multiplier(8).aig)
    root = tmp_path_factory.mktemp("cold-width8")
    runs = {}
    for engine, rounds in (("dense", 0), ("python", 2)):
        store = ArtifactStore(root / engine)
        pipeline = BoolEPipeline(BoolEOptions(**_RESTORE_OPTIONS,
                                              refine_rounds=rounds),
                                 store=store)
        with mock.patch.object(phases, "as_engine",
                               lambda egraph, _: as_engine(egraph, engine)):
            result = pipeline.run(aig)
        assert isinstance(result.construction.egraph,
                          DenseEGraph if engine == "dense" else EGraph)
        runs[engine] = (store, result)
    return aig, runs


class TestPipelineEngineEquivalence:
    def test_saturated_objects_byte_identical_across_engines(
            self, cold_width8):
        aig, runs = cold_width8
        key = BoolEPipeline(BoolEOptions(**_RESTORE_OPTIONS)).cache_key(aig)
        assert (_saturated_payload_bytes(runs["dense"][0], key)
                == _saturated_payload_bytes(runs["python"][0], key))

    @pytest.mark.parametrize("store_engine", ["dense", "python"])
    @pytest.mark.parametrize("refine_rounds", [0, 2])
    def test_warm_restore_is_dense_and_reconstructs_cold_netlist(
            self, cold_width8, store_engine, refine_rounds):
        """A restore from either engine's snapshot yields a DenseEGraph
        whose reconstructed netlist is the cold run's, byte for byte."""
        aig, runs = cold_width8
        cold = {0: runs["dense"][1], 2: runs["python"][1]}[refine_rounds]
        warm = BoolEPipeline(
            BoolEOptions(**_RESTORE_OPTIONS, refine_rounds=refine_rounds),
            store=runs[store_engine][0]).run(aig)
        assert warm.cache_hit
        assert isinstance(warm.construction.egraph, DenseEGraph)
        assert _netlist_sha(warm) == _netlist_sha(cold)
        assert warm.num_exact_fas == cold.num_exact_fas

    def test_bit_identical_across_engines_and_hash_seeds(self):
        """dense(seed A), dense(seed B) and python(seed C) all produce the
        same saturated artifact bytes, ban schedule included."""
        dense_a = _run_engine_pipeline("dense", hash_seed=0)
        dense_b = _run_engine_pipeline("dense", hash_seed=98765)
        python_c = _run_engine_pipeline("python", hash_seed=31337)
        assert dense_a["total_bans"] > 0, "budget never exceeded; vacuous"
        assert dense_a["engine_reported"] == "DenseEGraph"
        assert python_c["engine_reported"] == "EGraph"
        assert dense_a["counted_ops"] and python_c["counted_ops"]
        assert _strip_telemetry(dense_a) == _strip_telemetry(dense_b)
        assert _strip_telemetry(dense_a) == _strip_telemetry(python_c)

    def test_full_scan_scheduler_agrees_across_engines(self):
        dense = _run_engine_pipeline("dense", hash_seed=1,
                                     incremental=False)
        python = _run_engine_pipeline("python", hash_seed=2,
                                      incremental=False)
        assert _strip_telemetry(dense) == _strip_telemetry(python)


# ----------------------------------------------------------------------
# Cross-engine checkpoint resume (subprocess)
# ----------------------------------------------------------------------
_CHECKPOINT_SCRIPT = """
import hashlib
import json
import sys
from repro.core.construct import aig_to_egraph
from repro.core.rules_basic import basic_rules
from repro.core.rules_xor_maj import identification_rules
from repro.egraph import Runner, RunnerLimits, as_engine
from repro.generators import csa_multiplier
from repro.opt import post_mapping_flow
from repro.store import load_checkpoint, save_checkpoint
from repro.store.codec import egraph_to_wire

mode, path, engine = sys.argv[1], sys.argv[2], sys.argv[3]
aig = post_mapping_flow(csa_multiplier(3).aig)
rules = basic_rules() + identification_rules(True)
limits = RunnerLimits(max_iterations=12, match_limit=60, ban_length=1)

def signature(egraph):
    wire = json.dumps(egraph_to_wire(egraph), sort_keys=True).encode()
    return hashlib.sha256(wire).hexdigest()

if mode == "full":
    egraph = as_engine(aig_to_egraph(aig).egraph, engine)
    Runner(limits).run(egraph, rules)
    print(signature(egraph))
elif mode == "checkpoint":
    egraph = as_engine(aig_to_egraph(aig).egraph, engine)
    saved = []
    def on_checkpoint(cp):
        if not saved:
            save_checkpoint(path, egraph, cp)
            saved.append(cp.iteration)
    Runner(limits).run(egraph, rules, checkpoint_every=3,
                       on_checkpoint=on_checkpoint)
    print(saved[0] if saved else -1)
else:
    egraph, cp = load_checkpoint(path)
    egraph = as_engine(egraph, engine)
    Runner.from_checkpoint(cp).run(egraph, rules, resume_from=cp)
    print(signature(egraph))
"""


def _checkpoint_subprocess(mode: str, path: str, engine: str,
                           hash_seed: int) -> str:
    proc = subprocess.run(
        [sys.executable, "-c", _CHECKPOINT_SCRIPT, mode, path, engine],
        env=_subprocess_env(hash_seed), capture_output=True, text=True,
        timeout=600)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


class TestCrossEngineCheckpointResume:
    @pytest.mark.parametrize("writer,resumer", [("dense", "python"),
                                                ("python", "dense")])
    def test_checkpoint_written_by_one_engine_resumes_under_other(
            self, writer, resumer, tmp_path):
        """Kill/resume across the engine boundary: the wire state is
        engine-neutral, so a mid-saturation checkpoint taken under one
        engine must resume under the other to the exact same bytes as an
        uninterrupted reference run."""
        path = str(tmp_path / "checkpoint.json.gz")
        reference = _checkpoint_subprocess("full", path, "python",
                                           hash_seed=0)
        first = _checkpoint_subprocess("checkpoint", path, writer,
                                       hash_seed=31337)
        assert int(first) > 0, "no checkpoint was written"
        resumed = _checkpoint_subprocess("resume", path, resumer,
                                         hash_seed=98765)
        assert resumed == reference


# ----------------------------------------------------------------------
# Telemetry surfacing: RunnerReport and service stats
# ----------------------------------------------------------------------
class TestTelemetrySurfacing:
    def test_report_carries_ematch_ops(self):
        result = BoolEPipeline(BoolEOptions(**FAST)).run(_mapped_csa3())
        assert result.r1_report.ematch_ops > 0
        assert result.r1_report.ematch_ops_per_second() >= 0.0
        stats = result.saturation_stats()
        assert stats["ematch_ops"] > 0
        assert stats["saturation_seconds"] >= 0.0

    def test_summary_unchanged_by_telemetry(self):
        """The warm/cold summary-equality contract: telemetry must live
        in saturation_stats(), never in summary()."""
        result = BoolEPipeline(BoolEOptions(**FAST)).run(_mapped_csa3())
        assert "ematch_ops" not in result.summary()

    def test_service_stats_aggregate_engine_throughput(self, tmp_path):
        service = JobService(tmp_path / "store")
        request = {"arch": "csa", "width": 3, "options": dict(FAST)}
        queued = service.submit(request)
        worker = ServiceWorker(service.store, poll_interval=0.01)
        assert worker.run_once() == queued["job_id"]
        saturation = service.stats()["saturation"]
        assert saturation["runs"] == 1
        assert saturation["ematch_ops"] > 0
        assert saturation["ematch_ops_per_s"] >= 0.0
