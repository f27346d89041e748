"""Engine shoot-out: dense struct-of-arrays vs reference object graph.

The pipeline always saturates on the dense engine, so this bench drives
both engines at the :class:`~repro.egraph.Runner` level, the way the
saturate phases do: construct the e-graph, convert it with
:func:`~repro.egraph.as_engine`, then run R1 and R2 with the pipeline's
rulesets and default budgets.

Measures, per engine and per width, the cold saturation wall time and
the e-matching throughput (ops/sec, where an "op" is one e-node or
column-span scan — the unit each engine counts natively, so the rate is
comparable across runs of *one* engine but the wall time is the only
fair cross-engine metric).  Both engines must produce byte-identical
saturated wire payloads and identical per-iteration ``RuleStats``
(matches, applications, unions, capped, banned) at every width — a
search-order bug can still reach the same final graph, but not with the
same per-rule counts — and the dense engine must not be slower.

Widths 8 and 16 run by default (16 only when ``REPRO_BENCH_MAX_WIDTH``
allows); width 24 is the nightly dense-only data point — the reference
engine is skipped there because its runtime is the very problem the
dense engine exists to solve.

Each row is also emitted as a one-line JSON object (prefixed
``ENGINE_ROW``) so CI can scrape the numbers into an artifact.
"""

import hashlib
import json
import time

from common import MAX_WIDTH, mapped_aig, print_table
from repro.core import BoolEOptions
from repro.core.construct import aig_to_egraph
from repro.core.pipeline import gc_paused
from repro.core.rules_basic import basic_rules
from repro.core.rules_xor_maj import identification_rules
from repro.egraph import Runner, RunnerLimits, as_engine
from repro.store.codec import egraph_to_wire

#: Width 8 always runs (the smoke floor); 16/24 are opt-in via
#: ``REPRO_BENCH_MAX_WIDTH`` because the reference engine needs minutes.
ENGINE_WIDTHS = [w for w in (8, 16, 24) if w <= max(MAX_WIDTH, 8)]

#: Widths where the reference engine still terminates in tolerable time.
PYTHON_ENGINE_CAP = 16

#: The pipeline's budgets at r1 = r2 = 3.
_OPTIONS = BoolEOptions(r1_iterations=3, r2_iterations=3)


def _run_engine(engine: str, width: int) -> dict:
    aig = mapped_aig("csa", width)
    started = time.perf_counter()
    with gc_paused():
        egraph = as_engine(aig_to_egraph(aig).egraph, engine)
        reports = [
            Runner(RunnerLimits(
                max_iterations=iterations, max_nodes=_OPTIONS.max_nodes,
                time_limit=_OPTIONS.time_limit,
                match_limit=_OPTIONS.match_limit,
                ban_length=_OPTIONS.ban_length)).run(egraph, rules)
            for iterations, rules in (
                (_OPTIONS.r1_iterations,
                 basic_rules(lightweight=_OPTIONS.lightweight_rules)),
                (_OPTIONS.r2_iterations, identification_rules()))]
    total = time.perf_counter() - started
    seconds = sum(report.total_time for report in reports)
    ops = sum(report.ematch_ops for report in reports)
    wire = json.dumps(egraph_to_wire(egraph), sort_keys=True).encode()
    rule_stats = [[phase, iteration.index, name, stats.matches,
                   stats.applications, stats.unions, stats.capped,
                   stats.banned]
                  for phase, report in zip(("R1", "R2"), reports)
                  for iteration in report.iterations
                  for name, stats in iteration.rule_stats.items()]
    return {
        "bench": "engine_ops",
        "arch": "csa",
        "width": width,
        "engine": engine,
        "saturation_seconds": round(seconds, 3),
        "ematch_ops": ops,
        "ematch_ops_per_s": round(ops / seconds, 1) if seconds else 0.0,
        "total_seconds": round(total, 3),
        "classes": egraph.num_classes,
        "stop_reasons": [report.stop_reason for report in reports],
        "wire_sha": hashlib.sha256(wire).hexdigest(),
        "rule_stats_sha": hashlib.sha256(
            json.dumps(rule_stats).encode()).hexdigest(),
        "rule_stats": rule_stats,
    }


def test_engine_saturation_benchmark(benchmark):
    rows = []

    def run():
        for width in ENGINE_WIDTHS:
            dense = _run_engine("dense", width)
            rows.append(dense)
            if width <= PYTHON_ENGINE_CAP:
                rows.append(_run_engine("python", width))
        return rows

    benchmark.pedantic(run, rounds=1, iterations=1)

    print_table("Engine shoot-out: cold saturation (mapped CSA)", rows,
                ["width", "engine", "saturation_seconds",
                 "ematch_ops_per_s", "total_seconds", "classes"])
    for row in rows:
        print("ENGINE_ROW " + json.dumps(
            {key: value for key, value in row.items()
             if key != "rule_stats"}, sort_keys=True))

    by_width = {}
    for row in rows:
        by_width.setdefault(row["width"], {})[row["engine"]] = row
    for width, engines in sorted(by_width.items()):
        if "python" not in engines:
            continue
        dense, python = engines["dense"], engines["python"]
        speedup = (python["saturation_seconds"]
                   / max(dense["saturation_seconds"], 1e-9))
        print(f"ENGINE_SPEEDUP width={width} saturation={speedup:.2f}x")
        # Bit identity is the whole contract: same bytes at every width.
        assert dense["wire_sha"] == python["wire_sha"], width
        assert dense["stop_reasons"] == python["stop_reasons"], width
        # Same matches, applications, unions and bans, rule by rule and
        # iteration by iteration.
        assert dense["rule_stats"] == python["rule_stats"], width
        # The dense engine exists to be faster; refuse a regression.
        assert (dense["saturation_seconds"]
                <= python["saturation_seconds"]), width
