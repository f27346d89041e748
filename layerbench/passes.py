"""One pass of one workload, run in a fresh interpreter by ``run.py``.

Modes:

* ``pass`` — set up, run the timed section, check every answer and write
  the outcome as JSON to ``--out``;
* ``setup`` — set up and tear down only (extra ``setup_s`` samples);
* ``prep`` — ``warm-csa16`` only: run csa16 cold into the warm store
  (``--warm-store``) that the workload's passes then read.

The program is driven only through its public API: ``BoolEPipeline``,
``BatchPipeline``, the ``repro.service`` CLI with ``ServiceClient``, and
``ArtifactStore``.  With ``--trace 1`` the pass installs the span
wrappers of :mod:`tracing` and reports per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import random
import re
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Type

from checks import check_answer, wire_sha256
from tracing import Tracer

from repro.core import BatchJob, BatchPipeline, BoolEOptions, BoolEPipeline
from repro.generators import generate_multiplier
from repro.opt import post_mapping_flow
from repro.service import ServiceClient
from repro.store import (
    KIND_EXTRACTION,
    KIND_SATURATED,
    ArtifactStore,
    aig_from_wire,
    aig_to_wire,
)

#: The ROADMAP baseline regime; every job uses it.
OPTIONS = {"r1_iterations": 3, "r2_iterations": 3}

#: The skewed sweep: one wide leader next to four narrow ones.
SWEEP_CIRCUITS = [("csa", 12), ("csa", 4), ("booth", 4), ("csa", 6),
                  ("booth", 6)]
#: The first value leads its circuit's prefix group; the others depend.
SWEEP_REFINE_ROUNDS = (0, 1, 2)

#: Seconds between ``/sweeps/<id>`` polls (``ServiceClient.wait_sweep``'s
#: default) and between ``/stats`` polls while the fleet drains.
SWEEP_POLL_S = 0.2
STATS_POLL_S = 1.0

#: ``BoolEResult.timings`` key → per-layer metric (pool workers).
TIMING_LAYERS = {
    "construct": "construct.s",
    "r1": "runner.r1_s",
    "r2": "runner.r2_s",
    "prune": "fa_structure.prune_s",
    "fa_pairing": "fa_structure.pairing_s",
    "npn_count": "fa_structure.npn_s",
    "extract": "extraction.extract_s",
    "reconstruct": "extraction.reconstruct_s",
    "cache_store": "store.put_s",
    "extraction_cache_store": "store.put_s",
    "cache_load": "store.get_s",
    "extraction_cache_load": "store.get_s",
}

#: Job-record ``phase`` event name → per-layer metric (fleet workers).
PHASE_EVENT_LAYERS = {
    "construct": "construct.s",
    "saturate-r1": "runner.r1_s",
    "saturate-r2": "runner.r2_s",
    "insert-fa": "fa_structure.pairing_s",
    "extract": "extraction.extract_s",
    "reconstruct": "extraction.reconstruct_s",
}


def job_id(arch: str, width: int, refine_rounds: int) -> str:
    return f"{arch}{width}-r{refine_rounds}"


def options_for(refine_rounds: int) -> BoolEOptions:
    return BoolEOptions(**OPTIONS, refine_rounds=refine_rounds)


class Circuit:
    """A generated multiplier and its post-mapping netlist."""

    def __init__(self, arch: str, width: int, layers: Dict[str, float]
                 ) -> None:
        generated = generate_multiplier(arch, width)
        started = time.perf_counter()
        self.aig = post_mapping_flow(generated.aig)
        layers["opt.map_s"] += time.perf_counter() - started
        layers["opt.gates"] += self.aig.num_gates
        self.arch = arch
        self.width = width
        self.signed = generated.signed


def job_outcome(ident: str, circuit: Optional[Circuit], extracted, blocks,
                exact_fas: int, npn_fas: int, latency: float,
                seed: int, errors: Optional[List[str]] = None) -> Dict:
    """Check one job's answer and summarise it for ``run.py``."""
    errors = list(errors or [])
    fingerprint = None
    if extracted is None:
        errors.append("no reconstructed netlist")
    else:
        errors += check_answer(circuit.aig, extracted, blocks,
                               width=circuit.width, signed=circuit.signed,
                               seed=seed)
        fingerprint = wire_sha256(extracted)
    return {"id": ident, "ok": not errors, "errors": errors,
            "fingerprint": fingerprint, "exact_fas": exact_fas,
            "npn_fas": npn_fas, "latency_s": latency}


def result_outcome(ident: str, circuit: Circuit, result, latency: float,
                   seed: int, errors: Optional[List[str]] = None) -> Dict:
    blocks = [(b.inputs, b.sum_lit, b.carry_lit) for b in result.fa_blocks]
    return job_outcome(ident, circuit, result.extracted_aig, blocks,
                       result.num_exact_fas, result.num_npn_fas, latency,
                       seed, errors)


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
def add_runner_counts(layers: Dict[str, float], report, phase: str) -> None:
    """Add one saturation run's ``RunnerReport``/``RuleStats`` counts."""
    stats = [stat for iteration in report.iterations
             for stat in iteration.rule_stats.values()]
    prefix = f"runner.{phase}_"
    layers[prefix + "iterations"] += report.num_iterations
    layers[prefix + "matches"] += sum(stat.matches for stat in stats)
    layers[prefix + "unions"] += report.total_unions()
    if phase == "r2":
        layers[prefix + "applications"] += sum(stat.applications
                                               for stat in stats)
        layers[prefix + "bans"] += report.total_bans()
        layers[prefix + "ematch_ops"] += report.ematch_ops
        if report.iterations:
            layers[prefix + "classes"] += report.iterations[-1].num_classes
            layers[prefix + "nodes"] += report.iterations[-1].num_nodes


def finish_layers(layers: Dict[str, float]) -> Dict[str, float]:
    applications = layers["runner.r2_applications"]
    layers["runner.r2_union_ratio"] = (
        layers["runner.r2_unions"] / applications if applications else 0.0)
    return layers


def traced_layers(tracer: Tracer, layers: Dict[str, float]) -> None:
    """Per-layer metrics of an in-process pass, from its spans."""
    spans = tracer.spans
    total = tracer.total
    layers["fingerprint.key_s"] += total("fingerprint.key")
    layers["construct.s"] += total("construct")
    layers["egraph.as_engine_s"] += total("egraph.as_engine")
    layers["runner.r1_s"] += total("runner.run", under="r1")
    layers["runner.r2_s"] += total("runner.run", under="r2")
    layers["runner.r2_rebuild_s"] += total("egraph.rebuild", under="r2")
    layers["fa_structure.prune_s"] += total("fa_structure.prune")
    layers["fa_structure.pairing_s"] += total("fa_structure.pairing")
    layers["fa_structure.npn_s"] += total("fa_structure.npn")
    layers["extraction.extract_s"] += total("extraction.extract")
    layers["extraction.reconstruct_s"] += total("extraction.reconstruct")
    for name in ("egraph_to_wire", "egraph_from_wire",
                 "extraction_from_wire"):
        layers[f"codec.{name}_s"] += total(f"codec.{name}")
    layers["store.put_s"] += total("store.put")
    layers["store.get_s"] += total("store.get")
    layers["store.puts"] += tracer.count("store.put")
    layers["store.gets"] += tracer.count("store.get")
    for span in spans:
        name = span["name"]
        if name == "store.put":
            layers["store.put_bytes"] += span["bytes"]
        elif name == "store.get":
            layers["store.get_bytes"] += span.get("bytes", 0)
        elif name == "construct":
            layers["construct.classes"] += span["classes"]
        elif name == "fa_structure.pairing":
            layers["fa_structure.pairs"] += span["pairs"]
        elif name == "extraction.reconstruct":
            layers["extraction.gates_out"] += span["gates"]
        elif name == "runner.run":
            add_runner_counts(layers, span["report"], span["phase"])


def stored_layers(store: ArtifactStore, layers: Dict[str, float],
                  loaded: List[Tuple[str, str]]) -> None:
    """Store traffic of a sweep whose writes happened in other processes:
    the artifacts now in the store, plus the ``(key, kind)`` pairs jobs
    reported loading from it."""
    sizes = {}
    for entry in store.entries():
        if entry.kind in (KIND_SATURATED, KIND_EXTRACTION):
            sizes[entry.key] = entry.size
            layers["store.puts"] += 1
            layers["store.put_bytes"] += entry.size
    for key, _kind in loaded:
        layers["store.gets"] += 1
        layers["store.get_bytes"] += sizes.get(key, 0)


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
class Workload:
    """Set-up, timed section and checks of one workload's pass."""

    def __init__(self, args: argparse.Namespace,
                 layers: Dict[str, float]) -> None:
        self.args = args
        self.seed = args.seed
        self.work = Path(args.work)
        self.layers = layers
        #: Per-pass store, removed by :meth:`teardown`.
        self.store_dir: Optional[Path] = None
        #: Subprocesses the pass started, stopped by :meth:`teardown`.
        self.processes: List[subprocess.Popen] = []

    def setup(self) -> None:
        raise NotImplementedError

    def run(self, tracer: Optional[Tracer]) -> Tuple[float, float]:
        """Run the timed section; returns its (start, end) perf times."""
        raise NotImplementedError

    def check(self, tracer: Optional[Tracer]) -> List[Dict]:
        raise NotImplementedError

    def teardown(self) -> None:
        for process in self.processes:
            process.terminate()
        for process in self.processes:
            try:
                process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
            process.stdout.close()
        if self.store_dir is not None:
            shutil.rmtree(self.store_dir, ignore_errors=True)


def span(tracer: Optional[Tracer], name: str, kind: str = "layer"):
    """A span of ``tracer``, or nothing in an untraced pass."""
    if tracer is None:
        return nullcontext({})
    return tracer.span(name, kind=kind)


class ColdCsa16(Workload):
    """csa16 post-mapping, one ``BoolEPipeline.run`` on an empty store."""

    def setup(self) -> None:
        self.circuit = Circuit("csa", 16, self.layers)
        self.store_dir = fresh_dir(self.work / f"store-cold-{self.seed}")
        self.pipeline = BoolEPipeline(options_for(0),
                                      store=ArtifactStore(self.store_dir))

    def run(self, tracer: Optional[Tracer]) -> Tuple[float, float]:
        started = time.perf_counter()
        with span(tracer, "csa16-r0", "job"):
            self.result = self.pipeline.run(self.circuit.aig)
        return started, time.perf_counter()

    def check(self, tracer: Optional[Tracer]) -> List[Dict]:
        if tracer is not None:
            traced_layers(tracer, self.layers)
        errors = []
        if self.result.cache_hit or self.result.extraction_cache_hit:
            errors.append("cold run hit the store")
        return [result_outcome("csa16-r0", self.circuit, self.result,
                               self.result.total_runtime, self.seed, errors)]


class WarmCsa16(Workload):
    """csa16 against a store warmed by ``prep``: one fully warm run, then
    one snapshot-warm run with ``refine_rounds=3``."""

    def setup(self) -> None:
        self.circuit = Circuit("csa", 16, self.layers)
        store_dir = Path(self.args.warm_store)
        if self.args.mode == "prep":
            fresh_dir(store_dir)
        self.store = ArtifactStore(store_dir)
        self.warm = BoolEPipeline(options_for(0), store=self.store)
        self.refined = BoolEPipeline(options_for(3), store=self.store)
        if self.args.mode != "prep":
            # The refined extraction artifact must be absent on every pass.
            key = self.refined.plan(self.circuit.aig).extraction_key
            self.store.delete(key)

    def run(self, tracer: Optional[Tracer]) -> Tuple[float, float]:
        started = time.perf_counter()
        if self.args.mode == "prep":
            self.results = [self.warm.run(self.circuit.aig)]
            return started, time.perf_counter()
        with span(tracer, "csa16-r0", "job"):
            first = self.warm.run(self.circuit.aig)
        with span(tracer, "csa16-r3", "job"):
            second = self.refined.run(self.circuit.aig)
        self.results = [first, second]
        return started, time.perf_counter()

    def check(self, tracer: Optional[Tracer]) -> List[Dict]:
        if self.args.mode == "prep":
            return [result_outcome("csa16-r0", self.circuit, self.results[0],
                                   self.results[0].total_runtime, self.seed)]
        if tracer is not None:
            traced_layers(tracer, self.layers)
        first, second = self.results
        first_errors = []
        if not (first.cache_hit and first.extraction_cache_hit):
            first_errors.append("refine_rounds=0 run was not fully warm")
        second_errors = []
        if not second.cache_hit or second.extraction_cache_hit:
            second_errors.append("refine_rounds=3 run was not snapshot-warm")
        return [
            result_outcome("csa16-r0", self.circuit, first,
                           first.total_runtime, self.seed, first_errors),
            result_outcome("csa16-r3", self.circuit, second,
                           second.total_runtime, self.seed, second_errors),
        ]


class Sweep(Workload):
    """Shared set-up of the two sweeps: 5 circuits × 3 refine budgets.

    The five ``refine_rounds=0`` leaders are submitted first, in the fixed
    order of :data:`SWEEP_CIRCUITS`, and the seed shuffles the ten
    dependents behind them.  The planner makes the first member of each
    prefix group its leader, so every seed plans the same five leaders:
    a seeded leader choice would change which jobs saturate and the
    fleet's claim order, and with them the schedule being measured.
    """

    def setup(self) -> None:
        self.circuits = {(arch, width): Circuit(arch, width, self.layers)
                         for arch, width in SWEEP_CIRCUITS}
        lead, *follow = SWEEP_REFINE_ROUNDS
        dependents = [(arch, width, rounds)
                      for arch, width in SWEEP_CIRCUITS
                      for rounds in follow]
        random.Random(self.seed).shuffle(dependents)
        self.members = [(arch, width, lead)
                        for arch, width in SWEEP_CIRCUITS] + dependents
        self.store_dir = fresh_dir(self.work / f"store-{self.args.workload}-"
                                   f"{self.seed}")
        self.store = ArtifactStore(self.store_dir)


class SweepBatch(Sweep):
    """The sweep through ``BatchPipeline`` on 2 process workers."""

    def setup(self) -> None:
        super().setup()
        self.jobs = [BatchJob(name=job_id(arch, width, rounds),
                              aig=self.circuits[arch, width].aig,
                              options=options_for(rounds))
                     for arch, width, rounds in self.members]
        self.batch = BatchPipeline(options_for(0), max_workers=2,
                                   store=self.store)

    def run(self, tracer: Optional[Tracer]) -> Tuple[float, float]:
        started = time.perf_counter()
        with span(tracer, "sweep", "job"), span(tracer, "batch.run"):
            self.report = self.batch.run(self.jobs)
        return started, time.perf_counter()

    def check(self, tracer: Optional[Tracer]) -> List[Dict]:
        report = self.report
        layers = self.layers
        loaded: List[Tuple[str, str]] = []
        outcomes = []
        for member, item, planned in zip(self.members, report.items,
                                         report.plan.items):
            arch, width, rounds = member
            circuit = self.circuits[arch, width]
            result = item.result
            if not item.ok or result is None:
                outcomes.append(job_outcome(
                    item.name, circuit, None, [], 0, 0, item.runtime,
                    self.seed, [item.error or "job failed"]))
                continue
            outcomes.append(result_outcome(item.name, circuit, result,
                                           item.runtime, self.seed))
            layers["batch.busy_s"] += item.runtime
            for key, value in result.timings.items():
                if key in TIMING_LAYERS:
                    layers[TIMING_LAYERS[key]] += value
            if item.cached:
                loaded.append((planned.plan.base_key, KIND_SATURATED))
            else:
                layers["fa_structure.pairs"] += result.num_paired_fas
                add_runner_counts(layers, result.r1_report, "r1")
                add_runner_counts(layers, result.r2_report, "r2")
            if item.extraction_cached:
                loaded.append((planned.plan.extraction_key, KIND_EXTRACTION))
            else:
                layers["extraction.gates_out"] += \
                    result.extracted_aig.num_gates
        stored_layers(self.store, layers, loaded)
        wall = report.wall_time
        layers["batch.idle_frac"] = 1.0 - layers["batch.busy_s"] / (2 * wall)
        layers["batch.saturations"] = report.plan.num_saturations
        layers["batch.prefix_shared"] = report.num_prefix_shared
        layers["phases.plan_s"] = report.plan.plan_seconds
        if tracer is not None:
            layers["fingerprint.key_s"] += tracer.total("fingerprint.key")
        return outcomes


class SweepFleet(Sweep):
    """The sweep as one ``POST /sweeps`` to a ``repro.service`` server
    drained by two ``work`` subprocesses."""

    def setup(self) -> None:
        super().setup()
        self.requests = [
            {"name": job_id(arch, width, rounds),
             "aig": aig_to_wire(self.circuits[arch, width].aig),
             "options": {**OPTIONS, "refine_rounds": rounds}}
            for arch, width, rounds in self.members]
        root = str(self.store_dir)
        service = [sys.executable, "-m", "repro.service", "--root", root]
        server = self._start(service + ["serve", "--port", "0"])
        match = re.search(r"listening on ([\d.]+):(\d+)",
                          server.stdout.readline())
        if match is None:
            raise RuntimeError("service did not report its address")
        self.client = ServiceClient(match.group(1), int(match.group(2)))
        workers = [self._start(service + ["work", "--idle-timeout", "600"])
                   for _ in range(2)]
        for worker in workers:
            if "polling" not in worker.stdout.readline():
                raise RuntimeError("fleet worker did not start")

    def _start(self, command: List[str]) -> subprocess.Popen:
        log = open(self.work / f"fleet-{self.seed}.log", "a")
        process = subprocess.Popen(command, stdout=subprocess.PIPE,
                                   stderr=log, text=True)
        log.close()
        self.processes.append(process)
        return process

    def run(self, tracer: Optional[Tracer]) -> Tuple[float, float]:
        client = self.client
        self.stats_ms: List[float] = []
        started = time.perf_counter()
        self.submitted_at = time.time()
        with span(tracer, "sweep", "job"):
            with span(tracer, "service.submit"):
                response = client.submit_sweep({"jobs": self.requests})
            self.submit_s = time.perf_counter() - started
            self.response = response
            next_stats = time.perf_counter()
            while True:
                status = client.sweep_status(response["sweep_id"])
                if status["state"] in ("done", "failed"):
                    break
                if time.perf_counter() >= next_stats:
                    polled = time.perf_counter()
                    client.stats()
                    self.stats_ms.append(
                        (time.perf_counter() - polled) * 1000.0)
                    next_stats = polled + STATS_POLL_S
                time.sleep(SWEEP_POLL_S)
            ended = time.perf_counter()
        self.sweep_state = status["state"]
        self.epoch_offset = started - self.submitted_at
        return started, ended

    def check(self, tracer: Optional[Tracer]) -> List[Dict]:
        layers = self.layers
        stats = self.client.stats()
        loaded: List[Tuple[str, str]] = []
        claim_waits: List[float] = []
        run_times: List[float] = []
        outcomes = []
        by_name = {entry["name"]: entry for entry in self.response["jobs"]}
        for arch, width, rounds in self.members:
            name = job_id(arch, width, rounds)
            circuit = self.circuits[arch, width]
            record = self.client.status(by_name[name]["job_id"])
            events = {event["event"]: event for event in record["events"]}
            done = events.get("done")
            if record["state"] != "done" or done is None:
                outcomes.append(job_outcome(
                    name, circuit, None, [], 0, 0, 0.0, self.seed,
                    [f"job {record['state']}: {record.get('error')}"]))
                continue
            payload = self.store.get(record["extraction_key"],
                                     expected_kind=KIND_EXTRACTION)
            extracted = aig_from_wire(payload["extracted_aig"])
            result = record["result"]
            outcomes.append(job_outcome(
                name, circuit, extracted, payload["fa_blocks"],
                result["exact_fas"], result["npn_fas"],
                done["at"] - self.submitted_at, self.seed))
            claim_waits.append(events["claimed"]["at"]
                               - events["queued"]["at"])
            run_times.append(done["at"] - events["running"]["at"])
            for event in record["events"]:
                if event["event"] == "phase":
                    layers[PHASE_EVENT_LAYERS[event["name"]]] += \
                        event["runtime"]
            if done["cache_hit"]:
                loaded.append((record["base_key"], KIND_SATURATED))
            else:
                layers["fa_structure.pairs"] += result["paired_fas"]
            if done["extraction_cache_hit"]:
                loaded.append((record["extraction_key"], KIND_EXTRACTION))
            else:
                layers["extraction.gates_out"] += extracted.num_gates
            if tracer is not None:
                offset = self.epoch_offset
                tracer.add("service.job", events["claimed"]["at"] + offset,
                           done["at"] + offset)
        stored_layers(self.store, layers, loaded)
        layers["service.submit_s"] = self.submit_s
        layers["service.claim_wait_p50_s"] = median_or_zero(claim_waits)
        layers["service.run_p50_s"] = median_or_zero(run_times)
        layers["service.stats_p50_ms"] = median_or_zero(self.stats_ms)
        layers["service.saturations"] = stats["saturation"]["runs"]
        layers["phases.plan_s"] = self.response["plan"]["plan_seconds"]
        if self.sweep_state != "done":
            outcomes.append(job_outcome("sweep", None, None, [], 0, 0, 0.0,
                                        self.seed,
                                        [f"sweep {self.sweep_state}"]))
        return outcomes


def median_or_zero(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


WORKLOADS: Dict[str, Type[Workload]] = {
    "cold-csa16": ColdCsa16,
    "warm-csa16": WarmCsa16,
    "sweep-batch": SweepBatch,
    "sweep-fleet": SweepFleet,
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--mode", choices=("pass", "setup", "prep"),
                        default="pass")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True,
                        help="scratch directory of this benchmark run")
    parser.add_argument("--warm-store",
                        help="store directory warm-csa16 reads (and prep "
                             "writes)")
    parser.add_argument("--out", required=True, help="outcome JSON path")
    parser.add_argument("--layers", required=True,
                        help="comma-separated per-layer metric names")
    args = parser.parse_args()

    layers = {name: 0.0 for name in args.layers.split(",")}
    workload = WORKLOADS[args.workload](args, layers)
    outcome: Dict = {}
    try:
        workload.setup()
        outcome["setup_end"] = time.time()
        if args.mode != "setup":
            tracer = Tracer() if args.trace else None
            if tracer is not None:
                tracer.install()
            started, ended = workload.run(tracer)
            if tracer is not None:
                tracer.uninstall()
            outcome["wall_s"] = ended - started
            outcome["jobs"] = workload.check(tracer)
            if tracer is not None:
                outcome["coverage"] = tracer.coverage(started, ended)
                outcome["spans"] = tracer.export(started)
            outcome["layers"] = finish_layers(layers)
    finally:
        workload.teardown()
    Path(args.out).write_text(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
