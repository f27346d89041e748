"""Layer-by-layer BoolE benchmark.

Usage (from the repository root)::

    python3 layerbench/run.py --workload cold-csa16 --seed 1 --seconds 10 --trace 0

Runs passes of one workload (see ``README.md``), each in a fresh
interpreter under :mod:`reaper`, until ``--seconds`` of passes have been
measured (at least one), checks every answer, and prints one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end metrics of ``BENCHMARK.json`` (medians
over the passes); with ``--trace 1`` they are its per-layer metrics, from
one traced pass measured against one untraced pass.

Scratch state lives in ``.layerbench/`` at the repository root: per-run
stores (deleted at exit), the last traces, the warm store of
``warm-csa16``, and a ledger of per-job output fingerprints.  The last two
are keyed by a digest of ``src/``: a fingerprint or FA count that differs
from the ledger's for the same source is a failed check, and the warm
store is prepared by the first ``warm-csa16`` run on a source (its
preparation time then counts in that run's ``setup_s``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".layerbench"

#: A pass that runs longer than this is killed and the run fails.
PASS_TIMEOUT_S = 150.0

#: ``setup_s`` is the median of at least this many set-ups per run.
MIN_SETUPS = 3

#: Passes a run makes at least, whatever ``--seconds`` says.  A warm pass
#: takes about 5 s, short enough for the machine's second-scale speed
#: bursts to swing one pass by 20%, so its median takes three; the other
#: workloads' 15-20 s passes average those bursts out within one pass.
MIN_PASSES = {"warm-csa16": 3}


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


class Runner:
    """Spawns the passes of one benchmark run and collects their outcomes."""

    def __init__(self, args: argparse.Namespace, layer_names: List[str],
                 run_dir: Path, digest: str) -> None:
        self.args = args
        self.layer_names = layer_names
        self.run_dir = run_dir
        self.digest = digest
        self.warm_store = WORK / f"warm-{digest[:16]}"
        self.spawned = 0
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")]
            + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH")
               else []))

    def spawn(self, mode: str, trace: int = 0) -> Tuple[Dict, Dict, float]:
        """Run one pass; returns (outcome, rusage, seconds to set up)."""
        self.spawned += 1
        out = self.run_dir / f"{mode}-{self.spawned}.json"
        usage = self.run_dir / f"{mode}-{self.spawned}.rusage.json"
        command = [
            sys.executable, str(HERE / "reaper.py"), str(usage),
            str(PASS_TIMEOUT_S), "--",
            sys.executable, str(HERE / "passes.py"),
            "--workload", self.args.workload, "--mode", mode,
            "--seed", str(self.args.seed), "--trace", str(trace),
            "--work", str(self.run_dir), "--out", str(out),
            "--warm-store", str(self.warm_store),
            "--layers", ",".join(self.layer_names)]
        spawned_at = time.time()
        # Pass output goes to stderr: stdout carries only the result line.
        code = subprocess.run(command, env=self.env, cwd=ROOT,
                              stdout=sys.stderr).returncode
        if code != 0 or not out.exists():
            raise RuntimeError(f"{self.args.workload} {mode} pass exited "
                               f"with code {code}")
        outcome = json.loads(out.read_text())
        rusage = json.loads(usage.read_text())
        setup = outcome["setup_end"] - spawned_at
        print(f"{self.args.workload} {mode}: setup {setup:.3f} s, wall "
              f"{outcome.get('wall_s', 0.0):.3f} s, cpu "
              f"{rusage['cpu_s']:.3f} s", file=sys.stderr)
        return outcome, rusage, setup

    def prepare_warm_store(self) -> Tuple[float, List[Dict]]:
        """Run csa16 cold into this source's warm store unless an earlier
        run did; returns the seconds spent and the prep's outcome."""
        ready = self.warm_store / "READY"
        if ready.exists():
            return 0.0, []
        for stale in WORK.glob("warm-*"):
            shutil.rmtree(stale, ignore_errors=True)
        prep, _usage, setup = self.spawn("prep")
        if all(job["ok"] for job in prep["jobs"]):
            ready.write_text(self.digest)
        return setup + prep["wall_s"], [prep]


def check_jobs(outcomes: List[Dict], digest: str) -> Tuple[int, int]:
    """Count attempted and failed jobs; compare fingerprints to the ledger.

    A job fails when any answer check failed or when its (fingerprint,
    exact FAs, NPN FAs) differ from the first ones recorded for the same
    job id under the same ``src/`` digest — across passes, workloads
    (cold vs warm csa16, batch vs fleet) and runs.
    """
    ledger_path = WORK / "ledger.json"
    ledger: Dict = {"src": digest, "jobs": {}}
    if ledger_path.exists():
        stored = json.loads(ledger_path.read_text())
        if stored.get("src") == digest:
            ledger = stored
    attempted = failed = 0
    for outcome in outcomes:
        for job in outcome["jobs"]:
            attempted += 1
            errors = list(job["errors"])
            answer = [job["fingerprint"], job["exact_fas"], job["npn_fas"]]
            if job["ok"]:
                reference = ledger["jobs"].setdefault(job["id"], answer)
                if answer != reference:
                    errors.append(f"output {answer} differs from the "
                                  f"recorded {reference}")
            if errors:
                failed += 1
                print(f"FAILED {job['id']}: {'; '.join(errors)}",
                      file=sys.stderr)
    tmp = ledger_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(ledger, indent=1, sort_keys=True))
    tmp.replace(ledger_path)
    return attempted, failed


def distinct_total(outcome: Dict, field: str) -> int:
    return sum({job["id"]: job[field] for job in outcome["jobs"]}.values())


def measure(runner: Runner, seconds: float) -> Tuple[Dict, List[Dict]]:
    """End-to-end metrics: medians over passes run for ``seconds``."""
    prep_s = 0.0
    checked: List[Dict] = []
    if runner.args.workload == "warm-csa16":
        prep_s, checked = runner.prepare_warm_store()
    passes: List[Tuple[Dict, Dict]] = []
    setups: List[float] = []
    min_passes = MIN_PASSES.get(runner.args.workload, 1)
    measure_end = time.perf_counter() + seconds
    while len(passes) < min_passes or time.perf_counter() < measure_end:
        outcome, usage, setup = runner.spawn("pass")
        passes.append((outcome, usage))
        setups.append(setup)
    while len(setups) < MIN_SETUPS:
        setups.append(runner.spawn("setup")[2])
    checked += [outcome for outcome, _usage in passes]

    outcomes = [outcome for outcome, _usage in passes]
    metrics = {
        "wall_s": median(o["wall_s"] for o in outcomes),
        "cpu_s": median(u["cpu_s"] for _o, u in passes),
        "peak_rss_mb": median(u["maxrss_kb"] / 1024.0 for _o, u in passes),
        "job_p50_s": median(median(job["latency_s"] for job in o["jobs"])
                            for o in outcomes),
        "exact_fas": median(distinct_total(o, "exact_fas") for o in outcomes),
        "npn_fas": median(distinct_total(o, "npn_fas") for o in outcomes),
        "setup_s": prep_s + median(setups),
    }
    return metrics, checked


def measure_traced(runner: Runner) -> Tuple[Dict, List[Dict]]:
    """Per-layer metrics of one traced pass, plus its overhead against one
    untraced pass; the spans are kept in ``.layerbench/traces/``."""
    checked: List[Dict] = []
    if runner.args.workload == "warm-csa16":
        checked = runner.prepare_warm_store()[1]
    untraced = runner.spawn("pass")[0]
    traced = runner.spawn("pass", trace=1)[0]
    checked += [untraced, traced]
    metrics = dict(traced["layers"])
    metrics["trace.coverage"] = traced["coverage"]
    metrics["trace.overhead"] = traced["wall_s"] / untraced["wall_s"] - 1.0
    traces = WORK / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    (traces / f"{runner.args.workload}-seed{runner.args.seed}.json"
     ).write_text(json.dumps(traced["spans"]))
    return metrics, checked


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [entry["name"] for entry in spec["workloads"]]
    if args.workload not in workloads:
        parser.error(f"--workload must be one of {', '.join(workloads)}")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no BoolE sources under {ROOT / 'src'}; run from a "
              "full checkout of the repository", file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    layer_names = [entry["name"] for entry in spec["per_layer"]
                   if not entry["name"].startswith("trace.")]

    digest = source_digest()
    run_dir = WORK / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        runner = Runner(args, layer_names, run_dir, digest)
        if args.trace:
            metrics, checked = measure_traced(runner)
        else:
            metrics, checked = measure(runner, args.seconds)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    attempted, failed = check_jobs(checked, digest)
    metrics["ok_frac"] = 1.0 - failed / attempted
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {entry["name"]: {"value": metrics[entry["name"]],
                                    "unit": entry["unit"]}
                    for entry in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
