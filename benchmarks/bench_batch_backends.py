"""Backend comparison: an 8-circuit sweep, cold and warm.

Runs the same 8-circuit width-4/8 job mix through the serial and process
backends of :class:`~repro.core.BatchPipeline` and prints a comparison
table:

* **cold** — fresh store per backend: every job saturates.  This is where
  the process backend's true parallelism pays (on multi-core hosts; on a
  single core the pickle + pool overhead makes it roughly break even with
  serial — the table records ``os.cpu_count()`` so numbers are
  comparable).
* **warm** — second run against the same store: every job is served
  inline from the saturated + extraction artifacts, so both backends
  converge to snapshot-load time and the pool never spins up.

Both acceptance properties are asserted, not just printed: the backends
produce identical deterministic aggregates, and on a multi-core host the
process backend beats serial on the cold sweep.

Numbers from this harness are recorded in ``docs/performance.md``.
"""

import os

from common import BOOLE_OPTIONS, print_table

from repro.core import BatchJob, BatchPipeline
from repro.generators import (
    booth_multiplier,
    csa_multiplier,
    ripple_carry_adder,
    wallace_multiplier,
)
from repro.opt import post_mapping_flow

COLUMNS = ["backend", "mode", "wall_s", "sum_runtime_s", "jobs_cached",
           "throughput"]

BACKENDS = ["serial", "process"]


def sweep_jobs():
    """The acceptance sweep: 8 circuits at widths 4 and 8."""
    return [
        BatchJob("rca4", ripple_carry_adder(4)[0]),
        BatchJob("rca8", ripple_carry_adder(8)[0]),
        BatchJob("csa4", post_mapping_flow(csa_multiplier(4).aig)),
        BatchJob("wallace4", post_mapping_flow(wallace_multiplier(4).aig)),
        BatchJob("booth4", post_mapping_flow(booth_multiplier(4).aig)),
        BatchJob("csa8", post_mapping_flow(csa_multiplier(8).aig)),
        BatchJob("wallace8", post_mapping_flow(wallace_multiplier(8).aig)),
        BatchJob("booth8", post_mapping_flow(booth_multiplier(8).aig)),
    ]


def test_backend_comparison(tmp_path):
    jobs = sweep_jobs()
    cores = os.cpu_count() or 1
    workers = min(4, cores)
    rows = []
    cold_wall = {}
    aggregates = {}
    for backend in BACKENDS:
        store = tmp_path / f"store-{backend}"
        for mode in ("cold", "warm"):
            report = BatchPipeline(BOOLE_OPTIONS, executor=backend,
                                   max_workers=workers,
                                   keep_results=False,
                                   store=store).run(jobs)
            assert report.num_failed == 0, report.failures()
            if mode == "cold":
                assert report.num_cached == 0
                cold_wall[backend] = report.wall_time
                aggregates[backend] = report.deterministic_aggregate()
            else:
                assert report.num_cached == len(jobs)
            rows.append({
                "backend": backend,
                "mode": mode,
                "wall_s": round(report.wall_time, 2),
                "sum_runtime_s": round(report.total_runtime, 2),
                "jobs_cached": report.num_cached,
                "throughput": round(report.throughput, 2),
            })
    print_table(
        f"Batch backends, {len(jobs)}-circuit width-4/8 sweep "
        f"({workers} workers, {os.cpu_count()} cores)", rows, COLUMNS)

    # The acceptance property: identical aggregates across backends.
    reference = aggregates["serial"]
    for backend, aggregate in aggregates.items():
        assert aggregate == reference, (backend, aggregate, reference)

    # The other acceptance property: the process backend beats serial on
    # the cold sweep.  That needs real cores — on a single-core host the
    # pool overhead makes the backends tie and the assertion would only
    # measure noise, hence the gate (CI runners are multi-vCPU).
    if cores >= 2:
        assert cold_wall["process"] < cold_wall["serial"], cold_wall
    else:
        print(f"single core: skipping process<serial assertion {cold_wall}")
