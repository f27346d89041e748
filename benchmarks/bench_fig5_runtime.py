"""Figure 5 (RQ3): BoolE end-to-end runtime versus input netlist size.

The paper plots BoolE's rewriting runtime against the AIG node count of the
post-mapping CSA and Booth multipliers.  This bench regenerates the same
series (node count, runtime) at reproduction scale and checks that runtime
grows with netlist size but stays within the configured budget.

Two companion series probe the back-off scheduler: one run under a
deliberately tight budget, and a ``match_limit``/``ban_length`` sweep (egg's 1k/5 against the pipeline's 100k/2 default, the ROADMAP
tuning item) that loads its saturated input graphs from a
:class:`repro.store.ArtifactStore` — re-running a sweep config is a cache
hit, so only *new* configurations ever pay for saturation.  Point
``REPRO_STORE_DIR`` at a persistent directory to carry the artifacts
across bench invocations; the sweep widths follow
``REPRO_BENCH_MAX_WIDTH`` (8–16 when raised; the top configured
post-mapping width otherwise).
"""

import os

import pytest

from common import MAX_WIDTH, POST_MAPPING_WIDTHS, boole_on_mapped, mapped_aig, print_table
from repro.core import BoolEOptions, BoolEPipeline
from repro.store import ArtifactStore

COLUMNS = ["width", "aig_nodes", "runtime_s", "egraph_nodes", "exact_fas"]


@pytest.mark.parametrize("arch", ["csa", "booth"])
def test_fig5_runtime_vs_size(benchmark, arch):
    rows = []

    def run():
        rows.clear()
        for width in POST_MAPPING_WIDTHS:
            result = boole_on_mapped(arch, width)
            rows.append({
                "width": width,
                "aig_nodes": mapped_aig(arch, width).num_gates,
                "runtime_s": round(result.total_runtime, 2),
                "egraph_nodes": result.egraph_nodes,
                "exact_fas": result.num_exact_fas,
            })
        return rows

    benchmark.pedantic(run, rounds=1, iterations=1)
    print_table(f"Figure 5 (BoolE runtime vs. netlist size, {arch.upper()})",
                rows, COLUMNS)

    sizes = [row["aig_nodes"] for row in rows]
    assert sizes == sorted(sizes), "netlist size should grow with bitwidth"
    # Runtime is recorded for every point of the series.
    assert all(row["runtime_s"] >= 0 for row in rows)


SCHEDULER_COLUMNS = ["scheduler", "saturation_s", "runtime_s", "exact_fas",
                     "bans"]


def test_fig5_tight_backoff_budget(benchmark):
    """Companion series: the back-off scheduler under a tight budget.

    Runs the pipeline at the largest configured width with a deliberately
    tight budget so the scheduler actually engages (at the default budget
    it does not trigger below width 16); the exact 16-bit numbers are
    recorded in ``docs/performance.md``.
    """
    width = POST_MAPPING_WIDTHS[-1]
    mapped = mapped_aig("csa", width)
    configs = [
        ("backoff", BoolEOptions(r1_iterations=3, r2_iterations=3,
                                 match_limit=2_000, ban_length=2)),
    ]
    rows = []

    def run():
        rows.clear()
        for label, options in configs:
            result = BoolEPipeline(options).run(mapped)
            rows.append({
                "scheduler": label,
                "saturation_s": round(result.timings["r1"]
                                      + result.timings["r2"], 2),
                "runtime_s": round(result.total_runtime, 2),
                "exact_fas": result.num_exact_fas,
                "bans": (result.r1_report.total_bans()
                         + result.r2_report.total_bans()),
            })
        return rows

    benchmark.pedantic(run, rounds=1, iterations=1)
    print_table(
        f"Figure 5 companion (tight back-off budget, CSA width {width})",
        rows, SCHEDULER_COLUMNS)


#: The ROADMAP back-off tuning grid: egg's defaults (1k budget, 5-iteration
#: bans) against the pipeline's wide-budget default (100k/2) and a midpoint.
SWEEP_CONFIGS = [
    ("egg-1k/5", 1_000, 5),
    ("mid-10k/3", 10_000, 3),
    ("default-100k/2", 100_000, 2),
]

#: ROADMAP asks for widths up to 24-32, where back-off should start
#: winning; they only run when REPRO_BENCH_MAX_WIDTH raises the budget
#: (the default sweep stays at the configured top width so CI still
#: exercises the store path; the nightly cron runs at
#: ``REPRO_BENCH_MAX_WIDTH=24`` against its persistent store).
SWEEP_WIDTHS = ([w for w in (8, 12, 16, 24, 32) if w <= MAX_WIDTH]
                or [POST_MAPPING_WIDTHS[-1]])

SWEEP_COLUMNS = ["width", "config", "cached", "saturation_s", "load_s",
                 "runtime_s", "exact_fas", "bans"]


def test_fig5_backoff_sweep_from_store(benchmark, tmp_path_factory):
    """match_limit/ban_length sweep with store-backed saturation reuse.

    Every (width, config) pair is one content-addressed artifact: the
    first visit saturates and stores, every later visit — including
    re-running the whole sweep — loads the saturated graph and only pays
    for extraction.  Set ``REPRO_STORE_DIR`` to keep the artifacts across
    bench runs."""
    store_root = os.environ.get("REPRO_STORE_DIR")
    if store_root is None:
        store_root = tmp_path_factory.mktemp("fig5-store")
    store = ArtifactStore(store_root)
    rows = []

    def run():
        rows.clear()
        for width in SWEEP_WIDTHS:
            mapped = mapped_aig("csa", width)
            for label, match_limit, ban_length in SWEEP_CONFIGS:
                # Generous time budget: a TIME_LIMIT stop is wall-clock
                # dependent, which would cache a nondeterministic graph at
                # the wide widths.  checkpoint_every=2 makes an interrupted
                # width-24/32 saturation resume mid-phase on the next
                # nightly instead of restarting (cadence does not change
                # the cache key) at the cost of ONE snapshot write per
                # phase, which lands inside saturation_s — a per-iteration
                # cadence would charge every config a per-graph-size write
                # tax and skew the back-off comparison itself.
                options = BoolEOptions(r1_iterations=3, r2_iterations=3,
                                       match_limit=match_limit,
                                       ban_length=ban_length,
                                       time_limit=3600.0,
                                       checkpoint_every=2)
                result = BoolEPipeline(options).run(mapped, store=store)
                rows.append({
                    "width": width,
                    "config": label,
                    "cached": result.cache_hit,
                    "saturation_s": round(result.timings.get("r1", 0.0)
                                          + result.timings.get("r2", 0.0), 2),
                    "load_s": round(result.timings.get("cache_load", 0.0), 2),
                    "runtime_s": round(result.total_runtime, 2),
                    "exact_fas": result.num_exact_fas,
                    "bans": (result.r1_report.total_bans()
                             + result.r2_report.total_bans()),
                })
        return rows

    benchmark.pedantic(run, rounds=1, iterations=1)
    print_table(
        f"Figure 5 sweep (match_limit/ban_length, store at {store_root})",
        rows, SWEEP_COLUMNS)

    # Re-running one config must now be a pure cache hit with identical
    # results — the property that makes wide sweeps affordable.
    width = SWEEP_WIDTHS[0]
    label, match_limit, ban_length = SWEEP_CONFIGS[0]
    options = BoolEOptions(r1_iterations=3, r2_iterations=3,
                           match_limit=match_limit, ban_length=ban_length,
                           time_limit=3600.0)
    rerun = BoolEPipeline(options).run(mapped_aig("csa", width), store=store)
    assert rerun.cache_hit
    first_row = rows[0]
    assert rerun.num_exact_fas == first_row["exact_fas"]
    assert (rerun.r1_report.total_bans() + rerun.r2_report.total_bans()
            == first_row["bans"])
