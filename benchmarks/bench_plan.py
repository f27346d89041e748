"""Planner cost and win: plan a sweep in milliseconds, skip warm work.

The hash-propagating planner (:meth:`~repro.core.BatchPipeline.plan`)
classifies every job of a sweep as warm or cold without executing a
phase or building an e-graph.  This bench pins its two headline numbers:

* **cost** — planning a width-4..16 × 2-option-set sweep stays under
  100 ms (the point of a planner is that it is free relative to even
  one saturation);
* **win** — after one execution the planner proves the whole sweep
  warm, predicts every cache hit exactly, and folds a refine-rounds
  sweep onto a single saturation per distinct circuit.
"""

import pytest

from common import MAX_WIDTH, mapped_aig, print_table

from repro.core import BatchJob, BatchPipeline, BoolEOptions
from repro.generators import ripple_carry_adder

PLAN_BUDGET_SECONDS = 0.1

#: Adders span the full 4..16 range cheaply; mapped multipliers add the
#: heavier netlists up to the configured ceiling.
ADDER_WIDTHS = [4, 8, 12, 16]
MULTIPLIER_WIDTHS = [w for w in (2, 3, 4) if w <= MAX_WIDTH]

#: The two option sets of the sweep.  They differ only in refine_rounds,
#: which is outside the saturation fingerprint — each circuit's pair of
#: jobs shares one saturated prefix.
OPTION_SETS = [BoolEOptions(r1_iterations=2, r2_iterations=2,
                            count_npn=False, refine_rounds=refine)
               for refine in (0, 2)]

COLUMNS = ["job", "saturation", "extraction", "schedule"]


def sweep_jobs():
    jobs = []
    for width in ADDER_WIDTHS:
        for options in OPTION_SETS:
            jobs.append(BatchJob(f"rca{width}-rr{options.refine_rounds}",
                                 ripple_carry_adder(width)[0],
                                 options=options))
    for width in MULTIPLIER_WIDTHS:
        for options in OPTION_SETS:
            jobs.append(BatchJob(f"csa{width}-rr{options.refine_rounds}",
                                 mapped_aig("csa", width),
                                 options=options))
    return jobs


def plan_rows(plan):
    rows = []
    for item in plan.items:
        rows.append({
            "job": item.name,
            "saturation": item.plan.classification_of("insert-fa"),
            "extraction": item.plan.classification_of("reconstruct"),
            "schedule": item.schedule,
        })
    return rows


def test_plan_cost_under_budget(benchmark, tmp_path):
    """Planning the whole cold sweep — every key computed, every store
    probe made — fits in the 100 ms budget."""
    jobs = sweep_jobs()
    batch = BatchPipeline(executor="serial", store=str(tmp_path))

    plan = benchmark.pedantic(lambda: batch.plan(jobs),
                              rounds=3, iterations=1)

    print_table(f"Cold plan ({len(jobs)} jobs, "
                f"{plan.plan_seconds * 1000:.1f} ms)",
                plan_rows(plan), COLUMNS)
    assert plan.plan_seconds < PLAN_BUDGET_SECONDS
    assert plan.num_cold == len(jobs) - plan.num_deduped
    # Two option sets per circuit, one saturation per circuit.
    assert plan.num_saturations == len(ADDER_WIDTHS) + len(MULTIPLIER_WIDTHS)


def test_plan_predicts_execution_and_prefix_win(benchmark, tmp_path):
    """Cold plan → run → warm plan: the planner's predictions match the
    observed cache behaviour on both sides of the execution, and the
    refine-rounds pairs shared their saturated prefixes."""
    jobs = [job for job in sweep_jobs() if job.name.startswith("rca")]
    batch = BatchPipeline(executor="serial", store=str(tmp_path))

    cold = batch.plan(jobs)
    for item in cold.items:
        # Leaders run cold; dependents are planned against the overlay
        # that includes their leader's write, so they predict a hit.
        expect_hit = item.kind == "dependent"
        assert item.plan.predicts_cache_hit == expect_hit, item.name

    report = benchmark.pedantic(lambda: batch.run(jobs),
                                rounds=1, iterations=1)
    assert report.num_failed == 0
    for item_plan, item in zip(cold.items, report.items):
        if item_plan.kind == "duplicate":
            continue
        assert item.cached == item_plan.plan.predicts_cache_hit
        assert (item.extraction_cached
                == item_plan.plan.predicts_extraction_cache_hit)
    # Each circuit's rr2 job rode its rr0 leader's saturation.
    assert report.num_prefix_shared == len(ADDER_WIDTHS)

    warm = batch.plan(jobs)
    print_table("Warm re-plan", plan_rows(warm), COLUMNS)
    assert warm.num_fully_warm == len(jobs)
    assert warm.num_saturations == 0
    rerun = batch.run(jobs)
    assert all(item.cached and item.extraction_cached
               for item in rerun.items)


if __name__ == "__main__":
    pytest.main([__file__, "-v", "-s"])
