"""Ablation: two-phase incremental saturation vs. single-phase saturation.

DESIGN.md design-choice #1 (the paper's optimisation trick 2): BoolE first
saturates with the basic rules R1 and only then applies the identification
rules R2.  The ablation applies both rulesets together for the same total
iteration budget and compares recovered FAs and e-graph size.
"""

from common import mapped_aig
from repro.core import (
    aig_to_egraph,
    basic_rules,
    identification_rules,
    insert_fa_structures,
)
from repro.egraph import Runner, RunnerLimits


def _single_phase(aig, iterations: int):
    construction = aig_to_egraph(aig)
    rules = basic_rules(True) + identification_rules()
    limits = RunnerLimits(max_iterations=iterations, max_nodes=400_000,
                          time_limit=120.0)
    Runner(limits).run(construction.egraph, rules)
    report = insert_fa_structures(construction.egraph)
    return report.num_exact_fas, construction.egraph.num_nodes


def _two_phase(aig, r1_iterations: int, r2_iterations: int):
    construction = aig_to_egraph(aig)
    limits1 = RunnerLimits(max_iterations=r1_iterations, max_nodes=400_000,
                           time_limit=120.0)
    limits2 = RunnerLimits(max_iterations=r2_iterations, max_nodes=400_000,
                           time_limit=120.0)
    Runner(limits1).run(construction.egraph, basic_rules(True))
    Runner(limits2).run(construction.egraph, identification_rules())
    report = insert_fa_structures(construction.egraph)
    return report.num_exact_fas, construction.egraph.num_nodes


def test_ablation_incremental_phases(benchmark):
    records = {}

    def run():
        aig = mapped_aig("csa", 4)
        two_fas, two_nodes = _two_phase(aig, 3, 3)
        one_fas, one_nodes = _single_phase(aig, 4)
        records.update({
            "two_phase_paired_fas": two_fas,
            "two_phase_egraph_nodes": two_nodes,
            "single_phase_paired_fas": one_fas,
            "single_phase_egraph_nodes": one_nodes,
        })
        return records

    benchmark.pedantic(run, rounds=1, iterations=1)
    print("\n=== Ablation: two-phase vs single-phase saturation (4-bit mapped CSA) ===")
    for key, value in records.items():
        print(f"  {key:>26}: {value}")

    # Two-phase saturation must not lose reasoning power.
    assert records["two_phase_paired_fas"] >= records["single_phase_paired_fas"] * 0.8
