"""Slow equivalence sweep for the nightly CI cron job.

Gated behind ``REPRO_NIGHTLY=1`` (see ``.github/workflows/nightly.yml``):
these runs use larger random AIGs, the full R1+R2 ruleset and the expensive
``debug_check_full`` cross-check — several minutes of work, far beyond the
per-PR property-test budget in ``tests/test_incremental.py`` and
``tests/test_determinism.py``.

Every case asserts the three engine contracts at a size the fast tests
cannot afford:

* delta e-matching converges to the same e-graph as full scans;
* the back-off scheduler (tiny budgets, many bans) loses no matches;
* ``debug_check_full`` stays silent after every delta iteration.
"""

import os
import random

import pytest

from repro.aig import AIG, lit_not
from repro.core.construct import aig_to_egraph
from repro.core.rules_basic import basic_rules
from repro.core.rules_xor_maj import identification_rules
from repro.egraph import Runner, RunnerLimits

pytestmark = pytest.mark.skipif(
    not os.environ.get("REPRO_NIGHTLY"),
    reason="slow nightly sweep; set REPRO_NIGHTLY=1 to run")


def _random_aig(seed: int, num_inputs: int, num_gates: int) -> AIG:
    rng = random.Random(seed)
    aig = AIG(name=f"sweep{seed}")
    literals = [aig.add_input(f"x{i}") for i in range(num_inputs)]
    for _ in range(num_gates):
        a = rng.choice(literals)
        b = rng.choice(literals)
        if rng.random() < 0.5:
            a = lit_not(a)
        if rng.random() < 0.5:
            b = lit_not(b)
        literals.append(aig.and_(a, b))
    for lit in literals[-max(1, num_inputs // 2):]:
        aig.add_output(lit)
    return aig


def _partition(construction):
    egraph = construction.egraph
    groups = {}
    for var, class_id in construction.class_of_var.items():
        groups.setdefault(egraph.find(class_id), set()).add(var)
    return {frozenset(group) for group in groups.values()}


_CASES = [(seed, inputs, gates)
          for seed in range(8)
          for inputs, gates in ((6, 40), (8, 80))]


@pytest.mark.parametrize("seed,num_inputs,num_gates", _CASES)
def test_delta_equals_full_scan_large(seed, num_inputs, num_gates):
    """Delta + debug cross-check vs. full scans on larger random AIGs."""
    aig = _random_aig(seed, num_inputs, num_gates)
    rules = basic_rules() + identification_rules()
    limits = RunnerLimits(max_iterations=10, max_nodes=150_000,
                          match_limit=None)

    full = aig_to_egraph(aig)
    Runner(limits, incremental=False).run(full.egraph, rules)
    delta = aig_to_egraph(aig)
    Runner(limits, incremental=True,
           debug_check_full=True).run(delta.egraph, rules)

    assert full.egraph.num_classes == delta.egraph.num_classes
    assert (full.egraph.num_canonical_nodes()
            == delta.egraph.num_canonical_nodes())
    assert _partition(full) == _partition(delta)


@pytest.mark.parametrize("seed", range(6))
def test_backoff_sweep_loses_no_matches(seed):
    """Tiny budgets (constant banning) still reach the uncapped fixpoint."""
    aig = _random_aig(1000 + seed, 4, 20)
    rules = basic_rules()
    uncapped = aig_to_egraph(aig)
    Runner(RunnerLimits(max_iterations=40, match_limit=None),
           incremental=False).run(uncapped.egraph, rules)
    banned = aig_to_egraph(aig)
    report = Runner(RunnerLimits(max_iterations=40, match_limit=8,
                                 ban_length=1),
                    incremental=True,
                    debug_check_full=True).run(banned.egraph, rules)
    assert report.saturated
    assert report.total_bans() > 0, "budget never exceeded; case too small"
    assert uncapped.egraph.num_classes == banned.egraph.num_classes
    assert (uncapped.egraph.num_canonical_nodes()
            == banned.egraph.num_canonical_nodes())
    assert _partition(uncapped) == _partition(banned)
