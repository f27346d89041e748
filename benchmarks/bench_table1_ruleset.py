"""Table I: the BoolE rewriting rule library.

The paper reports 68 basic Boolean rules (R1) plus 39 MAJ and 90 XOR
identification rules (R2).  This bench reports the reproduction's rule
counts, checks every rule group is populated, and times a saturation run of
the full library on a single full-adder cone as a sanity benchmark.
"""

from common import BOOLE_OPTIONS
from repro.aig import AIG
from repro.core import BoolEPipeline, ruleset_summary


def test_table1_ruleset_counts(benchmark):
    summary = {}

    def run():
        summary.clear()
        summary.update(ruleset_summary(lightweight=False))
        aig = AIG()
        a, b, c = (aig.add_input(name) for name in "abc")
        s, carry = aig.full_adder(a, b, c)
        aig.add_output(s, "sum")
        aig.add_output(carry, "carry")
        result = BoolEPipeline(BOOLE_OPTIONS).run(aig)
        summary["fa_recovered"] = result.num_exact_fas
        return summary

    benchmark.pedantic(run, rounds=1, iterations=1)
    print("\n=== Table I (rule library) ===")
    print(f"  paper:        R1=68, MAJ rules=39, XOR rules=90")
    print(f"  reproduction: R1={summary['R1-basic']}, MAJ rules={summary['R2-maj']}, "
          f"XOR rules={summary['R2-xor']} (total {summary['total']})")

    assert summary["R1-basic"] >= 15
    assert summary["R2-xor"] > summary["R2-maj"]
    assert summary["fa_recovered"] == 1
