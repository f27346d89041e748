"""Golden pins for saturation: exact values recorded on the pre-row-path
engine.

Both engines share one ``apply_rules`` loop (``search_batch`` →
``apply_rows``), so the dense-vs-python oracle cannot catch a bug in that
loop.  These pins can: for small post-mapping multipliers at r1 = r2 = 3
they hold the saturated graph's wire sha256, a digest of every per-rule
R1/R2 ``RuleStats``, the exact and NPN FA counts and the store key that
``python -m repro.store key`` prints.  A third case runs with a small
``match_limit`` so the back-off ban path is pinned too.  The
``csa4-python`` case runs the whole pipeline on the object-graph oracle
by substituting the saturate phases' conversion to the dense engine.

Regenerate (only when a change is *meant* to alter saturation) with::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys

from unittest import mock

import pytest

from repro.core import BoolEOptions, BoolEPipeline, phases
from repro.egraph import DenseEGraph, EGraph, as_engine
from repro.generators import booth_multiplier, csa_multiplier
from repro.opt import post_mapping_flow
from repro.store import egraph_to_wire
from repro.store.__main__ import main as store_main

#: name -> (arch, width, pipeline options beyond r1 = r2 = 3, engine the
#: pipeline saturates on).  The python engine must reproduce the dense
#: pins exactly.
CASES = {
    "csa4": ("csa", 4, {}, "dense"),
    "booth4": ("booth", 4, {}, "dense"),
    "csa4-banned": ("csa", 4, {"match_limit": 300}, "dense"),
    "csa4-python": ("csa", 4, {}, "python"),
}

#: Recorded on the engine before matches became int rows end to end; the
#: store keys were re-recorded whenever fields left ``BoolEOptions`` (and
#: with them the options fingerprint): the flat match cap and the
#: matching-mode options, then the rule-variant and pruning switches; and
#: once more when the R2 sorted-children appliers became ``(xor3 ...)`` /
#: ``(maj ...)`` right-hand sides (the ruleset fingerprint covers them);
#: and for the codec v5, v6, v7, v8 and v9 bumps (the codec version salts
#: every key).  Every pin but the FA counts and the R1 stats was re-recorded
#: when R2 dropped its 41 subsumed polarity variants.
GOLDEN = {
    "booth4": {
        "egraph_sha256":
            "960ba54a9605d9cbfbc33d903e6fb104d26558f1cae273ce2d41f4e4194da668",
        "exact_fas": 5,
        "npn_fas": 6,
        "r1_stats_sha256":
            "e643c160d9fc1a759104ef9e68e4da1b70f321b03ffa393f5db72a99d75a1fbe",
        "r2_bans": 0,
        "r2_stats_sha256":
            "2f17a36a08ab208c091ad80df642270bfacd0c55180d9023f3128edbd14a560c",
        "r2_unions": 14189,
        "store_key":
            "a8e12aa78fab0ce2301330918747d517755bef825288d7667697fd70494ffce1",
    },
    "csa4": {
        "egraph_sha256":
            "ae107e15e385d962d2e04393e52fd67ac6e05e2b0c0d4155e29219260831bab3",
        "exact_fas": 8,
        "npn_fas": 8,
        "r1_stats_sha256":
            "d1e02e73ab3e25d14585c5ab75894ec01792b8446c3efa84622df9c8dd164193",
        "r2_bans": 0,
        "r2_stats_sha256":
            "373da69affd4b23441c66ba4e913c5750f4fcabf38f3350323656f9796df7592",
        "r2_unions": 6199,
        "store_key":
            "f15c2c98ceca651586341b83d1cf9a1cfcc38e50d9eb0c0916087dd5241d138e",
    },
    "csa4-banned": {
        "egraph_sha256":
            "63226da6f8702f93e05f30a4f14f1331f70d2fe8ebe004a3402ca1084e82fc6d",
        "exact_fas": 8,
        "npn_fas": 8,
        "r1_stats_sha256":
            "d1e02e73ab3e25d14585c5ab75894ec01792b8446c3efa84622df9c8dd164193",
        "r2_bans": 9,
        "r2_stats_sha256":
            "99e24ceb10a349ddb762f05feac0c2b9110fe5ae953f78121b3e009114b63037",
        "r2_unions": 898,
        "store_key":
            "17015a61834a2ba53b92df24aeabb4812f53c6d27a261622e962b0692eb4c466",
    },
    "csa4-python": {
        "egraph_sha256":
            "ae107e15e385d962d2e04393e52fd67ac6e05e2b0c0d4155e29219260831bab3",
        "exact_fas": 8,
        "npn_fas": 8,
        "r1_stats_sha256":
            "d1e02e73ab3e25d14585c5ab75894ec01792b8446c3efa84622df9c8dd164193",
        "r2_bans": 0,
        "r2_stats_sha256":
            "373da69affd4b23441c66ba4e913c5750f4fcabf38f3350323656f9796df7592",
        "r2_unions": 6199,
        "store_key":
            "f15c2c98ceca651586341b83d1cf9a1cfcc38e50d9eb0c0916087dd5241d138e",
    },
}


def _sha256(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _rule_stats(report):
    return [[iteration.index, name, stats.matches, stats.applications,
             stats.unions, stats.capped, stats.banned]
            for iteration in report.iterations
            for name, stats in iteration.rule_stats.items()]


def fingerprint(arch: str, width: int, options: dict, engine: str) -> dict:
    """Everything a golden case pins, computed from scratch."""
    generator = csa_multiplier if arch == "csa" else booth_multiplier
    argv = ["key", "--arch", arch, "--width", str(width),
            "--r1-iterations", "3", "--r2-iterations", "3"]
    if "match_limit" in options:
        argv += ["--match-limit", str(options["match_limit"])]
    with mock.patch.object(phases, "as_engine",
                           lambda egraph, _: as_engine(egraph, engine)):
        result = BoolEPipeline(BoolEOptions(
            r1_iterations=3, r2_iterations=3, **options)).run(
            post_mapping_flow(generator(width).aig))
    assert isinstance(result.construction.egraph,
                      DenseEGraph if engine == "dense" else EGraph)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert store_main(argv) == 0
    return {
        "egraph_sha256": _sha256(egraph_to_wire(result.construction.egraph)),
        "r1_stats_sha256": _sha256(_rule_stats(result.r1_report)),
        "r2_stats_sha256": _sha256(_rule_stats(result.r2_report)),
        "r2_unions": result.r2_report.total_unions(),
        "r2_bans": result.r2_report.total_bans(),
        "exact_fas": result.num_exact_fas,
        "npn_fas": result.num_npn_fas,
        "store_key": out.getvalue().strip(),
    }


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_saturation(case):
    assert fingerprint(*CASES[case]) == GOLDEN[case]


if __name__ == "__main__":
    json.dump({case: fingerprint(*CASES[case]) for case in sorted(CASES)},
              sys.stdout, indent=4, sort_keys=True)
    print()
