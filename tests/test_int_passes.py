"""FA pairing, the NPN count and extraction against their ``ENode`` scans.

The production passes read int rows (``search_rows`` of ``(xor3 ?a ?b
?c)``, ``(maj ?a ?b ?c)`` and ``(~ ?x)``) and the dense engine's node
columns (``DenseEGraph.node_table``); the oracles in ``enode_scans.py``
decode every node of every class.  On saturated csa4, booth4 and csa8
netlists, on both engines and at ``refine_rounds`` 0-3, they must give
the same pair list in the same order, the same NPN count and the same
``(fa_mask, size, node)`` for every extraction entry; a hypothesis run
does the same on random adder netlists.
"""

from __future__ import annotations

import functools

import pytest
from enode_scans import (
    scan_count_npn_fa_pairs,
    scan_extract,
    scan_insert_fa_structures,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aig import AIG
from repro.core.construct import aig_to_egraph
from repro.core.extraction import BoolEExtractor
from repro.core.fa_structure import count_npn_fa_pairs, insert_fa_structures
from repro.core.rules_basic import basic_rules
from repro.core.rules_xor_maj import identification_rules
from repro.egraph import DenseEGraph, EGraph, Op, Runner, RunnerLimits
from repro.generators import booth_multiplier, csa_multiplier
from repro.opt import post_mapping_flow

#: The operators the pipeline prunes before pairing.
PRUNED = {Op.XOR3, Op.MAJ, Op.FA, Op.XOR, Op.AND, Op.OR}

CIRCUITS = {"csa4": (csa_multiplier, 4), "booth4": (booth_multiplier, 4),
            "csa8": (csa_multiplier, 8)}

ENGINES = {"dense": DenseEGraph, "python": EGraph}


def _saturate(aig: AIG, iterations: int = 3):
    """Construct, run R1 and R2 and prune, on the dense engine; returns the
    graph's state and the output classes."""
    construction = aig_to_egraph(aig)
    graph = DenseEGraph.from_state(construction.egraph.export_state())
    Runner(RunnerLimits(max_iterations=iterations)).run(graph, basic_rules())
    Runner(RunnerLimits(max_iterations=iterations)).run(
        graph, identification_rules())
    graph.prune_duplicates(PRUNED)
    return graph.export_state(), list(construction.output_classes)


@functools.lru_cache(maxsize=None)
def _saturated(name: str):
    generate, width = CIRCUITS[name]
    return _saturate(post_mapping_flow(generate(width).aig))


def _entries(extraction):
    return {class_id: (entry.fa_mask, entry.size, entry.node)
            for class_id, entry in extraction.entries.items()}


def _assert_passes_match(state, roots, engine) -> None:
    """Pairing, NPN count and extraction at refine 0-3 on two copies of
    ``state``: production passes on one, the scans on the other."""
    production = engine.from_state(state)
    oracle = engine.from_state(state)
    pairs = insert_fa_structures(production).pairs
    assert pairs == scan_insert_fa_structures(oracle).pairs
    assert count_npn_fa_pairs(production) == scan_count_npn_fa_pairs(oracle)
    for refine_rounds in range(4):
        extraction = BoolEExtractor(refine_rounds=refine_rounds).extract(
            production, roots=roots)
        reference = scan_extract(oracle, roots, refine_rounds=refine_rounds)
        assert extraction.egraph is production
        assert extraction.fa_index == reference.fa_index
        assert _entries(extraction) == _entries(reference)


@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize("circuit", sorted(CIRCUITS))
def test_passes_match_enode_scans(circuit, engine):
    state, roots = _saturated(circuit)
    _assert_passes_match(state, roots, ENGINES[engine])


def test_saturated_circuits_pair_full_adders():
    """The cases exercise pairing and FA-bearing extraction at all."""
    for circuit in CIRCUITS:
        state, roots = _saturated(circuit)
        graph = DenseEGraph.from_state(state)
        assert insert_fa_structures(graph).pairs
        extraction = BoolEExtractor().extract(graph, roots=roots)
        assert extraction.num_exact_fas(roots) > 0


@st.composite
def random_adder_aigs(draw):
    """A random netlist of XOR/MAJ/full-adder cells over possibly negated
    signals, so R2 has XOR3/MAJ3 nodes to find and pair."""
    num_inputs = draw(st.integers(min_value=3, max_value=5))
    aig = AIG(name="rand-adders")
    signals = [aig.add_input(f"x{i}") for i in range(num_inputs)]
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        a, b, c = (signals[draw(st.integers(0, len(signals) - 1))]
                   ^ draw(st.integers(0, 1)) for _ in range(3))
        cell = draw(st.sampled_from(["fa", "xor", "maj", "and"]))
        if cell == "fa":
            signals.extend(aig.full_adder(a, b, c))
        elif cell == "xor":
            signals.append(aig.xor_(aig.xor_(a, b), c))
        elif cell == "maj":
            signals.append(aig.or_(aig.and_(a, b),
                                   aig.and_(c, aig.or_(a, b))))
        else:
            signals.append(aig.and_(a, b))
    for index, lit in enumerate(signals[num_inputs:]):
        aig.add_output(lit, f"f{index}")
    return aig


@given(random_adder_aigs(), st.sampled_from(sorted(ENGINES)))
@settings(max_examples=15, deadline=None)
def test_random_adders_match_enode_scans(aig, engine):
    state, roots = _saturate(aig, iterations=4)
    _assert_passes_match(state, roots, ENGINES[engine])
