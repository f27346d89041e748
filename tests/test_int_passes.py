"""FA pairing, the NPN count and extraction against their ``ENode`` scans.

The production passes read int rows (``search_rows`` of ``(xor3 ?a ?b
?c)``, ``(maj ?a ?b ?c)`` and ``(~ ?x)``) and the dense engine's node
columns (``DenseEGraph.node_table``); the oracles in ``enode_scans.py``
decode every node of every class.  On saturated csa4, booth4 and csa8
netlists, on both engines and at ``refine_rounds`` 0-3, they must give
the same pair list in the same order, the same NPN count and the same
``(fa_mask, size, node)`` for every extraction entry; a hypothesis run
does the same on random adder netlists.  Refinement resumed from a stored
single-pass extraction must match too.
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
from repro.egraph import DenseEGraph, EGraph, ENode, Op, Runner, RunnerLimits
from repro.egraph.dense import read_node_table
from repro.generators import booth_multiplier, csa_multiplier
from repro.opt import post_mapping_flow
from repro.store import extraction_from_wire, extraction_to_wire

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


@pytest.mark.parametrize("circuit", sorted(CIRCUITS))
def test_refinement_resumed_from_first_pass_matches(circuit):
    """``refine_rounds`` 1-3 started from a stored single-pass extraction
    (through its wire form, as a warm run reads it) give the entries of a
    full run and of the ``ENode`` scan."""
    state, roots = _saturated(circuit)
    graph = DenseEGraph.from_state(state)
    insert_fa_structures(graph)
    oracle = DenseEGraph.from_state(graph.export_state())
    first = extraction_from_wire(extraction_to_wire(
        BoolEExtractor().extract(graph, roots=roots)))
    for refine_rounds in (1, 2, 3):
        extractor = BoolEExtractor(refine_rounds=refine_rounds)
        resumed = extractor.extract(graph, roots=roots, start=first)
        full = extractor.extract(graph, roots=roots)
        reference = scan_extract(oracle, roots, refine_rounds=refine_rounds)
        assert resumed.fa_index == full.fa_index == reference.fa_index
        assert _entries(resumed) == _entries(full) == _entries(reference)


def _assert_warm_equals_cold(state, roots) -> None:
    """At refine 0-3, extraction on the snapshot's node table resumed
    from the decoded single-pass record equals extraction on the live
    graph, entry by entry through the ``entries`` mapping, and encodes to
    the same wire."""
    graph = DenseEGraph.from_state(state)
    insert_fa_structures(graph)
    table = read_node_table(graph.to_columns())
    first = extraction_from_wire(extraction_to_wire(
        BoolEExtractor().extract(graph, roots=roots)))
    for refine_rounds in range(4):
        extractor = BoolEExtractor(refine_rounds=refine_rounds)
        cold = extractor.extract(graph, roots=roots)
        warm = extractor.extract(table, roots=roots, start=first)
        assert list(warm.entries) == list(cold.entries)
        for class_id, entry in cold.entries.items():
            assert warm.entries[class_id] == entry
        assert warm.entries == cold.entries
        assert extraction_to_wire(warm) == extraction_to_wire(cold)


@pytest.mark.parametrize("circuit", sorted(CIRCUITS))
def test_warm_extraction_equals_cold_through_the_mapping(circuit):
    _assert_warm_equals_cold(*_saturated(circuit))


@given(random_adder_aigs())
@settings(max_examples=10, deadline=None)
def test_random_adders_warm_extraction_equals_cold(aig):
    _assert_warm_equals_cold(*_saturate(aig, iterations=4))


def test_refinement_ignores_a_first_pass_that_does_not_fit():
    """A start whose ``fa_index`` or chosen nodes are not this graph's is
    ignored: the extractor runs its own first pass."""
    state, roots = _saturated("csa4")
    graph = DenseEGraph.from_state(state)
    insert_fa_structures(graph)
    first = BoolEExtractor().extract(graph, roots=roots)
    expected = _entries(BoolEExtractor(refine_rounds=2).extract(
        graph, roots=roots))
    shifted = extraction_from_wire(extraction_to_wire(first))
    shifted.fa_index = shifted.fa_index[1:] + shifted.fa_index[:1]
    foreign = extraction_from_wire(extraction_to_wire(first))
    class_id, entry = max(foreign.entries.items(),
                          key=lambda item: len(item[1].node.children))
    # A node over its own class only: not a node of this graph.
    columns = foreign.node_columns
    node = foreign.entry_node[foreign.position(class_id)]
    low, high = columns["node_off"][node], columns["node_off"][node + 1]
    columns["node_child"][low:high] = [class_id] * (high - low)
    assert foreign.entries[class_id].node == ENode.unchecked(
        entry.node.op, (class_id,) * len(entry.node.children),
        entry.node.payload)
    for start in (shifted, foreign):
        resumed = BoolEExtractor(refine_rounds=2).extract(
            graph, roots=roots, start=start)
        assert _entries(resumed) == expected


@pytest.mark.parametrize("circuit", sorted(CIRCUITS))
def test_decoded_node_table_needs_no_sort(circuit):
    """One column reader: the node table read straight off a snapshot's
    columns equals the graph's, whose sorted node lists that reader's
    checked slices seed, and extraction on it gives the graph's entries;
    a class slice out of order is rejected by both decoders."""
    state, roots = _saturated(circuit)
    graph = DenseEGraph.from_state(state)
    insert_fa_structures(graph)
    columns = graph.to_columns()
    decoded = DenseEGraph.from_columns(columns)
    assert len(decoded._enode_cache) == decoded.num_classes
    table = read_node_table(columns)
    assert decoded.node_table() == table
    decoded._enode_cache.clear()
    assert decoded.node_table() == table
    extractor = BoolEExtractor(refine_rounds=2)
    on_table = extractor.extract(table, roots=roots)
    assert on_table.node_table is table and not on_table.egraph_loaded
    assert _entries(on_table) == _entries(extractor.extract(graph,
                                                            roots=roots))

    offsets = columns["class_node_off"]
    index = next(index for index in range(len(offsets) - 1)
                 if offsets[index + 1] - offsets[index] >= 2)
    low = offsets[index]
    nodes = columns["class_nodes"]
    nodes[low], nodes[low + 1] = nodes[low + 1], nodes[low]
    for read in (DenseEGraph.from_columns, read_node_table):
        with pytest.raises(ValueError, match="enode_sort_key"):
            read(columns)
