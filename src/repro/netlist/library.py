"""A compact standard-cell library (ASAP7-like subset).

The paper maps its benchmark multipliers with the ASAP 7 nm library (161
cells) before running symbolic reasoning.  This module provides a compact
structural stand-in: a set of combinational cells with truth tables, areas
and AIG decompositions ("blasting" functions).  Inverting cells (NAND / NOR /
AOI / OAI / XNOR) are cheaper than their non-inverting counterparts, as in
real libraries, which is what makes mapped netlists polarity-churned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

from ..aig import AIG
from ..aig.truth_table import table_mask, var_table

__all__ = ["Cell", "CellLibrary", "default_library"]

BlastFn = Callable[[AIG, Sequence[int]], int]


@dataclass(frozen=True)
class Cell:
    """One combinational standard cell.

    Attributes:
        name: cell name (e.g. ``"AOI21"``).
        num_inputs: number of input pins.
        function: truth table over the input pins (pin 0 = variable 0).
        area: abstract area cost used by the mapper.
        blast: function emitting the cell's logic into an AIG given input
            literals; returns the output literal.
        inverting: True if the cell's output is an inverting function of its
            inputs (used by the mapper's tie-breaking, mirroring the area
            advantage of inverting CMOS gates).
    """

    name: str
    num_inputs: int
    function: int
    area: float
    blast: BlastFn
    inverting: bool = False


def _tt(aig_builder: BlastFn, num_inputs: int) -> int:
    """Compute a cell's truth table by blasting it into a scratch AIG."""
    aig = AIG(name="cell_tt")
    inputs = [aig.add_input(f"x{i}") for i in range(num_inputs)]
    out = aig_builder(aig, inputs)
    aig.add_output(out)
    mask = table_mask(num_inputs)
    words = {var: var_table(position, num_inputs)
             for position, var in enumerate(aig.inputs)}
    values = aig.simulate(words, mask=mask)
    return aig.output_words(values, mask)[0]


class CellLibrary:
    """A collection of cells indexed by name and by (arity, truth table)."""

    def __init__(self, cells: Sequence[Cell]) -> None:
        self._cells: Dict[str, Cell] = {}
        for cell in cells:
            if cell.name in self._cells:
                raise ValueError(f"duplicate cell name {cell.name!r}")
            self._cells[cell.name] = cell

    def __len__(self) -> int:
        return len(self._cells)

    def __iter__(self):
        return iter(self._cells.values())

    def __contains__(self, name: str) -> bool:
        return name in self._cells

    def cell(self, name: str) -> Cell:
        """Return the cell named ``name``."""
        return self._cells[name]

    def names(self) -> List[str]:
        """Return all cell names."""
        return sorted(self._cells)

    def match_table(self, max_arity: int = 4
                    ) -> Dict[Tuple[int, int], List[Tuple[Cell, Tuple[int, ...], bool]]]:
        """Build the mapper's match index.

        Returns a map ``(arity, truth_table) -> [(cell, input_permutation,
        output_inverted), ...]`` covering every input permutation of every
        cell and both output phases.  ``input_permutation[i] = j`` means cut
        leaf ``i`` drives cell pin ``j``.
        """
        from itertools import permutations

        index: Dict[Tuple[int, int], List[Tuple[Cell, Tuple[int, ...], bool]]] = {}
        for cell in self._cells.values():
            arity = cell.num_inputs
            if arity > max_arity:
                continue
            mask = table_mask(arity)
            for perm in permutations(range(arity)):
                table = _permute_table(cell.function, perm, arity)
                index.setdefault((arity, table), []).append((cell, perm, False))
                index.setdefault((arity, ~table & mask), []).append((cell, perm, True))
        return index


def _permute_table(table: int, perm: Tuple[int, ...], num_vars: int) -> int:
    result = 0
    for minterm in range(1 << num_vars):
        if (table >> minterm) & 1:
            target = 0
            for position in range(num_vars):
                if (minterm >> position) & 1:
                    target |= 1 << perm[position]
            result |= 1 << target
    return result


# ----------------------------------------------------------------------
# Cell blasting functions.  They intentionally use structural styles that
# differ from the canonical forms in repro.aig.AIG (e.g. XOR via OR/AND form)
# so that re-blasting a mapped netlist restructures the logic.
# ----------------------------------------------------------------------

def _inv(aig: AIG, x: Sequence[int]) -> int:
    return aig.not_(x[0])


def _buf(aig: AIG, x: Sequence[int]) -> int:
    return x[0]


def _nand2(aig: AIG, x: Sequence[int]) -> int:
    return aig.nand_(x[0], x[1])


def _nor2(aig: AIG, x: Sequence[int]) -> int:
    return aig.nor_(x[0], x[1])


def _and2(aig: AIG, x: Sequence[int]) -> int:
    return aig.and_(x[0], x[1])


def _or2(aig: AIG, x: Sequence[int]) -> int:
    return aig.or_(x[0], x[1])


def _xor2(aig: AIG, x: Sequence[int]) -> int:
    # (a | b) & ~(a & b)
    return aig.and_(aig.or_(x[0], x[1]), aig.nand_(x[0], x[1]))


def _xnor2(aig: AIG, x: Sequence[int]) -> int:
    # (a & b) | ~(a | b)
    return aig.or_(aig.and_(x[0], x[1]), aig.nor_(x[0], x[1]))


def _nand3(aig: AIG, x: Sequence[int]) -> int:
    return aig.nand_(x[0], aig.and_(x[1], x[2]))


def _nor3(aig: AIG, x: Sequence[int]) -> int:
    return aig.nor_(x[0], aig.or_(x[1], x[2]))


def _and3(aig: AIG, x: Sequence[int]) -> int:
    return aig.and_(aig.and_(x[0], x[1]), x[2])


def _or3(aig: AIG, x: Sequence[int]) -> int:
    return aig.or_(aig.or_(x[0], x[1]), x[2])


def _nand4(aig: AIG, x: Sequence[int]) -> int:
    return aig.nand_(aig.and_(x[0], x[1]), aig.and_(x[2], x[3]))


def _nor4(aig: AIG, x: Sequence[int]) -> int:
    return aig.nor_(aig.or_(x[0], x[1]), aig.or_(x[2], x[3]))


def _and4(aig: AIG, x: Sequence[int]) -> int:
    return aig.and_(aig.and_(x[0], x[1]), aig.and_(x[2], x[3]))


def _or4(aig: AIG, x: Sequence[int]) -> int:
    return aig.or_(aig.or_(x[0], x[1]), aig.or_(x[2], x[3]))


def _aoi21(aig: AIG, x: Sequence[int]) -> int:
    return aig.not_(aig.or_(aig.and_(x[0], x[1]), x[2]))


def _oai21(aig: AIG, x: Sequence[int]) -> int:
    return aig.not_(aig.and_(aig.or_(x[0], x[1]), x[2]))


def _ao21(aig: AIG, x: Sequence[int]) -> int:
    return aig.or_(aig.and_(x[0], x[1]), x[2])


def _oa21(aig: AIG, x: Sequence[int]) -> int:
    return aig.and_(aig.or_(x[0], x[1]), x[2])


def _aoi22(aig: AIG, x: Sequence[int]) -> int:
    return aig.not_(aig.or_(aig.and_(x[0], x[1]), aig.and_(x[2], x[3])))


def _oai22(aig: AIG, x: Sequence[int]) -> int:
    return aig.not_(aig.and_(aig.or_(x[0], x[1]), aig.or_(x[2], x[3])))


def _ao22(aig: AIG, x: Sequence[int]) -> int:
    return aig.or_(aig.and_(x[0], x[1]), aig.and_(x[2], x[3]))


def _oa22(aig: AIG, x: Sequence[int]) -> int:
    return aig.and_(aig.or_(x[0], x[1]), aig.or_(x[2], x[3]))


def _mux2(aig: AIG, x: Sequence[int]) -> int:
    # x[2] is the select pin.
    return aig.or_(aig.and_(x[2], x[0]), aig.and_(aig.not_(x[2]), x[1]))


def _aoi211(aig: AIG, x: Sequence[int]) -> int:
    return aig.not_(aig.or_(aig.or_(aig.and_(x[0], x[1]), x[2]), x[3]))


def _oai211(aig: AIG, x: Sequence[int]) -> int:
    return aig.not_(aig.and_(aig.and_(aig.or_(x[0], x[1]), x[2]), x[3]))


def _cell(name: str, arity: int, area: float, blast: BlastFn,
          inverting: bool = False) -> Cell:
    return Cell(name=name, num_inputs=arity, function=_tt(blast, arity),
                area=area, blast=blast, inverting=inverting)


_DEFAULT_CELLS: List[Cell] = [
    _cell("INV", 1, 1.0, _inv, inverting=True),
    _cell("BUF", 1, 1.5, _buf),
    _cell("NAND2", 2, 1.5, _nand2, inverting=True),
    _cell("NOR2", 2, 1.5, _nor2, inverting=True),
    _cell("AND2", 2, 2.0, _and2),
    _cell("OR2", 2, 2.0, _or2),
    _cell("XOR2", 2, 3.0, _xor2),
    _cell("XNOR2", 2, 3.0, _xnor2, inverting=True),
    _cell("NAND3", 3, 2.0, _nand3, inverting=True),
    _cell("NOR3", 3, 2.0, _nor3, inverting=True),
    _cell("AND3", 3, 2.5, _and3),
    _cell("OR3", 3, 2.5, _or3),
    _cell("AOI21", 3, 2.0, _aoi21, inverting=True),
    _cell("OAI21", 3, 2.0, _oai21, inverting=True),
    _cell("AO21", 3, 2.5, _ao21),
    _cell("OA21", 3, 2.5, _oa21),
    _cell("MUX2", 3, 3.0, _mux2),
    _cell("NAND4", 4, 2.5, _nand4, inverting=True),
    _cell("NOR4", 4, 2.5, _nor4, inverting=True),
    _cell("AND4", 4, 3.0, _and4),
    _cell("OR4", 4, 3.0, _or4),
    _cell("AOI22", 4, 2.5, _aoi22, inverting=True),
    _cell("OAI22", 4, 2.5, _oai22, inverting=True),
    _cell("AO22", 4, 3.0, _ao22),
    _cell("OA22", 4, 3.0, _oa22),
    _cell("AOI211", 4, 2.5, _aoi211, inverting=True),
    _cell("OAI211", 4, 2.5, _oai211, inverting=True),
]

_DEFAULT_LIBRARY: CellLibrary | None = None


def default_library() -> CellLibrary:
    """Return the shared default library instance."""
    global _DEFAULT_LIBRARY
    if _DEFAULT_LIBRARY is None:
        _DEFAULT_LIBRARY = CellLibrary(_DEFAULT_CELLS)
    return _DEFAULT_LIBRARY
