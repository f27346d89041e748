"""And-Inverter Graph (AIG) data structure.

The AIG is the central Boolean-network representation used throughout the
BoolE reproduction.  It follows the AIGER convention:

* every variable ``v`` has two literals, ``2*v`` (positive) and ``2*v + 1``
  (complemented);
* variable ``0`` is the constant, so literal ``0`` is Boolean FALSE and
  literal ``1`` is Boolean TRUE;
* primary inputs are variables without a defining AND gate;
* every internal node is a two-input AND gate over two fanin literals.

The class performs structural hashing (strashing) and constant/trivial
simplification on insertion, mirroring how ABC builds AIGs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

__all__ = [
    "AIG",
    "AndGate",
    "lit_var",
    "lit_is_compl",
    "lit_not",
    "lit_regular",
    "make_lit",
    "CONST0",
    "CONST1",
]

# Literals of the constant variable (variable index 0).
CONST0 = 0
CONST1 = 1


def make_lit(var: int, compl: bool = False) -> int:
    """Build a literal from a variable index and a complement flag."""
    return 2 * var + (1 if compl else 0)


def lit_var(lit: int) -> int:
    """Return the variable index of a literal."""
    return lit >> 1


def lit_is_compl(lit: int) -> bool:
    """Return True if the literal is complemented."""
    return bool(lit & 1)


def lit_not(lit: int) -> int:
    """Return the complement of a literal."""
    return lit ^ 1


def lit_regular(lit: int) -> int:
    """Return the positive-phase (non-complemented) version of a literal."""
    return lit & ~1


@dataclass(frozen=True)
class AndGate:
    """A two-input AND gate defining one AIG variable.

    Attributes:
        out_var: variable index defined by this gate.
        fanin0: first fanin literal (by convention ``fanin0 <= fanin1``).
        fanin1: second fanin literal.
    """

    out_var: int
    fanin0: int
    fanin1: int

    @property
    def out_lit(self) -> int:
        """Positive literal of the gate's output variable."""
        return make_lit(self.out_var)

    def fanin_vars(self) -> Tuple[int, int]:
        """Return the two fanin variable indices."""
        return (lit_var(self.fanin0), lit_var(self.fanin1))


@dataclass
class AIG:
    """A structurally hashed And-Inverter Graph.

    The graph owns:

    * a list of primary-input variables (``inputs``) with optional names;
    * a list of AND gates (``gates``) in creation order, which is also a
      valid topological order (fanins always precede their fanout gate);
    * a list of primary outputs (``outputs``) given as literals with names.
    """

    name: str = "aig"
    inputs: List[int] = field(default_factory=list)
    input_names: Dict[int, str] = field(default_factory=dict)
    outputs: List[int] = field(default_factory=list)
    output_names: List[str] = field(default_factory=list)
    gates: List[AndGate] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._next_var = 1
        self._strash: Dict[Tuple[int, int], int] = {}
        self._gate_of_var: Dict[int, AndGate] = {}
        for gate in self.gates:
            self._register_gate(gate)
            self._next_var = max(self._next_var, gate.out_var + 1)
        for var in self.inputs:
            self._next_var = max(self._next_var, var + 1)

    # ------------------------------------------------------------------
    # Construction primitives
    # ------------------------------------------------------------------
    def add_input(self, name: Optional[str] = None) -> int:
        """Create a new primary input and return its positive literal."""
        var = self._next_var
        self._next_var += 1
        self.inputs.append(var)
        if name is None:
            name = f"i{len(self.inputs) - 1}"
        self.input_names[var] = name
        return make_lit(var)

    def add_output(self, lit: int, name: Optional[str] = None) -> int:
        """Register ``lit`` as a primary output; returns the output index."""
        self._check_lit(lit)
        self.outputs.append(lit)
        if name is None:
            name = f"o{len(self.outputs) - 1}"
        self.output_names.append(name)
        return len(self.outputs) - 1

    def const(self, value: bool) -> int:
        """Return the constant TRUE or FALSE literal."""
        return CONST1 if value else CONST0

    def and_(self, a: int, b: int) -> int:
        """Return the literal of ``a AND b``, with simplification and strashing."""
        self._check_lit(a)
        self._check_lit(b)
        # Trivial simplifications (same as ABC's Aig_And).
        if a == CONST0 or b == CONST0:
            return CONST0
        if a == CONST1:
            return b
        if b == CONST1:
            return a
        if a == b:
            return a
        if a == lit_not(b):
            return CONST0
        if a > b:
            a, b = b, a
        key = (a, b)
        existing = self._strash.get(key)
        if existing is not None:
            return existing
        var = self._next_var
        self._next_var += 1
        gate = AndGate(out_var=var, fanin0=a, fanin1=b)
        self.gates.append(gate)
        self._register_gate(gate)
        lit = make_lit(var)
        self._strash[key] = lit
        return lit

    def not_(self, a: int) -> int:
        """Return the complement of literal ``a``."""
        self._check_lit(a)
        return lit_not(a)

    def or_(self, a: int, b: int) -> int:
        """Return the literal of ``a OR b`` built from AND/NOT."""
        return lit_not(self.and_(lit_not(a), lit_not(b)))

    def nand_(self, a: int, b: int) -> int:
        """Return the literal of ``NOT (a AND b)``."""
        return lit_not(self.and_(a, b))

    def nor_(self, a: int, b: int) -> int:
        """Return the literal of ``NOT (a OR b)``."""
        return self.and_(lit_not(a), lit_not(b))

    def xor_(self, a: int, b: int) -> int:
        """Return the literal of ``a XOR b`` built from two AND gates."""
        return lit_not(self.and_(lit_not(self.and_(a, lit_not(b))),
                                 lit_not(self.and_(lit_not(a), b))))

    def xnor_(self, a: int, b: int) -> int:
        """Return the literal of ``NOT (a XOR b)``."""
        return lit_not(self.xor_(a, b))

    def mux_(self, sel: int, t: int, e: int) -> int:
        """Return the literal of ``sel ? t : e``."""
        return self.or_(self.and_(sel, t), self.and_(lit_not(sel), e))

    def xor3_(self, a: int, b: int, c: int) -> int:
        """Return the literal of the three-input XOR (full-adder sum)."""
        return self.xor_(self.xor_(a, b), c)

    def maj3_(self, a: int, b: int, c: int) -> int:
        """Return the literal of the three-input majority (full-adder carry)."""
        return self.or_(self.or_(self.and_(a, b), self.and_(a, c)),
                        self.and_(b, c))

    def half_adder(self, a: int, b: int) -> Tuple[int, int]:
        """Return ``(sum, carry)`` literals of a half adder."""
        return self.xor_(a, b), self.and_(a, b)

    def full_adder(self, a: int, b: int, c: int) -> Tuple[int, int]:
        """Return ``(sum, carry)`` literals of a full adder."""
        return self.xor3_(a, b, c), self.maj3_(a, b, c)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def num_inputs(self) -> int:
        """Number of primary inputs."""
        return len(self.inputs)

    @property
    def num_outputs(self) -> int:
        """Number of primary outputs."""
        return len(self.outputs)

    @property
    def num_gates(self) -> int:
        """Number of AND gates (AIG nodes)."""
        return len(self.gates)

    @property
    def num_vars(self) -> int:
        """Number of variables including the constant variable 0."""
        return self._next_var

    def is_input_var(self, var: int) -> bool:
        """Return True if ``var`` is a primary-input variable."""
        return var in self.input_names

    def is_const_var(self, var: int) -> bool:
        """Return True if ``var`` is the constant variable."""
        return var == 0

    def is_gate_var(self, var: int) -> bool:
        """Return True if ``var`` is defined by an AND gate."""
        return var in self._gate_of_var

    def gate_of(self, var: int) -> AndGate:
        """Return the AND gate defining ``var`` (raises KeyError for PIs)."""
        return self._gate_of_var[var]

    def fanins(self, var: int) -> Tuple[int, int]:
        """Return the two fanin literals of the gate defining ``var``."""
        gate = self._gate_of_var[var]
        return (gate.fanin0, gate.fanin1)

    def input_name(self, var: int) -> str:
        """Return the name of a primary-input variable."""
        return self.input_names[var]

    def topological_gates(self) -> Iterator[AndGate]:
        """Iterate gates in topological (creation) order."""
        return iter(self.gates)

    def fanout_map(self) -> Dict[int, List[int]]:
        """Return a map from variable index to the list of fanout gate variables."""
        fanouts: Dict[int, List[int]] = {var: [] for var in range(self._next_var)}
        for gate in self.gates:
            for fin in gate.fanin_vars():
                fanouts[fin].append(gate.out_var)
        return fanouts

    def levels(self) -> Dict[int, int]:
        """Return the logic level (depth) of every variable; PIs are level 0."""
        level: Dict[int, int] = {0: 0}
        for var in self.inputs:
            level[var] = 0
        for gate in self.gates:
            v0, v1 = gate.fanin_vars()
            level[gate.out_var] = 1 + max(level[v0], level[v1])
        return level

    def depth(self) -> int:
        """Return the maximum logic level over all outputs."""
        if not self.outputs:
            return 0
        level = self.levels()
        return max(level[lit_var(lit)] for lit in self.outputs)

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------
    def simulate(self, input_values: Dict[int, int],
                 mask: Optional[int] = None) -> Dict[int, int]:
        """Bit-parallel simulation.

        Args:
            input_values: map from primary-input variable to an integer whose
                bits carry one simulation pattern each.
            mask: optional bit mask limiting the pattern width (e.g.
                ``(1 << n_patterns) - 1``).  If omitted, complements are
                computed over the widest provided input word.

        Returns:
            Map from every variable index to its simulated word.
        """
        if mask is None:
            width = max((value.bit_length() for value in input_values.values()),
                        default=1)
            width = max(width, 1)
            mask = (1 << width) - 1
        values: Dict[int, int] = {0: 0}
        for var in self.inputs:
            values[var] = input_values.get(var, 0) & mask
        for gate in self.gates:
            a = self._lit_word(gate.fanin0, values, mask)
            b = self._lit_word(gate.fanin1, values, mask)
            values[gate.out_var] = a & b
        return values

    def evaluate(self, input_bits: Dict[int, bool]) -> List[bool]:
        """Evaluate the outputs for a single input assignment."""
        words = {var: (1 if bit else 0) for var, bit in input_bits.items()}
        values = self.simulate(words, mask=1)
        return [bool(self._lit_word(lit, values, 1)) for lit in self.outputs]

    def output_words(self, values: Dict[int, int], mask: int) -> List[int]:
        """Map simulated variable words to output-literal words."""
        return [self._lit_word(lit, values, mask) for lit in self.outputs]

    def _lit_word(self, lit: int, values: Dict[int, int], mask: int) -> int:
        word = values[lit_var(lit)]
        if lit_is_compl(lit):
            word = ~word & mask
        return word & mask

    # ------------------------------------------------------------------
    # Transformation helpers
    # ------------------------------------------------------------------
    def cleanup(self) -> "AIG":
        """Return a copy with dangling gates (no path to an output) removed."""
        keep = set()
        stack = [lit_var(lit) for lit in self.outputs]
        while stack:
            var = stack.pop()
            if var in keep or not self.is_gate_var(var):
                continue
            keep.add(var)
            stack.extend(self.gate_of(var).fanin_vars())
        new = AIG(name=self.name)
        mapping: Dict[int, int] = {0: CONST0}
        for var in self.inputs:
            mapping[var] = new.add_input(self.input_names[var])
        for gate in self.gates:
            if gate.out_var not in keep:
                continue
            a = self._map_lit(gate.fanin0, mapping)
            b = self._map_lit(gate.fanin1, mapping)
            mapping[gate.out_var] = new.and_(a, b)
        for lit, name in zip(self.outputs, self.output_names):
            new.add_output(self._map_lit(lit, mapping), name)
        return new

    def copy(self) -> "AIG":
        """Return a deep structural copy of the AIG."""
        new = AIG(name=self.name)
        mapping: Dict[int, int] = {0: CONST0}
        for var in self.inputs:
            mapping[var] = new.add_input(self.input_names[var])
        for gate in self.gates:
            a = self._map_lit(gate.fanin0, mapping)
            b = self._map_lit(gate.fanin1, mapping)
            mapping[gate.out_var] = new.and_(a, b)
        for lit, name in zip(self.outputs, self.output_names):
            new.add_output(self._map_lit(lit, mapping), name)
        return new

    @staticmethod
    def _map_lit(lit: int, mapping: Dict[int, int]) -> int:
        mapped = mapping[lit_var(lit)]
        return lit_not(mapped) if lit_is_compl(lit) else mapped

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------
    def _register_gate(self, gate: AndGate) -> None:
        self._gate_of_var[gate.out_var] = gate
        a, b = gate.fanin0, gate.fanin1
        if a > b:
            a, b = b, a
        self._strash.setdefault((a, b), make_lit(gate.out_var))

    def _check_lit(self, lit: int) -> None:
        if lit < 0 or lit_var(lit) >= self._next_var:
            raise ValueError(f"literal {lit} refers to an unknown variable")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"AIG(name={self.name!r}, inputs={self.num_inputs}, "
                f"outputs={self.num_outputs}, gates={self.num_gates})")
