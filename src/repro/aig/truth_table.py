"""Truth-table utilities for small Boolean functions and AIG cones.

Truth tables are packed into Python integers: a function over ``k`` variables
is a ``2**k``-bit integer whose bit ``m`` is the function value on minterm
``m`` (variable 0 being the least-significant selector).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from .aig import AIG, lit_is_compl, lit_var

__all__ = [
    "table_mask",
    "var_table",
    "table_not",
    "cofactors",
    "cone_truth_table",
    "output_truth_tables",
    "aig_equivalent",
    "XOR3_TABLE",
    "MAJ3_TABLE",
    "XOR2_TABLE",
    "AND2_TABLE",
]


def table_mask(num_vars: int) -> int:
    """Return the all-ones mask for a ``num_vars``-variable truth table."""
    return (1 << (1 << num_vars)) - 1


def var_table(index: int, num_vars: int) -> int:
    """Return the truth table of projection variable ``index``.

    Variable 0 alternates every minterm (``0101...``), variable 1 every two
    minterms, and so on.
    """
    if index >= num_vars:
        raise ValueError(f"variable {index} out of range for {num_vars} variables")
    block = 1 << index
    pattern = ((1 << block) - 1) << block
    period = 2 * block
    table = 0
    for offset in range(0, 1 << num_vars, period):
        table |= pattern << offset
    return table & table_mask(num_vars)


def table_not(table: int, num_vars: int) -> int:
    """Complement a truth table over ``num_vars`` variables."""
    return ~table & table_mask(num_vars)


def cofactors(table: int, var_index: int, num_vars: int) -> Tuple[int, int]:
    """Return the (negative, positive) cofactors with respect to ``var_index``.

    Both cofactors are returned as truth tables over the same variable set
    (the cofactored variable simply becomes a don't-care).
    """
    mask = table_mask(num_vars)
    var = var_table(var_index, num_vars)
    positive = table & var
    negative = table & ~var & mask
    block = 1 << var_index
    positive = positive | (positive >> block)
    negative = negative | (negative << block)
    return negative & mask, positive & mask


def cone_truth_table(aig: AIG, root_var: int, leaves: Sequence[int]) -> int:
    """Compute the truth table of gate variable ``root_var`` over ``leaves``.

    Args:
        aig: the AIG.
        root_var: variable index of the cone root.
        leaves: ordered variable indices treated as the cone inputs.

    Returns:
        A packed truth table over ``len(leaves)`` variables.

    Raises:
        ValueError: if the cone depends on a variable outside ``leaves`` that
            is not itself driven by gates within the cone.
    """
    num_vars = len(leaves)
    mask = table_mask(num_vars)
    values: Dict[int, int] = {0: 0}
    for position, leaf in enumerate(leaves):
        values[leaf] = var_table(position, num_vars)

    # Depth-first over the cone with an explicit stack, fanin0 first.
    stack = [root_var]
    while stack:
        var = stack[-1]
        if var in values:
            stack.pop()
            continue
        if not aig.is_gate_var(var):
            raise ValueError(
                f"cone of variable {root_var} depends on free variable {var} "
                f"not listed among the leaves {list(leaves)}")
        gate = aig.gate_of(var)
        missing = [lit_var(lit) for lit in (gate.fanin1, gate.fanin0)
                   if lit_var(lit) not in values]
        if missing:
            stack += missing
            continue
        stack.pop()
        words = [(~values[lit_var(lit)] & mask) if lit_is_compl(lit)
                 else values[lit_var(lit)]
                 for lit in (gate.fanin0, gate.fanin1)]
        values[var] = words[0] & words[1]
    return values[root_var] & mask


def output_truth_tables(aig: AIG) -> List[int]:
    """Return the truth table of every primary output over all primary inputs.

    Only sensible for small AIGs (up to roughly 16 inputs).
    """
    num_vars = aig.num_inputs
    if num_vars > 20:
        raise ValueError("too many inputs for exhaustive truth tables")
    mask = table_mask(num_vars)
    words = {var: var_table(position, num_vars)
             for position, var in enumerate(aig.inputs)}
    values = aig.simulate(words, mask=mask)
    return aig.output_words(values, mask)


def aig_equivalent(left: AIG, right: AIG) -> bool:
    """Exhaustively check combinational equivalence of two small AIGs.

    The AIGs must have the same number of inputs and outputs; inputs are
    matched positionally.
    """
    if left.num_inputs != right.num_inputs or left.num_outputs != right.num_outputs:
        return False
    return output_truth_tables(left) == output_truth_tables(right)


def _named_table(bits: Sequence[int]) -> int:
    table = 0
    for minterm, value in enumerate(bits):
        if value:
            table |= 1 << minterm
    return table


# Reference truth tables over (a, b, c) with a as variable 0.
AND2_TABLE = _named_table([0, 0, 0, 1])
XOR2_TABLE = _named_table([0, 1, 1, 0])
XOR3_TABLE = _named_table([0, 1, 1, 0, 1, 0, 0, 1])
MAJ3_TABLE = _named_table([0, 0, 0, 1, 0, 1, 1, 1])
