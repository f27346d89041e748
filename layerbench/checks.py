"""Answer checks applied to every job of every pass.

A job passes when its reconstructed netlist

* computes ``a * b`` on seeded random and corner operands
  (``multiplier_value_check`` with the circuit's own signedness — Booth
  netlists are two's complement and read as wrong when checked unsigned),
* agrees with the source netlist under bit-parallel random simulation, and
* keeps every recorded full adder exact: on the same simulation words each
  block's sum literal is XOR3 and its carry literal MAJ3 of its inputs.

The job's output fingerprint is the sha256 of the reconstructed AIG's wire
form; ``run.py`` compares fingerprints across passes, workloads and runs.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import List, Sequence, Tuple

from repro.aig import AIG, evaluate_words, lit_is_compl, lit_var, multiplier_value_check
from repro.store import aig_to_wire

#: Bit-parallel simulation width (patterns per input word).
SIM_PATTERNS = 2048

#: ``(input literals, sum literal, carry literal)`` of one FA block.
Block = Tuple[Sequence[int], int, int]


def wire_sha256(aig: AIG) -> str:
    """Fingerprint of a netlist: sha256 of its canonical wire JSON."""
    text = json.dumps(aig_to_wire(aig), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check_answer(source: AIG, extracted: AIG, blocks: Sequence[Block], *,
                 width: int, signed: bool, seed: int) -> List[str]:
    """All failed checks of one job (empty when the answer is right)."""
    errors: List[str] = []
    if extracted.num_inputs != source.num_inputs \
            or extracted.num_outputs != source.num_outputs:
        return [f"interface changed: {source.num_inputs}/{source.num_outputs}"
                f" -> {extracted.num_inputs}/{extracted.num_outputs} io"]
    if not multiplier_value_check(extracted, width, width, signed=signed,
                                  seed=seed):
        errors.append(f"does not compute a*b (signed={signed})")

    rng = random.Random(seed)
    words = [rng.getrandbits(SIM_PATTERNS) for _ in source.inputs]
    if evaluate_words(source, words, SIM_PATTERNS) \
            != evaluate_words(extracted, words, SIM_PATTERNS):
        errors.append("differs from the source under random simulation")

    mask = (1 << SIM_PATTERNS) - 1
    values = extracted.simulate(dict(zip(extracted.inputs, words)), mask=mask)

    def word(lit: int) -> int:
        value = values[lit_var(lit)]
        return ~value & mask if lit_is_compl(lit) else value

    inexact = 0
    for inputs, sum_lit, carry_lit in blocks:
        a, b, c = (word(lit) for lit in inputs)
        if word(sum_lit) != a ^ b ^ c \
                or word(carry_lit) != (a & b) | (a & c) | (b & c):
            inexact += 1
    if inexact:
        errors.append(f"{inexact} of {len(blocks)} FA blocks are not "
                      "XOR3/MAJ3 of their inputs")
    return errors
