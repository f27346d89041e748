"""Prefix-shared e-matching: one generated Python function per plan group.

The dense engine compiles each pattern into a pre-order step program over
row slots (:meth:`~repro.egraph.dense.DenseEGraph._compile_match`):

* ``("expand", src, op_id, arity, base)`` — branch on every ``op_id``
  e-node of arity ``arity`` in class ``s<src>``, binding its children to
  slots ``base .. base + arity - 1``;
* ``("leaf", src, op_id, payload_id)`` — keep one branch per leaf e-node
  of that operator and payload in class ``s<src>``;
* ``("check", src, bound)`` — keep the branch when ``s<src> == s<bound>``
  (a repeated pattern variable).

Plans searched over the same candidate roots form a *group*.  Their
programs are merged into a trie, and the trie becomes nested loops: a step
that several programs start with runs once per partial match, and each
plan's rows are appended where its program ends.  Every plan still sees
its own matches in depth-first pre-order, root by root — the order of
:meth:`~repro.egraph.pattern.MatchPlan.search` — because the loops of the
other plans only interleave with its own, never reorder them.

CPython refuses more than 20 statically nested blocks in one function, and
an R2 program has 26 steps, so a subtree that would nest deeper than
:data:`MAX_LOOPS` loops moves into a helper function called with the slots
bound so far.  The generated source holds only ints (operator, payload and
slot ids) and identifiers; the tables it reads are arguments of the
factory it defines.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Dict, List, Sequence, Tuple

__all__ = ["Program", "compile_matcher", "matcher_source"]

#: One plan's compiled form: its step program and the slots its row is
#: built from (the root slot 0, then each pattern variable's first slot).
Program = Tuple[Tuple[Tuple, ...], Tuple[int, ...]]

#: Loops one generated function may nest (CPython's block limit is 20).
MAX_LOOPS = 16

#: Indentation levels one generated function may reach before the rest of
#: a subtree moves into a helper (the tokenizer's limit is 100).
MAX_INDENT = 48


def _names(slots: Sequence[int]) -> str:
    """``s1, s2`` — the slot variables as a tuple display (``s1,`` for one)."""
    text = ", ".join(f"s{slot}" for slot in slots)
    return text + "," if len(slots) == 1 else text


class _Node:
    """A trie node: the steps that follow it, and the plans ending here."""

    __slots__ = ("children", "ends")

    def __init__(self) -> None:
        self.children: Dict[Tuple, _Node] = {}
        self.ends: List[int] = []


def _trie(programs: Sequence[Program]) -> _Node:
    root = _Node()
    for index, (steps, _sink) in enumerate(programs):
        node = root
        for step in steps:
            child = node.children.get(step)
            if child is None:
                child = node.children[step] = _Node()
            node = child
        node.ends.append(index)
    return root


class _Writer:
    """Emits the factory source: one ``run`` function plus helpers."""

    def __init__(self, programs: Sequence[Program]) -> None:
        self.programs = programs
        self.tails: Dict[Tuple[int, int], str] = {}
        self.functions: List[List[str]] = []

    def tail_getter(self, op_id: int, arity: int) -> str:
        name = self.tails.get((op_id, arity))
        if name is None:
            name = self.tails[(op_id, arity)] = f"t{len(self.tails)}"
        return name

    def defaults(self) -> str:
        """Keyword defaults binding the factory's tables as fast locals."""
        names = (list(self.tails.values())
                 + [f"o{index}" for index in range(len(self.programs))]
                 + ["expand", "span_get", "op_spans", "enodes", "payloads"])
        return ", ".join(f"{name}={name}" for name in names)

    def body(self, node: _Node, bound: Tuple[int, ...], lines: List[str],
             indent: int, loops: int) -> None:
        """Emit the plans ending at ``node`` and the steps below it."""
        pad = "    " * indent
        sinks: Dict[Tuple[int, ...], List[int]] = {}
        for index in node.ends:
            sinks.setdefault(self.programs[index][1], []).append(index)
        for sink, indices in sinks.items():
            row = f"({_names(sink)})"
            if len(indices) == 1:
                lines.append(f"{pad}o{indices[0]}({row})")
                continue
            lines.append(f"{pad}r = {row}")
            lines += [f"{pad}o{index}(r)" for index in indices]
        for step, child in node.children.items():
            opens_loop = step[0] != "check"
            if (opens_loop and loops >= MAX_LOOPS) or indent >= MAX_INDENT:
                name = self.helper(step, child, bound)
                lines.append(f"{pad}ops += {name}({_names(bound)})")
                continue
            self.step(step, child, bound, lines, indent, loops)

    def step(self, step: Tuple, child: _Node, bound: Tuple[int, ...],
             lines: List[str], indent: int, loops: int) -> None:
        pad = "    " * indent
        kind = step[0]
        if kind == "check":
            _, src, other = step
            lines.append(f"{pad}if s{src} == s{other}:")
            self.body(child, bound, lines, indent + 1, loops)
        elif kind == "expand":
            _, src, op_id, arity, base = step
            getter = self.tail_getter(op_id, arity)
            slots = tuple(range(base, base + arity))
            target = _names(slots) if slots else "_"
            lines += [f"{pad}e = {getter}(s{src})",
                      f"{pad}if not e:",
                      f"{pad}    e = expand(s{src}, {op_id}, {arity})",
                      f"{pad}ops += e[1]",
                      f"{pad}for {target} in e[0]:"]
            self.body(child, bound + slots, lines, indent + 1, loops + 1)
        else:  # leaf
            _, src, op_id, payload_id = step
            inner = pad + "    "
            lines += [f"{pad}p = span_get(s{src})",
                      f"{pad}if not p:",
                      f"{pad}    p = op_spans(s{src})",
                      f"{pad}p = p.get({op_id})",
                      f"{pad}if p:",
                      f"{inner}ops += p[1] - p[0]",
                      f"{inner}for n in enodes[s{src}][p[0]:p[1]]:",
                      f"{inner}    if payloads[n] == {payload_id}:"]
            self.body(child, bound, lines, indent + 3, loops + 1)

    def helper(self, step: Tuple, child: _Node,
               bound: Tuple[int, ...]) -> str:
        """Move one subtree into a helper function; returns its name."""
        name = f"h{len(self.functions)}"
        lines: List[str] = []
        self.functions.append(lines)
        self.step(step, child, bound, lines, 2, 0)
        params = ", ".join(f"s{slot}" for slot in bound)
        lines[:0] = [f"    def {name}({params}, *, {{defaults}}):",
                     "        ops = 0"]
        lines.append("        return ops")
        return name

    def source(self) -> str:
        run: List[str] = []
        self.body(_trie(self.programs), (0,), run, 3, 1)
        head = ["def make(tails, expand, span_get, op_spans, enodes, payloads,"
                " outs):"]
        head += [f"    {name} = tails.setdefault(({op_id}, {arity}), {{}}).get"
                 for (op_id, arity), name in self.tails.items()]
        head += [f"    o{index} = outs[{index}].append"
                 for index in range(len(self.programs))]
        defaults = self.defaults()
        out = head
        for lines in self.functions:
            out += [line.replace("{defaults}", defaults) if index == 0
                    else line for index, line in enumerate(lines)]
        out += [f"    def run(roots, *, {defaults}):",
                "        ops = 0",
                "        for s0 in roots:"]
        out += run
        out += ["        return ops", "    return run", ""]
        return "\n".join(out)


def matcher_source(programs: Sequence[Program]) -> str:
    """Python source of the factory for one group's shared matcher."""
    return _Writer(programs).source()


@lru_cache(maxsize=256)
def compile_matcher(programs: Tuple[Program, ...]) -> Callable:
    """Compile (once per distinct group) the factory for ``programs``.

    ``make(tails, expand, span_get, op_spans, enodes, payloads, outs)``
    binds an engine's tables and one output list per program, and returns
    ``run(roots) -> ops``: it appends every program's rows for the given
    roots, in order, and returns the number of e-node span entries it
    scanned.
    """
    namespace: Dict[str, object] = {}
    exec(compile(matcher_source(programs), "<matcher>", "exec"), namespace)
    # Popped, so the namespace (``make.__globals__``) does not refer back
    # to ``make``: no reference cycle outlives a cache eviction.
    return namespace.pop("make")
