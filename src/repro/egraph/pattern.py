"""Pattern language for e-matching and rule right-hand sides.

Patterns are written as s-expressions, e.g. ``"(& ?a (~ ?b))"``.  Tokens
starting with ``?`` are pattern variables; ``0``/``1`` are Boolean constants;
any other bare token is a concrete named variable (rarely needed in rules).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import (
    TYPE_CHECKING,
    AbstractSet,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from .enode import SORTED_OPS, ENode, Op

if TYPE_CHECKING:  # egraph.py imports this module for the row adapter
    from .egraph import EGraph

__all__ = [
    "Pattern",
    "PatternVar",
    "PatternNode",
    "MatchPlan",
    "compile_pattern",
    "parse_pattern",
    "Subst",
    "Row",
    "Slots",
    "Search",
    "Request",
]

Subst = Dict[str, int]

#: One match as the engines hand it from search to apply: the root class in
#: position 0, then each pattern variable's class in :func:`pattern_vars`
#: order (``Slots`` maps a variable name to its position).
Row = Tuple[int, ...]
Slots = Dict[str, int]

#: One plan to search: the compiled plan and the classes its root may be
#: (``None`` = anywhere in the e-graph).
Search = Tuple["MatchPlan", Optional[AbstractSet[int]]]
#: One rule's searches with its match budget (``None`` = unbounded), the
#: unit an engine's ``search_batch`` answers: every plan's rows, or
#: ``None`` once the searches together find more than ``budget`` matches.
Request = Tuple[Optional[int], Sequence[Search]]


@dataclass(frozen=True)
class PatternVar:
    """A pattern variable such as ``?a``."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class PatternNode:
    """An operator pattern with child patterns."""

    op: str
    children: Tuple["Pattern", ...] = ()
    payload: Optional[object] = None

    def __str__(self) -> str:
        if self.op == Op.VAR:
            return str(self.payload)
        if self.op == Op.CONST:
            return "1" if self.payload else "0"
        inner = " ".join(str(child) for child in self.children)
        return f"({self.op} {inner})" if inner else f"({self.op})"


Pattern = Union[PatternVar, PatternNode]


def _tokenize(text: str) -> List[str]:
    return text.replace("(", " ( ").replace(")", " ) ").split()


def _parse_tokens(tokens: List[str], position: int) -> Tuple[Pattern, int]:
    token = tokens[position]
    if token == "(":
        op = tokens[position + 1]
        position += 2
        children: List[Pattern] = []
        while tokens[position] != ")":
            child, position = _parse_tokens(tokens, position)
            children.append(child)
        return PatternNode(op, tuple(children)), position + 1
    if token == ")":
        raise ValueError("unexpected ')' in pattern")
    position += 1
    if token.startswith("?"):
        return PatternVar(token), position
    if token in ("0", "false"):
        return PatternNode(Op.CONST, (), False), position
    if token in ("1", "true"):
        return PatternNode(Op.CONST, (), True), position
    return PatternNode(Op.VAR, (), token), position


def parse_pattern(text: str) -> Pattern:
    """Parse an s-expression pattern string."""
    tokens = _tokenize(text)
    if not tokens:
        raise ValueError("empty pattern")
    pattern, position = _parse_tokens(tokens, 0)
    if position != len(tokens):
        raise ValueError(f"trailing tokens in pattern {text!r}")
    return pattern


def pattern_vars(pattern: Pattern) -> List[str]:
    """Return the pattern variables appearing in ``pattern`` (in order)."""
    result: List[str] = []
    stack: List[Pattern] = [pattern]
    while stack:  # pre-order, children left to right
        node = stack.pop()
        if isinstance(node, PatternNode):
            stack += reversed(node.children)
        elif node.name not in result:
            result.append(node.name)
    return result


def match_in_class(egraph: EGraph, pattern: Pattern, class_id: int,
                   subst: Subst) -> Iterator[Subst]:
    """Yield all substitutions matching ``pattern`` against an e-class."""
    class_id = egraph.find(class_id)
    if isinstance(pattern, PatternVar):
        bound = subst.get(pattern.name)
        if bound is None:
            new_subst = dict(subst)
            new_subst[pattern.name] = class_id
            yield new_subst
        elif egraph.find(bound) == class_id:
            yield subst
        return

    nodes = egraph.enodes(class_id)
    egraph.match_ops += len(nodes)
    for node in nodes:
        if node.op != pattern.op:
            continue
        if pattern.op in (Op.VAR, Op.CONST):
            if node.payload == pattern.payload:
                yield subst
            continue
        if len(node.children) != len(pattern.children):
            continue
        yield from _match_children(egraph, pattern.children, node.children, 0, subst)


def _match_children(egraph: EGraph, patterns: Sequence[Pattern],
                    children: Sequence[int], index: int,
                    subst: Subst) -> Iterator[Subst]:
    if index == len(patterns):
        yield subst
        return
    for partial in match_in_class(egraph, patterns[index], children[index], subst):
        yield from _match_children(egraph, patterns, children, index + 1, partial)


def ematch(egraph: EGraph, pattern: Pattern) -> List[Tuple[int, Subst]]:
    """Find all matches of ``pattern`` in the e-graph.

    Returns a list of ``(class_id, substitution)`` pairs.  The pattern is
    compiled into a (cached) :class:`MatchPlan` that drives candidate
    selection from the e-graph's persistent operator index.
    """
    return list(compile_pattern(pattern).search(egraph))


# ----------------------------------------------------------------------
# Compiled match plans.
# ----------------------------------------------------------------------

#: Maximum pattern depth at which pivoting on a non-root operator is still
#: cheaper than scanning the root operator's candidate classes directly.
_MAX_PIVOT_DEPTH = 2

#: The pivot's candidate set must be at least this many times smaller than
#: the root's before an ancestor walk is attempted.
_PIVOT_ADVANTAGE = 4


@dataclass
class MatchPlan:
    """A reusable, compiled e-matching strategy for one pattern.

    Compilation extracts the static facts the matcher needs on every
    iteration — the root operator, the pattern height (deepest position,
    root = 0), and the minimum depth at which each operator occurs — so the
    per-iteration work reduces to cheap set operations on the e-graph's
    persistent operator index:

    * if any operator of the pattern has no candidate class, there can be no
      match anywhere and the rule is skipped outright;
    * candidate roots are generated from the pattern's most selective
      operator: either the root operator's classes directly, or — when a
      sub-operator is much rarer — an ancestor walk of ``depth`` levels up
      the parent pointers from that operator's classes;
    * a ``restrict`` set (the dirty frontier expanded to this plan's height)
      intersects the candidates, which is what makes delta matching O(changed
      region) instead of O(e-graph).

    ``slots`` names the row position of each pattern variable: a match
    row is ``(root, *classes)`` in :func:`pattern_vars` order.
    """

    pattern: Pattern
    root_op: Optional[str]
    height: int
    op_min_depth: Dict[str, int] = field(default_factory=dict)
    slots: Slots = field(default_factory=dict)

    def candidate_roots(self, egraph: EGraph,
                        restrict: Optional[AbstractSet[int]] = None
                        ) -> List[int]:
        """Canonical class ids that may root a match, in stable (seq) order.

        The returned list is sorted by the e-graph's insertion seq so the
        match stream — and therefore any truncation of it — is deterministic
        regardless of hash seed.
        """
        if self.root_op is None:
            all_classes = egraph.class_ids()  # already seq-sorted
            if restrict is None:
                return all_classes
            return [cid for cid in all_classes if cid in restrict]
        roots: AbstractSet[int] = egraph.candidate_classes(self.root_op)
        if not roots:
            return []
        if restrict is not None:
            # Delta iteration: the frontier already bounds the work, so the
            # pivot machinery below (which canonicalises every operator's
            # candidate set) would cost more than the scan it prunes.
            return egraph.sorted_by_seq(roots & restrict)
        pivot_classes: Optional[AbstractSet[int]] = None
        pivot_depth = 0
        for op, depth in self.op_min_depth.items():
            if op == self.root_op:
                continue
            classes = egraph.candidate_classes(op)
            if not classes:
                return []
            # Only walk-eligible positions can serve as pivots.
            if (0 < depth <= _MAX_PIVOT_DEPTH
                    and (pivot_classes is None
                         or len(classes) < len(pivot_classes))):
                pivot_classes, pivot_depth = classes, depth
        if (pivot_classes is not None
                and len(pivot_classes) * _PIVOT_ADVANTAGE <= len(roots)):
            ancestors: AbstractSet[int] = pivot_classes
            for _ in range(pivot_depth):
                level = set()
                for class_id in ancestors:
                    level |= egraph.parent_classes(class_id)
                ancestors = level
            roots = ancestors & roots
        return egraph.sorted_by_seq(roots)

    def search(self, egraph: EGraph,
               restrict: Optional[AbstractSet[int]] = None
               ) -> Iterator[Tuple[int, Subst]]:
        """Yield ``(root_class, substitution)`` matches of the pattern.

        ``restrict`` limits the candidate roots to the given canonical class
        ids (``None`` means the whole e-graph).  Matches are produced in a
        deterministic order: roots ascend by insertion seq and the e-nodes
        within each class are visited in :func:`~repro.egraph.egraph
        .enode_sort_key` order.
        """
        if isinstance(self.pattern, PatternVar):
            classes: Iterable[int] = (egraph.class_ids() if restrict is None
                                      else egraph.sorted_by_seq(restrict))
            for class_id in classes:
                root = egraph.find(class_id)
                yield root, {self.pattern.name: root}
            return
        for root in self.candidate_roots(egraph, restrict):
            for subst in match_in_class(egraph, self.pattern, root, {}):
                yield root, subst


@lru_cache(maxsize=None)
def compile_pattern(pattern: Pattern) -> MatchPlan:
    """Compile ``pattern`` into a cached, reusable :class:`MatchPlan`."""
    slots = {name: index
             for index, name in enumerate(pattern_vars(pattern), 1)}
    if isinstance(pattern, PatternVar):
        return MatchPlan(pattern=pattern, root_op=None, height=0, slots=slots)

    op_min_depth: Dict[str, int] = {}
    height = 0
    stack: List[Tuple[Pattern, int]] = [(pattern, 0)]
    while stack:  # pre-order, so operators enter op_min_depth in that order
        node, depth = stack.pop()
        height = max(height, depth)
        if isinstance(node, PatternVar):
            continue
        current = op_min_depth.get(node.op)
        if current is None or depth < current:
            op_min_depth[node.op] = depth
        stack += [(child, depth + 1) for child in reversed(node.children)]
    return MatchPlan(pattern=pattern, root_op=pattern.op, height=height,
                     op_min_depth=op_min_depth, slots=slots)


def instantiate(egraph: EGraph, pattern: Pattern, subst: Subst) -> int:
    """Insert the instantiation of ``pattern`` under ``subst`` into the e-graph.

    A :data:`~repro.egraph.enode.SORTED_OPS` node is built over its
    children sorted by canonical class id.
    """
    if isinstance(pattern, PatternVar):
        try:
            return subst[pattern.name]
        except KeyError as error:
            raise KeyError(
                f"pattern variable {pattern.name} unbound during instantiation"
            ) from error
    if pattern.op in (Op.VAR, Op.CONST):
        return egraph.add(ENode(pattern.op, (), pattern.payload))
    children = tuple(instantiate(egraph, child, subst) for child in pattern.children)
    if pattern.op in SORTED_OPS:
        children = tuple(sorted(map(egraph.find, children)))
    return egraph.add(ENode(pattern.op, children))
