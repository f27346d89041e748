"""Lightweight type-hint tracking for the static-analysis rules.

This is deliberately *not* a type checker.  The rules only need to answer
one kind of question — "is this expression an unordered collection / a
known dataclass instance / a dict of what?" — so types are reduced to a
small :class:`TypeRep` (a category plus optional class name and type
arguments) inferred from:

* annotations (parameters, returns, ``AnnAssign``, dataclass fields,
  ``self.x: T = ...`` statements inside methods),
* literal forms (``{...}``, comprehensions, ``set()``/``dict()`` calls),
* a project-wide :class:`ProjectModel` collected in a first pass over
  every analyzed file: class attribute types, method return types and
  dataclass field lists.  Attribute/method names that resolve to
  *conflicting* types across the project are dropped as ambiguous rather
  than guessed.

Anything the tracker cannot prove is ``unknown``, and the rules never
fire on ``unknown`` — the analyzer prefers false negatives over noise.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "TypeRep",
    "ClassInfo",
    "ProjectModel",
    "UNKNOWN",
    "collect_model",
    "parse_annotation",
    "combine",
    "element_of",
]

# TypeRep categories.
SET = "set"
DICT = "dict"
LIST = "list"          # also covers Sequence: ordered, index-stable
TUPLE = "tuple"
VIEW = "view"          # dict views: ordered (insertion order)
ITERABLE = "iterable"  # no order guarantee, but not provably a set
INSTANCE = "instance"  # instance of a project-known class (name set)
SCALAR = "scalar"
UNKNOWN_CAT = "unknown"


@dataclass(frozen=True)
class TypeRep:
    """A coarse type: category, optional class name, optional args."""

    category: str
    name: str = ""
    args: Tuple["TypeRep", ...] = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = f"[{', '.join(map(repr, self.args))}]" if self.args else ""
        return f"{self.name or self.category}{inner}"


UNKNOWN = TypeRep(UNKNOWN_CAT)

#: Annotation base-name → category for well-known container types.
_NAME_CATEGORIES = {
    "set": SET, "Set": SET, "frozenset": SET, "FrozenSet": SET,
    "MutableSet": SET, "AbstractSet": SET,
    "dict": DICT, "Dict": DICT, "Mapping": DICT, "MutableMapping": DICT,
    "DefaultDict": DICT, "defaultdict": DICT, "OrderedDict": DICT,
    "list": LIST, "List": LIST, "Sequence": LIST, "MutableSequence": LIST,
    "tuple": TUPLE, "Tuple": TUPLE,
    "KeysView": VIEW, "ValuesView": VIEW, "ItemsView": VIEW,
    "Iterable": ITERABLE, "Iterator": ITERABLE, "Collection": ITERABLE,
    "Generator": ITERABLE,
    "int": SCALAR, "str": SCALAR, "bool": SCALAR, "float": SCALAR,
    "bytes": SCALAR, "None": SCALAR,
}


@dataclass
class ClassInfo:
    """What the model knows about one class definition."""

    name: str
    module: str
    is_dataclass: bool = False
    #: attribute name → TypeRep (class-level annotations + ``self.x: T``).
    attrs: Dict[str, TypeRep] = field(default_factory=dict)
    #: dataclass field names in declaration order (annotated, non-ClassVar).
    fields: List[str] = field(default_factory=list)
    #: method name → annotated return TypeRep.
    method_returns: Dict[str, TypeRep] = field(default_factory=dict)


@dataclass
class ProjectModel:
    """Cross-file facts collected before any rule runs."""

    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    #: module-level function name → annotated return TypeRep.
    function_returns: Dict[str, TypeRep] = field(default_factory=dict)
    #: attribute name → TypeRep when every class agrees on its category,
    #: else absent (ambiguous names never resolve).
    attr_types: Dict[str, TypeRep] = field(default_factory=dict)
    #: method name → return TypeRep under the same unambiguity rule.
    method_types: Dict[str, TypeRep] = field(default_factory=dict)

    def class_info(self, name: str) -> Optional[ClassInfo]:
        return self.classes.get(name)


def _annotation_base_name(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def parse_annotation(node: Optional[ast.expr],
                     model: Optional[ProjectModel] = None) -> TypeRep:
    """Reduce an annotation AST to a :class:`TypeRep`."""
    if node is None:
        return UNKNOWN
    if isinstance(node, ast.Constant):
        if isinstance(node.value, str):  # string (forward) annotation
            try:
                parsed = ast.parse(node.value, mode="eval").body
            except SyntaxError:
                return UNKNOWN
            return parse_annotation(parsed, model)
        if node.value is None:
            return TypeRep(SCALAR, "None")
        return UNKNOWN
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        return combine(parse_annotation(node.left, model),
                       parse_annotation(node.right, model))
    if isinstance(node, ast.Subscript):
        base_name = _annotation_base_name(node.value)
        if base_name in ("Optional", "ClassVar", "Final"):
            return parse_annotation(node.slice, model)
        if base_name == "Union":
            parts = (node.slice.elts if isinstance(node.slice, ast.Tuple)
                     else [node.slice])
            result = parse_annotation(parts[0], model)
            for part in parts[1:]:
                result = combine(result, parse_annotation(part, model))
            return result
        base = parse_annotation(node.value, model)
        if isinstance(node.slice, ast.Tuple):
            args = tuple(parse_annotation(elt, model)
                         for elt in node.slice.elts)
        else:
            args = (parse_annotation(node.slice, model),)
        return TypeRep(base.category, base.name, args)
    name = _annotation_base_name(node)
    if name is None:
        return UNKNOWN
    category = _NAME_CATEGORIES.get(name)
    if category is not None:
        return TypeRep(category)
    if model is not None and name in model.classes:
        return TypeRep(INSTANCE, name)
    return UNKNOWN


def combine(a: TypeRep, b: TypeRep) -> TypeRep:
    """Join two TypeReps: agreement keeps the richer one, conflict loses.

    ``None`` halves of ``Optional`` unions never mask the real type.
    """
    if a.category == SCALAR and a.name == "None":
        return b
    if b.category == SCALAR and b.name == "None":
        return a
    if a.category == UNKNOWN_CAT:
        return b if b.category == UNKNOWN_CAT else UNKNOWN
    if b.category == UNKNOWN_CAT:
        return UNKNOWN
    if a.category == b.category and a.name == b.name:
        return a if len(a.args) >= len(b.args) else b
    return UNKNOWN


def element_of(rep: TypeRep) -> TypeRep:
    """The TypeRep of one element when iterating ``rep``."""
    if rep.category in (SET, LIST, ITERABLE, VIEW) and rep.args:
        return rep.args[0]
    if rep.category == DICT and rep.args:
        return rep.args[0]
    if rep.category == TUPLE and rep.args:
        first = rep.args[0]
        for arg in rep.args[1:]:
            first = combine(first, arg)
        return first
    return UNKNOWN


def _is_dataclass_decorator(node: ast.expr) -> bool:
    target = node.func if isinstance(node, ast.Call) else node
    name = _annotation_base_name(target)
    return name == "dataclass"


def _target_name(node: ast.expr) -> Optional[str]:
    """``self.attr`` target → attr name, else None."""
    if (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"):
        return node.attr
    return None


def _collect_class(node: ast.ClassDef, module: str,
                   model: ProjectModel) -> None:
    info = model.classes.setdefault(
        node.name, ClassInfo(name=node.name, module=module))
    info.is_dataclass = info.is_dataclass or any(
        _is_dataclass_decorator(dec) for dec in node.decorator_list)
    for stmt in node.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target,
                                                          ast.Name):
            base = _annotation_base_name(
                stmt.annotation.value
                if isinstance(stmt.annotation, ast.Subscript)
                else stmt.annotation)
            rep = parse_annotation(stmt.annotation, model)
            info.attrs[stmt.target.id] = rep
            if base != "ClassVar":
                info.fields.append(stmt.target.id)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if stmt.returns is not None:
                info.method_returns[stmt.name] = parse_annotation(
                    stmt.returns, model)
            for inner in ast.walk(stmt):
                if isinstance(inner, ast.AnnAssign):
                    attr = _target_name(inner.target)
                    if attr is not None:
                        info.attrs.setdefault(
                            attr, parse_annotation(inner.annotation, model))


def collect_model(trees: Sequence[Tuple[str, ast.Module]]) -> ProjectModel:
    """First pass: harvest class/function facts from every analyzed tree.

    Runs twice internally so class names defined in *any* file resolve to
    ``instance`` TypeReps in annotations from every other file.
    """
    model = ProjectModel()
    # Pass 1: register class names so annotations can resolve them.
    for module, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                model.classes.setdefault(
                    node.name, ClassInfo(name=node.name, module=module))
    # Pass 2: collect annotations (which may reference those classes).
    for module, tree in trees:
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                _collect_class(node, module, model)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.returns is not None:
                    model.function_returns[node.name] = parse_annotation(
                        node.returns, model)
    # Pass 3: build the unambiguous global attribute/method name maps.
    attr_seen: Dict[str, List[TypeRep]] = {}
    method_seen: Dict[str, List[TypeRep]] = {}
    for info in model.classes.values():
        for attr, rep in info.attrs.items():
            attr_seen.setdefault(attr, []).append(rep)
        for method, rep in info.method_returns.items():
            method_seen.setdefault(method, []).append(rep)
    for name, reps in attr_seen.items():
        merged = reps[0]
        for rep in reps[1:]:
            merged = combine(merged, rep)
        if merged.category != UNKNOWN_CAT:
            model.attr_types[name] = merged
    for name, reps in method_seen.items():
        merged = reps[0]
        for rep in reps[1:]:
            merged = combine(merged, rep)
        if merged.category != UNKNOWN_CAT:
            model.method_types[name] = merged
    return model
