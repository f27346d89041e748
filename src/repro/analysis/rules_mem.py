"""Memory rule MEM001: nested functions that refer to each other in a cycle.

A nested function that names itself, or names a sibling that names it
back, keeps its own closure cell alive: every call of the enclosing
function leaves a reference cycle that only the cyclic collector frees.
Jobs run with the collector paused (``BoolEPipeline.run``), so such
garbage stays in memory until the process next collects.  Recurse in a
module-level function, in a method or over an explicit stack instead.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Set

from .findings import Finding
from .typeinfo import ProjectModel

__all__ = ["run_mem_rules"]

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
_SCOPES = _FUNCTIONS + (ast.ClassDef,)


def _own_nodes(scope: ast.AST) -> Iterator[ast.AST]:
    """Nodes of ``scope``'s own scope (nested scopes' heads, not bodies)."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _SCOPES + (ast.Lambda,)):
            stack.extend(ast.iter_child_nodes(node))


def _on_cycle(edges: Dict[str, Set[str]], start: str) -> bool:
    """True when ``start`` reaches itself along ``edges``."""
    seen: Set[str] = set()
    stack = sorted(edges[start])
    while stack:
        name = stack.pop()
        if name not in seen:
            seen.add(name)
            stack.extend(sorted(edges[name]))
    return start in seen


def _check(scope: ast.AST, qualname: str, path: str, lines: List[str],
           findings: List[Finding]) -> None:
    inner = sorted((node for node in _own_nodes(scope)
                    if isinstance(node, _SCOPES)), key=lambda n: n.lineno)
    nested = {node.name: node for node in inner
              if isinstance(node, _FUNCTIONS)}
    edges = {name: {ref.id for stmt in func.body for ref in ast.walk(stmt)
                    if isinstance(ref, ast.Name) and ref.id in nested
                    and isinstance(ref.ctx, ast.Load)}
             for name, func in nested.items()}
    for node in inner:
        name = f"{qualname}.{node.name}" if qualname else node.name
        if (isinstance(scope, _FUNCTIONS) and node.name in nested
                and _on_cycle(edges, node.name)):
            findings.append(Finding(
                rule="MEM001", path=path, line=node.lineno,
                col=node.col_offset, context=name,
                content=lines[node.lineno - 1].strip(),
                message=f"nested function {node.name!r} refers back to "
                        "itself through its closure: each call of "
                        f"{qualname!r} leaves a reference cycle"))
        _check(node, name, path, lines, findings)


def run_mem_rules(path: str, tree: ast.Module, lines: List[str],
                  model: ProjectModel) -> List[Finding]:
    """Flag nested functions on a reference cycle of closures."""
    findings: List[Finding] = []
    _check(tree, "", path, lines, findings)
    return findings
