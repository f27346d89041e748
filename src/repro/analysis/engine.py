"""Analysis driver: file discovery, rule registry, suppression plumbing."""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .findings import Finding, is_suppressed, parse_noqa
from .rules_det import run_det_rules
from .rules_mem import run_mem_rules
from .rules_wire import run_wire_rules
from .typeinfo import ProjectModel, collect_model

__all__ = ["RULES", "RuleInfo", "AnalysisResult", "iter_python_files",
           "build_model", "analyze_source", "run_analysis"]

RuleRunner = Callable[[str, ast.Module, List[str], ProjectModel],
                      List[Finding]]


@dataclass(frozen=True)
class RuleInfo:
    """Registry entry: rule id, one-line summary, historical motivation."""

    rule: str
    summary: str
    motivation: str


#: The rule catalog.  DET001-003 + EGR001 share one flow-sensitive walk;
#: WIRE001 + KEY001 share one structural pass and MEM001 has its own — so
#: the registry maps each *group* to its runner and the catalog stays
#: per-rule for reporting.
RULES: Dict[str, RuleInfo] = {
    "DET001": RuleInfo(
        "DET001",
        "set/dict iterated or frozen into an ordered result without "
        "sorted()",
        "the PR 4 extraction overcounting lottery: results varied with "
        "PYTHONHASHSEED because candidate sets were iterated raw"),
    "DET002": RuleInfo(
        "DET002",
        "sort/dict keys derived from id() or hash()",
        "id() is an allocator address and str hash() is seeded: any key "
        "derived from them reshuffles every process"),
    "DET003": RuleInfo(
        "DET003",
        "wall-clock/random reads inside cache-key or wire-format code",
        "a timestamp in a fingerprint payload makes every run a cache "
        "miss; one in a snapshot breaks byte-identical artifacts"),
    "EGR001": RuleInfo(
        "EGR001",
        "e-class id used after union()/apply_rules() without find()",
        "use-after-union: a pre-merge id silently names the wrong class "
        "once union-find reroots, corrupting lookups and memo keys"),
    "WIRE001": RuleInfo(
        "WIRE001",
        "dataclass field missing from its to_wire/from_wire codec pair",
        "the stale pre-PR 3 FA count: a field added to the dataclass but "
        "not the codec is dropped from every snapshot"),
    "KEY001": RuleInfo(
        "KEY001",
        "BoolEOptions field neither excluded nor fingerprinted",
        "the refine_rounds key-divergence hole PR 5 patched by hand: an "
        "unfingerprinted semantic option reuses stale cached results"),
    "MEM001": RuleInfo(
        "MEM001",
        "nested functions that refer to each other in a cycle "
        "(recursive closures)",
        "each finished job's recursive closures stayed in memory until "
        "a collection ran, once jobs ran with the cyclic collector "
        "paused"),
}

_RUNNERS: Tuple[Tuple[Tuple[str, ...], RuleRunner], ...] = (
    (("DET001", "DET002", "DET003", "EGR001"), run_det_rules),
    (("WIRE001", "KEY001"), run_wire_rules),
    (("MEM001",), run_mem_rules),
)


@dataclass
class AnalysisResult:
    """Everything one analyzer run produced."""

    findings: List[Finding] = field(default_factory=list)
    #: findings silenced by ``# repro: noqa`` comments.
    suppressed: List[Finding] = field(default_factory=list)
    #: paths that failed to parse (path, message).
    errors: List[Tuple[str, str]] = field(default_factory=list)
    files_analyzed: int = 0


def iter_python_files(paths: Sequence[str]) -> List[str]:
    """Expand files/directories into a sorted list of ``.py`` paths."""
    files: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, names in os.walk(path):
                dirs[:] = sorted(d for d in dirs
                                 if d not in ("__pycache__", ".git"))
                for name in sorted(names):
                    if name.endswith(".py"):
                        files.append(os.path.join(root, name))
        elif path.endswith(".py"):
            files.append(path)
    return sorted(dict.fromkeys(os.path.normpath(f) for f in files))


def _module_name(path: str) -> str:
    return os.path.splitext(os.path.basename(path))[0]


def build_model(parsed: Sequence[Tuple[str, ast.Module]]) -> ProjectModel:
    """Collect the cross-file :class:`ProjectModel` for parsed files."""
    return collect_model([(_module_name(path), tree)
                          for path, tree in parsed])


def _relpath(path: str) -> str:
    rel = os.path.relpath(path)
    return rel.replace(os.sep, "/")


def _run_rules_on_file(path: str, tree: ast.Module, lines: List[str],
                       model: ProjectModel,
                       rules: Optional[Sequence[str]]) -> List[Finding]:
    wanted = set(rules) if rules is not None else None
    findings: List[Finding] = []
    for group, runner in _RUNNERS:
        if wanted is not None and not wanted.intersection(group):
            continue
        for finding in runner(path, tree, lines, model):
            if wanted is None or finding.rule in wanted:
                findings.append(finding)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def analyze_source(source: str, path: str = "<string>",
                   model: Optional[ProjectModel] = None,
                   rules: Optional[Sequence[str]] = None,
                   ) -> AnalysisResult:
    """Analyze one in-memory source blob (the test-corpus entry point).

    When ``model`` is omitted the project model is collected from the
    blob itself, so self-contained fixtures exercise the same type
    tracking as a whole-tree run.
    """
    result = AnalysisResult()
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        result.errors.append((path, f"syntax error: {exc}"))
        return result
    lines = source.splitlines()
    if model is None:
        model = build_model([(path, tree)])
    suppressions = parse_noqa(lines)
    for finding in _run_rules_on_file(path, tree, lines, model, rules):
        if is_suppressed(finding, suppressions):
            result.suppressed.append(finding)
        else:
            result.findings.append(finding)
    result.files_analyzed = 1
    return result


def run_analysis(paths: Sequence[str],
                 rules: Optional[Sequence[str]] = None) -> AnalysisResult:
    """Analyze every ``.py`` file under ``paths`` with a shared model."""
    result = AnalysisResult()
    parsed: List[Tuple[str, ast.Module, List[str]]] = []
    for path in iter_python_files(paths):
        try:
            with open(path, "r", encoding="utf-8") as handle:
                source = handle.read()
            tree = ast.parse(source, filename=path)
        except (OSError, SyntaxError) as exc:
            result.errors.append((_relpath(path), str(exc)))
            continue
        parsed.append((path, tree, source.splitlines()))
    model = build_model([(path, tree) for path, tree, _ in parsed])
    for path, tree, lines in parsed:
        rel = _relpath(path)
        suppressions = parse_noqa(lines)
        for finding in _run_rules_on_file(rel, tree, lines, model, rules):
            if is_suppressed(finding, suppressions):
                result.suppressed.append(finding)
            else:
                result.findings.append(finding)
        result.files_analyzed += 1
    result.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return result
