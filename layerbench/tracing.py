"""Span recorder that times BoolE layers from outside the library.

The benchmark never edits ``src/``.  Instead, :meth:`Tracer.install`
replaces the public entry points each pipeline phase calls with thin
wrappers that open a span, call the original and close the span.  The
wrappers are installed only in traced passes; untraced passes run the
library untouched, which is what makes ``trace.overhead`` measurable.

A span is ``(name, start, end, parent, kind)``.  ``kind`` is ``"job"``
for the benchmark's own per-job spans (one ``BoolEPipeline.run`` or one
batch/fleet submission) and ``"layer"`` for everything else.  Layer spans
whose nearest ancestor is a job span (or nothing) are *top-level*: their
union, divided by the traced wall time, is ``trace.coverage``.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: (module, attribute, span name) of every free function the phases
#: call, patched in the namespace the caller looks it up in.
FUNCTIONS: List[Tuple[str, str, str]] = [
    ("repro.core.phases", "aig_to_egraph", "construct"),
    ("repro.core.phases", "as_engine", "egraph.as_engine"),
    ("repro.core.phases", "insert_fa_structures", "fa_structure.pairing"),
    ("repro.core.phases", "count_npn_fa_pairs", "fa_structure.npn"),
    ("repro.core.phases", "reconstruct_aig", "extraction.reconstruct"),
    ("repro.egraph.runner", "apply_rules", "runner.apply_rules"),
] + [
    ("repro.core.phases", f"{what}_{way}_wire", f"codec.{what}_{way}_wire")
    for what in ("aig", "checkpoint", "egraph", "extraction", "report")
    for way in ("to", "from")
]

#: (module, class, method, span name) of every wrapped method; an empty
#: class patches a module-level function the caller looks up globally.
METHODS: List[Tuple[str, str, str, str]] = [
    ("repro.core", "BoolEPipeline", "cache_key", "fingerprint.key"),
    ("repro.egraph", "Runner", "run", "runner.run"),
    ("repro.egraph", "DenseEGraph", "rebuild", "egraph.rebuild"),
    ("repro.egraph", "EGraph", "rebuild", "egraph.rebuild"),
    ("repro.egraph", "DenseEGraph", "prune_duplicates", "fa_structure.prune"),
    ("repro.egraph", "EGraph", "prune_duplicates", "fa_structure.prune"),
    ("repro.core", "BoolEExtractor", "extract", "extraction.extract"),
    ("repro.store", "ArtifactStore", "put", "store.put"),
    ("repro.store", "ArtifactStore", "get", "store.get"),
    ("repro.core.batch", "", "plan_batch", "phases.plan"),
]


def _store_put(record: Dict, args: tuple, path: object) -> None:
    record["bytes"] = path.stat().st_size


def _store_get(record: Dict, args: tuple, payload: object) -> None:
    if payload is not None:
        store, key = args[0], args[1]
        record["bytes"] = store.path_for(key).stat().st_size


def _runner_run(record: Dict, args: tuple, report: object) -> None:
    record["report"] = report


def _construct(record: Dict, args: tuple, construction: object) -> None:
    record["classes"] = construction.egraph.num_classes


def _pairing(record: Dict, args: tuple, report: object) -> None:
    record["pairs"] = report.num_exact_fas


def _reconstruct(record: Dict, args: tuple, result: object) -> None:
    record["gates"] = result[0].num_gates


#: Per-span-name hooks that copy counts out of a call's return value
#: (never the value itself: e-graphs must not outlive their pass).
HOOKS: Dict[str, Callable[[Dict, tuple, object], None]] = {
    "store.put": _store_put,
    "store.get": _store_get,
    "runner.run": _runner_run,
    "construct": _construct,
    "fa_structure.pairing": _pairing,
    "extraction.reconstruct": _reconstruct,
}


class Tracer:
    """In-memory span list with a parent stack (single-threaded use)."""

    def __init__(self) -> None:
        self.spans: List[Dict] = []
        self._stack: List[int] = []
        self._undo: List[Tuple[object, str, object]] = []
        self._runs_in_job = 0

    # ------------------------------------------------------------------
    @contextmanager
    def span(self, name: str, kind: str = "layer", **fields: object
             ) -> Iterator[Dict]:
        record: Dict = {"name": name, "kind": kind,
                        "parent": self._stack[-1] if self._stack else None,
                        "start": time.perf_counter(), "end": None}
        record.update(fields)
        if kind == "job":
            self._runs_in_job = 0
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, start: float, end: float) -> None:
        """Record a top-level layer span measured elsewhere (e.g. from
        job-record events)."""
        self.spans.append({"name": name, "kind": "layer", "parent": None,
                           "start": start, "end": end})

    def _wrapper(self, original: Callable, name: str) -> Callable:
        hook = HOOKS.get(name)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            fields = {}
            if name == "runner.run":
                # Phases saturate R1 before R2 within one pipeline run.
                fields["phase"] = "r2" if self._runs_in_job else "r1"
                self._runs_in_job += 1
            with self.span(name, **fields) as record:
                result = original(*args, **kwargs)
                if hook is not None:
                    hook(record, args, result)
                return result
        return traced

    def install(self) -> None:
        """Wrap every entry point in :data:`FUNCTIONS` and :data:`METHODS`."""
        for module_name, attr, name in FUNCTIONS:
            module = importlib.import_module(module_name)
            self._patch(module, attr, name)
        for module_name, cls_name, attr, name in METHODS:
            owner = importlib.import_module(module_name)
            if cls_name:
                owner = getattr(owner, cls_name)
            self._patch(owner, attr, name)

    def _patch(self, owner: object, attr: str, name: str) -> None:
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self._wrapper(original, name))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # ------------------------------------------------------------------
    def total(self, name: str, under: Optional[str] = None) -> float:
        """Summed duration of ``name`` spans (optionally only those with an
        ancestor span whose ``phase`` field equals ``under``)."""
        return sum(span["end"] - span["start"] for span in self.spans
                   if span["name"] == name
                   and (under is None or self._phase_of(span) == under))

    def count(self, name: str) -> int:
        return sum(1 for span in self.spans if span["name"] == name)

    def _phase_of(self, span: Dict) -> Optional[str]:
        while span is not None:
            if "phase" in span:
                return span["phase"]
            parent = span["parent"]
            span = self.spans[parent] if parent is not None else None
        return None

    def coverage(self, start: float, end: float) -> float:
        """Share of ``[start, end]`` covered by top-level layer spans."""
        intervals = sorted(
            (max(span["start"], start), min(span["end"], end))
            for span in self.spans
            if span["kind"] == "layer" and self._is_top_level(span))
        covered = 0.0
        cursor = start
        for lo, hi in intervals:
            lo = max(lo, cursor)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        return covered / (end - start) if end > start else 0.0

    def _is_top_level(self, span: Dict) -> bool:
        parent = span["parent"]
        return parent is None or self.spans[parent]["kind"] == "job"

    def export(self, origin: float) -> List[Dict]:
        """JSON-ready spans, times in seconds relative to ``origin``."""
        keys = ("name", "kind", "parent", "phase")
        return [{**{key: span[key] for key in keys if key in span},
                 "start": round(span["start"] - origin, 6),
                 "end": round(span["end"] - origin, 6)}
                for span in self.spans]
