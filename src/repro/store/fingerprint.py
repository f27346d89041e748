"""Stable content fingerprints for cacheable saturation inputs.

A saturated e-graph is (since the determinism work of PR 2) a pure
function of three inputs: the netlist, the pipeline options and the
ruleset.  Each gets a SHA-256 fingerprint over a canonical serialization,
salted with the snapshot codec version, and the three fingerprints
combine into a single content-addressed cache key
(:func:`pipeline_cache_key`).  Identical inputs — across processes,
machines and ``PYTHONHASHSEED`` values — always map to the same key;
*any* difference that can change the saturated e-graph changes the key.

Invalidation rules (see ``docs/serialization.md``):

* the codec version salts every digest, so a wire-format bump orphans all
  old artifacts at the key level;
* AIG fingerprints cover structure and signal names but **not** the
  netlist's display name, so structurally identical circuits share cache
  entries;
* option fingerprints cover every field except ``extract`` (extraction
  runs after the cache boundary); unknown future fields are picked up
  automatically via ``dataclasses.fields``;
* ruleset fingerprints cover each rule's name, pattern text, direction,
  group and the qualified name of its condition callable.  A change to
  a callable's *body* is invisible to the fingerprint — pass a new
  ``revision`` tag (or bump the codec version) when editing rule
  semantics in place.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import TYPE_CHECKING, Callable, Dict, Iterable, Optional, Sequence

from ..aig import AIG
from ..egraph import Rewrite

if TYPE_CHECKING:  # import cycle: repro.core imports repro.store
    from ..core.pipeline import BoolEOptions
from .codec import CODEC_VERSION

__all__ = [
    "canonical_digest",
    "combine_cache_key",
    "extraction_cache_key",
    "fingerprint_aig",
    "fingerprint_options",
    "fingerprint_ruleset",
    "phase_checkpoint_key",
    "pipeline_cache_key",
]

#: ``BoolEOptions`` fields that cannot change the saturated e-graph:
#: ``extract``/``refine_rounds`` only act after the cache boundary (the
#: latter participates in :func:`extraction_cache_key` instead) and
#: ``checkpoint_every`` only changes *when* snapshots are taken — resume
#: is bit-identical, so two runs differing only in cadence must share
#: artifacts.
_NON_SEMANTIC_OPTION_FIELDS = frozenset(
    {"extract", "refine_rounds", "checkpoint_every"})


def canonical_digest(payload: object) -> str:
    """SHA-256 hex digest of a JSON-serializable payload, codec-salted.

    The payload is rendered as canonical JSON (sorted keys, no
    whitespace); the digest input is prefixed with the codec version so
    every wire-format bump invalidates all derived cache keys.
    """
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256()
    digest.update(f"repro.store/v{CODEC_VERSION}\0".encode("utf-8"))
    digest.update(canonical.encode("utf-8"))
    return digest.hexdigest()


def fingerprint_aig(aig: AIG) -> str:
    """Fingerprint an AIG's structure and signal names.

    Covers inputs (variable indices and names), every AND gate and every
    output literal/name.  The netlist's display ``name`` is deliberately
    excluded: it does not influence saturation, and excluding it lets
    structurally identical circuits share cached artifacts.
    """
    return canonical_digest({
        "kind": "aig",
        "inputs": [[var, aig.input_names[var]] for var in aig.inputs],
        "gates": [[gate.out_var, gate.fanin0, gate.fanin1]
                  for gate in aig.gates],
        "outputs": [[lit, name]
                    for lit, name in zip(aig.outputs, aig.output_names)],
    })


def fingerprint_options(options: "BoolEOptions") -> str:
    """Fingerprint a :class:`~repro.core.pipeline.BoolEOptions` instance.

    Every dataclass field except the non-semantic ones participates:
    ``extract`` and ``refine_rounds`` only act after the cache boundary
    (the latter is digested into :func:`extraction_cache_key` instead),
    and ``checkpoint_every`` cannot change results (resume is
    bit-identical), so configurations differing only in those share the
    saturated artifact.  Fields added in future revisions are included
    automatically, which errs on the side of cache misses rather than
    wrong hits; a field removed from the dataclass leaves the payload the
    same way, so every store key rolls once and old artifacts simply miss.
    """
    payload = {field.name: getattr(options, field.name)
               for field in dataclasses.fields(options)
               if field.name not in _NON_SEMANTIC_OPTION_FIELDS}
    return canonical_digest({"kind": "options", "fields": payload})


def _describe_callable(func: Optional[Callable]) -> str:
    if func is None:
        return ""
    return f"{getattr(func, '__module__', '?')}.{getattr(func, '__qualname__', repr(func))}"


def fingerprint_ruleset(rules: Iterable[Rewrite],
                        revision: str = "") -> str:
    """Fingerprint a ruleset by each rule's observable definition.

    ``revision`` is an opaque tag mixed into the digest; rule modules can
    bump it when a condition *body* changes (the fingerprint only sees
    callables' qualified names).
    """
    return canonical_digest({
        "kind": "ruleset",
        "revision": revision,
        "rules": [
            [rule.name, str(rule.lhs), str(rule.rhs), rule.bidirectional,
             rule.group, _describe_callable(rule.condition)]
            for rule in rules
        ],
    })


def combine_cache_key(aig_fingerprint: str, options_fingerprint: str,
                      ruleset_fingerprints: Sequence[str]) -> str:
    """Combine already-computed fingerprints into one store key.

    Split out from :func:`pipeline_cache_key` so callers that probe many
    netlists under one configuration (the pipeline, the batch driver) can
    compute the options/ruleset fingerprints once and vary only the AIG.
    """
    return canonical_digest({
        "kind": "pipeline-cache-key",
        "aig": aig_fingerprint,
        "options": options_fingerprint,
        "rulesets": list(ruleset_fingerprints),
    })


def extraction_cache_key(saturated_key: str, node_cost: Dict[str, int],
                         roots: Sequence[int],
                         refine_rounds: int = 0) -> str:
    """Content key of a ``kind="extraction"`` artifact.

    Extraction + reconstruction are a pure function of the saturated
    e-graph (addressed by ``saturated_key``, which already covers the
    netlist, the options, the rulesets and the codec version), the
    extractor's per-operator cost table, the reconstruction roots
    (construction-time output class ids) and the refinement budget.
    Changing any of them — or bumping ``CODEC_VERSION``, which salts
    :func:`canonical_digest` — changes the key, so stale extraction
    artifacts are never even opened.
    """
    return canonical_digest({
        "kind": "extraction-cache-key",
        "saturated": saturated_key,
        "node_cost": sorted(node_cost.items()),
        "roots": list(roots),
        "refine_rounds": refine_rounds,
    })


def phase_checkpoint_key(saturated_key: str, phase: str) -> str:
    """Content key of a pipeline phase's ``kind="checkpoint"`` artifact.

    Derived from the saturated pipeline key (netlist + options + rulesets
    + codec version) and the phase name, so a checkpoint can only ever be
    resumed by a run that would — uninterrupted — have produced the same
    phase output.  Checkpoint cadence is deliberately absent: resume is
    bit-identical, so runs with different ``checkpoint_every`` settings
    share (and supersede) each other's checkpoints.
    """
    return canonical_digest({
        "kind": "phase-checkpoint-key",
        "saturated": saturated_key,
        "phase": phase,
    })


def pipeline_cache_key(aig: AIG, options: "BoolEOptions",
                       rulesets: Sequence[Iterable[Rewrite]],
                       revision: str = "") -> str:
    """Combine input fingerprints into one content-addressed store key."""
    return combine_cache_key(
        fingerprint_aig(aig),
        fingerprint_options(options),
        [fingerprint_ruleset(rules, revision=revision)
         for rules in rulesets])
