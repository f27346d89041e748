"""repro.store: persistent e-graph snapshots + content-addressed caching.

Three layers (documented in ``docs/serialization.md``):

* :mod:`repro.store.codec` — versioned snapshot wire format for complete
  e-graphs, back-off scheduler state and resumable runner checkpoints,
  with atomic gzip file I/O;
* :mod:`repro.store.fingerprint` — SHA-256 content fingerprints of the
  saturation inputs (AIG, options, ruleset), salted with the codec
  version;
* :mod:`repro.store.store` — the on-disk content-addressed artifact
  store (``ArtifactStore``) with an advisory index, verify and GC.

A command-line inspector lives in ``python -m repro.store``.
"""

from .codec import (
    CODEC_VERSION,
    KIND_CHECKPOINT,
    KIND_EGRAPH,
    KIND_EXTRACTION,
    KIND_JOB,
    KIND_SATURATED,
    KIND_SWEEP,
    SnapshotError,
    SnapshotVersionError,
    aig_from_wire,
    aig_to_wire,
    checkpoint_from_wire,
    checkpoint_to_wire,
    egraph_from_wire,
    egraph_to_wire,
    extraction_from_wire,
    extraction_to_wire,
    load_checkpoint,
    load_egraph,
    node_table_from_wire,
    read_snapshot,
    report_from_wire,
    report_to_wire,
    save_checkpoint,
    save_egraph,
    scheduler_from_wire,
    scheduler_to_wire,
    write_snapshot,
)
from .fingerprint import (
    canonical_digest,
    combine_cache_key,
    extraction_cache_key,
    fingerprint_aig,
    fingerprint_options,
    fingerprint_ruleset,
    phase_checkpoint_key,
    pipeline_cache_key,
)
from .store import ArtifactStore, StoreEntry

__all__ = [
    "CODEC_VERSION",
    "KIND_CHECKPOINT",
    "KIND_EGRAPH",
    "KIND_EXTRACTION",
    "KIND_JOB",
    "KIND_SATURATED",
    "KIND_SWEEP",
    "SnapshotError",
    "SnapshotVersionError",
    "aig_from_wire",
    "aig_to_wire",
    "checkpoint_from_wire",
    "checkpoint_to_wire",
    "egraph_from_wire",
    "egraph_to_wire",
    "extraction_from_wire",
    "extraction_to_wire",
    "load_checkpoint",
    "load_egraph",
    "node_table_from_wire",
    "read_snapshot",
    "report_from_wire",
    "report_to_wire",
    "save_checkpoint",
    "save_egraph",
    "scheduler_from_wire",
    "scheduler_to_wire",
    "write_snapshot",
    "canonical_digest",
    "combine_cache_key",
    "extraction_cache_key",
    "fingerprint_aig",
    "fingerprint_options",
    "fingerprint_ruleset",
    "phase_checkpoint_key",
    "pipeline_cache_key",
    "ArtifactStore",
    "StoreEntry",
]
