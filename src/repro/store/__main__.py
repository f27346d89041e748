"""Command-line inspector for repro.store artifact stores.

Usage::

    python -m repro.store [--root DIR] list
    python -m repro.store [--root DIR] inspect KEY
    python -m repro.store [--root DIR] verify
    python -m repro.store [--root DIR] pin KEY
    python -m repro.store [--root DIR] unpin KEY
    python -m repro.store [--root DIR] gc [--max-age-days D]
                                          [--max-bytes N] [--dry-run]
    python -m repro.store key  --arch csa --width 16 [pipeline options]
                               [--kind saturated|extraction|checkpoint]
    python -m repro.store warm --arch csa --width 16 [pipeline options]
                               [--root DIR]
    python -m repro.store plan --arch csa --widths 4,8,16
                               [--refine-rounds 0,2] [--json]

``--root`` defaults to the ``REPRO_STORE_DIR`` environment variable, then
``.repro-store``.  ``key`` prints the content-addressed cache key of a
generated benchmark circuit's saturated e-graph (used by CI to key
``actions/cache``); ``warm`` runs the pipeline against the store so the
artifact exists — a no-op apart from extraction when already cached;
``plan`` prints a sweep's warm/cold frontier against the store without
executing anything (keys via the hash-propagating planner, store access
read-only).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import TYPE_CHECKING, Optional, Sequence, Tuple

from .store import ArtifactStore

if TYPE_CHECKING:  # deferred imports: repro.core imports repro.store
    from ..aig import AIG
    from ..core import BoolEPipeline

_DEFAULT_ROOT = os.environ.get("REPRO_STORE_DIR", ".repro-store")


def _add_circuit_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--arch", choices=("csa", "booth"), default="csa",
                        help="benchmark multiplier architecture")
    parser.add_argument("--width", type=int, default=16,
                        help="multiplier bitwidth")
    parser.add_argument("--r1-iterations", type=int, default=3)
    parser.add_argument("--r2-iterations", type=int, default=3)
    parser.add_argument("--match-limit", type=int, default=100_000)
    parser.add_argument("--ban-length", type=int, default=2)


def _pipeline_for(args: argparse.Namespace) -> Tuple["BoolEPipeline", "AIG"]:
    # Deferred: the core pipeline (and the generators) are only needed by
    # the key/warm commands, and repro.core itself imports repro.store.
    from ..core import BoolEOptions, BoolEPipeline
    from ..generators import booth_multiplier, csa_multiplier
    from ..opt import post_mapping_flow

    generator = csa_multiplier if args.arch == "csa" else booth_multiplier
    mapped = post_mapping_flow(generator(args.width).aig)
    options = BoolEOptions(r1_iterations=args.r1_iterations,
                           r2_iterations=args.r2_iterations,
                           match_limit=args.match_limit,
                           ban_length=args.ban_length)
    return BoolEPipeline(options), mapped


def _format_size(size: float) -> str:
    for unit in ("B", "KiB", "MiB", "GiB"):
        if size < 1024 or unit == "GiB":
            return f"{size:.1f} {unit}" if unit != "B" else f"{size} B"
        size /= 1024
    return f"{size} B"  # pragma: no cover - unreachable


def _cmd_list(store: ArtifactStore, _args: argparse.Namespace) -> int:
    entries = store.entries()
    if not entries:
        print(f"(empty store at {store.root})")
        return 0
    print(f"{'key':<16} {'kind':<20} {'size':>10}  {'created':<20} meta")
    for entry in entries:
        created = time.strftime("%Y-%m-%d %H:%M:%S",
                                time.localtime(entry.created))
        meta = json.dumps(entry.meta, sort_keys=True) if entry.meta else ""
        pin = "📌 " if entry.pinned else ""
        print(f"{entry.key[:16]:<16} {entry.kind:<20} "
              f"{_format_size(entry.size):>10}  {created:<20} {pin}{meta}")
    pinned = sum(1 for entry in entries if entry.pinned)
    print(f"total: {len(entries)} artifacts "
          f"({pinned} pinned), {_format_size(store.total_bytes())}")
    return 0


def _cmd_inspect(store: ArtifactStore, args: argparse.Namespace) -> int:
    header = store.describe(args.key)
    if header is None:
        print(f"no artifact {args.key!r} in {store.root}", file=sys.stderr)
        return 1
    print(json.dumps(header, indent=2, sort_keys=True))
    return 0


def _cmd_verify(store: ArtifactStore, _args: argparse.Namespace) -> int:
    # Unreadable objects are reported, not a failure: every reader treats
    # them as misses (and recomputes over them), and ``gc`` removes them.
    report = store.verify()
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def _cmd_pin(store: ArtifactStore, args: argparse.Namespace) -> int:
    try:
        store.pin(args.key)
    except KeyError:
        print(f"no artifact {args.key!r} in {store.root}", file=sys.stderr)
        return 1
    print(f"pinned {args.key[:16]}…")
    return 0


def _cmd_unpin(store: ArtifactStore, args: argparse.Namespace) -> int:
    if store.unpin(args.key):
        print(f"unpinned {args.key[:16]}…")
    else:
        print(f"{args.key[:16]}… was not pinned")
    return 0


def _cmd_gc(store: ArtifactStore, args: argparse.Namespace) -> int:
    removed = store.gc(
        max_age_seconds=(None if args.max_age_days is None
                         else args.max_age_days * 86_400.0),
        max_total_bytes=args.max_bytes,
        dry_run=args.dry_run)
    verb = "would remove" if args.dry_run else "removed"
    print(f"{verb} {len(removed)} artifact(s)")
    for key in removed:
        print(f"  {key}")
    return 0


def _cmd_key(_store: ArtifactStore, args: argparse.Namespace) -> int:
    # All three kinds come from the hash-propagating planner: it computes
    # every phase's key with zero execution and zero e-graph construction
    # (extraction roots are predicted by the dry construction), and the
    # keys are by construction identical to the ones artifacts are
    # actually stored under — the property tests hold planner keys equal
    # to execution's.
    pipeline, mapped = _pipeline_for(args)
    plan = pipeline.plan(mapped)
    if args.kind == "saturated":
        print(plan.base_key)
        return 0
    if args.kind == "extraction":
        print(plan.extraction_key)
        return 0
    try:
        entry = plan.phase(args.phase)
    except KeyError:
        print(f"unknown phase {args.phase!r}; one of "
              f"{[p.name for p in plan.phases]}", file=sys.stderr)
        return 1
    if entry.checkpoint_key is None:
        print(f"phase {args.phase!r} has no checkpoint artifact",
              file=sys.stderr)
        return 1
    print(entry.checkpoint_key)
    return 0


def _cmd_plan(store: ArtifactStore, args: argparse.Namespace) -> int:
    from ..core import BatchJob, BatchPipeline, BoolEOptions
    from ..generators import booth_multiplier, csa_multiplier
    from ..opt import post_mapping_flow

    try:
        widths = [int(token) for token in args.widths.split(",") if token]
        rounds = [int(token)
                  for token in args.refine_rounds.split(",") if token]
    except ValueError:
        print("--widths/--refine-rounds take comma-separated integers",
              file=sys.stderr)
        return 2
    if not widths or not rounds:
        print("need at least one width and one refine-rounds value",
              file=sys.stderr)
        return 2

    generator = csa_multiplier if args.arch == "csa" else booth_multiplier
    jobs = []
    for width in widths:
        mapped = post_mapping_flow(generator(width).aig)
        for refine in rounds:
            options = BoolEOptions(r1_iterations=args.r1_iterations,
                                   r2_iterations=args.r2_iterations,
                                   match_limit=args.match_limit,
                                   ban_length=args.ban_length,
                                   refine_rounds=refine)
            jobs.append(BatchJob(f"{args.arch}{width}-rr{refine}", mapped,
                                 options=options))

    plan = BatchPipeline(store=store).plan(jobs)
    if args.as_json:
        print(json.dumps(plan.to_json(), indent=2, sort_keys=True))
        return 0

    print(f"{'job':<16} {'saturation':<16} {'extraction':<16} "
          f"{'final key':<18} schedule")
    for item in plan.items:
        if item.plan is None:
            print(f"{item.name:<16} {'?':<16} {'?':<16} {'?':<18} "
                  f"error: {item.error}")
            continue
        saturation = item.plan.classification_of("insert-fa")
        extraction = item.plan.classification_of("reconstruct")
        if item.plan.resume_phase:
            saturation += f" (resume {item.plan.resume_phase})"
        final = (item.plan.final_key or "?")[:16] + "…"
        print(f"{item.name:<16} {saturation:<16} {extraction:<16} "
              f"{final:<18} {item.schedule}")
    summary = plan.summary()
    print(f"jobs: {summary['jobs']}  warm: {summary['warm']}  "
          f"cold: {summary['cold']}  deduped: {summary['deduped']}  "
          f"prefix-shared: {summary['prefix_shared']}  "
          f"saturations: {summary['saturations']}  "
          f"planned in {plan.plan_seconds * 1000:.1f} ms")
    return 0


def _cmd_warm(store: ArtifactStore, args: argparse.Namespace) -> int:
    pipeline, mapped = _pipeline_for(args)
    key = pipeline.cache_key(mapped)
    cached_before = store.contains(key)
    start = time.perf_counter()
    result = pipeline.run(mapped, store=store)
    elapsed = time.perf_counter() - start
    print(f"{args.arch}{args.width}: key={key[:16]}… "
          f"{'hit' if cached_before else 'miss (saturated + stored)'} "
          f"extraction {'hit' if result.extraction_cache_hit else 'stored'} "
          f"in {elapsed:.1f}s — {result.num_exact_fas} exact FAs, "
          f"{result.egraph_classes} classes")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.store",
        description="Inspect and maintain a repro.store artifact store.")
    parser.add_argument("--root", default=_DEFAULT_ROOT,
                        help=f"store directory (default: {_DEFAULT_ROOT})")
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("list", help="list indexed artifacts")
    inspect = commands.add_parser("inspect",
                                  help="show one artifact's header")
    inspect.add_argument("key")
    commands.add_parser("verify",
                        help="cross-check index against object files")
    pin = commands.add_parser(
        "pin", help="protect an artifact from gc eviction")
    pin.add_argument("key")
    unpin = commands.add_parser("unpin", help="drop an artifact's pin")
    unpin.add_argument("key")
    gc = commands.add_parser(
        "gc", help="evict artifacts (--max-bytes evicts cheapest-rebuild "
                   "first, by the saturation_seconds meta)")
    gc.add_argument("--max-age-days", type=float, default=None)
    gc.add_argument("--max-bytes", type=int, default=None)
    gc.add_argument("--dry-run", action="store_true")
    key = commands.add_parser(
        "key", help="print a benchmark circuit's cache key")
    _add_circuit_options(key)
    key.add_argument("--kind",
                     choices=("saturated", "extraction", "checkpoint"),
                     default="saturated",
                     help="which artifact key to print (the extraction key "
                          "covers the saturated key, cost model and roots; "
                          "checkpoint keys are per saturation phase)")
    key.add_argument("--phase", default="saturate-r2",
                     help="phase whose checkpoint key to print "
                          "(with --kind checkpoint; default: saturate-r2)")
    warm = commands.add_parser(
        "warm", help="saturate (or load) a benchmark circuit via the store")
    _add_circuit_options(warm)
    plan = commands.add_parser(
        "plan", help="plan a benchmark sweep against the store "
                     "(prints the warm/cold frontier; executes nothing)")
    plan.add_argument("--arch", choices=("csa", "booth"), default="csa",
                      help="benchmark multiplier architecture")
    plan.add_argument("--widths", default="4,8,16",
                      help="comma-separated multiplier bitwidths")
    plan.add_argument("--refine-rounds", default="0", dest="refine_rounds",
                      help="comma-separated refine_rounds values (each "
                           "width × value is one job; values share the "
                           "width's saturated prefix)")
    plan.add_argument("--r1-iterations", type=int, default=3)
    plan.add_argument("--r2-iterations", type=int, default=3)
    plan.add_argument("--match-limit", type=int, default=100_000)
    plan.add_argument("--ban-length", type=int, default=2)
    plan.add_argument("--json", action="store_true", dest="as_json",
                      help="emit the full machine-readable plan")

    args = parser.parse_args(argv)
    store = ArtifactStore(args.root)
    handler = {
        "list": _cmd_list,
        "inspect": _cmd_inspect,
        "verify": _cmd_verify,
        "pin": _cmd_pin,
        "unpin": _cmd_unpin,
        "gc": _cmd_gc,
        "key": _cmd_key,
        "warm": _cmd_warm,
        "plan": _cmd_plan,
    }[args.command]
    return handler(store, args)


if __name__ == "__main__":
    sys.exit(main())
