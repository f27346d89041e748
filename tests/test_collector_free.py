"""Collector-free jobs: ``BoolEPipeline.run`` pauses the cyclic garbage
collector, so everything a job builds must be acyclic.

* Jobs leave no cyclic garbage of this package behind: with the
  collector off, cold and warm runs (with a store) plus a serial
  ``BatchPipeline`` are dropped, and a ``DEBUG_SAVEALL`` collection must
  find no object whose type or function comes from ``repro``.
* ``run`` restores the caller's collector state, also when the job
  raises, and leaves it off when the caller had turned it off.
* Each rule compiles its match plans once, not once per round.
"""

from __future__ import annotations

import gc
import types

import pytest

from repro.core import BatchJob, BatchPipeline, BoolEOptions, BoolEPipeline
from repro.egraph import rewrite
from repro.generators import booth_multiplier, csa_multiplier
from repro.opt import post_mapping_flow
from repro.store import ArtifactStore

OPTIONS = BoolEOptions(r1_iterations=3, r2_iterations=3)


def _circuits():
    return [post_mapping_flow(csa_multiplier(4).aig),
            post_mapping_flow(booth_multiplier(4).aig)]


def _defined_in_repro(obj) -> bool:
    if isinstance(obj, (types.FunctionType, types.MethodType)):
        return (getattr(obj, "__module__", None) or "").startswith("repro")
    return type(obj).__module__.startswith("repro")


@pytest.fixture
def collector_off():
    """Collector disabled, earlier garbage flushed; restored afterwards."""
    was_enabled = gc.isenabled()
    gc.disable()
    gc.collect()
    try:
        yield
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()


def _cyclic_garbage():
    gc.set_debug(gc.DEBUG_SAVEALL)
    gc.collect()
    gc.set_debug(0)
    found = [obj for obj in gc.garbage if _defined_in_repro(obj)]
    gc.garbage.clear()
    return found


def test_jobs_leave_no_cyclic_garbage(collector_off, tmp_path):
    def jobs():
        pipeline = BoolEPipeline(OPTIONS,
                                 store=ArtifactStore(tmp_path / "store"))
        for aig in _circuits():
            cold = pipeline.run(aig)
            warm = pipeline.run(aig)
            assert not cold.cache_hit and warm.cache_hit
        report = BatchPipeline(OPTIONS, executor="serial",
                               store=tmp_path / "batch").run(
            [BatchJob(aig.name, aig) for aig in _circuits()])
        assert all(item.ok for item in report.items)

    jobs()
    garbage = _cyclic_garbage()
    assert garbage == [], sorted({
        getattr(obj, "__qualname__", type(obj).__qualname__)
        for obj in garbage})


def test_run_restores_the_collector_state(monkeypatch):
    aig = post_mapping_flow(csa_multiplier(2).aig)
    pipeline = BoolEPipeline(BoolEOptions(r1_iterations=1, r2_iterations=1))
    was_enabled = gc.isenabled()
    try:
        gc.enable()
        pipeline.run(aig)
        assert gc.isenabled()

        def boom(ctx):
            assert not gc.isenabled()
            raise RuntimeError("phase failed")

        monkeypatch.setattr(pipeline._graph, "execute", boom)
        with pytest.raises(RuntimeError, match="phase failed"):
            pipeline.run(aig)
        assert gc.isenabled()

        gc.disable()
        with pytest.raises(RuntimeError, match="phase failed"):
            pipeline.run(aig)
        assert not gc.isenabled()
        monkeypatch.undo()
        pipeline.run(aig)
        assert not gc.isenabled()
    finally:
        if was_enabled:
            gc.enable()
        else:
            gc.disable()


def test_rules_compile_their_plans_once(monkeypatch):
    calls = []
    compile_pattern = rewrite.compile_pattern

    def counting(pattern):
        calls.append(pattern)
        return compile_pattern(pattern)

    monkeypatch.setattr(rewrite, "compile_pattern", counting)
    pipeline = BoolEPipeline(OPTIONS)
    pipeline.run(_circuits()[0])
    searchers = sum(len(rule.searchers())
                    for rule in pipeline._r1 + pipeline._r2)
    assert len(calls) == searchers
