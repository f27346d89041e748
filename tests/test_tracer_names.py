"""The layer benchmark's tracer patches library entry points by name.

``layerbench/tracing.py`` wraps every ``FUNCTIONS``/``METHODS`` entry with
``getattr``/``setattr`` when ``--trace 1`` is on.  Renaming or deleting
one of those names in ``src/`` would break the traced benchmark only at
benchmark time; these tests resolve every entry so it breaks here.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "layerbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("layerbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize("module_name,attr,span", tracing.FUNCTIONS)
def test_function_resolves(module_name, attr, span):
    module = importlib.import_module(module_name)
    assert callable(getattr(module, attr, None)), (
        f"{module_name}.{attr} (span {span!r}) is gone")


@pytest.mark.parametrize("module_name,cls_name,attr,span", tracing.METHODS)
def test_method_resolves(module_name, cls_name, attr, span):
    owner = importlib.import_module(module_name)
    if cls_name:
        owner = getattr(owner, cls_name, None)
        assert owner is not None, f"{module_name}.{cls_name} is gone"
    assert callable(getattr(owner, attr, None)), (
        f"{module_name}.{cls_name}.{attr} (span {span!r}) is gone")
