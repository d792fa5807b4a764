"""Every name a collabmetrics module lists in ``__all__`` exists."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import collabmetrics

MODULES = ["collabmetrics", *(f"collabmetrics.{m.name}" for m in pkgutil.iter_modules(collabmetrics.__path__))]


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_exist(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), "duplicate name in __all__"
    assert [n for n in exported if not hasattr(module, n)] == []
