"""Every name a collabmetrics module lists in ``__all__`` exists, and the README's library example runs."""

from __future__ import annotations

import importlib
import pkgutil
from pathlib import Path

import pytest

import collabmetrics

MODULES = ["collabmetrics", *(f"collabmetrics.{m.name}" for m in pkgutil.iter_modules(collabmetrics.__path__))]


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_exist(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), "duplicate name in __all__"
    assert [n for n in exported if not hasattr(module, n)] == []


def test_readme_library_use_runs():
    """The README's "Library use" block runs as written, so its call shapes follow the code."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library use", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
