"""Export consistency: each module's ``__all__`` and the package's re-exports agree."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

import fpq

MODULES = ("formats", "galt", "hadamard", "hwemu", "quantize", "synth", "tensorfile")


def _reexports() -> list[tuple[str, str]]:
    """(submodule, name) for every public name ``fpq/__init__.py`` imports
    from a submodule."""
    tree = ast.parse(Path(fpq.__file__).read_text())
    return [(node.module, alias.name) for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names if not alias.name.startswith("_")]


@pytest.mark.parametrize("module", MODULES)
def test_every_name_in_all_exists(module) -> None:
    mod = importlib.import_module(f"fpq.{module}")
    assert mod.__all__
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_every_module_with_all_is_listed() -> None:
    files = Path(fpq.__file__).parent.glob("*.py")
    assert {f.stem for f in files if "__all__" in f.read_text()} == set(MODULES)


def test_reexports_are_in_their_modules_all() -> None:
    pairs = _reexports()
    assert {module for module, _ in pairs} <= set(MODULES) and len(pairs) > 40
    stale = [f"{module}.{name}" for module, name in pairs
             if name not in importlib.import_module(f"fpq.{module}").__all__]
    assert stale == []
