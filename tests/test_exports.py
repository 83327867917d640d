"""Every name a module exports exists in it, so a deleted function cannot
linger as an export.  Every export is also read by the library, the
benchmark or an acceptance criterion, so none lives for its tests alone.
Records that hold arrays compare by identity."""

import ast
import dataclasses
import importlib
import pkgutil
from pathlib import Path

import pytest

import wavedens

MODULES = sorted(m.name for m in pkgutil.iter_modules(wavedens.__path__))
ROOT = Path(__file__).resolve().parents[1]


def test_modules_found():
    assert {"basis", "cli", "estimator", "kernel", "risk", "signals"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"wavedens.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []


def _used_names(paths) -> set:
    """Every name the files read, as a bare name or as an attribute."""
    used = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_every_export_is_reached():
    package = Path(wavedens.__file__).parent
    reached = _used_names([
        *(p for p in sorted(package.glob("*.py")) if p.name != "__init__.py"),
        *sorted((ROOT / "perfbench").glob("*.py")),
        ROOT / "tests" / "test_acceptance.py",
    ])
    exported = {name for m in MODULES for name in getattr(
        importlib.import_module(f"wavedens.{m}"), "__all__", [])}
    assert sorted(exported - reached) == []


def test_records_holding_arrays_compare_by_identity():
    # a generated == on an array field raises, and so does the hash of
    # any record holding such a record; eq=False keeps identity semantics
    field_by_field = sorted(
        f"{name}.{cls.__name__}"
        for name in MODULES
        for cls in vars(importlib.import_module(f"wavedens.{name}")).values()
        if dataclasses.is_dataclass(cls) and isinstance(cls, type)
        and cls.__module__ == f"wavedens.{name}"
        and any("ndarray" in str(f.type) for f in dataclasses.fields(cls))
        and cls.__eq__ is not object.__eq__)
    assert field_by_field == []
