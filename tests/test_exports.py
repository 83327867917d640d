"""Every name a module exports exists in it, so a deleted function cannot
linger as an export.  Every export is also read by the library, the
benchmark or an acceptance criterion, and every private module-level name
by the library, so none lives for its tests alone.  Only ``MethodSpec``
compares a value with a method kind.  Records that hold arrays compare by
identity."""

import ast
import dataclasses
import importlib
import pkgutil
from pathlib import Path

import pytest

import wavedens

MODULES = sorted(m.name for m in pkgutil.iter_modules(wavedens.__path__))
ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path(wavedens.__file__).parent


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
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def _library_files() -> list:
    return [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]


def test_every_export_is_reached():
    reached = _used_names([
        *_library_files(),
        *sorted((ROOT / "perfbench").glob("*.py")),
        ROOT / "tests" / "test_acceptance.py",
    ])
    exported = {name for m in MODULES for name in getattr(
        importlib.import_module(f"wavedens.{m}"), "__all__", [])}
    assert sorted(exported - reached) == []


def _private_names(path) -> set:
    """The module-level functions, classes and assigned names of a file
    that start with one underscore."""
    names = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name))
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def test_every_private_name_is_read_by_the_library():
    files = sorted(PACKAGE.glob("*.py"))
    private = {f"{p.stem}.{n}" for p in files for n in _private_names(p)}
    assert len(private) > 40  # the walk found the modules' helpers
    reached = _used_names(files)
    assert sorted(n for n in private if n.split(".")[1] not in reached) == []


_METHOD_KINDS = {"wavelet", "kernel"}


def _holds_kind(node) -> bool:
    """``node`` is a method-kind string, or a literal tuple, list or set
    holding one."""
    items = node.elts if isinstance(node, (ast.Tuple, ast.List, ast.Set)) else [node]
    return any(isinstance(i, ast.Constant) and i.value in _METHOD_KINDS
               for i in items)


def test_only_method_spec_branches_on_kind():
    # MethodSpec.fit owns the map from a method kind to its fitter; a
    # comparison with a kind string anywhere else is a second copy of it
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {id(n) for c in ast.walk(tree)
                 if isinstance(c, ast.ClassDef) and c.name == "MethodSpec"
                 for n in ast.walk(c)}
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Compare) and id(node) not in owner
                  and any(map(_holds_kind, [node.left, *node.comparators]))]
    assert found == []


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
