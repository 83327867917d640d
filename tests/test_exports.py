"""Every name a module exports exists in it, so a deleted function cannot
linger as an export."""

import importlib
import pkgutil

import pytest

import wavedens

MODULES = sorted(m.name for m in pkgutil.iter_modules(wavedens.__path__))


def test_modules_found():
    assert {"basis", "cli", "estimator", "kernel", "risk", "signals"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"wavedens.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []
