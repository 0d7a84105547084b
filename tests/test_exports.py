"""Every name a module of the package exports in ``__all__`` exists."""

import importlib

import pytest

import afdg

MODULES = ["afdg"] + [f"afdg.{name}" for name in afdg.__all__]


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    missing = [n for n in getattr(module, "__all__", ())
               if not hasattr(module, n)]
    assert not missing, f"{module_name}.__all__ names {missing}"
