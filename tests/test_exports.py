"""Every public export of the package resolves."""

import importlib
import pkgutil

import pytest

import glad

MODULES = ["glad"] + [f"glad.{info.name}" for info in pkgutil.iter_modules(glad.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(set(exported)) == len(exported), "duplicate names in __all__"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names undefined {missing}"
