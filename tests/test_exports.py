"""Every public export of the package resolves, and each one is used."""

import ast
import functools
import importlib
import pkgutil
from pathlib import Path

import pytest

import glad

MODULES = ["glad"] + [f"glad.{info.name}" for info in pkgutil.iter_modules(glad.__path__)]
ROOT = Path(__file__).resolve().parents[1]
# The paper's generative samplers: the pipeline generates through the
# planted-anomaly injections instead, and the tests draw their data from them.
SAMPLERS = (
    ("glad.generator", "generate_glad"),
    ("glad.generator", "generate_glad0"),
    ("glad.generator", "generate_dglad"),
)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(set(exported)) == len(exported), "duplicate names in __all__"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names undefined {missing}"


@functools.cache
def _names_used_outside_tests():
    # identifiers read, attributes taken and names imported anywhere in the
    # program, the benchmark and the scripts; a definition, an assignment,
    # an ``__all__`` string or a docstring mention is not a use
    used = set()
    for folder in ("src", "perfbench", "scripts"):
        for path in (ROOT / folder).rglob("*.py"):
            if path.name.startswith("test_"):
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif isinstance(node, ast.alias):
                    used.add(node.name)
    return frozenset(used)


@pytest.mark.parametrize("name", MODULES[1:])
def test_every_export_is_used_outside_tests(name):
    used = _names_used_outside_tests()
    unused = [
        attr for attr in importlib.import_module(name).__all__
        if attr not in used and (name, attr) not in SAMPLERS
    ]
    assert not unused, f"{name} exports names only tests reach: {unused}"
