"""Every public export of the package resolves, and each one is used; every
model config field is a `glad fit` flag, and every other config field is set
by the program, not only by tests."""

import argparse
import ast
import dataclasses
import functools
import importlib
import pkgutil
from pathlib import Path

import pytest

import glad
from glad.baselines import MixtureConfig
from glad.cli import _FLAG_FIELDS, _MODELS, build_parser
from glad.dglad_mc import DGladConfig
from glad.glad0_vem import Fit0Config
from glad.glad_vem import FitConfig

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
def _program_files():
    # parsed sources of the program, the benchmark and the scripts, without
    # their tests
    return tuple(
        ast.parse(path.read_text())
        for folder in ("src", "perfbench", "scripts")
        for path in (ROOT / folder).rglob("*.py")
        if not path.name.startswith("test_")
    )


@functools.cache
def _names_used_outside_tests():
    # identifiers read, attributes taken and names imported anywhere in the
    # program, the benchmark and the scripts; a definition, an assignment,
    # an ``__all__`` string or a docstring mention is not a use
    used = set()
    for tree in _program_files():
        for node in ast.walk(tree):
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


def _keywords_passed_outside_tests(callee):
    # keyword names of every call to ``callee`` (a bare or dotted name) in
    # the program, the benchmark and the scripts
    passed = set()
    for tree in _program_files():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == callee:
                    passed.update(k.arg for k in node.keywords if k.arg)
    return passed


def _fit_flag_fields():
    # the config field each `glad fit` option sets, --seed included
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {
        _FLAG_FIELDS.get(action.dest, action.dest)
        for action in commands.choices["fit"]._actions
        if action.option_strings
    }


@pytest.mark.parametrize("config", [FitConfig, Fit0Config, DGladConfig, MixtureConfig])
def test_every_config_field_is_set_outside_tests(config):
    # a field that only tests set is a mode the pipeline never runs; a model
    # config's fields are exactly what `glad fit` sets, so a mode that only
    # the program's own calls reach fails here too
    if config in {model.config for model in _MODELS.values()}:
        reached = _fit_flag_fields()
    else:
        reached = _keywords_passed_outside_tests(config.__name__)
        reached |= _keywords_passed_outside_tests("replace")
    unset = [f.name for f in dataclasses.fields(config) if f.name not in reached]
    assert not unset, f"{config.__name__} fields no program run sets: {unset}"


def test_cli_builds_model_configs_only_through_the_registry():
    # `glad fit` and every `glad benchmark` cell take their config from
    # `_MODELS[...].config`, so each flag reaches its field in one place
    tree = ast.parse((ROOT / "src" / "glad" / "cli.py").read_text())
    names = {config.__name__ for config in (FitConfig, Fit0Config, DGladConfig)}
    direct = [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) in names or getattr(node.func, "attr", None) in names)
    ]
    assert not direct, f"cli.py builds a model config directly on lines {direct}"


def test_program_imports_no_scipy():
    # scipy is a test oracle only: the special functions and the label
    # matching are numpy transcriptions, checked against scipy in the tests
    imports = []
    for path in sorted((ROOT / "src" / "glad").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            imports += [
                f"{path.name}:{node.lineno}" for name in names if name.split(".")[0] == "scipy"
            ]
    assert not imports, f"src/glad imports scipy at {imports}"
