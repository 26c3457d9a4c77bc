"""The public names: each module's __all__ against its contents and the package imports."""

import ast
import importlib
import os
import subprocess
import sys

import pytest

import nchilb

MODULES = ["rationals", "polynomial", "forests", "coha", "groebner", "presentation"]


def _package_imports():
    """(module, name) for each name that nchilb/__init__.py imports from a submodule."""
    with open(os.path.join(os.path.dirname(nchilb.__file__), "__init__.py")) as fh:
        tree = ast.parse(fh.read())
    return [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_exists(module):
    mod = importlib.import_module(f"nchilb.{module}")
    assert len(mod.__all__) == len(set(mod.__all__))
    for name in mod.__all__:
        assert hasattr(mod, name), f"nchilb.{module}.__all__ names missing {name}"


def test_package_imports_only_exported_names():
    imports = _package_imports()
    assert {module for module, _ in imports} == set(MODULES)
    for module, name in imports:
        exported = importlib.import_module(f"nchilb.{module}").__all__
        assert name in exported, f"nchilb imports {name}, which nchilb.{module} does not export"


def test_removed_bialternant_names_are_gone():
    for name in ("antisymmetrize", "exact_divide", "NonDivisibleError", "discriminant", "CohaElement"):
        for module in (nchilb, nchilb.polynomial, nchilb.coha):
            assert not hasattr(module, name)


def test_cli_import_loads_no_dataclasses_inspect_or_typing():
    # -S keeps site hooks from importing them first
    code = "import nchilb.cli, sys; print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))"
    src = os.path.dirname(os.path.dirname(nchilb.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == "[]"
