"""Source hygiene that no installed linter checks.

No module defines a top-level name twice, and every top-level import of
a library module is used there or exported in its `__all__`.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = sorted([*ROOT.glob("src/nchilb/*.py"), *ROOT.glob("tests/*.py")])
LIBRARY = sorted(path for path in ROOT.glob("src/nchilb/*.py") if path.name != "__init__.py")

# (module file, name): why the import stays although the module never reads it
KEPT_IMPORTS = {
    ("presentation.py", "is_symmetric"): "perfbench/tracer.py wraps nchilb.presentation.is_symmetric",
}


def _bound(node):
    """The names a top-level statement binds; a plain `import a.b` only rebinds a, so it binds none."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [
            name.id
            for target in targets
            for name in ast.walk(target)
            if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store)
        ]
    if isinstance(node, ast.ImportFrom):
        return [alias.asname or alias.name for alias in node.names]
    if isinstance(node, ast.Import):
        return [alias.asname for alias in node.names if alias.asname]
    return []


def duplicate_names(source):
    """(name, first line, later line) for each top-level name that source binds again."""
    first = {}
    duplicates = []
    for node in ast.parse(source).body:
        for name in _bound(node):
            if name in first:
                duplicates.append((name, first[name], node.lineno))
            else:
                first[name] = node.lineno
    return duplicates


@pytest.mark.parametrize("path", MODULES, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_no_top_level_name_defined_twice(path):
    assert duplicate_names(path.read_text()) == []


def test_duplicate_check_sees_each_kind_of_binding():
    source = (
        "import nchilb.groebner\n"
        "import nchilb.presentation\n"
        "@st.composite\n"
        "def cases(draw): ...\n"
        "class Cases: ...\n"
        "cases, LIMIT = 1, 2\n"
        "from helpers import LIMIT as Cases\n"
        "obj.attr = 3\n"
        "obj.attr = 4\n"
    )
    assert duplicate_names(source) == [("cases", 4, 6), ("Cases", 5, 7)]


def _imported(node):
    """The names a top-level import binds; `import a.b` binds a."""
    if isinstance(node, ast.ImportFrom):
        return [alias.asname or alias.name for alias in node.names]
    if isinstance(node, ast.Import):
        return [alias.asname or alias.name.partition(".")[0] for alias in node.names]
    return []


def unused_imports(source):
    """(name, line) for each top-level import that source never reads nor names in `__all__`."""
    tree = ast.parse(source)
    read = {
        node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["__all__"]:
            exported = set(ast.literal_eval(node.value))
    return [
        (name, node.lineno)
        for node in tree.body
        for name in _imported(node)
        if name not in read and name not in exported
    ]


@pytest.mark.parametrize("path", LIBRARY, ids=lambda path: path.name)
def test_every_library_import_is_used(path):
    unused = unused_imports(path.read_text())
    assert [(name, line) for name, line in unused if (path.name, name) not in KEPT_IMPORTS] == []


def test_kept_imports_are_still_unused():
    # an exception that the module now reads, or no longer imports, is stale
    for module, name in KEPT_IMPORTS:
        source = (ROOT / "src" / "nchilb" / module).read_text()
        assert name in [found for found, _ in unused_imports(source)]


def test_unused_import_check_sees_each_kind_of_import():
    source = (
        "import os\n"
        "import os.path as osp\n"
        "import nchilb.groebner\n"
        "from helpers import (LIMIT, oracle as check)\n"
        "from .coha import psi\n"
        "from .polynomial import rho\n"
        "__all__ = ['psi']\n"
        "def f():\n"
        "    rho = 1\n"
        "    return os.sep, nchilb.groebner.buchberger, LIMIT\n"
    )
    # storing to an imported name does not use it
    assert unused_imports(source) == [("osp", 2), ("check", 4), ("rho", 6)]
