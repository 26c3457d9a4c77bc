"""Source hygiene that no installed linter checks: no module defines a top-level name twice."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = sorted([*ROOT.glob("src/nchilb/*.py"), *ROOT.glob("tests/*.py")])


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
