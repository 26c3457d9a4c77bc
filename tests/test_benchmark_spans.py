"""The library names that the benchmark's tracer wraps must keep existing.

`perfbench/tracer.py` wraps public names of the library from outside, and
`perfbench/common.py` lists the spans each workload must produce.  Both
files are read as source, never imported or changed, so a renamed or
deleted name fails here instead of only in a traced benchmark run.
"""

import ast
import importlib
import os

import pytest

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


def _literal(filename, name):
    """The literal value of a module-level assignment `name = ...`."""
    with open(os.path.join(PERFBENCH, filename)) as fh:
        tree = ast.parse(fh.read(), filename)
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{filename} has no module-level {name}")


SPANS = _literal("tracer.py", "SPANS")
REQUIRED_SPANS = _literal("common.py", "REQUIRED_SPANS")


@pytest.mark.parametrize("owner,attr,name", SPANS, ids=[f"{o}.{a}" for o, a, _ in SPANS])
def test_wrapped_name_resolves(owner, attr, name):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    if cls:
        obj = getattr(obj, cls)
    assert callable(getattr(obj, attr, None)), f"{owner} has no callable {attr} for span {name}"


def test_every_required_span_is_produced():
    produced = {name for _, _, name in SPANS}
    for workload, required in REQUIRED_SPANS.items():
        missing = sorted(set(required) - produced)
        assert not missing, f"{workload} requires spans that no wrap produces: {missing}"
