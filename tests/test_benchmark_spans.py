"""The library names that the benchmark's tracer wraps must keep existing.

`perfbench/tracer.py` wraps public names of the library from outside, and
`perfbench/common.py` lists the spans each workload must produce.  Both
files are read as source, never imported or changed, so a renamed or
deleted name fails here instead of only in a traced benchmark run.  One
traced `verify`, `reduce`, `minimal` and `multiplicity` child each run in a
subprocess, so that a library path that still exists but no longer goes
through the wrapped names fails here too.
"""

import ast
import importlib
import json
import os
import subprocess
import sys

import pytest

from helpers import fuss_catalan_trees

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


def _traced_child(task, m=None, d=None):
    """The result line of one traced `perfbench/child.py` run."""
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    size = [] if m is None else ["--m", str(m), "--d", str(d)]
    proc = subprocess.run(
        [sys.executable, os.path.join(PERFBENCH, "child.py"), "--task", task, *size, "--trace", "1"],
        cwd=root, env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def test_traced_verify_child_checks_and_spans():
    """A traced `chow verify` at (2, 5): stored e-generators equal, layer spans fired."""
    result = _traced_child("verify", 2, 5)
    # the traced check compares the traced to_elementary results with the stored file
    assert result["errors"] == []
    fired = {span[0] for span in result["spans"]}
    for name in (
        "coha.kernel_generators",
        "polynomial.schur",
        "polynomial.is_symmetric",
        "polynomial.to_elementary",
    ):
        assert name in fired, f"span {name} did not fire"
    assert result["counts"]["coha.generators"] == 31


def test_traced_reduce_child_checks_and_spans():
    """A traced reduce at (5, 4): basis digest and verdicts checked, every span of reduce-stored fired.

    A Chern verdict that skipped `normal_form` on any of its B-tuple
    monomials would fire the span `groebner.normal_form` fewer times than
    there are B-tuples, the Fuss-Catalan number of (5, 4).
    """
    result = _traced_child("reduce", 5, 4)
    assert result["errors"] == []
    fired = [span[0] for span in result["spans"]]
    missing = sorted(set(REQUIRED_SPANS["reduce-stored"]) - set(fired))
    assert not missing, f"spans {missing} did not fire"
    assert fired.count("groebner.normal_form") == fuss_catalan_trees(5, 4)


def test_traced_minimal_child_checks_and_spans():
    """A traced minimal subset at (3, 4): the subset checked, its normal forms spanned inside it.

    The subset's run takes its normal forms inside `groebner`, so this fails
    when they no longer go through the wrapped `nchilb.groebner.normal_form`.
    """
    result = _traced_child("minimal", 3, 4)
    assert result["errors"] == []
    spans = result["spans"]
    fired = {span[0] for span in spans}
    for name in ("polynomial.parse", "groebner.normal_form", "presentation.minimal_subset"):
        assert name in fired, f"span {name} did not fire"
    assert any(
        name == "groebner.normal_form" and spans[parent][0] == "presentation.minimal_subset"
        for name, _, _, parent in spans
        if parent is not None
    )


def test_traced_multiplicity_child_checks_and_spans():
    """A traced 200-trial local multiplicity: one wrapped Buchberger run per trial, inside it.

    The trials call `buchberger` through `nchilb.presentation`, so this fails
    when they no longer go through the wrapped name.
    """
    result = _traced_child("multiplicity")
    assert result["errors"] == []
    spans = result["spans"]
    outer = [i for i, span in enumerate(spans) if span[0] == "presentation.local_multiplicity"]
    assert len(outer) == 1
    runs = [span for span in spans if span[0] == "groebner.buchberger"]
    assert len(runs) == 200  # the child's trials
    assert all(parent == outer[0] for _, _, _, parent in runs)
