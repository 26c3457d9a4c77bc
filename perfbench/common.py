"""Shared pieces of the benchmark: stored-input layout, digests, closed forms.

Stored inputs live in `perfbench/inputs/`.  Each `m<m>_d<d>.txt` holds the
e-coordinate kernel generators of one (m, d), one `poly_to_text(g, names="e")`
line per generator, as `make_inputs.py` wrote them from the library.
`manifest.json` records the sha256 of every such file and the sha256 of the
reduced basis the seed library computed for every (m, d) the workloads use.
"""

import gc
import hashlib
import json
import os
import time
from fractions import Fraction
from math import comb

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
INPUTS = os.path.join(HERE, "inputs")
MANIFEST = os.path.join(INPUTS, "manifest.json")

# (m, d) whose e-generators are stored, and (m, d) whose basis digest is stored
STORED_GENERATORS = ((2, 6), (3, 5), (5, 4), (3, 4), (2, 5), (4, 4))
STORED_BASES = STORED_GENERATORS + ((5, 3),)

# One pass of a workload runs each instance once, each in a fresh child
# interpreter.  An instance is (task, m, d); m and d are None where unused.
WORKLOADS = {
    "verify-cold": (
        ("verify", 2, 5),
        ("verify", 3, 4),
        ("verify", 4, 4),
        ("verify", 5, 3),
        ("paper-example", None, None),
    ),
    "reduce-stored": (
        ("reduce", 2, 6),
        ("reduce", 3, 5),
        ("reduce", 5, 4),
    ),
    "minimal-subset": (
        ("minimal", 3, 4),
        ("minimal", 2, 5),
        ("minimal", 4, 4),
        ("multiplicity", None, None),
    ),
}

# Spans each workload must produce in a traced pass; one that never fires
# means a wrapped name was renamed or bypassed, and the traced run fails.
REQUIRED_SPANS = {
    "verify-cold": (
        "cli.main",
        "presentation.kernel_ideal",
        "coha.kernel_generators",
        "polynomial.schur",
        "polynomial.is_symmetric",
        "polynomial.to_elementary",
        "polynomial.parse",
        "groebner.buchberger",
        "groebner.hilbert_function",
        "groebner.standard_monomials",
        "groebner.normal_form",
        "presentation.chern_basis",
        "presentation.poincare_match",
        "presentation.local_multiplicity",
        "forests.census",
        "forests.btuples",
    ),
    "reduce-stored": (
        "polynomial.parse",
        "groebner.buchberger",
        "groebner.hilbert_function",
        "groebner.standard_monomials",
        "groebner.normal_form",
        "presentation.chern_basis",
        "presentation.poincare_match",
        "forests.census",
        "forests.btuples",
    ),
    "minimal-subset": (
        "polynomial.parse",
        "groebner.buchberger",
        "groebner.standard_monomials",
        "groebner.normal_form",
        "presentation.minimal_subset",
        "presentation.local_multiplicity",
    ),
}


def child_env():
    """Environment of a child interpreter: `src/` importable, COHA_HILB_THREADS unset."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("COHA_HILB_THREADS", None)
    return env


def instance_name(task, m, d):
    return task if m is None else f"{task}-{key(m, d)}"


def key(m, d):
    return f"m{m}_d{d}"


def sha256_hex(data):
    return hashlib.sha256(data).hexdigest()


def generators_text(gens):
    """The stored file body for a list of e-coordinate generators."""
    from nchilb.polynomial import poly_to_text

    return "".join(poly_to_text(g, names="e") + "\n" for g in gens)


def basis_digest(gb):
    """sha256 of the reduced basis, one canonical text line per member."""
    return sha256_hex(generators_text(gb.polys).encode())


def reference_seconds():
    """Wall and CPU seconds of a fixed pure-Python kernel: the machine's speed now.

    An integer loop and Fraction sums in a tuple-keyed dict, the same kinds
    of work as the library's inner loops.  It never calls nchilb, so only the
    machine moves it; the collector is off so that the heap left by imports
    does not.  About 0.05 s on an idle core of a 2-vCPU Intel Xeon VM.
    """
    gc.disable()
    try:
        start, cpu_start = time.perf_counter(), time.process_time()
        acc = 0
        for i in range(400_000):
            acc += i * i % 7
        terms = {}
        for i in range(8_000):
            exp = (i % 7, i % 11, i % 13)
            terms[exp] = terms.get(exp, Fraction(0)) + Fraction(i % 17 + 1, i % 5 + 1)
        return time.perf_counter() - start, time.process_time() - cpu_start
    finally:
        gc.enable()


def fuss_catalan(m, d):
    """Number of m-ary trees with d nodes, C(md, d) / ((m-1)d + 1)."""
    return comb(m * d, d) // ((m - 1) * d + 1)


class InputMismatch(Exception):
    """A stored input is missing or its digest differs from the manifest."""


# exit code of a child that refuses its stored inputs; the run then stops
INPUT_MISMATCH_EXIT = 3


def load_manifest():
    try:
        with open(MANIFEST) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise InputMismatch(f"cannot read inputs/manifest.json: {exc}") from exc


def read_generators_text(m, d, manifest):
    """The stored generator text of (m, d), after checking its sha256."""
    entry = manifest["generators"].get(key(m, d))
    if entry is None:
        raise InputMismatch(f"no stored generators for (m, d) = ({m}, {d})")
    path = os.path.join(INPUTS, entry["file"])
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise InputMismatch(f"cannot read {entry['file']}: {exc}") from exc
    if sha256_hex(data) != entry["sha256"]:
        raise InputMismatch(f"{entry['file']} does not match its sha256 in the manifest")
    return data.decode()
