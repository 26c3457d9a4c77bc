"""Spans around the library's layer boundaries, installed from outside.

The library is not changed.  `install` replaces the public names that a
caller looks up at call time (module globals such as
`nchilb.presentation.buchberger`, and `GroebnerBasis` methods) with
wrappers that record one span per call.  Spans stay in memory as
[name, start, end, parent] and are handed to the parent process once, at
the end of the child.
"""

import importlib
import time

# (owner, attribute, span name).  A function imported into several modules
# is wrapped at each call site that the workloads reach.
SPANS = (
    ("nchilb.cli", "main", "cli.main"),
    ("nchilb.cli", "kernel_ideal", "presentation.kernel_ideal"),
    ("nchilb.presentation", "kernel_generators", "coha.kernel_generators"),
    ("nchilb.coha", "schur", "polynomial.schur"),
    ("nchilb.coha", "is_symmetric", "polynomial.is_symmetric"),
    ("nchilb.presentation", "is_symmetric", "polynomial.is_symmetric"),
    ("nchilb.presentation", "to_elementary", "polynomial.to_elementary"),
    ("nchilb.polynomial", "poly_from_text", "polynomial.parse"),
    ("nchilb.cli", "poly_from_text", "polynomial.parse"),
    ("nchilb.presentation", "buchberger", "groebner.buchberger"),
    ("nchilb.cli", "buchberger", "groebner.buchberger"),
    ("nchilb.groebner:GroebnerBasis", "hilbert_function", "groebner.hilbert_function"),
    ("nchilb.groebner:GroebnerBasis", "standard_monomials", "groebner.standard_monomials"),
    ("nchilb.groebner", "normal_form", "groebner.normal_form"),
    ("nchilb.presentation", "normal_form", "groebner.normal_form"),
    ("nchilb.presentation", "verify_chern_basis", "presentation.chern_basis"),
    ("nchilb.cli", "verify_chern_basis", "presentation.chern_basis"),
    ("nchilb.presentation", "verify_poincare_match", "presentation.poincare_match"),
    ("nchilb.cli", "verify_poincare_match", "presentation.poincare_match"),
    ("nchilb.presentation", "minimal_generator_subset", "presentation.minimal_subset"),
    ("nchilb.presentation", "local_multiplicity", "presentation.local_multiplicity"),
    ("nchilb.cli", "local_multiplicity", "presentation.local_multiplicity"),
    ("nchilb.presentation", "poincare_polynomial", "forests.census"),
    ("nchilb.cli", "poincare_polynomial", "forests.census"),
    ("nchilb.presentation", "enumerate_btuples", "forests.btuples"),
)

# spans whose return values the counters need
KEEP_RESULTS = {
    "coha.kernel_generators",
    "polynomial.to_elementary",
    "forests.census",
}


def _resolve(owner):
    """'package.module' or 'package.module:Class' to the object."""
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Records nested spans of one child process; not thread-safe."""

    def __init__(self):
        self.spans = []
        self.results = {name: [] for name in KEEP_RESULTS}
        self.enabled = True
        self._stack = []

    def wrap(self, owner, attr, name):
        original = getattr(owner, attr)
        keep = self.results.get(name)

        def traced(*args, **kwargs):
            if not self.enabled:
                return original(*args, **kwargs)
            span = [name, time.perf_counter(), None, self._stack[-1] if self._stack else None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if keep is not None:
                keep.append(result)
            return result

        traced.__wrapped__ = original
        setattr(owner, attr, traced)

    def install(self):
        for owner, attr, name in SPANS:
            self.wrap(_resolve(owner), attr, name)


def self_times(spans):
    """Per span: its duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent is not None:
            own[parent] -= end - start
    return own
