"""Quotient presentations of the degree-d Chow rings for one framing root.

The degree-d kernel generators from the shuffle algebra are symmetric, so
they rewrite as polynomials in e_1,..,e_d with weight wt(e_i) = i.  A
reduced basis of the ideal they generate yields the ring presentation,
the Hilbert function by weighted degree, the standard-monomial basis, and
the verdicts tying everything back to the forest combinatorics: the
monomials indexed by B-tuples must form a quotient basis and the Hilbert
series must match the codimension generating polynomial of the forests.

Also here: the generic local multiplicity of a parametrized plane ideal,
computed as the minimal quotient dimension over random rational parameter
specializations, and the dimension of each of them.
"""

import random
from functools import lru_cache

from .coha import kernel_generators
from .forests import ambient_dimension, enumerate_btuples, poincare_polynomial
from .groebner import _add_pivot, buchberger, minimal_generator_subset, normal_form
from .polynomial import (
    SparsePoly,
    _clear_denominators,
    is_symmetric,  # noqa: F401  (perfbench/tracer.py wraps nchilb.presentation.is_symmetric)
    poly_to_text,
    to_elementary,
)
from .rationals import QQ

__all__ = [
    "kernel_ideal",
    "kernel_ideal_generators",
    "chern_monomial",
    "verify_chern_basis",
    "verify_poincare_match",
    "local_multiplicity",
    "trial_dimensions",
    "minimal_generator_subset",
    "PresentationReport",
    "presentation_report",
]


def e_weights(d):
    return tuple(range(1, d + 1))


def kernel_ideal_generators(d, m):
    """Kernel generators rewritten in the e-variables, zeros dropped."""
    return [
        to_elementary(element.symmetric)
        for element in kernel_generators(d, m)
        if not element.symmetric.is_zero()
    ]


@lru_cache(maxsize=None)
def kernel_ideal(m, d):
    """Reduced basis of the ideal presenting the degree-d quotient ring."""
    if d < 1:
        raise ValueError("d must be positive")
    return buchberger(kernel_ideal_generators(d, m), e_weights(d))


_ONE = QQ(1)


def chern_monomial(b, d):
    """The e-monomial prod_k e_k^{b_{d-k}} attached to a B-tuple."""
    exp = tuple(b[d - k] for k in range(1, d + 1))
    return SparsePoly._make(d, {exp: _ONE})


def verify_chern_basis(m, d, gb=None):
    """Do the B-tuple monomials form a basis of the quotient ring?

    True when their number equals the quotient dimension and their normal
    forms are linearly independent.  A monomial that is its own normal form
    (`normal_form` returns it as it is) is standard, a unit row in the basis
    of standard monomials; the other rows are independent of those exactly
    when, restricted to the columns that no unit row covers, they are
    independent among themselves.
    """
    if gb is None:
        gb = kernel_ideal(m, d)
    if not gb.is_finite_dimensional():
        return False
    btuples = enumerate_btuples(m, d, 1)
    monomials = [chern_monomial(b, d) for b in btuples]
    if len(monomials) != gb.quotient_dimension():
        return False
    rows = [(p, normal_form(p, gb)) for p in monomials]
    units = {exp for p, form in rows if form is p for exp in p.terms}
    pivots = {}
    return all(
        _add_pivot(pivots, {exp: c for exp, c in form.terms.items() if exp not in units})
        for p, form in rows
        if form is not p
    )


def top_degree(m, d):
    """Highest degree the Hilbert function is read in: the ambient dimension, at least 0."""
    return max(ambient_dimension(m, d, 1), 0)


def verify_poincare_match(m, d, gb=None):
    """Hilbert function of the quotient against the forest codimension census."""
    if gb is None:
        gb = kernel_ideal(m, d)
    max_deg = top_degree(m, d)
    hilbert = gb.hilbert_function(max_deg)
    census = poincare_polynomial(m, d, 1, by="codim")
    census = census + [0] * (max_deg + 1 - len(census))
    return hilbert == census[: max_deg + 1]


def local_multiplicity(polys, trials=5, seed=0, local_vars=2):
    """Generic quotient dimension of a parametrized ideal in the local variables.

    The least of `trial_dimensions`, which by semicontinuity is an upper
    bound on the generic value; it is probabilistic, not a proof.  Raises
    as `trial_dimensions` does.
    """
    return min(trial_dimensions(polys, trials, seed, local_vars))


def trial_dimensions(polys, trials=5, seed=0, local_vars=2):
    """The quotient dimension of each random specialization, in draw order.

    The first `local_vars` variables are kept; the remaining ones are
    parameters, specialized to random integers in [-100, 100] that keep
    every leading coefficient nonzero (a draw that does not is redrawn).
    Each trial computes the dimension of the specialized quotient.  Raises
    ValueError when trials < 1 or local_vars < 0, and RuntimeError when
    fewer than `trials` specializations were usable.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if local_vars < 0:
        raise ValueError(f"local_vars must be >= 0, got {local_vars}")
    if not polys:
        raise ValueError("need at least one polynomial")
    nvars = polys[0].nvars
    if any(p.nvars != nvars for p in polys):
        raise ValueError("polynomials disagree on variable count")
    if nvars < local_vars:
        raise ValueError(f"need at least {local_vars} variables")
    n_params = nvars - local_vars

    plans = [_specialization_plan(p, local_vars) for p in polys]
    weights = (1,) * local_vars
    rng = random.Random(seed)
    dimensions = []
    for _ in range(trials):
        for _attempt in range(1000):
            values = [rng.randint(-100, 100) for _ in range(n_params)]
            # each plan's first group is its leading local monomial
            if all(_evaluate(plan[0][1], values) for plan in plans):
                break
        else:
            continue
        specialized = [
            SparsePoly._make(local_vars, {local: QQ(_evaluate(terms, values)) for local, terms in plan})
            for plan in plans
        ]
        gb = buchberger(specialized, weights)
        if gb.is_finite_dimensional():
            dimensions.append(gb.quotient_dimension())
    if len(dimensions) < trials:
        raise RuntimeError(
            f"only {len(dimensions)} of {trials} requested specializations were "
            "usable (nonzero leading coefficients, a finite-dimensional quotient)"
        )
    return dimensions


def _leading_local_monomial(poly, local_vars):
    """The graded-lex-leading exponent of poly in the local variables."""
    if poly.is_zero():
        raise ValueError("zero polynomial has no leading coefficient")
    return max((exp[:local_vars] for exp in poly.terms), key=lambda e: (sum(e), e))


def _specialization_plan(poly, local_vars):
    """The terms of poly over one common denominator, grouped by local exponent, the leading one first.

    A group is (local exponent, [(int coefficient, ((parameter, exponent), ..))]),
    listing only the parameters with a nonzero exponent.
    """
    groups = {_leading_local_monomial(poly, local_vars): []}
    for exp, coef in _clear_denominators(poly.terms)[0].items():
        factors = tuple((i, a) for i, a in enumerate(exp[local_vars:]) if a)
        groups.setdefault(exp[:local_vars], []).append((coef, factors))
    return list(groups.items())


def _evaluate(terms, values):
    """The sum of the [(int coefficient, factors)] of a plan group at the parameter values."""
    total = 0
    for coef, factors in terms:
        for i, a in factors:
            coef *= values[i] ** a
        total += coef
    return total


class PresentationReport:
    """Everything the presentation pipeline knows about one (m, d).

    Compared by identity; not mutated after construction.
    """

    def __init__(self, m, d, generators, groebner, hilbert, standard_monomials, verdicts,
                 minimal_generators=None):
        self.m = m
        self.d = d
        self.generators = generators
        self.groebner = groebner
        self.hilbert = hilbert
        self.standard_monomials = standard_monomials
        self.verdicts = verdicts
        self.minimal_generators = minimal_generators

    def to_json(self):
        data = {
            "m": self.m,
            "d": self.d,
            "generators": [poly_to_text(g, names="e") for g in self.generators],
            "groebner": [poly_to_text(g, names="e") for g in self.groebner.polys],
            "hilbert": list(self.hilbert),
            "standard_monomials": [
                poly_to_text(SparsePoly.monomial(self.d, exp), names="e")
                for exp in self.standard_monomials
            ],
            "verdicts": dict(self.verdicts),
        }
        if self.minimal_generators is not None:
            data["minimal_generators"] = [
                poly_to_text(g, names="e") for g in self.minimal_generators
            ]
        return data


def presentation_report(m, d, minimal=False):
    """Run the whole presentation pipeline for one (m, d) with n = 1."""
    gens = kernel_ideal_generators(d, m)
    gb = buchberger(gens, e_weights(d))
    hilbert = tuple(gb.hilbert_function(top_degree(m, d)))
    standard = tuple(gb.standard_monomials()) if gb.is_finite_dimensional() else ()
    verdicts = {
        "chern_basis": verify_chern_basis(m, d, gb),
        "poincare_match": verify_poincare_match(m, d, gb),
    }
    minimal_gens = (
        tuple(minimal_generator_subset(gens, e_weights(d))) if minimal else None
    )
    return PresentationReport(
        m=m,
        d=d,
        generators=tuple(gens),
        groebner=gb,
        hilbert=hilbert,
        standard_monomials=standard,
        verdicts=verdicts,
        minimal_generators=minimal_gens,
    )
