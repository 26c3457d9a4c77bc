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
specializations.
"""

import random
from dataclasses import dataclass
from functools import lru_cache

from .coha import kernel_generators
from .forests import (
    ambient_dimension,
    enumerate_btuples,
    enumerate_forests,
    poincare_polynomial,
)
from .groebner import GroebnerBasis, buchberger, normal_form
from .polynomial import (
    SparsePoly,
    is_symmetric,  # noqa: F401  (perfbench/tracer.py wraps nchilb.presentation.is_symmetric)
    poly_to_json,
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


def chern_monomial(b, d):
    """The e-monomial prod_k e_k^{b_{d-k}} attached to a B-tuple."""
    exp = tuple(b[d - k] for k in range(1, d + 1))
    return SparsePoly.monomial(d, exp)


def _linearly_independent(polys):
    """Exact check that the polynomials are linearly independent over the rationals.

    Each one is reduced against the pivots kept so far, keyed by leading
    exponent; it either leaves a new pivot or reduces to zero, and the
    first zero means a dependence.
    """
    pivots = {}
    for p in polys:
        row = dict(p.terms)
        while row:
            lead = max(row)
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = {exp: coef / row[lead] for exp, coef in row.items()}
                break
            factor = row[lead]
            for exp, coef in pivot.items():
                value = row.get(exp, QQ(0)) - factor * coef
                if value:
                    row[exp] = value
                else:
                    del row[exp]
        else:
            return False
    return True


def verify_chern_basis(m, d, gb=None):
    """Do the B-tuple monomials form a basis of the quotient ring?

    True when their normal forms are linearly independent and their number
    equals the quotient dimension.
    """
    if gb is None:
        gb = kernel_ideal(m, d)
    if not gb.is_finite_dimensional():
        return False
    btuples = enumerate_btuples(m, d, 1)
    monomials = [chern_monomial(b, d) for b in btuples]
    if len(monomials) != gb.quotient_dimension():
        return False
    return _linearly_independent([normal_form(p, gb) for p in monomials])


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

    The first `local_vars` variables are kept; the remaining ones are
    parameters, specialized to random integers in [-100, 100] that keep
    every leading coefficient nonzero.  Each trial computes the dimension
    of the specialized quotient.  The result is the minimum over the
    trials, which by semicontinuity is an upper bound on the generic value;
    it is probabilistic, not a proof.  Raises ValueError when trials < 1 or
    local_vars < 0, and RuntimeError when fewer than `trials` specializations
    were usable.
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

    leads = [_leading_local_monomial(p, local_vars) for p in polys]
    top = [max(exp[local_vars + i] for p in polys for exp in p.terms) for i in range(n_params)]
    rng = random.Random(seed)
    dimensions = []
    for _ in range(trials):
        for _attempt in range(1000):
            values = [rng.randint(-100, 100) for _ in range(n_params)]
            powers = [[v**a for a in range(k + 1)] for v, k in zip(values, top)]
            specialized = [_specialize(p, local_vars, powers) for p in polys]
            if all(g.terms.get(lead) for g, lead in zip(specialized, leads)):
                break
        else:
            continue
        gb = buchberger(specialized, (1,) * local_vars)
        if gb.is_finite_dimensional():
            dimensions.append(gb.quotient_dimension())
    if len(dimensions) < trials:
        raise RuntimeError(
            f"only {len(dimensions)} of {trials} requested specializations were "
            "usable (nonzero leading coefficients, a finite-dimensional quotient)"
        )
    return min(dimensions)


def _leading_local_monomial(poly, local_vars):
    """The graded-lex-leading exponent of poly in the local variables."""
    if poly.is_zero():
        raise ValueError("zero polynomial has no leading coefficient")
    return max((exp[:local_vars] for exp in poly.terms), key=lambda e: (sum(e), e))


def _specialize(poly, local_vars, powers):
    """poly with parameter i replaced by a value whose a-th power is powers[i][a]."""
    terms = {}
    for exp, coef in poly.terms.items():
        value = 1
        for power, a in zip(powers, exp[local_vars:]):
            value *= power[a]
        local = exp[:local_vars]
        terms[local] = terms.get(local, 0) + coef * value
    return SparsePoly._make(local_vars, terms)


def minimal_generator_subset(gens, weights):
    """Greedy inclusion-minimal subset generating the same ideal.

    One pass in order drops each generator that the remaining ones still
    generate; minimal only in the inclusion sense.  A kept generator g is
    outside the ideal of the others, and the others only shrink later, so
    g stays needed: no earlier generator has to be tried again, and the
    pass drops the same generators, in the same order, as restarting from
    the first one after every drop would.
    """
    current = list(gens)
    i = 0
    while i < len(current):
        rest = current[:i] + current[i + 1 :]
        if rest and buchberger(rest, weights).contains(current[i]):
            current = rest
        else:
            i += 1
    return current


@dataclass(frozen=True)
class PresentationReport:
    """Everything the presentation pipeline knows about one (m, d)."""

    m: int
    d: int
    generators: tuple
    groebner: GroebnerBasis
    hilbert: tuple
    standard_monomials: tuple
    verdicts: dict
    minimal_generators: tuple = None

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
