"""Shuffle-product algebra of the m-loop quiver and its kernel generators.

Degree-d elements are symmetric polynomials in d variables.  The product
of elements of arities p and q sums, over all complementary index pairs
(I, J) of {1,..,d}, the product of the factors evaluated at x_I and x_J
times the interaction kernel prod (x_j - x_i)^(m-1).  For m >= 1 the
product is computed from a single block term, symmetrized on partitions
with integer coefficients.  Every such shuffle sum, including m = 0 where
the kernel is a denominator, is also one antisymmetrization: multiplying
the block term by the Vandermonde product turns the sum into rho of a
polynomial, whose division by the discriminant is exact.

The same shuffle machinery produces the degree-d kernel generators
f * (e_q cup g), with f a Schur polynomial in the first p variables and
g = 1, which present the quotient rings downstream.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

from .polynomial import (
    SparsePoly,
    _block_discriminant,
    _clear_denominators,
    _embed,
    _orbit,
    _orbit_coefficients,
    _orbit_size,
    _stabilizer_order,
    elementary_symmetric,
    is_symmetric,
    partitions_in_box,
    rho,
    schur,
)
from .rationals import QQ

__all__ = [
    "CohaElement",
    "coha_mul",
    "psi",
    "psi_product",
    "forbidden_polynomial",
    "tautological_relation",
    "shuffle_expression",
    "module_basis",
    "kernel_generators",
    "bidegree",
]


@dataclass(frozen=True)
class CohaElement:
    """An arity d >= 0 together with a symmetric polynomial in d variables."""

    d: int
    poly: SparsePoly

    def __post_init__(self):
        if self.d < 0:
            raise ValueError("arity must be non-negative")
        if self.poly.nvars != self.d:
            raise ValueError(
                f"polynomial has {self.poly.nvars} variables, arity is {self.d}"
            )
        if not is_symmetric(self.poly):
            raise ValueError("polynomial is not symmetric")

    def to_json(self):
        from .polynomial import poly_to_json

        return {"d": self.d, "poly": poly_to_json(self.poly)}

    @classmethod
    def from_json(cls, obj):
        from .polynomial import poly_from_json

        poly, _ = poly_from_json(obj["poly"])
        return cls(obj["d"], poly)


def _mul_int(a, b):
    """Product of two polynomials given as maps from exponents to integers."""
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            exp = tuple(x + y for x, y in zip(e1, e2))
            out[exp] = out.get(exp, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


@lru_cache(maxsize=None)
def _kernel_power(p, q, power):
    """prod_{i<=p<j} (x_j - x_i)^power in p + q variables, integer coefficients.

    Cached; callers must not modify the returned map.
    """
    d = p + q
    kernel = {(0,) * d: 1}
    for i in range(p):
        for j in range(p, d):
            factor = {}
            for k in range(power + 1):
                exp = [0] * d
                exp[i], exp[j] = power - k, k
                factor[tuple(exp)] = (-1) ** (power - k) * math.comb(power, k)
            kernel = _mul_int(kernel, factor)
    return kernel


def _orbit_representatives(poly):
    """A symmetric polynomial as integers on its sorted exponents, and a denominator.

    Each sorted exponent carries its coefficient times its orbit size, so
    that the symmetrization of the result over S_n is that of poly.
    """
    integers, denom = _clear_denominators(_orbit_coefficients(poly, poly.nvars))
    return {exp: c * _orbit_size(exp) for exp, c in integers.items()}, denom


def _block_shuffle(f, g, m):
    """Shuffle product for m >= 1 from one block term instead of C(d, p).

    With base = f(x_1..x_p) g(x_{p+1}..x_d) prod_{i<=p<j} (x_j - x_i)^(m-1),
    which is S_p x S_q-invariant, the shuffle sum is the sum of sigma(base)
    over S_d divided by p! q!.  Its coefficient of x^mu, mu a partition, is
    therefore |Stab mu| / (p! q!) times the sum of base over the S_d-orbit
    of mu.  Both factors are symmetric, so each may be replaced by its
    sorted exponents weighted by orbit size without changing that sum.
    """
    p, q = f.d, g.d
    d = p + q
    f_reps, f_denom = _orbit_representatives(f.poly)
    g_reps, g_denom = _orbit_representatives(g.poly)
    block = {e1 + e2: c1 * c2 for e1, c1 in f_reps.items() for e2, c2 in g_reps.items()}
    sums = {}
    for exp, coef in _mul_int(block, _kernel_power(p, q, m - 1)).items():
        mu = tuple(sorted(exp, reverse=True))
        sums[mu] = sums.get(mu, 0) + coef
    norm = math.factorial(p) * math.factorial(q)
    denom = f_denom * g_denom
    terms = {}
    for mu, total in sums.items():
        coef, rest = divmod(_stabilizer_order(mu) * total, norm)
        if rest:  # the theory forbids this
            raise ArithmeticError(
                "block symmetrization is not integral; this indicates a bug "
                "in the shuffle product"
            )
        if coef:
            terms.update(dict.fromkeys(_orbit(mu), QQ(coef, denom)))
    return SparsePoly._make(d, terms)


def _antisymmetrized_shuffle(base, p, m):
    """Sum over complementary (I, J) of base(x_I, x_J) prod_{i in I, j in J} (x_j - x_i)^(m-1).

    base must be S_p x S_q-invariant.  With Delta_p and Delta_q the
    Vandermonde products of the two blocks and Delta_pq = prod_{i<=p<j}
    (x_j - x_i), the product Delta_p Delta_q Delta_pq is the full
    Vandermonde, so rho(base Delta_p Delta_q Delta_pq^m) is the sum of
    sigma(base Delta_pq^(m-1)) over S_d, which counts every shuffle term
    p! q! times.  This holds for every m >= 0.
    """
    q = base.nvars - p
    kernel = SparsePoly(p + q, _kernel_power(p, q, m))
    return rho(base * _block_discriminant(p, q) * kernel) * QQ(
        1, math.factorial(p) * math.factorial(q)
    )


def coha_mul(f, g, m):
    """Shuffle product of two elements, of arity f.d + g.d."""
    if m < 0:
        raise ValueError("loop count m must be non-negative")
    if m >= 1:
        return CohaElement(f.d + g.d, _block_shuffle(f, g, m))
    d = f.d + g.d
    base = _embed(f.poly, tuple(range(f.d)), d) * _embed(g.poly, tuple(range(f.d, d)), d)
    return CohaElement(d, _antisymmetrized_shuffle(base, f.d, m))


def psi(k):
    """The arity-1 basis element x^k, of bidegree (1, -k)."""
    if k < 0:
        raise ValueError("k must be non-negative")
    return CohaElement(1, SparsePoly.monomial(1, (k,)))


def psi_product(ks, m):
    """Left-to-right shuffle product of psi_{k_1} * .. * psi_{k_r}."""
    ks = list(ks)
    if not ks:
        raise ValueError("psi_product needs at least one index")
    result = psi(ks[0])
    for k in ks[1:]:
        result = coha_mul(result, psi(k), m)
    return result


def forbidden_polynomial(p, d, m):
    """x_{p+1}..x_d times prod_{mu<=p<nu} (x_nu - x_mu)^m, in d variables."""
    if not 0 <= p < d:
        raise ValueError("need 0 <= p < d")
    return _right_variables(p, d - p) * SparsePoly(d, _kernel_power(p, d - p, m))


def _right_variables(p, q):
    """The monomial x_{p+1}..x_{p+q} in p + q variables."""
    return SparsePoly.monomial(p + q, (0,) * p + (1,) * q)


def tautological_relation(b, p, d, m):
    """Antisymmetrization of b times the p-th forbidden polynomial."""
    if b.nvars != d:
        raise ValueError(f"b has {b.nvars} variables, expected {d}")
    return CohaElement(d, rho(b * forbidden_polynomial(p, d, m)))


def shuffle_expression(h, p, q, m):
    """The shuffle form of a block-invariant h: sum of h(x_I, x_J) x_J kernel^(m-1).

    This is the displayed expansion of the tautological relations; with
    h = rho_pq(b) it coincides with rho(b * f^(p)).
    """
    d = p + q
    if h.nvars != d:
        raise ValueError(f"h has {h.nvars} variables, expected {d}")
    return _antisymmetrized_shuffle(h * _right_variables(p, q), p, m)


def module_basis(p, q):
    """Free-module basis of the block-invariants: Schur times one.

    Returns the binomial(p+q, p) polynomials s_lam(x_1,..,x_p), lam inside
    the p x q box, embedded into p+q variables.
    """
    if p < 0 or q < 0:
        raise ValueError("p and q must be non-negative")
    d = p + q
    return [
        _embed(schur(lam, p), tuple(range(p)), d) for lam in partitions_in_box(p, q)
    ]


def kernel_generators(d, m):
    """The 2^d - 1 products s_lam(x_1..x_p) * (e_q cup 1) for p < d, lam in a p x q box."""
    if d < 1:
        raise ValueError("d must be positive")
    gens = []
    for p in range(d):
        q = d - p
        e_top = CohaElement(q, elementary_symmetric(q, q))
        for lam in partitions_in_box(p, q):
            f = CohaElement(p, schur(lam, p))
            gens.append(coha_mul(f, e_top, m))
    return gens


def bidegree(f, m):
    """(d, k) with k = (m-1) d (d-1) / 2 minus the cohomological degree."""
    if f.poly.is_zero():
        raise ValueError("the zero element has no bidegree")
    if not f.poly.is_homogeneous():
        raise ValueError("element is not homogeneous")
    c = f.poly.degree()
    return (f.d, (m - 1) * f.d * (f.d - 1) // 2 - c)
