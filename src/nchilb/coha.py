"""Shuffle-product algebra of the m-loop quiver and its kernel generators.

Degree-d elements are symmetric polynomials in d variables.  The product
of elements of arities p and q sums, over all complementary index pairs
(I, J) of {1,..,d}, the product of the factors evaluated at x_I and x_J
times the interaction kernel prod (x_j - x_i)^(m-1).  An element keeps its
polynomial on partitions, as a SymmetricPoly (integer monomial-symmetric
coefficients over one denominator), and one partition core computes every
product from a single block term instead of C(d, p) shuffles.  For m >= 1
the block term times the kernel is summed per sorted exponent; the kernel
power is only ever formed on its block-sorted exponents, as a product
over the first block of one polynomial in the second, and the forbidden
polynomials are read off the same representatives.  For m = 0, where
the kernel is a denominator, the block term times a staircase monomial
in each block is antisymmetrized.  Exponents are packed by the partition
codec of `polynomial`, and orbits are expanded by its `_spread`, so this
module keeps only the shuffle formula.  The x-space polynomial of an
element is expanded on each read, and no copy of it is kept.

The same shuffle machinery produces the degree-d kernel generators
f * (e_q cup g), with f a Schur polynomial in the first p variables and
g = 1, which present the quotient rings downstream; on that path no
generator is ever expanded into x-space.
"""

import itertools
import math
from functools import lru_cache

from .polynomial import (
    SparsePoly,
    SymmetricPoly,
    _alternate_sums,
    _clear_denominators,
    _orbit_size,
    _pack,
    _spread,
    _stabilizer_order,
    _unpack,
    _width,
    elementary_symmetric,
    is_symmetric,
    partitions_in_box,
    poly_from_json,
    poly_to_json,
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


class CohaElement:
    """An arity d >= 0 together with a symmetric polynomial in d variables.

    `symmetric` holds the polynomial on partitions; `poly` is its x-space
    form, expanded on each read.  Not mutated after construction.
    """

    __slots__ = ("symmetric",)

    def __init__(self, d, poly):
        if d < 0:
            raise ValueError("arity must be non-negative")
        if poly.nvars != d:
            raise ValueError(
                f"polynomial has {poly.nvars} variables, arity is {d}"
            )
        if not is_symmetric(poly):
            raise ValueError("polynomial is not symmetric")
        self.symmetric = SymmetricPoly.from_poly(poly)

    @classmethod
    def _from_symmetric(cls, symmetric):
        self = object.__new__(cls)
        self.symmetric = symmetric
        return self

    @property
    def d(self):
        return self.symmetric.nvars

    @property
    def poly(self):
        return self.symmetric.poly

    def __eq__(self, other):
        if not isinstance(other, CohaElement):
            return NotImplemented
        return self.d == other.d and self.symmetric == other.symmetric

    def __hash__(self):
        return hash((self.d, self.symmetric))

    def __repr__(self):
        return f"CohaElement(d={self.d}, poly={self.poly!r})"

    def to_json(self):
        return {"d": self.d, "poly": poly_to_json(self.poly)}

    @classmethod
    def from_json(cls, obj):
        return cls(obj["d"], poly_from_json(obj["poly"]))


def _shuffle(base, p, q, m, denominator):
    """The shuffle sum of an S_p x S_q-invariant base, on partitions.

    `base` maps exponents to integers, over `denominator`.  With kernel =
    prod_{i<=p<j} (x_j - x_i)^(m-1), the shuffle sum is the sum of
    sigma(base kernel) over S_d divided by p! q!.

    For m >= 1 the coefficient of m_mu in it is |Stab mu| / (p! q!) times
    the sum of the coefficients of base * kernel over the orbit of mu.
    kernel is S_p x S_q-invariant, and because base is too, kernel may be
    replaced by its sorted-block exponents weighted by orbit size.

    For m = 0, Delta_p Delta_q prod_{i<=p<j} (x_j - x_i) is the full
    Vandermonde (Delta_p, Delta_q those of the blocks), so the sum is
    rho(base Delta_p Delta_q) / (p! q!).  Delta_p Delta_q is the signed
    sum of tau(x^delta) over S_p x S_q, delta = (0, .., p-1, 0, .., q-1),
    and base is invariant, so that is rho(base x^delta).
    """
    d = p + q
    if m == 0:
        delta = tuple(range(p)) + tuple(range(q))
        shifted = {tuple(a + b for a, b in zip(e, delta)): c for e, c in base.items()}
        return SymmetricPoly(d, _alternate_sums(shifted, d), denominator)
    norm = math.factorial(p) * math.factorial(q)
    coefficients = {}
    for mu, total in _orbit_sums(base, p, q, m - 1).items():
        coef, rest = divmod(_stabilizer_order(mu) * total, norm)
        if rest:  # the theory forbids this
            raise ArithmeticError(
                "block symmetrization is not integral; this indicates a bug "
                "in the shuffle product"
            )
        coefficients[mu] = coef
    return SymmetricPoly(d, coefficients, denominator)


def _orbit_sums(base, p, q, power):
    """base * prod_{i<=p<j} (x_j - x_i)^power summed over each S_d-orbit, keyed by sorted exponent.

    Exponents are packed by the partition codec of `polynomial`, in fields
    as wide as the top exponent needs, so adding two packed ints adds the
    exponent vectors; each distinct product is unpacked once, to be sorted.
    """
    width = _width(max((max(e, default=0) for e in base), default=0) + max(p, q) * power)
    kernel = _kernel_representatives(p, q, power, width)
    products = {}
    get = products.get
    for exp, c1 in base.items():
        k1 = _pack(exp, width)
        for k2, c2 in kernel:
            key = k1 + k2
            products[key] = get(key, 0) + c1 * c2
    totals = {}
    for key, coef in products.items():
        if coef:
            mu = tuple(sorted(_unpack(key, p + q, width), reverse=True))
            totals[mu] = totals.get(mu, 0) + coef
    return totals


@lru_cache(maxsize=None)
def _kernel_representatives(p, q, power, width):
    """The kernel power on its sorted-block exponents, weighted by S_p x S_q-orbit size.

    The kernel is prod_{i<=p} R(x_i), R(t) = prod_{j>p} (x_j - t)^power =
    sum_k r_k(x'') t^k, so x'^kappa has coefficient prod_i r_{kappa_i}(x'').
    Only weakly decreasing kappa are walked, each product extending its
    prefix's, and only its weakly decreasing x'' exponents are kept.
    Returned as (exponent packed in `width`-bit fields, coefficient) pairs.
    """
    r = [{} for _ in range(q * power + 1)]
    for a in itertools.product(range(power + 1), repeat=q):
        coef = (-1) ** sum(a) * math.prod(math.comb(power, b) for b in a)
        r[sum(a)][_pack((0,) * p + tuple(power - b for b in a), width)] = coef
    found = []

    def walk(kappa, product):
        if len(kappa) < p:
            for k in range(kappa[-1] if kappa else q * power, -1, -1):
                grown = {}
                for k1, c1 in product.items():
                    for k2, c2 in r[k].items():
                        grown[k1 + k2] = grown.get(k1 + k2, 0) + c1 * c2
                walk(kappa + (k,), {key: c for key, c in grown.items() if c})
            return
        base, weight = _pack(kappa + (0,) * q, width), _orbit_size(kappa)
        for key, c in product.items():
            nu = _unpack(key, p + q, width)[p:]
            if all(nu[i] >= nu[i + 1] for i in range(q - 1)):
                found.append((base + key, c * weight * _orbit_size(nu)))

    walk((), {0: 1})
    return tuple(found)


def coha_mul(f, g, m):
    """Shuffle product of two elements, of arity f.d + g.d."""
    if m < 0:
        raise ValueError("loop count m must be non-negative")
    left, right = _spread(f.symmetric.coefficients, f.d), _spread(g.symmetric.coefficients, g.d)
    base = {e1 + e2: c1 * c2 for e1, c1 in left.items() for e2, c2 in right.items()}
    denominator = f.symmetric.denominator * g.symmetric.denominator
    return CohaElement._from_symmetric(_shuffle(base, f.d, g.d, m, denominator))


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
    """x_{p+1}..x_d times prod_{mu<=p<nu} (x_nu - x_mu)^m, in d variables.

    Read off the kernel's sorted-block representatives: x'' raised by one,
    each coefficient divided by its orbit size, then spread over the orbits.
    """
    if not 0 <= p < d:
        raise ValueError("need 0 <= p < d")
    width = _width(max(p, d - p) * m + 1)
    shift = _pack((0,) * p + (1,) * (d - p), width)
    terms = {}
    for key, c in _kernel_representatives(p, d - p, m, width):
        e = _unpack(key + shift, d, width)
        terms[e] = QQ(c // (_orbit_size(e[:p]) * _orbit_size(e[p:])))
    return SparsePoly._make(d, _spread(terms, p))


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
    if m < 0:
        raise ValueError("loop count m must be non-negative")
    if not is_symmetric(h, block=(p, q)):
        raise ValueError(f"h is not invariant under S_{p} x S_{q}")
    base, denominator = _clear_denominators((h * _right_variables(p, q)).terms)
    return _shuffle(base, p, q, m, denominator).poly


def module_basis(p, q):
    """Free-module basis of the block-invariants: Schur times one.

    Returns the binomial(p+q, p) polynomials s_lam(x_1,..,x_p), lam inside
    the p x q box, embedded into p+q variables.
    """
    if p < 0 or q < 0:
        raise ValueError("p and q must be non-negative")
    pad = (0,) * q
    return [
        SparsePoly._make(p + q, {e + pad: c for e, c in schur(lam, p).terms.items()})
        for lam in partitions_in_box(p, q)
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
    degrees = {sum(mu) for mu in f.symmetric.coefficients}
    if not degrees:
        raise ValueError("the zero element has no bidegree")
    if len(degrees) > 1:
        raise ValueError("element is not homogeneous")
    return (f.d, (m - 1) * f.d * (f.d - 1) // 2 - degrees.pop())
