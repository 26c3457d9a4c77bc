"""Shuffle-product algebra of the m-loop quiver and its kernel generators.

Degree-d elements are symmetric polynomials in d variables.  The product
of elements of arities p and q sums, over all complementary index pairs
(I, J) of {1,..,d}, the product of the factors evaluated at x_I and x_J
times the interaction kernel prod (x_j - x_i)^(m-1).  An element is a
SymmetricPoly (integer monomial-symmetric coefficients over one
denominator), its arity is its `nvars`, and `element` reads one from a
symmetric SparsePoly.  One partition core computes every product from
its block term instead of C(d, p) shuffles.  The shuffle is bilinear, so
the block term is split into monomial pairs m_alpha(x_I) m_beta(x_J),
and the sum of each pair is memoised for every product that meets it.
For m >= 1 a pair times the kernel is summed per sorted exponent; the
kernel power is only ever formed on its block-sorted exponents, as a
product over the first block of one polynomial in the second, and the
forbidden polynomials are read off the same representatives.  For m = 0,
where the kernel is a denominator, a pair times a staircase monomial in
each block is antisymmetrized.  Exponents are packed by the partition
codec of `polynomial`, and orbits are expanded by its `_spread`, so this
module keeps only the shuffle formula.

The same shuffle machinery produces the degree-d kernel generators
f * (e_q cup 1), f a Schur polynomial in the first p variables, which
present the quotient rings downstream without any x-space expansion.
"""

import itertools
import math
from functools import lru_cache

from .polynomial import (
    SparsePoly,
    SymmetricPoly,
    _alternate_sums,
    _check_blocks,
    _clear_denominators,
    _layout,
    _orbit_coefficients,
    _orbit_size,
    _pack,
    _spread,
    _stabilizer_order,
    _unpack,
    _width,
    is_symmetric,
    partitions_in_box,
    rho,
    schur,
)
from .rationals import QQ

__all__ = [
    "element",
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


def element(poly):
    """The shuffle-algebra element of a symmetric SparsePoly: its SymmetricPoly.

    The `is_symmetric` pre-check repeats what `SymmetricPoly.from_poly`
    checks; it stays while the benchmark times `coha.is_symmetric` through
    the Schur factor of `kernel_generators`.
    """
    if not is_symmetric(poly):
        raise ValueError("polynomial is not symmetric")
    return SymmetricPoly.from_poly(poly)


def _shuffle(pairs, p, q, m, denominator):
    """The shuffle sum of an S_p x S_q-invariant base, on partitions.

    `pairs` maps alpha + beta, alpha and beta partitions padded to p and q
    parts, to the integer coefficient of m_alpha(x_1..x_p) m_beta(x_p+1..)
    in the base, over `denominator`.  The sum is linear in the base, so it
    adds up the memoised sum of each pair (`_pair_sums`).  With kernel =
    prod_{i<=p<j} (x_j - x_i)^(m-1), it is the sum of sigma(base kernel)
    over S_d divided by p! q!.

    For m >= 1 the coefficient of m_mu in it is |Stab mu| / (p! q!) times
    the sum of the coefficients of base * kernel over the orbit of mu; the
    pair sums carry |Stab mu|, and their total is divided by p! q! once.

    For m = 0, Delta_p Delta_q prod_{i<=p<j} (x_j - x_i) is the full
    Vandermonde (Delta_p, Delta_q those of the blocks), so the sum is
    rho(base Delta_p Delta_q) / (p! q!).  Delta_p Delta_q is the signed
    sum of tau(x^delta) over S_p x S_q, delta = (0, .., p-1, 0, .., q-1),
    and base is invariant, so that is rho(base x^delta).
    """
    totals = {}
    get = totals.get
    for pair, c in pairs.items():
        mus, sums = _pair_sums(pair, p, m)
        for mu, total in zip(mus, sums):
            totals[mu] = get(mu, 0) + c * total
    if m:
        norm = math.factorial(p) * math.factorial(q)
        for mu, total in totals.items():
            totals[mu], rest = divmod(total, norm)
            if rest:  # the theory forbids this
                raise ArithmeticError(
                    "block symmetrization is not integral; this indicates a bug "
                    "in the shuffle product"
                )
    return SymmetricPoly._make(p + q, totals, denominator)


@lru_cache(maxsize=None)
def _pair_sums(pair, p, m):
    """The shuffle sum of one pair m_alpha(x_1..x_p) m_beta(x_p+1..), pair = alpha + beta.

    Returned as (sorted exponents mu, integers) before the division by
    p! q!: for m >= 1 the sums of m_alpha m_beta prod_{i<=p<j}
    (x_j - x_i)^(m-1) over each S_d-orbit times |Stab mu|, for m = 0 the
    alternant sums of m_alpha m_beta x^delta.  Zero sums are dropped.
    """
    q = len(pair) - p
    base = _spread({pair: 1}, p)
    if m == 0:
        delta = tuple(range(p)) + tuple(range(q))
        shifted = {tuple(a + b for a, b in zip(e, delta)): c for e, c in base.items()}
        sums = _alternate_sums(shifted, p + q)
    else:
        sums = {mu: _stabilizer_order(mu) * total for mu, total in _orbit_sums(base, p, q, m - 1).items()}
    sums = {mu: total for mu, total in sums.items() if total}
    return tuple(sums), tuple(sums.values())


def _orbit_sums(base, p, q, power):
    """base * prod_{i<=p<j} (x_j - x_i)^power summed over each S_d-orbit, keyed by sorted exponent.

    base is S_p x S_q-invariant, and so is the kernel, which is therefore
    replaced by its sorted-block exponents weighted by orbit size.
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
    codec = _layout(p + q, width)[0]
    unpack, size = codec.unpack, codec.size
    totals = {}
    for key, coef in products.items():
        if coef:
            mu = tuple(sorted(unpack(key.to_bytes(size, "big")), reverse=True))
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
    if not p:  # no kernel, only the empty product
        return ((0, 1),)
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
    """Shuffle product of two elements, of arity f.nvars + g.nvars."""
    if m < 0:
        raise ValueError("loop count m must be non-negative")
    pairs = {a + b: c1 * c2 for a, c1 in f.coefficients.items() for b, c2 in g.coefficients.items()}
    return _shuffle(pairs, f.nvars, g.nvars, m, f.denominator * g.denominator)


def psi(k):
    """The arity-1 basis element x^k, of bidegree (1, -k)."""
    if k < 0:
        raise ValueError("k must be non-negative")
    return SymmetricPoly(1, {(k,): 1})


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
    if m < 0:
        raise ValueError("loop count m must be non-negative")
    width = _width(max(p, d - p) * m + 1)
    shift = _pack((0,) * p + (1,) * (d - p), width)
    terms = {}
    for key, c in _kernel_representatives(p, d - p, m, width):
        e = _unpack(key + shift, d, width)
        terms[e] = QQ(c // (_orbit_size(e[:p]) * _orbit_size(e[p:])))
    return SparsePoly._make(d, _spread(terms, p))


def tautological_relation(b, p, d, m):
    """Antisymmetrization of b times the p-th forbidden polynomial."""
    if b.nvars != d:
        raise ValueError(f"b has {b.nvars} variables, expected {d}")
    return element(rho(b * forbidden_polynomial(p, d, m)))


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
    _check_blocks(p, q)
    reps = _orbit_coefficients(h, p)
    if reps is None:
        raise ValueError(f"h is not invariant under S_{p} x S_{q}")
    # x_J m_alpha(x_I) m_beta(x_J) = m_alpha(x_I) m_{beta + 1}(x_J)
    pairs, denominator = _clear_denominators(
        {rep[:p] + tuple(b + 1 for b in rep[p:]): c for rep, c in reps.items()}
    )
    return _shuffle(pairs, p, q, m, denominator).poly


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
        e_top = SymmetricPoly(q, {(1,) * q: 1})
        for lam in partitions_in_box(p, q):
            gens.append(coha_mul(element(schur(lam, p)), e_top, m))
    return gens


def bidegree(f, m):
    """(d, k) with k = (m-1) d (d-1) / 2 minus the cohomological degree."""
    degrees = {sum(mu) for mu in f.coefficients}
    if not degrees:
        raise ValueError("the zero element has no bidegree")
    if len(degrees) > 1:
        raise ValueError("element is not homogeneous")
    d = f.nvars
    return (d, (m - 1) * d * (d - 1) // 2 - degrees.pop())
