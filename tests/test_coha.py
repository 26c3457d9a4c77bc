"""Shuffle algebra: product laws, bigrading, forbidden polynomials, kernel generators."""

import itertools
import math
import random

import pytest

from nchilb.coha import (
    CohaElement,
    bidegree,
    coha_mul,
    forbidden_polynomial,
    kernel_generators,
    module_basis,
    psi,
    psi_product,
    shuffle_expression,
    tautological_relation,
)
from nchilb.polynomial import (
    SparsePoly,
    elementary_symmetric,
    monomial_symmetric,
    rho,
    rho_pq,
    schur,
    to_elementary,
)
from nchilb.groebner import buchberger, normal_form
from nchilb.rationals import QQ

from helpers import oracle_shuffle, random_poly, random_symmetric_poly


def x(i, nvars):
    return SparsePoly.variable(nvars, i - 1)


def element(rng, d, max_part=2, nterms=3):
    if d == 0:
        return CohaElement(0, SparsePoly.const(0, rng.randint(1, 5)))
    return CohaElement(d, random_symmetric_poly(rng, d, max_part, nterms))


# ---------------------------------------------------------------------------
# the product


def test_psi_basics():
    assert psi(0).poly == SparsePoly.const(1, 1)
    assert psi(1).poly == SparsePoly.variable(1, 0)
    for m in (0, 1, 2, 5):
        for k in (0, 1, 4):
            assert bidegree(psi(k), m) == (1, -k)


def test_square_vanishes_for_m_two():
    product = coha_mul(psi(0), psi(0), 2)
    assert product.poly.is_zero()


def test_psi0_psi1_m2_is_a_squared_difference():
    product = coha_mul(psi(0), psi(1), 2)
    assert product.poly == (x(1, 2) - x(2, 2)) ** 2


def test_m0_staircase_products_are_one():
    for d in (2, 3):
        product = psi_product(range(d), 0)
        assert product.poly == SparsePoly.const(d, 1)


def test_m0_simple_schur_cases():
    assert psi_product((0, 2), 0).poly == x(1, 2) + x(2, 2)
    assert psi_product((1, 1), 0).poly.is_zero()


def test_m0_any_square_vanishes():
    rng = random.Random(10)
    for _ in range(10):
        f = CohaElement(1, random_poly(rng, 1, max_deg=4, nterms=3))
        assert coha_mul(f, f, 0).poly.is_zero()


def test_m1_products_are_monomial_multiples():
    assert psi_product((2, 1), 1).poly == monomial_symmetric((2, 1), 2)
    for a in (1, 2, 3):
        product = psi_product((a, a), 1)
        assert product.poly == 2 * monomial_symmetric((a, a), 2)


def test_scalars_act_as_scalars():
    one = CohaElement(0, SparsePoly.const(0, 1))
    three = CohaElement(0, SparsePoly.const(0, 3))
    f = CohaElement(2, elementary_symmetric(2, 2))
    for m in (0, 1, 2):
        assert coha_mul(one, f, m) == f
        assert coha_mul(f, one, m) == f
        assert coha_mul(three, f, m).poly == 3 * f.poly


def test_arity_zero_factor_scales_in_both_orders():
    rng = random.Random(5)
    scalars = [SparsePoly.const(0, c) for c in (3, QQ(-1, 2))] + [SparsePoly.zero(0)]
    for m in range(4):
        for q in range(4):
            for g in (element(rng, q), CohaElement(q, SparsePoly.zero(q))):
                for c in scalars:
                    scaled = CohaElement(q, g.poly * c.constant())
                    assert coha_mul(CohaElement(0, c), g, m) == scaled
                    assert coha_mul(g, CohaElement(0, c), m) == scaled


def test_associativity_sample():
    rng = random.Random(11)
    for m in (0, 1, 2, 3):
        for arities in ((1, 1, 1), (1, 1, 2), (2, 1, 1)):
            f, g, h = (element(rng, a) for a in arities)
            assert coha_mul(coha_mul(f, g, m), h, m) == coha_mul(
                f, coha_mul(g, h, m), m
            )


def test_twisted_commutativity():
    rng = random.Random(12)
    for m in (0, 1, 2, 3):
        for p, q in ((1, 1), (1, 2), (2, 2)):
            f, g = element(rng, p), element(rng, q)
            fg = coha_mul(f, g, m)
            gf = coha_mul(g, f, m)
            sign = -1 if ((m - 1) * p * q) % 2 else 1
            assert gf.poly == sign * fg.poly


def test_odd_m_is_commutative():
    rng = random.Random(13)
    for m in (1, 3):
        f, g = element(rng, 2), element(rng, 1)
        assert coha_mul(f, g, m) == coha_mul(g, f, m)


def test_bigrading_is_additive():
    rng = random.Random(14)
    for m in (0, 1, 2):
        for p, q in ((1, 1), (1, 2), (2, 2)):
            f = CohaElement(p, schur((2, 1)[:p], p))
            g = CohaElement(q, elementary_symmetric(q, q))
            product = coha_mul(f, g, m)
            if product.poly.is_zero():
                continue
            dp, kp = bidegree(f, m)
            dq, kq = bidegree(g, m)
            assert bidegree(product, m) == (dp + dq, kp + kq)
            # independent degree arithmetic: the kernel adds (m-1)pq
            assert product.poly.degree() == f.poly.degree() + g.poly.degree() + (
                m - 1
            ) * p * q


def test_bidegree_errors_and_unit():
    assert bidegree(CohaElement(0, SparsePoly.const(0, 1)), 2) == (0, 0)
    with pytest.raises(ValueError):
        bidegree(CohaElement(1, SparsePoly.zero(1)), 2)
    with pytest.raises(ValueError):
        bidegree(CohaElement(1, SparsePoly.const(1, 1) + SparsePoly.variable(1, 0)), 2)


def test_coha_element_validates_symmetry():
    with pytest.raises(ValueError):
        CohaElement(2, SparsePoly.variable(2, 0))


# ---------------------------------------------------------------------------
# closed-form laws


def schur_from_indices(ks):
    # strictly increasing k_1 < .. < k_d yield lam = (k_d - d + 1, .., k_1)
    d = len(ks)
    return tuple(k - (d - 1 - i) for i, k in enumerate(sorted(ks, reverse=True)))


def test_m0_schur_law_small():
    for ks in ((0, 1), (0, 3), (1, 2), (0, 1, 3), (1, 2, 4)):
        product = psi_product(ks, 0)
        lam = schur_from_indices(ks)
        assert product.poly == schur(lam, len(ks))


def test_m1_monomial_law_small():
    for ks in ((0, 0), (2, 0), (1, 1, 2), (3, 3)):
        product = psi_product(ks, 1)
        lam = tuple(sorted(ks, reverse=True))
        mono = monomial_symmetric(lam, len(ks))
        lead = next(iter(mono.terms))
        c = product.poly.coefficient(lead)
        assert c > 0 and c == int(c)
        assert product.poly == c * mono


# ---------------------------------------------------------------------------
# forbidden polynomials and tautological relations


def test_forbidden_polynomial_examples():
    assert forbidden_polynomial(0, 3, 2) == x(1, 3) * x(2, 3) * x(3, 3)
    assert forbidden_polynomial(1, 2, 2) == x(2, 2) * (x(2, 2) - x(1, 2)) ** 2
    assert forbidden_polynomial(2, 3, 1) == x(3, 3) * (x(3, 3) - x(1, 3)) * (
        x(3, 3) - x(2, 3)
    )
    with pytest.raises(ValueError):
        forbidden_polynomial(3, 3, 2)


def test_forbidden_polynomial_equals_product_of_its_factors():
    cases = [(p, d, m) for d in range(1, 6) for p in range(d) for m in range(4)]
    for p, d, m in cases + [(3, 6, 2), (2, 6, 3)]:
        expected = SparsePoly.const(d, 1)
        for j in range(p + 1, d + 1):
            expected = expected * x(j, d)
            for i in range(1, p + 1):
                expected = expected * (x(j, d) - x(i, d)) ** m
        assert forbidden_polynomial(p, d, m) == expected


def test_tautological_relation_worked_case():
    # the displayed relation yz(y-x)(z-x) + xz(x-y)(z-y) + xy(x-z)(y-z) is the
    # shuffle form with block-invariant part 1; as rho(b f^(1)) it needs a b
    # with rho_pq(b) = 1, e.g. b = x3, while b = 1 antisymmetrizes to zero
    X, Y, Z = (x(i, 3) for i in (1, 2, 3))
    expected = (
        Y * Z * (Y - X) * (Z - X)
        + X * Z * (X - Y) * (Z - Y)
        + X * Y * (X - Z) * (Y - Z)
    )
    assert tautological_relation(Z, 1, 3, 2).poly == expected
    assert shuffle_expression(SparsePoly.const(3, 1), 1, 2, 2) == expected
    assert tautological_relation(SparsePoly.const(3, 1), 1, 3, 2).poly.is_zero()


def test_tautological_relation_dimension_one():
    relation = tautological_relation(SparsePoly.const(1, 1), 0, 1, 4)
    assert relation.poly == x(1, 1)


def test_tautological_relation_matches_shuffle_form():
    rng = random.Random(15)
    for m in (0, 1, 2):
        for d in (2, 3):
            for p in range(d):
                b = random_poly(rng, d)
                lhs = tautological_relation(b, p, d, m).poly
                rhs = shuffle_expression(rho_pq(b, p, d - p), p, d - p, m)
                assert lhs == rhs


def test_exponent_past_the_packed_field_raises():
    # the kernel x_2 - x_1 raises the top exponent by one
    top = coha_mul(psi(2**64 - 2), psi(0), 2).poly
    assert top == coha_mul(psi(0), psi(2**64 - 2), 2).poly * -1
    assert top.degree() == 2**64 - 1
    with pytest.raises(OverflowError, match="64-bit"):
        coha_mul(psi(2**64 - 1), psi(0), 2)


def test_shuffle_products_in_every_field_width():
    # the top exponent k + m - 1 packs into 8-, 16-, 32- or 64-bit fields
    for k in (255, 256, 2**16 - 1, 2**16, 2**32):
        for m in (1, 2, 3):
            high, low = psi(k), psi(0)
            assert coha_mul(high, low, m).poly == oracle_shuffle(high.poly, 1, low.poly, 1, m)
            assert coha_mul(low, high, m).poly == oracle_shuffle(low.poly, 1, high.poly, 1, m)


def test_shuffle_expression_rejects_bad_input():
    with pytest.raises(ValueError, match="not invariant"):
        shuffle_expression(x(1, 3), 2, 1, 2)
    with pytest.raises(ValueError, match="non-negative"):
        shuffle_expression(SparsePoly.const(3, 1), 1, 2, -1)


# ---------------------------------------------------------------------------
# module bases and kernel generators


def test_module_basis_examples():
    assert module_basis(1, 2) == [
        SparsePoly.const(3, 1),
        x(1, 3),
        x(1, 3) ** 2,
    ]
    assert module_basis(2, 1) == [
        SparsePoly.const(3, 1),
        x(1, 3) + x(2, 3),
        x(1, 3) * x(2, 3),
    ]
    assert module_basis(0, 3) == [SparsePoly.const(3, 1)]


@pytest.mark.parametrize("p,q", [(0, 2), (1, 1), (2, 2), (1, 3), (3, 1)])
def test_module_basis_cardinality(p, q):
    assert len(module_basis(p, q)) == math.comb(p + q, p)


def test_kernel_generators_d1():
    gens = kernel_generators(1, 2)
    assert len(gens) == 1
    assert gens[0].poly == x(1, 1)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_kernel_generator_count(d):
    assert len(kernel_generators(d, 2)) == 2**d - 1


def test_kernel_generators_worked_entries():
    gens = kernel_generators(3, 2)
    # the p = 0 entry is e_3 itself
    assert gens[0].poly == elementary_symmetric(3, 3)
    # the p = 1, f = 1 entry reduces to e_2^2 modulo e_3
    entry = to_elementary(gens[1].poly)
    e3_only = buchberger([SparsePoly.monomial(3, (0, 0, 1))], (1, 2, 3))
    reduced = normal_form(entry, e3_only)
    e2 = SparsePoly.variable(3, 1)
    assert reduced == e2 * e2


def test_kernel_generators_m1_unit_entries():
    for d in (2, 3, 4):
        gens = kernel_generators(d, 1)
        index = 0
        for p in range(d):
            q = d - p
            unit_entry = gens[index]
            assert unit_entry.poly == elementary_symmetric(q, d)
            index += math.comb(d, p)
