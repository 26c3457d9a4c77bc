"""Polynomial core: arithmetic, symmetric functions, antisymmetrization, codecs."""

import math
import random
import re
from fractions import Fraction

import pytest

from nchilb.polynomial import (
    SparsePoly,
    SymmetricPoly,
    elementary_symmetric,
    from_elementary,
    is_partition,
    is_symmetric,
    monomial_symmetric,
    partitions_in_box,
    poly_from_json,
    poly_from_text,
    poly_to_json,
    poly_to_text,
    rho,
    rho_pq,
    schur,
    to_elementary,
)

from helpers import (
    NonDivisibleError,
    antisymmetrize,
    discriminant,
    exact_divide,
    jacobi_trudi_schur,
    random_poly,
    random_symmetric_poly,
)


def x(i, nvars):
    return SparsePoly.variable(nvars, i - 1)


# ---------------------------------------------------------------------------
# ring arithmetic


def test_product_of_sum_and_difference():
    a = x(1, 2) + x(2, 2)
    b = x(1, 2) - x(2, 2)
    assert a * b == x(1, 2) ** 2 - x(2, 2) ** 2


def test_exact_divide_recovers_factor():
    a = x(1, 2) ** 2 - x(2, 2) ** 2
    b = x(1, 2) - x(2, 2)
    assert exact_divide(a, b) == x(1, 2) + x(2, 2)
    assert exact_divide(a, b) * b == a


def test_exact_divide_rejects_non_divisor():
    with pytest.raises(NonDivisibleError):
        exact_divide(x(1, 2), x(2, 2))


def test_ring_axioms_on_random_inputs():
    rng = random.Random(0)
    for _ in range(25):
        f = random_poly(rng, 3)
        g = random_poly(rng, 3)
        h = random_poly(rng, 3)
        assert f + g == g + f
        assert f * g == g * f
        assert f * (g + h) == f * g + f * h
        assert (f * g) * h == f * (g * h)
        if not g.is_zero():
            assert exact_divide(f * g, g) == f


def test_scalar_operations():
    f = x(1, 2) + 2
    assert 3 * f == f + f + f
    assert f - f == SparsePoly.zero(2)
    assert (f * 0).is_zero()


# ---------------------------------------------------------------------------
# symmetric constructors


def test_elementary_symmetric_examples():
    assert elementary_symmetric(1, 2) == x(1, 2) + x(2, 2)
    assert elementary_symmetric(2, 3) == (
        x(1, 3) * x(2, 3) + x(1, 3) * x(3, 3) + x(2, 3) * x(3, 3)
    )
    assert elementary_symmetric(0, 4) == SparsePoly.const(4, 1)
    assert elementary_symmetric(5, 4).is_zero()
    with pytest.raises(ValueError):
        elementary_symmetric(-1, 2)
    with pytest.raises(ValueError, match="non-negative"):
        elementary_symmetric(0, -1)


def test_monomial_symmetric_examples():
    assert monomial_symmetric((1, 1), 2) == x(1, 2) * x(2, 2)
    assert monomial_symmetric((2,), 2) == x(1, 2) ** 2 + x(2, 2) ** 2
    m21 = monomial_symmetric((2, 1), 3)
    assert len(m21.terms) == 6
    assert m21.coefficient((2, 1, 0)) == 1
    assert is_symmetric(m21)


def test_discriminant_examples():
    assert discriminant(1) == SparsePoly.const(1, 1)
    assert discriminant(2) == x(2, 2) - x(1, 2)
    direct = (x(2, 3) - x(1, 3)) * (x(3, 3) - x(1, 3)) * (x(3, 3) - x(2, 3))
    assert discriminant(3) == direct


def test_schur_examples():
    assert schur((1,), 2) == elementary_symmetric(1, 2)
    assert schur((1, 1), 2) == elementary_symmetric(2, 2)
    e1, e2 = elementary_symmetric(1, 2), elementary_symmetric(2, 2)
    assert schur((2,), 2) == e1 * e1 - e2


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
def test_schur_agrees_with_jacobi_trudi(d):
    for lam in partitions_in_box(3, 3):
        if len(lam) > d:
            continue
        s = schur(lam, d)
        assert is_symmetric(s)
        assert s == jacobi_trudi_schur(lam, d)


def test_partitions_in_box():
    assert partitions_in_box(1, 2) == [(), (1,), (2,)]
    assert partitions_in_box(2, 1) == [(), (1,), (1, 1)]
    assert len(partitions_in_box(3, 4)) == 35  # binomial(7, 3)
    assert is_partition((3, 1, 0)) and not is_partition((1, 2))
    assert partitions_in_box(0, 2) == partitions_in_box(2, 0) == [()]
    for rows, cols in ((-1, 2), (2, -1)):
        with pytest.raises(ValueError, match="non-negative"):
            partitions_in_box(rows, cols)


# ---------------------------------------------------------------------------
# antisymmetrization


def test_rho_examples():
    assert rho(x(2, 2)) == SparsePoly.const(2, 1)
    assert rho(elementary_symmetric(1, 3)).is_zero()
    staircase = x(2, 3) * x(3, 3) ** 2
    assert antisymmetrize(staircase) == discriminant(3)
    assert rho(staircase) == SparsePoly.const(3, 1)


def test_rho_is_linear_over_symmetrics():
    rng = random.Random(1)
    for d in (2, 3, 4):
        for _ in range(5):
            b = random_poly(rng, d)
            a = random_symmetric_poly(rng, d)
            assert rho(a * b) == a * rho(b)


def test_rho_alternates():
    rng = random.Random(2)
    for d in (2, 3):
        for _ in range(5):
            b = random_poly(rng, d)
            swapped = b.permute((1, 0) + tuple(range(2, d)))
            assert rho(swapped) == -rho(b)


def test_rho_pq_examples():
    b = random_poly(random.Random(3), 2)
    assert rho_pq(b, 1, 1) == b
    assert rho_pq(x(2, 2), 2, 0) == SparsePoly.const(2, 1)
    invariant = x(1, 3) * (x(2, 3) + x(3, 3))
    assert rho_pq(invariant, 1, 2).is_zero()


def test_rho_pq_block_invariance():
    rng = random.Random(4)
    for p, q in ((2, 1), (1, 2), (2, 2)):
        b = random_poly(rng, p + q)
        image = rho_pq(b, p, q)
        assert is_symmetric(image, block=(p, q))


def test_is_symmetric_examples():
    assert is_symmetric(x(1, 2) + x(2, 2))
    assert not is_symmetric(x(1, 2))
    mixed = x(1, 3) + x(2, 3) * x(3, 3) ** 2
    assert not is_symmetric(mixed, block=(1, 2))
    assert is_symmetric(x(1, 3) * (x(2, 3) + x(3, 3)), block=(1, 2))


# ---------------------------------------------------------------------------
# elementary coordinates


def test_to_elementary_examples():
    e = lambda k, d: SparsePoly.variable(d, k - 1)
    assert to_elementary(x(1, 2) ** 2 + x(2, 2) ** 2) == e(1, 2) ** 2 - 2 * e(2, 2)
    for k, d in ((1, 3), (2, 3), (3, 3)):
        assert to_elementary(elementary_symmetric(k, d)) == e(k, d)
    assert to_elementary(elementary_symmetric(2, 3) ** 2) == e(2, 3) ** 2


def test_to_elementary_rejects_non_symmetric():
    with pytest.raises(ValueError):
        to_elementary(x(1, 2))
    with pytest.raises(ValueError):
        to_elementary(x(1, 2) ** 2 * x(2, 2))


def test_to_elementary_packs_parts_of_every_field_width():
    # partitions pack into 8-, 16-, 32- or 64-bit fields, chosen by the largest part
    for part in (255, 256, 2**16, 2**40, 2**64 - 1):
        f = SymmetricPoly(2, {(part, part): 3, (1, 0): 1}, 2)
        assert to_elementary(f) == SparsePoly(2, {(0, part): Fraction(3, 2), (1, 0): Fraction(1, 2)})
        assert from_elementary(to_elementary(f)) == f.poly
    with pytest.raises(OverflowError, match="does not fit a 64-bit field"):
        to_elementary(SymmetricPoly(1, {(2**64,): 1}))


def test_change_of_basis_past_64_bit_row_coefficients():
    # (x1 + x2)^70 has binomial(70, 35) > 2^63 at x1^35 x2^35, so this row keeps a tuple
    g = SparsePoly(2, {(70, 0): 1})
    f = from_elementary(g)
    assert f.coefficient((35, 35)) == math.comb(70, 35) > 2**63
    assert to_elementary(f) == g


def test_symmetric_poly_partition_form():
    f = x(1, 3) ** 2 + x(2, 3) ** 2 + x(3, 3) ** 2 + elementary_symmetric(3, 3) * Fraction(1, 2)
    s = SymmetricPoly.from_poly(f)
    assert s.coefficients == {(2, 0, 0): 2, (1, 1, 1): 1}
    assert s.denominator == 2
    # no x-space copy is kept: each read expands afresh
    assert s.poly == f and s.poly is not f
    # a fresh form expands into every monomial of every orbit
    fresh = SymmetricPoly(3, {(2, 0, 0): 4, (1, 1, 1): 2, (1, 0, 0): 0}, 4)
    assert fresh.coefficients == {(2, 0, 0): 4, (1, 1, 1): 2}
    assert fresh.poly == f
    assert fresh == s and hash(fresh) == hash(s)
    assert fresh != SymmetricPoly(3, {(2, 0, 0): 4}, 4)
    assert to_elementary(fresh) == to_elementary(f)
    assert SymmetricPoly(2, {}).is_zero() and SymmetricPoly(2, {}).poly.is_zero()
    with pytest.raises(ValueError, match="not symmetric"):
        SymmetricPoly.from_poly(x(1, 2))


@pytest.mark.parametrize(
    "coefficients, denominator, message",
    [
        ({(0, 1): 1}, 1, "not a partition"),
        ({(1,): 1}, 1, "not a partition"),
        ({(2, 1, 0): 1}, 1, "not a partition"),
        ({(1, -1): 1}, 1, "not a partition"),
        ({(2.0, 1): 3}, 1, "not a partition"),
        ({(Fraction(2), 1): 3}, 1, "not a partition"),
        ({(1, 0): 1}, 0, "positive int"),
        ({(1, 0): 1}, Fraction(1, 2), "positive int"),
    ],
    ids=[
        "increasing",
        "short",
        "long",
        "negative",
        "float_part",
        "fraction_part",
        "zero_denominator",
        "fraction_denominator",
    ],
)
def test_symmetric_poly_rejects_malformed_input(coefficients, denominator, message):
    with pytest.raises(ValueError, match=message):
        SymmetricPoly(2, coefficients, denominator)


def test_symmetric_poly_keeps_no_x_space_state():
    assert SymmetricPoly.__slots__ == ("nvars", "coefficients", "denominator")
    s = SymmetricPoly(2, {(1, 0): 3}, 2)
    assert s.poly == Fraction(3, 2) * (x(1, 2) + x(2, 2))
    assert s.poly is not s.poly


@pytest.mark.parametrize(
    "build",
    [
        lambda: is_symmetric(x(1, 2), block=(-1, 3)),
        lambda: rho_pq(x(1, 2), 3, -1),
        lambda: SparsePoly.zero(-1),
        lambda: SparsePoly.const(-2, 1),
    ],
    ids=["is_symmetric_block", "rho_pq", "zero", "const"],
)
def test_negative_sizes_rejected(build):
    with pytest.raises(ValueError, match="non-negative"):
        build()


@pytest.mark.parametrize(
    "terms",
    [{(2.0,): 1, (0,): -1}, {(Fraction(2),): 1}, {(True,): 1}, {(1.5,): 1}],
    ids=["float", "fraction", "bool", "fractional_float"],
)
def test_non_int_exponent_rejected(terms):
    # 2.0 would compare and hash as 2, then fail deep inside the Groebner engine
    with pytest.raises(ValueError, match="non-int"):
        SparsePoly(1, terms)


@pytest.mark.parametrize("exp", [(-1, 0), (2, -3)])
def test_negative_exponent_rejected(exp):
    # the Groebner engine packs exponents by a dot product that would take them silently
    with pytest.raises(ValueError, match="negative exponent"):
        SparsePoly(2, {exp: 1})


def test_negative_variable_count_rejected():
    with pytest.raises(ValueError, match="non-negative"):
        SparsePoly(-1, {})
    with pytest.raises(ValueError, match="non-negative"):
        SparsePoly(-1)
    for text in ("0", "1", "1*x1"):
        with pytest.raises(ValueError, match="non-negative"):
            poly_from_text(text, nvars=-3)
    assert SparsePoly(0, {(): 2}).nvars == 0
    assert poly_from_text("0", nvars=0).nvars == 0


def test_to_elementary_round_trip_randomized():
    rng = random.Random(5)
    for _ in range(100):
        d = rng.randint(1, 4)
        f = random_symmetric_poly(rng, d, max_part=2, nterms=3)
        if f.degree() > 6:
            continue
        g = to_elementary(f)
        assert from_elementary(g) == f
        # weighted degree in e-coordinates equals the x-degree
        if not f.is_zero():
            assert g.weighted_degree(tuple(range(1, d + 1))) == f.degree()


def test_weighted_degree_needs_one_weight_per_variable():
    f = SparsePoly(3, {(0, 0, 5): 1})
    assert f.weighted_degree((1, 2, 3)) == 15
    for weights in ((1, 2), (1, 2, 3, 4)):
        with pytest.raises(ValueError, match="one per variable"):
            f.weighted_degree(weights)
    with pytest.raises(ValueError, match="one per variable"):
        SparsePoly.zero(3).weighted_degree((1, 2))


def test_permute_needs_a_permutation():
    f = poly_from_text("1*x1^2 + 3*x2")
    assert f.permute((1, 0)) == poly_from_text("3*x1 + 1*x2^2")
    assert f.permute([0, 1]) == f
    for sigma in ((0, 0), (0,), (0, 2), (1, 2), (0, 1, 2)):
        with pytest.raises(ValueError, match="not a permutation of 0..1"):
            f.permute(sigma)
    assert SparsePoly.const(0, 2).permute(()) == SparsePoly.const(0, 2)


# ---------------------------------------------------------------------------
# codecs


def test_text_round_trip_canonical_strings():
    samples = [
        "0",
        "1",
        "-2/3",
        "1*x1",
        "1*x1^2 - 4*x1*x2",
        "3/2*x1^2*x3 + 1*x2 - 1",
    ]
    for s in samples:
        assert poly_to_text(poly_from_text(s)) == s


def test_text_round_trip_random_polys():
    rng = random.Random(6)
    for _ in range(50):
        f = random_poly(rng, 3)
        assert poly_from_text(poly_to_text(f), nvars=3) == f


def test_text_parsing_errors():
    with pytest.raises(ValueError):
        poly_from_text("1*x1 + 1*e2")
    with pytest.raises(ValueError):
        poly_from_text("x1 +")
    with pytest.raises(ValueError):
        poly_from_text("1*x9", nvars=2)


def test_zero_denominator_is_a_value_error_naming_the_term():
    for text, term in (("1/0*x1", "1/0*x1"), ("1*x1 - 2/00", "2/00"), ("-0/0", "0/0")):
        with pytest.raises(ValueError, match=re.escape(f"zero denominator in polynomial term '{term}'")):
            poly_from_text(text)


def test_json_round_trip():
    rng = random.Random(7)
    for _ in range(20):
        f = random_poly(rng, 2)
        obj = poly_to_json(f)
        assert poly_from_json(obj) == f
        assert obj["vars"] == 2 and obj["basis"] == "x"
    with pytest.raises(ValueError, match="basis must be 'x'"):
        poly_from_json(dict(obj, basis="e"))


@pytest.mark.parametrize("exp", [[1], [1, 0, 0], [1, -1], [1, 0.5], [1, "2"], [True, 0]])
def test_json_rejects_malformed_exponents(exp):
    obj = {"vars": 2, "terms": [{"coef": "1", "exp": [0, 1]}, {"coef": "1", "exp": exp}]}
    with pytest.raises(ValueError, match=re.escape(f"exponent {exp!r} is not 2 non-negative integers")):
        poly_from_json(obj)


def test_backend_is_fraction():
    from fractions import Fraction

    from nchilb.rationals import BACKEND, QQ

    assert (BACKEND, QQ) == ("fraction", Fraction)
