"""Buchberger engine: reduced bases, normal forms, staircases, Hilbert data."""

import random
from fractions import Fraction

import pytest

from nchilb.groebner import GroebnerBasis, _Heads, _Order, buchberger, ideal_equals, normal_form
from nchilb.polynomial import SparsePoly, poly_from_text

from helpers import random_poly

W3 = (1, 2, 3)


def e(k, d=3):
    return SparsePoly.variable(d, k - 1)


def paper_ideal():
    return buchberger(
        [
            e(3),
            e(2) ** 2,
            poly_from_text("1*e1^3 - 4*e1*e2", nvars=3),
            e(1) ** 4,
        ],
        W3,
    )


# ---------------------------------------------------------------------------
# basic construction


def test_single_variable_principal_ideal():
    gb = buchberger([SparsePoly.variable(1, 0)], (1,))
    assert [list(p.terms) for p in gb.polys] == [[(1,)]]


def test_unit_ideal():
    gb = buchberger([SparsePoly.const(2, 5)], (1, 1))
    assert gb.is_unit_ideal()
    assert gb.polys == (SparsePoly.const(2, 1),)
    assert gb.hilbert_function(4) == [0, 0, 0, 0, 0]


def test_buchberger_rejects_empty():
    with pytest.raises(ValueError):
        buchberger([SparsePoly.zero(2)], (1, 1))


def test_worked_ideal_reduced_basis():
    gb = paper_ideal()
    texts = sorted(str(p) for p in gb.polys)
    assert texts == sorted(
        [
            "1*x3",
            "1*x2^2",
            "1*x1^3 - 4*x1*x2",
            "1*x1^2*x2",
        ]
    )


def test_determinism():
    a = paper_ideal()
    b = paper_ideal()
    assert a.polys == b.polys


def test_reduced_basis_is_groebner_and_reduced():
    # independent S-polynomial check plus reducedness of heads and tails
    gb = paper_ideal()
    leads = gb._leads
    for i in range(len(gb.polys)):
        for j in range(i + 1, len(gb.polys)):
            fi, fj = gb.polys[i], gb.polys[j]
            lcm = tuple(max(a, b) for a, b in zip(leads[i], leads[j]))
            si = tuple(l - a for l, a in zip(lcm, leads[i]))
            sj = tuple(l - b for l, b in zip(lcm, leads[j]))
            spoly = fi * SparsePoly.monomial(3, si) - fj * SparsePoly.monomial(3, sj)
            assert normal_form(spoly, gb).is_zero()
    for i, p in enumerate(gb.polys):
        assert p.terms[leads[i]] == 1
        for j, lead in enumerate(leads):
            if i == j:
                continue
            assert not all(a <= b for a, b in zip(lead, leads[i]))
            for exp in p.terms:
                if exp != leads[i]:
                    assert not all(a <= b for a, b in zip(lead, exp))


# ---------------------------------------------------------------------------
# normal forms


def test_normal_form_examples():
    gb = paper_ideal()
    assert normal_form(e(1) ** 3, gb) == 4 * e(1) * e(2)
    for g in [e(3), e(2) ** 2, poly_from_text("1*e1^3 - 4*e1*e2", nvars=3), e(1) ** 4]:
        assert normal_form(g, gb).is_zero()
    assert normal_form(e(1) * e(2), gb) == e(1) * e(2)


def test_normal_form_idempotent_and_linear():
    gb = paper_ideal()
    rng = random.Random(20)
    for _ in range(20):
        f = random_poly(rng, 3)
        g = random_poly(rng, 3)
        nf = normal_form(f, gb)
        assert normal_form(nf, gb) == nf
        assert normal_form(f + g, gb) == normal_form(f, gb) + normal_form(g, gb)
        assert normal_form(3 * f, gb) == 3 * normal_form(f, gb)


def test_membership_of_random_multiples():
    gb = paper_ideal()
    rng = random.Random(21)
    gens = [e(3), e(2) ** 2, poly_from_text("1*e1^3 - 4*e1*e2", nvars=3)]
    for _ in range(20):
        combo = SparsePoly.zero(3)
        for g in gens:
            combo = combo + random_poly(rng, 3, max_deg=1, nterms=2) * g
        assert gb.contains(combo)


def test_ideal_equality_check():
    a = paper_ideal()
    b = buchberger([e(3), e(2) ** 2, poly_from_text("1*e1^3 - 4*e1*e2", nvars=3), e(1) ** 2 * e(2)], W3)
    assert ideal_equals(a, b)
    c = buchberger([e(3)], W3)
    assert not ideal_equals(a, c)


def test_basis_from_non_monic_members():
    x, y = SparsePoly.variable(2, 0), SparsePoly.variable(2, 1)
    gb = buchberger([2 * x + y], (1, 1))
    assert gb.contains(2 * x + y)
    assert gb.contains(6 * x + 3 * y)
    assert normal_form(x, gb) == Fraction(-1, 2) * y
    rational = buchberger([Fraction(2, 3) * x + Fraction(1, 5) * y], (1, 1))
    assert rational.contains(10 * x + 3 * y)
    assert normal_form(x, rational) == Fraction(-3, 10) * y
    assert normal_form(Fraction(1, 7) * x + y, rational) == Fraction(67, 70) * y


def test_only_buchberger_makes_a_basis():
    # y (x^2 - y) - x (x y) = -y^2 lies in the ideal, though neither head divides y^2:
    # these members are no Groebner basis, and their quotient queries would be wrong
    x, y = SparsePoly.variable(2, 0), SparsePoly.variable(2, 1)
    with pytest.raises(TypeError):
        GroebnerBasis(2, (1, 1), (x**2 - y, x * y))
    gb = buchberger([x**2 - y, x * y], (1, 1))
    assert gb.contains(y**2)
    assert gb.hilbert_function(4) == [1, 2, 0, 0, 0]
    assert gb.quotient_dimension() == 3


@pytest.mark.parametrize("option", [{"max_deg": 2}, {"start": None}])
def test_buchberger_takes_no_truncation_options(option):
    # a basis stopped at a degree lives only inside minimal_generator_subset's run
    x, y = SparsePoly.variable(2, 0), SparsePoly.variable(2, 1)
    with pytest.raises(TypeError):
        buchberger([x * y, x**2 - y**2], (1, 1), **option)
    gb = buchberger([x * y, x**2 - y**2], (1, 1))
    assert not hasattr(gb, "max_deg")
    with pytest.raises(TypeError):
        GroebnerBasis(gb._order, gb._heads, **option)


def test_pseudo_division_with_and_without_scaling():
    # head coefficient 6: 12 is a multiple (no scaling), 10 shares only 2 (scale by 3)
    x, y = SparsePoly.variable(2, 0), SparsePoly.variable(2, 1)
    gb = buchberger([6 * x**2 + 5 * y**2, 10 * x * y + 3 * y**2], (1, 1))
    assert gb._heads.coefs == [10, 6, 1]  # x y, x^2 and the y^3 their pair adds
    assert normal_form(12 * x**2 + y, gb) == -10 * y**2 + y
    assert normal_form(10 * x**2 + x + y, gb) == Fraction(-25, 3) * y**2 + x + y
    assert normal_form(y**3 + 10 * x**2, gb) == Fraction(-25, 3) * y**2
    # 4x^2 scales by 3, then 45xy by 2
    assert normal_form(15 * x * y + 4 * x**2, gb) == Fraction(-47, 6) * y**2
    # y^3 is standard modulo 6x^2 + 5y^2 alone: it is emitted before 10x^2
    # scales the pending terms, and is lifted at the end
    principal = buchberger([6 * x**2 + 5 * y**2], (1, 1))
    assert normal_form(y**3 + 10 * x**2, principal) == y**3 + Fraction(-25, 3) * y**2


# ---------------------------------------------------------------------------
# staircases and Hilbert data


def test_standard_monomials_and_dimension():
    gb = paper_ideal()
    assert sorted(gb.standard_monomials()) == sorted(
        [(0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 1, 0), (1, 1, 0)]
    )
    assert gb.quotient_dimension() == 5
    assert gb.hilbert_function(12) == [1, 1, 2, 1] + [0] * 9


def test_infinite_quotient_detected():
    gb = buchberger([e(3)], W3)
    assert not gb.is_finite_dimensional()
    with pytest.raises(ValueError):
        gb.standard_monomials()
    # hilbert_function still works on a bounded range: 1; e1; e1^2, e2
    assert gb.hilbert_function(2) == [1, 1, 2]


def test_hilbert_function_rejects_negative_degree():
    gb = paper_ideal()
    assert gb.hilbert_function(0) == [1]
    with pytest.raises(ValueError, match="max_deg must be >= 0"):
        gb.hilbert_function(-1)


def test_weighted_degrevlex_leading_terms():
    # weight makes e2 beat e1^2 impossible: both weigh 2, revlex favours e1^2
    gb = buchberger([SparsePoly.variable(2, 0) ** 2 + SparsePoly.variable(2, 1)], (1, 2))
    assert gb._leads == ((2, 0),)
    # but a heavier monomial always leads
    gb2 = buchberger([SparsePoly.variable(2, 1) ** 2 + SparsePoly.variable(2, 0) ** 3], (1, 2))
    assert gb2._leads == ((0, 2),)


def test_random_ideals_have_verified_bases():
    rng = random.Random(22)
    for _ in range(10):
        gens = [random_poly(rng, 2, max_deg=3, nterms=3) for _ in range(2)]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        gb = buchberger(gens, (1, 1))
        for g in gens:
            assert gb.contains(g)
        leads = gb._leads
        for i in range(len(gb.polys)):
            for j in range(i + 1, len(gb.polys)):
                lcm = tuple(max(a, b) for a, b in zip(leads[i], leads[j]))
                si = tuple(l - a for l, a in zip(lcm, leads[i]))
                sj = tuple(l - b for l, b in zip(lcm, leads[j]))
                spoly = gb.polys[i] * SparsePoly.monomial(2, si) - gb.polys[
                    j
                ] * SparsePoly.monomial(2, sj)
                assert normal_form(spoly, gb).is_zero()


# ---------------------------------------------------------------------------
# packed monomials: the memoised head lookup and weighted degrees at the field limit


def test_head_lookup_rechecks_a_miss_after_the_heads_grow():
    order = _Order((1, 1), 2)
    heads = _Heads(order)
    heads.add(order.key((2, 0)), 1, [])
    key = order.key((1, 1))
    assert heads.divisor(key) is None
    heads.add(order.key((0, 1)), 1, [])
    heads.add(order.key((1, 0)), 1, [])
    assert heads.divisor(key) == 1
    assert heads.divisor(order.key((3, 0))) == 0
    assert heads.divisor(order.key((0, 0))) is None


LIMIT = 2**31


def test_packing_rejects_weighted_degree_at_the_field_limit():
    with pytest.raises(OverflowError, match=str(LIMIT)):
        buchberger([SparsePoly.monomial(1, (LIMIT,))], (1,))
    # the weight counts: 2 * 2^30 = 2^31
    with pytest.raises(OverflowError, match=str(LIMIT)):
        buchberger([SparsePoly.monomial(2, (0, 2**30))], (1, 2))
    gb = buchberger([SparsePoly.monomial(1, (LIMIT - 1,))], (1,))
    assert gb._leads == ((LIMIT - 1,),)
    assert gb.contains(SparsePoly.monomial(1, (LIMIT - 1,)))
    with pytest.raises(OverflowError, match=str(LIMIT)):
        normal_form(SparsePoly.monomial(1, (LIMIT,)), gb)


def test_pair_lcm_rejects_weighted_degree_at_the_field_limit():
    f = SparsePoly.monomial(2, (2**30, 1))
    with pytest.raises(OverflowError, match=str(LIMIT)):
        buchberger([f, SparsePoly.monomial(2, (1, 2**30))], (1, 1))
    # one below: the lcm packs, and the S-polynomial of two monomials is zero
    gb = buchberger([f, SparsePoly.monomial(2, (1, 2**30 - 1))], (1, 1))
    assert gb._leads == ((1, 2**30 - 1), (2**30, 1))


def test_hilbert_function_rejects_max_deg_at_the_field_limit(monkeypatch):
    gb = buchberger([SparsePoly.variable(2, 1)], (1, 1))
    walks = []
    monkeypatch.setattr(GroebnerBasis, "_order_ideal", lambda self, max_deg=None: walks.append(max_deg))
    for basis in (gb, paper_ideal()):
        with pytest.raises(OverflowError, match=str(LIMIT)):
            basis.hilbert_function(LIMIT)
    assert walks == []
