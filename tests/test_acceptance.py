"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every equality below is exact (rational arithmetic, zero tolerance); the
stated wall-clock budgets are asserted as well.  Run with `pytest -s
tests/test_acceptance.py` to see the per-criterion lines as they print.
"""

import itertools
import random
import time
from contextlib import contextmanager

import pytest

from nchilb.coha import (
    coha_mul,
    element,
    psi_product,
    shuffle_expression,
    tautological_relation,
)
from nchilb.forests import (
    enumerate_forests,
    forest_to_json,
    forest_to_jtuple,
    jtuple_to_btuple,
    jtuple_to_forest,
    poincare_polynomial,
)
from nchilb.groebner import buchberger, ideal_equals
from nchilb.polynomial import (
    SparsePoly,
    monomial_symmetric,
    poly_from_text,
    rho,
    rho_pq,
    schur,
)
from nchilb.presentation import (
    e_weights,
    kernel_ideal,
    local_multiplicity,
    verify_poincare_match,
)

from helpers import random_poly, random_symmetric_poly


@contextmanager
def criterion(number, description, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    elapsed = time.perf_counter() - start
    if elapsed > budget_seconds:
        print(
            f"[FAIL] criterion {number}: {description} "
            f"(took {elapsed:.2f}s, budget {budget_seconds}s)"
        )
        raise AssertionError(f"criterion {number} exceeded its {budget_seconds}s budget")
    print(f"[PASS] criterion {number}: {description} ({elapsed:.2f}s)")


def test_criterion_1_forest_census():
    with criterion(1, "binary forest census 1,1,2,5,14,42,132 for d=0..6", 1.0):
        counts = [len(enumerate_forests(2, d, 1)) for d in range(7)]
        assert counts == [1, 1, 2, 5, 14, 42, 132]
        assert [forest_to_json(f) for f in enumerate_forests(2, 3, 1)] == [
            [["", "1", "11"]],
            [["", "1", "12"]],
            [["", "1", "2"]],
            [["", "2", "21"]],
            [["", "2", "22"]],
        ]


def test_criterion_2_poincare_polynomial():
    with criterion(2, "Poincare polynomial of (2,3,1) is t^12 + t^11 + 2t^10 + t^9", 1.0):
        assert poincare_polynomial(2, 3, 1) == [0] * 9 + [1, 2, 1, 1]


def test_criterion_3_bijection_pinning_and_round_trips():
    with criterion(3, "J/B pinning plus exhaustive F->J->B round trips", 5.0):
        jtuples = [forest_to_jtuple(f) for f in enumerate_forests(2, 3, 1)]
        assert jtuples == [
            (3, 3, 3, 3),
            (2, 3, 3, 3),
            (2, 2, 3, 3),
            (1, 3, 3, 3),
            (1, 2, 3, 3),
        ]
        assert [jtuple_to_btuple(j, 3) for j in jtuples] == [
            (0, 0, 0),
            (0, 0, 1),
            (0, 0, 2),
            (0, 1, 0),
            (0, 1, 1),
        ]
        for m in range(4):
            for d in range(5):
                for n in (1, 2):
                    for forest in enumerate_forests(m, d, n):
                        j = forest_to_jtuple(forest)
                        assert jtuple_to_forest(j, m, d, n) == forest
                        b = jtuple_to_btuple(j, d)
                        assert sum(b) <= len(j)


def test_criterion_4_coha_closed_forms():
    with criterion(4, "m=0 Schur law, m=1 monomial law, m=0 squares vanish", 30.0):
        for d in range(1, 5):
            for ks in itertools.combinations(range(6), d):
                lam = tuple(k - (d - 1 - i) for i, k in enumerate(sorted(ks, reverse=True)))
                assert psi_product(ks, 0).poly == schur(lam, d)
        for d in range(1, 5):
            for ks in itertools.product(range(6), repeat=d):
                prod = psi_product(ks, 1)
                lam = tuple(sorted(ks, reverse=True))
                mono = monomial_symmetric(lam, d)
                c = prod.poly.coefficient(max(mono.terms))
                assert c == int(c) and c > 0
                assert prod.poly == c * mono
        rng = random.Random(40)
        for _ in range(10):
            f = element(random_poly(rng, 1, max_deg=5, nterms=3))
            assert coha_mul(f, f, 0).poly.is_zero()


def test_criterion_5_presentation_reproduction():
    with criterion(5, "kernel ideal (2,3) is (e3, e2^2, e1^3-4e1e2, e1^4)", 10.0):
        gb = kernel_ideal(2, 3)
        target = buchberger(
            [
                SparsePoly.monomial(3, (0, 0, 1)),
                SparsePoly.monomial(3, (0, 2, 0)),
                poly_from_text("1*e1^3 - 4*e1*e2", nvars=3),
                SparsePoly.monomial(3, (4, 0, 0)),
            ],
            e_weights(3),
        )
        assert ideal_equals(gb, target)
        assert gb.hilbert_function(12) == [1, 1, 2, 1] + [0] * 9
        assert sorted(gb.standard_monomials()) == sorted(
            [(0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 1, 0), (1, 1, 0)]
        )


def test_criterion_6_degenerate_m_laws():
    with criterion(6, "kernel ideals for m=1 and m=0 match the closed forms", 10.0):
        for d in range(1, 5):
            expected = buchberger(
                [SparsePoly.variable(d, i) for i in range(d)], e_weights(d)
            )
            assert ideal_equals(kernel_ideal(1, d), expected)
        assert kernel_ideal(0, 1).polys == (SparsePoly.variable(1, 0),)
        for d in (2, 3):
            assert kernel_ideal(0, d).is_unit_ideal()


def test_criterion_7_poincare_hilbert_match():
    with criterion(7, "Hilbert functions match forest censuses, incl. (2,4)", 300.0):
        for m in range(4):
            for d in range(1, 4):
                assert verify_poincare_match(m, d), (m, d)
        assert verify_poincare_match(2, 4)


def test_criterion_8_multiplicity():
    with criterion(8, "generic length of the worked parametrized pair is 4", 5.0):
        n = 12

        def v(i):
            return SparsePoly.variable(n, i)

        y, z = v(0), v(1)
        a = [None] + [v(1 + i) for i in range(1, 11)]
        g1 = y**2 + a[4] * y * z - a[3] * z**2
        g2 = a[7] * y**2 + (a[10] - a[6]) * y * z - a[1] * z - a[9] * z**2
        for seed in (0, 7, 123):
            assert local_multiplicity([g1, g2], trials=5, seed=seed) == 4


def test_criterion_9_property_suites():
    with criterion(9, "rho linearity/alternation, associativity, shuffle identity", 120.0):
        rng = random.Random(90)
        # 200 cases: rho is linear over symmetric factors and alternating
        for _ in range(200):
            d = rng.randint(2, 4)
            b = random_poly(rng, d)
            a = random_symmetric_poly(rng, d, max_part=2, nterms=2)
            assert rho(a * b) == a * rho(b)
            i = rng.randrange(d - 1)
            sigma = list(range(d))
            sigma[i], sigma[i + 1] = sigma[i + 1], sigma[i]
            assert rho(b.permute(tuple(sigma))) == -rho(b)

        # 100 random triples: associativity with total arity <= 4, m <= 3
        def random_element(d):
            if d == 0:
                return element(SparsePoly.const(0, rng.randint(1, 4)))
            return element(random_symmetric_poly(rng, d, max_part=2, nterms=2))

        shapes = [(1, 1, 1), (1, 1, 2), (1, 2, 1), (2, 1, 1)]
        for trial in range(100):
            arities = shapes[trial % len(shapes)]
            m = trial % 4
            f, g, h = (random_element(x) for x in arities)
            assert coha_mul(coha_mul(f, g, m), h, m) == coha_mul(
                f, coha_mul(g, h, m), m
            )

        # 50 random b: rho(b f^(p)) equals the displayed shuffle expression
        for trial in range(50):
            d = rng.randint(2, 4)
            p = rng.randrange(d)
            m = trial % 3
            b = random_poly(rng, d)
            lhs = tautological_relation(b, p, d, m).poly
            rhs = shuffle_expression(rho_pq(b, p, d - p), p, d - p, m)
            assert lhs == rhs
