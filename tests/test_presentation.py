"""Presentations: kernel ideals, quotient bases, census matches, multiplicities."""

import json

import pytest

from nchilb.cli import main
from nchilb.forests import enumerate_btuples, enumerate_forests
from nchilb.groebner import GroebnerBasis, buchberger, ideal_equals, normal_form
from nchilb.polynomial import SparsePoly, poly_from_text
from nchilb.presentation import (
    chern_monomial,
    e_weights,
    kernel_ideal,
    kernel_ideal_generators,
    local_multiplicity,
    minimal_generator_subset,
    presentation_report,
    verify_chern_basis,
    verify_poincare_match,
)


def e(k, d):
    return SparsePoly.variable(d, k - 1)


def worked_example_ideal():
    return buchberger(
        [
            e(3, 3),
            e(2, 3) ** 2,
            poly_from_text("1*e1^3 - 4*e1*e2", nvars=3),
            e(1, 3) ** 4,
        ],
        e_weights(3),
    )


# ---------------------------------------------------------------------------
# kernel ideals


def test_kernel_ideal_2_3_equals_worked_example():
    gb = kernel_ideal(2, 3)
    assert ideal_equals(gb, worked_example_ideal())
    # reduced bases for one order are unique, so they agree on the nose
    assert gb.polys == worked_example_ideal().polys


def test_kernel_ideal_2_3_normal_forms():
    gb = kernel_ideal(2, 3)
    assert normal_form(e(1, 3) ** 3, gb) == 4 * e(1, 3) * e(2, 3)
    assert normal_form(e(1, 3) * e(2, 3), gb) == e(1, 3) * e(2, 3)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_kernel_ideal_m1_is_irrelevant_ideal(d):
    expected = buchberger([e(k, d) for k in range(1, d + 1)], e_weights(d))
    assert ideal_equals(kernel_ideal(1, d), expected)
    assert kernel_ideal(1, d).hilbert_function(3) == [1, 0, 0, 0]


def test_kernel_ideal_m0():
    assert kernel_ideal(0, 1).polys == (e(1, 1),)
    for d in (2, 3):
        assert kernel_ideal(0, d).is_unit_ideal()
        assert kernel_ideal(0, d).hilbert_function(4) == [0] * 5


def test_kernel_ideal_generator_count():
    assert len(kernel_ideal_generators(3, 2)) == 7
    # m = 0 in arity 2 produces the unit and a vanishing generator
    gens = kernel_ideal_generators(2, 0)
    assert any(g == SparsePoly.const(2, 1) for g in gens)


# ---------------------------------------------------------------------------
# verification verdicts


def test_chern_basis_2_3_with_pinned_monomials():
    gb = kernel_ideal(2, 3)
    assert verify_chern_basis(2, 3)
    assert sorted(gb.standard_monomials()) == sorted(
        [(0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 1, 0), (1, 1, 0)]
    )


def test_chern_monomial_indexing():
    assert chern_monomial((0, 1, 1), 3) == e(1, 3) * e(2, 3)
    assert chern_monomial((0, 0, 2), 3) == e(1, 3) ** 2
    assert chern_monomial((0, 1, 0), 3) == e(2, 3)


@pytest.mark.parametrize("m,d", [(1, 1), (1, 2), (1, 3), (1, 4)])
def test_chern_basis_m1(m, d):
    assert verify_chern_basis(m, d)
    assert kernel_ideal(m, d).standard_monomials() == [(0,) * d]


def test_chern_basis_3_2():
    assert verify_chern_basis(3, 2)
    # both sides counted independently
    assert kernel_ideal(3, 2).quotient_dimension() == len(enumerate_forests(3, 2, 1))


@pytest.mark.parametrize("m,d", [(2, 2), (2, 3), (3, 3)])
def test_poincare_match(m, d):
    assert verify_poincare_match(m, d)


def test_chow_verify_passes_at_the_m2_frontier(capsys):
    # (2, 7): 127 kernel generators; the quotient dimension is the
    # Fuss-Catalan number binom(2 * 7, 7) / (7 + 1) = 429
    assert main(["chow", "verify", "--m", "2", "--d", "7", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"chern_basis": True, "poincare_match": True}
    assert kernel_ideal(2, 7).quotient_dimension() == 429


# ---------------------------------------------------------------------------
# local multiplicity


def worked_multiplicity_pair():
    n = 12

    def v(i):
        return SparsePoly.variable(n, i)

    y, z = v(0), v(1)
    a = [None] + [v(1 + i) for i in range(1, 11)]  # a[i] is the i-th parameter
    g1 = y**2 + a[4] * y * z - a[3] * z**2
    g2 = a[7] * y**2 + (a[10] - a[6]) * y * z - a[1] * z - a[9] * z**2
    return [g1, g2]


def test_local_multiplicity_worked_pair():
    for seed in (0, 1, 2023):
        assert local_multiplicity(worked_multiplicity_pair(), trials=5, seed=seed) == 4


def test_local_multiplicity_trivial_cases():
    y, z = SparsePoly.variable(2, 0), SparsePoly.variable(2, 1)
    assert local_multiplicity([y, z]) == 1
    assert local_multiplicity([y**2, z]) == 2


def test_local_multiplicity_error_on_infinite():
    y = SparsePoly.variable(2, 0)
    z = SparsePoly.variable(2, 1)
    with pytest.raises(RuntimeError, match="only 0 of 3 requested"):
        local_multiplicity([y * z], trials=3, seed=0)


def test_local_multiplicity_needs_a_trial():
    y, z = SparsePoly.variable(2, 0), SparsePoly.variable(2, 1)
    for trials in (0, -1):
        with pytest.raises(ValueError, match="trials must be >= 1"):
            local_multiplicity([y, z], trials=trials)


def test_local_multiplicity_local_vars_below_zero_raises():
    y, z = SparsePoly.variable(2, 0), SparsePoly.variable(2, 1)
    with pytest.raises(ValueError, match="local_vars must be >= 0"):
        local_multiplicity([y**2, z], local_vars=-1)
    assert local_multiplicity([y**2, z], local_vars=0) == 0


# ---------------------------------------------------------------------------
# reports


def test_presentation_report_2_3():
    report = presentation_report(2, 3)
    assert report.hilbert[:4] == (1, 1, 2, 1)
    assert not any(report.hilbert[4:])
    assert report.verdicts == {"chern_basis": True, "poincare_match": True}
    data = report.to_json()
    assert data["m"] == 2 and data["d"] == 3
    assert data["hilbert"][:4] == [1, 1, 2, 1]
    assert set(data) >= {"generators", "groebner", "standard_monomials", "verdicts"}


def test_presentation_report_computes_generators_once(monkeypatch):
    import nchilb.presentation

    calls = []
    original = nchilb.presentation.kernel_generators

    def counted(d, m):
        calls.append((d, m))
        return original(d, m)

    monkeypatch.setattr(nchilb.presentation, "kernel_generators", counted)
    report = presentation_report(2, 4)
    assert calls == [(4, 2)]
    assert report.groebner.polys == kernel_ideal(2, 4).polys


def test_presentation_report_walks_the_order_ideal_once(monkeypatch):
    calls = []
    original = GroebnerBasis._order_ideal

    def counted(self, max_deg=None):
        calls.append(max_deg)
        return original(self, max_deg)

    monkeypatch.setattr(GroebnerBasis, "_order_ideal", counted)
    report = presentation_report(2, 4)
    assert report.verdicts == {"chern_basis": True, "poincare_match": True}
    assert calls == [None]


def test_chern_basis_false_when_only_the_rank_fails():
    # e1^2 = e2 in the quotient, so the B-tuple monomials e1^2 and e2 coincide
    # although there are as many of them as the quotient dimension
    gb = buchberger([e(3, 3), e(2, 3) - e(1, 3) ** 2, e(1, 3) ** 5], e_weights(3))
    assert gb.quotient_dimension() == len(enumerate_btuples(2, 3, 1)) == 5
    assert verify_chern_basis(2, 3, gb) is False


def test_minimal_generator_subset():
    gens = kernel_ideal_generators(3, 2)
    subset = minimal_generator_subset(gens, e_weights(3))
    full = kernel_ideal(2, 3)
    assert ideal_equals(buchberger(subset, e_weights(3)), full)
    # inclusion-minimal: no member is generated by the others
    for i in range(len(subset)):
        rest = subset[:i] + subset[i + 1 :]
        if rest:
            assert not buchberger(rest, e_weights(3)).contains(subset[i])
