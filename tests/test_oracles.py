"""The partition-space symmetry check, change of basis and kernel generators
against the x-space oracles in helpers.py, the stored benchmark inputs and
pinned digests at (3,6), (2,7), (4,6); the kernel power's block
representatives against the filtered full product; the text parser
against the regex grammar it replaced;
rho and rho_pq against the bialternant, and the Kostka numbers behind them
against closed-form identities; the partition-core shuffle product (m = 0..3)
and its change of basis against the subset-sum and x-space descent oracles,
the shuffles with the memo of monomial-pair sums cleared against the same
shuffles with it warm, the e-monomial rows on packed e-exponents in every
field width against x-space products,
and the presentation path without any x-space expansion; the local
multiplicity and every trial's dimension against the loop that screens
draws by leading coefficients; the
packed-monomial Buchberger, normal forms (also on planted head coefficients
that force pseudo-division to scale), order, divisibility and pair lcms
against the tuple-exponent oracle, the Gebauer-Moeller new-pair thinning
against the quadratic loop, the pair work on the stored inputs and on
seeded random ideals against pinned `_reduce` counts, every input reduced
before every pair, and the kernel ideals against sympy's bases; bases
truncated at a degree, and runs resumed from them, against whole bases and
runs from scratch, and the members built on first read against the packed
ones; every quotient query of a basis before and after its members are
interreduced, against the oracles, with weights as a list or a tuple
sharing one order and refused weights never kept; the order-ideal walk of a basis against exhaustive box and cone
walks; the minimal generator subset, one truncated basis per degree, each
resuming the last, against the restart loop on kernel and planted
weighted-homogeneous generators; the sparse rank check against sympy; the
Chern verdict, which pivots only the non-standard B-tuple monomials,
against the one that pivots them all, on kernel ideals moved off their
staircase by a graded change of variables; the
critical pairs and j-indices of the preorder walk against set differences
and element counts; and the in-order forest recursion against compositions
and one sort."""

import hashlib
import itertools
import math
import os
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import nchilb.groebner
import nchilb.presentation
from nchilb.cli import _worked_example_pair
from nchilb.coha import (
    _kernel_representatives,
    _pair_sums,
    coha_mul,
    element,
    kernel_generators,
    psi_product,
    shuffle_expression,
)
from nchilb.forests import critical_pairs, enumerate_btuples, enumerate_forests, forest_to_jtuple
from nchilb.groebner import (
    GroebnerBasis,
    _Heads,
    _integral,
    _join,
    _Order,
    _Run,
    buchberger,
    normal_form,
)
from nchilb.polynomial import (
    SparsePoly,
    SymmetricPoly,
    _expansion,
    _kostka,
    _orbit_size,
    _pack,
    _unpack,
    from_elementary,
    is_partition,
    is_symmetric,
    monomial_symmetric,
    poly_from_text,
    poly_to_text,
    rho,
    rho_pq,
    schur,
    to_elementary,
)
from nchilb.presentation import (
    chern_monomial,
    e_weights,
    kernel_ideal_generators,
    local_multiplicity,
    minimal_generator_subset,
    trial_dimensions,
    verify_chern_basis,
)
from nchilb.rationals import QQ

from helpers import (
    _linearly_independent,
    _oracle_leading,
    _partitions_of,
    conjugate_partition,
    jtuple_oracle,
    oracle_buchberger,
    oracle_critical_pairs,
    oracle_divides,
    oracle_enumerate_forests,
    oracle_from_elementary,
    oracle_minimal_generator_subset,
    oracle_new_pairs,
    oracle_hilbert_function,
    oracle_is_finite_dimensional,
    oracle_is_symmetric,
    oracle_kernel_generators,
    oracle_kernel_power,
    oracle_local_multiplicity,
    oracle_normal_form,
    oracle_order_key,
    oracle_packed_key,
    oracle_poly_from_text,
    oracle_rho,
    oracle_rho_pq,
    oracle_shuffle,
    oracle_standard_monomials,
    oracle_to_elementary,
    oracle_trial_dimensions,
    oracle_verify_chern_basis,
    random_poly,
    time_limit,
)

INPUTS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "inputs")

ORACLE_GRID = [(m, d) for m in range(5) for d in range(1, 5)] + [(2, 5)]


@pytest.mark.parametrize("m,d", ORACLE_GRID)
def test_kernel_generators_equal_shuffle_oracle(m, d):
    gens = kernel_generators(d, m)
    oracle = oracle_kernel_generators(d, m)
    assert [g.poly for g in gens] == oracle
    assert kernel_ideal_generators(d, m) == [
        oracle_to_elementary(f) for f in oracle if not f.is_zero()
    ]


@pytest.mark.parametrize("m,d", [(3, 5), (2, 6), (5, 4)])
def test_e_generators_equal_stored_inputs(m, d):
    with open(os.path.join(INPUTS, f"m{m}_d{d}.txt")) as fh:
        stored = fh.read()
    gens = kernel_ideal_generators(d, m)
    assert "".join(poly_to_text(g, names="e") + "\n" for g in gens) == stored


# sha256 of the e-generator text, one canonical line per generator, as computed
# by the full-product kernel and the per-lead e-monomial expansion they replaced
E_GENERATOR_SHA256 = {
    (3, 6): "b9e930e1a1fe271b79f13c904407d6cfc672b74a787b9e18ce4d16d4983318b5",
    (2, 7): "0c806754896a092c3e6a6d7b3f9519e99f5599144e704765097495a0aa6f3afe",
    (4, 6): "9acc12f5648783c23a9f81e79451b64d064f5f1ce5e4a8448c591dad939d5fa2",
}


@pytest.mark.parametrize("m,d", sorted(E_GENERATOR_SHA256))
def test_e_generators_match_pinned_digests(m, d):
    text = "".join(poly_to_text(g, names="e") + "\n" for g in kernel_ideal_generators(d, m))
    assert hashlib.sha256(text.encode()).hexdigest() == E_GENERATOR_SHA256[m, d]


def test_e_generators_carry_rational_coefficients():
    # downstream code divides coefficients, which must not turn into floats
    for g in kernel_ideal_generators(3, 2):
        assert all(isinstance(c, QQ) for c in g.terms.values())
    for element in kernel_generators(3, 2):
        assert all(isinstance(c, QQ) for c in element.poly.terms.values())


# ---------------------------------------------------------------------------
# properties

fractions = st.builds(
    Fraction,
    st.integers(-30, 30).filter(bool),
    st.integers(1, 12),
)


@st.composite
def e_polynomials(draw):
    """A polynomial in d e-variables with nonzero rational coefficients, one of them non-integral."""
    d = draw(st.integers(1, 4))
    exps = draw(
        st.lists(st.tuples(*[st.integers(0, 2)] * d), min_size=1, max_size=5, unique=True)
    )
    coefs = draw(st.lists(fractions, min_size=len(exps), max_size=len(exps)))
    coefs[0] = Fraction(2 * coefs[0].numerator + 1, 2 * coefs[0].denominator)
    return SparsePoly(d, dict(zip(exps, coefs)))


@settings(max_examples=60, deadline=None)
@given(e_polynomials())
def test_to_elementary_inverts_from_elementary(g):
    assert to_elementary(from_elementary(g)) == g


@settings(max_examples=60, deadline=None)
@given(e_polynomials())
def test_from_elementary_equals_x_space_products(g):
    # both directions read _expansion, so the round trip alone cannot catch a wrong expansion
    assert from_elementary(g) == oracle_from_elementary(g)


@settings(max_examples=60, deadline=None)
@given(e_polynomials(), st.data())
def test_one_changed_orbit_member_breaks_symmetry(g, data):
    f = from_elementary(g)
    d = f.nvars
    assume(d >= 2)
    exp = data.draw(st.tuples(*[st.integers(0, 3)] * d).filter(lambda e: len(set(e)) > 1))
    delta = data.draw(fractions)
    terms = dict(f.terms)
    terms[exp] = terms.get(exp, 0) + delta
    broken = SparsePoly(d, terms)
    assert not oracle_is_symmetric(broken)
    assert not is_symmetric(broken)
    with pytest.raises(ValueError):
        to_elementary(broken)


@st.composite
def symmetric_polynomials(draw):
    """A SymmetricPoly in 0..6 variables on padded partitions, full-length ones included."""
    d = draw(st.integers(0, 6))
    part = st.lists(st.integers(0, 3 if d <= 4 else 2), min_size=d, max_size=d)
    parts = draw(st.lists(part.map(lambda p: tuple(sorted(p, reverse=True))), max_size=4))
    coefs = draw(st.lists(st.integers(-30, 30), min_size=len(parts), max_size=len(parts)))
    return SymmetricPoly(d, dict(zip(parts, coefs)), draw(st.integers(1, 6)))


@settings(max_examples=80, deadline=None)
@given(symmetric_polynomials())
@example(SymmetricPoly(3, {(2, 1, 1): 3, (1, 1, 1): -2, (2, 2, 2): 1}, 2))
@example(SymmetricPoly(6, {(2, 2, 1, 1, 1, 1): 5, (1, 1, 1, 1, 1, 1): 1}))
@example(SymmetricPoly(0, {(): 7}, 3))
def test_to_elementary_equals_x_space_descent(f):
    # a partition with d nonzero parts leads with a power of e_d, which the packed
    # descent reads off the row of its e_d-free exponent, shifted
    assert to_elementary(f) == oracle_to_elementary(f.poly)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 3), st.sampled_from((8, 16, 32, 64)))
def test_kernel_representatives_equal_filtered_full_product(p, q, power, width):
    # the full product has (power + 1)^(p q) terms before cancellation, so its
    # size, not the representatives', bounds the shapes checked here
    assume(p * q * power <= 18)
    with time_limit(30):
        expected = sorted(
            (_pack(e, width), int(c) * _orbit_size(e[:p]) * _orbit_size(e[p:]))
            for e, c in oracle_kernel_power(p, q, power).terms.items()
            if is_partition(e[:p]) and is_partition(e[p:])
        )
        assert sorted(_kernel_representatives(p, q, power, width)) == expected


def _parse_outcome(parse, text, nvars):
    try:
        return parse(text, nvars=nvars)
    except Exception as exc:  # the exception class is part of the outcome
        return type(exc)


@st.composite
def polynomial_texts(draw):
    """A canonical text of a random polynomial, then up to four characters changed."""
    nvars = draw(st.integers(0, 4))
    exps = draw(st.lists(st.tuples(*[st.integers(0, 3)] * nvars), max_size=4, unique=True))
    coefs = draw(st.lists(fractions, min_size=len(exps), max_size=len(exps)))
    text = poly_to_text(SparsePoly(nvars, dict(zip(exps, coefs))), names=draw(st.sampled_from("xe")))
    alphabet = st.sampled_from(list("0123456789/*^+- xey\n\u0661_"))
    for _ in range(draw(st.integers(0, 4))):
        at = draw(st.integers(0, len(text)))
        op = draw(st.sampled_from(["insert", "delete", "replace"]))
        char = draw(alphabet)
        if op == "insert":
            text = text[:at] + char + text[at:]
        elif op == "delete":
            text = text[:at] + text[at + 1 :]
        else:
            text = text[:at] + char + text[at + 1 :]
    return text


@settings(max_examples=300, deadline=None)
@given(polynomial_texts(), st.one_of(st.none(), st.integers(0, 4)))
@example("1*x1\n + 2", None)
@example("1/0*x1", None)
@example("3/06*x2^2 - 1*x1*x1 + 0*x3", None)
@example("1*x0", None)
@example("1*x1 + 1*e2", None)
@example("- 1", None)
def test_poly_from_text_equals_regex_oracle(text, nvars):
    new = _parse_outcome(poly_from_text, text, nvars)
    old = _parse_outcome(oracle_poly_from_text, text, nvars)
    if old is ZeroDivisionError:
        assert new is ValueError  # a zero denominator is a malformed term
    elif new is ValueError and "\n" in text.strip():
        # the regex `$` also matched before a newline that ends a term
        assert old is ValueError or old == poly_from_text(text.replace("\n", ""), nvars=nvars)
    else:
        assert new == old


@st.composite
def block_polynomials(draw):
    """A polynomial in p + q variables that is often, but not always, S_p x S_q-invariant."""
    p = draw(st.integers(0, 3))
    q = draw(st.integers(0, 3))
    d = p + q
    exps = draw(st.lists(st.tuples(*[st.integers(0, 2)] * d), min_size=0, max_size=3))
    coefs = draw(st.lists(fractions, min_size=len(exps), max_size=len(exps)))
    f = SparsePoly(d, dict(zip(exps, coefs)))
    if draw(st.booleans()):
        images = SparsePoly.zero(d)
        for left in itertools.permutations(range(p)):
            for right in itertools.permutations(range(p, d)):
                images = images + f.permute(left + right)
        f = images
    if draw(st.booleans()) and d:
        exp = draw(st.tuples(*[st.integers(0, 2)] * d))
        terms = dict(f.terms)
        terms[exp] = terms.get(exp, 0) + draw(fractions)
        f = SparsePoly(d, terms)
    return f, (p, q)


@settings(max_examples=200, deadline=None)
@given(block_polynomials())
def test_is_symmetric_agrees_with_transposition_oracle(case):
    f, block = case
    assert is_symmetric(f, block=block) == oracle_is_symmetric(f, block=block)
    assert is_symmetric(f) == oracle_is_symmetric(f)


# ---------------------------------------------------------------------------
# rho from Schur coefficients against the bialternant


@st.composite
def alternation_cases(draw):
    """A polynomial in 0-5 variables with exponents 0-4 and a block split p.

    Each block of a term has distinct entries half the time, so that it
    survives the alternation, and arbitrary (often repeated) ones otherwise.
    """
    d = draw(st.integers(0, 5))
    p = draw(st.integers(0, d))

    def block(n):
        entries = st.lists(st.integers(0, 4), min_size=n, max_size=n, unique=draw(st.booleans()))
        return tuple(draw(entries))

    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        terms[block(p) + block(d - p)] = draw(fractions)
    return SparsePoly(d, terms), p


@settings(max_examples=150, deadline=None)
@given(alternation_cases())
def test_rho_equals_bialternant_oracle(case):
    f, p = case
    q = f.nvars - p
    assert rho_pq(f, p, q) == oracle_rho_pq(f, p, q)
    assert rho(f) == oracle_rho(f)


def _standard_tableaux(lam):
    """f^lam by the hook-length formula."""
    conj = conjugate_partition(lam)
    hooks = math.prod(
        lam[i] - j + conj[j] - i - 1 for i in range(len(lam)) for j in range(lam[i])
    )
    return math.factorial(sum(lam)) // hooks


@pytest.mark.parametrize("n", range(7))
def test_kostka_numbers_satisfy_their_identities(n):
    shapes = list(_partitions_of(n))
    for lam in shapes:
        assert _kostka(lam, lam) == 1
        assert _kostka(lam, (1,) * n) == _standard_tableaux(lam)
        # the coefficient of x^mu in s_lam is K_{lam mu}
        s = schur(lam, n)
        for mu in shapes:
            assert s.coefficient(mu + (0,) * (n - len(mu))) == _kostka(lam, mu)
    for mu in shapes:
        words = math.factorial(n) // math.prod(math.factorial(part) for part in mu)
        assert sum(_standard_tableaux(lam) * _kostka(lam, mu) for lam in shapes) == words


@st.composite
def symmetric_factors(draw):
    """Symmetric f in p and g in q variables, p + q <= 4, from random e-polynomials."""
    p = draw(st.integers(0, 3))
    q = draw(st.integers(0, 4 - p))
    factors = []
    for n in (p, q):
        exps = draw(st.lists(st.tuples(*[st.integers(0, 1)] * n), max_size=3, unique=True))
        coefs = draw(st.lists(fractions, min_size=len(exps), max_size=len(exps)))
        factors.append(from_elementary(SparsePoly(n, dict(zip(exps, coefs)))))
    return factors[0], p, factors[1], q


@settings(max_examples=40, deadline=None)
@given(symmetric_factors())
def test_m0_product_equals_subset_sum_oracle(case):
    f, p, g, q = case
    product = coha_mul(element(f), element(g), 0)
    assert product.nvars == p + q
    assert product.poly == oracle_shuffle(f, p, g, q, 0)


@st.composite
def partition_products(draw):
    """(f, p, g, q, m): symmetric f and g as sums of rational m_lam, p + q <= 5, m <= 3.

    At d = 5 only m = 1 and 2 are drawn: the m = 0 oracle divides by a
    product of C(5, p) kernels and the m = 3 oracles take seconds per case.
    """
    p = draw(st.integers(0, 5))
    q = draw(st.integers(0, 5 - p))
    m = draw(st.integers(1, 2) if p + q == 5 else st.integers(0, 3))
    factors = []
    for n in (p, q):
        parts = st.lists(st.integers(0, 2), min_size=n, max_size=n).map(
            lambda lam: tuple(sorted(lam, reverse=True))
        )
        lams = draw(st.lists(parts, max_size=3, unique=True))
        coefs = draw(st.lists(fractions, min_size=len(lams), max_size=len(lams)))
        f = SparsePoly.zero(n)
        for lam, c in zip(lams, coefs):
            f = f + monomial_symmetric(lam, n) * c
        factors.append(f)
    return factors[0], p, factors[1], q, m


@settings(max_examples=60, deadline=None)
@given(partition_products())
def test_partition_product_equals_shuffle_oracle(case):
    f, p, g, q, m = case
    product = coha_mul(element(f), element(g), m)
    assert product.nvars == p + q
    expanded = product.poly
    assert expanded == oracle_shuffle(f, p, g, q, m)
    assert to_elementary(product) == oracle_to_elementary(expanded)


@st.composite
def memo_cases(draw):
    """(f, g, ks, h, m): elements of arities p and q, psi indices and f(x_I) g(x_J), p + q <= 4, m <= 3."""
    p = draw(st.integers(0, 3))
    q = draw(st.integers(0, 4 - p))
    factors = []
    for n in (p, q):
        parts = st.lists(st.integers(0, 2), min_size=n, max_size=n).map(
            lambda lam: tuple(sorted(lam, reverse=True))
        )
        lams = draw(st.lists(parts, max_size=3, unique=True))
        coefs = draw(st.lists(st.integers(-9, 9), min_size=len(lams), max_size=len(lams)))
        factors.append(SymmetricPoly(n, dict(zip(lams, coefs)), draw(st.integers(1, 4))))
    f, g = factors
    h = SparsePoly(p + q, {a + b: c1 * c2 for a, c1 in f.poly.terms.items() for b, c2 in g.poly.terms.items()})
    ks = draw(st.lists(st.integers(0, 3), min_size=1, max_size=4))
    return f, g, ks, h, draw(st.integers(0, 3))


@settings(max_examples=60, deadline=None)
@given(memo_cases())
def test_shuffles_equal_with_the_pair_memo_cold_and_warm(case):
    # the memo of each monomial pair's shuffle sum is shared by every product;
    # a memoised entry read back in another product must give the same result
    f, g, ks, h, m = case
    p, q = f.nvars, g.nvars
    products = (
        lambda: coha_mul(f, g, m),
        lambda: psi_product(ks, m),
        lambda: shuffle_expression(h, p, q, m),
    )
    cold = []
    for product in products:
        _pair_sums.cache_clear()
        cold.append(product())
    for product in products:
        product()
    misses = _pair_sums.cache_info().misses
    assert [product() for product in products] == cold
    assert _pair_sums.cache_info().misses == misses
    # x_J g(x_J) is (e_q g)(x_J), so the shuffle form of f(x_I) g(x_J) is f * e_q g
    raised = {tuple(b + 1 for b in beta): c for beta, c in g.coefficients.items()}
    assert cold[2] == coha_mul(f, SymmetricPoly(q, raised, g.denominator), m).poly


@pytest.mark.parametrize("width", (8, 16, 32, 64))
def test_packed_e_exponent_rows_equal_x_space_products(width):
    # e^a as a row of packed partitions, keyed by a packed as a partition,
    # shifted by a_d copies of 1^d
    for d in range(7):
        for a in itertools.product(range(3), repeat=d):
            if sum(a) > 3 or (sum(a) == 3 and d > 4):
                continue
            keys, coefs, shift = _expansion(_pack(a, width), d, width)
            row = SymmetricPoly._make(d, {_unpack(key + shift, d, width): c for key, c in zip(keys, coefs)})
            assert row.poly == oracle_from_elementary(SparsePoly(d, {a: 1})), (d, a)


def test_presentation_path_never_expands_to_x_space(monkeypatch):
    def refuse(self):
        raise AssertionError("a partition form was expanded into x-space")

    monkeypatch.setattr(SymmetricPoly, "poly", property(refuse))
    with pytest.raises(AssertionError, match="expanded"):
        kernel_generators(2, 2)[0].poly
    with open(os.path.join(INPUTS, "m2_d5.txt")) as fh:
        stored = fh.read()
    gens = kernel_ideal_generators(5, 2)
    assert "".join(poly_to_text(g, names="e") + "\n" for g in gens) == stored
    report = nchilb.presentation.presentation_report(2, 4)
    assert report.verdicts == {"chern_basis": True, "poincare_match": True}


# ---------------------------------------------------------------------------
# the Buchberger engine against the tuple-exponent oracle and sympy

LIMIT = 2**31  # exponents and weighted degrees of packed monomials stay below


@st.composite
def exponents(draw, n, total=3):
    """An exponent vector in n variables of total degree at most `total`."""
    exp = []
    for _ in range(n):
        exp.append(draw(st.integers(0, total - sum(exp))))
    return tuple(draw(st.permutations(exp)))


@st.composite
def ideals(draw):
    """Generators in 1-4 variables with weights 1-3 and rational coefficients.

    Mostly not weighted-homogeneous; about one in eight also has a nonzero
    constant among its generators, which makes the unit ideal.  Terms have
    total degree at most 3: with degree 5, some draws of four generators in
    four variables take Buchberger over 30 s of coefficient growth.
    """
    n = draw(st.integers(1, 4))
    weights = tuple(draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)))
    gens = []
    for _ in range(draw(st.integers(1, 4))):
        exps = draw(st.lists(exponents(n), min_size=1, max_size=3, unique=True))
        coefs = draw(st.lists(fractions, min_size=len(exps), max_size=len(exps)))
        gens.append(SparsePoly(n, dict(zip(exps, coefs))))
    if draw(st.integers(0, 7)) == 0:
        gens.append(SparsePoly.const(n, draw(fractions)))
    return gens, weights


@settings(max_examples=150, deadline=None)
@given(ideals())
def test_buchberger_equals_tuple_oracle(case):
    gens, weights = case
    with time_limit():
        polys = buchberger(gens, weights).polys
    # the oracle under its own limit, so that a slow oracle draw does not fail the engine
    with time_limit(60):
        assert polys == oracle_buchberger(gens, weights)


@settings(max_examples=100, deadline=None)
@given(ideals(), st.data())
def test_normal_form_equals_tuple_oracle(case, data):
    gens, weights = case
    with time_limit():
        gb = buchberger(gens, weights)
    n = gb.nvars
    # the staircase walk shares the head lookup's memo: some examples warm it first
    if data.draw(st.booleans()):
        gb.hilbert_function(data.draw(st.integers(0, 8)))
    # several polynomials against one basis, so later ones meet a warm memo
    for _ in range(3):
        exps = data.draw(st.lists(st.tuples(*[st.integers(0, 5)] * n), max_size=6, unique=True))
        coefs = data.draw(st.lists(fractions, min_size=len(exps), max_size=len(exps)))
        f = SparsePoly(n, dict(zip(exps, coefs)))
        # a multiple of a generator is in the ideal and reduces to zero
        g = f * gens[0]
        for p in (f, g, f + g):
            assert normal_form(p, gb) == oracle_normal_form(p, gb.polys, weights)
        assert gb.contains(g)


@st.composite
def division_cases(draw):
    """Generators, weights, a polynomial to divide, and whether to keep only its terms no head divides."""
    gens, weights = draw(ideals())
    n = gens[0].nvars
    exps = draw(st.lists(st.tuples(*[st.integers(0, 4)] * n), max_size=6, unique=True))
    coefs = draw(st.lists(fractions, min_size=len(exps), max_size=len(exps)))
    return gens, weights, SparsePoly(n, dict(zip(exps, coefs))), draw(st.booleans())


@settings(max_examples=150, deadline=None)
@given(division_cases())
# x^2 + x reduces to x + y by x^2 - y: as many terms as the input, not the same ones
@example(
    (
        [SparsePoly(2, {(2, 0): 1, (0, 1): -1})],
        (1, 1),
        SparsePoly(2, {(2, 0): 1, (1, 0): 1}),
        False,
    )
)
def test_normal_form_returns_an_irreducible_input_as_it_is(case):
    gens, weights, p, irreducible_only = case
    with time_limit():
        gb = buchberger(gens, weights)
    leads = [max(g.terms, key=lambda exp: oracle_order_key(exp, weights)) for g in gb.polys]

    def irreducible(exp):
        return not any(oracle_divides(lead, exp) for lead in leads)

    if irreducible_only:
        p = SparsePoly(p.nvars, {exp: c for exp, c in p.terms.items() if irreducible(exp)})
    form = normal_form(p, gb)
    assert (form is p) == all(map(irreducible, p.terms))
    assert form == oracle_normal_form(p, gb.polys, weights)


# head coefficients with pairwise partial gcds: reducing 10 by 6 scales by 3,
# 15 by 6 by 2, 6 by 10 by 5; and each divides a multiple of itself
PLANTED = st.sampled_from([6, 10, 15, -6, -10, -15, 30])


@st.composite
def planted_ideals(draw):
    """Generators with rational coefficients whose leading ones are often 6, 10 or 15."""
    n = draw(st.integers(1, 3))
    weights = tuple(draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)))
    gens = []
    for _ in range(draw(st.integers(1, 4))):
        exps = draw(st.lists(exponents(n), min_size=1, max_size=3, unique=True))
        coefs = draw(st.lists(PLANTED | fractions, min_size=len(exps), max_size=len(exps)))
        gens.append(SparsePoly(n, dict(zip(exps, coefs))))
    return gens, weights


@settings(max_examples=150, deadline=None)
@given(planted_ideals(), st.data())
def test_pseudo_division_equals_tuple_oracle(case, data):
    gens, weights = case
    with time_limit():
        gb = buchberger(gens, weights)
    with time_limit(60):
        assert gb.polys == oracle_buchberger(gens, weights)
    for p in gb.polys:
        assert all(type(c) is QQ for c in p.terms.values())
        assert p.terms[max(p.terms, key=lambda exp: oracle_order_key(exp, weights))] == 1
    n = gb.nvars
    for _ in range(3):
        exps = data.draw(st.lists(st.tuples(*[st.integers(0, 4)] * n), max_size=6, unique=True))
        coefs = data.draw(st.lists(PLANTED | fractions, min_size=len(exps), max_size=len(exps)))
        f = SparsePoly(n, dict(zip(exps, coefs)))
        for p in (f, f * gens[0] + f):
            assert normal_form(p, gb) == oracle_normal_form(p, gb.polys, weights)


@st.composite
def join_cases(draw):
    """Member heads, the active ones in some order, and a new head, as packed keys.

    Exponents are small, so equal lcms are common, and so are coprime pairs
    whose lcm equals that of a pair that is not coprime.
    """
    n = draw(st.integers(1, 3))
    weights = tuple(draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)))
    order = _Order(weights, n)
    vector = st.tuples(*[st.integers(0, 2)] * n)
    leads = [order.key(exp) for exp in draw(st.lists(vector, min_size=1, max_size=9))]
    active = draw(st.permutations(range(len(leads))))[: draw(st.integers(0, len(leads)))]
    return order, leads, active, draw(vector)


def _joined(case):
    """`_join` of the new head of a `join_cases` case as the last member: (pairs, next active)."""
    order, leads, active, exp = case
    members = leads + [order.key(exp)]
    return _join(order, members, [order.fields(key) for key in members], active, len(leads))


XY = _Order((1, 1), 2)
# y is coprime to the new head x and comes first; xy has the same lcm
COPRIME_FIRST = (XY, [XY.key((0, 1)), XY.key((1, 1))], [0, 1], (1, 0))


@settings(max_examples=400, deadline=None)
@given(join_cases())
@example(COPRIME_FIRST)
def test_new_pairs_equal_quadratic_thinning(case):
    order, leads, active, exp = case
    lcm = lambda g: order.key(tuple(map(max, order.exp(leads[g]), exp)))
    new = [(lcm(g), g) for g in active]
    divides = lambda small, big: oracle_divides(order.exp(small), order.exp(big))
    expected = oracle_new_pairs(new, order.key(exp), leads, divides)
    assert _joined(case)[0] == expected


@settings(max_examples=400, deadline=None)
@given(join_cases())
@example(COPRIME_FIRST)
def test_join_keeps_the_members_the_new_head_does_not_divide(case):
    order, leads, active, exp = case
    expected = [g for g in active if not oracle_divides(exp, order.exp(leads[g]))]
    assert _joined(case)[1] == expected + [len(leads)]


def _reduce_calls(monkeypatch, gens, weights):
    """`_reduce` calls of `buchberger(gens, weights)`, then with its `polys` read, and the basis size."""
    calls = 0
    original = nchilb.groebner._reduce

    def counted(work, heads):
        nonlocal calls
        calls += 1
        return original(work, heads)

    monkeypatch.setattr(nchilb.groebner, "_reduce", counted)
    with time_limit(60):
        gb = buchberger(gens, weights)
        run = calls
        members = len(gb.polys)
    return run, calls, members


# `_reduce` calls of `buchberger` on the stored e-generators with the
# `polys` of its basis read: one per input, one per pair that no criterion
# drops, one per member of the minimal basis.  A dropped or weakened
# criterion leaves the bases correct; only these counts show it.
REDUCE_CALLS = {(2, 6): 349, (3, 5): 295, (5, 4): 132, (3, 4): 59, (2, 5): 108, (4, 4): 91}


@pytest.mark.parametrize("m,d", sorted(REDUCE_CALLS))
def test_buchberger_pair_work_on_stored_inputs(monkeypatch, m, d):
    with open(os.path.join(INPUTS, f"m{m}_d{d}.txt")) as fh:
        gens = [poly_from_text(line, nvars=d) for line in fh.read().splitlines()]
    run, total, members = _reduce_calls(monkeypatch, gens, e_weights(d))
    assert total == REDUCE_CALLS[m, d]
    # no member is interreduced before `polys` is read
    assert run == REDUCE_CALLS[m, d] - members


def test_buchberger_pair_work_on_random_ideals(monkeypatch):
    # On the stored inputs a popped pair is never shadowed by the member
    # that joined right after it was queued, nor by the last one only; on
    # these small non-homogeneous ideals it is, so the counts also pin the
    # ends of the criterion's scan and both of its lcm conditions.
    rng = random.Random(0)
    counts = []
    for _ in range(10):
        weights = tuple(rng.randint(1, 2) for _ in range(3))
        gens = [random_poly(rng, 3, max_deg=3, nterms=3, coef_bound=3) for _ in range(3)]
        run, total, members = _reduce_calls(monkeypatch, gens, weights)
        assert run == total - members
        counts.append(total)
        assert buchberger(gens, weights).polys == oracle_buchberger(gens, weights)
    assert counts == [24, 29, 72, 44, 15, 11, 76, 6, 23, 47]


def _input_reductions(gens, weights):
    """Which `_reduce` calls of `buchberger(gens, weights)` reduce an input, in call order."""
    inputs, calls = [], []
    integral, reduce = nchilb.groebner._integral, nchilb.groebner._reduce

    def recorded(poly, order):
        work, den = integral(poly, order)
        inputs.append(work)
        return work, den

    def counted(work, heads):
        calls.append(any(work is terms for terms in inputs))
        return reduce(work, heads)

    with pytest.MonkeyPatch.context() as patch, time_limit(60):
        patch.setattr(nchilb.groebner, "_integral", recorded)
        patch.setattr(nchilb.groebner, "_reduce", counted)
        buchberger(gens, weights)
    return calls


@pytest.mark.parametrize("m,d", sorted(REDUCE_CALLS))
def test_no_input_is_reduced_after_a_pair_on_stored_inputs(m, d):
    # An input that joins among the members of higher-degree pairs lets
    # their coefficients swell: at (3,7) to 1,133 bits against 42.
    with open(os.path.join(INPUTS, f"m{m}_d{d}.txt")) as fh:
        gens = [poly_from_text(line, nvars=d) for line in fh.read().splitlines()]
    calls = _input_reductions(gens, e_weights(d))
    assert calls == [True] * len(gens) + [False] * (len(calls) - len(gens))


@settings(max_examples=60, deadline=None)
@given(ideals())
def test_no_input_is_reduced_after_a_pair(case):
    gens, weights = case
    calls = _input_reductions(gens, weights)
    inputs = sum(not g.is_zero() for g in gens)
    assert calls == [True] * inputs + [False] * (len(calls) - inputs)


@st.composite
def exponent_pairs(draw):
    """Weights and two exponent vectors of weighted degree below 2^31, often at that edge.

    The second vector is often the first one raised in one variable, or the
    first one itself.
    """
    n = draw(st.integers(1, 4))
    weights = tuple(draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)))

    def vector():
        exp = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        if draw(st.booleans()):
            # one exponent as large as the weighted degree allows, or just below that
            i = draw(st.integers(0, n - 1))
            room = LIMIT - 1 - sum(w * a for j, (w, a) in enumerate(zip(weights, exp)) if j != i)
            exp[i] = room // weights[i] - draw(st.integers(0, 2))
        return tuple(exp)

    a = vector()
    kind = draw(st.sampled_from(["other", "raised", "same"]))
    if kind == "other":
        b = vector()
    elif kind == "raised":
        i = draw(st.integers(0, n - 1))
        b = a[:i] + (a[i] + 1,) + a[i + 1 :]
    else:
        b = a
    return weights, a, b


def _divides(order, small, big):
    """Does the one head `small` divide `big`, as the engine's head lookup answers it?"""
    heads = _Heads(order)
    heads.add(small, 1, [])
    return heads.divisor(big) == 0


@settings(max_examples=500, deadline=None)
@given(exponent_pairs())
def test_packed_order_and_divisibility_equal_tuple_oracle(case):
    weights, a, b = case
    order = _Order(weights, len(weights))
    wdeg = lambda exp: sum(w * x for w, x in zip(weights, exp))
    if wdeg(b) >= LIMIT:
        with pytest.raises(OverflowError):
            order.key(b)
        return
    ka, kb = order.key(a), order.key(b)
    assert order.exp(ka) == a and order.exp(kb) == b
    assert (ka < kb) == (oracle_order_key(a, weights) < oracle_order_key(b, weights))
    assert (ka == kb) == (a == b)
    assert _divides(order, ka, kb) == oracle_divides(a, b)
    assert _divides(order, kb, ka) == oracle_divides(b, a)
    product = tuple(x + y for x, y in zip(a, b))
    if wdeg(product) < LIMIT:
        assert order.key(product) == ka + kb
    lcm = tuple(map(max, a, b))
    if wdeg(lcm) < LIMIT:
        assert order.lcms(order.fields(ka), [order.fields(kb)]) == [order.key(lcm)]
    else:
        with pytest.raises(OverflowError, match=str(wdeg(lcm))):
            order.lcms(order.fields(ka), [order.fields(kb)])


def _near_limit(draw, weights, top):
    """An exponent vector, often with one exponent that brings its weighted degree near top."""
    n = len(weights)
    exp = draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))
    if draw(st.booleans()):
        i = draw(st.integers(0, n - 1))
        room = top - sum(w * a for j, (w, a) in enumerate(zip(weights, exp)) if j != i)
        exp[i] = max(room // weights[i] - draw(st.integers(0, 2)), 0)
    return tuple(exp)


@st.composite
def key_cases(draw):
    """Weights 1-6 and two exponent vectors in 1-6 variables, often at or just past the limit."""
    n = draw(st.integers(1, 6))
    weights = tuple(draw(st.lists(st.integers(1, 6), min_size=n, max_size=n)))
    return weights, _near_limit(draw, weights, LIMIT + 1), _near_limit(draw, weights, LIMIT + 1)


def _raised(call):
    """The text of the OverflowError that call() raises."""
    with pytest.raises(OverflowError) as info:
        call()
    return str(info.value)


@settings(max_examples=500, deadline=None)
@given(key_cases())
@example(((1,), (LIMIT,), (LIMIT - 1,)))
@example(((2, 1), (0, LIMIT), (1, LIMIT - 2)))
@example(((1, 1, 1, 1, 1, 1), (0, 0, 0, 0, 0, LIMIT - 1), (LIMIT - 1, 0, 0, 0, 0, 0)))
def test_order_key_equals_struct_formula(case):
    weights, a, b = case
    order = _Order(weights, len(weights))
    keys = []
    for exp in (a, b):
        if sum(w * x for w, x in zip(weights, exp)) >= LIMIT:
            expected = _raised(lambda: oracle_packed_key(exp, weights))
            assert _raised(lambda: order.key(exp)) == expected
        else:
            keys.append((order.key(exp), exp))
            assert keys[-1][0] == oracle_packed_key(exp, weights)
    if len(keys) == 2:
        (ka, a), (kb, b) = keys
        assert (ka < kb) == (oracle_order_key(a, weights) < oracle_order_key(b, weights))
        assert (ka == kb) == (a == b)


@st.composite
def lcm_cases(draw):
    """Weights, one exponent vector and 0-5 others, each of weighted degree below 2^31, often near it."""
    n = draw(st.integers(1, 4))
    weights = tuple(draw(st.lists(st.integers(1, 6), min_size=n, max_size=n)))
    others = [_near_limit(draw, weights, LIMIT - 1) for _ in range(draw(st.integers(0, 5)))]
    return weights, _near_limit(draw, weights, LIMIT - 1), others


@settings(max_examples=500, deadline=None)
@given(lcm_cases())
def test_lcms_equal_tuple_lcms(case):
    weights, a, others = case
    order = _Order(weights, len(weights))
    fields = lambda exp: order.fields(order.key(exp))
    lcms = [tuple(map(max, a, b)) for b in others]
    call = lambda: order.lcms(fields(a), map(fields, others))
    over = [l for l in lcms if sum(w * x for w, x in zip(weights, l)) >= LIMIT]
    if over:
        # the first lcm past the limit raises, with the text of the key's own refusal
        assert _raised(call) == _raised(lambda: oracle_packed_key(over[0], weights))
        return
    keys = call()
    assert keys == [oracle_packed_key(l, weights) for l in lcms]
    for (k1, l1), (k2, l2) in itertools.combinations(zip(keys, lcms), 2):
        assert (k1 < k2) == (oracle_order_key(l1, weights) < oracle_order_key(l2, weights))


@st.composite
def divisor_cases(draw):
    """Weights 1-6, heads in 1-4 variables added in two rounds, and monomials to look up.

    Exponents are small, so a monomial often has several dividing heads,
    and a miss after the first round often has a divisor in the second.
    """
    n = draw(st.integers(1, 4))
    weights = tuple(draw(st.lists(st.integers(1, 6), min_size=n, max_size=n)))
    vector = st.tuples(*[st.integers(0, 3)] * n)
    rounds = [draw(st.lists(vector, max_size=6)), draw(st.lists(vector, min_size=1, max_size=6))]
    return weights, rounds, draw(st.lists(vector, min_size=1, max_size=8))


@settings(max_examples=300, deadline=None)
@given(divisor_cases())
def test_head_lookup_returns_the_first_dividing_head(case):
    weights, rounds, monomials = case
    order = _Order(weights, len(weights))
    heads = _Heads(order)
    added = []
    for batch in rounds:
        for exp in batch:
            heads.add(order.key(exp), 1, [])
            added.append(exp)
        # every lookup twice: the second answers from the memo the first wrote,
        # and after the next round the memo must still give the first divisor
        for exp in monomials:
            first = next((i for i, head in enumerate(added) if oracle_divides(head, exp)), None)
            assert heads.divisor(order.key(exp)) == first
            assert heads.divisor(order.key(exp)) == first


SYMPY_GRID = [(2, 3), (2, 4), (3, 3), (4, 3)]


@pytest.mark.parametrize("m,d", SYMPY_GRID)
def test_kernel_ideal_equals_sympy_groebner_ideal(m, d):
    # ideal equality does not depend on the monomial order of either basis
    gens = kernel_ideal_generators(d, m)
    gb = buchberger(gens, e_weights(d))
    symbols = sympy.symbols(f"e1:{d + 1}")

    def to_sympy(p):
        return sympy.Poly.from_dict(
            {exp: sympy.Rational(c.numerator, c.denominator) for exp, c in p.terms.items()},
            *symbols,
        ).as_expr()

    theirs = sympy.groebner([to_sympy(g) for g in gens], *symbols, order="grevlex")
    for p in gb.polys:
        assert theirs.reduce(to_sympy(p))[1] == 0
    for q in theirs.exprs:
        terms = sympy.Poly(q, *symbols).terms()
        poly = SparsePoly(d, {exp: Fraction(int(c.p), int(c.q)) for exp, c in terms})
        assert gb.contains(poly)


@st.composite
def head_sets(draw):
    """Monomial heads in 0-4 variables with positive weights, and their basis.

    Often every variable gets a pure power (a finite quotient); sometimes
    the heads include 1 (the unit ideal).  There is at least one head, as
    buchberger needs a nonzero generator.  The basis is the reduced one
    from buchberger; the heads are returned as drawn, redundant ones
    included, and span the same head ideal.
    """
    n = draw(st.integers(0, 4))
    weights = tuple(draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)))
    heads = draw(st.lists(st.tuples(*[st.integers(0, 3)] * n), min_size=1, max_size=5))
    if draw(st.booleans()):
        for i in range(n):
            heads.append(tuple(draw(st.integers(1, 4)) if j == i else 0 for j in range(n)))
    if draw(st.integers(0, 9)) == 0:
        heads.append((0,) * n)
    return _monomial_ideal(weights, heads)


def _monomial_ideal(weights, heads):
    """A head_sets case: the reduced basis of the monomials heads, and heads."""
    n = len(weights)
    return buchberger([SparsePoly.monomial(n, h) for h in heads], weights), heads


@settings(max_examples=200, deadline=None)
@given(head_sets(), st.integers(0, 12))
# the unit ideal: 1 lies in the head ideal, and the walk yields nothing
@example(_monomial_ideal((1, 2), [(1, 0), (0, 0)]), 4)
# infinite quotients: read at degree 0 only, and with x_2 too heavy to raise
@example(_monomial_ideal((1, 1), [(2, 0)]), 0)
@example(_monomial_ideal((1, 5), [(3, 0)]), 4)
# three heads with exponent 1 in x_2, so the walk tests them from one
# bucket, in ascending key order, where only the last one divides x_1^2 x_2
@example(_monomial_ideal((1, 1, 1), [(0, 1, 2), (1, 1, 1), (2, 1, 0), (4, 0, 0), (0, 2, 0), (0, 0, 5)]), 12)
def test_quotient_queries_equal_exhaustive_walks(case, max_deg):
    gb, heads = case
    weights = gb.weights
    # a walk that misses a divisor of 1 never ends; stop it before it fills memory
    with time_limit(2):
        assert gb.hilbert_function(max_deg) == oracle_hilbert_function(heads, weights, max_deg)
        finite = oracle_is_finite_dimensional(heads, gb.nvars)
        assert gb.is_finite_dimensional() == finite
        if finite:
            standard = oracle_standard_monomials(heads, weights)
            assert gb.standard_monomials() == standard
            assert gb.quotient_dimension() == len(standard)
        else:
            with pytest.raises(ValueError):
                gb.standard_monomials()
            with pytest.raises(ValueError):
                gb.quotient_dimension()


# ---------------------------------------------------------------------------
# the searches of the presentation layer

SUBSET_GRID = [(2, 3), (2, 4), (3, 3), (4, 3)]


@pytest.mark.parametrize("m,d", SUBSET_GRID)
def test_minimal_subset_equals_restart_loop(m, d):
    gens = kernel_ideal_generators(d, m)
    subset = minimal_generator_subset(gens, e_weights(d))
    assert subset == oracle_minimal_generator_subset(gens, e_weights(d))


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(SUBSET_GRID), st.data())
def test_minimal_subset_equals_restart_loop_in_any_order(md, data):
    m, d = md
    gens = data.draw(st.permutations(kernel_ideal_generators(d, m)))
    subset = minimal_generator_subset(gens, e_weights(d))
    assert subset == oracle_minimal_generator_subset(gens, e_weights(d))


@pytest.mark.parametrize("m,d", SUBSET_GRID)
def test_minimal_subset_runs_one_basis_per_degree(monkeypatch, m, d):
    gens = kernel_ideal_generators(d, m)
    weights = e_weights(d)
    calls = []
    for name in ("until", "basis", "push_input"):
        original = getattr(_Run, name)

        def counted(run, *args, name=name, original=original):
            calls.append((name, run, args))
            return original(run, *args)

        monkeypatch.setattr(_Run, name, counted)
    subset = minimal_generator_subset(gens, weights)
    degrees = sorted({g.weighted_degree(weights) for g in gens})
    # one run, which stops at each degree block and builds one basis there
    assert len({id(run) for _, run, _ in calls}) == 1
    assert [args for name, _, args in calls if name == "until"] == [(k,) for k in degrees]
    assert [name for name, _, _ in calls if name != "push_input"] == ["until", "basis"] * len(degrees)
    # and takes in each generator that a block keeps, once
    assert sum(name == "push_input" for name, _, _ in calls) == len(subset)


def _monomials_of_degree(weights, degree):
    ranges = [range(degree // w + 1) for w in weights]
    return [
        exp
        for exp in itertools.product(*ranges)
        if sum(w * a for w, a in zip(weights, exp)) == degree
    ]


@st.composite
def homogeneous_generators(draw):
    """Weights and weighted-homogeneous generators in 2-3 variables with planted redundancy.

    Planted: a monomial multiple of an earlier generator, a rational
    combination of generators of one degree, and a duplicate.
    """
    nvars = draw(st.integers(2, 3))
    weights = tuple(draw(st.lists(st.integers(1, 3), min_size=nvars, max_size=nvars)))
    degrees = [k for k in range(1, 7) if _monomials_of_degree(weights, k)]
    gens = []
    for _ in range(draw(st.integers(1, 4))):
        monomials = _monomials_of_degree(weights, draw(st.sampled_from(degrees)))
        exps = draw(st.lists(st.sampled_from(monomials), min_size=1, max_size=3, unique=True))
        coefs = draw(st.lists(fractions, min_size=len(exps), max_size=len(exps)))
        gens.append(SparsePoly(nvars, dict(zip(exps, coefs))))
    for kind in draw(st.lists(st.sampled_from(["multiple", "combination", "duplicate"]), max_size=3)):
        g = draw(st.sampled_from(gens))
        if kind == "multiple":
            shift = draw(st.tuples(*[st.integers(0, 1)] * nvars))
            gens.append(SparsePoly.monomial(nvars, shift) * g)
        elif kind == "combination":
            same = [h for h in gens if h.weighted_degree(weights) == g.weighted_degree(weights)]
            combination = draw(fractions) * g + draw(fractions) * draw(st.sampled_from(same))
            if not combination.is_zero():
                gens.append(combination)
        else:
            gens.append(g)
    return weights, draw(st.permutations(gens))


@settings(max_examples=60, deadline=None)
@given(homogeneous_generators())
def test_minimal_subset_of_planted_redundancy_equals_restart_loop(case):
    weights, gens = case
    subset = minimal_generator_subset(gens, weights)
    assert subset == oracle_minimal_generator_subset(gens, weights)


@settings(max_examples=100, deadline=None)
@given(homogeneous_generators())
def test_truncated_basis_gives_the_normal_forms_up_to_its_degree(case):
    weights, gens = case
    with time_limit(20):
        full = buchberger(gens, weights)
        order = full._order
        run = _Run(order)
        # every degree, so that a pair exactly at the stopping degree is met
        for k in range(9):
            for g in gens:
                if g.weighted_degree(weights) == k:
                    run.push_input(_integral(g, order)[0])
            run.until(k)
            truncated = GroebnerBasis(order, run.basis())
            # the members of the reduced basis up to k, no more
            low = tuple(p for p in full.polys if p.weighted_degree(weights) <= k)
            assert truncated.polys == low
            for degree in range(k + 1):
                for exp in _monomials_of_degree(weights, degree):
                    x = SparsePoly.monomial(len(weights), exp)
                    assert normal_form(x, truncated) == normal_form(x, full)


def _run_in_stages(order, weights, stages):
    """The basis of one `_Run` that takes each stage's generators up to its degree, then stops there."""
    run = _Run(order)
    for gens, max_deg in stages:
        for g in gens:
            if g.weighted_degree(weights) <= max_deg:
                run.push_input(_integral(g, order)[0])
        run.until(max_deg)
    return GroebnerBasis(order, run.basis()).polys


@settings(max_examples=100, deadline=None)
@given(homogeneous_generators(), st.data())
def test_resumed_run_equals_run_from_scratch(case, data):
    weights, gens = case
    split = data.draw(st.integers(1, len(gens)))
    first, later = gens[:split], gens[split:]
    order = _Order(tuple(weights), len(weights))
    with time_limit(20):
        for low in range(7):
            # the run stopped at low stands for first's generators up to low
            kept = [g for g in first if g.weighted_degree(weights) <= low]
            for high in range(low, low + 3):
                resumed = _run_in_stages(order, weights, [(first, low), (later, high)])
                assert resumed == _run_in_stages(order, weights, [(kept + later, high)])


@settings(max_examples=60, deadline=None)
@given(st.one_of(ideals(), homogeneous_generators().map(lambda case: (case[1], case[0]))))
def test_polys_built_on_first_read_are_the_packed_members(case):
    gens, weights = case
    with time_limit():
        gb = buchberger(gens, weights)
    packed, exp = gb._heads, gb._order.exp
    assert len(gb.polys) == len(packed.leads)
    for p, lead, coef, tail in zip(gb.polys, packed.leads, packed.coefs, packed.tails):
        # each packed member is primitive with a positive head ..
        assert coef > 0 and math.gcd(coef, *(c for _, c in tail)) == 1
        # .. and its poly is that member made monic over QQ
        member = {exp(lead): coef} | {exp(lead + delta): c for delta, c in tail}
        assert p.terms == {e: QQ(c, coef) for e, c in member.items()}
        assert all(type(c) is QQ for c in p.terms.values())
        assert max(p.terms, key=lambda e: oracle_order_key(e, weights)) == exp(lead)


@st.composite
def finite_and_infinite_ideals(draw):
    """`ideals`, half of them made finite-dimensional by a pure power of every variable."""
    gens, weights = draw(ideals())
    if draw(st.booleans()):
        n = len(weights)
        for i in range(n):
            exp = [0] * n
            exp[i] = draw(st.integers(1, 3))
            gens.append(SparsePoly.monomial(n, tuple(exp)))
    return gens, weights


@settings(max_examples=100, deadline=None)
@given(finite_and_infinite_ideals(), st.data())
def test_monomial_normal_form_is_its_argument_exactly_when_irreducible(case, data):
    gens, weights = case
    with time_limit():
        gb = buchberger(gens, weights)
        # a second basis, so that the one under test keeps its tails as the run left them
        reduced = buchberger(gens, weights).polys
    n = gb.nvars
    # the staircase walk writes the misses of the standard monomials into the head memo
    if data.draw(st.booleans()):
        gb.hilbert_function(data.draw(st.integers(0, 8)))
    calls = 0
    original = nchilb.groebner._reduce

    def counted(work, heads):
        nonlocal calls
        calls += 1
        return original(work, heads)

    for _ in range(4):
        exp = data.draw(st.tuples(*[st.integers(0, 5)] * n))
        p = SparsePoly(n, {exp: data.draw(fractions)})
        expected = oracle_normal_form(p, reduced, weights)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(nchilb.groebner, "_reduce", counted)
            before = calls
            form = normal_form(p, gb)
        if expected == p:
            assert form is p and calls == before
        else:
            assert form is not p and form == expected


@settings(max_examples=60, deadline=None)
@given(finite_and_infinite_ideals())
def test_standard_monomials_are_a_new_list_each_time(case):
    gens, weights = case
    with time_limit():
        gb = buchberger(gens, weights)
        if not gb.is_finite_dimensional():
            for _ in range(2):
                with pytest.raises(ValueError):
                    gb.standard_monomials()
            return
        first, second = gb.standard_monomials(), gb.standard_monomials()
    heads = [_oracle_leading(p, weights) for p in gb.polys]
    assert first == second == oracle_standard_monomials(heads, weights)
    assert first is not second
    first.append((0,) * gb.nvars)
    first.reverse()
    assert gb.standard_monomials() == second
    assert gb.quotient_dimension() == len(second)


def _or_refusal(query):
    """query(), or "ValueError" when it raises one."""
    try:
        return query()
    except ValueError:
        return "ValueError"


def _quotient_queries(probes, max_deg):
    """Each quotient query of a basis, by name, as a function of the basis."""
    return {
        "normal_form": lambda gb: [normal_form(p, gb) for p in probes],
        "contains": lambda gb: [gb.contains(p) for p in probes],
        "hilbert_function": lambda gb: gb.hilbert_function(max_deg),
        "standard_monomials": lambda gb: _or_refusal(gb.standard_monomials),
        "quotient_dimension": lambda gb: _or_refusal(gb.quotient_dimension),
    }


@settings(max_examples=100, deadline=None)
@given(finite_and_infinite_ideals(), st.data())
def test_queries_answer_the_same_before_and_after_polys_is_read(case, data):
    gens, weights = case
    n = len(weights)
    probes = []
    for _ in range(2):
        exps = data.draw(st.lists(st.tuples(*[st.integers(0, 4)] * n), max_size=5, unique=True))
        coefs = data.draw(st.lists(fractions, min_size=len(exps), max_size=len(exps)))
        f = SparsePoly(n, dict(zip(exps, coefs)))
        probes += [f, f * gens[0]]
    max_deg = data.draw(st.integers(0, 8))
    queries = _quotient_queries(probes, max_deg)
    names = data.draw(st.permutations(sorted(queries)))
    with time_limit():
        # the minimal basis first, then its reduced members read, then the queries again
        lazy = buchberger(gens, weights)
        before = {name: queries[name](lazy) for name in names}
        polys = lazy.polys
        after = {name: queries[name](lazy) for name in reversed(names)}
        # the members read first; equal weights as a list share the order
        eager = buchberger(gens, list(weights))
        assert eager._order is lazy._order
        assert eager.polys == polys
        first_read = {name: queries[name](eager) for name in names}
    with time_limit(60):
        reduced = oracle_buchberger(gens, weights)
    assert polys == reduced
    heads = [_oracle_leading(p, weights) for p in reduced]
    standard = _or_refusal(lambda: oracle_standard_monomials(heads, weights))
    expected = {
        "normal_form": [oracle_normal_form(p, reduced, weights) for p in probes],
        "contains": [oracle_normal_form(p, reduced, weights).is_zero() for p in probes],
        "hilbert_function": oracle_hilbert_function(heads, weights, max_deg),
        "standard_monomials": standard,
        "quotient_dimension": standard if standard == "ValueError" else len(standard),
    }
    assert before == after == first_read == expected


@settings(max_examples=60, deadline=None)
@given(ideals(), st.data())
def test_refused_weights_still_raise_and_are_never_kept(case, data):
    gens, weights = case
    n = len(weights)
    bad = data.draw(
        st.one_of(
            st.lists(st.integers(1, 3), max_size=5).filter(lambda w: len(w) != n),
            st.lists(st.integers(-2, 3), min_size=n, max_size=n).filter(lambda w: min(w) <= 0),
        )
    )
    kept = nchilb.groebner._order.cache_info().currsize
    for _ in range(2):
        for given_as in (list, tuple):
            with pytest.raises(ValueError, match="weights must be positive"):
                buchberger(gens, given_as(bad))
            with pytest.raises(ValueError, match="weights must be positive"):
                minimal_generator_subset(gens, given_as(bad))
    assert nchilb.groebner._order.cache_info().currsize == kept


@pytest.mark.parametrize("m,d", [(m, d) for m in range(5) for d in range(1, 5)])
def test_kernel_generators_are_weighted_homogeneous(m, d):
    # minimal_generator_subset refuses generators that are not
    weights = e_weights(d)
    for g in kernel_ideal_generators(d, m):
        assert len({sum(w * a for w, a in zip(weights, exp)) for exp in g.terms}) == 1


@st.composite
def rational_rows(draw):
    """Sparse rational rows, with zero rows, repeated rows and combinations mixed in."""
    width = draw(st.integers(1, 5))
    entry = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)), fractions)
    rows = draw(st.lists(st.lists(entry, min_size=width, max_size=width), max_size=5))
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(["zero", "repeat", "combination"]))
        if kind == "zero" or not rows:
            extra = [Fraction(0)] * width
        elif kind == "repeat":
            extra = list(draw(st.sampled_from(rows)))
        else:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = draw(fractions), draw(fractions)
            extra = [s * x + t * y for x, y in zip(a, b)]
        rows.insert(draw(st.integers(0, len(rows))), extra)
    return rows


@settings(max_examples=200, deadline=None)
@given(rational_rows())
def test_linearly_independent_agrees_with_sympy_rank(rows):
    polys = [SparsePoly(1, {(j,): c for j, c in enumerate(row)}) for row in rows]
    matrix = sympy.Matrix([[sympy.Rational(c.numerator, c.denominator) for c in row] for row in rows])
    rank = matrix.rank() if rows else 0
    assert _linearly_independent(polys) == (rank == len(rows))


def _compose(g, images):
    """g with its variable i replaced by images[i]."""
    out = SparsePoly.zero(g.nvars)
    for exp, c in g.terms.items():
        term = SparsePoly(g.nvars, {(0,) * g.nvars: c})
        for image, a in zip(images, exp):
            term = term * image**a
        out = out + term
    return out


def test_chern_verdict_equals_oracle_off_the_staircase():
    # e_k -> e_k + c e_1 e_{k-1} is a graded automorphism, so the quotient
    # keeps its Hilbert function while its staircase moves away from the
    # B-tuple monomials: they stay a basis on most draws, which then needs
    # the non-unit rows, and fail to be one on some
    rng = random.Random(0)
    seen = set()
    for m, d in [(2, 3), (3, 3), (2, 4), (4, 3), (3, 4)]:
        gens = kernel_ideal_generators(d, m)
        e = [SparsePoly.variable(d, i) for i in range(d)]
        exps = {next(iter(chern_monomial(b, d).terms)) for b in enumerate_btuples(m, d, 1)}
        for _ in range(6):
            images = e[:1] + [e[k] + rng.randint(-2, 2) * e[0] * e[k - 1] for k in range(1, d)]
            gb = buchberger([_compose(g, images) for g in gens], e_weights(d))
            verdict = verify_chern_basis(m, d, gb)
            assert verdict == oracle_verify_chern_basis(m, d, gb)
            seen.add((verdict, not exps <= set(gb.standard_monomials())))
    assert {(True, True), (False, True)} <= seen


def _rejected_draws(seed, trials):
    """Draws (a1, a2, a3) with a1 a2 a3 = 0 in a run of `trials` screened trials."""
    rng = random.Random(seed)
    rejected = 0
    for _ in range(trials):
        while not math.prod(rng.randint(-100, 100) for _ in range(3)):
            rejected += 1
    return rejected


def test_local_multiplicity_equals_screening_loop():
    n = 5  # y, z, a1, a2, a3

    def v(i):
        return SparsePoly.variable(n, i)

    y, z, a1, a2, a3 = (v(i) for i in range(n))
    redrawn = [a1 * a2 * a3 * y**3 + z, z**2 + a1 * y]
    for polys in (_worked_example_pair(), redrawn):
        for seed in range(20):
            assert local_multiplicity(polys, trials=10, seed=seed) == oracle_local_multiplicity(
                polys, trials=10, seed=seed
            )
            assert trial_dimensions(polys, 10, seed) == oracle_trial_dimensions(polys, 10, seed)
    # a1 a2 a3 vanishes on some draws of these runs, so redraws are covered
    assert sum(_rejected_draws(seed, 10) for seed in range(20)) > 0


FOREST_GRID = [(m, d, n) for m in range(5) for d in range(6) for n in (1, 2)]


@pytest.mark.parametrize("m,d,n", FOREST_GRID)
def test_jtuples_equal_element_counts(m, d, n):
    for forest in enumerate_forests(m, d, n):
        assert forest_to_jtuple(forest) == jtuple_oracle(forest)


@pytest.mark.parametrize("m,d,n", FOREST_GRID)
def test_critical_pairs_equal_set_differences(m, d, n):
    for forest in enumerate_forests(m, d, n):
        assert critical_pairs(forest) == oracle_critical_pairs(forest)


@pytest.mark.parametrize("m", range(5))
def test_forests_in_order_equal_compositions_sorted(m):
    for n in (1, 2, 3):
        for d in range(6):
            assert enumerate_forests(m, d, n) == oracle_enumerate_forests(m, d, n)
    # trees are cached, so every forest shares its validated Tree objects
    first, again = enumerate_forests(m, 2, 2), enumerate_forests(m, 2, 2)
    assert all(a is b for f, g in zip(first, again) for a, b in zip(f.trees, g.trees))
