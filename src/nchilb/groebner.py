"""Buchberger engine over the rationals with weighted monomial orders.

The monomial order compares weighted degree first (weights are positive
integers, one per variable) and breaks ties by reverse lexicography: among
equal weighted degrees the monomial whose exponent vector has the later
last difference wins when that difference is negative.  With weights
(1,..,1) this is plain degrevlex.

Bases are reduced: monic, no head term divides another, every tail term
irreducible.  For a fixed generator set and weight vector the output is
deterministic, so reduced bases can be compared directly.
"""

import heapq
from dataclasses import dataclass, field

from .polynomial import SparsePoly
from .rationals import QQ

__all__ = [
    "GroebnerBasis",
    "buchberger",
    "normal_form",
    "ideal_equals",
]

_ZERO = QQ(0)


def _order_key(exp, weights):
    wdeg = 0
    for w, a in zip(weights, exp):
        wdeg += w * a
    return (wdeg, tuple(-a for a in reversed(exp)))


def _leading(poly, weights):
    return max(poly.terms, key=lambda exp: _order_key(exp, weights))


def _divides(small, big):
    return all(s <= b for s, b in zip(small, big))


def _monic(poly, weights):
    lead = _leading(poly, weights)
    coef = poly.terms[lead]
    if coef == 1:
        return poly
    inv = 1 / coef
    return SparsePoly._make(poly.nvars, {e: c * inv for e, c in poly.terms.items()})


def _reduce(poly, basis, leads, weights):
    """Full normal form of poly against (basis, leading exponents)."""
    remainder = {}
    work = dict(poly.terms)
    key = lambda exp: _order_key(exp, weights)
    while work:
        lead = max(work, key=key)
        coef = work.pop(lead)
        if not coef:
            continue
        for g, g_lead in zip(basis, leads):
            if _divides(g_lead, lead):
                shift = tuple(a - b for a, b in zip(lead, g_lead))
                for exp, c in g.terms.items():
                    if exp == g_lead:
                        continue
                    target = tuple(s + e for s, e in zip(shift, exp))
                    acc = work.get(target, _ZERO) - coef * c
                    if acc:
                        work[target] = acc
                    else:
                        work.pop(target, None)
                break
        else:
            remainder[lead] = coef
    return SparsePoly._make(poly.nvars, remainder)


def normal_form(poly, gb):
    """Remainder of poly on division by the basis; zero iff poly is in the ideal."""
    if poly.nvars != gb.nvars:
        raise ValueError(f"polynomial has {poly.nvars} variables, basis has {gb.nvars}")
    return _reduce(poly, gb.polys, gb._leads, gb.weights)


def _spoly(f, f_lead, g, g_lead, nvars):
    lcm = tuple(max(a, b) for a, b in zip(f_lead, g_lead))
    shift_f = tuple(l - a for l, a in zip(lcm, f_lead))
    shift_g = tuple(l - b for l, b in zip(lcm, g_lead))
    terms = {}
    for exp, c in f.terms.items():
        target = tuple(s + e for s, e in zip(shift_f, exp))
        terms[target] = terms.get(target, _ZERO) + c
    for exp, c in g.terms.items():
        target = tuple(s + e for s, e in zip(shift_g, exp))
        acc = terms.get(target, _ZERO) - c
        if acc:
            terms[target] = acc
        else:
            terms.pop(target, None)
    return SparsePoly._make(nvars, terms)


def buchberger(gens, weights):
    """Reduced basis of the ideal generated by gens, under the weighted order.

    Pair processing uses the classic elimination criteria (coprime heads,
    chain criterion) with the queue ordered by weighted degree of the pair
    lcm, so runs are reproducible.
    """
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        raise ValueError("no nonzero generators")
    nvars = gens[0].nvars
    weights = tuple(weights)
    if len(weights) != nvars or any(w <= 0 for w in weights):
        raise ValueError("weights must be positive, one per variable")
    if any(g.nvars != nvars for g in gens):
        raise ValueError("generators disagree on variable count")

    basis = []
    leads = []

    def wdeg(exp):
        return sum(w * a for w, a in zip(weights, exp))

    queue = []
    done = set()
    counter = 0

    def push_pairs(new_index):
        nonlocal counter
        for i in range(new_index):
            lcm = tuple(max(a, b) for a, b in zip(leads[i], leads[new_index]))
            heapq.heappush(queue, (wdeg(lcm), counter, i, new_index, lcm))
            counter += 1

    def add(poly):
        poly = _monic(poly, weights)
        basis.append(poly)
        leads.append(_leading(poly, weights))
        push_pairs(len(basis) - 1)

    for g in sorted(gens, key=lambda p: _order_key(_leading(p, weights), weights)):
        reduced = _reduce(g, basis, leads, weights)
        if not reduced.is_zero():
            add(reduced)

    while queue:
        _, _, i, j, lcm = heapq.heappop(queue)
        done.add((i, j))
        # coprime heads: the S-polynomial reduces to zero
        if all(a + b == l for a, b, l in zip(leads[i], leads[j], lcm)):
            continue
        # chain criterion
        skip = False
        for k in range(len(basis)):
            if k in (i, j) or not _divides(leads[k], lcm):
                continue
            if (min(i, k), max(i, k)) in done and (min(j, k), max(j, k)) in done:
                skip = True
                break
        if skip:
            continue
        s = _spoly(basis[i], leads[i], basis[j], leads[j], nvars)
        s = _reduce(s, basis, leads, weights)
        if not s.is_zero():
            add(s)

    # minimalize: drop members whose head is divisible by another head
    # (heads are pairwise distinct because additions are reduced first)
    keep = []
    for i, lead in enumerate(leads):
        if any(j != i and _divides(leads[j], lead) for j in range(len(leads))):
            continue
        keep.append(i)
    minimal = [basis[i] for i in keep]
    minimal_leads = [leads[i] for i in keep]

    # inter-reduce tails
    reduced = []
    for i, g in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1 :]
        other_leads = minimal_leads[:i] + minimal_leads[i + 1 :]
        reduced.append(_monic(_reduce(g, others, other_leads, weights), weights))
    order = sorted(
        range(len(reduced)),
        key=lambda i: _order_key(minimal_leads[i], weights),
    )
    return GroebnerBasis(nvars, weights, tuple(reduced[i] for i in order))


@dataclass(frozen=True)
class GroebnerBasis:
    """A reduced basis together with its weighted monomial order."""

    nvars: int
    weights: tuple
    polys: tuple
    _leads: tuple = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(
            self,
            "_leads",
            tuple(_leading(p, self.weights) for p in self.polys),
        )

    def normal_form(self, poly):
        return normal_form(poly, self)

    def contains(self, poly):
        return normal_form(poly, self).is_zero()

    def is_unit_ideal(self):
        return any(lead == (0,) * self.nvars for lead in self._leads)

    def _order_ideal(self, max_deg=None):
        """The monomials outside the head ideal, as (exponent, weighted degree).

        Depth first from 1, raising one variable at or after the last one
        raised, so each monomial is reached once.  A monomial in the head
        ideal is not expanded: its multiples lie in the ideal too.  With
        max_deg the walk stops at that weighted degree; without it the walk
        ends only when the quotient is finite-dimensional.
        """
        weights, leads, n = self.weights, self._leads, self.nvars
        stack = [((0,) * n, 0, 0)]  # exponent, weighted degree, first raisable variable
        while stack:
            exp, deg, first = stack.pop()
            if any(_divides(lead, exp) for lead in leads):
                continue
            yield exp, deg
            for i in range(first, n):
                raised = deg + weights[i]
                if max_deg is None or raised <= max_deg:
                    stack.append((exp[:i] + (exp[i] + 1,) + exp[i + 1 :], raised, i))

    def is_finite_dimensional(self):
        """Every variable has a pure-power head, or the ideal is the unit ideal."""
        powers = {i for lead in self._leads for i, a in enumerate(lead) if a and a == sum(lead)}
        return self.is_unit_ideal() or len(powers) == self.nvars

    def standard_monomials(self):
        """All monomials outside the head ideal; requires a finite quotient.

        Sorted by the monomial order, so grouping by weighted degree gives
        the Hilbert function directly.
        """
        if not self.is_finite_dimensional():
            raise ValueError("quotient is not finite-dimensional")
        key = lambda exp: _order_key(exp, self.weights)
        return sorted((exp for exp, _ in self._order_ideal()), key=key)

    def quotient_dimension(self):
        return len(self.standard_monomials())

    def hilbert_function(self, max_deg):
        """Dimensions of the weighted-degree components 0..max_deg of the quotient."""
        if max_deg < 0:
            raise ValueError(f"max_deg must be >= 0, got {max_deg}")
        counts = [0] * (max_deg + 1)
        for _, deg in self._order_ideal(max_deg):
            counts[deg] += 1
        return counts


def ideal_equals(a, b):
    """Two-sided membership check: every member of each basis reduces to zero in the other."""
    if a.nvars != b.nvars:
        return False
    return all(b.contains(p) for p in a.polys) and all(
        a.contains(p) for p in b.polys
    )
