"""Buchberger engine over the rationals with weighted monomial orders.

The monomial order compares weighted degree first (weights are positive
integers, one per variable) and breaks ties by reverse lexicography: among
equal weighted degrees the monomial whose exponent vector has the later
last difference wins when that difference is negative.  With weights
(1,..,1) this is plain degrevlex.

Inside the engine a monomial is one int.  Its exponents a_0..a_{n-1} are
packed into fields of FIELD_BITS = 32 bits, P = sum a_i 2^(32 i), and its
order key is K = wdeg 2^(32 n) - P.  The key is linear, K(ab) = K(a) + K(b),
so a product of monomials is a sum of keys, a quotient a difference, and
the weighted-degrevlex order is int order on keys.  The top bit of each
field is a guard that stays clear, so a divides b exactly when
((K(a) + G) - K(b)) & G == G, G being the guard bits: one subtraction and
one mask.  A field holds exponents below 2^31.  Weights are at least 1, so
no exponent exceeds its monomial's weighted degree, and every monomial the
engine makes lies below an input monomial or a pair lcm in the order;
packing those raises OverflowError for a weighted degree of 2^31 or more,
and so does `hilbert_function` for such a max_deg.

Division keeps the pending terms in a heap of keys, and the first head
that divides a key is memoised per key.  Pairs are queued by the weighted
degree of their lcm and thinned by the Gebauer-Moeller update when a
polynomial joins the basis.

Bases are reduced: monic, no head term divides another, every tail term
irreducible.  For a fixed generator set and weight vector the output is
deterministic, so reduced bases can be compared directly.
"""

import heapq
import itertools
from dataclasses import dataclass, field
from functools import cached_property

from .polynomial import SparsePoly
from .rationals import QQ

__all__ = [
    "GroebnerBasis",
    "buchberger",
    "normal_form",
    "ideal_equals",
]

FIELD_BITS = 32
_LIMIT = 1 << (FIELD_BITS - 1)  # exponents and weighted degrees stay below this
_FIELD = (1 << FIELD_BITS) - 1
_ONE = QQ(1)


class _Order:
    """Packed order keys for one weight vector."""

    def __init__(self, weights, nvars):
        if len(weights) != nvars or any(w <= 0 for w in weights):
            raise ValueError("weights must be positive, one per variable")
        self.weights = weights
        self.nvars = nvars
        self.top = 1 << (FIELD_BITS * nvars)
        self.guard = sum(_LIMIT << (FIELD_BITS * i) for i in range(nvars))
        # the key of each variable
        self.units = tuple(w * self.top - (1 << (FIELD_BITS * i)) for i, w in enumerate(weights))

    def key(self, exp):
        wdeg = packed = 0
        for i, (w, a) in enumerate(zip(self.weights, exp)):
            wdeg += w * a
            packed += a << (FIELD_BITS * i)
        if wdeg >= _LIMIT:
            raise OverflowError(
                f"weighted degree {wdeg} is too large: packed monomials need "
                f"weighted degree < 2**{FIELD_BITS - 1}"
            )
        return wdeg * self.top - packed

    def degree(self, key):
        # K = wdeg * top - P with 0 <= P < top
        return -(-key // self.top)

    def exp(self, key):
        packed = -key % self.top
        return tuple((packed >> (FIELD_BITS * i)) & _FIELD for i in range(self.nvars))

    def divides(self, small, big):
        return (small + self.guard - big) & self.guard == self.guard

    def keyed(self, poly):
        return {self.key(exp): coef for exp, coef in poly.terms.items()}


class _Heads:
    """Head keys and tails of a list of monic polynomials that only grows.

    A tail is the list of (key - head key, coefficient) over the other
    terms, so a multiple of the polynomial by the monomial with key s has
    the terms s + delta.  `divisor` memoises, per key, the index of the
    first head dividing it, or ~n when none of the first n heads does; a
    miss is rechecked against the heads added since, so the memo stays
    valid while the list grows.
    """

    def __init__(self, order):
        self.guard = order.guard
        self.leads = []
        self.guarded = []  # head key + guard bits
        self.tails = []
        self.memo = {}

    def add(self, lead, tail):
        self.leads.append(lead)
        self.guarded.append(lead + self.guard)
        self.tails.append(tail)

    def divisor(self, key):
        hit = self.memo.get(key, -1)
        if hit >= 0:
            return hit
        guard, guarded = self.guard, self.guarded
        for i in range(~hit, len(guarded)):
            if (guarded[i] - key) & guard == guard:
                self.memo[key] = i
                return i
        self.memo[key] = ~len(guarded)
        return None


def _reduce(work, heads):
    """Full normal form of {key: coefficient} against heads, in descending order.

    The pending keys sit in a max-heap.  A reduction step only adds keys
    below the one popped, so a popped key never comes back and each key is
    pushed once; a pending coefficient may cancel to zero and is then
    skipped when popped.  `work` is consumed.
    """
    heap = [-key for key in work]
    heapq.heapify(heap)
    tails = heads.tails
    remainder = []
    while heap:
        key = -heapq.heappop(heap)
        coef = work.pop(key)
        if not coef:
            continue
        i = heads.divisor(key)
        if i is None:
            remainder.append((key, coef))
            continue
        for delta, c in tails[i]:
            target = key + delta
            acc = work.get(target)
            if acc is None:
                work[target] = -coef * c
                heapq.heappush(heap, -target)
            else:
                work[target] = acc - coef * c
    return remainder


def _to_poly(terms, order):
    return SparsePoly._make(order.nvars, {order.exp(key): coef for key, coef in terms})


def normal_form(poly, gb):
    """Remainder of poly on division by the basis; zero iff poly is in the ideal."""
    if poly.nvars != gb.nvars:
        raise ValueError(f"polynomial has {poly.nvars} variables, basis has {gb.nvars}")
    return _to_poly(_reduce(gb._order.keyed(poly), gb._heads), gb._order)


def buchberger(gens, weights):
    """Reduced basis of the ideal generated by gens, under the weighted order.

    Pairs are queued by the weighted degree of their lcm, first in first
    out within a degree, so runs are reproducible.  The Gebauer-Moeller update thins them when a polynomial
    joins: of its new pairs it keeps one per minimal lcm and none with
    coprime heads, it drops the queued pairs that the new head shadows,
    and it leaves older polynomials whose heads the new head divides out
    of future pairs.
    """
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        raise ValueError("no nonzero generators")
    nvars = gens[0].nvars
    if any(g.nvars != nvars for g in gens):
        raise ValueError("generators disagree on variable count")
    order = _Order(tuple(weights), nvars)
    divides = order.divides
    heads = _Heads(order)
    leads, tails = heads.leads, heads.tails
    exps = []  # head exponents, for the lcms
    active = []  # members no later head divides
    queue = []  # (weighted degree of the lcm, serial number, i, j, lcm key)
    serial = itertools.count()

    def lcm(i, j):
        return order.key(tuple(map(max, exps[i], exps[j])))

    def add(terms):
        lead, coef = terms[0]
        inv = 1 / coef
        heads.add(lead, [(key - lead, c * inv) for key, c in terms[1:]])
        exps.append(order.exp(lead))
        h = len(leads) - 1
        # A new pair goes when the lcm of another new pair divides its own
        # (of equal lcms the last one stays), unless its heads are coprime;
        # the coprime pairs kept then go too, their S-polynomials being zero.
        new = [(lcm(g, h), g) for g in active]
        kept = []
        for k, (l, g) in enumerate(new):
            if l == leads[g] + lead or not any(divides(m, l) for m, _ in new[k + 1 :] + kept):
                kept.append((l, g))
        # A queued pair goes when the new head divides its lcm and both of
        # its lcms with the new head differ from it.
        queue[:] = [
            (deg, n, i, j, l)
            for deg, n, i, j, l in queue
            if not divides(lead, l) or l == lcm(i, h) or l == lcm(j, h)
        ]
        heapq.heapify(queue)
        for l, g in kept:
            if l != leads[g] + lead:
                heapq.heappush(queue, (order.degree(l), next(serial), g, h, l))
        active[:] = [g for g in active if not divides(lead, leads[g])] + [h]

    for terms in sorted((order.keyed(g) for g in gens), key=max):
        reduced = _reduce(terms, heads)
        if reduced:
            add(reduced)

    while queue:
        _, _, i, j, l = heapq.heappop(queue)
        s = {l + delta: c for delta, c in tails[i]}
        for delta, c in tails[j]:
            target = l + delta
            acc = s.get(target)
            s[target] = -c if acc is None else acc - c
        reduced = _reduce(s, heads)
        if reduced:
            add(reduced)

    # No head divides a later one (each joins reduced), and a head that a
    # later one divides left `active`: the active members form a minimal
    # basis, and their tails reduce against it.  A tail term lies below its
    # own head, which therefore never divides it.
    minimal = _Heads(order)
    for i in sorted(active, key=leads.__getitem__):
        minimal.add(leads[i], tails[i])
    polys = []
    for lead, tail in zip(minimal.leads, minimal.tails):
        rest = _reduce({lead + delta: c for delta, c in tail}, minimal)
        polys.append(_to_poly([(lead, _ONE)] + rest, order))
    return GroebnerBasis(nvars, order.weights, tuple(polys))


@dataclass(frozen=True)
class GroebnerBasis:
    """A reduced basis together with its weighted monomial order."""

    nvars: int
    weights: tuple
    polys: tuple
    _leads: tuple = field(init=False, repr=False)
    _order: _Order = field(init=False, repr=False, compare=False)
    _heads: _Heads = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        order = _Order(tuple(self.weights), self.nvars)
        heads = _Heads(order)
        leads = []
        for p in self.polys:
            terms = order.keyed(p)
            lead = max(terms)
            heads.add(lead, [(key - lead, c) for key, c in terms.items() if key != lead])
            leads.append(order.exp(lead))
        object.__setattr__(self, "_leads", tuple(leads))
        object.__setattr__(self, "_order", order)
        object.__setattr__(self, "_heads", heads)

    def normal_form(self, poly):
        return normal_form(poly, self)

    def contains(self, poly):
        return normal_form(poly, self).is_zero()

    def is_unit_ideal(self):
        return any(lead == (0,) * self.nvars for lead in self._leads)

    def _order_ideal(self, max_deg=None):
        """The monomials outside the head ideal, as (key, weighted degree).

        Depth first from 1, raising one variable at or after the last one
        raised, so each monomial is reached once.  A monomial in the head
        ideal is not expanded: its multiples lie in the ideal too.  With
        max_deg the walk stops at that weighted degree; without it the walk
        ends only when the quotient is finite-dimensional.
        """
        weights, units, n = self.weights, self._order.units, self.nvars
        guard, guarded = self._heads.guard, self._heads.guarded
        stack = [(0, 0, 0)]  # key, weighted degree, first raisable variable
        while stack:
            key, deg, first = stack.pop()
            if any((g - key) & guard == guard for g in guarded):
                continue
            yield key, deg
            for i in range(first, n):
                raised = deg + weights[i]
                if max_deg is None or raised <= max_deg:
                    stack.append((key + units[i], raised, i))

    @cached_property
    def _staircase(self):
        """(exponent, weighted degree) of every standard monomial, in the order; one walk."""
        return [(self._order.exp(key), deg) for key, deg in sorted(self._order_ideal())]

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
        return [exp for exp, _ in self._staircase]

    def quotient_dimension(self):
        return len(self.standard_monomials())

    def hilbert_function(self, max_deg):
        """Dimensions of the weighted-degree components 0..max_deg of the quotient.

        A finite quotient reads its one full walk; otherwise the walk stops
        at max_deg.
        """
        if max_deg < 0:
            raise ValueError(f"max_deg must be >= 0, got {max_deg}")
        if max_deg >= _LIMIT:
            raise OverflowError(
                f"max_deg {max_deg} is too large: packed monomials need "
                f"weighted degree < 2**{FIELD_BITS - 1}"
            )
        counts = [0] * (max_deg + 1)
        if self.is_finite_dimensional():
            walk = self._staircase
        else:
            walk = self._order_ideal(max_deg)
        for _, deg in walk:
            if deg <= max_deg:
                counts[deg] += 1
        return counts


def ideal_equals(a, b):
    """Two-sided membership check: every member of each basis reduces to zero in the other."""
    if a.nvars != b.nvars:
        return False
    return all(b.contains(p) for p in a.polys) and all(
        a.contains(p) for p in b.polys
    )
