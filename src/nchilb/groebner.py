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
and so does `hilbert_function` for such a max_deg.  The lcm of two heads
is a field-wise max on their packed exponents, with no tuple built.

Coefficients are integers inside the engine.  Inputs are cleared of
denominators, every basis member is kept primitive with a positive head
coefficient, and division is pseudo-division: the pending terms are
scaled by as much of the head coefficient as the coefficient being
reduced lacks, so no fraction is formed.  Division keeps the pending terms
in a heap of keys.  The first head that divides a key is memoised per key,
for division and the staircase walk alike.  The inputs and the pairs go
through one queue, by the weighted degree of an input's head or of a
pair's lcm, and the Gebauer-Moeller update thins new pairs when a
polynomial joins and queued ones when popped.

Bases are made monic over the rationals on output, and are reduced: no
head term divides another, every tail term irreducible.  For a fixed
generator set and weight vector the output is deterministic, so the
`polys` of two reduced bases can be compared directly.
"""

import heapq
import itertools
from functools import cached_property
from math import gcd, lcm
from operator import lshift, mul

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


class _Order:
    """Packed order keys for one weight vector."""

    def __init__(self, weights, nvars):
        if len(weights) != nvars or any(w <= 0 for w in weights):
            raise ValueError("weights must be positive, one per variable")
        self.weights = weights
        self.nvars = nvars
        self.top = 1 << (FIELD_BITS * nvars)
        self.shifts = tuple(FIELD_BITS * i for i in range(nvars))
        self.guard = sum(_LIMIT << shift for shift in self.shifts)
        self.ones = sum(1 << shift for shift in self.shifts)
        # the key of each variable
        self.units = tuple(w * self.top - (1 << (FIELD_BITS * i)) for i, w in enumerate(weights))

    def key(self, exp):
        wdeg = self._checked(sum(map(mul, self.weights, exp)))
        return wdeg * self.top - sum(map(lshift, exp, self.shifts))

    @staticmethod
    def _checked(wdeg):
        if wdeg >= _LIMIT:
            raise OverflowError(
                f"weighted degree {wdeg} is too large: packed monomials need "
                f"weighted degree < 2**{FIELD_BITS - 1}"
            )
        return wdeg

    def fields(self, key):
        """The packed exponents of key and the packed weighted exponents w_i a_i, for `lcm`."""
        exp = self.exp(key)
        return -key % self.top, sum(map(lshift, map(mul, self.weights, exp), self.shifts))

    def lcm(self, a, b):
        """Key of the lcm of two monomials given by their `fields`.

        Each field of either packing is below 2^31 (w_i a_i is at most the
        weighted degree), so a field-wise max is a few masks, and w_i max(a_i,
        b_i) = max(w_i a_i, w_i b_i).  The weighted degree, the sum of the
        weighted fields, sits in the top field of their product with
        1 + 2^32 + ..: every partial sum is at most the lcm's weighted degree
        < 2^32, so no field carries.
        """
        guard = self.guard
        packed, weighted = a
        b_packed, b_weighted = b
        ge = ((packed | guard) - b_packed) & guard  # guard bits where a's field >= b's
        mask = ge - (ge >> (FIELD_BITS - 1))
        packed = (packed & mask) | (b_packed & ~mask)
        ge = ((weighted | guard) - b_weighted) & guard
        mask = ge - (ge >> (FIELD_BITS - 1))
        weighted = (weighted & mask) | (b_weighted & ~mask)
        wdeg = (weighted * self.ones >> self.shifts[-1]) & _FIELD
        return self._checked(wdeg) * self.top - packed

    def degree(self, key):
        # K = wdeg * top - P with 0 <= P < top
        return -(-key // self.top)

    def exp(self, key):
        packed = -key % self.top
        return tuple((packed >> shift) & _FIELD for shift in self.shifts)

    def divides(self, small, big):
        return (small + self.guard - big) & self.guard == self.guard


class _Heads:
    """Heads and primitive integer tails of a list of polynomials that only grows.

    Member i is coefs[i] * x^leads[i] + tail: the head coefficient is a
    positive int and the tail a list of (key - head key, int) over the other
    terms, with content 1 over all the coefficients.  A multiple of the
    member by the monomial with key s has the terms s + delta.  `divisor`
    memoises, per key, the index of the first head dividing it, or ~n when
    none of the first n heads does; a miss is rechecked against the heads
    added since, so the memo stays valid while the list grows.
    """

    def __init__(self, order):
        self.guard = order.guard
        self.leads = []
        self.guarded = []  # head key + guard bits
        self.coefs = []
        self.tails = []
        self.memo = {}

    def add(self, lead, coef, tail):
        self.leads.append(lead)
        self.guarded.append(lead + self.guard)
        self.coefs.append(coef)
        self.tails.append(tail)

    def add_primitive(self, terms):
        """Add the primitive part, head coefficient positive, of [(key, int)] in descending order."""
        lead, coef = terms[0]
        content = gcd(*(c for _, c in terms))
        if coef < 0:
            content = -content
        self.add(lead, coef // content, [(key - lead, c // content) for key, c in terms[1:]])

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
    """Pseudo-remainder of {key: int} against heads, in descending order, and its scale.

    The pending keys sit in a max-heap.  A reduction step only adds keys
    below the one popped, so a popped key never comes back and each key is
    pushed once; a pending coefficient may cancel to zero and is then
    skipped when popped.  A pending coefficient c meets head coefficient h
    as in pseudo-division: with g = gcd(c, h) and a = h / g, the pending
    terms and the scale are multiplied by a when a != 1, and (c / g) times
    the tail is subtracted.  A remainder term keeps the scale it was emitted
    at until the end, when each is lifted to the final scale once.  Returns
    (remainder, scale), the remainder being congruent to scale times the
    input modulo the heads' ideal.
    """
    heap = [-key for key in work]
    heapq.heapify(heap)
    pop, push = heapq.heappop, heapq.heappush
    memo, divisor = heads.memo, heads.divisor
    coefs, tails = heads.coefs, heads.tails
    emitted = []  # (key, coefficient, scale when emitted)
    scale = 1
    while heap:
        key = -pop(heap)
        coef = work.pop(key)
        if not coef:
            continue
        i = memo.get(key, -1)
        if i < 0:
            i = divisor(key)
            if i is None:
                emitted.append((key, coef, scale))
                continue
        h = coefs[i]
        g = gcd(coef, h)
        if g != h:
            a = h // g
            work = {k: c * a for k, c in work.items()}
            scale *= a
        q = coef // g
        get = work.get
        for delta, c in tails[i]:
            target = key + delta
            acc = get(target)
            if acc is None:
                work[target] = -q * c
                push(heap, -target)
            else:
                work[target] = acc - q * c
    return [(key, coef * (scale // at)) for key, coef, at in emitted], scale


def _integral(poly, order):
    """poly times the common denominator of its coefficients, as {key: int}, and that denominator."""
    terms = poly.terms
    den = lcm(*(c.denominator for c in terms.values()))
    return {order.key(exp): c.numerator * (den // c.denominator) for exp, c in terms.items()}, den


def _to_poly(terms, den, order):
    """The polynomial sum of c / den x^key over [(key, int)]."""
    return SparsePoly._make(order.nvars, {order.exp(key): QQ(c, den) for key, c in terms})


def normal_form(poly, gb):
    """Remainder of poly on division by the basis; zero iff poly is in the ideal."""
    if poly.nvars != gb.nvars:
        raise ValueError(f"polynomial has {poly.nvars} variables, basis has {gb.nvars}")
    work, den = _integral(poly, gb._order)
    remainder, scale = _reduce(work, gb._heads)
    return _to_poly(remainder, den * scale, gb._order)


def _new_pairs(new, lead, leads, guard):
    """The pairs of the Gebauer-Moeller update to queue for a new head.

    `new` lists (lcm key, member) over the active members in order, `lead`
    is the new head key and `guard` the order's guard bits.  A pair whose
    heads are coprime is never queued.  Another pair goes when another new
    lcm strictly divides its own, when a later pair has an equal lcm, or
    when a coprime pair has an equal lcm; the survivors are returned in the
    order of `new`.

    One pass over the distinct lcms in ascending key order: a divisor of an
    lcm has no larger key, so each lcm is tested only against the smaller
    ones that no other lcm strictly divides.
    """
    last = {}  # lcm -> index of its last pair, or None when a coprime pair has it
    for k, (l, g) in enumerate(new):
        if last.get(l, 0) is not None:
            last[l] = None if l == leads[g] + lead else k
    minimal = []  # guarded keys of the lcms no other lcm strictly divides
    keep = []
    for l in sorted(last):
        if any((m - l) & guard == guard for m in minimal):
            continue
        minimal.append(l + guard)
        if last[l] is not None:
            keep.append(last[l])
    return [new[k] for k in sorted(keep)]


def buchberger(gens, weights):
    """Reduced basis of the ideal generated by gens, under the weighted order.

    Coefficients are integers inside the engine: every member is kept
    primitive, an S-polynomial is (h_j/g) tail_i - (h_i/g) tail_j with
    g = gcd(h_i, h_j) for head coefficients h, and division is
    pseudo-division.  The output basis is made monic over the rationals.

    One loop pops inputs and pairs from one queue, by the weighted degree
    of an input's head or of a pair's lcm, first in first out within a
    degree, so runs are reproducible; the inputs are queued first, by
    ascending head key, so at equal degree they pop before every pair.  A
    popped input or S-polynomial is reduced and joins when nonzero.  The
    Gebauer-Moeller update thins the pairs: of a new member's pairs it
    keeps one per minimal lcm and none with coprime heads (`_new_pairs`),
    it leaves older members whose heads the new head divides out of future
    pairs, and a popped pair is dropped when a member that joined after it
    was queued shadows it.
    """
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        raise ValueError("no nonzero generators")
    nvars = gens[0].nvars
    if any(g.nvars != nvars for g in gens):
        raise ValueError("generators disagree on variable count")
    order = _Order(tuple(weights), nvars)
    divides, guard = order.divides, order.guard
    heads = _Heads(order)
    leads, guarded, coefs, tails = heads.leads, heads.guarded, heads.coefs, heads.tails
    fields = []  # packed head exponents, for the lcms
    active = []  # members no later head divides
    serial = itertools.count()
    # (weighted degree, serial number, input terms or None, pair (i, j, lcm key) or None);
    # the inputs come first by ascending head key, a sorted list being a heap
    queue = [
        (order.degree(max(terms)), next(serial), terms, None)
        for terms, _ in sorted((_integral(g, order) for g in gens), key=lambda item: max(item[0]))
    ]

    def lcm_key(i, j):
        return order.lcm(fields[i], fields[j])

    while queue:
        _, _, work, pair = heapq.heappop(queue)
        if pair:
            i, j, l = pair
            # A member k that joined after the pair was queued shadows it
            # when its head divides l and both of its lcms with i and j differ from l.
            if any(
                (guarded[k] - l) & guard == guard and lcm_key(i, k) != l != lcm_key(j, k)
                for k in range(j + 1, len(leads))
            ):
                continue
            g = gcd(coefs[i], coefs[j])
            a, b = coefs[j] // g, coefs[i] // g
            work = {l + delta: a * c for delta, c in tails[i]}
            for delta, c in tails[j]:
                target = l + delta
                acc = work.get(target)
                work[target] = -b * c if acc is None else acc - b * c
        reduced, _ = _reduce(work, heads)
        if not reduced:
            continue
        heads.add_primitive(reduced)
        lead = reduced[0][0]
        fields.append(order.fields(lead))
        h = len(leads) - 1
        for l, g in _new_pairs([(lcm_key(g, h), g) for g in active], lead, leads, guard):
            heapq.heappush(queue, (order.degree(l), next(serial), None, (g, h, l)))
        active = [g for g in active if not divides(lead, leads[g])] + [h]

    # No head divides a later one (each joins reduced), and a head that a
    # later one divides left `active`: the active members form a minimal
    # basis, and their tails reduce against it.  A tail term lies below its
    # own head, which therefore never divides it.
    minimal = _Heads(order)
    for i in sorted(active, key=leads.__getitem__):
        minimal.add(leads[i], coefs[i], tails[i])
    polys = []
    for lead, coef, tail in zip(minimal.leads, minimal.coefs, minimal.tails):
        rest, scale = _reduce({lead + delta: c for delta, c in tail}, minimal)
        polys.append(_to_poly([(lead, coef * scale)] + rest, coef * scale, order))
    return GroebnerBasis(nvars, order.weights, tuple(polys))


class GroebnerBasis:
    """A reduced basis together with its weighted monomial order.

    Compared by identity (`ideal_equals` compares ideals); not mutated
    after construction.
    """

    def __init__(self, nvars, weights, polys):
        order = _Order(tuple(weights), nvars)
        heads = _Heads(order)
        leads = []
        for i, p in enumerate(polys):
            if p.nvars != nvars:
                raise ValueError(f"basis member {i} ({p}) has {p.nvars} variables, basis has {nvars}")
            if p.is_zero():
                raise ValueError(f"basis member {i} is zero")
            terms, _ = _integral(p, order)
            heads.add_primitive(sorted(terms.items(), reverse=True))
            leads.append(order.exp(heads.leads[-1]))
        self.nvars = nvars
        self.weights = weights
        self.polys = polys
        self._leads = tuple(leads)
        self._order = order
        self._heads = heads

    def contains(self, poly):
        return normal_form(poly, self).is_zero()

    def is_unit_ideal(self):
        return any(lead == (0,) * self.nvars for lead in self._leads)

    def _order_ideal(self, max_deg=None):
        """The monomials outside the head ideal, as (key, weighted degree).

        Depth first from 1, raising one variable at or after the last one
        raised, so each monomial is reached once.  A monomial that
        `_Heads.divisor` puts in the head ideal is not expanded: its
        multiples lie in the ideal too.  With max_deg the walk stops at that
        weighted degree; without it the walk ends only when the quotient is
        finite-dimensional.
        """
        weights, units, n = self.weights, self._order.units, self.nvars
        divisor = self._heads.divisor
        stack = [(0, 0, 0)]  # key, weighted degree, first raisable variable
        while stack:
            key, deg, first = stack.pop()
            if divisor(key) is not None:
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
