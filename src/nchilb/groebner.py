"""Buchberger engine over the rationals with weighted monomial orders.

The monomial order compares weighted degree first (weights are positive
integers, one per variable) and breaks ties by reverse lexicography: among
equal weighted degrees the monomial whose exponent vector has the later
last difference wins when that difference is negative.  With weights
(1,..,1) this is plain degrevlex.

Inside the engine a monomial is one int.  Its weighted exponents w_i a_i
are packed into fields of FIELD_BITS = 32 bits, P = sum w_i a_i 2^(32 i),
and its order key is K = wdeg 2^(32 n) - P, wdeg being the sum of the
fields.  Weights are positive, so the last differing field breaks a tie in
weighted degree as the last differing exponent would.  The key is linear,
K(ab) = K(a) + K(b), so a product of monomials is a sum of keys, a quotient
a difference, and the weighted-degrevlex order is int order on keys.  The
top bit of each field is a guard that stays clear, so a divides b exactly
when ((K(a) + G) - K(b)) & G == G, G being the guard bits: one subtraction
and one mask.  No field exceeds the weighted degree, and every monomial
the engine makes lies below an input monomial or a pair lcm in the order;
packing those raises OverflowError for a weighted degree of 2^31 or more,
and so does `hilbert_function` for such a max_deg.  Packing is a dot
product of the exponents with the keys of the variables; one `struct`
call unpacks the fields of a key.  The lcm of two heads is a field-wise
max of their fields, whose sum is its weighted degree; a joining head
meets all the active members in one loop of `_Order.lcms`.

Coefficients are integers inside the engine.  Inputs are cleared of
denominators, every basis member is kept primitive with a positive head
coefficient, and division is pseudo-division: the pending terms are
scaled by as much of the head coefficient as the coefficient being
reduced lacks, so no fraction is formed.  Division keeps the pending terms
in a heap of keys.  The first head that divides a key is memoised per key;
the staircase walk, which indexes the heads by (variable, exponent), writes
the misses of the standard monomials there too.  The inputs and the pairs go
through one queue: every input before every pair, and the pairs by the
weighted degree of their lcm.  The Gebauer-Moeller update thins new pairs
when a polynomial joins, in one pass over the active members that also
drops those whose heads the new head divides, and queued ones when popped.
A normal form that reduces none of its input's terms is the input itself;
a monomial goes to the memoised head lookup alone, where the staircase
walk has written every standard monomial.

A basis is interreduced only when its reduced form is read.  `buchberger`
returns the minimal basis, no head term dividing another, with the tails
as the run left them; normal forms, membership, the staircase and the
Hilbert function need no more, because the heads are those of the reduced
basis and a remainder modulo a Groebner basis is unique.  Its `polys`, the
reduced basis monic over the rationals, interreduce the packed members in
place when first read.  For a fixed generator set and weight vector the
output is deterministic, so the `polys` of two bases can be compared
directly.  Two functions make a basis: `buchberger`, and
`minimal_generator_subset`, whose one run climbs the degrees of
weighted-homogeneous generators and builds at each degree the members of
the reduced basis up to it, which depend only on the generators up to it;
that truncation stays inside the run, which interreduces at each degree
so that it goes on from reduced tails.  One `_Order` serves each (weights,
variable count) in a process.
"""

import heapq
import itertools
import struct
from functools import cached_property, lru_cache
from math import gcd
from operator import floordiv, mul

from .polynomial import SparsePoly, _clear_denominators, poly_to_text
from .rationals import QQ

__all__ = [
    "GroebnerBasis",
    "buchberger",
    "normal_form",
    "ideal_equals",
    "minimal_generator_subset",
]

FIELD_BITS = 32
_LIMIT = 1 << (FIELD_BITS - 1)  # fields and weighted degrees stay below this
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
        # the key of each variable
        self.units = tuple(w * self.top - (w << shift) for w, shift in zip(weights, self.shifts))
        # the largest key of weighted degree below 2^31
        self.bound = (_LIMIT - 1) * self.top
        self.ones = sum(1 << shift for shift in self.shifts)
        self.high = FIELD_BITS * max(nvars - 1, 0)  # the top field
        unpacking = struct.Struct(f"<{nvars}I")  # fields below 2^31, little-endian
        self.unpack, self.size = unpacking.unpack, unpacking.size

    def key(self, exp):
        """sum a_i K(x_i), K being linear; above `bound` exactly when the weighted degree is >= 2^31."""
        key = sum(map(mul, self.units, exp))
        if key > self.bound:
            self._checked(sum(map(mul, self.weights, exp)))
        return key

    @staticmethod
    def _checked(wdeg):
        if wdeg >= _LIMIT:
            raise OverflowError(
                f"weighted degree {wdeg} is too large: packed monomials need "
                f"weighted degree < 2**{FIELD_BITS - 1}"
            )
        return wdeg

    def fields(self, key):
        """The packed weighted exponents of key, for `lcms`."""
        return -key % self.top

    def lcms(self, a, others):
        """The keys of the lcms of one monomial with each of others, all given by their `fields`.

        Each field is below 2^31 (w_i a_i is at most the weighted degree), so
        a field-wise max is a few masks, and w_i max(a_i, b_i) = max(w_i a_i,
        w_i b_i).  The lcm's weighted degree, the sum of its fields, sits in
        the top field of their product with 1 + 2^32 + ..: every partial sum
        is at most that weighted degree, below wdeg(a) + wdeg(b) < 2^32, so
        no field carries.
        """
        guard, top, ones, high, down = self.guard, self.top, self.ones, self.high, FIELD_BITS - 1
        guarded = a | guard
        keys = []
        for b in others:
            # b's fields, with a's where a's field >= b's: the guard bits of
            # the difference spread down over their fields
            ge = (guarded - b) & guard
            lcm = b ^ ((a ^ b) & (ge - (ge >> down)))
            wdeg = (lcm * ones >> high) & _FIELD
            if wdeg >= _LIMIT:
                self._checked(wdeg)
            keys.append(wdeg * top - lcm)
        return keys

    def degree(self, key):
        # K = wdeg * top - P with 0 <= P < top
        return -(-key // self.top)

    def exp(self, key):
        fields = self.unpack((-key % self.top).to_bytes(self.size, "little"))
        return tuple(map(floordiv, fields, self.weights))


@lru_cache(maxsize=None)
def _order(weights, nvars):
    """The one `_Order` of a weight tuple and variable count; weights it refuses are not kept."""
    return _Order(weights, nvars)


class _Heads:
    """Heads and primitive integer tails of a list of polynomials that only grows.

    Member i is coefs[i] * x^leads[i] + tail: the head coefficient is a
    positive int and the tail a list of (key - head key, int) over the other
    terms, with content 1 over all the coefficients.  A multiple of the
    member by the monomial with key s has the terms s + delta.  `divisor`
    memoises, per key, the index of the first head dividing it, or ~n when
    none of the first n heads does; a miss is rechecked against the heads
    added since, so the memo stays valid while the list grows.  Heads never
    change; `_interreduce` replaces a member's coefficients by those of its
    reduced form.
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


def _primitive(terms):
    """(head coefficient, tail) of the primitive part of [(key, int)] in descending order.

    The head coefficient is positive, and the tail is [(key - head key, int)].
    """
    lead, coef = terms[0]
    content = gcd(*(c for _, c in terms))
    if coef < 0:
        content = -content
    return coef // content, [(key - lead, c // content) for key, c in terms[1:]]


def _interreduce(heads, members):
    """Reduce the tails of the members (indices, in that order) against all of heads, in place.

    One `_reduce` per member.  A tail term lies below its own head, which
    therefore never divides it.  Only tails change, so every head and every
    memo entry stays valid; the remainders are unique, so the order only
    sets the work: in ascending order of heads each tail meets the smaller
    members, the only ones that can divide its terms, reduced already.
    """
    leads, coefs, tails = heads.leads, heads.coefs, heads.tails
    for i in members:
        lead = leads[i]
        rest, scale = _reduce({lead + delta: c for delta, c in tails[i]}, heads)
        coefs[i], tails[i] = _primitive([(lead, coefs[i] * scale)] + rest)


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
    integers, den = _clear_denominators(poly.terms)
    return dict(zip(map(order.key, integers), integers.values())), den


def _to_poly(terms, den, order):
    """The polynomial sum of c / den x^key over [(key, int)]."""
    return SparsePoly._make(order.nvars, {order.exp(key): QQ(c, den) for key, c in terms})


def normal_form(poly, gb):
    """Remainder of poly on division by the basis; zero iff poly is in the ideal.

    poly itself when no head divides any of its terms: division never brings
    back a key it reduced, so a remainder on the same keys reduced none.  A
    monomial goes to the memoised head lookup alone (a standard one is in
    the memo once the staircase has been walked).
    """
    if poly.nvars != gb.nvars:
        raise ValueError(f"polynomial has {poly.nvars} variables, basis has {gb.nvars}")
    if len(poly.terms) == 1:
        (exp,) = poly.terms
        if gb._heads.divisor(gb._order.key(exp)) is None:
            return poly
    work, den = _integral(poly, gb._order)
    remainder, scale = _reduce(dict(work), gb._heads)
    if len(remainder) == len(work) and all(key in work for key, _ in remainder):
        return poly
    return _to_poly(remainder, den * scale, gb._order)


def _join(order, leads, fields, active, h):
    """The Gebauer-Moeller update for member h joining: its pairs to queue, and the next `active`.

    One pass over `active` pairs each member g with h: it enters their lcm
    in a map from lcm to the position of its last pair, or None when a
    coprime pair has it, and keeps g for the next `active` unless h's head
    divides g's, that is unless their lcm is g's head.  A pair whose heads
    are coprime is never queued.  Another pair goes when another new lcm
    strictly divides its own, when a later pair has an equal lcm, or when a
    coprime pair has an equal lcm.

    Then one scan over the distinct lcms in ascending key order: a divisor
    of an lcm has no larger key, so each lcm is tested only against the
    smaller ones that no other lcm strictly divides.  Returns the surviving
    pairs as (lcm key, g) in the order of `active`, and the next `active`,
    which ends with h.
    """
    lead, guard = leads[h], order.guard
    lcms = order.lcms(fields[h], map(fields.__getitem__, active))
    last = {}  # lcm -> position in active of its last pair, or None when a coprime pair has it
    rest = []
    for k, (g, l) in enumerate(zip(active, lcms)):
        head = leads[g]
        if last.get(l, 0) is not None:
            last[l] = None if l == head + lead else k
        if l != head:
            rest.append(g)
    rest.append(h)
    minimal = []  # guarded keys of the lcms no other lcm strictly divides
    keep = []
    for l in sorted(last):
        for m in minimal:
            if (m - l) & guard == guard:
                break
        else:
            minimal.append(l + guard)
            k = last[l]
            if k is not None:
                keep.append((k, l))
    keep.sort()
    return [(l, active[k]) for k, l in keep], rest


class _Run:
    """The state of one Buchberger run, which can stop at a weighted degree and go on.

    `heads` holds every member that joined, in order, `fields` their packed
    weighted head exponents for the lcms, `active` the members no later head
    divides, and `queue` the inputs and pairs not yet popped as (weighted
    degree, serial number, input terms or None, pair (i, j, lcm key) or
    None), first in first out within a degree.
    """

    def __init__(self, order):
        self.order = order
        self.heads = _Heads(order)
        self.fields = []
        self.active = []
        self.queue = []
        self.serial = itertools.count()

    def push_input(self, terms):
        """Queue {key: int} at degree 0, before every pair."""
        heapq.heappush(self.queue, (0, next(self.serial), terms, None))

    def until(self, max_deg):
        """Pop inputs and pairs until the queue is empty or its next pair lies above max_deg."""
        order, heads, queue, serial, fields = self.order, self.heads, self.queue, self.serial, self.fields
        lcms, guard = order.lcms, order.guard
        leads, guarded, coefs, tails = heads.leads, heads.guarded, heads.coefs, heads.tails
        active = self.active
        while queue and (max_deg is None or queue[0][0] <= max_deg):
            _, _, work, pair = heapq.heappop(queue)
            if pair:
                i, j, l = pair
                # A member k that joined after the pair was queued shadows it
                # when its head divides l and both of its lcms with i and j differ from l.
                pair_fields = fields[i], fields[j]
                for k in range(j + 1, len(leads)):
                    if (guarded[k] - l) & guard == guard and l not in lcms(fields[k], pair_fields):
                        break
                else:
                    g = gcd(coefs[i], coefs[j])
                    a, b = coefs[j] // g, coefs[i] // g
                    work = {l + delta: a * c for delta, c in tails[i]}
                    for delta, c in tails[j]:
                        target = l + delta
                        acc = work.get(target)
                        work[target] = -b * c if acc is None else acc - b * c
                if work is None:
                    continue
            reduced, _ = _reduce(work, heads)
            if not reduced:
                continue
            heads.add(reduced[0][0], *_primitive(reduced))
            fields.append(order.fields(reduced[0][0]))
            h = len(leads) - 1
            pairs, active = _join(order, leads, fields, active, h)
            for l, g in pairs:
                heapq.heappush(queue, (order.degree(l), next(serial), None, (g, h, l)))
        self.active = active

    def minimal(self):
        """The active members in ascending order of heads, as a new `_Heads`: a minimal basis.

        No head divides a later one (each joins reduced), and a head that a
        later one divides left `active`, so the active heads are those of
        the reduced basis.
        """
        heads = self.heads
        basis = _Heads(self.order)
        for i in sorted(self.active, key=heads.leads.__getitem__):
            basis.add(heads.leads[i], heads.coefs[i], heads.tails[i])
        return basis

    def basis(self):
        """The reduced basis of the members that joined, in ascending order of heads.

        The active members' tails reduce against every member, which gives
        the same remainders and finds most divisors memoised, and they are
        reduced in the run, so that when the run goes on, its next basis
        meets them reduced already.
        """
        heads = self.heads
        _interreduce(heads, sorted(self.active, key=heads.leads.__getitem__))
        return self.minimal()


def buchberger(gens, weights):
    """Groebner basis of the ideal generated by gens, under the weighted order.

    One of the two ways to a `GroebnerBasis`, whose quotient queries hold
    only for a Groebner basis: it takes any polynomials and completes them.
    It returns the minimal basis, the active members as the run left them;
    their `polys` are the reduced basis, interreduced when first read.

    Coefficients are integers inside the engine: every member is kept
    primitive, an S-polynomial is (h_j/g) tail_i - (h_i/g) tail_j with
    g = gcd(h_i, h_j) for head coefficients h, and division is
    pseudo-division.  The basis stays in that form; its `polys` are made
    monic over the rationals.

    One loop pops inputs and pairs from one queue.  The inputs come first,
    by ascending head key, each reduced against the inputs before it, so no
    input is reduced after a pair: an input joining among the members of
    higher-degree pairs lets their coefficients swell.  The pairs follow by
    the weighted degree of their lcm, first in first out within a degree,
    so runs are reproducible.  A popped input or S-polynomial is reduced
    and joins when nonzero.  The Gebauer-Moeller update thins the pairs: in
    one pass over the active members (`_join`), of a new member's pairs it
    keeps one per minimal lcm and none with coprime heads, and it leaves
    older members whose heads the new head divides out of future pairs; a
    popped pair is dropped when a member that joined after it was queued
    shadows it.
    """
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        raise ValueError("no nonzero generators")
    nvars = gens[0].nvars
    order = _order(tuple(weights), nvars)
    if any(g.nvars != nvars for g in gens):
        raise ValueError("generators disagree on variable count")
    run = _Run(order)
    for terms in sorted((_integral(g, order)[0] for g in gens), key=max):
        run.push_input(terms)
    run.until(None)
    return GroebnerBasis(order, run.minimal())


class GroebnerBasis:
    """A Groebner basis together with its weighted monomial order.

    Made from the order and the members as the engine's packed heads and
    primitive integer tails, by `buchberger` and, up to each generator
    degree, by `minimal_generator_subset`.  The members form a minimal
    basis: they have the heads of the reduced basis, and the one from
    `buchberger` keeps the tails as its run left them.  Every query runs on
    that basis as it is, since the heads decide the staircase and a
    remainder modulo a Groebner basis is unique.  `polys`, the reduced
    basis monic over the rationals, interreduces the tails in place when
    first read; no query's answer changes.

    Compared by identity (`ideal_equals` compares ideals).
    """

    def __init__(self, order, heads):
        self.nvars = order.nvars
        self.weights = order.weights
        self._order = order
        self._heads = heads

    @cached_property
    def _leads(self):
        """The head exponents, in ascending order."""
        return tuple(map(self._order.exp, self._heads.leads))

    @cached_property
    def polys(self):
        """The reduced basis, monic over the rationals, in ascending order of heads."""
        order, heads = self._order, self._heads
        _interreduce(heads, range(len(heads.leads)))
        return tuple(
            _to_poly([(lead, coef)] + [(lead + delta, c) for delta, c in tail], coef, order)
            for lead, coef, tail in zip(heads.leads, heads.coefs, heads.tails)
        )

    def contains(self, poly):
        return normal_form(poly, self).is_zero()

    def is_unit_ideal(self):
        return any(lead == (0,) * self.nvars for lead in self._leads)

    def _order_ideal(self, max_deg=None):
        """The monomials outside the head ideal, as (key, weighted degree, exponents).

        The exponents are packed plainly, sum a_i 2^(32 i), for one `struct`
        unpack with no division by the weights.

        Depth first from 1, raising one variable at or after the last one
        raised, so each monomial is reached once.  A head dividing x_i times
        a standard parent has the child's exponent in x_i, or it would divide
        the parent, so the child is tested only against those heads, indexed
        per walk; each standard monomial writes its miss into the head lookup
        memo.  A monomial in the head ideal is not expanded.  With max_deg the
        walk stops at that weighted degree; without it the walk ends only
        when the quotient is finite-dimensional.
        """
        weights, units, n, guard = self.weights, self._order.units, self.nvars, self._order.guard
        steps = tuple(1 << shift for shift in self._order.shifts)
        heads = self._heads
        memo, miss = heads.memo, ~len(heads.guarded)
        index = {}  # (variable, exponent) -> guarded heads with that exponent in that variable
        for lead, guarded in zip(self._leads, heads.guarded):
            for i, a in enumerate(lead):
                if a:
                    index.setdefault((i, a), []).append(guarded)
        if heads.divisor(0) is not None:
            return
        # key, weighted degree, exponents, variable raised last, its exponent
        stack = [(0, 0, 0, 0, 0)]
        while stack:
            key, deg, plain, first, a = stack.pop()
            for g in index.get((first, a), ()):
                if (g - key) & guard == guard:
                    break
            else:
                memo[key] = miss
                yield key, deg, plain
                for i in range(first, n):
                    raised = deg + weights[i]
                    if max_deg is None or raised <= max_deg:
                        stack.append((key + units[i], raised, plain + steps[i], i, a + 1 if i == first else 1))

    @cached_property
    def _staircase(self):
        """(key, weighted degree, exponents) of every standard monomial, in the order; one walk."""
        return sorted(self._order_ideal())

    @cached_property
    def _finite(self):
        powers = {i for lead in self._leads for i, a in enumerate(lead) if a and a == sum(lead)}
        return self.is_unit_ideal() or len(powers) == self.nvars

    def is_finite_dimensional(self):
        """Every variable has a pure-power head, or the ideal is the unit ideal; decided once."""
        return self._finite

    @cached_property
    def _standard(self):
        """The exponents of the standard monomials, unpacked once."""
        if not self._finite:
            raise ValueError("quotient is not finite-dimensional")
        unpack, size = self._order.unpack, self._order.size
        return tuple(unpack(plain.to_bytes(size, "little")) for _, _, plain in self._staircase)

    def standard_monomials(self):
        """All monomials outside the head ideal, as a new list; requires a finite quotient.

        Sorted by the monomial order, so grouping by weighted degree gives
        the Hilbert function directly.
        """
        return list(self._standard)

    def quotient_dimension(self):
        return len(self.standard_monomials())

    def hilbert_function(self, max_deg):
        """Dimensions of the weighted-degree components 0..max_deg of the quotient.

        A finite quotient reads its one full walk; otherwise the walk stops
        at max_deg.
        """
        if max_deg < 0:
            raise ValueError(f"max_deg must be >= 0, got {max_deg}")
        self._order._checked(max_deg)
        counts = [0] * (max_deg + 1)
        if self._finite:
            walk = self._staircase
        else:
            walk = self._order_ideal(max_deg)
        for _, deg, _ in walk:
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


def _add_pivot(pivots, row):
    """Reduce row, {exponent: coefficient}, against the pivots; True when it leaves a new one.

    The pivots are keyed by leading exponent, and row is used up.  A
    nonzero remainder joins the pivots, scaled to leading coefficient 1.
    False means row lies in the span of the rows behind the pivots.
    """
    while row:
        lead = max(row)
        pivot = pivots.get(lead)
        if pivot is None:
            pivots[lead] = {exp: coef / row[lead] for exp, coef in row.items()}
            return True
        factor = row[lead]
        for exp, coef in pivot.items():
            value = row.get(exp, QQ(0)) - factor * coef
            if value:
                row[exp] = value
            else:
                del row[exp]
    return False


def minimal_generator_subset(gens, weights):
    """Greedy inclusion-minimal subset of weighted-homogeneous generators.

    The greedy goes through the generators in input order and drops each
    one that the others still present generate; the result keeps input
    order and is minimal in the inclusion sense only.  Zero generators lie
    in every ideal and are always dropped.  Raises ValueError unless the
    weights are positive, one per variable, the generators agree on the
    variable count and each is weighted-homogeneous.

    The greedy needs one basis per generator degree, not one per generator.
    Let J_k be the ideal of the generators of degree < k.  A generator that
    the greedy drops lies in the ideal of the others, and by homogeneity in
    the ideal of those of no larger degree, so no drop changes any J_k: the
    kept generators of degree < k generate it too.  A degree-k generator g
    lies in the ideal of the others exactly when its normal form modulo J_k
    lies in the span of the normal forms of the other degree-k generators
    still present.  Within one degree that is the greedy on vectors v_1..v_r
    in input order, which keeps v_j exactly when v_j is outside the span of
    v_{j+1}..v_r (by induction on j: the vectors kept before v_j are
    independent modulo the span of v_j..v_r).  So each degree block, in
    increasing degree, is reduced in reverse input order against the
    pivots of the later ones, modulo a basis of the kept generators of
    lower degree; a nonzero remainder keeps the generator.  By homogeneity
    the members of degree <= k of a reduced basis depend only on the
    generators up to degree k, so one run goes up the degrees: at each block
    it stops before the pairs above k, and its basis there gives the same
    normal forms up to k as the whole one.  The generators a block keeps
    join the run before it goes on.
    """
    gens = list(gens)
    if not gens:
        return []
    weights = tuple(weights)
    nvars = gens[0].nvars
    order = _order(weights, nvars)
    blocks = {}  # weighted degree -> [(input index, {key: int})], in input order
    for i, g in enumerate(gens):
        if g.nvars != nvars:
            raise ValueError("generators disagree on variable count")
        terms = _integral(g, order)[0]
        if not terms:
            continue
        degree = order.degree(max(terms))
        if order.degree(min(terms)) != degree:
            raise ValueError(
                f"generator {i} is not weighted-homogeneous for weights {weights}: "
                f"{poly_to_text(g)}"
            )
        blocks.setdefault(degree, []).append((i, terms))
    run = _Run(order)
    kept = []  # input indices
    for degree in sorted(blocks):
        run.until(degree)
        gb = GroebnerBasis(order, run.basis())
        pivots = {}
        for i, terms in reversed(blocks[degree]):
            if _add_pivot(pivots, dict(normal_form(gens[i], gb).terms)):
                kept.append(i)
                run.push_input(terms)
    return [gens[i] for i in sorted(kept)]
