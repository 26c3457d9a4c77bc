"""Shared oracles and random generators for the test suite.

Everything here is deliberately independent of the library internals it
checks: counts come from closed forms, Schur polynomials from the dual
Jacobi-Trudi determinant, rho from the bialternant (a signed sum over
every permutation, then long division by the discriminant), critical pairs
from their definition (the one-letter extensions that a tree does not store,
sorted), j-indices and d-values from pair-by-pair counts over those pairs,
forests from every composition of d into n tree sizes, the product of the
tree sets, and one sort by the forest key, the census of d-values and
codimensions from every enumerated forest, walked one at a time, and
random polynomials from seeded generators.
The symmetry check, the change to e-coordinates in both directions, the
kernel power prod (x_j - x_i)^power and the kernel generators have slow
x-space oracles here, computed term by term over all variables; the
product m_mu * e_k of the packed change of basis has the enumeration on
one partition's runs that its run-shape memo replaced.
The quotient queries of a basis have oracles that visit every monomial of
a box or a weighted cone and test it against every head.  Buchberger and
the normal form have the tuple-exponent oracle: orders, divisibility and
products computed one exponent at a time; `time_limit` stops a run that a
broken engine would never end.  The new pairs of the
Gebauer-Moeller update have the quadratic loop that tests every lcm
against all later ones and the ones kept so far.  The local multiplicity has
the loop that screens each draw by evaluating leading coefficients.  The
Chern verdict has the one that pivots the normal forms of every B-tuple
monomial, standard ones included.  The
text parser has the regex grammar it replaced: a match per term and
`Fraction(str)` per coefficient.
"""

import contextlib
import functools
import heapq
import itertools
import math
import random
import re
import signal
import struct
from fractions import Fraction

from nchilb.forests import Forest, Tree, codim, d_value, enumerate_btuples, enumerate_forests
from nchilb.polynomial import (
    SparsePoly,
    elementary_symmetric,
    from_elementary,
    partitions_in_box,
    schur,
)


def fuss_catalan_trees(m, size):
    """Closed-form number of m-ary trees with `size` nodes."""
    if size == 0:
        return 1
    if m == 0:
        return 1 if size == 1 else 0
    return math.comb(m * size, size) // ((m - 1) * size + 1)


def forest_count_oracle(m, d, n):
    """Number of forests by convolving the closed-form tree counts."""
    counts = [0] * (d + 1)
    counts[0] = 1
    for _ in range(n):
        fresh = [0] * (d + 1)
        for total in range(d + 1):
            for size in range(total + 1):
                fresh[total] += counts[total - size] * fuss_catalan_trees(m, size)
        counts = fresh
    return counts[d]


def _compositions(total, parts):
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _oracle_trees(m, size):
    """m-ary trees with `size` nodes as sorted word tuples: children sizes by composition."""
    if size == 0:
        return [()]
    shapes = []
    for split in _compositions(size - 1, m):
        for combo in itertools.product(*(_oracle_trees(m, s) for s in split)):
            words = [()]
            for letter, subtree in enumerate(combo, start=1):
                words.extend((letter,) + w for w in subtree)
            shapes.append(tuple(words))
    return sorted(shapes)


def oracle_enumerate_forests(m, d, n):
    """Every forest of every composition of d into n tree sizes, sorted by the forest key."""
    forests = []
    for split in _compositions(d, n):
        for combo in itertools.product(*(_oracle_trees(m, s) for s in split)):
            forests.append(Forest(tuple(Tree(t) for t in combo), m, n))
    forests.sort(key=Forest.sort_key)
    return forests


def oracle_critical_pairs(forest):
    """(root, word) pairs by set difference: the root of an empty tree, and every
    one-letter extension of a stored word that the tree does not store; sorted."""
    result = []
    for k, tree in enumerate(forest.trees, start=1):
        if len(tree) == 0:
            result.append((k, ()))
            continue
        stored = set(tree.words)
        for w in tree.words:
            for letter in range(1, forest.m + 1):
                child = w + (letter,)
                if child not in stored:
                    result.append((k, child))
    result.sort()
    return result


def forest_pairs(forest):
    """All (root index, word) pairs of the forest, in increasing pair order."""
    return [(k, w) for k, tree in enumerate(forest.trees, start=1) for w in tree.words]


def d_value_oracle(forest):
    """Count the pairs (element, critical pair) with the element strictly below."""
    critical = oracle_critical_pairs(forest)
    count = 0
    for k, w in forest_pairs(forest):
        for k2, w2 in critical:
            if k < k2 or (k == k2 and w < w2):
                count += 1
    return count


def jtuple_oracle(forest):
    """Sorted j-indices, each counted element by element over the whole forest."""
    return tuple(
        sorted(
            sum(1 for k, w in forest_pairs(forest) if k < k2 or (k == k2 and w < w2))
            for k2, w2 in oracle_critical_pairs(forest)
        )
    )


def oracle_poincare_polynomial(m, d, n, by="dim"):
    """Counts of d_value (by="dim") or codim (by="codim") over every enumerated forest."""
    stat = d_value if by == "dim" else codim
    values = [stat(forest) for forest in enumerate_forests(m, d, n)]
    if not values:
        return []
    coeffs = [0] * (max(values) + 1)
    for v in values:
        coeffs[v] += 1
    return coeffs


def conjugate_partition(lam):
    if not lam:
        return ()
    return tuple(sum(1 for part in lam if part > i) for i in range(lam[0]))


def jacobi_trudi_schur(lam, d):
    """Dual Jacobi-Trudi determinant det(e_{lam'_i - i + j}) expanded by permutations."""
    lamc = conjugate_partition(tuple(lam))
    n = len(lamc)
    if n == 0:
        return SparsePoly.const(d, 1)

    def e(k):
        if k < 0:
            return SparsePoly.zero(d)
        return elementary_symmetric(k, d)

    total = SparsePoly.zero(d)
    for sigma in itertools.permutations(range(n)):
        inversions = sum(
            1 for i in range(n) for j in range(i + 1, n) if sigma[i] > sigma[j]
        )
        term = SparsePoly.const(d, (-1) ** inversions)
        for i in range(n):
            term = term * e(lamc[i] - (i + 1) + (sigma[i] + 1))
        total = total + term
    return total


def random_poly(rng, nvars, max_deg=2, nterms=4, coef_bound=5):
    terms = {}
    for _ in range(nterms):
        exp = tuple(rng.randint(0, max_deg) for _ in range(nvars))
        coef = rng.randint(-coef_bound, coef_bound)
        if coef:
            terms[exp] = terms.get(exp, 0) + coef
    return SparsePoly(nvars, {e: c for e, c in terms.items() if c})


def random_symmetric_poly(rng, nvars, max_part=2, nterms=3, coef_bound=5):
    """Random symmetric polynomial built from a random e-polynomial."""
    return from_elementary(random_poly(rng, nvars, max_part, nterms, coef_bound))


def random_homogeneous_symmetric(rng, nvars, degree, coef_bound=5):
    """Random homogeneous symmetric polynomial of the given total degree."""
    from nchilb.polynomial import monomial_symmetric

    partitions = [
        lam
        for lam in _partitions_of(degree)
        if len(lam) <= nvars
    ]
    total = SparsePoly.zero(nvars)
    for lam in partitions:
        total = total + rng.randint(-coef_bound, coef_bound) * monomial_symmetric(
            lam, nvars
        )
    return total


def _partitions_of(total, largest=None):
    if largest is None:
        largest = total
    if total == 0:
        yield ()
        return
    for part in range(min(total, largest), 0, -1):
        for rest in _partitions_of(total - part, part):
            yield (part,) + rest


# ---------------------------------------------------------------------------
# the bialternant oracle: rho as a signed sum over permutations and an exact division


class NonDivisibleError(ArithmeticError):
    """Raised by exact_divide when the divisor does not divide the dividend."""


def _lex_lead(poly):
    return max(poly.terms)


def exact_divide(a, b):
    """Quotient a / b when b divides a exactly; raises NonDivisibleError otherwise."""
    if not isinstance(a, SparsePoly) or not isinstance(b, SparsePoly):
        raise TypeError("exact_divide expects polynomials")
    if a.nvars != b.nvars:
        raise ValueError(f"variable count mismatch: {a.nvars} vs {b.nvars}")
    if b.is_zero():
        raise NonDivisibleError("division by the zero polynomial")
    if a.is_zero():
        return a
    lead_b = _lex_lead(b)
    coef_b = b.terms[lead_b]
    quotient = {}
    rest = dict(a.terms)
    while rest:
        lead = max(rest)
        diff = tuple(x - y for x, y in zip(lead, lead_b))
        if any(d < 0 for d in diff):
            raise NonDivisibleError(f"{b} does not divide {a}")
        q = rest[lead] / coef_b
        quotient[diff] = q
        for exp, coef in b.terms.items():
            target = tuple(d + e for d, e in zip(diff, exp))
            acc = rest.get(target, 0) - q * coef
            if acc:
                rest[target] = acc
            else:
                rest.pop(target, None)
    return SparsePoly(a.nvars, quotient)


def _signed_permutations(d):
    perms = []
    for sigma in itertools.permutations(range(d)):
        inversions = sum(
            1
            for i in range(d)
            for j in range(i + 1, d)
            if sigma[i] > sigma[j]
        )
        perms.append((sigma, -1 if inversions & 1 else 1))
    return tuple(perms)


@functools.lru_cache(maxsize=None)
def discriminant(d):
    """The Vandermonde product of (x_j - x_i) over i < j; 1 for d <= 1."""
    poly = SparsePoly.const(d, 1)
    for i in range(d):
        for j in range(i + 1, d):
            poly = poly * (SparsePoly.variable(d, j) - SparsePoly.variable(d, i))
    return poly


def antisymmetrize(f):
    """Signed sum of f over all permutations of its variables."""
    total = SparsePoly.zero(f.nvars)
    for sigma, sign in _signed_permutations(f.nvars):
        image = f.permute(sigma)
        total = total + (image if sign > 0 else -image)
    return total


def oracle_rho(f):
    """The antisymmetrization of f divided by the discriminant, by long division."""
    if f.nvars <= 1:
        return f
    return exact_divide(antisymmetrize(f), discriminant(f.nvars))


def oracle_rho_pq(f, p, q):
    """The signed sum over S_p x S_q divided by the two block discriminants."""
    d = p + q
    total = SparsePoly.zero(d)
    for left, sign_l in _signed_permutations(p):
        for right, sign_r in _signed_permutations(q):
            image = f.permute(left + tuple(p + i for i in right))
            total = total + (image if sign_l * sign_r > 0 else -image)
    blocks = _place(discriminant(p), tuple(range(p)), d) * _place(
        discriminant(q), tuple(range(p, d)), d
    )
    return exact_divide(total, blocks)


# ---------------------------------------------------------------------------
# x-space oracles


def _swap(d, i):
    sigma = list(range(d))
    sigma[i], sigma[i + 1] = sigma[i + 1], sigma[i]
    return tuple(sigma)


def oracle_is_symmetric(f, block=None):
    """Invariance under the adjacent transpositions that generate the group."""
    d = f.nvars
    if block is None:
        ranges = [(0, d)]
    else:
        p, q = block
        ranges = [(0, p), (p, p + q)]
    return all(
        f.permute(_swap(d, i)) == f for lo, hi in ranges for i in range(lo, hi - 1)
    )


def oracle_to_elementary(f):
    """Descent in x-space: subtract fully expanded e-monomials in all d variables."""
    d = f.nvars
    remainder = f
    result = {}
    while remainder.terms:
        lead = max(remainder.terms)
        if any(lead[i] < lead[i + 1] for i in range(d - 1)):
            raise ValueError("polynomial is not symmetric")
        coef = remainder.terms[lead]
        e_exp = tuple(lead[i] - (lead[i + 1] if i + 1 < d else 0) for i in range(d))
        result[e_exp] = coef
        expansion = SparsePoly.const(d, 1)
        for i, a in enumerate(e_exp):
            if a:
                expansion = expansion * elementary_symmetric(i + 1, d) ** a
        remainder = remainder - coef * expansion
    return SparsePoly(d, result)


def oracle_from_elementary(g):
    """g at e_i = elementary_symmetric(i, d): each term a product of x-space powers."""
    d = g.nvars
    total = SparsePoly.zero(d)
    for exp, coef in g.terms.items():
        term = SparsePoly.const(d, coef)
        for i, a in enumerate(exp):
            term = term * elementary_symmetric(i + 1, d) ** a
        total = total + term
    return total


def oracle_raise(part, k):
    """m_part * e_k as {nu: coefficient}, enumerated on the runs of one partition.

    Raising any j entries of one run of equal parts gives the same nu, so
    each run b raises its first j_b.  The coefficient of nu counts the
    k-subsets S with sort(nu - 1_S) = part: when run b - 1 is exactly one
    higher, S may take any j_b of the j_b + (its unraised) equal entries.
    """
    d = len(part)
    starts = [i for i in range(d) if i == 0 or part[i] != part[i - 1]]
    runs = [(start, end - start) for start, end in zip(starts, starts[1:] + [d])]
    found = [(part, 1, k, 0)]  # (nu, coefficient, entries left, unraised of the last run)
    for b, (start, length) in enumerate(runs):
        adjacent = b > 0 and part[runs[b - 1][0]] == part[start] + 1
        later = d - start - length  # entries after this run
        grown = []
        for nu, coef, left, above in found:
            above = above if adjacent else 0
            if left <= later:
                grown.append((nu, coef, left, length))
            for j in range(max(1, left - later), min(length, left) + 1):
                raised = nu[:start] + tuple(a + 1 for a in nu[start : start + j]) + nu[start + j :]
                grown.append((raised, coef * math.comb(j + above, j), left - j, length - j))
        found = grown
    return {nu: coef for nu, coef, left, _ in found if not left}


def _place(poly, positions, nvars):
    terms = {}
    for exp, coef in poly.terms.items():
        new = [0] * nvars
        for i, a in enumerate(exp):
            new[positions[i]] = a
        terms[tuple(new)] = coef
    return SparsePoly(nvars, terms)


def oracle_shuffle(f, p, g, q, m):
    """Shuffle product of f (p variables) and g (q variables), one term per subset.

    Sums f(x_I) g(x_J) prod_{i in I, j in J} (x_j - x_i)^(m-1) over the
    p-subsets I; for m = 0 the sum is kept as one fraction and divided out.
    """
    d = p + q
    if p == 0 or q == 0:
        return _place(f, tuple(range(p)), d) * _place(g, tuple(range(p, d)), d)
    numerator = SparsePoly.zero(d)
    denominator = SparsePoly.const(d, 1)
    for left in itertools.combinations(range(d), p):
        right = tuple(j for j in range(d) if j not in left)
        term = _place(f, left, d) * _place(g, right, d)
        kernel = SparsePoly.const(d, 1)
        for i in left:
            for j in right:
                kernel = kernel * (SparsePoly.variable(d, j) - SparsePoly.variable(d, i))
        if m >= 1:
            numerator = numerator + term * kernel ** (m - 1)
        else:
            numerator = numerator * kernel + term * denominator
            denominator = denominator * kernel
    try:
        return exact_divide(numerator, denominator)
    except NonDivisibleError as exc:
        raise AssertionError("shuffle sum is not a polynomial") from exc


def oracle_kernel_power(p, q, power):
    """prod_{i<=p<j} (x_j - x_i)^power in p + q variables, multiplied out factor by factor."""
    x = [SparsePoly.variable(p + q, i) for i in range(p + q)]
    factors = ((x[j] - x[i]) ** power for i in range(p) for j in range(p, p + q))
    return math.prod(factors, start=SparsePoly.const(p + q, 1))


def oracle_kernel_generators(d, m):
    """The x-space polynomials s_lam * (e_q cup 1), in the library's order."""
    return [
        oracle_shuffle(schur(lam, p), p, elementary_symmetric(d - p, d - p), d - p, m)
        for p in range(d)
        for lam in partitions_in_box(p, d - p)
    ]


# ---------------------------------------------------------------------------
# quotient oracles: exhaustive walks over a box and a weighted cone


def _box(bounds):
    if not bounds:
        yield ()
        return
    for head in range(bounds[0]):
        for rest in _box(bounds[1:]):
            yield (head,) + rest


def _weighted_cone(weights, max_deg):
    if not weights:
        yield ()
        return
    w = weights[0]
    for head in range(max_deg // w + 1):
        for rest in _weighted_cone(weights[1:], max_deg - w * head):
            yield (head,) + rest


def _outside(heads, exp):
    return not any(all(h <= a for h, a in zip(head, exp)) for head in heads)


def _pure_power_bounds(heads, nvars):
    """For each variable the least pure-power head exponent, or None; zeros for the unit ideal."""
    if any(not any(head) for head in heads):
        return [0] * nvars
    bounds = [None] * nvars
    for head in heads:
        support = [i for i, a in enumerate(head) if a]
        if len(support) == 1:
            i = support[0]
            if bounds[i] is None or head[i] < bounds[i]:
                bounds[i] = head[i]
    return bounds


def oracle_is_finite_dimensional(heads, nvars):
    return all(b is not None for b in _pure_power_bounds(heads, nvars))


def oracle_standard_monomials(heads, weights):
    """Every monomial of the pure-power box outside the head ideal, in the monomial order.

    The order is weighted degree first, then reverse lexicography; raises
    ValueError when some variable has no pure-power head.
    """
    bounds = _pure_power_bounds(heads, len(weights))
    if any(b is None for b in bounds):
        raise ValueError("quotient is not finite-dimensional")
    found = [exp for exp in _box(bounds) if _outside(heads, exp)]
    return sorted(
        found,
        key=lambda exp: (
            sum(w * a for w, a in zip(weights, exp)),
            tuple(-a for a in reversed(exp)),
        ),
    )


def oracle_hilbert_function(heads, weights, max_deg):
    """Monomials outside the head ideal by weighted degree, from the whole cone."""
    counts = [0] * (max_deg + 1)
    for exp in _weighted_cone(tuple(weights), max_deg):
        if _outside(heads, exp):
            counts[sum(w * a for w, a in zip(weights, exp))] += 1
    return counts


def oracle_minimal_generator_subset(gens, weights):
    """Drop the first generator that the others generate, then start over from index 0."""
    from nchilb.groebner import buchberger

    current = list(gens)
    changed = True
    while changed:
        changed = False
        for i, g in enumerate(current):
            rest = current[:i] + current[i + 1 :]
            if not rest:
                continue
            if buchberger(rest, weights).contains(g):
                current = rest
                changed = True
                break
    return current


@contextlib.contextmanager
def time_limit(seconds=10):
    """Raise TimeoutError after `seconds` instead of hanging.

    A wrong divisibility test, a stale head lookup or a weakened pair
    criterion can keep Buchberger adding polynomials forever; a test that
    runs it under a limit then fails instead of stalling the suite.
    """

    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# ---------------------------------------------------------------------------
# tuple-exponent Buchberger: the chain criterion over the pairs done, and
# division that rescans the pending terms for the largest one at every step


def _linearly_independent(polys):
    """Exact check that the polynomials are linearly independent over the rationals.

    Each one is reduced against the pivots of the ones before it; the first
    that reduces to zero is a dependence.
    """
    from nchilb.groebner import _add_pivot

    pivots = {}
    return all(_add_pivot(pivots, dict(p.terms)) for p in polys)


def oracle_verify_chern_basis(m, d, gb):
    """The B-tuple monomials are as many as the quotient dimension, and all their normal forms independent."""
    from nchilb.groebner import normal_form
    from nchilb.presentation import chern_monomial

    if not gb.is_finite_dimensional():
        return False
    btuples = enumerate_btuples(m, d, 1)
    if len(btuples) != gb.quotient_dimension():
        return False
    return _linearly_independent([normal_form(chern_monomial(b, d), gb) for b in btuples])


def oracle_order_key(exp, weights):
    """Weighted degree, then reverse lexicography: the later last difference wins when negative."""
    wdeg = 0
    for w, a in zip(weights, exp):
        wdeg += w * a
    return (wdeg, tuple(-a for a in reversed(exp)))


def oracle_packed_key(exp, weights):
    """The engine's order key by its first formula: weighted degree times 2^(32 n) less the packed w_i a_i.

    The weighted exponents w_i a_i are little-endian unsigned 32-bit fields
    of one `struct` call, and the weighted degree is their sum; one of 2^31
    or more raises OverflowError.
    """
    fields = [w * a for w, a in zip(weights, exp)]
    wdeg = sum(fields)
    if wdeg >= 1 << 31:
        raise OverflowError(
            f"weighted degree {wdeg} is too large: packed monomials need weighted degree < 2**31"
        )
    packed = int.from_bytes(struct.pack(f"<{len(exp)}I", *fields), "little")
    return wdeg * (1 << (32 * len(exp))) - packed


def oracle_divides(small, big):
    return all(s <= b for s, b in zip(small, big))


def _oracle_leading(poly, weights):
    return max(poly.terms, key=lambda exp: oracle_order_key(exp, weights))


def _oracle_monic(poly, weights):
    lead = _oracle_leading(poly, weights)
    coef = poly.terms[lead]
    if coef == 1:
        return poly
    inv = 1 / coef
    return SparsePoly._make(poly.nvars, {e: c * inv for e, c in poly.terms.items()})


def _oracle_reduce(poly, basis, leads, weights):
    remainder = {}
    work = dict(poly.terms)
    key = lambda exp: oracle_order_key(exp, weights)
    while work:
        lead = max(work, key=key)
        coef = work.pop(lead)
        if not coef:
            continue
        for g, g_lead in zip(basis, leads):
            if oracle_divides(g_lead, lead):
                shift = tuple(a - b for a, b in zip(lead, g_lead))
                for exp, c in g.terms.items():
                    if exp == g_lead:
                        continue
                    target = tuple(s + e for s, e in zip(shift, exp))
                    acc = work.get(target, 0) - coef * c
                    if acc:
                        work[target] = acc
                    else:
                        work.pop(target, None)
                break
        else:
            remainder[lead] = coef
    return SparsePoly._make(poly.nvars, remainder)


def oracle_normal_form(poly, polys, weights):
    """Remainder of poly on division by the monic polys, first divisor in list order."""
    leads = [_oracle_leading(g, weights) for g in polys]
    return _oracle_reduce(poly, list(polys), leads, weights)


def _oracle_spoly(f, f_lead, g, g_lead, nvars):
    lcm = tuple(max(a, b) for a, b in zip(f_lead, g_lead))
    shift_f = tuple(l - a for l, a in zip(lcm, f_lead))
    shift_g = tuple(l - b for l, b in zip(lcm, g_lead))
    terms = {}
    for exp, c in f.terms.items():
        target = tuple(s + e for s, e in zip(shift_f, exp))
        terms[target] = terms.get(target, 0) + c
    for exp, c in g.terms.items():
        target = tuple(s + e for s, e in zip(shift_g, exp))
        acc = terms.get(target, 0) - c
        if acc:
            terms[target] = acc
        else:
            terms.pop(target, None)
    return SparsePoly._make(nvars, terms)


def oracle_buchberger(gens, weights):
    """Reduced basis polys: coprime and chain criteria, pairs by weighted degree of the lcm."""
    gens = [g for g in gens if not g.is_zero()]
    nvars = gens[0].nvars
    weights = tuple(weights)
    basis, leads = [], []
    queue, done = [], set()
    counter = itertools.count()

    def wdeg(exp):
        return sum(w * a for w, a in zip(weights, exp))

    def add(poly):
        poly = _oracle_monic(poly, weights)
        basis.append(poly)
        leads.append(_oracle_leading(poly, weights))
        j = len(basis) - 1
        for i in range(j):
            lcm = tuple(max(a, b) for a, b in zip(leads[i], leads[j]))
            heapq.heappush(queue, (wdeg(lcm), next(counter), i, j, lcm))

    for g in sorted(gens, key=lambda p: oracle_order_key(_oracle_leading(p, weights), weights)):
        reduced = _oracle_reduce(g, basis, leads, weights)
        if not reduced.is_zero():
            add(reduced)

    while queue:
        _, _, i, j, lcm = heapq.heappop(queue)
        done.add((i, j))
        if all(a + b == l for a, b, l in zip(leads[i], leads[j], lcm)):
            continue
        if any(
            k not in (i, j)
            and oracle_divides(leads[k], lcm)
            and (min(i, k), max(i, k)) in done
            and (min(j, k), max(j, k)) in done
            for k in range(len(basis))
        ):
            continue
        s = _oracle_reduce(_oracle_spoly(basis[i], leads[i], basis[j], leads[j], nvars), basis, leads, weights)
        if not s.is_zero():
            add(s)

    keep = [
        i
        for i, lead in enumerate(leads)
        if not any(j != i and oracle_divides(leads[j], lead) for j in range(len(leads)))
    ]
    reduced = []
    for i in keep:
        others = [basis[k] for k in keep if k != i]
        other_leads = [leads[k] for k in keep if k != i]
        reduced.append((leads[i], _oracle_monic(_oracle_reduce(basis[i], others, other_leads, weights), weights)))
    reduced.sort(key=lambda item: oracle_order_key(item[0], weights))
    return tuple(poly for _, poly in reduced)


def oracle_new_pairs(new, lead, leads, divides):
    """The new pairs to queue, by the quadratic thinning loop over (lcm key, member).

    A pair goes when the lcm of a later pair, or of a pair kept so far,
    divides its own, unless its heads are coprime; coprime pairs are kept
    for that test and then dropped, their S-polynomials being zero.
    """
    kept = []
    for k, (l, g) in enumerate(new):
        if l == leads[g] + lead or not any(divides(m, l) for m, _ in new[k + 1 :] + kept):
            kept.append((l, g))
    return [(l, g) for l, g in kept if l != leads[g] + lead]


def _oracle_eval_params(coef_terms, values):
    total = 0
    for exp, coef in coef_terms.items():
        term = coef
        for v, a in zip(values, exp):
            term *= v**a
        total += term
    return total


def _oracle_specialize(poly, local_vars, values):
    terms = {}
    for exp, coef in poly.terms.items():
        factor = coef
        for v, a in zip(values, exp[local_vars:]):
            factor *= v**a
        local = exp[:local_vars]
        terms[local] = terms.get(local, 0) + factor
    return SparsePoly(local_vars, terms)


def oracle_local_multiplicity(polys, trials=5, seed=0, local_vars=2):
    """Minimal quotient dimension over random specializations, screened by leading coefficient."""
    return min(oracle_trial_dimensions(polys, trials, seed, local_vars))


def oracle_trial_dimensions(polys, trials=5, seed=0, local_vars=2):
    """The quotient dimension of each random specialization, screened by leading coefficient.

    Each attempt evaluates the parameter polynomial that multiplies every
    generator's graded-lex-leading local monomial, and specializes only
    once all of them are nonzero; zero specializations are dropped.
    """
    from nchilb.groebner import buchberger

    n_params = polys[0].nvars - local_vars
    leading = []
    for poly in polys:
        by_local = {}
        for exp, coef in poly.terms.items():
            by_local.setdefault(exp[:local_vars], {})[exp[local_vars:]] = coef
        leading.append(by_local[max(by_local, key=lambda e: (sum(e), e))])
    rng = random.Random(seed)
    dimensions = []
    for _ in range(trials):
        for _attempt in range(1000):
            values = [Fraction(rng.randint(-100, 100)) for _ in range(n_params)]
            if all(_oracle_eval_params(c, values) for c in leading):
                break
        else:
            continue
        specialized = [_oracle_specialize(p, local_vars, values) for p in polys]
        specialized = [p for p in specialized if not p.is_zero()]
        if not specialized:
            continue
        gb = buchberger(specialized, (1,) * local_vars)
        if gb.is_finite_dimensional():
            dimensions.append(gb.quotient_dimension())
    if len(dimensions) < trials:
        raise RuntimeError(f"only {len(dimensions)} of {trials} specializations were usable")
    return dimensions


# ---------------------------------------------------------------------------
# the regex text parser: one match per term, Fraction(str) per coefficient

_TERM_RE = re.compile(r"^(?P<coef>\d+(?:/\d+)?)(?P<factors>(?:\*[a-z]\d+(?:\^\d+)?)*)$")
_FACTOR_RE = re.compile(r"\*([a-z])(\d+)(?:\^(\d+))?")


def oracle_poly_from_text(s, nvars=None):
    """The canonical text grammar by regex.

    `$` also matches before a term's trailing newline, and a zero
    denominator raises ZeroDivisionError from `Fraction`.
    """
    if nvars is not None and nvars < 0:
        raise ValueError(f"variable count must be non-negative, got {nvars}")
    s = s.strip()
    if s == "0":
        return SparsePoly.zero(nvars or 0)
    sign = 1
    if s.startswith("-"):
        sign = -1
        s = s[1:]
    chunks = re.split(r" ([+-]) ", s)
    terms = []
    current_sign = sign
    name = None
    for i, piece in enumerate(chunks):
        if i % 2 == 1:
            current_sign = 1 if piece == "+" else -1
            continue
        match = _TERM_RE.match(piece)
        if not match:
            raise ValueError(f"cannot parse polynomial term {piece!r}")
        coef = Fraction(match.group("coef")) * current_sign
        factors = {}
        for fmatch in _FACTOR_RE.finditer(match.group("factors")):
            letter, index, power = fmatch.group(1), int(fmatch.group(2)), fmatch.group(3)
            if name is None:
                name = letter
            elif letter != name:
                raise ValueError("mixed variable families in one polynomial")
            if index < 1:
                raise ValueError(f"variable index {index} out of range")
            factors[index - 1] = factors.get(index - 1, 0) + (int(power) if power else 1)
        terms.append((coef, factors))
    width = nvars
    if width is None:
        width = max((max(f) + 1 for _, f in terms if f), default=0)
    acc = {}
    for coef, factors in terms:
        if factors and max(factors) >= width:
            raise ValueError(f"variable index exceeds {width} variables")
        exp = tuple(factors.get(i, 0) for i in range(width))
        acc[exp] = acc.get(exp, Fraction(0)) + coef
    return SparsePoly._make(width, acc)
