"""Exact sparse multivariate polynomial arithmetic and symmetric functions.

Polynomials are stored sparsely as a map from exponent vectors to nonzero
rational coefficients.  On top of the ring operations this module provides
the symmetric-function toolbox used everywhere else: elementary, monomial
and Schur symmetric polynomials, the operator rho (antisymmetrize, then
divide by the Vandermonde discriminant) for the full symmetric group and
for a two-block Young subgroup, and the change of basis from symmetric
polynomials in x-variables to polynomials in the elementary symmetric
generators.  rho is read off the terms: each term with distinct block
entries contributes a signed product of Schur polynomials, expanded into
monomial symmetric functions by Kostka numbers.  Symmetry checks and the
change of basis work on the coefficients of the sorted exponents, that is
on partitions; SymmetricPoly holds a symmetric polynomial in that form,
with integer coefficients over one denominator, and expands it into
x-space only when asked, keeping no expanded copy.  The change of basis
runs on partitions packed into ints, and on e-exponents packed the same
way, caching e-monomial rows without e_d.
"""

import heapq
import itertools
import math
import operator
import re
import struct
from array import array
from functools import lru_cache

from .rationals import QQ

__all__ = [
    "SparsePoly",
    "SymmetricPoly",
    "elementary_symmetric",
    "monomial_symmetric",
    "schur",
    "rho",
    "rho_pq",
    "is_symmetric",
    "to_elementary",
    "from_elementary",
    "is_partition",
    "partitions_in_box",
    "poly_to_text",
    "poly_from_text",
    "poly_to_json",
    "poly_from_json",
]

_ZERO = QQ(0)
_ONE = QQ(1)


def _check_nvars(nvars):
    if nvars < 0:
        raise ValueError(f"variable count must be non-negative, got {nvars}")


class SparsePoly:
    """Sparse polynomial with exact rational coefficients.

    `terms` maps exponent tuples of length `nvars` to nonzero rationals, e.g.
    x1^2*x2 - 3/2 in two variables is SparsePoly(2, {(2, 1): 1, (0, 0): -3/2}).
    Instances are value-like: never mutated after construction, and hashable.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        _check_nvars(nvars)
        clean = {}
        if terms:
            for exp, coef in terms.items():
                if len(exp) != nvars:
                    raise ValueError(
                        f"exponent vector {exp} has length {len(exp)}, expected {nvars}"
                    )
                if any(type(a) is not int or a < 0 for a in exp):
                    raise ValueError(f"exponent vector {exp} has a non-int or negative exponent")
                coef = QQ(coef)
                if coef:
                    clean[tuple(exp)] = coef
        self.nvars = nvars
        self.terms = clean

    @classmethod
    def _make(cls, nvars, terms):
        # internal fast path: terms is a fresh dict, zero coefficients allowed
        _check_nvars(nvars)
        self = object.__new__(cls)
        self.nvars = nvars
        self.terms = {e: c for e, c in terms.items() if c}
        return self

    @classmethod
    def zero(cls, nvars):
        return cls._make(nvars, {})

    @classmethod
    def const(cls, nvars, value):
        return cls._make(nvars, {(0,) * nvars: QQ(value)})

    @classmethod
    def monomial(cls, nvars, exp):
        return cls(nvars, {tuple(exp): 1})

    @classmethod
    def variable(cls, nvars, index):
        """The variable x_{index+1} (0-based index)."""
        if not 0 <= index < nvars:
            raise ValueError(f"variable index {index} out of range for {nvars} variables")
        exp = [0] * nvars
        exp[index] = 1
        return cls._make(nvars, {tuple(exp): _ONE})

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def _coerce(self, other):
        if isinstance(other, SparsePoly):
            if other.nvars != self.nvars:
                raise ValueError(
                    f"variable count mismatch: {self.nvars} vs {other.nvars}"
                )
            return other
        return SparsePoly.const(self.nvars, other)

    def __add__(self, other):
        other = self._coerce(other)
        terms = dict(self.terms)
        for exp, coef in other.terms.items():
            acc = terms.get(exp)
            if acc is None:
                terms[exp] = coef
            else:
                acc = acc + coef
                if acc:
                    terms[exp] = acc
                else:
                    del terms[exp]
        result = object.__new__(SparsePoly)
        result.nvars = self.nvars
        result.terms = terms
        return result

    __radd__ = __add__

    def __neg__(self):
        return SparsePoly._make(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, SparsePoly):
            coef = QQ(other)
            if not coef:
                return SparsePoly.zero(self.nvars)
            return SparsePoly._make(
                self.nvars, {e: c * coef for e, c in self.terms.items()}
            )
        if other.nvars != self.nvars:
            raise ValueError(f"variable count mismatch: {self.nvars} vs {other.nvars}")
        if len(self.terms) > len(other.terms):
            self, other = other, self
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                acc = terms.get(exp)
                terms[exp] = c1 * c2 if acc is None else acc + c1 * c2
        return SparsePoly._make(self.nvars, terms)

    __rmul__ = __mul__

    def __pow__(self, exponent):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = SparsePoly.const(self.nvars, 1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def weighted_degree(self, weights):
        """Max weighted degree; -1 for the zero polynomial.  One weight per variable."""
        if len(weights) != self.nvars:
            raise ValueError(f"need {self.nvars} weights, one per variable, got {len(weights)}")
        if not self.terms:
            return -1
        return max(sum(w * a for w, a in zip(weights, e)) for e in self.terms)

    def constant(self):
        """Coefficient of the constant term."""
        return self.terms.get((0,) * self.nvars, _ZERO)

    def coefficient(self, exp):
        return self.terms.get(tuple(exp), _ZERO)

    def permute(self, sigma):
        """Apply x_i -> x_{sigma(i)} where sigma is a 0-based image tuple."""
        if sorted(sigma) != list(range(self.nvars)):
            raise ValueError(f"{tuple(sigma)} is not a permutation of 0..{self.nvars - 1}")
        terms = {}
        for exp, coef in self.terms.items():
            new = [0] * self.nvars
            for i, a in enumerate(exp):
                new[sigma[i]] = a
            terms[tuple(new)] = coef
        return SparsePoly._make(self.nvars, terms)

    def __repr__(self):
        return f"SparsePoly({self.nvars}, {poly_to_text(self)!r})"

    def __str__(self):
        return poly_to_text(self)


class SymmetricPoly:
    """A symmetric polynomial on partitions, over one integer denominator.

    `coefficients` maps partitions, padded with zeros to `nvars` parts, to
    nonzero integers: the polynomial is the sum of coefficients[mu] /
    denominator times the monomial symmetric function m_mu.  This is the
    form that shuffle products and the change of basis compute with;
    `poly` expands it into x-space on each read and keeps no copy.  A
    negative `nvars`, a key that is no such partition, or a denominator
    that is not a positive int raises ValueError.  Not mutated after
    construction.
    """

    __slots__ = ("nvars", "coefficients", "denominator")

    def __init__(self, nvars, coefficients, denominator=1):
        _check_nvars(nvars)
        for mu in coefficients:
            # nvars int parts, each at least the next and the last at least 0
            if len(mu) != nvars or any(type(a) is not int or a < b for a, b in zip(mu, mu[1:] + (0,))):
                raise ValueError(f"{mu} is not a partition padded to {nvars} parts")
        if type(denominator) is not int or denominator < 1:
            raise ValueError(f"denominator must be a positive int, got {denominator!r}")
        self.nvars = nvars
        self.coefficients = {mu: c for mu, c in coefficients.items() if c}
        self.denominator = denominator

    @classmethod
    def _make(cls, nvars, coefficients, denominator=1):
        # internal fast path: every key a padded partition, zero coefficients allowed
        self = object.__new__(cls)
        self.nvars = nvars
        self.coefficients = {mu: c for mu, c in coefficients.items() if c}
        self.denominator = denominator
        return self

    @classmethod
    def from_poly(cls, f):
        """The partition form of a SparsePoly; ValueError unless f is symmetric."""
        coefficients = _orbit_coefficients(f, f.nvars)
        if coefficients is None:
            raise ValueError("polynomial is not symmetric")
        return cls(f.nvars, *_clear_denominators(coefficients))

    @property
    def poly(self):
        """The x-space SparsePoly, every monomial of every orbit, expanded on each read."""
        return SparsePoly._make(self.nvars, _spread(self._rationals(), self.nvars))

    def is_zero(self):
        return not self.coefficients

    def _rationals(self):
        return {mu: QQ(c, self.denominator) for mu, c in self.coefficients.items()}

    def __eq__(self, other):
        if not isinstance(other, SymmetricPoly):
            return NotImplemented
        return self.nvars == other.nvars and self._rationals() == other._rationals()

    def __hash__(self):
        return hash((self.nvars, frozenset(self._rationals().items())))

    def __repr__(self):
        return f"SymmetricPoly({self.nvars}, {self.coefficients!r}, {self.denominator})"


# ---------------------------------------------------------------------------
# symmetric-function constructors


@lru_cache(maxsize=None)
def elementary_symmetric(k, d):
    """e_k in d variables; e_0 = 1, and by convention zero for k > d."""
    if k < 0:
        raise ValueError("k must be non-negative")
    _check_nvars(d)
    if k > d:
        return SparsePoly.zero(d)
    return monomial_symmetric((1,) * k, d)


def monomial_symmetric(lam, d):
    """Sum of the distinct monomials whose exponent multiset is the partition lam."""
    return SparsePoly._make(d, dict.fromkeys(_orbit(_padded(lam, d)), _ONE))


def _padded(lam, d):
    """lam padded with zeros to d parts; ValueError unless it is a partition of at most d parts."""
    lam = tuple(lam)
    if not is_partition(lam):
        raise ValueError(f"{lam} is not a partition")
    lam = tuple(part for part in lam if part)
    if len(lam) > d:
        raise ValueError(f"partition {lam} has more than {d} parts")
    return lam + (0,) * (d - len(lam))


def rho(f):
    """Antisymmetrize f and divide by the discriminant; the result is symmetric."""
    return _alternate(f, f.nvars)


def rho_pq(f, p, q):
    """Block antisymmetrization over S_p x S_q acting on x_1..x_p and x_{p+1}..x_d."""
    _check_blocks(p, q)
    if f.nvars != p + q:
        raise ValueError(f"polynomial has {f.nvars} variables, expected {p + q}")
    return _alternate(f, p)


def _check_blocks(p, q):
    if p < 0 or q < 0:
        raise ValueError(f"block sizes must be non-negative, got ({p},{q})")


def _alternate(f, p):
    """rho over S_p x S_q, the blocks x_1..x_p and the rest; p = f.nvars is S_d.

    The alternant of a monomial over one block is zero when an exponent
    repeats, and otherwise sign * a_{lam + delta}, so that its quotient by
    the block discriminant is sign * s_lam (the bialternant formula).  Each
    term therefore gives a signed product of two Schur polynomials, summed
    on monomial-symmetric coefficients and expanded one orbit pair at a time.
    """
    return SparsePoly._make(f.nvars, _spread(_alternate_sums(f.terms, p), p))


def _alternate_sums(terms, p):
    """rho over S_p x S_q of a map from exponents to coefficients, on partitions.

    Returns the coefficient of m_mu(x_1..x_p) m_nu(x_{p+1}..) under the key
    mu + nu, both padded; zero sums are kept.
    """
    sums = {}
    for exp, coef in terms.items():
        left, right = _signed_schur(exp[:p]), _signed_schur(exp[p:])
        for mu, k in left:
            for nu, c in right:
                sums[mu + nu] = sums.get(mu + nu, 0) + coef * k * c
    return sums


@lru_cache(maxsize=None)
def _signed_schur(block):
    """rho of x^block over its own variables as ((padded mu, coefficient of m_mu), ..).

    The sign is the parity of the inversions of block against ascending
    order, and lam_i is the i-th largest entry minus the number of entries
    below it; a repeated entry gives ().
    """
    n = len(block)
    ordered = sorted(block)
    if any(a == b for a, b in zip(ordered, ordered[1:])):
        return ()
    inversions = sum(block[i] > block[j] for i in range(n) for j in range(i + 1, n))
    sign = -1 if inversions & 1 else 1
    lam = tuple(a - i for i, a in enumerate(ordered) if a > i)[::-1]
    return tuple(
        (mu + (0,) * (n - len(mu)), sign * _kostka(lam, mu))
        for mu in partitions_in_box(n, lam[0] if lam else 0)
        if sum(mu) == sum(lam) and _kostka(lam, mu)
    )


@lru_cache(maxsize=None)
def _kostka(lam, mu):
    """Kostka number K_{lam mu}: semistandard tableaux of shape lam and content mu.

    Both are tuples of positive parts.  The mu_k entries equal to k =
    len(mu) fill a horizontal strip lam / nu, so K_{lam mu} sums K_{nu mu'},
    mu' = mu without mu_k, over the nu with lam_1 >= nu_1 >= lam_2 >= nu_2
    >= .. and |nu| = |lam| - mu_k.
    """
    if not mu:
        return 0 if lam else 1
    if sum(lam) != sum(mu) or len(lam) > len(mu):
        return 0
    ranges = [range(low, high + 1) for high, low in zip(lam, lam[1:] + (0,))]
    size = sum(lam) - mu[-1]
    return sum(
        _kostka(tuple(part for part in nu if part), mu[:-1])
        for nu in itertools.product(*ranges)
        if sum(nu) == size
    )


@lru_cache(maxsize=None)
def _stabilizer_order(part):
    """Number of permutations fixing a tuple."""
    return math.prod(map(math.factorial, map(part.count, set(part))))


def _orbit_size(part):
    """Number of distinct rearrangements of a weakly decreasing tuple."""
    return math.factorial(len(part)) // _stabilizer_order(part)


@lru_cache(maxsize=None)
def _arrangements(counts):
    """One itemgetter per distinct word with counts[i] letters i, in no set order.

    Applied to a tuple of len(counts) values, each returns one rearrangement.
    """
    words = [()]
    for letter, count in enumerate(counts):
        grown = []
        for word in words:
            for spots in itertools.combinations(range(len(word) + count), count):
                new = list(word)
                for spot in spots:  # increasing, so each lands at its final index
                    new.insert(spot, letter)
                grown.append(tuple(new))
        words = grown
    return tuple(operator.itemgetter(*word) for word in words)


def _orbit(part):
    """All distinct rearrangements of a tuple."""
    if len(part) < 2:
        return [part]
    counts = {}
    for value in part:
        counts[value] = counts.get(value, 0) + 1
    values = tuple(counts)
    return [get(values) for get in _arrangements(tuple(counts.values()))]


def _spread(coefficients, p):
    """Each nonzero coefficient on every S_p x S_q rearrangement of its key, in a new dict.

    S_p permutes the first p entries and S_q the rest; p = len(key) is S_d.
    """
    terms = {}
    for key, coef in coefficients.items():
        if coef:
            right = _orbit(key[p:])
            for mu in _orbit(key[:p]):
                for nu in right:
                    terms[mu + nu] = coef
    return terms


def _orbit_coefficients(f, p):
    """The coefficients of f on the sorted representatives of its S_p x S_q orbits.

    S_p permutes x_1..x_p and S_q the remaining variables; p = f.nvars
    gives the full symmetric group.  Returns None unless f is invariant:
    every coefficient must equal that of its representative, and every
    orbit must be complete.
    """
    terms = f.terms
    members = {}
    for exp, coef in terms.items():
        rep = tuple(sorted(exp[:p], reverse=True)) + tuple(sorted(exp[p:], reverse=True))
        found = terms.get(rep)
        if found is not coef and found != coef:
            return None
        members[rep] = members.get(rep, 0) + 1
    for rep, count in members.items():
        if count != _orbit_size(rep[:p]) * _orbit_size(rep[p:]):
            return None
    return {rep: terms[rep] for rep in members}


def _clear_denominators(coefficients):
    """A map of rationals as integers over one common denominator: (integers, denominator)."""
    denom = math.lcm(*(c.denominator for c in coefficients.values()))
    if denom == 1:
        return {key: c.numerator for key, c in coefficients.items()}, 1
    return {key: c.numerator * (denom // c.denominator) for key, c in coefficients.items()}, denom


def is_symmetric(f, block=None):
    """Invariance of f under a permutation group of its variables.

    block=None checks the full symmetric group; block=(p, q) checks the
    Young subgroup permuting x_1..x_p and x_{p+1}..x_{p+q} separately.
    """
    d = f.nvars
    if block is None:
        return _orbit_coefficients(f, d) is not None
    p, q = block
    _check_blocks(p, q)
    if p + q != d:
        raise ValueError(f"block ({p},{q}) does not cover {d} variables")
    return _orbit_coefficients(f, p) is not None


def schur(lam, d):
    """Schur polynomial s_lam in d variables: rho of the staircase-shifted monomial.

    The staircase grows toward x_d, following prod_{i<j}(x_j - x_i).
    """
    padded = _padded(lam, d)
    # exponent of x_{j+1} is lam_{d-j} + j: the staircase grows toward x_d
    exp = tuple(padded[d - 1 - j] + j for j in range(d))
    return rho(SparsePoly.monomial(d, exp))


def is_partition(lam):
    lam = tuple(lam)
    return all(
        isinstance(part, int) and part >= 0 for part in lam
    ) and all(lam[i] >= lam[i + 1] for i in range(len(lam) - 1))


def partitions_in_box(rows, cols):
    """All partitions with at most `rows` parts, each at most `cols`.

    Emitted in increasing lexicographic order of the padded part vector,
    starting with the empty partition; there are binomial(rows+cols, rows)
    of them.
    """
    if rows < 0 or cols < 0:
        raise ValueError(f"box sides must be non-negative, got {rows} x {cols}")
    out = []

    def gen(prefix):
        out.append(prefix)
        if len(prefix) == rows:
            return
        limit = prefix[-1] if prefix else cols
        for part in range(1, limit + 1):
            gen(prefix + (part,))

    gen(())
    return sorted(out, key=lambda lam: lam + (0,) * (rows - len(lam)))


# ---------------------------------------------------------------------------
# change of basis to elementary symmetric coordinates


def _width(top):
    """Bits per packed part for parts up to `top`: a whole struct field, at most 64."""
    for width in (8, 16, 32, 64):
        if not top >> width:
            return width
    raise OverflowError(f"part {top} does not fit a 64-bit field of a packed partition")


@lru_cache(maxsize=None)
def _layout(d, width):
    """(struct, packed (1, .., 1)) for d big-endian parts: lex order is int order."""
    codec = struct.Struct(f">{d}{'BHIQ'[(width // 8).bit_length() - 1]}")
    return codec, int.from_bytes(codec.pack(*[1] * d), "big")


def _pack(parts, width):
    """A tuple of parts as one int, each part in a field of `width` bits, the first highest."""
    codec = _layout(len(parts), width)[0]
    return int.from_bytes(codec.pack(*parts), "big")


def _unpack(key, d, width):
    codec = _layout(d, width)[0]
    return codec.unpack(key.to_bytes(codec.size, "big"))


@lru_cache(maxsize=None)
def _raise(key, k, d, width):
    """m_mu * e_k on packed partitions as (nu, coefficients); rows share these nu.

    The product depends on mu only through its run shape: field i of
    mu - ((mu << width) & mask) is mu_i - mu_{i+1}, here clamped at 2
    (equal, one apart, further apart) and without the last field.
    """
    ones = _layout(d, width)[1]
    diff = key - ((key << width) & ((1 << width * d) - 1))
    half = ones * ((1 << width - 1) - 1)
    wide = ((diff >> 1 & half) + half) >> width - 1 & ones  # 1 in each field of 2 or more
    deltas, coefs = _shape_raise((diff & ones & ~wide | wide << 1) >> width, k, d, width)
    return tuple(key + delta for delta in deltas), coefs


@lru_cache(maxsize=None)
def _shape_raise(shape, k, d, width):
    """The packed increments nu - mu and coefficients of m_mu * e_k for a run shape of `_raise`.

    Raising any j entries of one run of equal parts gives the same nu, so
    each run b raises its first j_b.  The coefficient of nu counts the
    k-subsets S with sort(nu - 1_S) = mu: when run b - 1 is exactly one
    higher, S may take any j_b of the j_b + (its unraised) equal entries.
    """
    ones = _layout(d, width)[1]
    found = [(0, 1, k, 0)]  # (delta, coefficient, entries left, unraised of the last run)
    start, gap = 0, 2
    for end, step in enumerate(_unpack(shape, d - 1, width) + (2,), 1):
        if not step:  # the run goes on
            continue
        length, later = end - start, d - end
        grown = []
        for delta, coef, left, above in found:
            above = above if gap == 1 else 0
            if left <= later:
                grown.append((delta, coef, left, length))
            for j in range(max(1, left - later), min(length, left) + 1):
                raised = delta + (ones >> width * (d - j) << width * (d - start - j))
                grown.append((raised, coef * math.comb(j + above, j), left - j, length - j))
        found = grown
        start, gap = end, step
    return tuple(f[0] for f in found if not f[2]), tuple(f[1] for f in found if not f[2])


@lru_cache(maxsize=None)
def _row(a, d, width):
    """prod_k e_k^{a_k} in d variables, a_d = 0, as (packed partitions, integers).

    The e-exponents a are packed as a partition is, a_1 in the highest
    field.  In d variables m_{mu + 1^d} = e_d m_mu, so callers drop a_d and
    add it to every part.  A row is built from the row of a with its first
    nonzero a_k lowered by one, the field of the highest set bit.  The
    integers are an int64 array unless one of them passes 2^63.
    """
    if not a:
        return (0,), (1,)
    shift = (a.bit_length() - 1) // width * width
    keys, coefs = _row(a - (1 << shift), d, width)
    k = d - shift // width
    out = {}
    get = out.get
    for mu, c in zip(keys, coefs):
        nus, counts = _raise(mu, k, d, width)
        for nu, count in zip(nus, counts):
            out[nu] = get(nu, 0) + c * count
    try:
        return tuple(out), array("q", out.values())
    except OverflowError:
        return tuple(out), tuple(out.values())


def to_elementary(f):
    """Rewrite a symmetric polynomial as a polynomial in e_1, .., e_d.

    f is a SymmetricPoly, or a SparsePoly that is read once into one and
    raises ValueError when it is not symmetric.  Classical descent: pop the
    lex-leading packed partition from a heap and subtract the e-monomial
    whose expansion leads with it.  The lead P = lambda packs its
    e-exponents too: field i of P - ((P << width) & mask) is lambda_i -
    lambda_{i+1}, with no borrow.  Every partition met is dominated by one
    of f, so f's largest part sets the field width.  The e-exponents of
    the result are unpacked once, at the end.
    """
    if not isinstance(f, SymmetricPoly):
        f = SymmetricPoly.from_poly(f)
    d, denom = f.nvars, f.denominator
    width = _width(max((mu[0] for mu in f.coefficients if mu), default=0))
    mask, last, ones = (1 << width * d) - 1, (1 << width) - 1, _layout(d, width)[1]
    remainder = {_pack(mu, width): c for mu, c in f.coefficients.items()}
    get = remainder.get
    heap = [-key for key in remainder]
    heapq.heapify(heap)
    result = {}
    while heap:
        lead = -heapq.heappop(heap)
        coef = remainder[lead]
        if not coef:  # cancelled; a key is pushed once, when it first appears
            continue
        a = lead - ((lead << width) & mask)
        result[a] = coef
        keys, coefs = _row(a - (a & last), d, width)
        shift = (a & last) * ones
        for nu, c in zip(keys, coefs):
            nu += shift
            acc = get(nu)
            if acc is None:
                heapq.heappush(heap, -nu)
                acc = 0
            remainder[nu] = acc - coef * c
    return SparsePoly._make(
        d, {_unpack(a, d, width): QQ(c) if denom == 1 else QQ(c, denom) for a, c in result.items()}
    )


def from_elementary(g):
    """Evaluate a polynomial in e-variables at the elementary symmetric polynomials.

    Each e-monomial, packed as a partition, expands by the same `_row`
    that `to_elementary` descends with, over the common denominator of g.
    """
    coefficients, denom = _clear_denominators(g.terms)
    d = g.nvars
    width = _width(max(map(sum, coefficients), default=0))
    last, ones = (1 << width) - 1, _layout(d, width)[1]
    total = {}
    for a, c in coefficients.items():
        a = _pack(a, width)
        keys, coefs = _row(a - (a & last), d, width)
        shift = (a & last) * ones
        for key, k in zip(keys, coefs):
            total[key + shift] = total.get(key + shift, 0) + c * k
    return SymmetricPoly._make(d, {_unpack(key, d, width): c for key, c in total.items()}, denom).poly


# ---------------------------------------------------------------------------
# text and JSON codecs


def _term_sort_key(item):
    exp, _ = item
    return (sum(exp), exp)


def poly_to_text(f, names="x"):
    """Canonical text form: graded-lex descending terms, explicit coefficients."""
    if not f.terms:
        return "0"
    pieces = []
    for exp, coef in sorted(f.terms.items(), key=_term_sort_key, reverse=True):
        body = str(coef)
        negative = body[0] == "-"
        if negative:
            body = body[1:]
        for i, a in enumerate(exp):
            if a == 0:
                continue
            body += f"*{names}{i + 1}"
            if a > 1:
                body += f"^{a}"
        if not pieces:
            pieces.append("-" + body if negative else body)
        else:
            pieces.append((" - " if negative else " + ") + body)
    return "".join(pieces)


_SEPARATOR = re.compile(r" ([+-]) ")


@lru_cache(maxsize=None)
def _factor(text):
    """A factor `<letter><index>[^<power>]` as (letter, index, power); None if malformed."""
    index, caret, power = text[1:].partition("^")
    if "a" <= text[:1] <= "z" and index.isdecimal() and (power.isdecimal() or not caret):
        return text[0], int(index), int(power) if caret else 1
    return None


def poly_from_text(s, nvars=None):
    """Parse the canonical text grammar; infers the variable count if not given.

    Terms `<digits>[/<digits>]` then `*<letter><index>[^<power>]` factors,
    split on " + " and " - " once and checked with `str.isdecimal`.
    """
    if nvars is not None:
        _check_nvars(nvars)
    s = s.strip()
    if s == "0":
        return SparsePoly.zero(nvars or 0)
    negative = s.startswith("-")
    pieces = _SEPARATOR.split(s[negative:])
    terms, names = [], set()
    for sign, piece in zip(["-" if negative else "+"] + pieces[1::2], pieces[::2]):
        coef, *factors = piece.split("*")
        num, slash, den = coef.partition("/")
        factors = [_factor(text) for text in factors]
        if not num.isdecimal() or not (den.isdecimal() or not slash) or None in factors:
            raise ValueError(f"cannot parse polynomial term {piece!r}")
        if slash and not int(den):
            raise ValueError(f"zero denominator in polynomial term {piece!r}")
        exp = {}
        for letter, index, power in factors:
            names.add(letter)
            if len(names) > 1:
                raise ValueError("mixed variable families in one polynomial")
            if index < 1:
                raise ValueError(f"variable index {index} out of range")
            exp[index - 1] = exp.get(index - 1, 0) + power
        value = QQ(int(num), int(den)) if slash else QQ(int(num))
        terms.append((-value if sign == "-" else value, exp))
    width = nvars
    if width is None:
        width = max((max(f) + 1 for _, f in terms if f), default=0)
    acc = {}
    for coef, factors in terms:
        if factors and max(factors) >= width:
            raise ValueError(f"variable index exceeds {width} variables")
        exp = tuple(factors.get(i, 0) for i in range(width))
        acc[exp] = acc[exp] + coef if exp in acc else coef
    return SparsePoly._make(width, acc)


def poly_to_json(f):
    """JSON object for an x-space polynomial; terms in canonical order, coefficients as strings."""
    return {
        "vars": f.nvars,
        "basis": "x",
        "terms": [
            {"coef": str(coef), "exp": list(exp)}
            for exp, coef in sorted(f.terms.items(), key=_term_sort_key, reverse=True)
        ],
    }


def poly_from_json(obj):
    """Inverse of poly_to_json; ValueError for a basis other than "x" or a malformed exponent."""
    basis = obj.get("basis", "x")
    if basis != "x":
        raise ValueError(f"polynomial basis must be 'x', got {basis!r}")
    nvars = obj["vars"]
    terms = {}
    for term in obj["terms"]:
        exp = tuple(term["exp"])
        if len(exp) != nvars or not all(type(a) is int and a >= 0 for a in exp):
            raise ValueError(f"exponent {term['exp']!r} is not {nvars} non-negative integers")
        terms[exp] = terms.get(exp, _ZERO) + QQ(term["coef"])
    return SparsePoly._make(nvars, terms)
