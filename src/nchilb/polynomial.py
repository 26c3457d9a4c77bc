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
x-space only when asked.
"""

import itertools
import math
import operator
import re
from functools import lru_cache

from .rationals import QQ

__all__ = [
    "SparsePoly",
    "SymmetricPoly",
    "elementary_symmetric",
    "monomial_symmetric",
    "schur",
    "discriminant",
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


class SparsePoly:
    """Sparse polynomial with exact rational coefficients.

    `terms` maps exponent tuples of length `nvars` to nonzero rationals, e.g.
    x1^2*x2 - 3/2 in two variables is SparsePoly(2, {(2, 1): 1, (0, 0): -3/2}).
    Instances are value-like: never mutated after construction, hashable,
    and safe to share between threads.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        if nvars < 0:
            raise ValueError(f"variable count must be non-negative, got {nvars}")
        clean = {}
        if terms:
            for exp, coef in terms.items():
                if len(exp) != nvars:
                    raise ValueError(
                        f"exponent vector {exp} has length {len(exp)}, expected {nvars}"
                    )
                coef = QQ(coef)
                if coef:
                    clean[tuple(exp)] = coef
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _make(cls, nvars, terms):
        # internal fast path: terms is a fresh dict, zero coefficients allowed
        self = object.__new__(cls)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", {e: c for e, c in terms.items() if c})
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

    def __setattr__(self, name, value):
        raise AttributeError("SparsePoly is immutable")

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
        object.__setattr__(result, "nvars", self.nvars)
        object.__setattr__(result, "terms", terms)
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
        """Max weighted degree; -1 for the zero polynomial."""
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
        terms = {}
        for exp, coef in self.terms.items():
            new = [0] * self.nvars
            for i, a in enumerate(exp):
                new[sigma[i]] = a
            terms[tuple(new)] = coef
        return SparsePoly._make(self.nvars, terms)

    def evaluate(self, values):
        """Substitute values[i] (a polynomial or rational) for x_{i+1}.

        All polynomial values must share one variable count, which becomes
        the variable count of the result.
        """
        if len(values) != self.nvars:
            raise ValueError(f"need {self.nvars} values, got {len(values)}")
        target = None
        for v in values:
            if isinstance(v, SparsePoly):
                if target is None:
                    target = v.nvars
                elif v.nvars != target:
                    raise ValueError("substitution values disagree on variable count")
        if target is None:
            target = 0
        consts = [
            v if isinstance(v, SparsePoly) else SparsePoly.const(target, v)
            for v in values
        ]
        powers = [{0: SparsePoly.const(target, 1)} for _ in range(self.nvars)]

        def power(i, k):
            cache = powers[i]
            if k not in cache:
                cache[k] = power(i, k - 1) * consts[i]
            return cache[k]

        total = SparsePoly.zero(target)
        for exp, coef in self.terms.items():
            term = SparsePoly.const(target, coef)
            for i, a in enumerate(exp):
                if a:
                    term = term * power(i, a)
            total = total + term
        return total

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
    `poly` expands it into x-space on first read.  Not mutated after
    construction.
    """

    __slots__ = ("nvars", "coefficients", "denominator", "_poly")

    def __init__(self, nvars, coefficients, denominator=1):
        self.nvars = nvars
        self.coefficients = {mu: c for mu, c in coefficients.items() if c}
        self.denominator = denominator
        self._poly = None

    @classmethod
    def from_poly(cls, f):
        """The partition form of a SparsePoly; ValueError unless f is symmetric."""
        coefficients = _orbit_coefficients(f, f.nvars)
        if coefficients is None:
            raise ValueError("polynomial is not symmetric")
        self = cls(f.nvars, *_clear_denominators(coefficients))
        self._poly = f
        return self

    @property
    def poly(self):
        """The x-space SparsePoly: every monomial of every orbit."""
        if self._poly is None:
            terms = {}
            for mu, c in self.coefficients.items():
                terms.update(dict.fromkeys(_orbit(mu), QQ(c, self.denominator)))
            self._poly = SparsePoly._make(self.nvars, terms)
        return self._poly

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
    if d < 0:
        raise ValueError(f"variable count must be non-negative, got {d}")
    if k > d:
        return SparsePoly.zero(d)
    terms = {}
    for subset in itertools.combinations(range(d), k):
        exp = [0] * d
        for i in subset:
            exp[i] = 1
        terms[tuple(exp)] = _ONE
    return SparsePoly._make(d, terms)


def monomial_symmetric(lam, d):
    """Sum of the distinct monomials whose exponent multiset is the partition lam."""
    lam = tuple(lam)
    if not is_partition(lam):
        raise ValueError(f"{lam} is not a partition")
    lam = tuple(part for part in lam if part)
    if len(lam) > d:
        raise ValueError(f"partition {lam} has more than {d} parts")
    padded = lam + (0,) * (d - len(lam))
    return SparsePoly._make(d, dict.fromkeys(_orbit(padded), _ONE))


@lru_cache(maxsize=None)
def discriminant(d):
    """The Vandermonde product of (x_j - x_i) over i < j; 1 for d <= 1."""
    poly = SparsePoly.const(d, 1)
    for i in range(d):
        for j in range(i + 1, d):
            poly = poly * (SparsePoly.variable(d, j) - SparsePoly.variable(d, i))
    return poly


def rho(f):
    """Antisymmetrize f and divide by the discriminant; the result is symmetric."""
    return _alternate(f, f.nvars)


def rho_pq(f, p, q):
    """Block antisymmetrization over S_p x S_q acting on x_1..x_p and x_{p+1}..x_d."""
    if f.nvars != p + q:
        raise ValueError(f"polynomial has {f.nvars} variables, expected {p + q}")
    return _alternate(f, p)


def _alternate(f, p):
    """rho over S_p x S_q, the blocks x_1..x_p and the rest; p = f.nvars is S_d.

    The alternant of a monomial over one block is zero when an exponent
    repeats, and otherwise sign * a_{lam + delta}, so that its quotient by
    the block discriminant is sign * s_lam (the bialternant formula).  Each
    term therefore gives a signed product of two Schur polynomials, summed
    on monomial-symmetric coefficients and expanded one orbit pair at a time.
    """
    terms = {}
    for key, coef in _alternate_sums(f.terms, p).items():
        if coef:
            for mu in _orbit(key[:p]):
                for nu in _orbit(key[p:]):
                    terms[mu + nu] = coef
    return SparsePoly._make(f.nvars, terms)


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


def _embed(poly, positions, nvars):
    """Reinterpret poly(x_1..x_k) with variable i placed at positions[i]."""
    terms = {}
    for exp, coef in poly.terms.items():
        new = [0] * nvars
        for i, a in enumerate(exp):
            new[positions[i]] = a
        terms[tuple(new)] = coef
    return SparsePoly._make(nvars, terms)


def _runs(part):
    """(start, length) of each maximal run of equal entries of a tuple."""
    runs = []
    start = 0
    for i in range(1, len(part) + 1):
        if i == len(part) or part[i] != part[start]:
            runs.append((start, i - start))
            start = i
    return runs


def _stabilizer_order(part):
    """Number of permutations fixing a weakly decreasing tuple."""
    order = 1
    for _, length in _runs(part):
        order *= math.factorial(length)
    return order


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


def _orbit_coefficients(f, p):
    """The coefficients of f on the sorted representatives of its S_p x S_q orbits.

    S_p permutes x_1..x_p and S_q the remaining variables; p = f.nvars
    gives the full symmetric group.  Returns None unless f is invariant:
    every coefficient must equal that of its representative, and every
    orbit must be complete.
    """
    terms = f.terms
    full = p == f.nvars
    members = {}
    for exp, coef in terms.items():
        if full:
            rep = tuple(sorted(exp, reverse=True))
        else:
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
    denom = math.lcm(*(int(c.denominator) for c in coefficients.values()))
    return {key: int(c * denom) for key, c in coefficients.items()}, denom


def is_symmetric(f, block=None):
    """Invariance of f under a permutation group of its variables.

    block=None checks the full symmetric group; block=(p, q) checks the
    Young subgroup permuting x_1..x_p and x_{p+1}..x_{p+q} separately.
    """
    d = f.nvars
    if block is None:
        return _orbit_coefficients(f, d) is not None
    p, q = block
    if p + q != d:
        raise ValueError(f"block ({p},{q}) does not cover {d} variables")
    return _orbit_coefficients(f, p) is not None


def schur(lam, d):
    """Schur polynomial s_lam in d variables: rho of the staircase-shifted monomial.

    The staircase grows toward x_d, following prod_{i<j}(x_j - x_i).
    """
    lam = tuple(lam)
    if not is_partition(lam):
        raise ValueError(f"{lam} is not a partition")
    lam = tuple(part for part in lam if part)
    if len(lam) > d:
        raise ValueError(f"partition {lam} has more than {d} parts")
    padded = lam + (0,) * (d - len(lam))
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


@lru_cache(maxsize=None)
def _raise(part, k):
    """m_part * e_k in monomial symmetric functions, as ((nu, coefficient), ..).

    `part` is a partition padded to the number of variables.  Raising any
    j entries of one run of equal parts gives the same partition, so the
    results are indexed by how many entries j_b each run b raises; raising
    the first j_b keeps the tuple weakly decreasing.  The coefficient of nu
    is the number of k-subsets S with sort(nu - 1_S) = part.  When run
    b - 1 is exactly one higher than run b, the j_b raised entries equal
    its unraised entries in nu, and S may take any j_b of them all:
    binomial(j_b + unraised, j_b).
    """
    runs = _runs(part)
    # (vector, coefficient, entries left to raise, unraised entries of the last run)
    found = [(list(part), 1, k, 0)]
    for b, (start, length) in enumerate(runs):
        adjacent = b > 0 and part[runs[b - 1][0]] == part[start] + 1
        later = len(part) - start - length  # entries after this run
        grown = []
        for vec, coef, left, above in found:
            above = above if adjacent else 0
            if left <= later:
                grown.append((vec, coef, left, length))
            for j in range(max(1, left - later), min(length, left) + 1):
                new = vec[:]
                for i in range(start, start + j):
                    new[i] += 1
                grown.append((new, coef * math.comb(j + above, j), left - j, length - j))
        found = grown
    return tuple((tuple(vec), coef) for vec, coef, left, _ in found if not left)


def _times_e(g, k):
    """g * e_k, both as maps from padded partitions to monomial-symmetric coefficients."""
    out = {}
    for mu, coef in g.items():
        for nu, count in _raise(mu, k):
            out[nu] = out.get(nu, 0) + coef * count
    return out


@lru_cache(maxsize=None)
def _e_monomial(a):
    """prod_k e_k^{a_k} in len(a) variables as a map from partitions to integers.

    Cached; callers must not modify the returned map.
    """
    for i, power in enumerate(a):
        if power:
            rest = a[:i] + (power - 1,) + a[i + 1 :]
            return _times_e(_e_monomial(rest), i + 1)
    return {a: 1}


def to_elementary(f):
    """Rewrite a symmetric polynomial as a polynomial in e_1, .., e_d.

    f is a SymmetricPoly, or a SparsePoly that is read once into one and
    raises ValueError when it is not symmetric.  Classical descent on the
    integer monomial-symmetric coefficients: repeatedly subtract the
    e-monomial whose expansion has the same lex-leading partition.
    """
    if not isinstance(f, SymmetricPoly):
        f = SymmetricPoly.from_poly(f)
    d = f.nvars
    remainder, denom = dict(f.coefficients), f.denominator
    result = {}
    while remainder:
        lead = max(remainder)
        coef = remainder[lead]
        e_exp = tuple(lead[i] - (lead[i + 1] if i + 1 < d else 0) for i in range(d))
        result[e_exp] = QQ(coef, denom)
        for nu, c in _e_monomial(e_exp).items():
            acc = remainder.get(nu, 0) - coef * c
            if acc:
                remainder[nu] = acc
            else:
                remainder.pop(nu, None)
    return SparsePoly._make(d, result)


def from_elementary(g):
    """Evaluate a polynomial in e-variables at the elementary symmetric polynomials."""
    d = g.nvars
    return g.evaluate([elementary_symmetric(i + 1, d) for i in range(d)])


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
        body = str(coef if coef > 0 else -coef)
        for i, a in enumerate(exp):
            if a == 0:
                continue
            body += f"*{names}{i + 1}"
            if a > 1:
                body += f"^{a}"
        if not pieces:
            pieces.append(body if coef > 0 else "-" + body)
        else:
            pieces.append((" + " if coef > 0 else " - ") + body)
    return "".join(pieces)


_TERM_RE = re.compile(
    r"^(?P<coef>\d+(?:/\d+)?)(?P<factors>(?:\*[a-z]\d+(?:\^\d+)?)*)$"
)
_FACTOR_RE = re.compile(r"\*([a-z])(\d+)(?:\^(\d+))?")


def poly_from_text(s, nvars=None):
    """Parse the canonical text grammar; infers the variable count if not given."""
    if nvars is not None and nvars < 0:
        raise ValueError(f"variable count must be non-negative, got {nvars}")
    s = s.strip()
    if s == "0":
        return SparsePoly.zero(nvars or 0)
    chunks = []
    sign = 1
    if s.startswith("-"):
        sign = -1
        s = s[1:]
    for piece in re.split(r" ([+-]) ", s):
        chunks.append(piece)
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
        coef = QQ(match.group("coef")) * current_sign
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
        acc[exp] = acc.get(exp, _ZERO) + coef
    return SparsePoly._make(width, acc)


def poly_to_json(f, basis="x"):
    """JSON object for a polynomial; terms in canonical order, coefficients as strings."""
    return {
        "vars": f.nvars,
        "basis": basis,
        "terms": [
            {"coef": str(coef), "exp": list(exp)}
            for exp, coef in sorted(f.terms.items(), key=_term_sort_key, reverse=True)
        ],
    }


def poly_from_json(obj):
    """Inverse of poly_to_json; returns (polynomial, basis)."""
    nvars = obj["vars"]
    terms = {}
    for term in obj["terms"]:
        exp = tuple(term["exp"])
        terms[exp] = terms.get(exp, _ZERO) + QQ(term["coef"])
    return SparsePoly._make(nvars, terms), obj.get("basis", "x")
