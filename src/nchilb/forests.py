"""m-ary forests: enumeration, orderings, critical pairs, the census and index bijections.

A tree is a finite prefix-closed set of words over the alphabet {1,..,m};
a forest is an ordered n-tuple of trees.  Words, trees and forests carry
total orders (words lexicographically with prefixes first; among trees the
larger tree is the smaller one, ties broken at the first differing sorted
word; forests componentwise at the first differing tree).  Each forest
determines its set of critical pairs, the index j of every critical pair,
the cell-dimension statistic d(S) and its codimension, and the tuples that
realize the forest-to-J-tuple-to-B-tuple bijections.

Word order within one tree is preorder: a word, then the words below its
child 1, then those below its child 2, and so on.  One stack walk in that
order visits every child slot of a tree; the empty slots are the critical
pairs, in pair order, each right after the j elements below it.  The same
walk, driven by a J-tuple's element/critical flags, parses it back.

The census of d(S) builds no forest: a tree with s nodes has (m-1)s + 1
empty slots, and in the i-th subtree of a root (i-th tree of a forest) each
slot's j is its j in the subtree plus k = 1 (0) + the nodes of the earlier
subtrees, so counts by d(S) sum products of subtree counts shifted by k * slots.
"""

from collections import namedtuple
from functools import lru_cache

__all__ = [
    "Word",
    "Tree",
    "Forest",
    "CriticalPair",
    "word_from_string",
    "word_to_string",
    "compare_words",
    "compare_forests",
    "enumerate_trees",
    "enumerate_forests",
    "critical_pairs",
    "j_index",
    "d_value",
    "codim",
    "ambient_dimension",
    "poincare_polynomial",
    "forest_to_jtuple",
    "jtuple_to_forest",
    "jtuple_to_btuple",
    "btuple_to_jtuple",
    "is_valid_jtuple",
    "is_valid_btuple",
    "enumerate_jtuples",
    "enumerate_btuples",
    "check_digit_alphabet",
    "forest_to_json",
    "forest_from_json",
]

# A word is a tuple of letters from {1,..,m}; () is the empty word.
Word = tuple


def word_from_string(s):
    return tuple(int(ch) for ch in s)


def word_to_string(w):
    return "".join(str(letter) for letter in w)


def compare_words(w1, w2):
    """-1, 0 or 1; prefixes come first, otherwise the first differing letter decides."""
    return (w1 > w2) - (w1 < w2)


class Tree:
    """A prefix-closed word set, stored sorted in word order and as a set.

    `top` is the largest letter of its words, 0 when it has none.  Equal
    and hashed by its words; not mutated after construction.
    """

    __slots__ = ("words", "nodes", "top")

    def __init__(self, words):
        stored = tuple(sorted(tuple(w) for w in words))
        nodes = frozenset(stored)
        for w in stored:
            if any(letter < 1 for letter in w):
                raise ValueError(f"word {w} contains letters below 1")
            if w and w[:-1] not in nodes:
                raise ValueError(f"word set is not prefix-closed at {w}")
        self.words = stored
        self.nodes = nodes
        # every letter ends the prefix that it closes
        self.top = max((w[-1] for w in stored if w), default=0)

    def __eq__(self, other):
        if not isinstance(other, Tree):
            return NotImplemented
        return self.words == other.words

    def __hash__(self):
        return hash(self.words)

    def __repr__(self):
        return f"Tree(words={self.words!r})"

    def __len__(self):
        return len(self.words)

    def __contains__(self, word):
        return tuple(word) in self.nodes

    def sort_key(self):
        # larger trees are smaller; ties by the sorted word list
        return (-len(self.words), self.words)


class Forest:
    """An ordered n-tuple of m-ary trees with d nodes in total.

    Equal and hashed by (trees, m, n); not mutated after construction.
    """

    __slots__ = ("trees", "m", "n")

    def __init__(self, trees, m, n):
        if m < 0:
            raise ValueError("alphabet size m must be non-negative")
        if n < 1:
            raise ValueError("root count n must be positive")
        trees = tuple(t if isinstance(t, Tree) else Tree(t) for t in trees)
        if len(trees) != n:
            raise ValueError(f"expected {n} trees, got {len(trees)}")
        for t in trees:
            if t.top > m:
                raise ValueError(f"tree {t.words} uses letters above m={m}")
        self.trees = trees
        self.m = m
        self.n = n

    def __eq__(self, other):
        if not isinstance(other, Forest):
            return NotImplemented
        return (self.trees, self.m, self.n) == (other.trees, other.m, other.n)

    def __hash__(self):
        return hash((self.trees, self.m, self.n))

    def __repr__(self):
        return f"Forest(trees={self.trees!r}, m={self.m!r}, n={self.n!r})"

    @property
    def d(self):
        return sum(len(t) for t in self.trees)

    def sort_key(self):
        return tuple(t.sort_key() for t in self.trees)


CriticalPair = namedtuple("CriticalPair", "root word")


def compare_forests(f1, f2):
    """-1, 0 or 1 under the forest order (same m and n required)."""
    if (f1.m, f1.n) != (f2.m, f2.n):
        raise ValueError("forests must share m and n")
    k1, k2 = f1.sort_key(), f2.sort_key()
    return -1 if k1 < k2 else (0 if k1 == k2 else 1)


def _check_sizes(m, d, n):
    if m < 0 or d < 0 or n < 1:
        raise ValueError("need m >= 0, d >= 0, n >= 1")


@lru_cache(maxsize=None)
def enumerate_trees(m, size):
    """All m-ary trees with `size` nodes, as sorted word tuples in increasing order.

    A tree is its root and the m-tuple of its subtrees, whose preorder
    words, each prefixed by its letter, are already sorted.
    """
    _check_sizes(m, size, 1)
    if size == 0:
        return ((),)
    return tuple(
        sorted(
            ((),) + tuple((letter,) + w for letter, t in enumerate(subtrees, 1) for w in t.words)
            for subtrees in _tree_tuples(m, size - 1, m)
        )
    )


@lru_cache(maxsize=None)
def _trees(m, size):
    """enumerate_trees(m, size) as Tree objects, each validated once."""
    return tuple(Tree(words) for words in enumerate_trees(m, size))


def _tree_tuples(m, d, n):
    """The n-tuples of m-ary trees with d nodes in all, in increasing forest order.

    The order compares the trees one by one, larger trees first and trees
    of one size by their words, so the first tree runs over the sizes d
    down to 0 and each size in word order, and the rest recurses.
    """
    if n == 0:
        if d == 0:
            yield ()
        return
    for size in range(d, -1, -1):
        for tree in _trees(m, size):
            for rest in _tree_tuples(m, d - size, n - 1):
                yield (tree,) + rest


def enumerate_forests(m, d, n):
    """All m-ary forests with n roots and d nodes, sorted increasingly."""
    _check_sizes(m, d, n)
    return [Forest(trees, m, n) for trees in _tree_tuples(m, d, n)]


def _preorder(m, is_node):
    """The child slots of one tree in preorder, as (word, is_node(word)) pairs.

    The walk starts at the root slot; a node pushes its m child slots as
    letters m..1, so that they pop in word order.  An empty slot is a leaf.
    """
    stack = [()]
    while stack:
        word = stack.pop()
        node = is_node(word)
        yield word, node
        if node:
            stack.extend(word + (letter,) for letter in range(m, 0, -1))


def _critical_walk(forest):
    """(critical pair, j) in pair order, where j counts the nodes walked before the pair."""
    j = 0
    for k, tree in enumerate(forest.trees, start=1):
        for word, node in _preorder(forest.m, tree.nodes.__contains__):
            if node:
                j += 1
            else:
                yield CriticalPair(k, word), j


def critical_pairs(forest):
    """The critical pairs of the forest, sorted by root index then word order.

    A pair (k, w) is critical when tree k is empty and w is the empty word,
    or when w extends a stored word of tree k by one letter without being
    stored itself.  There are exactly (m-1)d + n of them.
    """
    return [pair for pair, _ in _critical_walk(forest)]


def j_index(forest, pair):
    """Number of forest elements strictly below the critical pair in pair order."""
    pair = CriticalPair(*pair)
    for critical, j in _critical_walk(forest):
        if critical == pair:
            return j
    raise ValueError(f"{pair} is not critical for the forest")


def d_value(forest):
    """Cell dimension: the sum of j over all critical pairs."""
    return sum(forest_to_jtuple(forest))


def ambient_dimension(m, d, n):
    """Dimension (m-1)d^2 + nd of the ambient variety."""
    return (m - 1) * d * d + n * d


def codim(forest):
    """Cell codimension: ambient dimension minus d_value."""
    return ambient_dimension(forest.m, forest.d, forest.n) - d_value(forest)


def poincare_polynomial(m, d, n, by="dim"):
    """Coefficient list of sum_S t^{d_value(S)} (by="dim") or t^{codim(S)} (by="codim").

    Entry i is the number of forests with statistic i; the list is empty
    only when there are no forests at all, and it ends in a nonzero entry.
    """
    if by not in ("dim", "codim"):
        raise ValueError("by must be 'dim' or 'codim'")
    _check_sizes(m, d, n)

    def join(row, c, lead):
        """{d: count} of the tuples in row[c - s] followed by a tree of s nodes, over all s."""
        acc = {}
        for s in range(c + 1):
            shift = ((m - 1) * s + 1) * (lead + c - s)  # slots of the tree times k
            for i, a in row[c - s].items():
                for k, b in trees[s].items():
                    acc[i + k + shift] = acc.get(i + k + shift, 0) + a * b
        return acc

    trees = [{0: 1}]  # trees[s]: {d: count} of the trees with s nodes
    kids = [[{0: 1}] + [{}] * d] + [[] for _ in range(m)]  # kids[i][c]: i subtrees, c nodes
    for c in range(d):
        for i in range(1, m + 1):
            kids[i].append(join(kids[i - 1], c, 1))
        trees.append(kids[m][c])
    row = kids[0]
    for _ in range(n):
        row = [join(row, c, 0) for c in range(d + 1)]
    top = ambient_dimension(m, d, n)
    counts = {top - v if by == "codim" else v: count for v, count in row[d].items()}
    return [counts.get(v, 0) for v in range(max(counts, default=-1) + 1)]


# ---------------------------------------------------------------------------
# the bijections forests -> J-tuples -> B-tuples


def forest_to_jtuple(forest):
    """The weakly increasing tuple of j-indices over the sorted critical pairs.

    j never decreases along the pair order, so the tuple needs no sort.
    """
    return tuple(j for _, j in _critical_walk(forest))


def is_valid_jtuple(values, m, d, n):
    values = tuple(values)
    if len(values) != (m - 1) * d + n or any(not 0 <= v <= d for v in values):
        return False
    return values == tuple(sorted(values)) and is_valid_btuple(jtuple_to_btuple(values, d), m, d, n)


def enumerate_jtuples(m, d, n):
    """All members of the J-tuple set, in lexicographic order.

    They are the images of the B-tuples, and the bijection reverses the
    lexicographic order.
    """
    return [btuple_to_jtuple(b, m, d, n) for b in reversed(enumerate_btuples(m, d, n))]


def jtuple_to_btuple(values, d):
    """b_i counts the entries equal to i, for i = 0..d-1."""
    values = tuple(values)
    if any(not 0 <= v <= d for v in values):
        raise ValueError("J-tuple entries must lie in 0..d")
    return tuple(sum(1 for v in values if v == i) for i in range(d))


def btuple_to_jtuple(b, m, d, n):
    """Sorted tuple with b_i copies of i and the rest filled with d; ValueError unless b is a B-tuple."""
    b = tuple(b)
    if not is_valid_btuple(b, m, d, n):
        raise ValueError(f"{b} is not a B-tuple for (m, d, n) = ({m}, {d}, {n})")
    values = []
    for i, count in enumerate(b):
        values.extend([i] * count)
    values.extend([d] * ((m - 1) * d + n - sum(b)))
    return tuple(values)


def is_valid_btuple(b, m, d, n):
    b = tuple(b)
    if len(b) != d or any(v < 0 for v in b):
        return False
    partial = 0
    for i, v in enumerate(b):
        partial += v
        if partial >= (m - 1) * i + n:
            return False
    return True


def enumerate_btuples(m, d, n):
    """All members of the B-tuple set, in lexicographic order."""
    _check_sizes(m, d, n)
    out = []

    def gen(prefix, partial):
        i = len(prefix)
        if i == d:
            out.append(tuple(prefix))
            return
        bound = (m - 1) * i + n - partial  # strict upper bound on b_i + past sum
        for v in range(max(bound, 0)):
            gen(prefix + [v], partial + v)

    gen([], 0)
    return out


def jtuple_to_forest(values, m, d, n):
    """Reconstruct the unique forest whose J-tuple is the given one.

    In the merged pair order on forest elements and critical pairs, the
    nu-th critical pair sits right after j_nu elements, so the tuple fixes
    the element/critical flag sequence; the preorder walk of n trees, which
    reads one flag per slot, rebuilds the word sets.
    """
    values = tuple(values)
    if not is_valid_jtuple(values, m, d, n):
        raise ValueError(f"{values} is not a valid J-tuple for (m,d,n)=({m},{d},{n})")
    is_critical = [False] * (d + len(values))
    for nu, j in enumerate(values):
        is_critical[j + nu] = True
    flags = iter(is_critical)

    def is_node(_word):
        critical = next(flags, None)
        if critical is None:
            raise ValueError("J-tuple does not parse to a forest")
        return not critical

    trees = [Tree(tuple(w for w, node in _preorder(m, is_node) if node)) for _ in range(n)]
    if next(flags, None) is not None:
        raise ValueError("J-tuple does not parse to a forest")
    forest = Forest(tuple(trees), m, n)
    if forest.d != d:
        raise ValueError("J-tuple does not parse to a forest with d nodes")
    return forest


# ---------------------------------------------------------------------------
# JSON encoding


def check_digit_alphabet(m):
    """Raise ValueError unless the letters 1..m are single digits, as the word encoding needs."""
    if m > 9:
        raise ValueError(f"m = {m} is above 9, which the digit word encoding does not support")


def forest_to_json(forest):
    """Forest as an array of arrays of digit strings; the empty word is ""."""
    check_digit_alphabet(forest.m)
    return [[word_to_string(w) for w in tree.words] for tree in forest.trees]


def forest_from_json(data, m):
    trees = tuple(Tree(tuple(word_from_string(s) for s in words)) for words in data)
    return Forest(trees, m, len(trees))
