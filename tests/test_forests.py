"""Forest combinatorics: orders, enumeration, critical pairs, bijections."""

import itertools

import pytest

from nchilb.forests import (
    Forest,
    Tree,
    ambient_dimension,
    btuple_to_jtuple,
    codim,
    compare_forests,
    compare_words,
    critical_pairs,
    d_value,
    enumerate_btuples,
    enumerate_forests,
    enumerate_jtuples,
    enumerate_trees,
    forest_from_json,
    forest_to_json,
    forest_to_jtuple,
    is_valid_jtuple,
    j_index,
    jtuple_to_btuple,
    jtuple_to_forest,
    poincare_polynomial,
    word_from_string,
)

from helpers import d_value_oracle, forest_count_oracle, oracle_poincare_polynomial

W = word_from_string

GRID = [
    (m, d, n) for m in range(4) for d in range(5) for n in (1, 2)
]
# GRID and more: every m <= 4, d <= 6, n <= 3
CENSUS_GRID = [(m, d, n) for m in range(5) for d in range(7) for n in (1, 2, 3)]


def forest(m, n, *trees):
    return Forest(tuple(Tree(tuple(W(w) for w in t)) for t in trees), m, n)


FIVE_TREES = [
    ("", "1", "11"),
    ("", "1", "12"),
    ("", "1", "2"),
    ("", "2", "21"),
    ("", "2", "22"),
]


# ---------------------------------------------------------------------------
# orders


def test_compare_words_examples():
    assert compare_words(W(""), W("2")) == -1
    assert compare_words(W("11"), W("2")) == -1
    assert compare_words(W("12"), W("11")) == 1
    assert compare_words(W("121"), W("121")) == 0
    assert compare_words(W("1"), W("12")) == -1


def test_compare_words_matches_tuple_order():
    words = [
        tuple(w)
        for length in range(4)
        for w in itertools.product((1, 2, 3), repeat=length)
    ]
    for w1 in words:
        for w2 in words:
            expected = -1 if w1 < w2 else (0 if w1 == w2 else 1)
            assert compare_words(w1, w2) == expected


def test_compare_forests_examples():
    f1 = forest(2, 1, ("", "1", "11"))
    f2 = forest(2, 1, ("", "1", "12"))
    f3 = forest(2, 1, ("", "1", "2"))
    f4 = forest(2, 1, ("", "2", "21"))
    assert compare_forests(f1, f2) == -1
    assert compare_forests(f3, f4) == -1
    assert compare_forests(f4, f4) == 0
    assert compare_forests(f4, f1) == 1


def test_larger_trees_compare_smaller():
    big = forest(2, 2, ("", "1"), ())
    small = forest(2, 2, ("",), ("",))
    assert compare_forests(big, small) == -1


# ---------------------------------------------------------------------------
# enumeration


def test_enumerate_forests_2_3_1_is_the_displayed_list():
    assert [forest_to_json(f) for f in enumerate_forests(2, 3, 1)] == [
        [list(t)] for t in FIVE_TREES
    ]


def test_enumerate_forests_empty():
    forests = enumerate_forests(3, 0, 2)
    assert len(forests) == 1
    assert forest_to_json(forests[0]) == [[], []]


def test_binary_tree_census():
    assert [len(enumerate_forests(2, d, 1)) for d in range(7)] == [
        1,
        1,
        2,
        5,
        14,
        42,
        132,
    ]


@pytest.mark.parametrize("m,d,n", GRID)
def test_enumeration_count_matches_closed_form(m, d, n):
    assert len(enumerate_forests(m, d, n)) == forest_count_oracle(m, d, n)


@pytest.mark.parametrize("m,d,n", GRID)
def test_enumeration_is_strictly_increasing(m, d, n):
    forests = enumerate_forests(m, d, n)
    for f1, f2 in zip(forests, forests[1:]):
        assert compare_forests(f1, f2) == -1


def test_trees_and_forests_are_slotted_values():
    f = forest(2, 1, ("", "1"))
    assert not hasattr(f, "__dict__") and not hasattr(f.trees[0], "__dict__")
    assert repr(f) == "Forest(trees=(Tree(words=((), (1,))),), m=2, n=1)"
    same = Forest((Tree([(1,), ()]),), 2, 1)
    assert same == f and hash(same) == hash(f) and same.trees[0] == f.trees[0]
    assert f != forest(3, 1, ("", "1")) and f.trees[0] != f


@pytest.mark.parametrize(
    "call,args",
    [
        (enumerate_btuples, (2, -1, 1)),
        (enumerate_jtuples, (2, -1, 1)),
        (enumerate_trees, (-1, 2)),
        (enumerate_trees, (2, -1)),
        (enumerate_btuples, (2, 0, 0)),
        (enumerate_btuples, (-1, 2, 1)),
    ],
    ids=lambda value: getattr(value, "__name__", str(value)),
)
def test_enumerators_refuse_impossible_sizes(call, args):
    with pytest.raises(ValueError, match="need m >= 0, d >= 0, n >= 1"):
        call(*args)


def test_invalid_tree_rejected():
    with pytest.raises(ValueError):
        Tree((W("1"),))  # missing the root
    with pytest.raises(ValueError):
        forest(1, 1, ("", "2"))  # letter above m


# ---------------------------------------------------------------------------
# critical pairs and indices


def test_critical_pairs_first_tree():
    f = forest(2, 1, ("", "1", "11"))
    assert [(k, w) for k, w in critical_pairs(f)] == [
        (1, W("111")),
        (1, W("112")),
        (1, W("12")),
        (1, W("2")),
    ]


def test_critical_pairs_third_tree():
    f = forest(2, 1, ("", "1", "2"))
    assert [(k, w) for k, w in critical_pairs(f)] == [
        (1, W("11")),
        (1, W("12")),
        (1, W("21")),
        (1, W("22")),
    ]


def test_critical_pairs_empty_forest():
    f = forest(2, 1, ())
    assert [(k, w) for k, w in critical_pairs(f)] == [(1, ())]


@pytest.mark.parametrize("m,d,n", GRID)
def test_critical_pair_count(m, d, n):
    for f in enumerate_forests(m, d, n):
        assert len(critical_pairs(f)) == (m - 1) * d + n


def test_j_index_examples():
    assert j_index(forest(2, 1, ("", "1", "11")), (1, W("2"))) == 3
    assert j_index(forest(2, 1, ("", "1", "2")), (1, W("11"))) == 2
    assert j_index(forest(2, 1, ()), (1, ())) == 0


def test_j_index_rejects_non_critical():
    f = forest(2, 1, ("", "1", "11"))
    with pytest.raises(ValueError):
        j_index(f, (1, W("1")))  # stored, not critical
    with pytest.raises(ValueError):
        j_index(f, (1, W("22")))  # too deep


def test_d_value_examples():
    assert d_value(forest(2, 1, ("", "1", "11"))) == 12
    assert d_value(forest(2, 1, ("", "2", "22"))) == 9
    assert d_value(forest(2, 1, ())) == 0


@pytest.mark.parametrize("m,d,n", GRID)
def test_d_value_matches_pair_counting(m, d, n):
    for f in enumerate_forests(m, d, n):
        assert d_value(f) == d_value_oracle(f)


def test_codim_examples():
    assert codim(forest(2, 1, ("", "1", "11"))) == 0
    assert codim(forest(2, 1, ("", "1", "12"))) == 1
    assert codim(forest(2, 1, ("", "2", "22"))) == 3


@pytest.mark.parametrize("m,d,n", GRID)
def test_d_value_bounds_and_unique_maximum(m, d, n):
    forests = enumerate_forests(m, d, n)
    if not forests:
        return
    top = ambient_dimension(m, d, n)
    values = [d_value(f) for f in forests]
    assert all(0 <= v <= top for v in values)
    assert values.count(top) == 1
    assert values[0] == top  # attained by the smallest forest


# ---------------------------------------------------------------------------
# Poincare polynomials


def test_poincare_paper_example():
    assert poincare_polynomial(2, 3, 1) == [0] * 9 + [1, 2, 1, 1]
    assert poincare_polynomial(2, 3, 1, by="codim") == [1, 1, 2, 1]


def test_poincare_trivial_cases():
    assert poincare_polynomial(2, 0, 1) == [1]
    assert poincare_polynomial(0, 2, 1) == []


@pytest.mark.parametrize("m,d,n", CENSUS_GRID)
def test_poincare_equals_the_forest_by_forest_census(m, d, n):
    for by in ("dim", "codim"):
        assert poincare_polynomial(m, d, n, by=by) == oracle_poincare_polynomial(m, d, n, by)


def _btuple_weight_census(m, d, n):
    counts = {}
    for b in enumerate_btuples(m, d, n):
        weight = sum(k * b[d - k] for k in range(1, d + 1))
        counts[weight] = counts.get(weight, 0) + 1
    return [counts.get(w, 0) for w in range(max(counts, default=-1) + 1)]


@pytest.mark.parametrize(
    "m,d,n", [(3, 7, 1), (4, 7, 1), (2, 9, 1), (2, 5, 2), (3, 4, 2), (4, 4, 2), (2, 6, 2)]
)
def test_codim_census_equals_btuple_weights_past_the_enumeration(m, d, n):
    # the B-tuple bijection, checked where enumerating forests would be slow
    assert poincare_polynomial(m, d, n, by="codim") == _btuple_weight_census(m, d, n)


def test_poincare_2_2_1():
    # both forests by hand: {e,1} has all three j-indices 2, {e,2} has 1, 2, 2
    expected = [d_value_oracle(f) for f in enumerate_forests(2, 2, 1)]
    assert sorted(expected) == [5, 6]
    assert poincare_polynomial(2, 2, 1) == [0, 0, 0, 0, 0, 1, 1]


# ---------------------------------------------------------------------------
# bijections


def test_jtuples_of_the_five_trees():
    expected = [(3, 3, 3, 3), (2, 3, 3, 3), (2, 2, 3, 3), (1, 3, 3, 3), (1, 2, 3, 3)]
    assert [forest_to_jtuple(f) for f in enumerate_forests(2, 3, 1)] == expected


def test_jtuple_of_empty_forest():
    assert forest_to_jtuple(forest(2, 1, ())) == (0,)


def test_btuples_of_the_five_trees():
    jtuples = [forest_to_jtuple(f) for f in enumerate_forests(2, 3, 1)]
    assert [jtuple_to_btuple(j, 3) for j in jtuples] == [
        (0, 0, 0),
        (0, 0, 1),
        (0, 0, 2),
        (0, 1, 0),
        (0, 1, 1),
    ]


def test_enumerate_btuples_examples():
    assert enumerate_btuples(2, 3, 1) == [
        (0, 0, 0),
        (0, 0, 1),
        (0, 0, 2),
        (0, 1, 0),
        (0, 1, 1),
    ]
    assert enumerate_btuples(5, 1, 1) == [(0,)]


@pytest.mark.parametrize("m,d,n", GRID)
def test_forest_jtuple_bijection(m, d, n):
    forests = enumerate_forests(m, d, n)
    jtuples = [forest_to_jtuple(f) for f in forests]
    assert all(is_valid_jtuple(j, m, d, n) for j in jtuples)
    assert sorted(jtuples) == sorted(enumerate_jtuples(m, d, n))
    assert len(set(jtuples)) == len(forests)
    for f, j in zip(forests, jtuples):
        assert jtuple_to_forest(j, m, d, n) == f


@pytest.mark.parametrize("m,d,n", GRID)
def test_jtuple_btuple_bijection(m, d, n):
    jtuples = enumerate_jtuples(m, d, n)
    btuples = [jtuple_to_btuple(j, d) for j in jtuples]
    assert sorted(btuples) == sorted(enumerate_btuples(m, d, n))
    assert len(set(btuples)) == len(jtuples)
    for j, b in zip(jtuples, btuples):
        assert btuple_to_jtuple(b, m, d, n) == j


@pytest.mark.parametrize("m,d,n", GRID)
def test_btuple_count_matches_forest_count(m, d, n):
    assert len(enumerate_btuples(m, d, n)) == len(enumerate_forests(m, d, n))


@pytest.mark.parametrize("m,d,n", GRID)
def test_codim_census_equals_btuple_weights(m, d, n):
    assert oracle_poincare_polynomial(m, d, n, by="codim") == _btuple_weight_census(m, d, n)


def test_jtuple_to_forest_rejects_invalid():
    with pytest.raises(ValueError):
        jtuple_to_forest((0, 0, 0, 0), 2, 3, 1)  # violates the floor constraints
    with pytest.raises(ValueError):
        jtuple_to_forest((3, 3, 3), 2, 3, 1)  # wrong length


# ---------------------------------------------------------------------------
# JSON


def test_forest_json_round_trip():
    for f in enumerate_forests(2, 3, 1) + enumerate_forests(3, 2, 2):
        assert forest_from_json(forest_to_json(f), f.m) == f


def test_forest_json_refuses_m_above_nine():
    forest = enumerate_forests(10, 1, 1)[0]
    with pytest.raises(ValueError, match="m = 10"):
        forest_to_json(forest)
    assert forest_to_json(enumerate_forests(9, 1, 1)[0]) == [[""]]
