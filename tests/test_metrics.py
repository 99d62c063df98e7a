"""Metric axioms, eval accounting, and the dataset summary."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from greedyrange import (
    AbsDiffMetric,
    ConfigurationError,
    InputError,
    LevenshteinMetric,
    MinkowskiMetric,
    ProductMetric,
    dataset_summary,
    levenshtein,
)


def _spaces(rng, n):
    xs = [rng.uniform(-50, 50) for _ in range(n)]
    vecs = [[rng.uniform(-5, 5) for _ in range(3)] for _ in range(n)]
    strs = ["".join(rng.choice("abc") for _ in range(rng.randrange(0, 7))) for _ in range(n)]
    return [
        AbsDiffMetric("x", xs),
        MinkowskiMetric("v2", vecs, p=2),
        MinkowskiMetric("v1", vecs, p=1),
        LevenshteinMetric("s", strs),
    ]


@pytest.mark.parametrize("which", range(4))
def test_metric_axioms(which):
    rng = random.Random(which)
    n = 40
    m = _spaces(rng, n)[which]
    for _ in range(1000):
        a, b, c = rng.randrange(n), rng.randrange(n), rng.randrange(n)
        dab, dba = m.dist(a, b), m.dist(b, a)
        assert dab >= 0
        assert dab == dba
        assert m.dist(a, a) == 0
        # float metrics satisfy the triangle inequality up to rounding
        assert dab <= m.dist(a, c) + m.dist(c, b) + 1e-9


@given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=10), st.data())
def test_absdiff_matches_scalar(values, data):
    m = AbsDiffMetric("x", values)
    i = data.draw(st.integers(0, len(values) - 1))
    j = data.draw(st.integers(0, len(values) - 1))
    assert m.dist(i, j) == helpers.scalar_abs(values[i], values[j])


@given(st.text(alphabet="abcd", max_size=12), st.text(alphabet="abcd", max_size=12))
@settings(max_examples=200)
def test_levenshtein_matches_textbook(a, b):
    assert levenshtein(a, b) == helpers.scalar_levenshtein(a, b)


# Non-ASCII characters and lengths past 64 and 128 exercise bit vectors of
# many machine digits and match masks keyed by any code point.
@given(st.text(alphabet="abé中", max_size=150), st.text(alphabet="abé中", max_size=150))
@settings(max_examples=100, deadline=None)
def test_levenshtein_matches_textbook_on_long_unicode(a, b):
    assert levenshtein(a, b) == helpers.scalar_levenshtein(a, b)


@pytest.mark.parametrize(
    "a, b",
    [
        ("", ""),
        ("", "xy" * 40),
        ("xy" * 40, ""),
        ("abcdefghij" * 7, "abcdefghij" * 7),
        ("a" * 70, "a" * 3),
        ("a" * 3, "a" * 130),
        ("a" * 65, "b" * 65),
    ],
)
def test_levenshtein_edge_cases(a, b):
    assert levenshtein(a, b) == helpers.scalar_levenshtein(a, b)


def test_levenshtein_bulk_calls_match_reference():
    strings = ["", "kitten", "kitten", "sitting", "a" * 70, "", "中é" * 40, "flaw"]
    m = LevenshteinMetric("s", strings)
    ids = [3, 0, 1, 2, 2, 7, 4, 5, 6, 0]
    for x in range(len(strings)):
        before = m.evals
        row = m.dist_many(x, ids)
        assert m.evals == before + len(ids)
        assert row.tolist() == [helpers.scalar_levenshtein(strings[x], strings[i]) for i in ids]
    for q in ("", "kitten", "not in the dataset", "é" * 90):
        before = m.evals
        row = m.dist_point_many(q, ids)
        assert m.evals == before + len(ids)
        assert row.tolist() == [helpers.scalar_levenshtein(q, strings[i]) for i in ids]


def test_levenshtein_desk_values():
    assert levenshtein("kitten", "sitting") == 3
    assert levenshtein("", "abc") == 3
    assert levenshtein("abc", "abc") == 0
    assert levenshtein("flaw", "lawn") == 2


def test_minkowski_matches_scalar():
    rng = random.Random(3)
    vecs = [[rng.uniform(-4, 4) for _ in range(2)] for _ in range(30)]
    m2 = MinkowskiMetric("a", vecs, p=2)
    m1 = MinkowskiMetric("b", vecs, p=1)
    for _ in range(300):
        i, j = rng.randrange(30), rng.randrange(30)
        assert m2.dist(i, j) == pytest.approx(helpers.scalar_l2(vecs[i], vecs[j]), abs=1e-12)
        assert m1.dist(i, j) == pytest.approx(helpers.scalar_l1(vecs[i], vecs[j]), abs=1e-12)


def _loop_minkowski(u, v, p):
    # the coordinates added left to right, one rounding per step
    acc = 0.0
    for a, b in zip(u, v):
        d = a - b
        acc += d * d if p == 2 else abs(d)
    return math.sqrt(acc) if p == 2 else acc


def _row_major_minkowski(mat, ids, origin, p):
    # the earlier (n, dim) kernel; numpy sums rows of 8 or more pairwise
    diff = mat[ids] - origin
    return np.sqrt((diff * diff).sum(axis=1)) if p == 2 else np.abs(diff).sum(axis=1)


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("dim", [1, 2, 3, 7, 8, 9, 16, 33])
def test_minkowski_sums_coordinates_left_to_right(dim, p):
    rng = random.Random(100 * dim + p)
    n = 40
    # mixed magnitudes, so the summation order shows in the last bit
    vecs = [[rng.uniform(-5, 5) * 10.0 ** rng.randint(-3, 3) for _ in range(dim)] for _ in range(n)]
    mat = np.asarray(vecs)
    m = MinkowskiMetric("v", vecs, p=p)
    assert m.dim == dim
    ids = rng.choices(range(n), k=3 * n)  # with duplicates
    q = [rng.uniform(-5, 5) for _ in range(dim)]
    for x in (0, 17, n - 1):
        row = m.dist_many(x, ids)
        want = [_loop_minkowski(vecs[y], vecs[x], p) for y in ids]
        assert row.tolist() == want
        assert [m.dist(x, y) for y in ids] == want
        if dim <= 7:
            assert row.tolist() == _row_major_minkowski(mat, ids, mat[x], p).tolist()
    row = m.dist_point_many(q, ids)
    want = [_loop_minkowski(vecs[y], q, p) for y in ids]
    assert row.tolist() == want
    assert [m.dist_point(q, y) for y in ids] == want
    if dim <= 7:
        assert row.tolist() == _row_major_minkowski(mat, ids, np.asarray(q), p).tolist()
    for bad in ([0.0] * (dim + 1), [[0.0] * dim], 0.0):
        with pytest.raises(InputError):
            m.dist_point(bad, 0)
        with pytest.raises(InputError):
            m.dist_point_many(bad, ids)


def test_scalar_and_bulk_are_bit_identical():
    # verify_greedy_tree compares radii bitwise, so dist and dist_many
    # must agree to the last bit, not approximately.
    rng = random.Random(9)
    n = 64
    for m in _spaces(rng, n):
        ids = np.arange(n)
        for x in (0, 7, n - 1):
            row = m.dist_many(x, ids)
            for y in range(n):
                assert m.dist(x, y) == row[y]


def test_paired_calls_match_bulk_bits():
    # The lockstep greedy pass reads dist_pairs where greedy_permutation
    # reads dist_many, so the two must agree to the last bit.  Dim 9 is
    # past numpy's 8-wide pairwise blocks.
    rng = random.Random(12)
    n = 48
    vecs9 = [[rng.uniform(-5, 5) * 10.0 ** rng.randint(-3, 3) for _ in range(9)] for _ in range(n)]
    for m in _spaces(rng, n) + [MinkowskiMetric("v9", vecs9, p=2)]:
        xs = np.asarray([rng.randrange(n) for _ in range(300)])
        ys = np.asarray([rng.randrange(n) for _ in range(300)])
        before = m.evals
        row = m.dist_pairs(xs, ys)
        assert m.evals == before + 300
        want = np.empty(300)
        for x in set(xs.tolist()):
            want[xs == x] = m.dist_many(x, ys[xs == x])
        assert row.tobytes() == want.tobytes()
        assert m.dist_pairs([], []).size == 0


@pytest.mark.parametrize("xs, ys", [([0, -1], [1, 0]), ([0, 1], [2, 0]), ([0, 1], [1]), ([[0]], [[1]])])
def test_paired_calls_reject_bad_ids_uncounted(xs, ys):
    for m in (AbsDiffMetric("x", [0.0, 1.0]), LevenshteinMetric("s", ["a", "b"])):
        with pytest.raises(InputError):
            m.dist_pairs(xs, ys)
        assert m.evals == 0


def test_dist_point_accepts_foreign_payloads():
    m = AbsDiffMetric("x", [0.0, 10.0])
    assert m.dist_point(4.0, 1) == 6.0
    v = MinkowskiMetric("v", [[0.0, 0.0], [3.0, 4.0]], p=2)
    assert v.dist_point([0.0, 0.0], 1) == 5.0
    s = LevenshteinMetric("s", ["abc", "axc"])
    assert s.dist_point("abc", 1) == 1.0


def test_payload_validation():
    m = AbsDiffMetric("x", [0.0, 1.0])
    with pytest.raises(InputError):
        m.dist_point("not a number", 0)
    v = MinkowskiMetric("v", [[0.0, 0.0]], p=2)
    with pytest.raises(InputError):
        v.dist_point([1.0, 2.0, 3.0], 0)
    with pytest.raises(InputError):
        m.dist(0, 5)
    with pytest.raises(InputError):
        m.dist_many(0, [[0, 1]])


@pytest.mark.parametrize("bad", [-1, 2])
def test_bulk_calls_reject_out_of_range_ids(bad):
    m = AbsDiffMetric("x", [0.0, 1.0])
    with pytest.raises(InputError):
        m.dist_many(0, [0, bad])
    with pytest.raises(InputError):
        m.dist_point_many(0.5, [bad, 1])
    assert m.evals == 0


def test_constructor_validation():
    with pytest.raises(ConfigurationError):
        MinkowskiMetric("v", [[0.0]], p=3)
    with pytest.raises(ConfigurationError):
        MinkowskiMetric("v", np.zeros((4, 0)), p=2)
    with pytest.raises(ConfigurationError):
        ProductMetric([])
    with pytest.raises(ConfigurationError):
        ProductMetric([AbsDiffMetric("a", [0.0]), AbsDiffMetric("b", [0.0, 1.0])])


def test_product_dominates_factors():
    rng = random.Random(11)
    n = 25
    xs = [rng.uniform(0, 9) for _ in range(n)]
    vecs = [[rng.uniform(0, 9) for _ in range(2)] for _ in range(n)]
    fa = AbsDiffMetric("x", xs)
    fb = MinkowskiMetric("v", vecs, p=2)
    pm = ProductMetric([fa, fb])
    assert pm.m == 2
    for _ in range(400):
        i, j = rng.randrange(n), rng.randrange(n)
        d = pm.dist(i, j)
        assert d == max(fa.dist(i, j), fb.dist(i, j))
        assert d >= fa.dist(i, j) and d >= fb.dist(i, j)


def test_product_bulk_matches_scalar():
    xs = AbsDiffMetric("x", [0.0, 3.0, 8.0])
    ys = AbsDiffMetric("y", [1.0, 1.0, 9.0])
    pm = ProductMetric([xs, ys])
    row = pm.dist_many(0, [0, 1, 2])
    assert [pm.dist(0, j) for j in range(3)] == row.tolist()
    prow = pm.dist_point_many((0.0, 1.0), [0, 1, 2])
    assert prow.tolist() == row.tolist()


def test_eval_counting():
    m = AbsDiffMetric("x", [0.0, 1.0, 2.0])
    assert m.evals == 0
    m.dist(0, 1)
    assert m.evals == 1
    m.dist_many(0, [0, 1, 2])
    assert m.evals == 4
    m.evals = 0
    assert m.evals == 0


def test_rejected_payload_is_not_counted():
    m = MinkowskiMetric("v", [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], p=2)
    with pytest.raises(InputError):
        m.dist_point([1.0], 0)
    with pytest.raises(InputError):
        m.dist_point_many([1.0], [0, 1, 1])
    assert m.evals == 0


def test_product_charges_every_factor():
    xs = AbsDiffMetric("x", [0.0, 1.0])
    ys = AbsDiffMetric("y", [0.0, 1.0])
    pm = ProductMetric([xs, ys])
    pm.dist(0, 1)
    pm.dist_many(0, [0, 1])
    assert xs.evals == 3 and ys.evals == 3
    assert pm.evals == 6


def test_dataset_summary_desk_values():
    xs = AbsDiffMetric("x", [0.0, 1.0, 10.0])
    ys = AbsDiffMetric("y", [0.0, 2.0, 4.0])
    pm = ProductMetric([xs, ys])
    s = dataset_summary(pm, [0, 1, 2])
    assert s.n == 3
    fx = s.per_factor["x"]
    assert fx.diameter == 10.0 and fx.min_distance == 1.0 and fx.spread == 10.0
    assert not fx.has_duplicates
    # product rows: max(|dx|, |dy|) pairwise = 2, 10, 9
    assert s.product.diameter == 10.0
    assert s.product.min_distance == 2.0
    assert s.product.spread == 5.0


def test_dataset_summary_flags_duplicates():
    xs = AbsDiffMetric("x", [5.0, 5.0, 7.0])
    pm = ProductMetric([xs])
    s = dataset_summary(pm, [0, 1, 2])
    assert s.per_factor["x"].has_duplicates
    assert s.per_factor["x"].spread == math.inf


def test_dataset_summary_eval_budget():
    n = 12
    xs = AbsDiffMetric("x", list(range(n)))
    ys = AbsDiffMetric("y", list(range(n)))
    pm = ProductMetric([xs, ys])
    dataset_summary(pm, range(n))
    # one all-pairs scan per factor, product rows derived for free
    assert xs.evals == n * (n - 1) // 2
    assert ys.evals == n * (n - 1) // 2
