"""Brute-force oracle: the reference the whole suite leans on."""

import random

import numpy as np
import pytest

import helpers
from greedyrange import (
    AbsDiffMetric,
    InputError,
    LevenshteinMetric,
    MinkowskiMetric,
    exact_product_range,
    sandwich_check,
)


def test_desk_values():
    xs = AbsDiffMetric("x", [0.0, 1.0, 5.0, 9.0])
    ys = AbsDiffMetric("y", [0.0, 2.0, 5.0, 1.0])
    got = exact_product_range([xs, ys], (0.5, 0.5), (2.0, 2.0), [0, 1, 2, 3])
    assert got == {0, 1}
    got = exact_product_range([xs, ys], (5.0, 5.0), (0.0, 0.0), [0, 1, 2, 3])
    assert got == {2}
    got = exact_product_range([xs], (4.0,), (10.0,), [0, 1, 2, 3])
    assert got == {0, 1, 2, 3}


def test_every_kind_of_id_input_gives_the_same_set():
    n = 30
    xs = AbsDiffMetric("x", [float(i % 7) for i in range(n)])
    ys = AbsDiffMetric("y", [float(i % 4) for i in range(n)])
    ids = list(range(3, n))
    want = exact_product_range([xs, ys], (3.0, 1.0), (2.0, 1.0), ids)
    assert want and len(want) < len(ids)
    inputs = [np.array(ids), ids, set(ids), (i for i in ids), [np.int64(i) for i in ids], range(3, n)]
    for points in inputs:
        assert exact_product_range([xs, ys], (3.0, 1.0), (2.0, 1.0), points) == want
    for empty in ([], np.empty(0, dtype=np.intp), iter(())):
        assert exact_product_range([xs, ys], (3.0, 1.0), (2.0, 1.0), empty) == set()


def test_zero_radius_picks_up_duplicates():
    xs = AbsDiffMetric("x", [3.0, 3.0, 4.0])
    assert exact_product_range([xs], (3.0,), (0.0,), [0, 1, 2]) == {0, 1}


def test_eval_count_is_exactly_n_times_m():
    n = 37
    xs = AbsDiffMetric("x", [float(i) for i in range(n)])
    ys = AbsDiffMetric("y", [float(i % 5) for i in range(n)])
    exact_product_range([xs, ys], (0.0, 0.0), (1.0, 1.0), range(n))
    assert xs.evals == n and ys.evals == n


def test_matches_independent_scan():
    rng = random.Random(8)
    n = 40
    values = [rng.uniform(0, 10) for _ in range(n)]
    vecs = [[rng.uniform(0, 10), rng.uniform(0, 10)] for _ in range(n)]
    strs = ["".join(rng.choice("ab") for _ in range(4)) for _ in range(n)]
    spaces = [
        AbsDiffMetric("x", values),
        MinkowskiMetric("v", vecs, p=2),
        LevenshteinMetric("s", strs),
    ]
    table = {i: (values[i], vecs[i], strs[i]) for i in range(n)}
    dists = [helpers.scalar_abs, helpers.scalar_l2, helpers.scalar_levenshtein]
    for _ in range(50):
        q = (rng.uniform(0, 10), [rng.uniform(0, 10), rng.uniform(0, 10)], "abab")
        radii = (rng.uniform(0.1, 5), rng.uniform(0.1, 5), float(rng.randrange(5)))
        got = exact_product_range(spaces, q, radii, range(n))
        assert got == helpers.brute_product_range(table, q, radii, dists)


def test_validation():
    xs = AbsDiffMetric("x", [0.0, 1.0])
    with pytest.raises(InputError):
        exact_product_range([xs], (0.0, 0.0), (1.0,), [0, 1])
    with pytest.raises(InputError):
        exact_product_range([xs], (0.0,), (1.0, 1.0), [0, 1])
    with pytest.raises(InputError):
        exact_product_range([xs], (0.0,), (-1.0,), [0, 1])
    with pytest.raises(InputError):
        exact_product_range([], (), (), [0])


def test_sandwich_check_verdicts():
    ok = sandwich_check({1, 2}, {1, 2}, {1, 2, 3})
    assert ok.passed and ok.missing == () and ok.extra == ()
    assert sandwich_check({1, 2, 3}, {1, 2}, {1, 2, 3}).passed  # outer edge
    assert sandwich_check({1, 2}, {1, 2}, {1, 2}).passed  # inner edge

    dropped = sandwich_check({1}, {1, 2}, {1, 2, 3})
    assert not dropped.passed and dropped.missing == (2,)

    leaked = sandwich_check({1, 2, 9}, {1, 2}, {1, 2, 3})
    assert not leaked.passed and leaked.extra == (9,)

    both = sandwich_check({9}, {2}, {2, 3})
    assert both.missing == (2,) and both.extra == (9,)
