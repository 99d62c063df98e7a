"""Product range search: the sandwich contract and its edge cases."""

import math
import os
import random
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import greedyrange
import helpers
from greedyrange import (
    AbsDiffMetric,
    Dataset,
    FactorSpec,
    GreedyTree,
    InputError,
    MinkowskiMetric,
    ProductMetric,
    ProductQuery,
    build_greedy_tree,
    exact_product_range,
    greedy_permutation,
    product_range_query,
    range_cover,
    range_report,
    sandwich_check,
    synth_dataset,
    tree_from_obj,
    tree_to_obj,
)
from greedyrange.search import LEAF_SIZE, _frontier_search
from greedyrange.tree import subtree_points


def product_tree(factors, n):
    pm = ProductMetric(factors)
    return build_greedy_tree(greedy_permutation(list(range(n)), pm), pm), pm


def check_sandwich(factors, tree, coords, radii, eps):
    ids = list(range(tree.n))
    q = ProductQuery(coords=tuple(coords), radii=tuple(radii), epsilon=eps)
    got, stats = product_range_query(tree, q)
    exact = exact_product_range(factors, coords, radii, ids)
    outer = exact_product_range(factors, coords, [(1 + eps) * r for r in radii], ids)
    verdict = sandwich_check(got, exact, outer)
    assert verdict.passed, f"missing={verdict.missing} extra={verdict.extra}"
    assert stats.output_size == len(got)
    return got, stats


def test_desk_two_factor_exact():
    xs = AbsDiffMetric("x", [0.0, 1.0, 5.0, 9.0])
    ys = AbsDiffMetric("y", [0.0, 2.0, 5.0, 1.0])
    t, _ = product_tree([xs, ys], 4)
    got, _ = check_sandwich([xs, ys], t, (0.5, 0.5), (2.0, 2.0), 0.0)
    assert got == {0, 1}


def test_termination_cutoff_regression():
    # Stopping the heap at eps*min(r) (instead of half that) flushes a
    # queued node whose farthest point sits at x-distance 2.7, past the
    # expanded limit (1+1)*1 = 2.  This instance caught it.
    xs = AbsDiffMetric("x", [0.0, 0.0, 1.8, 2.7])
    ys = AbsDiffMetric("y", [0.0, 9.0, 5.0, 5.0])
    t, _ = product_tree([xs, ys], 4)
    got, _ = check_sandwich([xs, ys], t, (0.0, 0.0), (1.0, 10.0), 1.0)
    assert 3 not in got
    assert got in ({0, 1}, {0, 1, 2})


def test_far_query_returns_nothing():
    # The root must pass the same entry test as any other node.  A tree
    # whose radius is below the flush cutoff would otherwise dump every
    # point without a single distance check.
    xs = AbsDiffMetric("x", [0.0, 0.01])
    t, _ = product_tree([xs], 2)
    got, stats = check_sandwich([xs], t, (100.0,), (1.0,), 1.0)
    assert got == set()
    assert stats.width == 0


def test_epsilon_zero_is_exact():
    rng = random.Random(17)
    n = 60
    values = [rng.uniform(0, 10) for _ in range(n)]
    vecs = [[rng.uniform(0, 10), rng.uniform(0, 10)] for _ in range(n)]
    xs = AbsDiffMetric("x", values)
    vs = MinkowskiMetric("v", vecs, p=2)
    t, _ = product_tree([xs, vs], n)
    ids = list(range(n))
    for _ in range(40):
        pid = rng.randrange(n)  # query centered on a dataset point
        coords = (values[pid], vecs[pid])
        radii = (rng.uniform(0.2, 3.0), rng.uniform(0.2, 3.0))
        q = ProductQuery(coords=coords, radii=radii, epsilon=0.0)
        got, _ = product_range_query(t, q)
        assert got == exact_product_range([xs, vs], coords, radii, ids)


@pytest.mark.parametrize("eps", [0.0, 0.1, 0.5, 1.0, 4.0])
def test_randomized_sandwich(eps):
    rng = random.Random(int(eps * 10) + 1)
    n = 80
    xs = AbsDiffMetric("x", [rng.uniform(0, 20) for _ in range(n)])
    ys = AbsDiffMetric("y", [rng.gauss(0, 5) for _ in range(n)])
    t, _ = product_tree([xs, ys], n)
    for _ in range(25):
        coords = (rng.uniform(-2, 22), rng.uniform(-12, 12))
        radii = (rng.uniform(0.1, 6.0), rng.uniform(0.1, 6.0))
        check_sandwich([xs, ys], t, coords, radii, eps)


def test_coverage_probe_accepts_valid_runs():
    rng = random.Random(23)
    n = 8 * LEAF_SIZE
    xs = AbsDiffMetric("x", [rng.uniform(0, 10) for _ in range(n)])
    t, _ = product_tree([xs], n)
    coords, radii = (5.0,), (2.0,)
    exact = exact_product_range([xs], coords, radii, range(n))
    q = ProductQuery(coords=coords, radii=radii, epsilon=0.3)
    for leaf_size in (1, LEAF_SIZE):
        got, _ = helpers.probed_product_search(t, q, exact, leaf_size)
        assert exact <= got


def test_query_validation():
    with pytest.raises(InputError):
        ProductQuery(coords=(0.0,), radii=(1.0, 2.0), epsilon=0.0)
    with pytest.raises(InputError):
        ProductQuery(coords=(), radii=(), epsilon=0.0)
    with pytest.raises(InputError):
        ProductQuery(coords=(0.0,), radii=(0.0,), epsilon=0.0)
    with pytest.raises(InputError):
        ProductQuery(coords=(0.0,), radii=(1.0,), epsilon=-0.5)
    with pytest.raises(InputError):
        ProductQuery(coords=(0.0,), radii=(math.nan,), epsilon=0.0)
    with pytest.raises(InputError):
        ProductQuery(coords=(0.0,), radii=(math.inf,), epsilon=0.0)
    with pytest.raises(InputError):
        ProductQuery(coords=(0.0,), radii=(1.0,), epsilon=math.inf)
    q = ProductQuery(coords=(0.0, 0.0), radii=(2.0, 4.0), epsilon=0.0)
    assert q.aspect_ratio == 2.0


def test_from_point_uses_dataset_payloads():
    ds = Dataset([FactorSpec("x", "abs1d"), FactorSpec("y", "abs1d")], {"x": [1.0, 2.0], "y": [5.0, 6.0]})
    q = ProductQuery.from_point(ds, 1, (0.5, 0.5), 0.0)
    assert q.coords == (2.0, 6.0)


def test_tree_and_query_must_agree():
    xs = AbsDiffMetric("x", [0.0, 1.0])
    t_plain = build_greedy_tree(greedy_permutation([0, 1], xs), xs)
    q = ProductQuery(coords=(0.0,), radii=(1.0,), epsilon=0.0)
    with pytest.raises(InputError):
        product_range_query(t_plain, q)  # not a product tree
    t, pm = product_tree([xs], 2)
    with pytest.raises(InputError):
        product_range_query(t, ProductQuery(coords=(0.0, 0.0), radii=(1.0, 1.0), epsilon=0.0))
    got, stats = product_range_query(GreedyTree.empty(pm), q)
    assert got == set() and stats.width == 0


def test_stats_shape():
    rng = random.Random(31)
    n = 64
    xs = AbsDiffMetric("x", [rng.uniform(0, 10) for _ in range(n)])
    ys = AbsDiffMetric("y", [rng.uniform(0, 10) for _ in range(n)])
    t, _ = product_tree([xs, ys], n)
    q = ProductQuery(coords=(5.0, 5.0), radii=(1.0, 1.0), epsilon=0.25)
    got, stats = product_range_query(t, q)
    assert len(stats.dist_evals) == 2
    assert stats.total_evals == sum(stats.dist_evals)
    assert stats.dist_evals[0] >= stats.dist_evals[1]  # factor 0 never short-circuits
    assert stats.splits <= n - 1
    assert stats.height <= stats.splits or stats.splits == 0
    assert stats.output_size == len(got)


# ---------------------------------------------------------------------------
# Single-factor covers.
# ---------------------------------------------------------------------------


def test_range_cover_invariants():
    rng = random.Random(41)
    n = 90
    values = [rng.uniform(0, 30) for _ in range(n)]
    m = AbsDiffMetric("x", values)
    t = build_greedy_tree(greedy_permutation(list(range(n)), m), m)
    for eps in (0.0, 0.5):
        for _ in range(20):
            q = rng.uniform(0, 30)
            r = rng.uniform(0.3, 5.0)
            cover, _ = range_cover(t, q, r, eps)
            seen: list[int] = []
            for v in cover.nodes:
                pts = subtree_points(t, v).tolist()
                seen.extend(pts)
                assert all(abs(values[p] - q) <= (1 + eps) * r + 1e-12 for p in pts)
            assert len(seen) == len(set(seen))  # disjoint
            assert cover.point_count() == len(seen)
            assert sorted(cover.points().tolist()) == sorted(seen)
            exact = {p for p in range(n) if abs(values[p] - q) <= r}
            assert exact <= set(seen)
            got, _ = range_report(t, q, r, eps)
            assert got == set(seen)


def test_range_cover_validation():
    m = AbsDiffMetric("x", [0.0, 1.0])
    t = build_greedy_tree(greedy_permutation([0, 1], m), m)
    with pytest.raises(InputError):
        range_cover(t, 0.0, 0.0, 0.0)
    with pytest.raises(InputError):
        range_cover(t, 0.0, 1.0, -1.0)
    with pytest.raises(InputError):
        range_cover(t, 0.0, math.nan, 0.0)
    with pytest.raises(InputError):
        range_cover(t, 0.0, 1.0, math.nan)


def test_cover_works_on_product_metric_as_single_factor():
    ds = synth_dataset([FactorSpec("a", "abs1d"), FactorSpec("b", "abs1d")], 40, seed=5)
    t = build_greedy_tree(greedy_permutation(list(range(40)), ds.product()), ds.product())
    cover, _ = range_cover(t, (0.5, 0.5), 0.3, 0.5)
    for v in cover.nodes:
        for p in subtree_points(t, v).tolist():
            assert ds.product().dist_point((0.5, 0.5), p) <= 1.5 * 0.3 + 1e-12


# ---------------------------------------------------------------------------
# The rounds against the node-at-a-time best-first reference loop.
# ---------------------------------------------------------------------------


def assert_matches_reference(t, factors, coords, radii, eps, leaf_size=1):
    """Same reported nodes, scanned points and stats as the reference loop."""
    want_nodes, want_hits, want_stats = helpers.reference_heap_search(
        t, factors, coords, radii, eps, leaf_size=leaf_size
    )
    nodes, hits, stats = _frontier_search(t, [0], factors, coords, radii, eps, leaf_size=leaf_size)
    assert sorted(nodes) == sorted(want_nodes)
    assert set(hits.tolist()) == want_hits and len(hits) == len(want_hits)
    assert (stats.width, stats.height, stats.splits, stats.dist_evals, stats.output_size) == want_stats
    return want_nodes, want_stats


@pytest.mark.parametrize("grid", [False, True])
@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("eps", [0.0, 0.5, 4.0])
def test_rounds_match_reference_loop(m, eps, grid):
    # On an integer grid many queued nodes share a radius, so the
    # replayed width depends on the tie-break by center id.
    rng = random.Random(100 * m + int(eps * 10) + grid)
    coord = (lambda: float(rng.randrange(16))) if grid else (lambda: rng.uniform(0, 16))
    n = 120
    values = [coord() for _ in range(n)]
    vecs = [[coord(), coord()] for _ in range(n)]
    factors = [AbsDiffMetric("x", values), MinkowskiMetric("v", vecs, p=2)][:m]
    t, _ = product_tree(factors, n)
    for _ in range(25):
        coords = (coord(), [coord(), coord()])[:m]
        radii = tuple(rng.uniform(0.5, 6.0) for _ in range(m))
        assert_matches_reference(t, factors, coords, radii, eps)
        check_sandwich(factors, t, coords, radii, eps)


def test_rounds_match_reference_with_radius_inversion():
    # The tree of test_right_child_radius_can_exceed_parent: the root's
    # right child has the larger radius, so best-first pops it later
    # than a plain radius order would.
    angles = [0.0, 150.0, 55.0, 100.0]
    vecs = [[0.0, 0.0]] + [[math.cos(math.radians(a)), math.sin(math.radians(a))] for a in angles]
    m = MinkowskiMetric("v", vecs, p=2)
    t = build_greedy_tree(greedy_permutation(list(range(5)), m), m)
    assert t.radius[t.right[0]] > t.radius[0]
    rng = random.Random(3)
    for eps in (0.0, 0.5, 4.0):
        for _ in range(20):
            q = [rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)]
            assert_matches_reference(t, [m], [q], [rng.uniform(0.1, 2.5)], eps)


def test_rounds_match_reference_when_root_is_pruned():
    xs = AbsDiffMetric("x", [0.0, 0.01])
    t, _ = product_tree([xs], 2)
    nodes, stats = assert_matches_reference(t, [xs], (100.0,), (1.0,), 1.0)
    assert nodes == [] and stats == (0, 0, 0, (1,), 0)


def test_coverage_probe_catches_a_pruned_point():
    rng = random.Random(23)
    n = 50
    values = [rng.uniform(0, 10) for _ in range(n)]
    xs = AbsDiffMetric("x", values)
    t, _ = product_tree([xs], n)
    far = max(range(n), key=lambda p: abs(values[p] - 5.0))
    assert abs(values[far] - 5.0) > 1.3 * 2.0  # outside the expanded radius
    q = ProductQuery(coords=(5.0,), radii=(2.0,), epsilon=0.3)
    # At n < LEAF_SIZE the root would be a bucket and hide the planted
    # point, so the probe runs without buckets.
    with pytest.raises(AssertionError, match=r"\[%d\]" % far):
        helpers.probed_product_search(t, q, [far], leaf_size=1)


def test_coverage_probe_raises_under_optimize_flag():
    # A bare assert vanishes under -O; the probe must raise there too.
    code = textwrap.dedent(
        """
        import random
        import helpers
        from greedyrange import (
            AbsDiffMetric, ProductMetric, ProductQuery, build_greedy_tree,
            greedy_permutation,
        )

        rng = random.Random(23)
        n = 50
        values = [rng.uniform(0, 10) for _ in range(n)]
        pm = ProductMetric([AbsDiffMetric("x", values)])
        t = build_greedy_tree(greedy_permutation(list(range(n)), pm), pm)
        far = max(range(n), key=lambda p: abs(values[p] - 5.0))
        q = ProductQuery(coords=(5.0,), radii=(2.0,), epsilon=0.3)
        try:
            helpers.probed_product_search(t, q, [far], leaf_size=1)
        except AssertionError as exc:
            raise SystemExit(3 if str([far]) in str(exc) else 4)
        """
    )
    src = os.path.dirname(os.path.dirname(greedyrange.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.path.dirname(helpers.__file__)]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 3, proc.stderr


@pytest.mark.parametrize("leaf_size", [1, 8])
@pytest.mark.parametrize("eps", [0.0, 0.5, 4.0])
def test_forest_search_equals_one_search_per_root(eps, leaf_size):
    # One search from several roots of a forest must report, scan and
    # count exactly as one search per tree: width and height are maxima,
    # splits and evaluations sums.  On an integer grid the trees' queued
    # nodes tie on radius, so one heap across the roots, or a width summed
    # over them, would read differently.
    rng = random.Random(7 + int(eps * 10) + leaf_size)
    n = 200
    values = [float(rng.randrange(12)) for _ in range(n)]
    vecs = [[float(rng.randrange(12)), float(rng.randrange(12))] for _ in range(n)]
    factors = [AbsDiffMetric("x", values), MinkowskiMetric("v", vecs, p=2)]
    pm = ProductMetric(factors)
    trees = [build_greedy_tree(greedy_permutation(rng.sample(range(n), 60), pm), pm) for _ in range(5)]
    obj = {k: np.concatenate([tree_to_obj(t)[k] for t in trees]) for k in tree_to_obj(trees[0])}
    forest = tree_from_obj(obj, pm, [t.n for t in trees])
    offsets = np.cumsum([0] + [len(t.center) for t in trees]).tolist()
    searched = [0, 2, 3, 4]  # tree 1 is never searched
    several = 0
    for _ in range(25):
        coords = (float(rng.randrange(12)), [float(rng.randrange(12)), float(rng.randrange(12))])
        radii = (rng.uniform(1.0, 4.0), rng.uniform(1.0, 4.0))
        nodes, hits, stats = _frontier_search(
            forest, [offsets[k] for k in searched], factors, coords, radii, eps, leaf_size=leaf_size
        )
        want_nodes, want_hits, singles = [], [], []
        for k in searched:
            one, one_hits, one_stats = _frontier_search(trees[k], [0], factors, coords, radii, eps,
                                                        leaf_size=leaf_size)
            want_nodes += [v + offsets[k] for v in one]
            want_hits += one_hits.tolist()
            singles.append(one_stats)
        assert sorted(nodes) == sorted(want_nodes)
        assert sorted(hits.tolist()) == sorted(want_hits)
        assert stats.width == max(st.width for st in singles)
        assert stats.height == max(st.height for st in singles)
        assert stats.splits == sum(st.splits for st in singles)
        assert stats.dist_evals == tuple(map(sum, zip(*(st.dist_evals for st in singles))))
        assert stats.output_size == sum(st.output_size for st in singles)
        several += sum(st.width for st in singles) > stats.width
    assert several  # some queries search more than one tree


# ---------------------------------------------------------------------------
# Buckets against the oracle.  The trees hold several times LEAF_SIZE
# points, so nodes split before they bucket.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("eps", [0.0, 0.5, 4.0])
def test_buckets_match_oracle_with_radius_inversions(eps, monkeypatch):
    rng = random.Random(61 + int(eps * 10))
    n = 6 * LEAF_SIZE
    vecs = [[rng.uniform(0, 10), rng.uniform(0, 10)] for _ in range(n)]
    values = [rng.gauss(0, 3) for _ in range(n)]
    factors = [MinkowskiMetric("v", vecs, p=2), AbsDiffMetric("x", values)]
    t, _ = product_tree(factors, n)
    assert any(r >= 0 and t.radius[r] > t.radius[v] for v, r in enumerate(t.right))
    log = helpers.bucket_log(monkeypatch, greedyrange.search)
    for _ in range(20):
        pid = rng.randrange(n)
        coords = (vecs[pid], values[pid])
        radii = (rng.uniform(0.5, 3.0), rng.uniform(0.3, 2.0))
        before = [f.evals for f in factors]
        got, stats = product_range_query(t, ProductQuery(coords=coords, radii=radii, epsilon=eps))
        assert stats.dist_evals == tuple(f.evals - b for f, b in zip(factors, before))
        exact = exact_product_range(factors, coords, radii, range(n))
        outer = exact_product_range(factors, coords, [(1 + eps) * r for r in radii], range(n))
        assert sandwich_check(got, exact, outer).passed
        assert stats.output_size == len(got)
        if eps == 0.0:
            assert got == exact
        assert_matches_reference(t, factors, coords, radii, eps, leaf_size=LEAF_SIZE)
    assert any(buckets and splits for _, buckets, splits, _ in log)


@pytest.mark.parametrize("eps", [0.5, 4.0])
def test_bucket_scan_tests_at_r(eps):
    # With a bound of n the root is a bucket unless it is pruned or
    # reported whole, and then the scan alone gives the exact answer,
    # whatever eps allows.
    rng = random.Random(71)
    n = 200
    values = [rng.uniform(0, 10) for _ in range(n)]
    vecs = [[rng.uniform(0, 10), rng.uniform(0, 10)] for _ in range(n)]
    factors = [AbsDiffMetric("x", values), MinkowskiMetric("v", vecs, p=2)]
    t, _ = product_tree(factors, n)
    scanned = 0
    for _ in range(20):
        coords = (rng.uniform(0, 10), [rng.uniform(0, 10), rng.uniform(0, 10)])
        radii = (rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0))
        nodes, hits, stats = _frontier_search(t, [0], factors, coords, radii, eps, leaf_size=n)
        if nodes or not stats.width:
            continue  # the root was reported whole or pruned
        scanned += 1
        assert stats.splits == 0 and stats.width == 1
        assert set(hits.tolist()) == exact_product_range(factors, coords, radii, range(n))
    assert scanned
