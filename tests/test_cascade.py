"""Cascaded trees: construction, queries, space accounting, IO."""

import functools
import random

import numpy as np
import pytest

import helpers
from greedyrange import (
    FactorSpec,
    GreedyRangeTree,
    GreedyTree,
    InputError,
    ProductQuery,
    aux_leaf_totals,
    build_greedy_tree,
    build_grt,
    exact_product_range,
    greedy_permutation,
    grt_from_obj,
    grt_query,
    grt_to_obj,
    product_range_query,
    sandwich_check,
    synth_dataset,
    verify_greedy_tree,
)
from greedyrange import search
from greedyrange.cli import build_structure
from greedyrange.tree import subtree_points


def small_dataset(m, n, seed=0, layout="uniform"):
    specs = [FactorSpec(f"f{i}", "abs1d") for i in range(m)]
    if m >= 2:
        specs[1] = FactorSpec("f1", "l2", dim=2)
    return synth_dataset(specs, n, layout=layout, seed=seed)


def test_single_factor_is_a_plain_tree():
    ds = small_dataset(1, 30, seed=1)
    (space,) = ds.spaces()
    grt = build_grt(list(range(30)), [space])
    assert isinstance(grt, GreedyTree)
    plain = build_greedy_tree(greedy_permutation(list(range(30)), space), space)
    assert helpers.tree_columns(grt) == helpers.tree_columns(plain)


def walk_structures(struct):
    """Yield every (tree, expected_point_set) pair in the cascade."""
    if isinstance(struct, GreedyTree):
        yield struct, set(struct.points().tolist())
        return
    yield struct.primary, set(struct.primary.points().tolist())
    for v in struct.primary.nodes():
        sub = struct.aux_of(v)
        expected = set(subtree_points(struct.primary, v).tolist())
        if isinstance(sub, GreedyTree):
            yield sub, expected
        else:
            assert set(sub.primary.points().tolist()) == expected
            yield from walk_structures(sub)


@pytest.mark.parametrize("m,n", [(2, 40), (3, 18)])
def test_every_aux_covers_exactly_its_node(m, n):
    ds = small_dataset(m, n, seed=3)
    grt = build_grt(list(range(n)), ds.spaces())
    count = 0
    for tree, expected in walk_structures(grt):
        assert set(tree.points().tolist()) == expected
        assert verify_greedy_tree(tree).ok
        count += 1
    assert count > n  # primary plus one aux per node, at least


def test_grt_query_sandwich_and_exactness():
    rng = random.Random(2)
    for m, n in ((2, 45), (3, 20)):
        ds = small_dataset(m, n, seed=m)
        spaces = ds.spaces()
        grt = build_grt(list(range(n)), spaces)
        ids = list(range(n))
        for eps in (0.0, 0.5, 1.0):
            for _ in range(10):
                pid = rng.randrange(n)
                coords = ds.payloads(pid)
                radii = tuple(rng.uniform(0.05, 0.5) for _ in range(m))
                q = ProductQuery(coords=coords, radii=radii, epsilon=eps)
                got, stats = grt_query(grt, q)
                exact = exact_product_range(spaces, coords, radii, ids)
                outer = exact_product_range(spaces, coords, [(1 + eps) * r for r in radii], ids)
                assert sandwich_check(got, exact, outer).passed
                if eps == 0.0:
                    assert got == exact
                assert stats.output_size == len(got)
                assert len(stats.dist_evals) == m


def test_aux_leaf_flush_needs_distance_test():
    # A leaf's auxiliary is a single point whose tree radius is 0, below
    # any positive flush cutoff.  Covers at the first level must not let
    # such auxiliaries report without checking the second factor.
    ds = small_dataset(2, 64, seed=42, layout="gaussian")
    spaces = ds.spaces()
    grt = build_grt(list(range(64)), spaces)
    rng = random.Random(7)
    for _ in range(30):
        pid = rng.randrange(64)
        coords = ds.payloads(pid)
        radii = (rng.uniform(0.1, 1.0), rng.uniform(0.01, 0.1))
        q = ProductQuery(coords=coords, radii=radii, epsilon=1.0)
        got, _ = grt_query(grt, q)
        outer = exact_product_range(spaces, coords, [2 * r for r in radii], range(64))
        assert got <= outer


def test_structures_agree():
    ds = small_dataset(2, 50, seed=11)
    spaces = ds.spaces()
    grt = build_structure(ds, "grt")
    tree = build_structure(ds, "product-tree")
    rng = random.Random(5)
    for _ in range(25):
        coords = ds.payloads(rng.randrange(50))
        radii = (rng.uniform(0.05, 0.4), rng.uniform(0.05, 0.4))
        q0 = ProductQuery(coords=coords, radii=radii, epsilon=0.0)
        a, _ = grt_query(grt, q0)
        b, _ = product_range_query(tree, q0)
        assert a == b
        q1 = ProductQuery(coords=coords, radii=radii, epsilon=0.5)
        a1, _ = grt_query(grt, q1)
        b1, _ = product_range_query(tree, q1)
        exact = exact_product_range(spaces, coords, radii, range(50))
        outer = exact_product_range(spaces, coords, [1.5 * r for r in radii], range(50))
        assert sandwich_check(a1, exact, outer).passed
        assert sandwich_check(b1, exact, outer).passed


def test_aux_leaf_totals_accounting():
    n = 26
    ds = small_dataset(2, n, seed=9)
    grt = build_grt(list(range(n)), ds.spaces())
    totals = aux_leaf_totals(grt)
    assert totals[0] == n
    # level-1 auxiliaries hold exactly their node's points, so their leaf
    # count sums to the sum of point counts over all primary nodes
    want = sum(grt.primary.count)
    assert totals[1] == want
    assert set(totals) == {0, 1}


def test_query_validation():
    ds = small_dataset(2, 10, seed=1)
    grt = build_grt(list(range(10)), ds.spaces())
    with pytest.raises(InputError):
        grt_query(grt, ProductQuery(coords=(0.0,), radii=(1.0,), epsilon=0.0))
    with pytest.raises(InputError):
        build_grt([], ds.spaces())
    with pytest.raises(InputError):
        build_grt([0], [])


def _flatten(struct):
    """Every tree of a cascade, level by level, as plain columns."""
    if isinstance(struct, GreedyTree):
        return helpers.tree_columns(struct)
    subs = [_flatten(struct.aux_of(v)) for v in struct.primary.nodes()]
    return (helpers.tree_columns(struct.primary), subs, struct.factors)


@pytest.mark.parametrize("m,n", [(2, 30), (3, 14)])
def test_serialization_roundtrip(m, n):
    ds = small_dataset(m, n, seed=n)
    spaces = ds.spaces()
    grt = build_grt(list(range(n)), spaces)
    levels = grt_to_obj(grt)
    assert len(levels) == m
    # the aux of level-k node j holds exactly that node's points
    for upper, lower in zip(levels, levels[1:]):
        assert (2 * upper["count"] - 1).sum() == len(lower["count"])
    raw = [{k: np.frombuffer(v.tobytes(), dtype=v.dtype) for k, v in level.items()} for level in levels]
    back = grt_from_obj(raw, spaces, n)
    assert isinstance(back, GreedyRangeTree)
    assert _flatten(back) == _flatten(grt)
    # the revived cascade answers queries identically
    rng = random.Random(0)
    coords = ds.payloads(0)
    radii = tuple(rng.uniform(0.1, 0.4) for _ in range(m))
    q = ProductQuery(coords=coords, radii=radii, epsilon=0.25)
    assert grt_query(back, q)[0] == grt_query(grt, q)[0]


def _truncate_level(levels, k, nodes):
    levels[k] = {name: col[:-nodes] for name, col in levels[k].items()}


def test_from_obj_validation():
    ds = small_dataset(2, 8, seed=2)
    spaces = ds.spaces()
    grt = build_grt(list(range(8)), spaces)
    assert _flatten(grt_from_obj(grt_to_obj(grt), spaces, 8)) == _flatten(grt)
    with pytest.raises(InputError):
        grt_from_obj(grt_to_obj(grt), spaces[:1], 8)  # two levels, one factor
    with pytest.raises(InputError):
        grt_from_obj(grt_to_obj(grt), [], 8)
    with pytest.raises(InputError):
        grt_from_obj(grt_to_obj(grt), spaces, 9)  # the top tree holds 8 points
    with pytest.raises(InputError):
        grt_from_obj(grt_to_obj(grt.primary), spaces, 8)  # plain tree, two factors
    levels = grt_to_obj(grt)
    levels[1].pop("radius")
    with pytest.raises(InputError):
        grt_from_obj(levels, spaces, 8)
    # the last primary node is missing its auxiliary (a one-point tree)
    levels = grt_to_obj(grt)
    _truncate_level(levels, 1, 1)
    with pytest.raises(InputError):
        grt_from_obj(levels, spaces, 8)
    # an aux holding one point more than its node: one more node in level 1
    levels = grt_to_obj(grt)
    levels[1] = {name: np.concatenate([col, col[-1:]]) for name, col in levels[1].items()}
    with pytest.raises(InputError):
        grt_from_obj(levels, spaces, 8)
    # the one-point aux of a primary leaf holds the next id in place of its
    # own: each forest is well formed, only the levels disagree
    levels = grt_to_obj(grt)
    leaf = grt.primary.right.index(-1)
    root = grt.roots[0][leaf]
    levels[1]["center"][root] = (levels[1]["center"][root] + 1) % 8
    with pytest.raises(InputError, match="not those of its node"):
        grt_from_obj(levels, spaces, 8)


@pytest.mark.parametrize("m,n", [(2, 60), (3, 24)])
def test_level_rounds_match_recursive_reference(m, n, monkeypatch):
    # One frontier search per level must answer and count exactly as a
    # recursive walk that searches every auxiliary on its own.  The walk
    # splits every node, so the levels search without buckets.
    monkeypatch.setattr(search, "LEAF_SIZE", 1)
    ds = small_dataset(m, n, seed=20 + m)
    grt = build_grt(list(range(n)), ds.spaces())
    rng = random.Random(m)
    for eps in (0.0, 0.5, 4.0):
        for _ in range(15):
            coords = ds.payloads(rng.randrange(n))
            radii = tuple(rng.uniform(0.1, 0.6) for _ in range(m))
            got, stats = grt_query(grt, ProductQuery(coords=coords, radii=radii, epsilon=eps))
            want, want_stats = helpers.reference_grt_query(grt, coords, radii, eps)
            assert got == want
            assert (stats.width, stats.height, stats.splits, stats.dist_evals, stats.output_size) == want_stats


# ---------------------------------------------------------------------------
# Buckets against the oracle, on cascades several times LEAF_SIZE: a bucket
# at level i is scanned on factors i..m-1 and skips the deeper levels.
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def bucket_cascade(m, n):
    specs = [FactorSpec("a", "abs1d"), FactorSpec("v", "l2", dim=2), FactorSpec("b", "abs1d")][:m]
    ds = synth_dataset(specs, n, layout="uniform", seed=m)
    return ds, build_grt(list(range(n)), ds.spaces())


@pytest.mark.parametrize("m,n", [(2, 6 * search.LEAF_SIZE), (3, 4 * search.LEAF_SIZE)])
@pytest.mark.parametrize("eps", [0.0, 0.5, 4.0])
def test_buckets_match_oracle(m, n, eps, monkeypatch):
    ds, grt = bucket_cascade(m, n)
    spaces = ds.spaces()
    log = helpers.bucket_log(monkeypatch, search)
    rng = random.Random(10 * m + int(eps * 10))
    for _ in range(12):
        coords = ds.payloads(rng.randrange(n))
        radii = tuple(rng.uniform(0.15, 0.5) for _ in range(m))
        before = [f.evals for f in spaces]
        got, stats = grt_query(grt, ProductQuery(coords=coords, radii=radii, epsilon=eps))
        assert stats.dist_evals == tuple(f.evals - b for f, b in zip(spaces, before))
        exact = exact_product_range(spaces, coords, radii, range(n))
        outer = exact_product_range(spaces, coords, [(1 + eps) * r for r in radii], range(n))
        assert sandwich_check(got, exact, outer).passed
        if eps == 0.0:
            assert got == exact
        want, want_stats = helpers.reference_grt_query(grt, coords, radii, eps, leaf_size=search.LEAF_SIZE)
        assert got == want
        assert (stats.width, stats.height, stats.splits, stats.dist_evals, stats.output_size) == want_stats
    # Some level splits before it buckets; with m = 3 some middle-level
    # bucket is scanned on both of the factors left.
    assert any(buckets and splits for _, buckets, splits, _ in log)
    if m == 3:
        assert any(k == 2 and buckets and evals[1] for k, buckets, _, evals in log)
