"""Greedy permutations, tree construction, merging, verification, IO."""

import copy
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from greedyrange import (
    AbsDiffMetric,
    GreedyTree,
    InputError,
    LevenshteinMetric,
    MinkowskiMetric,
    ProductMetric,
    build_greedy_tree,
    greedy_permutation,
    merge,
    tree_from_obj,
    tree_to_obj,
    verify_greedy_tree,
)
from greedyrange.tree import lockstep_greedy, subtree_points


def line_metric(values):
    return AbsDiffMetric("x", values)


# ---------------------------------------------------------------------------
# Greedy permutation.
# ---------------------------------------------------------------------------


def test_desk_line_example():
    # values 0, 10, 4, 6: after the seed, 10 is farthest (radius 10),
    # then 4 (radius 4, off the seed), then 6 at distance 2 from 4.
    m = line_metric([0.0, 10.0, 4.0, 6.0])
    gp = greedy_permutation([0, 1, 2, 3], m)
    assert gp.order == [0, 1, 2, 3]
    assert gp.insertion_radius == [math.inf, 10.0, 4.0, 2.0]
    assert gp.parent == [None, 0, 0, 2]


def test_desk_square_ties_go_to_smallest_id():
    # unit square corners under l2: both remaining corners sit at
    # distance 1 after (0,0) and (1,1) are placed
    m = MinkowskiMetric("v", [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], p=2)
    gp = greedy_permutation([0, 1, 2, 3], m)
    assert gp.order == [0, 3, 1, 2]
    assert gp.insertion_radius[1] == math.sqrt(2.0)
    assert gp.insertion_radius[2:] == [1.0, 1.0]
    # corner 1 ties between predecessors 0 and 3; smallest id wins
    assert gp.parent == [None, 0, 0, 0]


def test_duplicates_get_radius_zero():
    m = line_metric([5.0, 5.0, 7.0])
    gp = greedy_permutation([0, 1, 2], m)
    assert gp.order == [0, 2, 1]
    assert gp.insertion_radius == [math.inf, 2.0, 0.0]
    assert gp.parent == [None, 0, 0]


def test_seed_selection():
    m = line_metric([0.0, 10.0, 4.0])
    gp = greedy_permutation([0, 1, 2], m, seed=2)
    assert gp.order[0] == 2
    assert gp.insertion_radius[1] == 6.0  # farthest from 4 is 10
    with pytest.raises(InputError):
        greedy_permutation([0, 1], m, seed=2)


def test_input_validation():
    m = line_metric([0.0, 1.0])
    with pytest.raises(InputError):
        greedy_permutation([], m)
    with pytest.raises(InputError):
        greedy_permutation([0, 0], m)


@pytest.mark.parametrize("seed", range(12))
def test_matches_brute_simulator(seed):
    rng = random.Random(seed)
    n = rng.randrange(2, 50)
    values = [rng.uniform(0, 100) for _ in range(n)]
    if seed % 3 == 0:
        # force ties: collapse to a few distinct values
        values = [float(rng.randrange(4)) for _ in range(n)]
    m = line_metric(values)
    gp = greedy_permutation(list(range(n)), m)
    order, radii, parents = helpers.brute_greedy(range(n), lambda a, b: abs(values[a] - values[b]))
    assert gp.order == order
    assert gp.parent == parents
    assert gp.insertion_radius == pytest.approx(radii)


@pytest.mark.parametrize("layout", ["uniform", "grid", "strings"])
def test_lockstep_matches_one_pass_per_group(layout):
    # Groups of many sizes (one of a single point), listed in no id order,
    # each seeded at a random member; grid values and short strings tie.
    rng = np.random.default_rng(7)
    n = 120
    if layout == "strings":
        metric = LevenshteinMetric("s", ["".join(rng.choice(list("ab"), size=rng.integers(0, 5))) for _ in range(n)])
    else:
        vecs = rng.uniform(0, 4, size=(n, 2))
        metric = MinkowskiMetric("v", np.floor(vecs) if layout == "grid" else vecs, p=2)
    sizes = np.array([1, 2, 3, 40, 17, 57])
    points = np.concatenate([rng.permutation(n)[:k] for k in sizes])
    offs = np.cumsum(sizes) - sizes
    seeds = points[offs + rng.integers(0, sizes)]
    got = lockstep_greedy(points, sizes, seeds, metric)
    got_evals, metric.evals = metric.evals, 0
    for gp, o, k, s in zip(got, offs, sizes, seeds):
        want = greedy_permutation(sorted(points[o : o + k].tolist()), metric, seed=int(s))
        assert (gp.order, gp.insertion_radius, gp.parent) == (want.order, want.insertion_radius, want.parent)
    assert got_evals == metric.evals


def test_product_permutation_is_valid_per_definition():
    rng = random.Random(4)
    n = 30
    xs = [rng.uniform(0, 10) for _ in range(n)]
    vecs = [[rng.uniform(0, 10), rng.uniform(0, 10)] for _ in range(n)]
    pm = ProductMetric([AbsDiffMetric("x", xs), MinkowskiMetric("v", vecs, p=2)])
    gp = greedy_permutation(list(range(n)), pm)

    def d(a, b):
        return max(abs(xs[a] - xs[b]), helpers.scalar_l2(vecs[a], vecs[b]))

    assert helpers.is_greedy_permutation(gp.order, gp.insertion_radius, gp.parent, range(n), d) == []


@given(st.lists(st.floats(0, 1000), min_size=1, max_size=25, unique=True))
@settings(max_examples=60, deadline=None)
def test_permutation_validity_property(values):
    m = line_metric(values)
    gp = greedy_permutation(list(range(len(values))), m)
    bad = helpers.is_greedy_permutation(
        gp.order, gp.insertion_radius, gp.parent, range(len(values)), lambda a, b: abs(values[a] - values[b])
    )
    assert bad == []


# ---------------------------------------------------------------------------
# Tree construction.
# ---------------------------------------------------------------------------


def test_desk_tree_shape():
    m = line_metric([0.0, 10.0, 4.0, 6.0])
    t = build_greedy_tree(greedy_permutation([0, 1, 2, 3], m), m)
    # preorder: root (0), its left child (0), leaf 0, the subtree of 2
    # (node 2, leaf 2, leaf 3), then the root's right child, leaf 1
    assert t.center == [0, 0, 0, 2, 2, 3, 1]
    assert t.radius == [10.0, 6.0, 0.0, 2.0, 0.0, 0.0, 0.0]
    assert t.count == [4, 3, 1, 2, 1, 1, 1]
    assert t.right == [6, 3, -1, 5, -1, -1, -1]
    assert t.first == [0, 0, 0, 1, 1, 2, 3]
    assert t.leaves.tolist() == [0, 2, 3, 1]
    assert verify_greedy_tree(t).ok


def test_single_point_tree():
    m = line_metric([3.0])
    t = build_greedy_tree(greedy_permutation([0], m), m)
    assert t.right == [-1] and t.radius == [0.0] and t.n == 1
    assert verify_greedy_tree(t).ok


def test_leaves_cover_points_once():
    rng = random.Random(8)
    n = 70
    m = line_metric([rng.uniform(0, 50) for _ in range(n)])
    t = build_greedy_tree(greedy_permutation(list(range(n)), m), m)
    pts = t.points()
    assert sorted(pts.tolist()) == list(range(n))
    leaves = [v for v in t.nodes() if t.right[v] < 0]
    assert sorted(t.center[v] for v in leaves) == list(range(n))
    internals = [v for v in t.nodes() if t.right[v] >= 0]
    assert len(internals) == n - 1
    for v in internals:
        assert t.center[v + 1] == t.center[v]  # left child keeps the center


def test_radii_are_exact_subtree_maxima():
    rng = random.Random(13)
    n = 40
    values = [rng.uniform(0, 30) for _ in range(n)]
    m = line_metric(values)
    t = build_greedy_tree(greedy_permutation(list(range(n)), m), m)

    for v in t.nodes():
        want = max(abs(values[t.center[v]] - values[p]) for p in subtree_points(t, v).tolist())
        assert t.radius[v] == pytest.approx(want, abs=1e-12)
        assert t.right[v] < 0 or t.radius[v + 1] <= t.radius[v]


def test_right_child_radius_can_exceed_parent():
    # center plus four ring points; the second-ranked point's subtree
    # reaches across the ring, past the root's own radius.  The tree is
    # still valid: radii are exact, so this is reported as a diagnostic
    # count, not a violation.
    angles = [0.0, 150.0, 55.0, 100.0]
    vecs = [[0.0, 0.0]] + [
        [math.cos(math.radians(a)), math.sin(math.radians(a))] for a in angles
    ]
    m = MinkowskiMetric("v", vecs, p=2)
    t = build_greedy_tree(greedy_permutation(list(range(5)), m), m)
    rep = verify_greedy_tree(t)
    assert rep.ok
    assert rep.radius_inversions == 1
    assert t.radius[0] == 1.0
    assert t.radius[t.right[0]] > 1.5


# ---------------------------------------------------------------------------
# Verification catches planted defects.
# ---------------------------------------------------------------------------


def _fresh_tree(n=24, seed=2):
    rng = random.Random(seed)
    m = line_metric([rng.uniform(0, 40) for _ in range(n)])
    return build_greedy_tree(greedy_permutation(list(range(n)), m), m)


def _some_internal(t):
    return next(v for v in t.nodes() if t.right[v] >= 0)


def test_verify_catches_overstated_radius():
    t = _fresh_tree()
    v = _some_internal(t)
    t.radius[v] = t.radius[v] * 2.0 + 1.0
    rep = verify_greedy_tree(t)
    assert not rep.ok
    assert any("exceeds" in msg for _, msg in rep.violations)


def test_verify_catches_understated_radius():
    t = _fresh_tree()
    v = _some_internal(t)
    t.radius[v] = t.radius[v] / 2.0
    rep = verify_greedy_tree(t)
    assert not rep.ok


def test_verify_catches_wrong_point_count():
    t = _fresh_tree()
    t.count[_some_internal(t)] += 1
    assert not verify_greedy_tree(t).ok


def test_verify_catches_left_center_mismatch():
    t = _fresh_tree()
    v = _some_internal(t)
    t.center[v + 1] = t.center[t.right[v]]
    assert not verify_greedy_tree(t).ok


def test_verify_catches_nonzero_leaf_radius():
    t = _fresh_tree()
    leaf = next(v for v in t.nodes() if t.right[v] < 0)
    t.radius[leaf] = 0.5
    assert not verify_greedy_tree(t).ok


def test_verify_catches_duplicated_leaf():
    t = _fresh_tree()
    a, b = [v for v in t.nodes() if t.right[v] < 0][:2]
    t.center[b] = t.center[a]  # same point now appears under two leaves
    t.leaves[t.first[b]] = t.center[a]
    rep = verify_greedy_tree(t)
    assert any("more than one leaf" in msg for _, msg in rep.violations)


# ---------------------------------------------------------------------------
# Merge.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("trial", range(20))
def test_fast_merge_equals_rebuild(trial):
    rng = random.Random(trial)
    n = rng.randrange(4, 80)
    values = [rng.uniform(0, 60) for _ in range(n)]
    if trial % 4 == 0:
        values = [float(rng.randrange(5)) for _ in range(n)]  # tie-heavy
    m = line_metric(values)
    ids = list(range(n))
    rng.shuffle(ids)
    k = rng.randrange(1, n)
    a = build_greedy_tree(greedy_permutation(sorted(ids[:k]), m), m)
    b = build_greedy_tree(greedy_permutation(sorted(ids[k:]), m), m)
    before_a, before_b = copy.deepcopy(helpers.tree_columns(a)), copy.deepcopy(helpers.tree_columns(b))
    fast = merge(a, b, mode="fast")
    rebuilt = merge(a, b, mode="rebuild")
    assert helpers.tree_columns(fast) == helpers.tree_columns(rebuilt)
    assert verify_greedy_tree(fast).ok
    # inputs are not consumed
    assert helpers.tree_columns(a) == before_a and helpers.tree_columns(b) == before_b


def test_merge_result_is_a_greedy_tree_of_the_union():
    rng = random.Random(99)
    values = [rng.uniform(0, 50) for _ in range(30)]
    m = line_metric(values)
    a = build_greedy_tree(greedy_permutation(list(range(0, 15)), m), m)
    b = build_greedy_tree(greedy_permutation(list(range(15, 30)), m), m)
    t = merge(a, b)
    assert sorted(t.points().tolist()) == list(range(30))
    # the merged tree must be *some* valid greedy ordering of the union:
    # check its permutation directly against the definition
    gp = t.permutation
    bad = helpers.is_greedy_permutation(
        gp.order, gp.insertion_radius, gp.parent, range(30), lambda x, y: abs(values[x] - values[y])
    )
    # the seed is chosen by eccentricity, not id, so skip the farthest
    # rule for i=0 only; everything after must obey it
    assert [c for c in bad if "order[0]" not in c] == []


def test_merge_identity_and_validation():
    m = line_metric([0.0, 1.0, 5.0, 9.0])
    a = build_greedy_tree(greedy_permutation([0, 1], m), m)
    empty = GreedyTree.empty(m)
    assert helpers.tree_columns(merge(a, empty)) == helpers.tree_columns(a)
    assert helpers.tree_columns(merge(empty, a)) == helpers.tree_columns(a)

    other = line_metric([0.0, 1.0, 5.0, 9.0])
    b_other = build_greedy_tree(greedy_permutation([2, 3], other), other)
    with pytest.raises(InputError):
        merge(a, b_other)  # same values, different metric object
    overlapping = build_greedy_tree(greedy_permutation([1, 2], m), m)
    with pytest.raises(InputError):
        merge(a, overlapping)
    b = build_greedy_tree(greedy_permutation([2, 3], m), m)
    with pytest.raises(InputError):
        merge(a, b, mode="clever")


def test_merge_seeds_from_larger_eccentricity():
    m = line_metric([0.0, 1.0, 100.0])
    a = build_greedy_tree(greedy_permutation([0, 1], m), m)
    b = build_greedy_tree(greedy_permutation([2], m), m)
    t = merge(a, b)
    # root 2 sees the farthest point at distance 100; root 0 only 99... no:
    # ecc(0) = max(1, 100) = 100, ecc(2) = max(0, 100) = 100, tie -> id 0
    assert t.center[0] == 0


# ---------------------------------------------------------------------------
# Serialization.
# ---------------------------------------------------------------------------


def _same_obj(a, b):
    return a.keys() == b.keys() and all(np.array_equal(a[k], b[k]) and a[k].dtype == b[k].dtype for k in a)


def test_roundtrip_is_bit_exact():
    rng = random.Random(21)
    values = [rng.uniform(0, 1) for _ in range(33)]
    m = line_metric(values)
    t = build_greedy_tree(greedy_permutation(list(range(33)), m), m)
    obj = tree_to_obj(t)
    assert {k: v.dtype.str for k, v in obj.items()} == {"radius": "<f8", "count": "<i4", "center": "<i4"}
    t2 = tree_from_obj(obj, m, [33])
    assert _same_obj(tree_to_obj(t2), obj)
    assert helpers.tree_columns(t2) == helpers.tree_columns(t)
    assert t2.radius == t.radius  # equality, not approx
    assert verify_greedy_tree(t2, m).ok


def test_roundtrip_survives_raw_bytes():
    m = line_metric([0.1, 0.7, 1.0 / 3.0])
    t = build_greedy_tree(greedy_permutation([0, 1, 2], m), m)
    obj = {k: np.frombuffer(v.tobytes(), dtype=v.dtype) for k, v in tree_to_obj(t).items()}
    t2 = tree_from_obj(obj, m, [3])
    assert helpers.tree_columns(t2) == helpers.tree_columns(t)


def test_forest_roundtrip_indexes_the_whole_forest():
    m = line_metric([0.0, 1.0, 5.0, 9.0, 2.5, 7.0])
    # one point id may sit in several trees of a forest, never twice in one
    trees = [build_greedy_tree(greedy_permutation(ids, m), m) for ids in ([0, 1, 2], [3], [4, 5, 0, 1])]
    obj = {k: np.concatenate([tree_to_obj(t)[k] for t in trees]) for k in tree_to_obj(trees[0])}
    forest = tree_from_obj(obj, m, [3, 1, 4])
    assert _same_obj(tree_to_obj(forest), obj)
    # right and first index the whole forest: each tree's links shift by
    # the nodes and leaves of the trees before it
    right, first, root, leaf = [], [], 0, 0
    for t in trees:
        right += [r + root if r >= 0 else r for r in t.right]
        first += [f + leaf for f in t.first]
        assert subtree_points(forest, root).tolist() == t.leaves.tolist()
        root, leaf = root + len(t.center), leaf + t.n
    assert (forest.right, forest.first) == (right, first)
    assert forest.leaves.tolist() == [p for t in trees for p in t.leaves.tolist()]


def test_from_obj_rejects_malformed_input():
    m = line_metric([0.0, 1.0])
    t = build_greedy_tree(greedy_permutation([0, 1], m), m)
    good = tree_to_obj(t)
    tree_from_obj(good, m, [2])

    with pytest.raises(InputError):
        tree_from_obj({k: v for k, v in good.items() if k != "count"}, m, [2])  # a column missing
    with pytest.raises(InputError):
        tree_from_obj({**good, "extra": good["count"]}, m, [2])
    with pytest.raises(InputError):
        tree_from_obj({**good, "radius": good["radius"].tolist()}, m, [2])  # not an array
    with pytest.raises(InputError):
        tree_from_obj({**good, "count": good["count"].reshape(1, 3)}, m, [2])
    with pytest.raises(InputError):
        tree_from_obj({**good, "count": good["count"].astype("<i8")}, m, [2])
    for sizes in ([5], [1], [1, 1], [0, 2], []):
        with pytest.raises(InputError):
            tree_from_obj(good, m, sizes)


def _corrupt_center(obj):
    obj["center"][2] = 10**6


def _corrupt_radius_nan(obj):
    obj["radius"][0] = math.nan


def _corrupt_radius_negative(obj):
    obj["radius"][0] = -1.0


def _corrupt_leaf_radius(obj):
    obj["radius"][np.flatnonzero(obj["count"] == 1)[0]] = 0.25


def _corrupt_left_link(obj):
    # the root's left child claims to be a leaf, so the root's right link
    # (i + 2*count[i+1]) points into its left subtree
    obj["count"][1] = 1


def _corrupt_right_link(obj):
    # the root's right subtree claims one point fewer, so the counts no
    # longer add up
    obj["count"][2 * obj["count"][1]] -= 1


def _corrupt_left_center(obj):
    obj["center"][1] = obj["center"][2 * obj["count"][1]]


def _corrupt_record_type(obj):
    obj["radius"] = obj["radius"][:-1]  # one column a node short


def _corrupt_center_type(obj):
    obj["center"] = obj["center"].astype("<f8")


def _corrupt_duplicate_leaf(obj):
    # a right-child leaf takes the root's point id: that id is then in two
    # leaves and the leaf's own point in none
    count, center = obj["count"], obj["center"]
    r = next(i + 2 * count[i + 1] for i in range(len(count)) if count[i] > 1 and count[i + 2 * count[i + 1]] == 1)
    center[r] = center[0]


@pytest.mark.parametrize(
    "corrupt",
    [
        _corrupt_center,
        _corrupt_radius_nan,
        _corrupt_radius_negative,
        _corrupt_leaf_radius,
        _corrupt_left_link,
        _corrupt_right_link,
        _corrupt_left_center,
        _corrupt_record_type,
        _corrupt_center_type,
        _corrupt_duplicate_leaf,
    ],
)
def test_from_obj_rejects_corrupt_nodes(corrupt):
    t = _fresh_tree(n=12)
    obj = tree_to_obj(t)
    tree_from_obj(copy.deepcopy(obj), t.metric, [12])  # the intact columns decode
    corrupt(obj)
    with pytest.raises(InputError):
        tree_from_obj(obj, t.metric, [12])
