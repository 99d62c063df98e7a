"""Greedy-ordered ball trees.

A greedy permutation repeatedly takes the point farthest from everything
chosen so far.  The tree hangs every point under its nearest predecessor
and binarizes each center's child list in rank order: the right child is
the subtree of the earliest remaining child, the left child keeps the
center with the rest.  Node radii are exact maxima over subtree points,
so every node is a tight ball cover of its leaves.

A tree is one set of columns indexed by node in preorder: ``center``,
``radius``, ``count`` (points below) and ``right`` (-1 at leaves).  The
left child of internal node ``i`` is always ``i + 1``.  ``leaves`` lists
the point ids in leaf order, so the points of node ``i`` are the slice
``leaves[first[i]:first[i] + count[i]]``.  A forest is the same columns
with its trees laid end to end: ``right`` and ``first`` index the whole
forest, so ``subtree_points`` works on it unchanged.

Exactness has one consequence worth knowing: a right child's radius may
exceed its parent's when an attachment chain wanders around the center
(small Euclidean examples exist).  Radii still cover, which is all the
search needs, so ``verify_greedy_tree`` reports such inversions as a
diagnostic count rather than a violation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import InputError
from .metrics import MetricSpace, ProductMetric

__all__ = [
    "GreedyPermutation",
    "GreedyTree",
    "VerificationReport",
    "greedy_permutation",
    "lockstep_greedy",
    "build_greedy_tree",
    "merge",
    "verify_greedy_tree",
    "subtree_points",
    "tree_to_obj",
    "tree_from_obj",
]

Metric = MetricSpace | ProductMetric


@dataclass(frozen=True)
class GreedyPermutation:
    """A farthest-point ordering with insertion radii and predecessors.

    ``insertion_radius[i]`` is the distance from ``order[i]`` to its
    nearest predecessor (inf for the seed); radii never increase along
    the order.  ``parent[i]`` is that predecessor (None for the seed).
    """

    order: list[int]
    insertion_radius: list[float]
    parent: list[int | None]

    def __len__(self) -> int:
        return len(self.order)


def greedy_permutation(points: Sequence[int], metric: Metric, seed: int | str = "first") -> GreedyPermutation:
    """Exact greedy ordering by the naive quadratic algorithm.

    Ties in the farthest-point choice and in nearest-predecessor
    assignment both go to the smallest point id.  ``seed`` is a point id
    or "first" for ``points[0]``.
    """
    ids = np.asarray(list(points), dtype=np.intp)
    if ids.size == 0:
        raise InputError("n >= 1 required: no points to order")
    if len(set(ids.tolist())) != ids.size:
        raise InputError("duplicate point ids in input")
    if seed == "first":
        seed_id = int(ids[0])
    else:
        seed_id = int(seed)
        if seed_id not in set(ids.tolist()):
            raise InputError(f"seed {seed_id} is not among the input points")

    n = ids.size
    order = [seed_id]
    radii = [math.inf]
    parents: list[int | None] = [None]
    if n == 1:
        return GreedyPermutation(order, radii, parents)

    alive = ids != seed_id
    mind = np.full(n, np.inf)
    parent = np.full(n, -1, dtype=np.intp)
    last = seed_id
    for _ in range(n - 1):
        live_idx = np.flatnonzero(alive)
        live_ids = ids[live_idx]
        row = metric.dist_many(last, live_ids)
        cur_d = mind[live_idx]
        cur_p = parent[live_idx]
        better = row < cur_d
        tie = (row == cur_d) & (last < cur_p)
        cur_p[better | tie] = last
        cur_d[better] = row[better]
        mind[live_idx] = cur_d
        parent[live_idx] = cur_p

        best = cur_d.max()
        cand = live_idx[np.flatnonzero(cur_d == best)]
        chosen = cand[np.argmin(ids[cand])]
        cid = int(ids[chosen])
        order.append(cid)
        radii.append(float(mind[chosen]))
        parents.append(int(parent[chosen]))
        alive[chosen] = False
        last = cid
    return GreedyPermutation(order, radii, parents)


def lockstep_greedy(
    points: np.ndarray, sizes: np.ndarray, seeds: np.ndarray, metric: MetricSpace
) -> list[GreedyPermutation]:
    """``greedy_permutation`` of many groups at once, with the same ties.

    Group g is the next ``sizes[g]`` distinct ids of ``points``, seeded with
    its member ``seeds[g]``.  Round t makes one ``dist_pairs`` call from
    every unfinished group's latest pick to its remaining points; then
    segmented reductions take each group's farthest point, the smallest
    id on a tie, as its t-th pick.  Work and distance bits are those of
    one ``greedy_permutation`` per group, in one Python loop of
    ``max(sizes) - 1`` rounds.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    seeds = np.asarray(seeds, dtype=np.intp)
    offs = np.cumsum(sizes) - sizes
    total = int(sizes.sum())
    order = np.empty(total, dtype=np.intp)
    radius = np.empty(total)
    parent = np.empty(total, dtype=np.intp)
    order[offs], radius[offs], parent[offs] = seeds, math.inf, -1

    ids = points[points != np.repeat(seeds, sizes)]
    mind = np.full(ids.size, math.inf)
    near = np.full(ids.size, -1, dtype=np.intp)
    last = seeds.copy()
    none = np.iinfo(np.intp).max
    for t in range(1, int(sizes.max(initial=1))):
        # Live groups, each holding its sizes[g] - t remaining points.
        live = np.flatnonzero(sizes > t)
        lens = sizes[live] - t
        starts = np.cumsum(lens) - lens
        src = np.repeat(last[live], lens)
        row = metric.dist_pairs(src, ids)
        better = row < mind
        take = better | ((row == mind) & (src < near))
        near[take] = src[take]
        mind[better] = row[better]
        best = np.maximum.reduceat(mind, starts)
        pick = np.minimum.reduceat(np.where(mind == np.repeat(best, lens), ids, none), starts)
        chosen = ids == np.repeat(pick, lens)
        at = offs[live] + t
        order[at], radius[at], parent[at] = pick, best, near[chosen]
        last[live] = pick
        keep = ~chosen
        ids, mind, near = ids[keep], mind[keep], near[keep]

    order_l, radius_l, parent_l = order.tolist(), radius.tolist(), parent.tolist()
    return [
        GreedyPermutation(order_l[o : o + k], radius_l[o : o + k], [None] + parent_l[o + 1 : o + k])
        for o, k in zip(offs.tolist(), sizes.tolist())
    ]


@dataclass(eq=False)
class GreedyTree:
    """A ball tree over a greedy permutation, as preorder columns.

    Immutable by convention.  The empty tree (no nodes) exists only as
    the merge identity.  Trees built or merged in-process remember their
    permutation; deserialized trees do not.
    """

    metric: Metric
    center: list[int]
    radius: list[float]
    count: list[int]
    right: list[int]
    first: list[int]
    leaves: np.ndarray
    permutation: GreedyPermutation | None = field(default=None, repr=False)

    @classmethod
    def empty(cls, metric: Metric) -> "GreedyTree":
        return cls(metric, [], [], [], [], [], np.empty(0, dtype=np.intp))

    @property
    def n(self) -> int:
        return len(self.leaves)

    def points(self) -> np.ndarray:
        return self.leaves

    def nodes(self) -> range:
        return range(len(self.center))


def subtree_points(t: GreedyTree, i: int) -> np.ndarray:
    """Point ids under node ``i``, in leaf order (a view of ``t.leaves``)."""
    f = t.first[i]
    return t.leaves[f : f + t.count[i]]


def build_greedy_tree(gp: GreedyPermutation, metric: Metric) -> GreedyTree:
    """Binarize a greedy permutation into preorder columns with exact radii.

    The subtree of a center with k children is k internal nodes on that
    center, its leaf, then the children's subtrees from the latest-ranked
    to the earliest.  Each of those internal nodes covers a prefix of the
    center's leaf slice, so one bulk distance call per center yields all
    of its radii as running maxima.
    """
    order = gp.order
    n = len(order)
    if n == 0:
        raise InputError("cannot build a tree from an empty permutation")
    rank = {pid: i for i, pid in enumerate(order)}
    up = [0] * n
    children: list[list[int]] = [[] for _ in range(n)]
    for i in range(1, n):
        r = rank.get(gp.parent[i], n)
        if r >= i:
            raise InputError(f"permutation entry {i} has no valid parent")
        up[i] = r
        children[r].append(i)
    size = [1] * n
    for i in range(n - 1, 0, -1):
        size[up[i]] += size[i]

    total = 2 * n - 1
    center = [0] * total
    radius = [0.0] * total
    count = [1] * total
    right = [-1] * total
    first = [0] * total
    leaves = [0] * n
    spans = []  # (center, first node, children, leaf offset, points) per center with children
    todo = [(0, 0, 0)]  # (rank, node, leaf offset) of each subtree to lay out
    while todo:
        r, p, f = todo.pop()
        c = order[r]
        kids = children[r]
        k = len(kids)
        leaves[f] = c
        center[p + k] = c
        first[p + k] = f
        q, g, cnt = p + k + 1, f + 1, 1
        for j in range(k - 1, -1, -1):
            ch = kids[j]
            todo.append((ch, q, g))
            cnt += size[ch]
            center[p + j] = c
            count[p + j] = cnt
            right[p + j] = q
            first[p + j] = f
            q += 2 * size[ch] - 1
            g += size[ch]
        if k:
            spans.append((c, p, k, f, cnt))

    ids = np.asarray(leaves, dtype=np.intp)
    for c, p, k, f, cnt in spans:
        reach = np.maximum.accumulate(metric.dist_many(c, ids[f : f + cnt]))
        radius[p : p + k] = reach[np.asarray(count[p : p + k]) - 1].tolist()
    return GreedyTree(metric, center, radius, count, right, first, ids, permutation=gp)


# ---------------------------------------------------------------------------
# Merge.
# ---------------------------------------------------------------------------


def merge(a: GreedyTree, b: GreedyTree, *, mode: str = "fast") -> GreedyTree:
    """Combine two greedy trees over the same metric into a fresh one.

    Inputs are never mutated.  The result is the exact greedy tree of the
    union: the quadratic ``greedy_permutation`` pass over the sorted
    union, seeded with the input root center of larger eccentricity (the
    smaller id on a tie).  "fast" and "rebuild" both run this one pass, so
    they agree node for node by construction.  ``mode`` stays only because
    the acceptance suite (tests/test_acceptance.py) calls both values;
    "fast" is reserved for a sub-quadratic engine that must reproduce
    this pass exactly.
    """
    if mode not in ("fast", "rebuild"):
        raise InputError(f"unknown merge mode {mode!r}")
    if a.metric is not b.metric:
        raise InputError("metric mismatch: merged trees must share one metric object")
    if a.n == 0:
        return b
    if b.n == 0:
        return a
    pa, pb = a.leaves, b.leaves
    if set(pa.tolist()) & set(pb.tolist()):
        raise InputError("merged trees must cover disjoint point sets")
    metric = a.metric

    ecc_a = max(a.radius[0], float(metric.dist_many(a.center[0], pb).max()))
    ecc_b = max(b.radius[0], float(metric.dist_many(b.center[0], pa).max()))
    if ecc_a > ecc_b:
        seed_id = a.center[0]
    elif ecc_b > ecc_a:
        seed_id = b.center[0]
    else:
        seed_id = min(a.center[0], b.center[0])

    union = np.sort(np.concatenate([pa, pb]))
    return build_greedy_tree(greedy_permutation(union.tolist(), metric, seed=seed_id), metric)


# ---------------------------------------------------------------------------
# Verification.
# ---------------------------------------------------------------------------


@dataclass
class VerificationReport:
    """Outcome of the exhaustive invariant scan.

    ``radius_inversions`` counts right children whose exact radius
    exceeds the parent's; see the module docstring for why that is
    diagnostic rather than a violation.
    """

    violations: list[tuple[str, str]] = field(default_factory=list)
    checked_nodes: int = 0
    radius_inversions: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def first(self) -> tuple[str, str] | None:
        return self.violations[0] if self.violations else None


def verify_greedy_tree(t: GreedyTree, metric: Metric | None = None) -> VerificationReport:
    """Exhaustively check structural and radius invariants (O(n^2)).

    Violations are reported as (node, message) with the node's preorder
    index, or "tree" for whole-tree properties.
    """
    metric = metric if metric is not None else t.metric
    report = VerificationReport()
    total = len(t.center)
    columns = (t.radius, t.count, t.right, t.first)
    if any(len(col) != total for col in columns) or total != max(2 * t.n - 1, 0):
        report.violations.append(("tree", f"{total} nodes and {t.n} leaves do not form a binary tree"))
        return report
    if total == 0:
        return report

    # Reverse preorder checks every child before its parent; a broken
    # link or leaf slice ends the scan before anything indexes through it.
    for i in range(total - 1, -1, -1):
        report.checked_nodes += 1
        where = str(i)
        c, rad, cnt, r, f = t.center[i], t.radius[i], t.count[i], t.right[i], t.first[i]
        if not 0 <= f <= t.n - cnt:
            report.violations.append((where, f"leaf slice [{f}, {f + cnt}) outside {t.n} leaves"))
            return report
        if r < 0:
            if rad != 0.0:
                report.violations.append((where, f"leaf radius {rad} != 0"))
            if cnt != 1:
                report.violations.append((where, f"leaf count {cnt} != 1"))
            if t.leaves[f] != c:
                report.violations.append((where, f"leaf center {c} is not leaves[{f}] = {t.leaves[f]}"))
            continue
        if not i + 1 < r < total or r != i + 2 * t.count[i + 1]:
            report.violations.append((where, f"right link {r} disagrees with the left subtree"))
            return report
        if cnt != t.count[i + 1] + t.count[r]:
            report.violations.append((where, f"count {cnt} != {t.count[i + 1]} + {t.count[r]}"))
        if t.first[i + 1] != f or t.first[r] != f + t.count[i + 1]:
            report.violations.append((where, "children's leaf slices do not split the node's"))
        if t.center[i + 1] != c:
            report.violations.append((where, f"left child center {t.center[i + 1]} != {c}"))
        maxd = float(metric.dist_many(c, subtree_points(t, i)).max())
        if rad < maxd:
            report.violations.append((where, f"radius < max subtree distance ({rad} < {maxd})"))
        elif rad > maxd:
            report.violations.append((where, f"radius exceeds max subtree distance ({rad} > {maxd})"))
        if rad < metric.dist(c, t.center[r]):
            report.violations.append((where, "radius below distance to right child center"))
        if t.radius[i + 1] > rad:
            report.violations.append((where, f"left child radius {t.radius[i + 1]} > {rad}"))
        if t.radius[r] > rad:
            report.radius_inversions += 1

    if t.count[0] != t.n:
        report.violations.append(("tree", f"root count {t.count[0]} but {t.n} leaves"))
    pts = t.leaves.tolist()
    if len(set(pts)) != len(pts):
        report.violations.append(("tree", "a point id appears in more than one leaf"))
    if t.permutation is not None and set(t.permutation.order) != set(pts):
        report.violations.append(("tree", "permutation and leaves disagree on the point set"))
    return report


# ---------------------------------------------------------------------------
# Serialization: a forest of trees as little-endian preorder columns.
# ---------------------------------------------------------------------------

# The stored columns of a forest; ``right``, ``first`` and ``leaves`` are
# derived from them.  Radii come first, so that in a file of such columns
# every float column starts 8-byte aligned.
FOREST_DTYPES = {"radius": "<f8", "count": "<i4", "center": "<i4"}


def tree_to_obj(t: GreedyTree) -> dict[str, np.ndarray]:
    """Encode a tree or a forest: its stored preorder columns."""
    return {name: np.array(getattr(t, name), dtype=dtype) for name, dtype in FOREST_DTYPES.items()}


def tree_from_obj(obj: dict[str, np.ndarray], metric: Metric, sizes: Sequence[int]) -> GreedyTree:
    """Decode and validate a forest of trees over ``sizes[j]`` points each.

    Every check is one array expression over the whole forest: node
    counts add up (a node's right child is ``i + 2*count[i+1]``) and
    every subtree stays inside its tree, each root counts its tree's
    points, left children keep their parent's center, centers are point
    ids of ``metric``, radii are finite, nonnegative and zero at leaves,
    and no id is in two leaves of one tree.  Together these make each
    tree's nodes one preorder binary tree.  Radii are not recomputed.
    The result is one ``GreedyTree`` holding the whole forest.
    """
    if not isinstance(obj, dict) or set(obj) != set(FOREST_DTYPES):
        raise InputError(f"a serialized forest has exactly the columns {sorted(FOREST_DTYPES)}")
    for name, dtype in FOREST_DTYPES.items():
        col = obj[name]
        if not isinstance(col, np.ndarray) or col.dtype != np.dtype(dtype) or col.ndim != 1:
            raise InputError(f"forest column {name!r} is not a one-dimensional {dtype} array")
    count, center, radius = obj["count"].astype(np.int64), obj["center"], obj["radius"]
    sizes = np.asarray(sizes, dtype=np.int64)
    total = len(count)
    spans = 2 * sizes - 1
    if (sizes < 1).any() or len(center) != total or len(radius) != total or spans.sum() != total:
        raise InputError(f"forest columns of {total} nodes do not hold trees of {sizes.sum()} points")

    starts = np.cumsum(spans) - spans
    tree_of = np.repeat(np.arange(len(sizes)), spans)
    i = np.arange(total)
    if (count < 1).any() or (i + 2 * count - 1 > (starts + spans)[tree_of]).any():
        raise InputError("a node's subtree runs past the end of its tree")
    if (count[starts] != sizes).any():
        raise InputError("a root's count disagrees with its tree's point count")
    inner = np.flatnonzero(count > 1)
    right = inner + 2 * count[inner + 1]
    # A right child past its tree cannot satisfy the sum within the span
    # checked above, so clamping it only keeps the gather in bounds.
    if (count[inner] != count[inner + 1] + count[np.minimum(right, total - 1)]).any():
        raise InputError("a node's count is not the sum of its children's")
    if ((center < 0) | (center >= len(metric))).any():
        raise InputError(f"a center is not a point id in [0, {len(metric)})")
    if (center[inner + 1] != center[inner]).any():
        raise InputError("a node and its left child have different centers")
    if not ((radius >= 0.0) & (radius < math.inf)).all():
        raise InputError("a radius is not finite and nonnegative")
    leaf = count == 1
    if (radius[leaf] != 0.0).any():
        raise InputError("a leaf has a nonzero radius")
    leaves = center[leaf].astype(np.intp)
    keys = np.sort(tree_of[leaf] * len(metric) + leaves)
    if (keys[1:] == keys[:-1]).any():
        raise InputError("a tree has a point id in more than one leaf")

    rights = np.full(total, -1, dtype=np.int64)
    rights[inner] = right
    # In preorder a node's first leaf is the first leaf at or after it.
    firsts = np.cumsum(leaf) - leaf
    c, r, n, rt, fs = (col.tolist() for col in (center, radius, count, rights, firsts))
    return GreedyTree(metric, c, r, n, rt, fs, leaves)
