"""Approximate range search over greedy trees.

The search works in rounds over a frontier of nodes.  A node enters the
frontier (the root included) only if its center is within
``r_i + node_radius`` of the query in every factor.  An entered node is
reported whole if its radius is at most ``eps * min(r_i) / 2``, or if
its center sits within ``(1+eps)*r_i - radius`` in every factor;
otherwise it splits.  The left child shares its parent's center, so it
takes the entry test on the parent's distances within the same round.
The right child has a fresh center; each round evaluates the fresh
centers of every tree being searched with one ``dist_point_many`` call
per factor.  Factor ``i`` sees only the centers that factor ``i-1``
kept, so the per-factor counts equal those of a node-at-a-time loop
that stops at the first pruning factor.

An entered node above the cutoff that fails the whole-node test and
holds at most ``leaf_size`` points is a bucket: it is not split, and
its points join one exact scan after the last round.  The scan makes
one ``dist_point_many`` per scanned factor over the points that passed
the factor before, and tests each point at ``r_i``, never at
``(1+eps)*r_i``, so buckets only move the output toward the exact
answer.  Small subtrees are where splitting costs the most per point:
scanning them in one vectorized call beats visiting their nodes one by
one (the bucket size of k-d trees, the ``leaf_size`` of ball trees).
With a bound of 1 there are no buckets, since leaves have radius 0 and
always sit below the cutoff.

Both index structures are searched by one loop over cascade levels
(``level_search``).  Level k is one frontier search over its own factor
group, from the roots of the trees of the nodes reported at level k-1;
a product tree is a cascade of one level over all of its factors.  A
bucket is scanned on its group's factors and every later one.  The top
level of a cascade of two or more levels keeps a bound of 1.

The halved cutoff is load-bearing: an entered node only promises its
points within ``r_i + 2 * radius`` per factor, so reporting at
``eps * min(r_i)`` can leak points past the ``(1+eps)`` expansion
(a four-point instance in the tests demonstrates it).  Halving restores
the guarantee:

    exact answer  <=  output  <=  answer at radii scaled by (1+eps)

with set containment on both sides, for every input.  At eps = 0 the
search splits down to radius-zero nodes and the output is exact.

Visiting order does not matter.  A node enters iff its parent split and
it passes the entry test, and it splits iff it entered above the cutoff,
fails the whole-node test and is no bucket; none of this depends on when
it is visited.  So the output, the splits, the split depths and the
evaluation counts equal those of a best-first loop that pops the largest
radius first, reports a popped bucket as it reports a whole node, and
reports what is still queued once every radius is at most the cutoff.
Only that loop's peak heap size depends on order, and it is replayed
afterwards from the entered and split nodes with no distance work
(``_replay_width``).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from .errors import InputError
from .metrics import MetricSpace, ProductMetric
from .tree import GreedyTree, subtree_points

__all__ = [
    "ProductQuery",
    "SearchStats",
    "NodeCover",
    "level_search",
    "product_range_query",
    "range_cover",
    "range_report",
]

# The bucket bound of every search level but the top of a cascade of two
# or more levels.  Scans of up to this many points per bucket cost less
# than the node visits they replace; CHANGES.md records the measurement.
LEAF_SIZE = 128


@dataclass(frozen=True)
class ProductQuery:
    """A query point with one coordinate payload and radius per factor.

    Every radius must be finite and greater than 0, so a query ball is
    never a single point; ``oracle.exact_product_range`` alone also takes
    r = 0, as a reference for exact duplicates.  Epsilon must be finite
    and at least 0.
    """

    coords: tuple[Any, ...]
    radii: tuple[float, ...]
    epsilon: float

    def __post_init__(self) -> None:
        if len(self.coords) != len(self.radii):
            raise InputError("one radius per factor coordinate is required")
        if not self.radii:
            raise InputError("a query needs at least one factor")
        if not all(0 < r < math.inf for r in self.radii):
            raise InputError(f"radii must be positive and finite, got {self.radii}")
        if not 0 <= self.epsilon < math.inf:
            raise InputError(f"epsilon must be nonnegative and finite, got {self.epsilon}")

    @property
    def aspect_ratio(self) -> float:
        return max(self.radii) / min(self.radii)

    @classmethod
    def from_point(cls, dataset, pid: int, radii: Sequence[float], epsilon: float) -> "ProductQuery":
        return cls(coords=dataset.payloads(pid), radii=tuple(float(r) for r in radii), epsilon=float(epsilon))


@dataclass(frozen=True)
class SearchStats:
    """Per-query instrumentation.

    width: peak heap size of the equivalent best-first loop (largest
      radius first, ties to the smaller center id), replayed after the
      search; the maximum over the trees when several are searched.
      Only split nodes push children, and a bucket is popped like a node
      reported whole, so buckets keep the width small.
    height: max number of splits along any single point's node chain.
    splits: total split events; buckets are not split.
    dist_evals: distance evaluations per factor, the bucket scan's
      included (left-child tests reuse the parent's center distances, so
      these can undercut naive counts).
    output_size: points reported, scanned points that passed included.
    """

    width: int
    height: int
    splits: int
    dist_evals: tuple[int, ...]
    output_size: int

    @property
    def total_evals(self) -> int:
        return sum(self.dist_evals)


@dataclass(frozen=True)
class NodeCover:
    """Disjoint nodes of ``tree`` whose leaves jointly answer a cover query."""

    tree: GreedyTree
    nodes: tuple[int, ...]

    def point_count(self) -> int:
        return sum(self.tree.count[v] for v in self.nodes)

    def points(self) -> np.ndarray:
        if not self.nodes:
            return np.empty(0, dtype=np.intp)
        return np.concatenate([subtree_points(self.tree, v) for v in self.nodes])


def _frontier_search(
    t: GreedyTree,
    roots: Sequence[int],
    factors: Sequence[MetricSpace | ProductMetric],
    coords: Sequence[Any],
    radii: Sequence[float],
    epsilon: float,
    leaf_size: int = 1,
    scan: Sequence[tuple[MetricSpace | ProductMetric, Any, float]] | None = None,
    probe: Callable[[list[int], list[int], list[tuple]], None] | None = None,
) -> tuple[list[int], np.ndarray, SearchStats]:
    """Search the trees of forest ``t`` at ``roots`` in rounds; see the module docstring.

    Nodes above the cutoff with at most ``leaf_size`` points are buckets.
    Their points are tested exactly against the ``(factor, coord,
    radius)`` triples of ``scan``, which default to the searched factors
    and must begin with them.  Returns the reported nodes, the scanned
    point ids that passed every triple, and stats with width and height
    as maxima and splits and evaluations as sums over the trees; the
    evaluations have one entry per scan triple.  ``probe`` (debug) sees
    the reported nodes, the buckets and the frontier after every round's
    entry tests.
    """
    if scan is None:
        scan = list(zip(factors, coords, radii))
    center, radius, right, count = t.center, t.radius, t.right, t.count
    m = len(factors)
    evals = [0] * len(scan)
    expanded = [(1.0 + epsilon) * r for r in radii]
    cutoff = epsilon * min(radii) / 2.0
    out: list[int] = []
    buckets: list[int] = []
    split: set[int] = set()
    height = 0
    # Entries: (node, split depth, radius, center dists so far).  The
    # roots take the same entry test as any right child: every reported
    # node must have passed it, or reporting below the cutoff without a
    # whole-node test is unsound.
    fresh = [(v, 0, radius[v], []) for v in roots]
    ids = [center[v] for v in roots]  # the fresh entries' centers
    while True:
        # Factor i sees only the centers factor i-1 kept, so counts stay
        # those of a loop that stops at the first pruning factor.
        frontier = fresh
        for i in range(m):
            if not frontier:
                break
            if i:
                ids = [center[e[0]] for e in frontier]
            row = factors[i].dist_point_many(coords[i], ids)
            evals[i] += len(ids)
            ri = radii[i]
            kept = []
            for e, d in zip(frontier, row.tolist()):
                if d <= ri + e[2]:
                    e[3].append(d)
                    kept.append(e)
            frontier = kept
        if probe is not None:
            probe(out, buckets, frontier)
        if not frontier:
            break
        fresh, ids = [], []
        # A left child that passes its entry test joins this round's
        # frontier: it needs no new distances.
        for v, depth, r, ds in frontier:
            if r <= cutoff:
                out.append(v)
                continue
            for d, e in zip(ds, expanded):
                if d > e - r:
                    break
            else:
                out.append(v)
                continue
            if count[v] <= leaf_size:
                buckets.append(v)
                continue
            # Above the cutoff every node is internal: leaves have radius 0.
            split.add(v)
            depth += 1
            if depth > height:
                height = depth
            rl = radius[v + 1]
            for d, ri in zip(ds, radii):
                if d > ri + rl:
                    break
            else:
                frontier.append((v + 1, depth, rl, ds))
            c = right[v]
            fresh.append((c, depth, radius[c], []))
            ids.append(center[c])

    hits = np.empty(0, dtype=np.intp)
    if buckets:
        hits = np.concatenate([subtree_points(t, v) for v in buckets])
        for j, (factor, q, r) in enumerate(scan):
            row = factor.dist_point_many(q, hits)
            evals[j] += len(hits)
            hits = hits[row <= r]
            if not len(hits):
                break

    reported = set(out).union(buckets)  # a bucket counts as reported
    entered = [v for v in roots if v in split or v in reported]
    width = max((_replay_width(t, v, split, reported, cutoff) for v in entered), default=0)
    stats = SearchStats(
        width=width,
        height=height,
        splits=len(split),
        dist_evals=tuple(evals),
        output_size=sum(count[v] for v in out) + len(hits),
    )
    return out, hits, stats


def _replay_width(t: GreedyTree, root: int, split: set[int], reported: set[int], cutoff: float) -> int:
    """Peak heap size of the best-first loop with the same splits, from ``root``.

    That loop pops by (-radius, center id), a total order because the
    centers of queued nodes are distinct, so the replay pops in its
    order.  The root entered; a node entered iff it split or was
    reported, a bucket counting as reported.  Nodes at or below the
    cutoff are never popped and only count toward the size.
    """
    center, radius, right = t.center, t.radius, t.right
    heap = [(-radius[root], center[root], root)] if radius[root] > cutoff else []
    pop, push = heapq.heappop, heapq.heappush
    size = width = 1
    while heap:
        v = pop(heap)[2]
        size -= 1
        if v not in split:
            continue
        for c in (right[v], v + 1):
            if c in split or c in reported:
                size += 1
                if radius[c] > cutoff:
                    push(heap, (-radius[c], center[c], c))
        if size > width:
            width = size
    return width


def _points(t: GreedyTree, nodes: Iterable[int]) -> set[int]:
    points: set[int] = set()
    for v in nodes:
        points.update(subtree_points(t, v).tolist())
    return points


def level_search(
    levels: Sequence[GreedyTree], roots: Sequence[Sequence[int]], query: ProductQuery
) -> tuple[set[int], SearchStats]:
    """Answer ``query`` on a cascade of forests, one frontier search per level.

    Level k searches its factor group (a product level's factors, else
    its one metric) from the roots, in ``roots[k-1]``, of the trees of the
    nodes reported at level k-1.  Subtrees of at most ``LEAF_SIZE``
    points are buckets, except on the top level of a cascade of two or
    more levels.  A bucket is scanned on its group's and every later
    factor, and its points skip the deeper levels.  Width and height are
    maxima over the levels; splits and evaluations add up.
    """
    groups = [t.metric.factors if isinstance(t.metric, ProductMetric) else [t.metric] for t in levels]
    factors = [f for group in groups for f in group]
    coords, radii, eps = query.coords, query.radii, query.epsilon
    if len(radii) != len(factors):
        raise InputError(f"query has {len(radii)} radii but the structure has {len(factors)} factors")
    width = height = splits = i = 0
    evals = [0] * len(factors)
    points: set[int] = set()
    nodes = [0] if levels[0].n else []
    for k, (t, group) in enumerate(zip(levels, groups)):
        j = i + len(group)
        nodes, hits, stats = _frontier_search(
            t, [roots[k - 1][v] for v in nodes] if k else nodes, group, coords[i:j], radii[i:j], eps,
            leaf_size=1 if k == 0 < len(levels) - 1 else LEAF_SIZE,
            scan=list(zip(factors[i:], coords[i:], radii[i:])),
        )
        width, height, splits = max(width, stats.width), max(height, stats.height), splits + stats.splits
        for e, count in enumerate(stats.dist_evals, start=i):
            evals[e] += count
        points.update(hits.tolist())
        i = j
    points |= _points(t, nodes)
    return points, SearchStats(width, height, splits, tuple(evals), len(points))


def product_range_query(t: GreedyTree, query: ProductQuery) -> tuple[set[int], SearchStats]:
    """Report points within the query radii, factor by factor.

    The tree must be built over the product of the query's factors; it
    is searched as a cascade of one level.  Output is sandwiched between
    the exact answer and the answer at radii scaled by (1+eps).  Subtrees
    of at most ``LEAF_SIZE`` points are scanned exactly instead of split.
    """
    if not isinstance(t.metric, ProductMetric):
        raise InputError("product_range_query needs a tree over a product metric")
    return level_search([t], [], query)


def range_cover(
    t: GreedyTree,
    q: Any,
    radius: float,
    epsilon: float,
) -> tuple[NodeCover, SearchStats]:
    """Single-metric search reporting the node cover itself.

    Treats the tree's metric as one factor (a product works as a whole).
    Every returned node lies inside the ball of radius (1+eps)*radius
    around q, their point sets are pairwise disjoint, and together they
    cover every dataset point within ``radius`` of q.  It makes no
    buckets, since a bucket's points are not a node cover.
    """
    if not 0 < radius < math.inf:
        raise InputError(f"radius must be positive and finite, got {radius}")
    if not 0 <= epsilon < math.inf:
        raise InputError(f"epsilon must be nonnegative and finite, got {epsilon}")
    nodes, _, stats = _frontier_search(t, [0] if t.n else [], [t.metric], [q], [radius], epsilon)
    return NodeCover(tree=t, nodes=tuple(nodes)), stats


def range_report(
    t: GreedyTree,
    q: Any,
    radius: float,
    epsilon: float,
) -> tuple[set[int], SearchStats]:
    """Flatten a range cover into the reported point set."""
    cover, stats = range_cover(t, q, radius, epsilon)
    return _points(t, cover.nodes), stats
