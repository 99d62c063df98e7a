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

The halved cutoff is load-bearing: an entered node only promises its
points within ``r_i + 2 * radius`` per factor, so reporting at
``eps * min(r_i)`` can leak points past the ``(1+eps)`` expansion
(a four-point instance in the tests demonstrates it).  Halving restores
the guarantee:

    exact answer  <=  output  <=  answer at radii scaled by (1+eps)

with set containment on both sides, for every input.  At eps = 0 the
search splits down to radius-zero nodes and the output is exact.

Visiting order does not matter.  A node enters iff its parent split and
it passes the entry test, and it splits iff it entered above the cutoff
and fails the whole-node test; neither depends on when it is visited.
So the output, the splits, the split depths and the evaluation counts
equal those of a best-first loop that pops the largest radius first
and reports what is still queued once every radius is at most the
cutoff.  Only that loop's peak heap size depends on order, and it is
replayed afterwards from the entered and split nodes with no distance
work (``_replay_width``).
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
    "product_range_query",
    "range_cover",
    "range_report",
]


@dataclass(frozen=True)
class ProductQuery:
    """A query point with one coordinate payload and radius per factor."""

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
    height: max number of splits along any single point's node chain.
    splits: total split events.
    dist_evals: distance evaluations per factor (left-child tests reuse
      the parent's center distances, so these can undercut naive counts).
    output_size: points reported.
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
    trees: Sequence[GreedyTree],
    factors: Sequence[MetricSpace | ProductMetric],
    coords: Sequence[Any],
    radii: Sequence[float],
    epsilon: float,
    probe: Callable[[list[list[int]], list[tuple]], None] | None = None,
) -> tuple[list[list[int]], SearchStats]:
    """Search every tree from its root in rounds; see the module docstring.

    All trees index ``factors`` by the same point ids.  Returns the
    reported node indices of each tree, and stats with width and height
    as maxima and splits and evaluations as sums over the trees.
    ``probe`` (debug) sees the output and the frontier after every
    round's entry tests.
    """
    cols = [(t.center, t.radius, t.right) for t in trees]
    m = len(factors)
    evals = [0] * m
    expanded = [(1.0 + epsilon) * r for r in radii]
    cutoff = epsilon * min(radii) / 2.0
    out: list[list[int]] = [[] for _ in trees]
    split: list[set[int]] = [set() for _ in trees]
    height = 0
    # Entries: (tree, node, split depth, radius, center dists so far).
    # The roots take the same entry test as any right child: every
    # reported node must have passed it, or reporting below the cutoff
    # without a whole-node test is unsound.
    fresh = [(k, 0, 0, t.radius[0], []) for k, t in enumerate(trees) if t.n]
    ids = [t.center[0] for t in trees if t.n]  # the fresh entries' centers
    while True:
        # Factor i sees only the centers factor i-1 kept, so counts stay
        # those of a loop that stops at the first pruning factor.
        frontier = fresh
        for i in range(m):
            if not frontier:
                break
            if i:
                ids = [cols[e[0]][0][e[1]] for e in frontier]
            row = factors[i].dist_point_many(coords[i], ids)
            evals[i] += len(ids)
            ri = radii[i]
            kept = []
            for e, d in zip(frontier, row.tolist()):
                if d <= ri + e[3]:
                    e[4].append(d)
                    kept.append(e)
            frontier = kept
        if probe is not None:
            probe(out, frontier)
        if not frontier:
            break
        fresh, ids = [], []
        # A left child that passes its entry test joins this round's
        # frontier: it needs no new distances.
        for k, v, depth, r, ds in frontier:
            if r <= cutoff:
                out[k].append(v)
                continue
            for d, e in zip(ds, expanded):
                if d > e - r:
                    break
            else:
                out[k].append(v)
                continue
            # Above the cutoff every node is internal: leaves have radius 0.
            split[k].add(v)
            depth += 1
            if depth > height:
                height = depth
            center, radius, right = cols[k]
            rl = radius[v + 1]
            for d, ri in zip(ds, radii):
                if d > ri + rl:
                    break
            else:
                frontier.append((k, v + 1, depth, rl, ds))
            c = right[v]
            fresh.append((k, c, depth, radius[c], []))
            ids.append(center[c])

    width = 0
    for t, nodes, sp in zip(trees, out, split):
        if nodes or sp:
            width = max(width, _replay_width(t, sp, set(nodes), cutoff))
    stats = SearchStats(
        width=width,
        height=height,
        splits=sum(len(sp) for sp in split),
        dist_evals=tuple(evals),
        output_size=sum(t.count[v] for t, nodes in zip(trees, out) for v in nodes),
    )
    return out, stats


def _replay_width(t: GreedyTree, split: set[int], reported: set[int], cutoff: float) -> int:
    """Peak heap size of the best-first loop with the same splits.

    That loop pops by (-radius, center id), a total order because the
    centers of queued nodes are distinct, so the replay pops in its
    order.  The root entered; a node entered iff it split or was
    reported.  Nodes at or below the cutoff are never popped and only
    count toward the size.
    """
    center, radius, right = t.center, t.radius, t.right
    heap = [(-radius[0], center[0], 0)] if radius[0] > cutoff else []
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


def product_range_query(
    t: GreedyTree,
    query: ProductQuery,
    coverage_check: Iterable[int] | None = None,
) -> tuple[set[int], SearchStats]:
    """Report points within the query radii, factor by factor.

    The tree must be built over the product of the query's factors.
    Output is sandwiched between the exact answer and the answer at
    radii scaled by (1+eps).  ``coverage_check`` (debug): after every
    round's entry tests, raise AssertionError (also under ``python -O``)
    unless each given point id is still covered by the output or the
    frontier.
    """
    metric = t.metric
    if not isinstance(metric, ProductMetric):
        raise InputError("product_range_query needs a tree over a product metric")
    if len(query.radii) != metric.m:
        raise InputError(f"query has {len(query.radii)} radii but the tree has {metric.m} factors")
    probe = None
    if coverage_check is not None:
        expected = list(coverage_check)

        def probe(out: list[list[int]], frontier: list[tuple]) -> None:
            covered = _points(t, out[0] + [entry[1] for entry in frontier])
            lost = [p for p in expected if p not in covered]
            if lost:
                raise AssertionError(f"exact answer points {lost} dropped from output + frontier")

    (nodes,), stats = _frontier_search(
        [t], metric.factors, query.coords, query.radii, query.epsilon, probe=probe
    )
    return _points(t, nodes), stats


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
    cover every dataset point within ``radius`` of q.
    """
    if not 0 < radius < math.inf:
        raise InputError(f"radius must be positive and finite, got {radius}")
    if not 0 <= epsilon < math.inf:
        raise InputError(f"epsilon must be nonnegative and finite, got {epsilon}")
    (nodes,), stats = _frontier_search([t], [t.metric], [q], [radius], epsilon)
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
