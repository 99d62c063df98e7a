"""Approximate range search over greedy trees.

The search keeps a max-heap of candidate nodes keyed by radius.  A popped
node whose center sits within ``(1+eps)*r_i - radius`` of the query in
every factor is reported whole; otherwise it splits, and a node enters
the heap (the root included) only if its center is within
``r_i + node_radius`` everywhere.  Nodes still queued once every radius
drops to ``eps * min(r_i) / 2`` are reported as-is, which is sound
precisely because each of them passed that entry test.

The halved cutoff is load-bearing: a queued node only promises its
points within ``r_i + 2 * radius`` per factor, so stopping at
``eps * min(r_i)`` can leak points past the ``(1+eps)`` expansion
(a four-point instance in the tests demonstrates it).  Halving restores
the guarantee:

    exact answer  <=  output  <=  answer at radii scaled by (1+eps)

with set containment on both sides, for every input.  At eps = 0 the
loop drains the heap down to radius-zero nodes and the output is exact.
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

    width: max heap size observed.
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


def _heap_search(
    t: GreedyTree,
    factors: Sequence[MetricSpace | ProductMetric],
    coords: Sequence[Any],
    radii: Sequence[float],
    epsilon: float,
    coverage_probe: Callable[[list[int], list[int]], None] | None = None,
) -> tuple[list[int], "SearchStats"]:
    """Best-first search from the root of nonempty ``t``; returns node indices."""
    center, radius, right = t.center, t.radius, t.right
    m = len(factors)
    evals = [0] * m
    expanded = [(1.0 + epsilon) * r for r in radii]
    cutoff = epsilon * min(radii) / 2.0

    # Heap entries: (-radius, center id, split depth, node, center dists).
    # Live centers are distinct, so the first two fields order totally.
    # The root takes the same survival test as any child: every queued
    # node must have passed it, or the residual flush below is unsound.
    heap: list[tuple[float, int, int, int, tuple[float, ...]]] = []
    root_dists: list[float] | None = []
    for i in range(m):
        d = factors[i].dist_point(coords[i], center[0])
        evals[i] += 1
        if d > radii[i] + radius[0]:
            root_dists = None
            break
        root_dists.append(d)
    if root_dists is not None:
        heap.append((-radius[0], center[0], 0, 0, tuple(root_dists)))
    width = len(heap)
    height = 0
    splits = 0
    out: list[int] = []

    while heap and -heap[0][0] > cutoff:
        neg_r, _, depth, node, dists = heapq.heappop(heap)
        r = -neg_r
        if all(dists[i] <= expanded[i] - r for i in range(m)):
            out.append(node)
        elif right[node] >= 0:
            splits += 1
            depth += 1
            if depth > height:
                height = depth
            for child, known in ((right[node], None), (node + 1, dists)):
                rc = radius[child]
                if known is None:
                    # Fresh center: evaluate factors in order, stop at the
                    # first one that prunes.
                    ds = []
                    for i in range(m):
                        d = factors[i].dist_point(coords[i], center[child])
                        evals[i] += 1
                        if d > radii[i] + rc:
                            ds = None
                            break
                        ds.append(d)
                    if ds is None:
                        continue
                    known = tuple(ds)
                elif any(known[i] > radii[i] + rc for i in range(m)):
                    # Left child shares the parent's center; reuse its
                    # distances instead of re-evaluating.
                    continue
                heapq.heappush(heap, (-rc, center[child], depth, child, known))
            if len(heap) > width:
                width = len(heap)
        # No other case: a leaf only enters the heap within its exact
        # radii (survival test with radius 0), so it always reports.
        if coverage_probe is not None:
            coverage_probe(out, [entry[3] for entry in heap])

    out.extend(entry[3] for entry in heap)
    stats = SearchStats(
        width=width,
        height=height,
        splits=splits,
        dist_evals=tuple(evals),
        output_size=sum(t.count[v] for v in out),
    )
    return out, stats


def product_range_query(
    t: GreedyTree,
    query: ProductQuery,
    coverage_check: Iterable[int] | None = None,
) -> tuple[set[int], SearchStats]:
    """Report points within the query radii, factor by factor.

    The tree must be built over the product of the query's factors.
    Output is sandwiched between the exact answer and the answer at
    radii scaled by (1+eps).  ``coverage_check`` (debug): assert after
    every loop step that each given point id is still covered by the
    output or the heap.
    """
    metric = t.metric
    if not isinstance(metric, ProductMetric):
        raise InputError("product_range_query needs a tree over a product metric")
    if len(query.radii) != metric.m:
        raise InputError(f"query has {len(query.radii)} radii but the tree has {metric.m} factors")
    if t.n == 0:
        return set(), SearchStats(0, 0, 0, tuple([0] * metric.m), 0)

    probe = None
    if coverage_check is not None:
        expected = list(coverage_check)

        def probe(out_nodes: list[int], heap_nodes: list[int]) -> None:
            covered: set[int] = set()
            for v in out_nodes + heap_nodes:
                covered.update(subtree_points(t, v).tolist())
            lost = [p for p in expected if p not in covered]
            assert not lost, f"exact answer points {lost} dropped from output + heap"

    nodes, stats = _heap_search(
        t, metric.factors, query.coords, query.radii, query.epsilon, coverage_probe=probe
    )
    points: set[int] = set()
    for v in nodes:
        points.update(subtree_points(t, v).tolist())
    return points, stats


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
    if t.n == 0:
        return NodeCover(tree=t, nodes=()), SearchStats(0, 0, 0, (0,), 0)
    nodes, stats = _heap_search(t, [t.metric], [q], [radius], epsilon)
    return NodeCover(tree=t, nodes=tuple(nodes)), stats


def range_report(
    t: GreedyTree,
    q: Any,
    radius: float,
    epsilon: float,
) -> tuple[set[int], SearchStats]:
    """Flatten a range cover into the reported point set."""
    cover, stats = range_cover(t, q, radius, epsilon)
    points: set[int] = set()
    for v in cover.nodes:
        points.update(subtree_points(t, v).tolist())
    return points, stats
