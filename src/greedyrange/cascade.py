"""Cascaded greedy trees: one tree per factor, nested node by node.

The first factor gets a greedy tree over the whole dataset.  Every node
of that tree carries an auxiliary structure over exactly its own points,
built on the remaining factors; with one factor left the auxiliary is a
plain greedy tree.  The auxiliaries form a list indexed like the primary
tree's preorder nodes.  They are assembled bottom-up: a node's tree on
the next factor is ``merge`` of its children's, which reruns the one
greedy pass on the union and leaves the children's trees untouched, so
child structures stay valid after their parent is built.  With two or
more factors left, the merged tree is decorated in turn.

A query peels one factor per level: a range cover on the primary tree,
then one frontier search over the auxiliaries of all the cover nodes at
once (their trees share the level's factor and its point ids), whose
reported nodes select the auxiliaries of the next level.  Small subtrees
that search finds are scanned exactly on every remaining factor at once,
so their points skip the deeper levels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from . import search
from .errors import InputError
from .metrics import MetricSpace
from .search import ProductQuery, SearchStats, _frontier_search, _points, range_cover, range_report
from .tree import (
    GreedyTree,
    build_greedy_tree,
    greedy_permutation,
    merge,
    tree_from_obj,
    tree_to_obj,
)

__all__ = [
    "GreedyRangeTree",
    "build_grt",
    "grt_query",
    "aux_leaf_totals",
    "grt_to_obj",
    "grt_from_obj",
]

@dataclass
class GreedyRangeTree:
    """Cascade over two or more factors (one factor is a plain tree)."""

    primary: GreedyTree
    aux: list["GreedyRangeTree | GreedyTree"]  # one per primary node, in preorder
    factors: list[MetricSpace]

    @property
    def n(self) -> int:
        return self.primary.n

    @property
    def m(self) -> int:
        return len(self.factors)

    def aux_of(self, node: int) -> "GreedyRangeTree | GreedyTree":
        return self.aux[node]


def _decorate(tree: GreedyTree, rest: Sequence[MetricSpace]) -> list[Any]:
    """Build an auxiliary per node of ``tree`` over the ``rest`` factors."""
    aux: list[Any] = [None] * len(tree.center)
    # Children have larger preorder indices than their parent.
    for i in reversed(tree.nodes()):
        r = tree.right[i]
        if r < 0:
            aux[i] = build_grt([tree.center[i]], rest)
        elif len(rest) == 1:
            aux[i] = merge(aux[i + 1], aux[r])
        else:
            primary = merge(aux[i + 1].primary, aux[r].primary)
            aux[i] = GreedyRangeTree(
                primary=primary,
                aux=_decorate(primary, rest[1:]),
                factors=list(rest),
            )
    return aux


def build_grt(
    points: Sequence[int],
    factors: Sequence[MetricSpace],
    *,
    seed: int | str = "first",
) -> GreedyRangeTree | GreedyTree:
    """Build the cascade for the given factors over the given points.

    With a single factor this is exactly ``build_greedy_tree`` on it.
    """
    factors = list(factors)
    if not factors:
        raise InputError("at least one factor is required")
    if not points:
        raise InputError("n >= 1 required: no points to index")
    tree = build_greedy_tree(greedy_permutation(points, factors[0], seed=seed), factors[0])
    if len(factors) == 1:
        return tree
    return GreedyRangeTree(
        primary=tree,
        aux=_decorate(tree, factors[1:]),
        factors=factors,
    )


def grt_query(struct: GreedyRangeTree | GreedyTree, query: ProductQuery) -> tuple[set[int], SearchStats]:
    """Answer a product query level by level.

    Same sandwich contract as the single-tree search, with the same eps
    applied at every level.  Level 0 is a range cover (or report) on the
    top tree; each deeper level searches the auxiliaries of every cover
    node from the level above in one frontier search.  A bucket found at
    level i >= 1 is scanned exactly on factors i..m-1, and its points
    skip the deeper levels.  Width and height are maxima over the levels;
    splits and per-factor evaluations add up.
    """
    m = len(query.radii)
    declared = struct.m if isinstance(struct, GreedyRangeTree) else 1
    if m != declared:
        raise InputError(f"query has {m} radii but the structure has {declared} factors")
    coords, radii, eps = query.coords, query.radii, query.epsilon
    if isinstance(struct, GreedyTree):
        return range_report(struct, coords[0], radii[0], eps)

    cover, stats = range_cover(struct.primary, coords[0], radii[0], eps)
    width, height, splits = stats.width, stats.height, stats.splits
    evals = [stats.dist_evals[0]] + [0] * (m - 1)
    level = [struct.aux[v] for v in cover.nodes]
    points: set[int] = set()
    for i in range(1, m):
        trees = [s.primary if isinstance(s, GreedyRangeTree) else s for s in level]
        scan = list(zip(struct.factors[i:], coords[i:], radii[i:]))
        outs, hits, stats = _frontier_search(
            trees, [struct.factors[i]], [coords[i]], [radii[i]], eps,
            leaf_size=search.LEAF_SIZE, scan=scan,
        )
        width, height = max(width, stats.width), max(height, stats.height)
        splits += stats.splits
        for j, count in enumerate(stats.dist_evals, start=i):
            evals[j] += count
        points.update(hits.tolist())
        if i < m - 1:
            level = [s.aux[v] for s, nodes in zip(level, outs) for v in nodes]
    for t, nodes in zip(trees, outs):
        points |= _points(t, nodes)
    return points, SearchStats(width, height, splits, tuple(evals), len(points))


def aux_leaf_totals(struct: GreedyRangeTree | GreedyTree) -> dict[int, int]:
    """Leaf counts per cascade level (level 0 is the primary tree)."""
    totals: dict[int, int] = {}

    def walk(s: GreedyRangeTree | GreedyTree, level: int) -> None:
        if isinstance(s, GreedyTree):
            totals[level] = totals.get(level, 0) + s.n
            return
        totals[level] = totals.get(level, 0) + s.primary.n
        for sub in s.aux:
            walk(sub, level + 1)

    walk(struct, 0)
    return totals


# ---------------------------------------------------------------------------
# Serialization: one forest per cascade level.  Level 0 is the top tree;
# level k + 1 holds the auxiliary primaries of every level-k node, tree
# after tree in level-k node order, so the aux of node j holds exactly
# node j's count points.
# ---------------------------------------------------------------------------


def grt_to_obj(struct: GreedyRangeTree | GreedyTree) -> list[dict[str, np.ndarray]]:
    levels = []
    level = [struct]
    while level:
        levels.append(tree_to_obj([s.primary if isinstance(s, GreedyRangeTree) else s for s in level]))
        level = [sub for s in level if isinstance(s, GreedyRangeTree) for sub in s.aux]
    return levels


def grt_from_obj(
    levels: Sequence[dict[str, np.ndarray]], factors: Sequence[MetricSpace], n: int
) -> GreedyRangeTree | GreedyTree:
    factors = list(factors)
    if not factors:
        raise InputError("at least one factor is required")
    if len(levels) != len(factors):
        raise InputError(f"{len(levels)} cascade levels for {len(factors)} factors")
    forests, sizes = [], [n]
    for k, (level, factor) in enumerate(zip(levels, factors)):
        try:
            forests.append(tree_from_obj(level, factor, sizes))
        except InputError as exc:
            raise InputError(f"cascade level {k}: {exc}") from exc
        sizes = level["count"]
    structs: list[Any] = forests[-1]
    for k in range(len(forests) - 2, -1, -1):
        upper, pos = [], 0
        for t in forests[k]:
            upper.append(GreedyRangeTree(primary=t, aux=structs[pos : pos + len(t.center)], factors=factors[k:]))
            pos += len(t.center)
        structs = upper
    return structs[0]
