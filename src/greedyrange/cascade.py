"""Cascaded greedy trees: one forest per factor, as range trees are laid
out level by level in arrays (de Berg et al., *Computational Geometry*,
ch. 5).  An index file stores the same forests.

Level 0 is a greedy tree over the dataset on the first factor.  Level
k + 1 holds, for every node of level k in preorder, a tree over exactly
that node's points; node v's tree starts at the exclusive cumulative sum
of ``2*count - 1`` over the nodes before v.  A leaf's tree is its one
point, and an internal node's is the tree ``merge`` makes of its
children's, but a level is built without merging: a bottom-up pass picks
every tree's seed by ``merge``'s rule, then one lockstep greedy pass
orders all the trees' points at once and ``build_greedy_tree`` binarizes
each order.  The trees' columns go into the level's arrays at their
roots, and the same ``tree_from_obj`` that loads an index decodes them,
so a built cascade equals a loaded one by construction.

A query peels one factor per level through ``search.level_search``, the
same loop that searches a product tree as a cascade of one level: one
frontier search per level from the roots of the trees of the nodes
reported above.  Small subtrees below the top level are scanned exactly
on every remaining factor at once, so their points skip the deeper levels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import InputError
from .metrics import MetricSpace
from .search import ProductQuery, SearchStats, level_search
from .search import range_cover, range_report  # noqa: F401  (unused; bench/tracer.py wraps them here)
from .tree import FOREST_DTYPES, GreedyTree, build_greedy_tree, greedy_permutation, lockstep_greedy
from .tree import tree_from_obj, tree_to_obj
from .tree import merge  # noqa: F401  (unused; bench/tracer.py wraps it here)

__all__ = [
    "GreedyRangeTree",
    "build_grt",
    "grt_query",
    "aux_leaf_totals",
    "grt_to_obj",
    "grt_from_obj",
]


def _roots(level: GreedyTree) -> list[int]:
    """Where each node's tree starts in the next level, and one past the last."""
    spans = 2 * np.asarray(level.count, dtype=np.int64) - 1
    return np.concatenate([[0], np.cumsum(spans)]).tolist()


def _cut(t: GreedyTree, s: int, e: int) -> GreedyTree:
    """The whole trees of forest ``t`` at nodes [s, e), as a forest of their own."""
    f = t.first[s]
    g = t.first[e] if e < len(t.center) else t.n
    right = [r - s if r >= 0 else r for r in t.right[s:e]]
    first = [x - f for x in t.first[s:e]]
    return GreedyTree(t.metric, t.center[s:e], t.radius[s:e], t.count[s:e], right, first, t.leaves[f:g])


@dataclass(eq=False)
class GreedyRangeTree:
    """Cascade over two or more factors (one factor is a plain tree).

    ``levels[k]`` is the forest on ``factors[k]``; ``roots[k][v]`` is
    where level-k node v's tree starts in level k + 1.
    """

    levels: list[GreedyTree]
    factors: list[MetricSpace]
    roots: list[list[int]] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.roots = [_roots(level) for level in self.levels[:-1]]

    @property
    def primary(self) -> GreedyTree:
        return self.levels[0]

    def aux_of(self, node: int) -> "GreedyRangeTree | GreedyTree":
        """Level-0 node ``node``'s cascade on the other factors, cut out of the forests."""
        s, e = node, node + 1
        cut = []
        for roots, level in zip(self.roots, self.levels[1:]):
            s, e = roots[s], roots[e]
            cut.append(_cut(level, s, e))
        return cut[0] if len(cut) == 1 else GreedyRangeTree(cut, self.factors[1:])


def levels_of(struct: GreedyRangeTree | GreedyTree) -> list[GreedyTree]:
    """The forests of a cascade; a plain tree is one level."""
    return struct.levels if isinstance(struct, GreedyRangeTree) else [struct]


def _points_of(leaves: np.ndarray, first: np.ndarray, count: np.ndarray) -> np.ndarray:
    """The leaf slices ``leaves[first[i]:first[i] + count[i]]``, end to end."""
    return leaves[np.repeat(first - (np.cumsum(count) - count), count) + np.arange(count.sum())]


def _merge_seeds(upper: GreedyTree, factor: MetricSpace) -> np.ndarray:
    """Per node of ``upper``, the seed ``merge`` gives the tree of its points.

    A leaf's tree is its own point.  An internal node's seed is the child
    seed of larger eccentricity over both children's points, the smaller
    id on a tie; the eccentricity of a child's seed over its own points is
    that child's root radius, so only the ``|pa| + |pb|`` cross pairs that
    ``merge`` evaluates are evaluated.  Nodes of equal height share one
    ``dist_pairs`` call.
    """
    seed = np.asarray(upper.center, dtype=np.intp)
    first = np.asarray(upper.first, dtype=np.int64)
    count = np.asarray(upper.count, dtype=np.int64)
    right = np.asarray(upper.right, dtype=np.int64)
    ecc = np.zeros(len(seed))
    height = [0] * len(seed)
    # Children have larger preorder indices than their parent.
    for v in reversed(upper.nodes()):
        if upper.right[v] >= 0:
            height[v] = 1 + max(height[v + 1], height[upper.right[v]])
    height = np.asarray(height)
    for h in range(1, int(height.max()) + 1):
        v = np.flatnonzero(height == h)
        a, b = v + 1, right[v]
        # v's points are a's then b's: pair a's with b's seed and b's with a's.
        lens = np.column_stack([count[a], count[b]]).ravel()
        src = np.repeat(np.column_stack([seed[b], seed[a]]).ravel(), lens)
        row = factor.dist_pairs(src, _points_of(upper.leaves, first[v], count[v]))
        far = np.maximum.reduceat(row, np.cumsum(lens) - lens)
        ecc_a, ecc_b = np.maximum(ecc[a], far[1::2]), np.maximum(ecc[b], far[0::2])
        seed[v] = np.where(ecc_a > ecc_b, seed[a], np.where(ecc_b > ecc_a, seed[b], np.minimum(seed[a], seed[b])))
        ecc[v] = np.maximum(ecc_a, ecc_b)
    return seed


def _build_level(upper: GreedyTree, factor: MetricSpace) -> GreedyTree:
    """The forest on ``factor`` of one tree per node of ``upper``.

    Node by node the trees are those of ``merge`` bottom-up, bit for bit:
    the seeds come from ``_merge_seeds``, one ``lockstep_greedy`` pass
    orders every internal node's points at once, and ``build_greedy_tree``
    binarizes each order.  A leaf's tree is its one point.
    """
    roots = _roots(upper)
    obj = {name: np.zeros(roots[-1], dtype) for name, dtype in FOREST_DTYPES.items()}
    right = np.asarray(upper.right)
    leaf, inner = np.flatnonzero(right < 0), np.flatnonzero(right >= 0)
    at = np.asarray(roots)[leaf]
    obj["center"][at] = np.asarray(upper.center)[leaf]
    obj["count"][at] = 1
    if inner.size:
        first = np.asarray(upper.first, dtype=np.int64)[inner]
        count = np.asarray(upper.count, dtype=np.int64)[inner]
        seeds = _merge_seeds(upper, factor)[inner]
        orders = lockstep_greedy(_points_of(upper.leaves, first, count), count, seeds, factor)
        for v, gp in zip(inner.tolist(), orders):
            t = build_greedy_tree(gp, factor)
            for name, col in obj.items():
                col[roots[v] : roots[v + 1]] = getattr(t, name)
    return tree_from_obj(obj, factor, upper.count)


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
    levels = [build_greedy_tree(greedy_permutation(points, factors[0], seed=seed), factors[0])]
    if len(factors) == 1:
        return levels[0]
    for factor in factors[1:]:
        levels.append(_build_level(levels[-1], factor))
    return GreedyRangeTree(levels, factors)


def grt_query(struct: GreedyRangeTree | GreedyTree, query: ProductQuery) -> tuple[set[int], SearchStats]:
    """Answer a product query level by level (``search.level_search``).

    Same sandwich contract as the single-tree search, with the same eps
    applied at every level.  The top level of a cascade of two or more
    levels makes no buckets.
    """
    return level_search(levels_of(struct), struct.roots if isinstance(struct, GreedyRangeTree) else [], query)


def aux_leaf_totals(struct: GreedyRangeTree | GreedyTree) -> dict[int, int]:
    """Leaf counts per cascade level (level 0 is the primary tree)."""
    return {k: level.n for k, level in enumerate(levels_of(struct))}


# ---------------------------------------------------------------------------
# Serialization: the forests themselves, level by level.
# ---------------------------------------------------------------------------


def grt_to_obj(struct: GreedyRangeTree | GreedyTree) -> list[dict[str, np.ndarray]]:
    return [tree_to_obj(level) for level in levels_of(struct)]


def grt_from_obj(
    levels: Sequence[dict[str, np.ndarray]], factors: Sequence[MetricSpace], n: int
) -> GreedyRangeTree | GreedyTree:
    """Decode and validate the forests of a cascade over ``n`` points.

    The trees of level k + 1 must also hold exactly the points of their
    level-k nodes: one comparison of sorted (node, point id) keys per pair
    of adjacent levels, with no distance work.
    """
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
    width = max(len(f) for f in factors)
    for k in range(1, len(forests)):
        count = levels[k - 1]["count"].astype(np.int64)
        node = np.repeat(np.arange(len(count)), count)
        # Node v's leaf slice starts at the number of leaves before it.
        leaf = count == 1
        pos = np.arange(len(node)) + np.repeat(np.cumsum(leaf) - leaf - (np.cumsum(count) - count), count)
        above = np.sort(node * width + forests[k - 1].leaves[pos])
        if (np.sort(node * width + forests[k].leaves) != above).any():
            raise InputError(f"cascade level {k}: a tree's points are not those of its node in level {k - 1}")
    return forests[0] if len(forests) == 1 else GreedyRangeTree(forests, factors)
