"""Reference implementations the tests trust instead of the library.

Everything here is written the slow, obvious way: plain dicts, explicit
loops, scalar arithmetic.  No numpy, no shared code with the package.
The reference searches at the end read the package's tree columns and
call its scalar ``dist_point``, nothing else.  The exceptions come at the
very end: the probe wrappers drive the package's own search, and
``merge_level`` builds a cascade level from the package's ``merge``.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable, Sequence

Dist = Callable[[int, int], float]


def brute_greedy(points: Sequence[int], dist: Dist, seed: int | None = None) -> tuple[list, list, list]:
    """Quadratic farthest-point ordering.

    Ties (both the farthest choice and the predecessor assignment) go to
    the smallest id.  Returns (order, insertion_radius, parent) with
    insertion_radius[0] = inf and parent[0] = None.
    """
    pts = sorted(points)
    start = pts[0] if seed is None else seed
    order = [start]
    radii = [math.inf]
    parents: list[int | None] = [None]
    remaining = {p for p in pts if p != start}
    # nearest inserted predecessor of every remaining point
    near = {p: (dist(p, start), start) for p in remaining}
    while remaining:
        best = max(near[p][0] for p in remaining)
        chosen = min(p for p in remaining if near[p][0] == best)
        d, parent = near.pop(chosen)
        remaining.discard(chosen)
        order.append(chosen)
        radii.append(d)
        parents.append(parent)
        for p in remaining:
            dd = dist(p, chosen)
            if dd < near[p][0] or (dd == near[p][0] and chosen < near[p][1]):
                near[p] = (dd, chosen)
    return order, radii, parents


def is_greedy_permutation(
    order: Sequence[int],
    radii: Sequence[float],
    parents: Sequence[int | None],
    points: Sequence[int],
    dist: Dist,
) -> list[str]:
    """Check a claimed greedy ordering directly against the definition.

    Returns a list of human-readable complaints; empty means valid.
    Does not compare against any particular construction, only against
    what the ordering is supposed to mean:

    - a permutation of ``points``
    - radii[i] is the distance from order[i] to its nearest predecessor,
      parents[i] is that predecessor (smallest id on ties)
    - order[i] maximizes nearest-predecessor distance among the points
      not yet placed (smallest id on ties)
    - radii (after the leading inf) never increase
    """
    bad: list[str] = []
    if sorted(order) != sorted(points):
        return [f"not a permutation of the input ids: {order}"]
    if len(order) != len(radii) or len(order) != len(parents):
        return ["order, radii, parents lengths disagree"]
    if radii and radii[0] != math.inf:
        bad.append(f"radii[0] = {radii[0]}, expected inf")
    if parents and parents[0] is not None:
        bad.append(f"parents[0] = {parents[0]}, expected None")

    for i in range(1, len(order)):
        prefix = order[:i]
        p = order[i]
        d_near = min(dist(p, q) for q in prefix)
        want_parent = min(q for q in prefix if dist(p, q) == d_near)
        if radii[i] != d_near:
            bad.append(f"radii[{i}] = {radii[i]}, nearest predecessor sits at {d_near}")
        if parents[i] != want_parent:
            bad.append(f"parents[{i}] = {parents[i]}, expected {want_parent}")
        # farthest-point rule over everything not yet placed
        rest = order[i:]
        far = max(min(dist(s, q) for q in prefix) for s in rest)
        achievers = [s for s in rest if min(dist(s, q) for q in prefix) == far]
        if d_near != far or p != min(achievers):
            bad.append(f"order[{i}] = {p} is not the farthest remaining point (tie rule included)")
        if radii[i] > radii[i - 1]:
            bad.append(f"radii increase at {i}: {radii[i - 1]} -> {radii[i]}")
    return bad


def brute_product_range(
    coords_by_point: dict[int, tuple],
    q: tuple,
    radii: Sequence[float],
    dists: Sequence[Callable],
) -> set[int]:
    """Independent product range scan for cross-checking the oracle module."""
    out = set()
    for pid, payloads in coords_by_point.items():
        if all(dists[i](q[i], payloads[i]) <= radii[i] for i in range(len(radii))):
            out.add(pid)
    return out


def scalar_abs(a: float, b: float) -> float:
    return abs(a - b)


def scalar_l2(a: Sequence[float], b: Sequence[float]) -> float:
    return math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))


def scalar_l1(a: Sequence[float], b: Sequence[float]) -> float:
    return sum(abs(x - y) for x, y in zip(a, b))


def scalar_levenshtein(a: str, b: str) -> float:
    """Textbook full-matrix edit distance, small inputs only."""
    la, lb = len(a), len(b)
    m = [[0] * (lb + 1) for _ in range(la + 1)]
    for i in range(la + 1):
        m[i][0] = i
    for j in range(lb + 1):
        m[0][j] = j
    for i in range(1, la + 1):
        for j in range(1, lb + 1):
            m[i][j] = min(
                m[i - 1][j] + 1,
                m[i][j - 1] + 1,
                m[i - 1][j - 1] + (a[i - 1] != b[j - 1]),
            )
    return float(m[la][lb])


# ---------------------------------------------------------------------------
# Reference searches: the original one-node-at-a-time best-first loop and
# the recursive cascade walk over it.  At the default bound of 1 they return
# what the package's search returned before it worked in rounds, stats
# included, so the batched search can be held to them.  A larger bound adds
# buckets: a popped node of at most ``leaf_size`` points that is not
# reported whole has its points tested one by one instead of splitting.
# ---------------------------------------------------------------------------


def reference_heap_search(t, factors, coords, radii, epsilon, leaf_size=1, scan=None):
    """Best-first search from the root of nonempty ``t``.

    ``scan`` lists the (factor, coord, radius) triples that bucket points
    are tested against, the searched factors by default.  Returns (node
    indices, bucket points that passed every triple, (width, height,
    splits, dist_evals, output_size)); dist_evals has one entry per triple.
    """
    if scan is None:
        scan = list(zip(factors, coords, radii))
    center, radius, right = t.center, t.radius, t.right
    m = len(factors)
    evals = [0] * len(scan)
    expanded = [(1.0 + epsilon) * r for r in radii]
    cutoff = epsilon * min(radii) / 2.0

    # Heap entries: (-radius, center id, split depth, node, center dists).
    # Live centers are distinct, so the first two fields order totally.
    # The root takes the same survival test as any child: every queued
    # node must have passed it, or the residual flush below is unsound.
    heap = []
    root_dists = []
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
    out = []
    buckets = []

    while heap and -heap[0][0] > cutoff:
        neg_r, _, depth, node, dists = heapq.heappop(heap)
        r = -neg_r
        if all(dists[i] <= expanded[i] - r for i in range(m)):
            out.append(node)
        elif t.count[node] <= leaf_size:
            buckets.append(node)
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

    out.extend(entry[3] for entry in heap)
    hits = set()
    for p in reference_points(t, buckets):
        for j, (factor, q, rj) in enumerate(scan):
            evals[j] += 1
            if factor.dist_point(q, p) > rj:
                break
        else:
            hits.add(p)
    output_size = sum(t.count[v] for v in out) + len(hits)
    return out, hits, (width, height, splits, tuple(evals), output_size)


def tree_columns(t) -> tuple:
    """Every column of a tree as plain lists, for equality checks."""
    return (t.center, t.radius, t.count, t.right, t.first, t.leaves.tolist())


def reference_points(t, nodes) -> set[int]:
    points: set[int] = set()
    for v in nodes:
        points.update(int(p) for p in t.leaves[t.first[v] : t.first[v] + t.count[v]])
    return points


def reference_grt_query(struct, coords, radii, epsilon, leaf_size=1):
    """Recursive cascade walk: one reference search per structure.

    The top tree searches without buckets; below it, a bucket at level i
    is tested on factors i..m-1 and its points skip the deeper levels.
    Returns (points, (width, height, splits, dist_evals, output_size)),
    with width and height as maxima over the sub-searches and splits and
    per-factor evaluations as sums.
    """
    m = len(radii)
    factors = struct.factors if hasattr(struct, "primary") else [struct.metric]
    agg = {"width": 0, "height": 0, "splits": 0, "evals": [0] * m}
    points: set[int] = set()

    def walk(s, level):
        t = s.primary if hasattr(s, "primary") else s
        scan = list(zip(factors[level:], coords[level:], radii[level:]))
        nodes, hits, (width, height, splits, evals, _) = reference_heap_search(
            t, [t.metric], [coords[level]], [radii[level]], epsilon,
            leaf_size=leaf_size if level else 1, scan=scan,
        )
        agg["width"] = max(agg["width"], width)
        agg["height"] = max(agg["height"], height)
        agg["splits"] += splits
        for j, count in enumerate(evals, start=level):
            agg["evals"][j] += count
        points.update(hits)
        if t is s:
            points.update(reference_points(t, nodes))
            return
        for v in nodes:
            walk(s.aux_of(v), level + 1)

    walk(struct, 0)
    stats = (agg["width"], agg["height"], agg["splits"], tuple(agg["evals"]), len(points))
    return points, stats


# ---------------------------------------------------------------------------
# Probe wrappers: the package's search takes a debug hook that sees the
# reported nodes, the buckets and the frontier after every round.  It is
# driven from here, so the public API carries no test-only parameter.
# ---------------------------------------------------------------------------


def probed_product_search(t, query, expected, leaf_size):
    """Product-tree search that checks coverage after every round.

    After each round's entry tests, raise AssertionError (also under
    ``python -O``) unless every point id in ``expected`` lies under a
    reported node, a bucket (its exact scan comes later) or a frontier
    node.  Returns the reported points and the stats.
    """
    from greedyrange.search import _frontier_search

    expected = list(expected)

    def probe(out, buckets, frontier):
        covered = reference_points(t, out + buckets + [entry[0] for entry in frontier])
        lost = [p for p in expected if p not in covered]
        if lost:
            raise AssertionError(f"exact answer points {lost} dropped from output + buckets + frontier")

    nodes, hits, stats = _frontier_search(
        t, [0], t.metric.factors, query.coords, query.radii, query.epsilon,
        leaf_size=leaf_size, probe=probe,
    )
    return reference_points(t, nodes) | {int(p) for p in hits}, stats


def bucket_log(monkeypatch, module):
    """Log every search that ``module`` runs through ``_frontier_search``.

    Each entry is (scan length, bucket count, split count, dist_evals),
    the buckets read by the probe after the last round.
    """
    original = module._frontier_search
    log = []

    def logged(*args, **kwargs):
        found = [0]

        def probe(out, buckets, frontier):
            found[0] = len(buckets)

        out, hits, stats = original(*args, probe=probe, **kwargs)
        scan = kwargs.get("scan") or args[2]
        log.append((len(scan), found[0], stats.splits, stats.dist_evals))
        return out, hits, stats

    monkeypatch.setattr(module, "_frontier_search", logged)
    return log


# ---------------------------------------------------------------------------
# Reference level build: a cascade level as ``tree.merge`` defines it.
# ---------------------------------------------------------------------------


def merge_level(upper, factor) -> dict[str, list]:
    """The forest on ``factor`` of one tree per node of ``upper``, one merge
    per node: bottom-up, a leaf's tree is its one point and an internal
    node's is ``merge`` of its children's trees.  Trees are laid end to end
    in node order.  Returns the stored columns as lists.
    """
    from greedyrange.tree import build_greedy_tree, greedy_permutation, merge

    trees = [None] * len(upper.center)
    # Children have larger preorder indices than their parent.
    for v in reversed(range(len(upper.center))):
        r = upper.right[v]
        if r < 0:
            trees[v] = build_greedy_tree(greedy_permutation([upper.center[v]], factor), factor)
        else:
            trees[v] = merge(trees[v + 1], trees[r])
    return {name: [x for t in trees for x in getattr(t, name)] for name in ("radius", "count", "center")}
