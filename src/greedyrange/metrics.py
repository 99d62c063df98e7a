"""Metric spaces over a fixed point set, with distance-evaluation counting.

A metric space wraps one coordinate column of a dataset and exposes
distances between stored points (by id) and from free query payloads to
stored points.  Every public distance call increments the space's
``evals`` count by exactly one per point pair, including bulk and paired
calls, so instrumentation stays comparable between the brute-force
oracle and the tree-based indexes.

The product of several spaces combines factor distances by max.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Iterable, Sequence

import numpy as np

from .errors import ConfigurationError, InputError

__all__ = [
    "MetricSpace",
    "AbsDiffMetric",
    "MinkowskiMetric",
    "LevenshteinMetric",
    "ProductMetric",
    "FactorStats",
    "DatasetSummary",
    "dataset_summary",
    "levenshtein",
]


def _as_id_array(ids: Any, n: int) -> np.ndarray:
    out = np.asarray(ids, dtype=np.intp)
    if out.ndim != 1:
        raise InputError(f"point ids must form a 1-d sequence, got shape {out.shape}")
    # As unsigned, a negative id wraps past n: one reduction checks both ends.
    if out.size and out.view(np.uintp).max() >= n:
        raise InputError(f"point id out of range [0, {n})")
    return out


class MetricSpace(ABC):
    """One factor metric over points 0..n-1.

    Subclasses implement the uncounted kernels ``_pairs`` and ``_point``;
    the public methods validate ids, count evaluations, and always route
    scalar calls through the same kernel as bulk calls so repeated
    distance computations are bit-identical.  ``_zip`` (paired sources)
    defaults to one ``_pairs`` call per distinct source; a subclass may
    vectorize it with the same arithmetic.
    """

    def __init__(self, name: str, size: int) -> None:
        self.name = name
        self._n = int(size)
        self.evals = 0  # distance evaluations performed through this space

    def __len__(self) -> int:
        return self._n

    @abstractmethod
    def _pairs(self, x: int, ids: np.ndarray) -> np.ndarray:
        """Distances from stored point x to each stored point in ids."""

    @abstractmethod
    def _point(self, q: Any, ids: np.ndarray) -> np.ndarray:
        """Distances from free payload q to each stored point in ids."""

    def _zip(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Distances from each stored point xs[i] to ys[i]."""
        out = np.empty(xs.size)
        if xs.size:
            order = np.argsort(xs, kind="stable")
            for pos in np.split(order, np.flatnonzero(np.diff(xs[order])) + 1):
                out[pos] = self._pairs(int(xs[pos[0]]), ys[pos])
        return out

    def _check_id(self, x: int) -> int:
        x = int(x)
        if not 0 <= x < self._n:
            raise InputError(f"point id {x} out of range [0, {self._n})")
        return x

    def dist(self, x: int, y: int) -> float:
        x = self._check_id(x)
        y = self._check_id(y)
        self.evals += 1
        return float(self._pairs(x, np.asarray([y], dtype=np.intp))[0])

    def dist_many(self, x: int, ids: Any) -> np.ndarray:
        x = self._check_id(x)
        ids = _as_id_array(ids, self._n)
        self.evals += ids.size
        return self._pairs(x, ids)

    def dist_pairs(self, xs: Any, ys: Any) -> np.ndarray:
        """Distances from xs[i] to ys[i], bit-equal to ``dist_many(xs[i], [ys[i]])``."""
        xs = _as_id_array(xs, self._n)
        ys = _as_id_array(ys, self._n)
        if xs.size != ys.size:
            raise InputError(f"paired ids differ in length: {xs.size} sources, {ys.size} targets")
        self.evals += ys.size
        return self._zip(xs, ys)

    # Count after the kernel: it validates the payload q and may reject it.
    def dist_point(self, q: Any, y: int) -> float:
        y = self._check_id(y)
        d = float(self._point(q, np.asarray([y], dtype=np.intp))[0])
        self.evals += 1
        return d

    def dist_point_many(self, q: Any, ids: Any) -> np.ndarray:
        ids = _as_id_array(ids, self._n)
        out = self._point(q, ids)
        self.evals += ids.size
        return out


class AbsDiffMetric(MetricSpace):
    """Absolute difference between scalar coordinates."""

    def __init__(self, name: str, values: Any) -> None:
        vals = np.asarray(values, dtype=np.float64)
        if vals.ndim != 1:
            raise ConfigurationError("abs1d coordinates must be scalars")
        super().__init__(name, vals.size)
        self._vals = vals

    def _pairs(self, x: int, ids: np.ndarray) -> np.ndarray:
        return np.abs(self._vals[ids] - self._vals[x])

    def _zip(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        return np.abs(self._vals[ys] - self._vals[xs])

    def _point(self, q: Any, ids: np.ndarray) -> np.ndarray:
        try:
            qv = float(q)
        except (TypeError, ValueError) as exc:
            raise InputError(f"factor {self.name!r} expects a numeric payload, got {q!r}") from exc
        return np.abs(self._vals[ids] - qv)


class MinkowskiMetric(MetricSpace):
    """L1 or L2 distance between fixed-dimension real vectors.

    Coordinates are stored once, as C-contiguous (dim, n) columns; a call
    gathers its ids into a (dim, k) block and adds its rows left to right,
    so the distance bits equal an ``acc += d * d`` loop for every k.
    """

    def __init__(self, name: str, vectors: Any, p: int) -> None:
        mat = np.asarray(vectors, dtype=np.float64)
        if mat.ndim != 2 or mat.shape[1] < 1:
            raise ConfigurationError("vector coordinates must form an (n, dim) array with dim >= 1")
        if p not in (1, 2):
            raise ConfigurationError(f"unsupported Minkowski order {p}")
        super().__init__(name, mat.shape[0])
        self._cols = np.ascontiguousarray(mat.T)
        self._p = p

    @property
    def dim(self) -> int:
        return self._cols.shape[0]

    def _reduce(self, diff: np.ndarray) -> np.ndarray:
        # Not diff.sum(axis=0): numpy sums a lone column (k = 1) pairwise.
        terms = diff * diff if self._p == 2 else np.abs(diff)
        total = terms[0]
        for row in terms[1:]:
            total = total + row
        return np.sqrt(total) if self._p == 2 else total

    def _pairs(self, x: int, ids: np.ndarray) -> np.ndarray:
        return self._reduce(self._cols.take(ids, axis=1) - self._cols[:, x, None])

    def _zip(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        return self._reduce(self._cols.take(ys, axis=1) - self._cols.take(xs, axis=1))

    def _point(self, q: Any, ids: np.ndarray) -> np.ndarray:
        qv = np.asarray(q, dtype=np.float64)
        if qv.shape != (self.dim,):
            raise InputError(
                f"factor {self.name!r} expects a vector of length {self.dim}, got {q!r}"
            )
        return self._reduce(self._cols.take(ids, axis=1) - qv[:, None])


def _pattern(a: str) -> tuple[dict[str, int], int]:
    """Match masks of ``a`` for the bit-vector kernel, and its length.

    Bit i of ``peq[c]`` is set where ``a[i] == c``; Python ints are the bit
    vectors, so any length works.
    """
    peq: dict[str, int] = {}
    for i, c in enumerate(a):
        peq[c] = peq.get(c, 0) | (1 << i)
    return peq, len(a)


def _edit_distance(pattern: tuple[dict[str, int], int], b: str) -> int:
    """Edit distance from the pattern's string to ``b`` in one pass over ``b``.

    Myers's bit-vector scan (JACM 1999) in Hyyrö's global form (2001):
    ``pv``/``mv`` hold the +1/-1 vertical deltas of one DP column, and the
    ``| 1`` shifted into the horizontal delta is the first row's ``D[0][j] = j``.
    The distance is the last column's sum, ``D[0][len(b)]`` plus its deltas.
    """
    peq, m = pattern
    mask = (1 << m) - 1
    pv, mv = mask, 0
    for c in b:
        eq = peq.get(c, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = (mv | ~(xh | pv)) << 1 | 1
        pv = ((pv & xh) << 1 | ~(xv | ph)) & mask
        mv = ph & xv
    return len(b) + pv.bit_count() - mv.bit_count()


def levenshtein(a: str, b: str) -> int:
    """Classic edit distance (unit-cost insert, delete, substitute).

    Runs the bit-vector kernel: len(b) steps, each a few operations on
    len(a)-bit integers, in place of a DP over len(a) * len(b) cells.
    """
    return _edit_distance(_pattern(a), b)


class LevenshteinMetric(MetricSpace):
    """Edit distance between strings.

    Each call builds the bit-vector pattern of the source string (stored
    point ``x`` or payload ``q``) once and scans every target with it, so a
    bulk call over k ids costs one pattern and k linear scans; a paired
    call builds one pattern per distinct source.  Nothing is precomputed
    per stored string.
    """

    def __init__(self, name: str, strings: Sequence[str]) -> None:
        for s in strings:
            if not isinstance(s, str):
                raise ConfigurationError(f"levenshtein coordinates must be strings, got {s!r}")
        super().__init__(name, len(strings))
        self._strings = list(strings)

    def _scan(self, a: str, ids: np.ndarray) -> np.ndarray:
        pattern, strings = _pattern(a), self._strings
        return np.array([_edit_distance(pattern, strings[i]) for i in ids.tolist()], dtype=np.float64)

    def _pairs(self, x: int, ids: np.ndarray) -> np.ndarray:
        return self._scan(self._strings[x], ids)

    def _point(self, q: Any, ids: np.ndarray) -> np.ndarray:
        if not isinstance(q, str):
            raise InputError(f"factor {self.name!r} expects a string payload, got {q!r}")
        return self._scan(q, ids)


class ProductMetric:
    """Max combination of factor metrics over a shared point set.

    Point-to-point distance is the max of factor distances, and every
    call charges one evaluation to each factor.  Query payloads
    are per-factor tuples aligned with ``factors``.
    """

    def __init__(self, factors: Sequence[MetricSpace]) -> None:
        factors = list(factors)
        if not factors:
            raise ConfigurationError("a product metric needs at least one factor")
        sizes = {len(f) for f in factors}
        if len(sizes) != 1:
            raise ConfigurationError(f"factors disagree on point count: {sorted(sizes)}")
        self.factors = factors
        self.name = "max(" + ", ".join(f.name for f in factors) + ")"
        self._n = sizes.pop()

    def __len__(self) -> int:
        return self._n

    @property
    def m(self) -> int:
        return len(self.factors)

    @property
    def evals(self) -> int:
        return sum(f.evals for f in self.factors)

    def dist(self, x: int, y: int) -> float:
        return max(f.dist(x, y) for f in self.factors)

    def dist_many(self, x: int, ids: Any) -> np.ndarray:
        rows = [f.dist_many(x, ids) for f in self.factors]
        out = rows[0]
        for row in rows[1:]:
            out = np.maximum(out, row)
        return out

    def _split_payload(self, q: Any) -> Sequence[Any]:
        if not isinstance(q, (tuple, list)) or len(q) != len(self.factors):
            raise InputError(
                f"product payload must list one coordinate per factor ({len(self.factors)})"
            )
        return q

    def dist_point(self, q: Any, y: int) -> float:
        qs = self._split_payload(q)
        return max(f.dist_point(qi, y) for f, qi in zip(self.factors, qs))

    def dist_point_many(self, q: Any, ids: Any) -> np.ndarray:
        qs = self._split_payload(q)
        rows = [f.dist_point_many(qi, ids) for f, qi in zip(self.factors, qs)]
        out = rows[0]
        for row in rows[1:]:
            out = np.maximum(out, row)
        return out


# ---------------------------------------------------------------------------
# Dataset-wide distance statistics.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FactorStats:
    """Pairwise-distance extremes for one factor (or the product)."""

    diameter: float
    min_distance: float
    spread: float
    has_duplicates: bool


@dataclass(frozen=True)
class DatasetSummary:
    n: int
    per_factor: dict[str, FactorStats]
    product: FactorStats


def _stats(diameter: float, min_dist: float) -> FactorStats:
    dup = min_dist == 0.0
    spread = math.inf if dup else diameter / min_dist
    return FactorStats(diameter=diameter, min_distance=min_dist, spread=spread, has_duplicates=dup)


def dataset_summary(pm: ProductMetric, points: Iterable[int]) -> DatasetSummary:
    """Exact spread and diameter per factor and for the product.

    Runs the full all-pairs scan (n*(n-1)/2 evaluations per factor).
    Duplicate points force an infinite spread, flagged per factor.
    """
    ids = _as_id_array(list(points), len(pm))
    n = ids.size
    if n < 2:
        raise InputError("dataset summary needs n >= 2 points")
    m = pm.m
    fmax = [0.0] * m
    fmin = [math.inf] * m
    pmax, pmin = 0.0, math.inf
    for i in range(n - 1):
        rest = ids[i + 1 :]
        prod_row = None
        for j, f in enumerate(pm.factors):
            row = f.dist_many(ids[i], rest)
            fmax[j] = max(fmax[j], float(row.max()))
            fmin[j] = min(fmin[j], float(row.min()))
            prod_row = row if prod_row is None else np.maximum(prod_row, row)
        pmax = max(pmax, float(prod_row.max()))
        pmin = min(pmin, float(prod_row.min()))
    per_factor = {
        f.name: _stats(fmax[j], fmin[j]) for j, f in enumerate(pm.factors)
    }
    return DatasetSummary(n=n, per_factor=per_factor, product=_stats(pmax, pmin))
