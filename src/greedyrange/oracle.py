"""Brute-force reference answers and output checking.

The oracle scans every point against every factor, one vectorized call
per factor, so its evaluation count is exactly n * m, the baseline the
indexed searches are measured against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Sequence

import numpy as np

from .errors import InputError
from .metrics import MetricSpace

__all__ = ["exact_product_range", "SandwichVerdict", "sandwich_check"]


def exact_product_range(
    factors: Sequence[MetricSpace],
    coords: Sequence[Any],
    radii: Sequence[float],
    points: Iterable[int],
) -> set[int]:
    """Points within ``radii[i]`` of ``coords[i]`` in every factor.

    Boundaries are closed and radii of zero are allowed.  An ndarray of
    ids is used as it is; any other iterable is read with ``np.fromiter``.
    """
    factors = list(factors)
    if not factors:
        raise InputError("at least one factor is required")
    if not (len(coords) == len(radii) == len(factors)):
        raise InputError("factors, coords, and radii must align")
    if any(r < 0 for r in radii):
        raise InputError(f"radii must be nonnegative, got {tuple(radii)}")
    ids = points if isinstance(points, np.ndarray) else np.fromiter(points, dtype=np.intp)
    if ids.size == 0:
        return set()
    mask = np.ones(ids.size, dtype=bool)
    for f, q, r in zip(factors, coords, radii):
        mask &= f.dist_point_many(q, ids) <= r
    return set(ids[mask].tolist())


@dataclass(frozen=True)
class SandwichVerdict:
    """Outcome of the containment check exact <= output <= expanded."""

    missing: tuple[int, ...]
    extra: tuple[int, ...]
    passed: bool


def sandwich_check(
    output: Iterable[int],
    exact_inner: Iterable[int],
    expanded_outer: Iterable[int],
) -> SandwichVerdict:
    """Compare an output set against the two oracle sets.

    ``missing`` lists exact-answer points the output dropped; ``extra``
    lists output points outside the expanded answer.
    """
    out = set(output)
    inner = set(exact_inner)
    outer = set(expanded_outer)
    missing = tuple(sorted(inner - out))
    extra = tuple(sorted(out - outer))
    return SandwichVerdict(missing=missing, extra=extra, passed=not missing and not extra)
