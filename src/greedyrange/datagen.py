"""Seeded synthetic datasets and calibrated query workloads.

Three point layouts per factor: "uniform" (unit cube), "gaussian"
(points around a few cluster centers), and "grid" (integer lattice with
unit spacing, which pins the spread exactly: n-1 for a 1-d grid).
String factors draw short random words regardless of layout.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .dataset import Dataset, FactorSpec, WorkloadQuery
from .errors import ConfigurationError, InputError

__all__ = ["GENERATORS", "synth_dataset", "calibrated_queries"]

GENERATORS = ("uniform", "gaussian", "grid")

_ALPHABET = np.array(list("abcd"))


def _numeric_column(rng: np.random.Generator, n: int, dim: int, layout: str) -> np.ndarray:
    if layout == "uniform":
        return rng.uniform(0.0, 1.0, size=(n, dim))
    if layout == "gaussian":
        k = max(2, min(6, n // 8)) if n >= 4 else 1
        centers = rng.uniform(0.0, 10.0, size=(k, dim))
        labels = rng.integers(0, k, size=n)
        return centers[labels] + rng.normal(0.0, 0.4, size=(n, dim))
    if layout == "grid":
        side = math.ceil(n ** (1.0 / dim))
        cells = np.stack(
            np.meshgrid(*[np.arange(side, dtype=np.float64)] * dim, indexing="ij"), axis=-1
        ).reshape(-1, dim)
        # Shuffle cell-to-id assignment so paired grid factors decorrelate.
        take = rng.permutation(cells.shape[0])[:n]
        return cells[take]
    raise ConfigurationError(f"unknown generator {layout!r}; expected one of {GENERATORS}")


def _string_column(rng: np.random.Generator, n: int) -> list[str]:
    lengths = rng.integers(2, 8, size=n)
    return ["".join(rng.choice(_ALPHABET, size=l)) for l in lengths]


def synth_dataset(specs: Sequence[FactorSpec], n: int, layout: str = "uniform", seed: int = 0) -> Dataset:
    if n < 1:
        raise InputError("n >= 1 required")
    if layout not in GENERATORS:
        raise ConfigurationError(f"unknown generator {layout!r}; expected one of {GENERATORS}")
    rng = np.random.default_rng(seed)
    coords: dict[str, object] = {}
    for spec in specs:
        if spec.kind == "abs1d":
            coords[spec.name] = _numeric_column(rng, n, 1, layout)[:, 0]
        elif spec.kind in ("l2", "l1"):
            coords[spec.name] = _numeric_column(rng, n, spec.dim, layout)
        else:
            coords[spec.name] = _string_column(rng, n)
    return Dataset(specs, coords)


def calibrated_queries(
    dataset: Dataset,
    count: int,
    *,
    selectivity: float = 0.02,
    epsilon: float = 0.5,
    aspect: float = 1.0,
    seed: int = 0,
) -> list[WorkloadQuery]:
    """Queries centered on dataset points with radii set by quantile.

    Per factor, the radius is the ``selectivity**(1/m)`` quantile of that
    factor's distances from the center, so the intersection lands near
    the requested fraction of n when factors are independent.  Factors
    after the first are widened by ``aspect`` (>= 1), which then equals
    the radii aspect ratio.
    """
    if count < 1:
        raise InputError("query count must be >= 1")
    if not 0 < selectivity <= 1:
        raise InputError("selectivity must be in (0, 1]")
    if not 1 <= aspect < math.inf:
        raise InputError(f"aspect must be finite and >= 1, got {aspect}")
    if not 0 <= epsilon < math.inf:
        raise InputError(f"epsilon must be nonnegative and finite, got {epsilon}")
    rng = np.random.default_rng(seed)
    spaces = dataset.spaces()
    m = dataset.m
    ids = dataset.ids()
    per_factor = selectivity ** (1.0 / m)
    queries = []
    for pid in rng.integers(0, dataset.n, size=count):
        coords = dataset.payloads(int(pid))
        radii = []
        for j, space in enumerate(spaces):
            row = space.dist_point_many(coords[j], ids)
            r = float(np.quantile(row, per_factor))
            positive = row[row > 0]
            floor = float(positive.min()) if positive.size else 1.0
            r = max(r, floor)
            if j > 0:
                r *= aspect
            radii.append(r)
        queries.append(WorkloadQuery(coords=coords, radii=tuple(radii), epsilon=epsilon))
    return queries
