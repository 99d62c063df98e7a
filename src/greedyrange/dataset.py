"""Datasets, factor configuration, and the JSON/JSONL file formats.

A dataset is a fixed table of points with ids 0..n-1 and one coordinate
column per factor.  Files use one JSON object per line:

    dataset:  {"id": 3, "coords": {"x": 1.5, "tag": "abba"}}
    workload: {"q": {"x": 0.0, "tag": "ab"}, "radii": [2.0, 1.0], "epsilon": 0.5}
    results:  {"query_index": 0, "points": [...], "stats": {...}}

Factor configuration is a JSON array ordered like the query radii:

    [{"name": "x", "kind": "abs1d"}, {"name": "pos", "kind": "l2", "dim": 2}]
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Sequence

import numpy as np

from .errors import ConfigurationError, InputError
from .metrics import (
    AbsDiffMetric,
    LevenshteinMetric,
    MetricSpace,
    MinkowskiMetric,
    ProductMetric,
)

__all__ = [
    "FactorSpec",
    "Dataset",
    "WorkloadQuery",
    "load_factor_specs",
    "load_dataset",
    "write_dataset",
    "load_workload",
    "write_workload",
    "write_results",
    "load_results",
]

KINDS = ("abs1d", "l2", "l1", "levenshtein")


@dataclass(frozen=True)
class FactorSpec:
    name: str
    kind: str
    dim: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ConfigurationError(f"unknown factor kind {self.kind!r}; expected one of {KINDS}")
        if self.kind in ("l2", "l1"):
            if not isinstance(self.dim, int) or self.dim < 1:
                raise ConfigurationError(f"factor {self.name!r} of kind {self.kind!r} needs dim >= 1")
        elif self.dim is not None:
            raise ConfigurationError(f"factor {self.name!r} of kind {self.kind!r} takes no dim")

    def to_obj(self) -> dict[str, Any]:
        obj: dict[str, Any] = {"name": self.name, "kind": self.kind}
        if self.dim is not None:
            obj["dim"] = self.dim
        return obj


def _check_specs(specs: Sequence[FactorSpec]) -> list[FactorSpec]:
    specs = list(specs)
    if not specs:
        raise ConfigurationError("at least one factor is required")
    names = [s.name for s in specs]
    if len(set(names)) != len(names):
        raise ConfigurationError(f"duplicate factor names in {names}")
    return specs


def _coerce_value(spec: FactorSpec, value: Any, where: str) -> Any:
    if spec.kind == "abs1d":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise InputError(f"{where}: factor {spec.name!r} expects a number, got {value!r}")
        vec = [value]
    elif spec.kind in ("l2", "l1"):
        if not isinstance(value, (list, tuple)) or len(value) != spec.dim:
            raise InputError(f"{where}: factor {spec.name!r} expects a vector of length {spec.dim}")
        vec = value
    else:
        if not isinstance(value, str):
            raise InputError(f"{where}: factor {spec.name!r} expects a string, got {value!r}")
        return value
    try:
        vec = [float(v) for v in vec]
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"{where}: factor {spec.name!r} has a non-numeric entry in {value!r}") from exc
    if not all(math.isfinite(v) for v in vec):
        raise InputError(f"{where}: factor {spec.name!r} has a non-finite coordinate in {value!r}")
    return vec[0] if spec.kind == "abs1d" else vec


class Dataset:
    """Point table shared by all factor metrics.

    Metric spaces are created once and cached, so everything built from
    the same dataset shares counters and can be merged safely.
    """

    def __init__(self, specs: Sequence[FactorSpec], coords: dict[str, Any]) -> None:
        self.specs = _check_specs(specs)
        sizes = set()
        self.coords: dict[str, Any] = {}
        for spec in self.specs:
            if spec.name not in coords:
                raise InputError(f"missing coordinates for factor {spec.name!r}")
            col = coords[spec.name]
            if spec.kind == "abs1d":
                col = np.asarray(col, dtype=np.float64)
            elif spec.kind in ("l2", "l1"):
                col = np.asarray(col, dtype=np.float64).reshape(len(col), spec.dim)
            else:
                col = list(col)
            if isinstance(col, np.ndarray) and not np.isfinite(col).all():
                raise InputError(f"factor {spec.name!r} has non-finite coordinates")
            sizes.add(len(col))
            self.coords[spec.name] = col
        if len(sizes) != 1:
            raise InputError(f"factor columns disagree on point count: {sorted(sizes)}")
        self.n = sizes.pop()
        if self.n < 1:
            raise InputError("n >= 1 required: dataset has no points")
        self._spaces: list[MetricSpace] | None = None
        self._product: ProductMetric | None = None

    @property
    def m(self) -> int:
        return len(self.specs)

    def ids(self) -> np.ndarray:
        return np.arange(self.n, dtype=np.intp)

    def spaces(self) -> list[MetricSpace]:
        if self._spaces is None:
            built: list[MetricSpace] = []
            for spec in self.specs:
                col = self.coords[spec.name]
                if spec.kind == "abs1d":
                    built.append(AbsDiffMetric(spec.name, col))
                elif spec.kind == "l2":
                    built.append(MinkowskiMetric(spec.name, col, p=2))
                elif spec.kind == "l1":
                    built.append(MinkowskiMetric(spec.name, col, p=1))
                else:
                    built.append(LevenshteinMetric(spec.name, col))
            self._spaces = built
        return self._spaces

    def product(self) -> ProductMetric:
        if self._product is None:
            self._product = ProductMetric(self.spaces())
        return self._product

    def payload(self, factor: str, pid: int) -> Any:
        col = self.coords[factor]
        value = col[pid]
        if isinstance(value, np.ndarray):
            return value.tolist()
        if isinstance(value, np.floating):
            return float(value)
        return value

    def payloads(self, pid: int) -> tuple[Any, ...]:
        """Per-factor coordinates of a stored point, usable as a query."""
        if not 0 <= pid < self.n:
            raise InputError(f"point id {pid} out of range [0, {self.n})")
        return tuple(self.payload(spec.name, pid) for spec in self.specs)

    @classmethod
    def from_records(cls, specs: Sequence[FactorSpec], records: Iterable[tuple[int, dict[str, Any], str]]) -> "Dataset":
        specs = _check_specs(specs)
        rows: dict[int, dict[str, Any]] = {}
        for pid, coords, where in records:
            if isinstance(pid, bool) or not isinstance(pid, int) or pid < 0:
                raise InputError(f"{where}: id must be a nonnegative integer, got {pid!r}")
            if pid in rows:
                raise InputError(f"{where}: duplicate id {pid}")
            row = {}
            for spec in specs:
                if spec.name not in coords:
                    raise InputError(f"{where}: missing coordinate for factor {spec.name!r}")
                row[spec.name] = _coerce_value(spec, coords[spec.name], where)
            rows[pid] = row
        n = len(rows)
        if n < 1:
            raise InputError("n >= 1 required: dataset has no points")
        if sorted(rows) != list(range(n)):
            raise InputError("ids must cover exactly 0..n-1")
        cols = {spec.name: [rows[i][spec.name] for i in range(n)] for spec in specs}
        return cls(specs, cols)


@dataclass(frozen=True)
class WorkloadQuery:
    coords: tuple[Any, ...]
    radii: tuple[float, ...]
    epsilon: float | None


# ---------------------------------------------------------------------------
# File IO.  Every parse error carries the offending line number.
# ---------------------------------------------------------------------------


def _read_json_lines(path: str | Path) -> Iterable[tuple[int, Any]]:
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                raise InputError(f"{path}:{lineno}: invalid UTF-8: {exc.reason}") from exc
            if not line:
                continue
            try:
                yield lineno, json.loads(line)
            except json.JSONDecodeError as exc:
                raise InputError(f"{path}:{lineno}: invalid JSON: {exc.msg}") from exc


def load_factor_specs(path: str | Path) -> list[FactorSpec]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON: {exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: invalid UTF-8: {exc.reason}") from exc
    if not isinstance(raw, list):
        raise ConfigurationError(f"{path}: factor config must be a JSON array")
    specs = []
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict) or "name" not in entry or "kind" not in entry:
            raise ConfigurationError(f"{path}: factor #{i} needs 'name' and 'kind'")
        specs.append(FactorSpec(name=entry["name"], kind=entry["kind"], dim=entry.get("dim")))
    return _check_specs(specs)


def load_dataset(path: str | Path, specs: Sequence[FactorSpec]) -> Dataset:
    def records():
        for lineno, obj in _read_json_lines(path):
            where = f"{path}:{lineno}"
            if not isinstance(obj, dict) or "id" not in obj or "coords" not in obj:
                raise InputError(f"{where}: each line needs 'id' and 'coords'")
            if not isinstance(obj["coords"], dict):
                raise InputError(f"{where}: 'coords' must map factor names to values")
            yield obj["id"], obj["coords"], where

    return Dataset.from_records(specs, records())


def write_dataset(path: str | Path, dataset: Dataset) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for pid in range(dataset.n):
            coords = {spec.name: dataset.payload(spec.name, pid) for spec in dataset.specs}
            fh.write(json.dumps({"id": pid, "coords": coords}, separators=(",", ":")) + "\n")


def load_workload(path: str | Path, specs: Sequence[FactorSpec]) -> list[WorkloadQuery]:
    queries = []
    for lineno, obj in _read_json_lines(path):
        where = f"{path}:{lineno}"
        if not isinstance(obj, dict) or "q" not in obj or "radii" not in obj:
            raise InputError(f"{where}: each query needs 'q' and 'radii'")
        q = obj["q"]
        if not isinstance(q, dict):
            raise InputError(f"{where}: 'q' must map factor names to coordinates")
        coords = []
        for spec in specs:
            if spec.name not in q:
                raise InputError(f"{where}: query misses factor {spec.name!r}")
            coords.append(_coerce_value(spec, q[spec.name], where))
        radii = obj["radii"]
        if not isinstance(radii, list) or len(radii) != len(specs):
            raise InputError(f"{where}: 'radii' must list one radius per factor ({len(specs)})")
        try:
            radii = tuple(float(r) for r in radii)
        except (TypeError, ValueError, OverflowError) as exc:
            raise InputError(f"{where}: radii must be numbers") from exc
        eps = obj.get("epsilon")
        if eps is not None:
            if isinstance(eps, bool) or not isinstance(eps, (int, float)):
                raise InputError(f"{where}: epsilon must be a number")
            eps = float(eps)
        queries.append(WorkloadQuery(coords=tuple(coords), radii=radii, epsilon=eps))
    return queries


def write_workload(path: str | Path, specs: Sequence[FactorSpec], queries: Iterable[WorkloadQuery]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for wq in queries:
            obj: dict[str, Any] = {
                "q": {spec.name: c for spec, c in zip(specs, wq.coords)},
                "radii": list(wq.radii),
            }
            if wq.epsilon is not None:
                obj["epsilon"] = wq.epsilon
            fh.write(json.dumps(obj, separators=(",", ":")) + "\n")


def write_results(path: str | Path, rows: Iterable[dict[str, Any]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, separators=(",", ":")) + "\n")


def _is_int(x: Any) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def load_results(path: str | Path) -> list[dict[str, Any]]:
    rows = []
    for lineno, obj in _read_json_lines(path):
        if not isinstance(obj, dict) or "query_index" not in obj or "points" not in obj:
            raise InputError(f"{path}:{lineno}: each result needs 'query_index' and 'points'")
        if not _is_int(obj["query_index"]) or obj["query_index"] < 0:
            raise InputError(f"{path}:{lineno}: 'query_index' must be a nonnegative integer")
        if not isinstance(obj["points"], list) or not all(map(_is_int, obj["points"])):
            raise InputError(f"{path}:{lineno}: 'points' must list integer point ids")
        rows.append(obj)
    return rows
