"""Command-line harness: build, query, verify, bench, stats.

Exit codes: 0 on success, 1 when verification finds a violation, 2 on
bad input (malformed files, unknown kinds, invalid parameters), 141 when
the reader of standard output closed the pipe.

Reports that contain wall-clock fields are for humans; the machine-read
outputs (index files, result rows, CSV columns other than wall time) are
byte-deterministic for fixed inputs and seeds.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
import time
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from .cascade import aux_leaf_totals, build_grt, grt_from_obj, grt_query, grt_to_obj, levels_of
from .dataset import (
    Dataset,
    FactorSpec,
    WorkloadQuery,
    load_dataset,
    load_factor_specs,
    load_results,
    load_workload,
    write_dataset,
    write_results,
    write_workload,
)
from .datagen import GENERATORS, calibrated_queries, synth_dataset
from .errors import ConfigurationError, InputError
from .metrics import MetricSpace, ProductMetric, dataset_summary
from .oracle import exact_product_range, sandwich_check
from .search import ProductQuery, SearchStats
from .tree import FOREST_DTYPES, GreedyTree
from .tree import build_greedy_tree, greedy_permutation  # noqa: F401  (unused; bench/tracer.py wraps them here)
from .tree import tree_from_obj, tree_to_obj  # noqa: F401  (unused; bench/tracer.py wraps them here)

INDEX_FORMAT = "greedyrange-index"
INDEX_VERSION = 2
STRUCTURES = ("product-tree", "grt")


def _print_report(obj: Any) -> None:
    print(json.dumps(obj, indent=2))


# ---------------------------------------------------------------------------
# Index files.
# ---------------------------------------------------------------------------


def _level_spaces(dataset: Dataset, structure: str) -> list[MetricSpace | ProductMetric]:
    """The metric of each cascade level: a product tree is one level over all factors."""
    if structure == "product-tree":
        return [dataset.product()]
    if structure == "grt":
        return dataset.spaces()
    raise InputError(f"unknown structure {structure!r}; expected one of {STRUCTURES}")


def build_structure(dataset: Dataset, structure: str, *, seed: int | str = "first"):
    return build_grt(dataset.ids().tolist(), _level_spaces(dataset, structure), seed=seed)


def _header_line(header: dict[str, Any]) -> bytes:
    return (json.dumps(header, sort_keys=True, separators=(",", ":")) + "\n").encode("ascii")


def _digest(header: dict[str, Any], payload: bytes) -> str:
    """SHA-256 of the header line without its ``sha256`` field, then the payload."""
    h = hashlib.sha256(_header_line({k: v for k, v in header.items() if k != "sha256"}))
    h.update(payload)
    return h.hexdigest()


def save_index(path: str | Path, dataset: Dataset, structure: str, struct: Any) -> None:
    """Write index format 2: one sorted-key JSON header line, then the payload.

    The payload holds the columns of the header's table, raw and
    little-endian, each at its byte offset: the numeric coordinates, then
    one forest per cascade level (a product tree is one level).  String
    coordinates stay in the header.
    """
    columns: dict[str, np.ndarray] = {}
    strings: dict[str, list[str]] = {}
    for spec in dataset.specs:
        col = dataset.coords[spec.name]
        if isinstance(col, list):
            strings[spec.name] = col
        else:
            columns[f"coords/{spec.name}"] = col.astype("<f8")
    for k, level in enumerate(grt_to_obj(struct)):
        columns.update((f"level{k}/{name}", col) for name, col in level.items())
    table, offset = [], 0
    for name, col in columns.items():
        table.append({"name": name, "dtype": col.dtype.str, "shape": list(col.shape), "offset": offset})
        offset += col.nbytes
    payload = b"".join(col.tobytes() for col in columns.values())
    header = {
        "format": INDEX_FORMAT,
        "version": INDEX_VERSION,
        "structure": structure,
        "factors": [spec.to_obj() for spec in dataset.specs],
        "n": dataset.n,
        "columns": table,
        "strings": strings,
    }
    header["sha256"] = _digest(header, payload)
    with open(path, "wb") as fh:
        fh.write(_header_line(header))
        fh.write(payload)


def load_index(path: str | Path) -> tuple[str, Dataset, Any]:
    """Check, decode and validate an index: (structure, dataset, tree or cascade)."""
    line, _, payload = Path(path).read_bytes().partition(b"\n")
    try:
        header = json.loads(line)
    except ValueError as exc:  # invalid JSON or invalid UTF-8
        raise InputError(f"{path}: index header is not JSON: {exc}") from exc
    if not isinstance(header, dict) or header.get("format") != INDEX_FORMAT:
        raise InputError(f"{path}: not a {INDEX_FORMAT} file")
    if header.get("version") != INDEX_VERSION:
        raise InputError(
            f"{path}: index version {header.get('version')!r} is not version {INDEX_VERSION}; "
            "rebuild the index with `greedyrange build`"
        )
    if header.get("sha256") != _digest(header, payload):
        raise InputError(f"{path}: checksum mismatch: the index is corrupt or truncated")
    structure = header.get("structure")
    if structure not in STRUCTURES:
        raise InputError(f"{path}: unknown structure {structure!r}")
    factors, table, strings = header.get("factors"), header.get("columns"), header.get("strings")
    if not isinstance(factors, list) or not all(isinstance(e, dict) and {"name", "kind"} <= e.keys() for e in factors):
        raise InputError(f"{path}: 'factors' must list objects with 'name' and 'kind'")
    if not isinstance(table, list) or not all(isinstance(e, dict) for e in table) or not isinstance(strings, dict):
        raise InputError(f"{path}: 'columns' must list column entries and 'strings' map factors to strings")
    entries = {e.get("name"): e for e in table}
    columns: dict[str, np.ndarray] = {}

    def column(name: str, dtype: str) -> np.ndarray:
        e = entries.get(name, {})
        if e.get("dtype") != dtype:
            raise InputError(f"{path}: column {name!r} is missing or not {dtype}")
        try:
            columns[name] = np.frombuffer(payload, dtype, math.prod(e["shape"]), e["offset"]).reshape(e["shape"])
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"{path}: column {name!r} does not fit the payload: {exc}") from exc
        return columns[name]

    try:
        specs = [FactorSpec(name=e["name"], kind=e["kind"], dim=e.get("dim")) for e in factors]
    except (TypeError, ValueError) as exc:
        raise InputError(f"{path}: malformed factors: {exc}") from exc
    n = header.get("n")
    coords: dict[str, Any] = {}
    for spec in specs:
        if spec.kind == "levenshtein":
            coords[spec.name] = strings.get(spec.name)
            continue
        col = coords[spec.name] = column(f"coords/{spec.name}", "<f8")
        if col.shape != ((n,) if spec.kind == "abs1d" else (n, spec.dim)):
            raise InputError(f"{path}: coordinate column {spec.name!r} has shape {col.shape}, not n={n!r} rows")
    try:
        dataset = Dataset(specs, coords)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{path}: malformed coordinate columns: {exc}") from exc
    if dataset.n != n:
        raise InputError(f"{path}: coordinate columns disagree with n={n!r}")
    spaces = _level_spaces(dataset, structure)
    levels = [
        {name: column(f"level{k}/{name}", dtype) for name, dtype in FOREST_DTYPES.items()}
        for k in range(len(spaces))
    ]
    if set(entries) != set(columns):
        raise InputError(f"{path}: unexpected columns {sorted(map(str, set(entries) - set(columns)))}")
    try:
        struct = grt_from_obj(levels, spaces, dataset.n)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from exc
    return structure, dataset, struct


# ---------------------------------------------------------------------------
# Commands.
# ---------------------------------------------------------------------------


def cmd_build(args: argparse.Namespace) -> int:
    specs = load_factor_specs(args.factors)
    dataset = load_dataset(args.dataset, specs)
    seed: int | str = "first" if args.seed_point is None else args.seed_point
    t0 = time.perf_counter()
    struct = build_structure(dataset, args.structure, seed=seed)
    build_seconds = time.perf_counter() - t0
    evals_after_build = {s.name: sp.evals for s, sp in zip(dataset.specs, dataset.spaces())}
    save_index(args.out, dataset, args.structure, struct)
    _print_report(
        {
            "structure": args.structure,
            "n": dataset.n,
            "m": dataset.m,
            "build_dist_evals": evals_after_build,
            "build_seconds": round(build_seconds, 6),
            "out": str(args.out),
        }
    )
    return 0


def _resolve_queries(workload: Sequence[WorkloadQuery], default_eps: float | None) -> list[ProductQuery]:
    out = []
    for i, wq in enumerate(workload):
        eps = wq.epsilon if wq.epsilon is not None else default_eps
        if eps is None:
            raise InputError(f"query #{i} has no epsilon and no --epsilon-default was given")
        out.append(ProductQuery(coords=wq.coords, radii=wq.radii, epsilon=float(eps)))
    return out


def _run_one(struct: Any, structure: str, query: ProductQuery) -> tuple[set[int], SearchStats]:
    return grt_query(struct, query)


def cmd_query(args: argparse.Namespace) -> int:
    structure, dataset, struct = load_index(args.index)
    workload = load_workload(args.workload, dataset.specs)
    queries = _resolve_queries(workload, args.epsilon_default)
    t0 = time.perf_counter()
    outcomes = [_run_one(struct, structure, q) for q in queries]
    wall = time.perf_counter() - t0

    rows = []
    for i, (points, stats) in enumerate(outcomes):
        rows.append(
            {
                "query_index": i,
                "points": sorted(points),
                "stats": {
                    "width": stats.width,
                    "height": stats.height,
                    "splits": stats.splits,
                    "dist_evals": list(stats.dist_evals),
                    "k": stats.output_size,
                },
            }
        )
    write_results(args.out, rows)
    widths = [stats.width for _, stats in outcomes]
    per_factor = [0] * dataset.m
    for _, stats in outcomes:
        for j, e in enumerate(stats.dist_evals):
            per_factor[j] += e
    _print_report(
        {
            "structure": structure,
            "n": dataset.n,
            "m": dataset.m,
            "queries": len(queries),
            "results": str(args.out),
            "max_width": max(widths, default=0),
            "mean_width": (sum(widths) / len(widths)) if widths else 0.0,
            "total_splits": sum(stats.splits for _, stats in outcomes),
            "total_dist_evals": per_factor,
            "total_output": sum(stats.output_size for _, stats in outcomes),
            "wall_seconds": round(wall, 6),
        }
    )
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    specs = load_factor_specs(args.factors)
    dataset = load_dataset(args.dataset, specs)
    workload = load_workload(args.workload, specs)
    queries = _resolve_queries(workload, args.epsilon_default)
    by_index: dict[int, dict] = {}
    for row in load_results(args.results):
        i = row["query_index"]
        if i in by_index:
            raise InputError(f"{args.results}: query_index {i} appears more than once")
        if i >= len(queries):
            raise InputError(f"{args.results}: query_index {i} is not a query of the {len(queries)}-query workload")
        by_index[i] = row
    spaces = dataset.spaces()
    ids = dataset.ids()
    failures = 0
    for i, q in enumerate(queries):
        row = by_index.get(i)
        if row is None:
            print(f"query {i}: missing from results", file=sys.stderr)
            failures += 1
            continue
        exact = exact_product_range(spaces, q.coords, q.radii, ids)
        expanded = exact_product_range(
            spaces, q.coords, [(1.0 + q.epsilon) * r for r in q.radii], ids
        )
        verdict = sandwich_check(row["points"], exact, expanded)
        if not verdict.passed:
            failures += 1
            print(
                f"query {i}: FAIL missing={list(verdict.missing)} extra={list(verdict.extra)}",
                file=sys.stderr,
            )
    print(f"verified {len(queries)} queries: {len(queries) - failures} ok, {failures} failed")
    return 1 if failures else 0


def _parse_factor_string(text: str) -> list[FactorSpec]:
    specs = []
    for i, part in enumerate(text.split(",")):
        part = part.strip()
        if not part:
            raise InputError(f"empty factor entry in {text!r}")
        if ":" in part:
            kind, dim = part.split(":", 1)
            try:
                specs.append(FactorSpec(name=f"f{i}", kind=kind, dim=int(dim)))
            except ValueError as exc:
                raise InputError(f"bad factor entry {part!r}") from exc
        else:
            specs.append(FactorSpec(name=f"f{i}", kind=part))
    return specs


def _bench_values(args: argparse.Namespace) -> list[float]:
    try:
        values = [float(v) for v in args.values.split(",") if v.strip()]
    except ValueError as exc:
        raise InputError(f"bad sweep values {args.values!r}") from exc
    if not values:
        raise InputError("sweep needs at least one value")
    if not all(math.isfinite(v) for v in values):
        raise InputError(f"sweep values must be finite, got {args.values!r}")
    if args.sweep == "n" and not all(v.is_integer() for v in values):
        raise InputError(f"--sweep n needs integer values, got {args.values!r}")
    return values


def _bench_structures(name: str) -> list[str]:
    if name == "both":
        return list(STRUCTURES)
    if name in STRUCTURES:
        return [name]
    raise InputError(f"unknown structure {name!r}")


def cmd_bench(args: argparse.Namespace) -> int:
    specs = _parse_factor_string(args.factors)
    values = _bench_values(args)
    structures = _bench_structures(args.structure)
    rows = []
    for value in values:
        n = int(value) if args.sweep == "n" else args.n
        epsilon = value if args.sweep == "epsilon" else args.epsilon
        aspect = value if args.sweep == "aspect-ratio" else args.aspect
        dataset = synth_dataset(specs, n, layout=args.generator, seed=args.seed)
        workload = calibrated_queries(
            dataset,
            args.queries,
            selectivity=args.selectivity,
            epsilon=epsilon,
            aspect=aspect,
            seed=args.seed + 1,
        )
        queries = _resolve_queries(workload, None)
        for structure in structures:
            struct = build_structure(dataset, structure)
            t0 = time.perf_counter()
            outcomes = [_run_one(struct, structure, q) for q in queries]
            wall = time.perf_counter() - t0
            rows.append(
                {
                    "structure": structure,
                    "sweep": args.sweep,
                    "value": value,
                    "width": max(stats.width for _, stats in outcomes),
                    "splits": sum(stats.splits for _, stats in outcomes),
                    "dist_evals": sum(stats.total_evals for _, stats in outcomes),
                    "wall_time_s": round(wall, 6),
                }
            )
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(
            fh, fieldnames=["structure", "sweep", "value", "width", "splits", "dist_evals", "wall_time_s"]
        )
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def _depth_histogram(tree: GreedyTree) -> list[int]:
    counts: list[int] = []
    depth = [0] * len(tree.center)
    for i in tree.nodes():
        d = depth[i]
        if d == len(counts):
            counts.append(0)
        counts[d] += 1
        r = tree.right[i]
        if r >= 0:
            depth[i + 1] = depth[r] = d + 1
    return counts


def cmd_stats(args: argparse.Namespace) -> int:
    """Size report for an index, plus its dataset's exact spreads from the
    O(n^2) all-pairs scan of ``dataset_summary`` (null where a distance is
    zero, and at n = 1, which has no pairs)."""
    structure, dataset, struct = load_index(args.index)
    spread: dict[str, Any] = {spec.name: None for spec in dataset.specs}
    product_spread = None
    duplicates = False
    if dataset.n >= 2:
        summary = dataset_summary(dataset.product(), dataset.ids())
        for name, st in summary.per_factor.items():
            spread[name] = None if st.has_duplicates else st.spread
            duplicates = duplicates or st.has_duplicates
        product_spread = None if summary.product.has_duplicates else summary.product.spread
    levels = levels_of(struct)
    primary = levels[0]
    histogram = _depth_histogram(primary)
    rad, right = primary.radius, primary.right
    node_bytes = sum(np.dtype(dtype).itemsize for dtype in FOREST_DTYPES.values())
    report: dict[str, Any] = {
        "structure": structure,
        "n": dataset.n,
        "m": dataset.m,
        "primary_nodes": sum(histogram),
        "primary_depth": len(histogram) - 1 if histogram else 0,
        "nodes_per_depth": histogram,
        "radius_inversions": sum(1 for i, r in enumerate(right) if r >= 0 and rad[r] > rad[i]),
        "index_bytes": Path(args.index).stat().st_size,
        "level_nodes": [len(level.center) for level in levels],
        "level_bytes": [len(level.center) * node_bytes for level in levels],
        "spread": spread,
        "product_spread": product_spread,
        "has_duplicates": duplicates,
    }
    if structure == "grt":
        totals = aux_leaf_totals(struct)
        report["aux_leaf_totals"] = {str(level): totals[level] for level in sorted(totals)}
    _print_report(report)
    return 0


def cmd_gen(args: argparse.Namespace) -> int:
    specs = _parse_factor_string(args.factors)
    dataset = synth_dataset(specs, args.n, layout=args.generator, seed=args.seed)
    # Draw the workload first, so that a rejected parameter writes no file.
    workload = None
    if args.workload_out is not None:
        workload = calibrated_queries(
            dataset,
            args.queries,
            selectivity=args.selectivity,
            epsilon=args.epsilon,
            aspect=args.aspect,
            seed=args.seed + 1,
        )
    write_dataset(args.dataset_out, dataset)
    with open(args.factors_out, "w", encoding="utf-8") as fh:
        json.dump([spec.to_obj() for spec in dataset.specs], fh)
    if workload is not None:
        write_workload(args.workload_out, dataset.specs, workload)
    print(f"wrote n={dataset.n} dataset to {args.dataset_out}")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing.
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="greedyrange",
        description="Approximate range search over products of metric spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="build an index from a dataset")
    p.add_argument("--dataset", required=True, help="dataset JSONL path")
    p.add_argument("--factors", required=True, help="factor config JSON path")
    p.add_argument("--structure", choices=STRUCTURES, default="grt")
    p.add_argument("--out", required=True, help="index output path")
    p.add_argument("--seed-point", type=int, default=None, help="greedy seed point id (default: first)")
    p.set_defaults(fn=cmd_build)

    p = sub.add_parser("query", help="run a workload against an index")
    p.add_argument("--index", required=True)
    p.add_argument("--workload", required=True, help="workload JSONL path")
    p.add_argument("--out", required=True, help="results JSONL path")
    p.add_argument("--epsilon-default", type=float, default=None)
    p.set_defaults(fn=cmd_query)

    p = sub.add_parser("verify", help="check results against the brute-force oracle")
    p.add_argument("--dataset", required=True)
    p.add_argument("--factors", required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--results", required=True)
    p.add_argument("--epsilon-default", type=float, default=None)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("bench", help="sweep a parameter on synthetic data")
    p.add_argument("--factors", required=True, help='factor kinds, e.g. "l2:2,l2:2" or "abs1d,abs1d"')
    p.add_argument("--generator", choices=GENERATORS, default="uniform")
    p.add_argument("--sweep", choices=("n", "epsilon", "aspect-ratio"), required=True)
    p.add_argument("--values", required=True, help="comma-separated sweep values")
    p.add_argument("--n", type=int, default=256)
    p.add_argument("--epsilon", type=float, default=0.5)
    p.add_argument("--aspect", type=float, default=1.0)
    p.add_argument("--selectivity", type=float, default=0.02)
    p.add_argument("--queries", type=int, default=8)
    p.add_argument("--structure", default="both", help="product-tree, grt, or both")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="CSV output path")
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("stats", help="size report and exact spreads (O(n^2)) for an index")
    p.add_argument("--index", required=True)
    p.set_defaults(fn=cmd_stats)

    p = sub.add_parser("gen", help="generate a synthetic dataset (and optional workload)")
    p.add_argument("--factors", required=True, help='factor kinds, e.g. "l2:2,abs1d"')
    p.add_argument("--generator", choices=GENERATORS, default="uniform")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dataset-out", required=True)
    p.add_argument("--factors-out", required=True)
    p.add_argument("--workload-out", default=None)
    p.add_argument("--queries", type=int, default=8)
    p.add_argument("--selectivity", type=float, default=0.02)
    p.add_argument("--epsilon", type=float, default=0.5)
    p.add_argument("--aspect", type=float, default=1.0)
    p.set_defaults(fn=cmd_gen)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader went away (``greedyrange stats ... | head``).  Point
        # stdout at devnull so that the flush at exit cannot raise again,
        # and exit as a process killed by SIGPIPE does.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except (InputError, ConfigurationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
