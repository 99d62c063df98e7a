#!/usr/bin/env python3
"""The greedyrange benchmark: CLI build, index load and per-query latency.

Run from the repository root:

    python3 bench/run.py --workload ptree-l2x2 --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --tiny

One invocation runs one workload in this process as a closed loop with one
client and no threads.  It generates the workload's fixed dataset and the
queries drawn by ``--seed``, builds the index through the in-process CLI ``build`` command,
loads it with ``cli.load_index``, and runs the queries for ``--seconds``.
Every answer is checked against the brute-force oracle after the timed
loop.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the ``end_to_end``
metrics of BENCHMARK.json with ``--trace 0``, its ``per_layer`` metrics
with ``--trace 1``.  The line before it, starting with ``info``, records
the run's provenance and determinism digests.

``--workload all`` runs every workload, each in a fresh process.  ``--tiny``
shrinks every workload so the benchmark's own tests run in seconds.

End-to-end metrics, measured untraced:

- ``setup_s``: median wall time of the run's in-process CLI builds (parse,
  build, the O(n^2) summary pass and the index write);
- ``index_load_s``: the fastest ``cli.load_index`` of the run;
- ``index_bytes``: size of the index file;
- ``query_ms_p50``, ``query_ms_p95``: each distinct query's fastest time
  over the run's passes, then the median and the 95th percentile over the
  queries;
- ``query_qps``: distinct queries divided by the sum of those times;
- ``peak_rss_mb``: ``ru_maxrss`` of this process.

Per-layer metrics come from one traced build, three traced loads and two
traced passes.  Their self times are span durations minus the spans nested
in them; ``trace.*`` reports how much of the traced time the spans cover
and what tracing costs.  The spans are written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
if not (SRC / "greedyrange" / "__init__.py").is_file():
    sys.exit(f"error: no greedyrange source under {SRC}")
sys.path.insert(0, str(SRC))
try:
    import numpy as np

    from greedyrange import cascade, cli, search
    from greedyrange.cascade import aux_leaf_totals
    from greedyrange.dataset import FactorSpec, write_dataset
    from greedyrange.datagen import calibrated_queries, synth_dataset
    from greedyrange.oracle import exact_product_range, sandwich_check
    from greedyrange.search import ProductQuery
except ImportError as exc:
    sys.exit(f"error: cannot import greedyrange from {SRC}: {exc}")

from tracer import KERNEL_NAMES, Spans, Tracer

SELECTIVITY = 0.02
# The dataset is part of a workload's definition, so that every run builds
# and queries the same index; --seed draws the queries.  With a dataset per
# seed, grt-l2xabs's median query cost moves by a fifth from seed to seed
# with the layout of its gaussian clusters alone.
DATASET_SEED = 0
# A run is ROUNDS rounds, each one CLI build followed by query passes for a
# share of --seconds, with index loads between the passes.  The machine's
# speed drifts by a third or more over seconds to minutes (other tenants
# share it), so each query and the load are timed as their fastest repeat,
# with the repeats spread over the whole run.
ROUNDS = 3
# Each of the process's CPUs alternates between fast and about 1.5x slower
# from one second to the next, independently of the others, so builds, load
# batches and every PIN_S of queries run pinned to the CPU that is fastest
# just before them.
CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
PIN_S = 0.1
LOAD_S = 0.3  # index loads between passes: at least one, until this long
ORACLE_REPS = 2
TRACED_PASSES = 2
TINY_N, TINY_QUERIES = 64, 12


@dataclass(frozen=True)
class Workload:
    structure: str
    factors: tuple[tuple[str, int | None], ...]  # (kind, dim) per factor
    layout: str
    n: int
    epsilons: tuple[float, ...]  # given to the queries in turn
    aspect: float
    queries: int  # distinct queries; the timed loop cycles through them
    exercises: str
    bypasses: str


# Why each workload was chosen is its "why" in BENCHMARK.json.
WORKLOADS = {
    "ptree-l2x2": Workload(
        structure="product-tree",
        factors=(("l2", 2), ("l2", 2)),
        layout="uniform",
        n=4096,
        epsilons=(0.5,),
        aspect=1.0,
        queries=200,
        exercises="search loop, scalar metrics.dist_point calls, search.subtree_points",
        bypasses="tree.merge and the cascade: one vectorized greedy_permutation builds it",
    ),
    "grt-l2xabs": Workload(
        structure="grt",
        factors=(("l2", 2), ("abs1d", None)),
        layout="gaussian",
        n=2048,
        # Two eps=0.5 queries to each eps=0 one: the eps=0 queries drain to
        # the leaves and cost about twice as much, and with an even mix the
        # median would fall in the gap between the two groups of costs.
        epsilons=(0.5, 0.5, 0.0),
        aspect=4.0,
        queries=500,
        exercises="tree.merge, cascade decoration, index save and load, per-level covers",
        bypasses="the product-tree search; queries are cheap next to set-up",
    ),
    "ptree-lev": Workload(
        structure="product-tree",
        factors=(("levenshtein", None), ("abs1d", None)),
        layout="uniform",
        n=512,
        epsilons=(0.5,),
        aspect=1.0,
        queries=200,
        exercises="the pure-Python edit-distance kernel and the O(n^2) summary pass",
        bypasses="tree.merge and the cascade; per-call overhead is a small share of a query",
    ),
}


def load_spec() -> dict[str, Any]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def src_line_count() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(SRC.rglob("*.py")))


def make_queries(data, wl: Workload, count: int, seed: int) -> list[ProductQuery]:
    workload = calibrated_queries(
        data, count, selectivity=SELECTIVITY, epsilon=wl.epsilons[0], aspect=wl.aspect, seed=seed
    )
    return [
        ProductQuery(coords=wq.coords, radii=wq.radii, epsilon=wl.epsilons[i % len(wl.epsilons)])
        for i, wq in enumerate(workload)
    ]


def cli_build(dataset: Path, factors: Path, structure: str, out: Path) -> None:
    argv = ["build", "--dataset", str(dataset), "--factors", str(factors), "--structure", structure, "--out", str(out)]
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"greedyrange build exited with {rc}")


def _spin_seconds() -> float:
    t0 = time.perf_counter()
    total = 0
    for i in range(10000):
        total += i * i
    return time.perf_counter() - t0


def pin_fastest_cpu() -> None:
    """Move this process to whichever of its CPUs runs a short loop fastest."""
    if len(CPUS) < 2:
        return
    speeds = []
    for cpu in CPUS:
        os.sched_setaffinity(0, {cpu})
        speeds.append((min(_spin_seconds() for _ in range(3)), cpu))
    os.sched_setaffinity(0, {min(speeds)[1]})


def answer(structure: str, struct: Any, q: ProductQuery) -> Any:
    # Looked up on the module at call time, so a tracer can rebind them.
    if structure == "product-tree":
        return search.product_range_query(struct, q)
    return cascade.grt_query(struct, q)


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def result_digest(reference: list[Any]) -> str:
    rows = []
    for j, out in enumerate(reference):
        if isinstance(out, Exception):
            rows.append([j, "raised", type(out).__name__])
        else:
            points, st = out
            rows.append([j, sorted(points), st.width, st.height, st.splits, list(st.dist_evals)])
    return hashlib.sha256(json.dumps(rows, separators=(",", ":")).encode()).hexdigest()


class Answers:
    """Every query execution of a run, kept until the answer check.

    The first execution of each distinct query is its reference answer,
    checked against the oracle; every later execution must equal it.
    """

    def __init__(self, count: int) -> None:
        self.reference: list[Any] = [None] * count
        self.executions = [0] * count
        self.mismatches = [0] * count

    def record(self, j: int, out: Any) -> None:
        self.executions[j] += 1
        ref = self.reference[j]
        if ref is None:
            self.reference[j] = out
        elif isinstance(out, Exception) or isinstance(ref, Exception) or out != ref:
            self.mismatches[j] += 1

    def failed(self, bad: list[bool]) -> int:
        """Executions of queries whose reference failed, plus mismatches."""
        return sum(e if b else mm for e, mm, b in zip(self.executions, self.mismatches, bad))

    @property
    def attempted(self) -> int:
        return sum(self.executions)


def run_pass(structure: str, struct: Any, queries: list[ProductQuery], answers: Answers,
             best: list[float], tracer: Tracer | None = None) -> float:
    """Run every query once, keeping each one's fastest time in ``best``.
    Answers are recorded after the pass, outside the timed region.
    Returns the summed query times of the pass."""
    clock = time.perf_counter
    outs = []
    total = 0.0
    pin_fastest_cpu()
    pinned = clock()
    for j, q in enumerate(queries):
        if tracer is not None:
            tracer.query = j
        t0 = clock()
        try:
            out = answer(structure, struct, q)
        except Exception as exc:  # counted as a failed query
            out = exc
        t1 = clock()
        total += t1 - t0
        if t1 - t0 < best[j]:
            best[j] = t1 - t0
        outs.append(out)
        if t1 - pinned > PIN_S:
            pin_fastest_cpu()
            pinned = clock()
    if tracer is not None:
        tracer.query = -1
    for j, out in enumerate(outs):
        answers.record(j, out)
    return total


def check_answers(data, queries: list[ProductQuery], reference: list[Any]) -> dict[str, Any]:
    """Sandwich-check every reference answer against the oracle at r and
    (1+eps)r; also time the oracle on the same queries."""
    spaces, ids = data.spaces(), data.ids()
    bad, oracle_s = [], []
    exact_total = output_total = 0
    before = sum(f.evals for f in spaces)
    pin_fastest_cpu()
    for q, out in zip(queries, reference):
        fastest = math.inf
        for _ in range(ORACLE_REPS):
            t0 = time.perf_counter()
            exact = exact_product_range(spaces, q.coords, q.radii, ids)
            fastest = min(fastest, time.perf_counter() - t0)
        oracle_s.append(fastest)
        expanded = exact_product_range(spaces, q.coords, [(1.0 + q.epsilon) * r for r in q.radii], ids)
        if isinstance(out, Exception):
            bad.append(True)
            continue
        bad.append(not sandwich_check(out[0], exact, expanded).passed)
        exact_total += len(exact)
        output_total += len(out[0])
    return {
        "bad": bad,
        "oracle_ms_p50": statistics.median(oracle_s) * 1e3,
        "oracle_evals": (sum(f.evals for f in spaces) - before) / (len(queries) * (ORACLE_REPS + 1)),
        "exact_share": exact_total / output_total if output_total else 1.0,
    }


def timed_reps(fn, reps: int, seconds: float) -> tuple[list[float], Any]:
    """Call ``fn`` at least ``reps`` times and until ``seconds`` have passed."""
    times, out, begin = [], None, time.perf_counter()
    while len(times) < reps or time.perf_counter() - begin < seconds:
        out = None
        gc.collect()
        pin_fastest_cpu()
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return times, out


def build_metrics(b: Spans, wall: float, untraced: float) -> dict[str, float]:
    calls = int(b.kernel.sum())
    evals = int(b.pairs.sum())
    return {
        "dataset.load_dataset_s": b.inclusive("dataset.load_dataset"),
        "metrics.dataset_summary_s": b.inclusive("metrics.dataset_summary"),
        "cli.build_structure_s": b.inclusive("cli.build_structure"),
        "tree.greedy_permutation_s": b.inclusive("tree.greedy_permutation"),
        "tree.greedy_permutation_evals": b.pairs_within("tree.greedy_permutation"),
        "tree.build_greedy_tree_s": b.inclusive("tree.build_greedy_tree"),
        "tree.build_greedy_tree_calls": b.count("tree.build_greedy_tree"),
        "tree.merge_s": b.inclusive("tree.merge"),
        "tree.merge_calls": b.count("tree.merge"),
        "tree.merge_evals": b.pairs_within("tree.merge"),
        "cascade.decorate_self_s": b.self_sum("cascade.build_grt"),
        "metrics.build_evals": evals,
        "metrics.build_calls": calls,
        "metrics.build_pairs_per_call": evals / calls if calls else 0.0,
        "metrics.build_kernel_s": b.self_sum(KERNEL_NAMES),
        "cli.save_index_s": b.inclusive("cli.save_index"),
        "trace.build_overhead_s": wall - untraced,
        "trace.build_self_coverage": float(b.self_time.sum()) / wall,
    }


def query_metrics(s: Spans, passes: int, traced_best: list[float], untraced_best: list[float]) -> dict[str, float]:
    """Per-query figures from ``passes`` traced passes over the queries."""
    k = passes * len(traced_best)
    calls = int(s.kernel.sum())
    in_query = s.qid >= 0
    return {
        "metrics.calls_per_query": calls / k,
        "metrics.pairs_per_call": int(s.pairs.sum()) / calls if calls else 0.0,
        "metrics.kernel_ms_per_query": s.self_sum(KERNEL_NAMES, in_query) * 1e3 / k,
        "search.self_ms_per_query": s.self_sum(
            ["search.product_range_query", "search.range_cover", "search.range_report"], in_query
        ) * 1e3 / k,
        "search.points_ms_per_query": s.self_sum("tree.subtree_points", in_query) * 1e3 / k,
        "cascade.subsearches_per_query": (s.count("search.range_cover") + s.count("search.range_report")) / k,
        "cascade.self_ms_per_query": s.self_sum("cascade.grt_query", in_query) * 1e3 / k,
        "trace.query_overhead_ms": (sum(traced_best) - sum(untraced_best)) * 1e3 / len(traced_best),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool) -> tuple[dict, dict]:
    """Run one workload; returns (result, info)."""
    wl = WORKLOADS[name]
    n = TINY_N if tiny else wl.n
    count = TINY_QUERIES if tiny else wl.queries
    specs = [FactorSpec(name=f"f{i}", kind=kind, dim=dim) for i, (kind, dim) in enumerate(wl.factors)]
    data = synth_dataset(specs, n, layout=wl.layout, seed=DATASET_SEED)
    queries = make_queries(data, wl, count, seed)
    info: dict[str, Any] = {
        "workload": name,
        "params": {**asdict(wl), "n": n, "queries": count, "selectivity": SELECTIVITY},
        "seed": seed,
        "dataset_seed": DATASET_SEED,
        "trace": int(trace),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "src_loc": src_line_count(),
    }
    m: dict[str, Any] = {}
    answers = Answers(count)
    best = [math.inf] * count
    setup_times: list[float] = []
    load_times: list[float] = []
    index_digests: set[str] = set()
    pass_s: list[float] = []  # summed query times of each untraced pass
    work = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        dataset_path, factors_path, index = work / "dataset.jsonl", work / "factors.json", work / "index.json"
        write_dataset(dataset_path, data)
        factors_path.write_text(json.dumps([s.to_obj() for s in data.specs]), encoding="utf-8")
        try:
            for _ in range(ROUNDS):
                setup_times += timed_reps(lambda: cli_build(dataset_path, factors_path, wl.structure, index), 1, 0.0)[0]
                index_digests.add(sha256_file(index))
                times, (structure, _, struct) = timed_reps(lambda: cli.load_index(index), 1, 0.0)
                load_times += times
                spent = 0.0
                while True:
                    gc.collect()
                    pass_s.append(run_pass(structure, struct, queries, answers, best))
                    spent += pass_s[-1]
                    if spent >= seconds / ROUNDS:
                        break
                    load_times += timed_reps(lambda: cli.load_index(index), 1, 0.0 if tiny else LOAD_S)[0]
        except Exception:  # run_pass catches the queries' own exceptions
            traceback.print_exc()
            info["error"] = "build or load raised; every query is counted as failed"
            m["query_fail_frac"] = 1.0
            return {"correct": False, "attempted": count, "failed": count, "metrics": m}, info
        m["setup_s"] = statistics.median(setup_times)
        m["index_load_s"] = min(load_times)
        info["loads"] = len(load_times)
        m["index_bytes"] = index.stat().st_size
        m["cascade.aux_leaves"] = sum(aux_leaf_totals(struct).values())
        m["query_ms_p50"] = statistics.median(best) * 1e3
        # With 200 or more distinct queries, at least 10 lie beyond p95.
        m["query_ms_p95"] = float(np.percentile(best, 95)) * 1e3
        m["query_qps"] = count / sum(best)
        m["query_samples"] = len(pass_s) * count
        info["pass_ms_mean"] = [round(w * 1e3 / count, 3) for w in pass_s]

        if trace:
            # Tracing overhead is a traced build or pass minus an untraced one
            # run just before it, so that both see the machine at one speed.
            phases = {"build": Tracer(), "load": Tracer(), "query": Tracer()}
            untraced_build = timed_reps(lambda: cli_build(dataset_path, factors_path, wl.structure, index), 1, 0.0)[0][0]
            pin_fastest_cpu()
            with phases["build"].installed():
                t0 = time.perf_counter()
                cli_build(dataset_path, factors_path, wl.structure, index)
                build_wall = time.perf_counter() - t0
            index_digests.add(sha256_file(index))
            with phases["load"].installed():
                load_reps = len(timed_reps(lambda: cli.load_index(index), 3, 0.0)[0])
            gc.collect()
            untraced_best = [math.inf] * count
            traced_best = [math.inf] * count
            traced_s = 0.0
            for _ in range(TRACED_PASSES):
                run_pass(structure, struct, queries, answers, untraced_best)
                with phases["query"].installed() as tr:
                    traced_s += run_pass(structure, struct, queries, answers, traced_best, tr)
            spans = {phase: t.spans() for phase, t in phases.items()}
            out_dir = ROOT / ".bench_out"
            out_dir.mkdir(exist_ok=True)
            np.savez(out_dir / f"trace-{name}.npz", **{
                f"{phase}_{key}": value for phase, sp in spans.items() for key, value in sp.arrays().items()
            })
            m.update(build_metrics(spans["build"], build_wall, untraced_build))
            loads = spans["load"]
            m["cascade.grt_from_obj_s"] = loads.inclusive("cascade.grt_from_obj") / load_reps
            m["tree.tree_from_obj_s"] = loads.inclusive("tree.tree_from_obj") / load_reps
            q_spans = spans["query"]
            m.update(query_metrics(q_spans, TRACED_PASSES, traced_best, untraced_best))
            m["trace.query_self_coverage"] = float(q_spans.self_time.sum()) / traced_s
            info["trace_evals_match"] = int(q_spans.pairs.sum()) == TRACED_PASSES * sum(
                out[1].total_evals for out in answers.reference if not isinstance(out, Exception)
            )
            info["spans"] = sum(len(sp) for sp in spans.values())
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if len(CPUS) > 1:
            os.sched_setaffinity(0, CPUS)

    check = check_answers(data, queries, answers.reference)
    failed = answers.failed(check["bad"])
    ok = [out for out in answers.reference if not isinstance(out, Exception)]
    raised = [(j, out) for j, out in enumerate(answers.reference) if isinstance(out, Exception)]
    if raised:
        print(f"{len(raised)} queries raised; query {raised[0][0]}: {raised[0][1]!r}", file=sys.stderr)
    m.update({
        "metrics.evals_per_query": sum(o[1].total_evals for o in ok) / count,
        "search.splits_per_query": sum(o[1].splits for o in ok) / count,
        "search.width_max": max((o[1].width for o in ok), default=0),
        "search.exact_share": check["exact_share"],
        "oracle.query_ms_p50": check["oracle_ms_p50"],
        "oracle.evals_per_query": check["oracle_evals"],
        "oracle.index_over_oracle": m["query_ms_p50"] / check["oracle_ms_p50"],
        "query_fail_frac": failed / answers.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    info["index_sha256"] = sorted(index_digests)
    info["results_sha256"] = result_digest(answers.reference)
    info["answer_checks"] = len(check["bad"])
    deterministic = len(index_digests) == 1 and not any(answers.mismatches)
    info["deterministic"] = deterministic
    result = {"correct": failed == 0 and deterministic, "attempted": answers.attempted, "failed": failed, "metrics": m}
    return result, info


def select_metrics(result: dict, spec: dict, trace: bool) -> dict:
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    computed = result["metrics"]
    result["metrics"] = {
        e["name"]: {"value": computed.get(e["name"]), "unit": e["unit"]} for e in wanted
    }
    return result


def run_all(args: argparse.Namespace) -> int:
    """Each workload in a fresh process, one after another."""
    rc = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        print(f"== {name}", flush=True)
        rc = max(rc, subprocess.run(cmd, check=False).returncode)
    return rc


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small n and few queries, for self-tests")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    spec = load_spec()
    result, info = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    info["why"] = next(w["why"] for w in spec["workloads"] if w["name"] == args.workload)
    print("info " + json.dumps(info, sort_keys=True))
    print(json.dumps(select_metrics(result, spec, bool(args.trace))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
