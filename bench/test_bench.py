"""Self-tests of the benchmark, on the tiny mode of the same command.

Run from the repository root:  python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import run

RUN = Path(__file__).resolve().parent / "run.py"
SPEC = run.load_spec()


def run_all(trace: int, seed: int = 3) -> dict[str, tuple[dict, dict]]:
    """``--workload all --tiny``; returns workload -> (info, result)."""
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", "all", "--tiny", "--seconds", "0.2",
         "--seed", str(seed), "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    out, info = {}, None
    for line in proc.stdout.splitlines():
        if line.startswith("info "):
            info = json.loads(line[5:])
        elif line.startswith("{"):
            out[info["workload"]] = (info, json.loads(line))
    return out


@pytest.fixture(scope="module")
def runs() -> dict[str, dict]:
    return {"untraced": run_all(0), "traced": run_all(1), "repeat": run_all(0)}


@pytest.mark.parametrize("mode,trace", [("untraced", False), ("traced", True)])
def test_every_metric_printed_with_unit(runs, mode, trace):
    wanted = {e["name"]: e["unit"] for e in SPEC["per_layer" if trace else "end_to_end"]}
    assert set(runs[mode]) == {w["name"] for w in SPEC["workloads"]}
    for name, (_, result) in runs[mode].items():
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted, name
        for metric, entry in result["metrics"].items():
            assert isinstance(entry["value"], (int, float)), (name, metric)
        assert result["correct"] is True and result["failed"] == 0, name
        assert result["attempted"] >= run.TINY_QUERIES


def test_every_answer_is_checked(runs):
    for name, (info, _) in runs["untraced"].items():
        assert info["answer_checks"] == run.TINY_QUERIES, name
        assert info["deterministic"] is True, name


def test_digests_agree_across_traced_and_repeated_runs(runs):
    for name, (info, _) in runs["untraced"].items():
        assert len(info["index_sha256"]) == 1 and len(info["index_sha256"][0]) == 64
        for other in ("traced", "repeat"):
            o = runs[other][name][0]
            assert o["index_sha256"] == info["index_sha256"], (name, other)
            assert o["results_sha256"] == info["results_sha256"], (name, other)


def test_trace_accounts_for_build_and_query_time(runs):
    for name, (info, result) in runs["traced"].items():
        m = {k: v["value"] for k, v in result["metrics"].items()}
        assert info["trace_evals_match"] is True, name
        assert 0.95 < m["trace.build_self_coverage"] <= 1.0 + 1e-9, name
        assert 0.9 < m["trace.query_self_coverage"] <= 1.0 + 1e-9, name
        assert m["oracle.evals_per_query"] == run.TINY_N * len(run.WORKLOADS[name].factors)


def test_corrupted_answer_is_counted(monkeypatch):
    original = run.search.product_range_query
    calls = []

    def corrupt_first(tree, query):
        points, stats = original(tree, query)
        calls.append(query)
        # A calibrated query is centred on a dataset point, so its exact
        # answer is never empty and an empty answer fails the check.
        return (set() if len(calls) == 1 else points), stats

    monkeypatch.setattr(run.search, "product_range_query", corrupt_first)
    result, _ = run.run_workload("ptree-l2x2", seed=5, seconds=0.1, trace=False, tiny=True)
    m = result["metrics"]
    assert result["correct"] is False
    assert 0 < result["failed"] < result["attempted"]
    assert m["query_fail_frac"] == result["failed"] / result["attempted"]


def test_build_failure_fails_every_query(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("injected build failure")

    monkeypatch.setattr(run.cli, "build_structure", broken)
    result, info = run.run_workload("grt-l2xabs", seed=5, seconds=0.1, trace=False, tiny=True)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == run.TINY_QUERIES
    assert "error" in info
