"""End-to-end harness runs: exit codes, file formats, determinism."""

import csv
import json

import pytest

from greedyrange import cli
from greedyrange.cli import load_index, main
from greedyrange.metrics import dataset_summary
from greedyrange.tree import verify_greedy_tree


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def workspace(tmp_path, capsys):
    code, _, err = run(
        capsys,
        "gen",
        "--factors", "l2:2,abs1d",
        "--n", "80",
        "--seed", "5",
        "--dataset-out", str(tmp_path / "d.jsonl"),
        "--factors-out", str(tmp_path / "f.json"),
        "--workload-out", str(tmp_path / "w.jsonl"),
        "--queries", "6",
    )
    assert code == 0, err
    return tmp_path


@pytest.mark.parametrize("structure", ["product-tree", "grt"])
def test_build_query_verify_pipeline(workspace, capsys, structure):
    idx = workspace / f"{structure}.idx"
    res = workspace / f"{structure}.res"
    code, out, _ = run(
        capsys,
        "build",
        "--dataset", str(workspace / "d.jsonl"),
        "--factors", str(workspace / "f.json"),
        "--structure", structure,
        "--out", str(idx),
    )
    assert code == 0
    report = json.loads(out)
    assert report["n"] == 80 and report["m"] == 2
    assert report["structure"] == structure

    code, out, _ = run(
        capsys,
        "query",
        "--index", str(idx),
        "--workload", str(workspace / "w.jsonl"),
        "--out", str(res),
    )
    assert code == 0
    report = json.loads(out)
    assert report["queries"] == 6
    assert len(report["total_dist_evals"]) == 2

    code, out, err = run(
        capsys,
        "verify",
        "--dataset", str(workspace / "d.jsonl"),
        "--factors", str(workspace / "f.json"),
        "--workload", str(workspace / "w.jsonl"),
        "--results", str(res),
    )
    assert code == 0, err
    assert "6 ok, 0 failed" in out

    code, out, _ = run(capsys, "stats", "--index", str(idx))
    assert code == 0
    report = json.loads(out)
    assert report["primary_nodes"] == 2 * 80 - 1
    assert sum(report["nodes_per_depth"]) == report["primary_nodes"]
    _, dataset, struct = load_index(idx)
    primary = struct if structure == "product-tree" else struct.primary
    assert report["radius_inversions"] == verify_greedy_tree(primary).radius_inversions
    assert report["index_bytes"] == idx.stat().st_size
    if structure == "grt":
        assert report["aux_leaf_totals"]["0"] == 80
    summary = dataset_summary(dataset.product(), dataset.ids())
    assert not any(st.has_duplicates for st in summary.per_factor.values())
    assert report["has_duplicates"] is False
    assert report["spread"] == {name: st.spread for name, st in summary.per_factor.items()}
    assert report["product_spread"] == summary.product.spread


def _write_points(tmp_path, name, xs):
    """A one-factor abs1d dataset with the given coordinates."""
    data, factors = tmp_path / f"{name}.jsonl", tmp_path / f"{name}.json"
    data.write_text("".join(json.dumps({"id": i, "coords": {"x": x}}) + "\n" for i, x in enumerate(xs)),
                    encoding="utf-8")
    factors.write_text(json.dumps([{"name": "x", "kind": "abs1d"}]), encoding="utf-8")
    return data, factors


def test_build_runs_no_summary(workspace, capsys, tmp_path, monkeypatch):
    def forbidden(*_args, **_kwargs):
        raise AssertionError("build must not run the all-pairs summary")

    monkeypatch.setattr(cli, "dataset_summary", forbidden)
    one = _write_points(tmp_path, "one", [1.5])
    for (data, factors), n in [((workspace / "d.jsonl", workspace / "f.json"), 80), (one, 1)]:
        code, out, err = run(capsys, "build", "--dataset", str(data), "--factors", str(factors),
                             "--out", str(tmp_path / f"{n}.idx"))
        assert code == 0, err
        report = json.loads(out)
        assert set(report) == {"structure", "n", "m", "build_dist_evals", "build_seconds", "out"}
        assert report["n"] == n and report["build_seconds"] >= 0


@pytest.mark.parametrize(
    "xs, spread, has_duplicates",
    [([1.5], None, False), ([2.0, 2.0], None, True), ([0.0, 1.0, 4.0], 4.0, False)],
)
def test_stats_spreads_on_small_indexes(capsys, tmp_path, xs, spread, has_duplicates):
    data, factors = _write_points(tmp_path, "small", xs)
    idx = tmp_path / "small.idx"
    code, _, err = run(capsys, "build", "--dataset", str(data), "--factors", str(factors), "--out", str(idx))
    assert code == 0, err
    code, out, err = run(capsys, "stats", "--index", str(idx))
    assert code == 0, err
    report = json.loads(out)
    assert report["spread"] == {"x": spread}
    assert report["product_spread"] == spread
    assert report["has_duplicates"] is has_duplicates


def test_tampered_results_fail_verification(workspace, capsys):
    idx, res = workspace / "i.idx", workspace / "r.jsonl"
    run(capsys, "build", "--dataset", str(workspace / "d.jsonl"),
        "--factors", str(workspace / "f.json"), "--out", str(idx))
    run(capsys, "query", "--index", str(idx),
        "--workload", str(workspace / "w.jsonl"), "--out", str(res))

    rows = [json.loads(line) for line in res.read_text().splitlines()]
    rows[0]["points"] = sorted(set(rows[0]["points"]) ^ {79})  # flip one id
    res.write_text("".join(json.dumps(r) + "\n" for r in rows))

    code, _, err = run(
        capsys,
        "verify",
        "--dataset", str(workspace / "d.jsonl"),
        "--factors", str(workspace / "f.json"),
        "--workload", str(workspace / "w.jsonl"),
        "--results", str(res),
    )
    assert code == 1
    assert "query 0: FAIL" in err


def test_malformed_inputs_exit_2(workspace, capsys, tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("{oops\n")
    code, _, err = run(
        capsys, "build",
        "--dataset", str(bad),
        "--factors", str(workspace / "f.json"),
        "--out", str(tmp_path / "x.idx"),
    )
    assert code == 2 and "error:" in err

    code, _, err = run(
        capsys, "build",
        "--dataset", str(tmp_path / "missing.jsonl"),
        "--factors", str(workspace / "f.json"),
        "--out", str(tmp_path / "x.idx"),
    )
    assert code == 2

    # a seed point outside the id range
    code, _, err = run(
        capsys, "build",
        "--dataset", str(workspace / "d.jsonl"),
        "--factors", str(workspace / "f.json"),
        "--out", str(tmp_path / "x.idx"),
        "--seed-point", "999",
    )
    assert code == 2

    # workload query without epsilon anywhere
    idx = tmp_path / "ok.idx"
    run(capsys, "build", "--dataset", str(workspace / "d.jsonl"),
        "--factors", str(workspace / "f.json"), "--out", str(idx))
    w = tmp_path / "noeps.jsonl"
    line = json.loads((workspace / "w.jsonl").read_text().splitlines()[0])
    line.pop("epsilon", None)
    w.write_text(json.dumps(line) + "\n")
    code, _, err = run(capsys, "query", "--index", str(idx),
                       "--workload", str(w), "--out", str(tmp_path / "r.jsonl"))
    assert code == 2 and "epsilon" in err
    # ...but an explicit default fills it in
    code, _, _ = run(capsys, "query", "--index", str(idx), "--workload", str(w),
                     "--out", str(tmp_path / "r.jsonl"), "--epsilon-default", "0.5")
    assert code == 0


def test_single_factor_structures_serialize_identically(tmp_path, capsys):
    code, _, _ = run(
        capsys, "gen",
        "--factors", "abs1d",
        "--n", "40",
        "--seed", "2",
        "--dataset-out", str(tmp_path / "d.jsonl"),
        "--factors-out", str(tmp_path / "f.json"),
    )
    assert code == 0
    trees = {}
    for structure in ("product-tree", "grt"):
        idx = tmp_path / f"{structure}.idx"
        code, _, _ = run(
            capsys, "build",
            "--dataset", str(tmp_path / "d.jsonl"),
            "--factors", str(tmp_path / "f.json"),
            "--structure", structure,
            "--out", str(idx),
        )
        assert code == 0
        trees[structure] = json.loads(idx.read_text())["tree"]
    # with one factor the cascade *is* the plain tree, byte for byte
    assert trees["product-tree"] == trees["grt"]


def test_index_roundtrip_and_corruption(workspace, capsys, tmp_path):
    idx = workspace / "i.idx"
    run(capsys, "build", "--dataset", str(workspace / "d.jsonl"),
        "--factors", str(workspace / "f.json"), "--structure", "grt", "--out", str(idx))
    structure, ds, struct = load_index(idx)
    assert structure == "grt" and ds.n == 80

    obj = json.loads(idx.read_text())
    obj["version"] = 3
    bad = tmp_path / "v.idx"
    bad.write_text(json.dumps(obj))
    code, _, err = run(capsys, "query", "--index", str(bad),
                       "--workload", str(workspace / "w.jsonl"),
                       "--out", str(tmp_path / "r.jsonl"))
    assert code == 2 and "version" in err

    obj = json.loads(idx.read_text())
    obj["format"] = "pickle"
    bad.write_text(json.dumps(obj))
    code, _, _ = run(capsys, "query", "--index", str(bad),
                     "--workload", str(workspace / "w.jsonl"),
                     "--out", str(tmp_path / "r.jsonl"))
    assert code == 2


def _drop_factors(obj):
    del obj["factors"]


def _far_center(obj):
    obj["tree"]["primary"]["nodes"][3]["center"] = 10**6


def _nan_radius(obj):
    obj["tree"]["primary"]["nodes"][0]["radius"] = float("nan")


def _nan_aux_radius(obj):
    obj["tree"]["primary"]["nodes"][1]["aux"]["nodes"][0]["radius"] = float("nan")


def _coords_not_columns(obj):
    obj["coords"] = {name: 1.0 for name in obj["coords"]}


def _tree_missing(obj):
    del obj["tree"]


def _duplicate_leaf(obj):
    # a right-child leaf takes the root's point id, so its own point could
    # never be reported
    nodes = obj["tree"]["primary"]["nodes"]
    r = next(rec["right"] for rec in nodes if "right" in rec and "right" not in nodes[rec["right"]])
    nodes[r]["center"] = nodes[0]["center"]


@pytest.mark.parametrize(
    "corrupt",
    [_drop_factors, _far_center, _nan_radius, _nan_aux_radius, _coords_not_columns, _tree_missing, _duplicate_leaf],
)
def test_corrupt_index_exits_2(workspace, capsys, tmp_path, corrupt):
    idx = workspace / "i.idx"
    run(capsys, "build", "--dataset", str(workspace / "d.jsonl"),
        "--factors", str(workspace / "f.json"), "--structure", "grt", "--out", str(idx))
    obj = json.loads(idx.read_text())
    corrupt(obj)
    bad = tmp_path / "bad.idx"
    bad.write_text(json.dumps(obj))
    res = tmp_path / "r.jsonl"
    code, _, err = run(capsys, "query", "--index", str(bad),
                       "--workload", str(workspace / "w.jsonl"), "--out", str(res))
    assert code == 2 and "error:" in err
    assert not res.exists()


def test_non_finite_inputs_exit_2(workspace, capsys, tmp_path):
    lines = (workspace / "d.jsonl").read_text().splitlines()
    row = json.loads(lines[5])
    row["coords"]["f1"] = float("nan")
    data = tmp_path / "nan.jsonl"
    data.write_text("\n".join(lines[:5] + [json.dumps(row)] + lines[6:]) + "\n")
    idx = tmp_path / "nan.idx"
    code, _, err = run(capsys, "build", "--dataset", str(data),
                       "--factors", str(workspace / "f.json"), "--out", str(idx))
    assert code == 2 and "non-finite" in err
    assert not idx.exists()

    idx = tmp_path / "ok.idx"
    run(capsys, "build", "--dataset", str(workspace / "d.jsonl"),
        "--factors", str(workspace / "f.json"), "--out", str(idx))
    query = json.loads((workspace / "w.jsonl").read_text().splitlines()[0])
    query["radii"][0] = float("nan")
    w = tmp_path / "nan-w.jsonl"
    w.write_text(json.dumps(query) + "\n")
    res = tmp_path / "r.jsonl"
    code, _, err = run(capsys, "query", "--index", str(idx), "--workload", str(w), "--out", str(res))
    assert code == 2 and "radii" in err
    assert not res.exists()


def test_bench_csv_shape(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    code, msg, _ = run(
        capsys, "bench",
        "--factors", "abs1d,abs1d",
        "--sweep", "epsilon",
        "--values", "0.1,0.5,1.0",
        "--n", "96",
        "--queries", "4",
        "--out", str(out),
    )
    assert code == 0 and "6 rows" in msg
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 6
    assert {r["structure"] for r in rows} == {"product-tree", "grt"}
    assert all(r["sweep"] == "epsilon" for r in rows)
    assert [float(r["value"]) for r in rows if r["structure"] == "grt"] == [0.1, 0.5, 1.0]
    assert all(int(r["width"]) >= 0 and int(r["dist_evals"]) > 0 for r in rows)

    code, _, err = run(capsys, "bench", "--factors", "abs1d", "--sweep", "n",
                       "--values", "8,twelve", "--out", str(out))
    assert code == 2

    code, _, err = run(capsys, "bench", "--factors", "spherical", "--sweep", "n",
                       "--values", "8", "--out", str(out))
    assert code == 2


@pytest.mark.parametrize("sweep, value", [("n", "inf"), ("n", "nan"), ("n", "2.5"), ("aspect-ratio", "nan")])
def test_bench_rejects_non_finite_and_fractional_values(tmp_path, capsys, sweep, value):
    out = tmp_path / "bench.csv"
    code, _, err = run(capsys, "bench", "--factors", "abs1d", "--sweep", sweep,
                       "--values", f"8,{value}", "--n", "16", "--queries", "2", "--out", str(out))
    assert code == 2 and "error:" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, value", [("--aspect", "nan"), ("--aspect", "inf"), ("--epsilon", "nan"), ("--epsilon", "inf"), ("--epsilon", "-1")]
)
def test_gen_rejects_bad_workload_parameters(tmp_path, capsys, flag, value):
    # NaN and infinite radii or epsilons are not valid JSON in a workload.
    w = tmp_path / "w.jsonl"
    code, _, err = run(capsys, "gen", "--factors", "abs1d,abs1d", "--n", "16", "--queries", "2", f"{flag}={value}",
                       "--dataset-out", str(tmp_path / "d.jsonl"), "--factors-out", str(tmp_path / "f.json"),
                       "--workload-out", str(w))
    assert code == 2 and "error:" in err
    assert not any(tmp_path.iterdir())  # no dataset, factors or workload file


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["build"])  # missing required flags
    assert exc.value.code == 2
    capsys.readouterr()
