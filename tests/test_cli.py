"""End-to-end harness runs: exit codes, file formats, determinism."""

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greedyrange import cli
from greedyrange.cli import load_index, main
from greedyrange.metrics import dataset_summary
from greedyrange.tree import verify_greedy_tree


def read_index(path):
    """(header, {name: writable column}) of a format-2 index, read by the
    documented layout: a JSON header line, then raw columns at offsets."""
    line, _, payload = path.read_bytes().partition(b"\n")
    header = json.loads(line)
    cols = {}
    for e in header["columns"]:
        col = np.frombuffer(payload, e["dtype"], math.prod(e["shape"]), e["offset"])
        cols[e["name"]] = col.reshape(e["shape"]).copy()
    return header, cols


def write_index(path, header, cols):
    """Write an index with a fresh column table and checksum, so that only
    the loader's own checks stand between an edit and the answers."""
    table, offset = [], 0
    for name, col in cols.items():
        table.append({"name": name, "dtype": col.dtype.str, "shape": list(col.shape), "offset": offset})
        offset += col.nbytes
    payload = b"".join(col.tobytes() for col in cols.values())
    header = {k: v for k, v in header.items() if k != "sha256"}
    header["columns"] = table
    line = json.dumps(header, sort_keys=True, separators=(",", ":")).encode() + b"\n"
    header["sha256"] = hashlib.sha256(line + payload).hexdigest()
    path.write_bytes(json.dumps(header, sort_keys=True, separators=(",", ":")).encode() + b"\n" + payload)


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
    # per-level nodes and bytes, read from the column table
    _, cols = read_index(idx)
    levels = 1 if structure == "product-tree" else 2
    assert report["level_nodes"] == [len(cols[f"level{k}/count"]) for k in range(levels)]
    assert report["level_nodes"][0] == 2 * 80 - 1
    if structure == "grt":
        assert report["level_nodes"][1] == sum(2 * c - 1 for c in primary.count)
    # radius <f8, count and center <i4
    assert report["level_bytes"] == [16 * nodes for nodes in report["level_nodes"]]
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


@pytest.mark.parametrize(
    "field, value",
    [("points", 5), ("points", [[1]]), ("points", [True]), ("points", [1.0]),
     ("query_index", [0]), ("query_index", True), ("query_index", -1), ("query_index", "0")],
)
def test_malformed_results_rows_exit_2(workspace, capsys, tmp_path, field, value):
    idx, res = tmp_path / "i.idx", tmp_path / "r.jsonl"
    run(capsys, "build", "--dataset", str(workspace / "d.jsonl"),
        "--factors", str(workspace / "f.json"), "--out", str(idx))
    run(capsys, "query", "--index", str(idx), "--workload", str(workspace / "w.jsonl"), "--out", str(res))
    rows = [json.loads(line) for line in res.read_text().splitlines()]
    rows[1][field] = value
    res.write_text("".join(json.dumps(r) + "\n" for r in rows))
    code, _, err = run(capsys, "verify", "--dataset", str(workspace / "d.jsonl"),
                       "--factors", str(workspace / "f.json"), "--workload", str(workspace / "w.jsonl"),
                       "--results", str(res))
    assert code == 2 and f"{res}:2: '{field}' must" in err


@pytest.mark.parametrize("case", ["duplicate", "unknown"])
def test_results_query_index_must_name_one_workload_query(workspace, capsys, tmp_path, case):
    # A second row for query 0 holding an empty answer must not replace or
    # shadow the first, and a row for a query the workload lacks must not
    # be ignored: either way verify cannot vouch for the file.
    idx, res = tmp_path / "i.idx", tmp_path / "r.jsonl"
    run(capsys, "build", "--dataset", str(workspace / "d.jsonl"),
        "--factors", str(workspace / "f.json"), "--out", str(idx))
    run(capsys, "query", "--index", str(idx), "--workload", str(workspace / "w.jsonl"), "--out", str(res))
    rows = [json.loads(line) for line in res.read_text().splitlines()]
    extra = {"query_index": 0 if case == "duplicate" else len(rows), "points": []}
    res.write_text("".join(json.dumps(r) + "\n" for r in rows + [extra]))
    code, out, err = run(capsys, "verify", "--dataset", str(workspace / "d.jsonl"),
                         "--factors", str(workspace / "f.json"), "--workload", str(workspace / "w.jsonl"),
                         "--results", str(res))
    assert code == 2 and f"query_index {extra['query_index']}" in err
    assert "verified" not in out


@pytest.mark.parametrize("name", ["f.json", "d.jsonl", "w.jsonl", "r.jsonl"])
def test_invalid_utf8_exits_2(workspace, capsys, name):
    d, f, w = (str(workspace / n) for n in ("d.jsonl", "f.json", "w.jsonl"))
    idx, res = workspace / "i.idx", workspace / "r.jsonl"
    run(capsys, "build", "--dataset", d, "--factors", f, "--out", str(idx))
    run(capsys, "query", "--index", str(idx), "--workload", w, "--out", str(res))
    path = workspace / name
    good = path.read_bytes()
    # an invalid first byte, or a lone continuation byte inside the first line
    path.write_bytes(b"\xff" + good if name == "f.json" else good[:5] + b"\x80" + good[5:])
    # verify reads all four files; build and query read theirs
    commands = [["verify", "--dataset", d, "--factors", f, "--workload", w, "--results", str(res)]]
    if name in ("f.json", "d.jsonl"):
        commands.append(["build", "--dataset", d, "--factors", f, "--out", str(workspace / "x.idx")])
    if name == "w.jsonl":
        commands.append(["query", "--index", str(idx), "--workload", w, "--out", str(workspace / "r2.jsonl")])
    for argv in commands:
        code, _, err = run(capsys, *argv)
        assert code == 2 and "invalid UTF-8" in err, argv


def test_single_factor_structures_serialize_identically(tmp_path, capsys):
    code, _, _ = run(
        capsys, "gen",
        "--factors", "abs1d",
        "--n", "40",
        "--seed", "2",
        "--dataset-out", str(tmp_path / "d.jsonl"),
        "--factors-out", str(tmp_path / "f.json"),
        "--workload-out", str(tmp_path / "w.jsonl"),
    )
    assert code == 0
    files = {}
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
        res = tmp_path / f"{structure}.res"
        code, _, _ = run(capsys, "query", "--index", str(idx), "--workload", str(tmp_path / "w.jsonl"),
                         "--out", str(res))
        assert code == 0
        header, _ = read_index(idx)
        files[structure] = header, idx.read_bytes().partition(b"\n")[2], res.read_bytes()
    # with one factor the cascade *is* the plain tree, byte for byte, and
    # the one search path answers both alike, stats included
    (ptree, ptree_payload, ptree_res), (grt, grt_payload, grt_res) = files["product-tree"], files["grt"]
    assert ptree_payload == grt_payload
    assert ptree["columns"] == grt["columns"]
    assert ptree_res == grt_res


def _build_grt(workspace, capsys):
    idx = workspace / "i.idx"
    run(capsys, "build", "--dataset", str(workspace / "d.jsonl"),
        "--factors", str(workspace / "f.json"), "--structure", "grt", "--out", str(idx))
    return idx


def _query_exit(capsys, workspace, idx, res):
    code, _, err = run(capsys, "query", "--index", str(idx),
                       "--workload", str(workspace / "w.jsonl"), "--out", str(res))
    return code, err


def test_index_roundtrip_and_corruption(workspace, capsys, tmp_path):
    idx = _build_grt(workspace, capsys)
    structure, ds, struct = load_index(idx)
    assert structure == "grt" and ds.n == 80
    # a re-sealed copy with the same columns loads to the same bytes
    header, cols = read_index(idx)
    same = tmp_path / "same.idx"
    write_index(same, header, cols)
    assert same.read_bytes() == idx.read_bytes()

    bad, res = tmp_path / "v.idx", tmp_path / "r.jsonl"
    write_index(bad, {**header, "version": 3}, cols)
    code, err = _query_exit(capsys, workspace, bad, res)
    assert code == 2 and "version" in err

    write_index(bad, {**header, "format": "pickle"}, cols)
    code, _ = _query_exit(capsys, workspace, bad, res)
    assert code == 2
    assert not res.exists()


def test_version_1_index_asks_for_a_rebuild(workspace, capsys, tmp_path):
    bad, res = tmp_path / "v1.idx", tmp_path / "r.jsonl"
    bad.write_text(json.dumps({"format": "greedyrange-index", "version": 1, "structure": "grt", "tree": {}}))
    code, err = _query_exit(capsys, workspace, bad, res)
    assert code == 2 and "version 1" in err and "rebuild the index" in err
    assert not res.exists()


@pytest.mark.parametrize("where", ["payload", "header", "checksum", "truncated"])
def test_checksum_mismatch_exits_2(workspace, capsys, tmp_path, where):
    raw = bytearray(_build_grt(workspace, capsys).read_bytes())
    header_end = raw.index(b"\n")
    if where == "payload":
        raw[header_end + 100] ^= 0x01
    elif where == "header":
        # a factor kind l2 -> l1 is still a valid header, so only the
        # checksum can tell
        pos = raw.index(b'"kind":"l2"') + len('"kind":"l')
        raw[pos] = ord("1")
    elif where == "checksum":
        pos = raw.index(b'"sha256":"') + len('"sha256":"')
        raw[pos] = ord("0") if raw[pos] != ord("0") else ord("1")
    else:
        del raw[-8:]
    bad, res = tmp_path / "bad.idx", tmp_path / "r.jsonl"
    bad.write_bytes(raw)
    code, err = _query_exit(capsys, workspace, bad, res)
    assert code == 2 and "checksum mismatch" in err
    assert not res.exists()


def _drop_factors(header, cols):
    del header["factors"]


def _far_center(header, cols):
    cols["level0/center"][3] = 10**6


def _nan_radius(header, cols):
    cols["level0/radius"][0] = float("nan")


def _nan_aux_radius(header, cols):
    # the root of the auxiliary of primary node 1, the second tree of level 1
    cols["level1/radius"][2 * cols["level0/count"][0] - 1] = float("nan")


def _coords_not_columns(header, cols):
    cols["coords/f0"] = np.float64(1.0).reshape(())


def _tree_missing(header, cols):
    for name in [name for name in cols if name.startswith("level")]:
        del cols[name]


def _unknown_column(header, cols):
    cols["level2/radius"] = cols["level1/radius"]


def _duplicate_leaf(header, cols):
    # a right-child leaf takes the root's point id, so its own point could
    # never be reported
    count, center = cols["level0/count"], cols["level0/center"]
    r = next(i + 2 * count[i + 1] for i in range(len(count)) if count[i] > 1 and count[i + 2 * count[i + 1]] == 1)
    center[r] = center[0]


def _aux_next_id(header, cols):
    # the one-point auxiliary of a primary leaf holds the next point id in
    # place of its own; every forest on its own is still well formed
    count = cols["level0/count"].astype(np.int64)
    leaf = int(np.flatnonzero(count == 1)[0])
    center = cols["level1/center"]
    root = int((2 * count[:leaf] - 1).sum())
    center[root] = (center[root] + 1) % header["n"]


@pytest.mark.parametrize(
    "corrupt",
    [_drop_factors, _far_center, _nan_radius, _nan_aux_radius, _coords_not_columns, _tree_missing,
     _unknown_column, _duplicate_leaf, _aux_next_id],
)
def test_corrupt_index_exits_2(workspace, capsys, tmp_path, corrupt):
    header, cols = read_index(_build_grt(workspace, capsys))
    corrupt(header, cols)
    bad, res = tmp_path / "bad.idx", tmp_path / "r.jsonl"
    write_index(bad, header, cols)
    code, err = _query_exit(capsys, workspace, bad, res)
    assert code == 2 and "error:" in err
    assert not res.exists()


def test_non_finite_coordinate_in_index_exits_2(workspace, capsys, tmp_path):
    header, cols = read_index(_build_grt(workspace, capsys))
    cols["coords/f1"][5] = float("nan")
    bad, res = tmp_path / "nan.idx", tmp_path / "r.jsonl"
    write_index(bad, header, cols)
    code, err = _query_exit(capsys, workspace, bad, res)
    assert code == 2 and "non-finite" in err
    assert not res.exists()


@pytest.fixture(scope="module")
def fuzz_indexes(tmp_path_factory):
    """Small indexes of both structures, their workload and their results."""
    work = tmp_path_factory.mktemp("fuzz")
    d, f, w = work / "d.jsonl", work / "f.json", work / "w.jsonl"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["gen", "--factors", "l2:2,abs1d", "--n", "24", "--seed", "4", "--queries", "4",
                     "--dataset-out", str(d), "--factors-out", str(f), "--workload-out", str(w)]) == 0
        for structure in ("product-tree", "grt"):
            idx = work / f"{structure}.idx"
            assert main(["build", "--dataset", str(d), "--factors", str(f), "--structure", structure,
                         "--out", str(idx)]) == 0
            assert main(["query", "--index", str(idx), "--workload", str(w),
                         "--out", str(work / f"{structure}.res")]) == 0
    return work


@pytest.mark.parametrize("structure", ["product-tree", "grt"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_mutated_index_exits_2_or_answers_identically(fuzz_indexes, structure, data):
    work = fuzz_indexes
    good = (work / f"{structure}.idx").read_bytes()
    if data.draw(st.booleans(), label="truncate"):
        bad = good[: data.draw(st.integers(0, len(good) - 1), label="length")]
    else:
        pos = data.draw(st.integers(0, len(good) - 1), label="position")
        bad = good[:pos] + bytes([good[pos] ^ data.draw(st.integers(1, 255), label="xor")]) + good[pos + 1 :]
    idx, res = work / f"{structure}-bad.idx", work / f"{structure}-bad.res"
    idx.write_bytes(bad)
    res.unlink(missing_ok=True)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(["query", "--index", str(idx), "--workload", str(work / "w.jsonl"), "--out", str(res)])
    assert code == 2 or (code == 0 and res.read_bytes() == (work / f"{structure}.res").read_bytes())


@pytest.mark.parametrize("structure", ["product-tree", "grt"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_mutated_workload_exits_2_or_verifies(fuzz_indexes, structure, data):
    # One to three bytes of the workload flipped: the query either exits 2
    # or answers the mutated workload, as verify checks, never crashes.
    work = fuzz_indexes
    bad = bytearray((work / "w.jsonl").read_bytes())
    for _ in range(data.draw(st.integers(1, 3), label="flips")):
        pos = data.draw(st.integers(0, len(bad) - 1), label="position")
        bad[pos] ^= data.draw(st.integers(1, 255), label="xor")
    w, res = work / f"{structure}-bad-w.jsonl", work / f"{structure}-bad-w.res"
    w.write_bytes(bytes(bad))
    res.unlink(missing_ok=True)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(["query", "--index", str(work / f"{structure}.idx"), "--workload", str(w), "--out", str(res)])
        if code == 0:
            code = main(["verify", "--dataset", str(work / "d.jsonl"), "--factors", str(work / "f.json"),
                         "--workload", str(w), "--results", str(res)])
    assert code in (0, 2)
    assert code == 0 or not res.exists()


def test_closed_pipe_exits_141_without_traceback(workspace, capsys, monkeypatch):
    idx = _build_grt(workspace, capsys)
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone, as after `| head`
    with open(write_end, "w") as stdout:
        monkeypatch.setattr(sys, "stdout", stdout)
        code = main(["stats", "--index", str(idx)])
        monkeypatch.undo()
        assert code == 141
    # closing flushed what was left in the buffer, now into devnull
    assert "Traceback" not in capsys.readouterr().err


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
    # radii must be finite and greater than 0, in query and in verify alike
    for radius in (float("nan"), 0.0, -1.0):
        query = json.loads((workspace / "w.jsonl").read_text().splitlines()[0])
        query["radii"][0] = radius
        w = tmp_path / "bad-w.jsonl"
        w.write_text(json.dumps(query) + "\n")
        res = tmp_path / "r.jsonl"
        code, _, err = run(capsys, "query", "--index", str(idx), "--workload", str(w), "--out", str(res))
        assert code == 2 and "radii" in err
        assert not res.exists()
        res.write_text(json.dumps({"query_index": 0, "points": []}) + "\n")
        code, _, err = run(capsys, "verify", "--dataset", str(workspace / "d.jsonl"),
                           "--factors", str(workspace / "f.json"), "--workload", str(w), "--results", str(res))
        assert code == 2 and "radii" in err
        res.unlink()


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
