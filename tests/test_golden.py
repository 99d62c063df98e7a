"""Golden files: fixed CLI runs must write byte-identical index and results.

The digests below pin the on-disk formats and the greedy tie rules across
refactors.  A change that alters one of them changes a file format or an
answer and must say so.
"""

import hashlib

import pytest

from greedyrange.cli import main

CASES = {
    "grt-l2xabs": (
        ["--factors", "l2:2,abs1d", "--generator", "gaussian", "--n", "64"],
        "grt",
        "42c052e91a9c0eb567451cf891086a7db04f5e09949d2a448f120cbd16e3c2ac",
        "902c82abe52f8d22743a34d2f868e5cb7d2d826c9a611b8e82e7cbeff2492082",
    ),
    # n = 512: the primary search splits, and the level-1 searches scan
    # buckets
    "grt-l2xabs-512": (
        ["--factors", "l2:2,abs1d", "--n", "512"],
        "grt",
        "4604ec94df794161b768d4f5d483f614e99768b00be869d2a12ec52c0b31ca77",
        "aca0c87b470dc2ebab469d4e7a8652a876cf5159bb98e40ff142998a0db5bbe3",
    ),
    # m = 3: the last factor's forest has one tree per node of the middle
    # factor's, so this pins a cascade of three levels
    "grt-m3": (
        ["--factors", "l2:2,abs1d,abs1d", "--generator", "gaussian", "--n", "48"],
        "grt",
        "5e242fa63070ec2f802c4130b6e0af6554d9057ca2bf0279aafac1d17826e71e",
        "b7105bde782a27207faed2b19c5c284fbc3d535807b3b4669908aeb319f2195c",
    ),
    # The next three pin the paired level-build kernel of each factor kind
    # at level 1: edit distance, dim-9 l2 (past numpy's 8-wide pairwise
    # blocks), and abs1d on a grid, whose distances tie.
    "grt-absxlev": (
        ["--factors", "abs1d,levenshtein", "--n", "64"],
        "grt",
        "4e0b5cb1341e6f3935b34a9ea9641c7feeb9936cc702d29ded6608d722aa7f57",
        "1da47c26ef936b9566f5a305193d8aec7dee018a479500e9bb1d221d1c4b18df",
    ),
    "grt-absxl2w9": (
        ["--factors", "abs1d,l2:9", "--n", "64"],
        "grt",
        "74fdb9b5340f1179360795a7a0dfd705375ff97fca1f26b05843522c817f0f8e",
        "5e2091dbd5a8bdb65532c2f30b2d95ca40b6d6522be28c079a3c490dc40bb831",
    ),
    "grt-l2xabs-grid": (
        ["--factors", "l2:2,abs1d", "--generator", "grid", "--n", "64"],
        "grt",
        "4d47f48f24cbb19941f1fed7f0f4030e6391d14569f72aa815a4235a4c1ec788",
        "07a8dec848086ac84683f720ca22175ec25096590c510d49eb1b3bf124bd35b9",
    ),
    "ptree-lev": (
        ["--factors", "levenshtein,abs1d", "--n", "48"],
        "product-tree",
        "653b557f188b4c1fdbd97db6c1c498f57034a2c9f0064703258279842006d00e",
        "f0064410178374ee0d5efbc807bdf106ac611668a590cd3ecc8b00152d59414c",
    ),
    "ptree-l2x2": (
        ["--factors", "l2:2,l2:2", "--n", "256"],
        "product-tree",
        "f167dc817f994a7f37c3acb42468de92b36796eb222511835c4275a63e80bde6",
        "b5efb8b0547bf395f63b4c2e3a02ec36cf3f89d9ccdc8a88975d50b472f7fe53",
    ),
    # dim 9 is past numpy's 8-wide pairwise blocks, so this pins the
    # left-to-right coordinate sum of MinkowskiMetric
    "ptree-l2w9xabs": (
        ["--factors", "l2:9,abs1d", "--n", "64"],
        "product-tree",
        "8813731702f32775544cb56d2d5dc7f102c435769ff62c2c7c4c606c47f79978",
        "d4667d5f11137d75eabf256cec4be53077270b7ee372bf50d8fe10e55e5c3bff",
    ),
}


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_outputs_are_byte_identical(case, tmp_path, capsys):
    gen_args, structure, index_sha, results_sha = CASES[case]
    d, f, w = tmp_path / "d.jsonl", tmp_path / "f.json", tmp_path / "w.jsonl"
    idx, res = tmp_path / "index.json", tmp_path / "results.jsonl"
    assert main(["gen", *gen_args, "--seed", "3", "--queries", "6",
                 "--dataset-out", str(d), "--factors-out", str(f), "--workload-out", str(w)]) == 0
    assert main(["build", "--dataset", str(d), "--factors", str(f),
                 "--structure", structure, "--out", str(idx)]) == 0
    assert main(["query", "--index", str(idx), "--workload", str(w), "--out", str(res)]) == 0
    capsys.readouterr()
    assert (sha256(idx), sha256(res)) == (index_sha, results_sha)
