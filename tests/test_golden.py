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
        "781dce3dac453d44508435b577fc681be2e40bef2f1d0d279861d6526fac0bea",
        "e1bcd8182d09e51faf5b198910ad5a70ceaf7f15c4da64dedfdddd413124030b",
    ),
    # m = 3: every merge of the middle factor is decorated with merges
    # of the last, so this pins nested cascades
    "grt-m3": (
        ["--factors", "l2:2,abs1d,abs1d", "--generator", "gaussian", "--n", "48"],
        "grt",
        "e413aa85cb3d5d0f8770a5d65cab0fdf7bc33d64fc2d3b816c271b4b2953ba87",
        "0f7de7acbb0dc83a795b90b3ddfed4a6979af399ff4b1893a30db269bfbb0134",
    ),
    "ptree-lev": (
        ["--factors", "levenshtein,abs1d", "--n", "48"],
        "product-tree",
        "e0fe78dba4b66b2a839b26b9161739f841c5c8594b06785be9687d17bd4545bb",
        "def61e6cb653a97d0ab9b377ce5899703addda43f400f185bcd2a40c14ad5dd5",
    ),
    "ptree-l2x2": (
        ["--factors", "l2:2,l2:2", "--n", "256"],
        "product-tree",
        "d03196198ca9159ca93d0106ce205c41bded5f063b8884211906164a27d2eb1e",
        "db514b782c36ddf17a15fea739147b4e7ca5cd668d4f9828898a4e8b98fcbcd8",
    ),
    # dim 9 is past numpy's 8-wide pairwise blocks, so this pins the
    # left-to-right coordinate sum of MinkowskiMetric
    "ptree-l2w9xabs": (
        ["--factors", "l2:9,abs1d", "--n", "64"],
        "product-tree",
        "a4f7b7ff803f78f67159df56690474791896c802ed1d2dc782a1e31d970822b7",
        "2773e47d059740c455e9d80e325950a56a3f0e796f17d2dbff2491ba9b6d91e1",
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
