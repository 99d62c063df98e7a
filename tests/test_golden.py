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
        "902c82abe52f8d22743a34d2f868e5cb7d2d826c9a611b8e82e7cbeff2492082",
    ),
    # n = 512: the primary search splits, and the level-1 searches scan
    # buckets
    "grt-l2xabs-512": (
        ["--factors", "l2:2,abs1d", "--n", "512"],
        "grt",
        "c9d841d161c42c9577d5e426b3a6a65407b6543536ac8614f60a9e9220ffc54b",
        "aca0c87b470dc2ebab469d4e7a8652a876cf5159bb98e40ff142998a0db5bbe3",
    ),
    # m = 3: every merge of the middle factor is decorated with merges
    # of the last, so this pins nested cascades
    "grt-m3": (
        ["--factors", "l2:2,abs1d,abs1d", "--generator", "gaussian", "--n", "48"],
        "grt",
        "e413aa85cb3d5d0f8770a5d65cab0fdf7bc33d64fc2d3b816c271b4b2953ba87",
        "b7105bde782a27207faed2b19c5c284fbc3d535807b3b4669908aeb319f2195c",
    ),
    "ptree-lev": (
        ["--factors", "levenshtein,abs1d", "--n", "48"],
        "product-tree",
        "e0fe78dba4b66b2a839b26b9161739f841c5c8594b06785be9687d17bd4545bb",
        "f0064410178374ee0d5efbc807bdf106ac611668a590cd3ecc8b00152d59414c",
    ),
    "ptree-l2x2": (
        ["--factors", "l2:2,l2:2", "--n", "256"],
        "product-tree",
        "d03196198ca9159ca93d0106ce205c41bded5f063b8884211906164a27d2eb1e",
        "b5efb8b0547bf395f63b4c2e3a02ec36cf3f89d9ccdc8a88975d50b472f7fe53",
    ),
    # dim 9 is past numpy's 8-wide pairwise blocks, so this pins the
    # left-to-right coordinate sum of MinkowskiMetric
    "ptree-l2w9xabs": (
        ["--factors", "l2:9,abs1d", "--n", "64"],
        "product-tree",
        "a4f7b7ff803f78f67159df56690474791896c802ed1d2dc782a1e31d970822b7",
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
