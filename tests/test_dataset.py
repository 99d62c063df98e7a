"""Factor configuration, dataset table, and file round-trips."""

import json
import math

import pytest

from greedyrange import (
    ConfigurationError,
    Dataset,
    FactorSpec,
    InputError,
    WorkloadQuery,
    calibrated_queries,
    load_dataset,
    load_factor_specs,
    load_results,
    load_workload,
    synth_dataset,
    write_dataset,
    write_results,
    write_workload,
)


def test_factor_spec_validation():
    FactorSpec("a", "abs1d")
    FactorSpec("b", "l2", dim=3)
    with pytest.raises(ConfigurationError):
        FactorSpec("a", "cosine")
    with pytest.raises(ConfigurationError):
        FactorSpec("a", "l2")  # needs dim
    with pytest.raises(ConfigurationError):
        FactorSpec("a", "l1", dim=0)
    with pytest.raises(ConfigurationError):
        FactorSpec("a", "abs1d", dim=2)  # scalar kinds take no dim


def test_dataset_basics():
    ds = Dataset(
        [FactorSpec("x", "abs1d"), FactorSpec("v", "l2", dim=2)],
        {"x": [1.0, 2.0, 3.0], "v": [[0, 0], [1, 0], [0, 1]]},
    )
    assert ds.n == 3 and ds.m == 2
    assert ds.ids().tolist() == [0, 1, 2]
    assert ds.payloads(1) == (2.0, [1.0, 0.0])
    assert ds.spaces() is ds.spaces()  # cached: all users share counters
    assert ds.product() is ds.product()
    with pytest.raises(InputError):
        ds.payloads(3)


def test_dataset_validation():
    with pytest.raises(ConfigurationError):
        Dataset([], {})
    with pytest.raises(ConfigurationError):
        Dataset([FactorSpec("x", "abs1d"), FactorSpec("x", "abs1d")], {"x": [0.0]})
    with pytest.raises(InputError):
        Dataset([FactorSpec("x", "abs1d")], {})
    with pytest.raises(InputError):
        Dataset(
            [FactorSpec("x", "abs1d"), FactorSpec("y", "abs1d")],
            {"x": [0.0, 1.0], "y": [0.0]},
        )
    # non-finite columns, as an index file could hold them
    for spec, col in [(FactorSpec("x", "abs1d"), [0.0, math.nan]), (FactorSpec("x", "l2", dim=2), [[0.0, math.inf]])]:
        with pytest.raises(InputError, match="non-finite"):
            Dataset([spec], {"x": col})


def test_from_records_id_rules():
    spec = [FactorSpec("x", "abs1d")]
    ds = Dataset.from_records(spec, [(1, {"x": 5}, "r1"), (0, {"x": 2}, "r0")])
    assert ds.payload("x", 0) == 2.0 and ds.payload("x", 1) == 5.0
    with pytest.raises(InputError, match="0..n-1"):
        Dataset.from_records(spec, [(0, {"x": 1}, "a"), (2, {"x": 2}, "b")])
    with pytest.raises(InputError, match="duplicate"):
        Dataset.from_records(spec, [(0, {"x": 1}, "a"), (0, {"x": 2}, "b")])
    with pytest.raises(InputError):
        Dataset.from_records(spec, [(-1, {"x": 1}, "a")])
    with pytest.raises(InputError):
        Dataset.from_records(spec, [(True, {"x": 1}, "a")])


def test_payload_coercion_errors():
    with pytest.raises(InputError):
        Dataset.from_records([FactorSpec("x", "abs1d")], [(0, {"x": "nope"}, "a")])
    with pytest.raises(InputError):
        Dataset.from_records([FactorSpec("v", "l2", dim=2)], [(0, {"v": [1.0]}, "a")])
    with pytest.raises(InputError):
        Dataset.from_records([FactorSpec("s", "levenshtein")], [(0, {"s": 7}, "a")])
    with pytest.raises(InputError):
        Dataset.from_records([FactorSpec("x", "abs1d")], [(0, {}, "a")])


@pytest.mark.parametrize(
    "spec,value",
    [
        (FactorSpec("x", "abs1d"), float("nan")),
        (FactorSpec("x", "abs1d"), float("-inf")),
        (FactorSpec("x", "abs1d"), 10**400),
        (FactorSpec("v", "l2", dim=2), [0.0, float("inf")]),
        (FactorSpec("v", "l1", dim=2), [float("nan"), 1.0]),
    ],
)
def test_non_finite_coordinates_are_rejected(tmp_path, spec, value):
    with pytest.raises(InputError):
        Dataset.from_records([spec], [(0, {spec.name: value}, "a")])
    w = tmp_path / "w.jsonl"
    w.write_text(json.dumps({"q": {spec.name: value}, "radii": [1.0]}) + "\n")
    with pytest.raises(InputError):
        load_workload(w, [spec])


def test_dataset_file_roundtrip(tmp_path):
    specs = [FactorSpec("x", "abs1d"), FactorSpec("s", "levenshtein")]
    ds = Dataset(specs, {"x": [0.5, 1.5], "s": ["ab", "ba"]})
    path = tmp_path / "d.jsonl"
    write_dataset(path, ds)
    back = load_dataset(path, specs)
    assert back.n == 2
    assert back.payloads(0) == ds.payloads(0)
    assert back.payloads(1) == ds.payloads(1)


def test_dataset_file_errors(tmp_path):
    specs = [FactorSpec("x", "abs1d")]
    p = tmp_path / "bad.jsonl"
    p.write_text('{"id": 0, "coords": {"x": 1}}\nnot json\n')
    with pytest.raises(InputError, match="bad.jsonl:2"):
        load_dataset(p, specs)
    p.write_text('{"id": 0}\n')
    with pytest.raises(InputError, match="'id' and 'coords'"):
        load_dataset(p, specs)
    p.write_text("")
    with pytest.raises(InputError):
        load_dataset(p, specs)
    # blank lines are fine
    p.write_text('\n{"id": 0, "coords": {"x": 1}}\n\n')
    assert load_dataset(p, specs).n == 1


def test_factor_config_file(tmp_path):
    p = tmp_path / "f.json"
    p.write_text('[{"name": "x", "kind": "abs1d"}, {"name": "v", "kind": "l1", "dim": 2}]')
    specs = load_factor_specs(p)
    assert [s.kind for s in specs] == ["abs1d", "l1"]
    assert specs[1].dim == 2
    p.write_text('{"name": "x"}')
    with pytest.raises(ConfigurationError):
        load_factor_specs(p)
    p.write_text('[{"kind": "abs1d"}]')
    with pytest.raises(ConfigurationError):
        load_factor_specs(p)
    p.write_text("[")
    with pytest.raises(InputError):
        load_factor_specs(p)


def test_workload_roundtrip(tmp_path):
    specs = [FactorSpec("x", "abs1d"), FactorSpec("v", "l2", dim=2)]
    queries = [
        WorkloadQuery(coords=(0.5, [1.0, 2.0]), radii=(1.0, 2.0), epsilon=0.25),
        WorkloadQuery(coords=(9.0, [0.0, 0.0]), radii=(0.5, 0.5), epsilon=None),
    ]
    p = tmp_path / "w.jsonl"
    write_workload(p, specs, queries)
    back = load_workload(p, specs)
    assert back == queries


def test_workload_errors(tmp_path):
    specs = [FactorSpec("x", "abs1d")]
    p = tmp_path / "w.jsonl"
    p.write_text('{"q": {"x": 0.0}}\n')
    with pytest.raises(InputError):
        load_workload(p, specs)
    p.write_text('{"q": {"x": 0.0}, "radii": [1.0, 2.0]}\n')
    with pytest.raises(InputError, match="radii"):
        load_workload(p, specs)
    p.write_text('{"q": {"x": 0.0}, "radii": [1.0], "epsilon": "big"}\n')
    with pytest.raises(InputError):
        load_workload(p, specs)


def test_results_roundtrip(tmp_path):
    rows = [{"query_index": 0, "points": [3, 1], "stats": {"width": 2}}]
    p = tmp_path / "r.jsonl"
    write_results(p, rows)
    assert load_results(p) == rows
    p.write_text('{"points": [1]}\n')
    with pytest.raises(InputError):
        load_results(p)


def test_synth_dataset_layouts():
    specs = [FactorSpec("x", "abs1d"), FactorSpec("s", "levenshtein")]
    for layout in ("uniform", "gaussian", "grid"):
        ds = synth_dataset(specs, 20, layout=layout, seed=4)
        assert ds.n == 20 and ds.m == 2
    # determinism
    a = synth_dataset(specs, 15, seed=7)
    b = synth_dataset(specs, 15, seed=7)
    assert a.payloads(3) == b.payloads(3)
    with pytest.raises(ConfigurationError):
        synth_dataset(specs, 10, layout="fancy")
    with pytest.raises(InputError):
        synth_dataset(specs, 0)


def test_grid_layout_is_an_integer_lattice():
    ds = synth_dataset([FactorSpec("x", "abs1d")], 16, layout="grid", seed=0)
    values = sorted(ds.payload("x", i) for i in range(16))
    assert values == [float(i) for i in range(16)]


def test_calibrated_queries_shape():
    specs = [FactorSpec("x", "abs1d"), FactorSpec("y", "abs1d")]
    ds = synth_dataset(specs, 60, seed=2)
    qs = calibrated_queries(ds, 5, selectivity=0.05, epsilon=0.5, aspect=3.0, seed=1)
    assert len(qs) == 5
    for wq in qs:
        assert wq.epsilon == 0.5
        assert len(wq.radii) == 2
        assert wq.radii[0] > 0 and wq.radii[1] > 0
    # the aspect knob scales every radius after the first, nothing else
    flat = calibrated_queries(ds, 5, selectivity=0.05, epsilon=0.5, aspect=1.0, seed=1)
    for wide, base in zip(qs, flat):
        assert wide.coords == base.coords
        assert wide.radii[0] == base.radii[0]
        assert wide.radii[1] == pytest.approx(3.0 * base.radii[1])
    # identical inputs, identical workload
    again = calibrated_queries(ds, 5, selectivity=0.05, epsilon=0.5, aspect=3.0, seed=1)
    assert again == qs
