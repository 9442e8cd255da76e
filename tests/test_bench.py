"""Workload generation, correctness gates, timing suites, and reports."""

import io
import json
import os
import platform
import re
from collections import Counter
from pathlib import Path

import pytest

from leantrie import bench
from leantrie.bench import (
    BENCH_COLUMNS,
    FOOTPRINT_COLUMNS,
    OPERATIONS,
    BenchConfig,
    BenchRow,
    ConfigurationError,
    Dataset,
    GateError,
    WorkloadSpec,
    _adapter,
    _correctness_gate,
    _git_revision,
    default_structures,
    generate_workload,
    run_benchmarks,
    run_footprint,
    write_csv,
    write_json,
)
from leantrie.nodes import walk

FAST = BenchConfig(warmup_iterations=0, measured_iterations=1)


@pytest.fixture
def one_call_per_sample(monkeypatch):
    """Each timed sample runs its call once: a target of 0 ns calibrates
    every call to one repeat."""
    monkeypatch.setattr(bench, "_TARGET_SAMPLE_NS", 0)


def small_spec(**overrides):
    base = dict(size_exponents=(4,), seeds=1, mix=0.5)
    base.update(overrides)
    return WorkloadSpec(**base)


# -- workload generation ------------------------------------------------------------


def values_per_key(dataset):
    """``{values per key: keys}`` of a dataset's entries."""
    return Counter(Counter(k for k, _ in dataset.entries).values())


def test_workloads_are_deterministic_per_seed():
    spec = small_spec()
    a = generate_workload(spec, 64, seed=3)
    b = generate_workload(spec, 64, seed=3)
    c = generate_workload(spec, 64, seed=4)
    assert a == b
    assert a.entries != c.entries
    assert a.none_probes != c.none_probes


def test_mix_controls_the_single_to_double_split():
    spec = small_spec()
    d = generate_workload(spec, 256, seed=0)
    assert values_per_key(d) == {1: 128, 2: 128}
    assert len(d.entries) == 128 + 2 * 128
    assert d.size == 256
    assert not d.is_pure_one_to_one

    pure = generate_workload(small_spec(mix=1.0), 256, seed=0)
    assert values_per_key(pure) == {1: 256}
    assert len(pure.entries) == 256
    assert pure.is_pure_one_to_one

    doubles = generate_workload(small_spec(mix=0.0), 256, seed=0)
    assert values_per_key(doubles) == {2: 256}
    assert len(doubles.entries) == 512


def test_probe_bursts_are_disjoint_and_correctly_classified():
    d = generate_workload(small_spec(), 128, seed=1)
    stored = set(d.entries)
    keys = {k for k, _ in d.entries}
    assert len(d.full_probes) == len(d.partial_probes) == len(d.none_probes) == 8
    for k, v in d.full_probes:
        assert (k, v) in stored
    for k, v in d.partial_probes:
        assert k in keys and (k, v) not in stored
    for k, v in d.none_probes:
        assert k not in keys


def test_tiny_workloads_pad_bursts_by_duplication():
    d = generate_workload(small_spec(), 2, seed=0)
    # one 1:1 key and one 1:2 key
    assert values_per_key(d) == {1: 1, 2: 1}
    assert len(d.entries) == 3
    assert len(d.full_probes) == 8
    assert len(set(k for k, _ in d.full_probes)) == 2
    stored = set(d.entries)
    assert all(p in stored for p in d.full_probes)


def test_workload_spec_rejects_bad_parameters():
    with pytest.raises(ConfigurationError):
        WorkloadSpec(size_exponents=(0,))
    with pytest.raises(ConfigurationError):
        WorkloadSpec(size_exponents=(24,))
    with pytest.raises(ConfigurationError):
        WorkloadSpec(mix=1.5)
    with pytest.raises(ConfigurationError):
        WorkloadSpec(seeds=0)
    with pytest.raises(ConfigurationError):
        generate_workload(small_spec(), 0, seed=0)
    with pytest.raises(ConfigurationError):
        BenchConfig(measured_iterations=0)


# -- adapters and the correctness gate ---------------------------------------------


@pytest.mark.parametrize("name", ["multimap", "map_of_sets"])
def test_gate_accepts_a_faithful_build(name):
    d = generate_workload(small_spec(), 64, seed=0)
    adapter = _adapter(name)
    _correctness_gate(adapter, adapter.build(d), d)


def test_gate_accepts_the_map_baseline_on_pure_data():
    d = generate_workload(small_spec(mix=1.0), 64, seed=0)
    adapter = _adapter("map")
    _correctness_gate(adapter, adapter.build(d), d)


def test_map_baseline_refuses_impure_datasets():
    d = generate_workload(small_spec(), 64, seed=0)
    with pytest.raises(ConfigurationError):
        _adapter("map").build(d)
    assert default_structures(d) == ["multimap", "map_of_sets"]
    pure = generate_workload(small_spec(mix=1.0), 64, seed=0)
    assert default_structures(pure) == ["multimap", "map_of_sets", "map"]


def test_gate_catches_a_structure_missing_one_tuple():
    d = generate_workload(small_spec(), 64, seed=0)
    adapter = _adapter("multimap")
    broken = adapter.build(d).remove(*d.entries[0])
    with pytest.raises(GateError):
        _correctness_gate(adapter, broken, d)


def test_gate_catches_an_extra_tuple():
    d = generate_workload(small_spec(), 64, seed=0)
    adapter = _adapter("multimap")
    k, v = d.partial_probes[0]
    with pytest.raises(GateError):
        _correctness_gate(adapter, adapter.build(d).put(k, v), d)


def test_gate_catches_a_mutating_lookup():
    d = generate_workload(small_spec(), 16, seed=0)

    class Sneaky(type(_adapter("multimap"))):
        def insert(self, s, k, v):
            return s  # drops updates: full-probe no-op passes, partial fails

    with pytest.raises(GateError):
        _correctness_gate(Sneaky(), _adapter("multimap").build(d), d)


def test_unknown_structure_name_is_a_configuration_error():
    with pytest.raises(ConfigurationError):
        _adapter("btree")


# -- timing suites -------------------------------------------------------------------


def test_one_structure_runs_emit_one_row_per_operation(one_call_per_sample):
    rows = run_benchmarks(small_spec(seeds=3), FAST, ["multimap"])
    assert [r.operation for r in rows] == 3 * list(OPERATIONS)
    assert [r.seed for r in rows] == [s for s in range(3) for _ in OPERATIONS]
    for r in rows:
        assert r.structure == "multimap"
        assert r.size_exponent == 4
        assert r.median_ns > 0
        assert r.mad_ns >= 0


def test_run_benchmarks_covers_the_grid(one_call_per_sample):
    spec = WorkloadSpec(size_exponents=(2, 3), seeds=2, mix=0.5)
    rows = run_benchmarks(spec, FAST)
    # 2 sizes x 2 seeds x 2 structures x 8 operations
    assert len(rows) == 2 * 2 * 2 * 8
    assert {(r.size_exponent, r.seed) for r in rows} == {(x, s) for x in (2, 3) for s in (0, 1)}
    assert {r.structure for r in rows} == {"multimap", "map_of_sets"}

    pure = WorkloadSpec(size_exponents=(2,), seeds=1, mix=1.0)
    assert {r.structure for r in run_benchmarks(pure, FAST)} == {
        "multimap",
        "map_of_sets",
        "map",
    }


def test_explicit_structure_selection_is_honored(one_call_per_sample):
    spec = WorkloadSpec(size_exponents=(3,), seeds=1, mix=0.5)
    rows = run_benchmarks(spec, FAST, structures=["multimap"])
    assert {r.structure for r in rows} == {"multimap"}
    assert len(rows) == 8


def test_only_the_named_operations_are_timed(monkeypatch, one_call_per_sample):
    timed = []
    original = bench._time_interleaved

    def recording(calls, config):
        timed.append(len(calls))
        return original(calls, config)

    monkeypatch.setattr(bench, "_time_interleaved", recording)
    spec = WorkloadSpec(size_exponents=(3,), seeds=2, mix=1.0)
    rows = run_benchmarks(spec, FAST, ["multimap", "map"], ("lookup",))
    # one timed call per cell, of both structures, and one row each
    assert timed == [2, 2]
    assert [(r.structure, r.operation, r.seed) for r in rows] == [
        (name, "lookup", seed) for seed in (0, 1) for name in ("multimap", "map")
    ]
    for bad in ((), ("lookup", "sort")):
        with pytest.raises(ConfigurationError):
            run_benchmarks(spec, FAST, ["multimap"], bad)


def test_a_cells_samples_alternate_across_its_structures(monkeypatch, one_call_per_sample):
    # each structure is calibrated (one call) and warmed up (two iterations
    # of one call) on its own; then sample i of every structure is taken
    # before sample i + 1 of any, starting at names[first]
    log = []

    def recording(adapter, base, dataset):
        def call(operation):
            return lambda: log.append((adapter.name, operation))

        return {operation: (call(operation), 1) for operation in OPERATIONS}

    monkeypatch.setattr(bench, "_op_callables", recording)
    d = generate_workload(small_spec(), 16, seed=0)
    config = BenchConfig(warmup_iterations=2, measured_iterations=3)
    names = ["multimap", "map_of_sets"]
    for first in (0, 1):
        log.clear()
        rows = bench._run_cell(names, d, config, first)
        assert [(r.structure, r.operation) for r in rows] == [
            (name, operation) for name in names for operation in OPERATIONS
        ]
        a, b = names[first:] + names[:first]
        per_operation = [a] * 3 + [b] * 3 + [a, b] * 3
        assert log == [
            (name, operation) for operation in OPERATIONS for name in per_operation
        ]


# -- footprint comparison -------------------------------------------------------------


def test_footprint_rows_pair_multimap_with_its_baseline():
    rows = run_footprint([4, 6])
    assert [(r.structure, r.size_exponent) for r in rows] == [
        ("multimap", 4),
        ("map_of_sets", 4),
        ("multimap", 6),
        ("map_of_sets", 6),
    ]
    for mm, base in zip(rows[::2], rows[1::2]):
        assert base.ratio_vs_baseline == 1.0
        assert mm.ratio_vs_baseline == round(base.words_total / mm.words_total, 4)
        assert mm.words_total < base.words_total
        assert mm.nodes < base.nodes
        assert base.bytes_ratio_vs_baseline == 1.0
        assert mm.bytes_ratio_vs_baseline == round(base.bytes_total / mm.bytes_total, 4)
        assert mm.bytes_total < base.bytes_total
    assert rows == run_footprint([4, 6])  # fully deterministic


def test_footprint_on_pure_one_to_one_still_reports_both_rows():
    rows = run_footprint([5], mix=1.0)
    assert {r.structure for r in rows} == {"multimap", "map_of_sets"}
    mm = next(r for r in rows if r.structure == "multimap")
    assert mm.ratio_vs_baseline > 1.0


def test_the_readme_footprint_table_matches_run_footprint():
    # the modeled cells, words per tuple and their bytes at 8 and 4 B per
    # word, and the words with one more per node that holds a pair entry;
    # the real-byte cells are the CPython build's
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    dataset = generate_workload(WorkloadSpec(mix=0.5), 1 << 14, 0)
    tuples = len(dataset.entries)
    assert f"{tuples:,} tuples" in readme
    words = {r.structure: r.words_total for r in run_footprint([14], mix=0.5, seed=0)}
    per_tuple = [words[s] / tuples for s in ("multimap", "map_of_sets")]
    mm = _adapter("multimap").build(dataset)
    nodes = list(walk(mm._cfg.width, mm._root))
    planes = sum(1 for _, _, _, end_i, end_p, _ in nodes if end_p > end_i)
    prose = " ".join(readme.split())
    assert f"{planes:,} of the multimap's {len(nodes):,} nodes" in prose
    # a map's and a set's nodes hold no pair entries, so the baseline's
    # words do not change
    with_planes = [(words["multimap"] + planes) / tuples, per_tuple[1]]
    expected = {
        "modeled words": [f"{w:.3f}" for w in per_tuple],
        "modeled words at 8 B each": [f"{8 * w:.1f} B" for w in per_tuple],
        "modeled words at 4 B each": [f"{4 * w:.1f} B" for w in per_tuple],
        "modeled words, pair plane as a second bitmap word": [
            f"{w:.3f}" for w in with_planes
        ],
    }
    for label, cells in expected.items():
        row = next(line for line in readme.splitlines() if line.startswith(f"| {label} |"))
        assert [c.strip() for c in row.strip("|").split("|")][1:] == cells, label


# -- report writers ---------------------------------------------------------------------


def test_bench_csv_layout_is_stable():
    rows = [
        BenchRow("multimap", "lookup", 6, 0, 123.4, 5.6),
        BenchRow("map", "insert_fail", 8, 2, 99.0, 0.0),
    ]
    out = io.StringIO()
    write_csv(rows, BENCH_COLUMNS, out)
    assert out.getvalue() == (
        "structure,operation,size_exponent,seed,median_ns,mad_ns\n"
        "multimap,lookup,6,0,123.4,5.6\n"
        "map,insert_fail,8,2,99.0,0.0\n"
    )


def test_footprint_csv_has_the_documented_columns():
    out = io.StringIO()
    write_csv(run_footprint([4]), FOOTPRINT_COLUMNS, out)
    header, first, *_ = out.getvalue().splitlines()
    assert header == ",".join(FOOTPRINT_COLUMNS)
    assert first.startswith("multimap,4,")


def test_json_report_carries_metadata_and_rows():
    rows = [BenchRow("multimap", "lookup", 6, 0, 123.4, 5.6)]
    out = io.StringIO()
    write_json(rows, BENCH_COLUMNS, out, "2026-01-01T00:00:00+00:00", config={"seeds": 1})
    text = out.getvalue()
    assert text.endswith("\n")
    document = json.loads(text)
    assert document["metadata"]["generated_at"] == "2026-01-01T00:00:00+00:00"
    assert document["metadata"]["config"] == {"seeds": 1}
    assert document["metadata"]["model"] == {"specialize": True}
    assert document["rows"] == [
        {c: getattr(rows[0], c) for c in BENCH_COLUMNS}
    ]
    # run metadata: where the report was produced
    metadata = document["metadata"]
    assert metadata["python"] == platform.python_version()
    assert metadata["platform"] == platform.platform()
    assert metadata["cpu_count"] == os.cpu_count()
    rev = metadata["git_rev"]
    assert rev is None or re.fullmatch("[0-9a-f]{40}", rev)


def test_git_revision_is_null_outside_a_checkout(tmp_path):
    assert _git_revision(tmp_path) is None


def test_dataset_shape_is_frozen():
    d = generate_workload(small_spec(), 8, seed=0)
    assert isinstance(d, Dataset)
    with pytest.raises(AttributeError):
        d.size = 9
