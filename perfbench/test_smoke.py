"""Smoke test of the benchmark at a tiny size.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/test_smoke.py
"""

import gc
import json
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import determinism  # noqa: E402
import hostspeed  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402
from units import END_TO_END_UNITS, PER_LAYER_UNITS  # noqa: E402

import leantrie  # noqa: E402
from leantrie import bench, dominators  # noqa: E402


def _run(cwd, *args):
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def test_benchmark_json_declares_what_the_runs_emit():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_workload_emits_every_metric(workload, trace):
    done = _run(
        ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
        "--trace", str(trace), "--scale", "tiny",
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    info = json.loads(lines[-2].split(" ", 1)[1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert info["failed_ops_ratio"] == 0
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    assert {k: m["unit"] for k, m in result["metrics"].items()} == units
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if not trace:
        assert min(info["samples"].values()) >= 1000
        for key in ("python", "platform", "nproc", "git_rev", "seed", "gc_thresholds"):
            assert key in info["metadata"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_count_metrics_repeat_exactly(workload):
    first = determinism.count_metrics(workload, 5, "tiny")
    second = determinism.count_metrics(workload, 5, "tiny")
    assert set(first) == set(determinism.COUNT_METRICS)
    assert first == second


def test_gates_count_one_wrong_answer():
    pairs = [(k, v) for k in range(40) for v in range(k % 3 + 1)]
    model = oracle.model_of(pairs)
    stream = oracle.OpStream(model, 400, seed=9)
    base = leantrie.multimap(pairs)

    def one_pass(tally):
        workloads.run_rounds(
            workloads.points_phase(base, stream, 1, 2, tally, SimpleNamespace())
        )

    tally = workloads.Tally()
    one_pass(tally)
    assert tally.failed == 0
    i = next(i for i, op in enumerate(stream.ops) if op[0] == oracle.LOOKUP)
    stream.expected[i] = not stream.expected[i]
    one_pass(tally)
    assert tally.failed == 1 and tally.failed / tally.attempted > 0

    # one tuple the structure lacks, and the tuple count it then gets wrong
    wrong_model = oracle.model_of(pairs + [(0, 99)])
    assert oracle.check_multimap(base, wrong_model, leantrie.check_invariants)[1] == 2

    graph = dominators.random_cfg(64, 4)
    dom = dominators.compute_dominators(graph)
    assert oracle.check_dominators(graph, dom)[1] == 0
    v = next(k for k in dom.keys() if k != graph.entry)
    assert oracle.check_dominators(graph, dom.remove(v, graph.entry))[1] == 1


@pytest.mark.parametrize("mix", [0.5, 0.9])
def test_object_bytes_match_what_tracemalloc_sees_a_copy_allocate(mix):
    spec = bench.WorkloadSpec(mix=mix)
    mm = leantrie.multimap(bench.generate_workload(spec, 4096, 1).entries)
    pairs = list(mm.items())
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        copy = leantrie.multimap(pairs)
        gc.collect()
        traced = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    walked = workloads.object_bytes([copy])
    assert abs(walked - traced) <= 0.01 * traced + 4096


def test_times_are_unchanged_at_the_nominal_host_speed():
    nominal = hostspeed.NOMINAL_NS
    assert hostspeed.Speedometer.factor(nominal, nominal) == 1
    # a host twice as slow halves a measured time, from either side
    assert hostspeed.Speedometer.factor(nominal, 3 * nominal) == 0.5
    assert workloads.scaled(None, None, 123) == 123
    speed = hostspeed.Speedometer()
    assert speed.sample() > 0 and len(speed.samples) == 1
    assert "leantrie" not in vars(hostspeed)


def test_run_without_the_library_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    ignore = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=ignore)
    done = _run(
        tmp_path, "--workload", "build", "--seed", "1", "--seconds", "1", "--trace", "0"
    )
    assert done.returncode != 0
    assert not done.stdout.strip()
