"""The bytecode counts of ``tools/op_counts.py``, on perfbench's own inputs at
its tiny scale."""

import importlib.util
import json
import subprocess
import sys
from collections import Counter
from functools import cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "op_counts.py"
_spec = importlib.util.spec_from_file_location("op_counts", TOOL)
op_counts = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(op_counts)
WORKLOADS = ("build", "mixed", "dominators")
OPS = 400


def _run(*args):
    proc = subprocess.run(
        [sys.executable, str(TOOL), str(ROOT), "--scale", "tiny", "--ops", str(OPS), *args],
        capture_output=True,
        text=True,
        check=True,
    )
    return proc.stdout


def _counts(*args):
    return json.loads(_run("--format", "json", *args))


@cache
def _point(workload):
    return _counts("--workload", workload)


@cache
def _set_up(workload, seed=1):
    return op_counts.set_up(ROOT, workload, "tiny", seed)


def _assert_by_function_adds_up(per_op):
    # each function's count is rounded to 0.1 on its own
    slack = 0.05 * (len(per_op["by_function"]) + 1)
    assert sum(per_op["by_function"].values()) == pytest.approx(per_op["total"], abs=slack)


def test_two_runs_count_the_same_bytecodes():
    first = _counts("--workload", "mixed")
    assert first == _counts("--workload", "mixed")
    assert tuple(first) == op_counts.METHODS
    for method in op_counts.METHODS:
        _assert_by_function_adds_up(first[method])
    assert "nodes._update" in first["put"]["by_function"]
    assert "nodes._lookup" in first["contains_entry"]["by_function"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_the_point_layer_counts_the_streams_own_operations(workload):
    _, inp, _ = _set_up(workload)
    drawn = Counter(op_counts.METHODS[kind] for kind, _, _ in inp.stream.ops[:OPS])
    assert {m: r["ops"] for m, r in _point(workload).items()} == drawn


def test_another_seed_draws_other_operations():
    assert _counts("--workload", "mixed", "--seed", "2") != _point("mixed")


def _drawn_transitions(workload):
    """``{method: {transition: ops}}`` of the stream's first updates,
    replayed in a closed loop from the workload's base multimap."""
    _, inp, _ = _set_up(workload)
    mm = inp.base
    drawn = {"put": Counter(), "remove": Counter()}
    for kind, k, v in inp.stream.ops[:OPS]:
        method = op_counts.METHODS[kind]
        if method != "contains_entry":
            drawn[method][op_counts.transition(method, len(mm.get(k)))] += 1
            mm = getattr(mm, method)(k, v)
    return drawn


def test_puts_and_removes_split_by_the_keys_value_count():
    for workload in WORKLOADS:
        result = _point(workload)
        assert "transitions" not in result["contains_entry"]
        for method, drawn in _drawn_transitions(workload).items():
            rows = result[method]["transitions"]
            # one row per transition drawn, in order of the value count
            assert {t: r["ops"] for t, r in rows.items()} == drawn
            assert list(rows) == sorted(rows, key=lambda t: int(t.split()[0]) if "->" in t else 0)
            # every operation falls in one row, and the rows' bytecodes add
            # up to the kind's (each total is rounded to 0.1 on its own)
            assert sum(r["ops"] for r in rows.values()) == result[method]["ops"]
            spent = sum(r["ops"] * r["total"] for r in rows.values())
            slack = 0.05 * sum(r["ops"] for r in rows.values()) + 0.05 * result[method]["ops"]
            assert spent == pytest.approx(result[method]["ops"] * result[method]["total"], abs=slack)
        assert result["put"]["transitions"]["new key"]["ops"] > 0


def test_third_values_give_the_nested_set_rows_ops():
    # the build workload's 50:50 keys take third values from its own stream
    result = _point("build")
    for method, t in (("put", "2 -> 3"), ("put", "3 -> 4"), ("remove", "3 -> 2")):
        row = result[method]["transitions"][t]
        assert row["ops"] > 0 and row["total"] > 0, (method, t)


def _built_tuples(workload):
    _, inp, _ = _set_up(workload)
    if workload == "dominators":
        return len(set(inp.graphs[0].edges))
    return len((inp.datasets[0] if workload == "build" else inp.builds[0]).entries)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_two_build_counts_repeat_exactly(workload):
    first = _counts("--layer", "build", "--workload", workload)
    assert first == _counts("--layer", "build", "--workload", workload)
    assert first["tuples"] == _built_tuples(workload) >= first["keys"]
    assert first["nodes"] > 0 and first["transient_bytes_per_key"] > 0
    per_key = first["bytecodes_per_key"]
    assert per_key["ops"] == first["keys"]
    for name in ("nodes.build_root", "nodes._partition"):
        assert per_key["by_function"][name] > 0
    _assert_by_function_adds_up(per_key)


def test_two_footprint_counts_repeat_exactly():
    # the dominators workload's base holds nested sets
    first = _counts("--layer", "footprint", "--workload", "dominators")
    assert first == _counts("--layer", "footprint", "--workload", "dominators")
    leantrie, inp, _ = _set_up("dominators")
    assert first["nodes"] == op_counts.node_count(leantrie, inp.base)
    assert leantrie.structure_stats(inp.base)["nested_set_nodes"] > 0
    for measure in ("footprint", "byte_components"):
        per_node = first[measure]
        assert per_node["ops"] == first["nodes"]
        assert per_node["by_function"][f"storage.{measure}"] > 0
        assert per_node["by_function"]["storage._reached"] > 0
        _assert_by_function_adds_up(per_node)


def test_two_dominator_counts_repeat_exactly():
    args = ("--layer", "dominators", "--workload", "dominators")
    first = _counts(*args)
    assert first == _counts(*args)
    _, inp, sc = _set_up("dominators")
    graphs = inp.graphs[: sc.trace_graphs]
    n, vertices = len(graphs), graphs[0].vertex_count
    assert (first["graphs"], first["vertices"]) == (n, vertices)
    # the first pass evaluates every vertex but the entry, and a second
    # pass always runs, since the first one stored every set
    assert first["evaluations"] >= vertices - 1 and first["passes"] >= 2
    per_eval = first["bytecodes_per_evaluation"]
    assert per_eval["ops"] == round(n * first["evaluations"])
    for name in ("dominators._dominator_fixpoint", "maps.PersistentMultiMap.put_all"):
        assert per_eval["by_function"][name] > 0
    _assert_by_function_adds_up(per_eval)
    # both figures divide one count, each rounded to 0.1 on its own
    spent = per_eval["total"] * per_eval["ops"]
    slack = 0.05 + 0.05 * per_eval["ops"] / (n * vertices)
    assert first["bytecodes_per_vertex"] == pytest.approx(spent / (n * vertices), abs=slack)


# each layer's arguments and the columns of its table
LAYERS = {
    "point": (("--workload", "build"), list(op_counts.METHODS)),
    "build": (("--workload", "mixed"), ["bytecodes_per_key"]),
    "footprint": (("--workload", "dominators"), ["footprint", "byte_components"]),
    "dominators": (("--workload", "dominators"), ["bytecodes_per_evaluation"]),
}


def _row_names(lines):
    # a name holds at most single spaces, and two or more end it
    return [line.split("  ")[0] for line in lines]


@pytest.mark.parametrize("layer", LAYERS)
def test_the_table_shows_the_report(layer):
    # the table of one run's own report: the tracemalloc peak behind
    # transient_bytes_per_key is not asserted to repeat across processes
    args, columns = LAYERS[layer]
    result = _counts("--layer", layer, *args)
    unit = op_counts.LAYERS[layer][1]
    lines = op_counts.table(result, unit).splitlines()
    assert lines[0].rsplit(None, len(columns)) == [unit, *columns]
    blank = lines.index("") if "" in lines else len(lines)
    # a function's name may hold a space (``<frozen abc>.ABCMeta...``), a
    # figure's key does not
    split = [line.rsplit(None, len(columns)) for line in lines[1:blank]]
    rows = {name: cells for name, *cells in split}
    functions = {name for c in columns for name in result[c]["by_function"]}
    expected = {
        "total": [f"{result[c]['total']:.1f}" for c in columns],
        "ops": [str(result[c]["ops"]) for c in columns],
        **{
            name: [f"{result[c]['by_function'].get(name, 0):.1f}" for c in columns]
            for name in functions
        },
        **{key: [str(value)] for key, value in result.items() if key not in columns},
    }
    assert rows == expected
    transitions = [line.rsplit(None, 2) for line in lines[blank + 2 :]]
    assert transitions == [
        [f"{c} {t}", str(r["ops"]), f"{r['total']:.1f}"]
        for c in columns
        for t, r in result[c].get("transitions", {}).items()
    ]
    assert bool(transitions) == (layer == "point")
    # a run in table format, the default, prints the same rows
    run = _run("--layer", layer, *args).splitlines()
    assert _row_names(run) == _row_names(lines)


@pytest.mark.parametrize("lines", [0, 1], ids=["before-the-first-line", "after-one-line"])
def test_a_reader_that_closes_early_ends_the_run_quietly(lines):
    # as ``op_counts.py ... | head -1`` does; a reader that closes before
    # the first line makes every write fail
    proc = subprocess.Popen(
        [
            sys.executable, str(TOOL), str(ROOT), "--workload", "mixed", "--scale", "tiny",
            "--ops", "40", "--format", "json",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    for _ in range(lines):
        assert proc.stdout.readline() == "{\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(), err) == (0, "")
