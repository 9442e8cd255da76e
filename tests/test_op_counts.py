"""The bytecode counts of ``tools/op_counts.py``."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "op_counts.py"
_spec = importlib.util.spec_from_file_location("op_counts", TOOL)
op_counts = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(op_counts)
KINDS = ("put", "remove", "contains_entry")


def _run(*args):
    proc = subprocess.run(
        [sys.executable, str(TOOL), str(ROOT), "--keys", "64", "--ops", "40", *args],
        capture_output=True,
        text=True,
        check=True,
    )
    return proc.stdout


def _counts(*args):
    return json.loads(_run("--format", "json", *args))


def test_two_runs_count_the_same_bytecodes():
    first = _counts()
    assert first == _counts()
    assert tuple(first) == KINDS
    for kind in KINDS:
        assert first[kind]["ops"] == (20 if kind == "contains_entry" else 10)
        by_function = first[kind]["by_function"]
        # each function's count is rounded to 0.1 on its own
        slack = 0.05 * (len(by_function) + 1)
        assert sum(by_function.values()) == pytest.approx(first[kind]["total"], abs=slack)
    assert "nodes._update" in first["put"]["by_function"]
    assert "nodes._lookup" in first["contains_entry"]["by_function"]


def test_another_seed_draws_other_operations():
    assert _counts("--seed", "2") != _counts()


TRANSITIONS = {
    "put": ("new key", "1 -> 2", "2 -> 3", "3 -> 4"),
    "remove": ("1 -> 0", "2 -> 1", "3 -> 2"),
}


def test_puts_and_removes_split_by_the_keys_value_count():
    result = _counts()
    assert "transitions" not in result["contains_entry"]
    for kind, names in TRANSITIONS.items():
        rows = result[kind]["transitions"]
        assert tuple(rows) == names
        # every operation falls in one row, and the rows' bytecodes add up
        # to the kind's (each total is rounded to 0.1 on its own)
        assert sum(r["ops"] for r in rows.values()) == result[kind]["ops"]
        spent = sum(r["ops"] * r["total"] for r in rows.values() if r["ops"])
        slack = 0.05 * sum(r["ops"] for r in rows.values()) + 0.05 * result[kind]["ops"]
        assert spent == pytest.approx(result[kind]["ops"] * result[kind]["total"], abs=slack)
        for r in rows.values():
            assert (r["total"] is None) == (r["ops"] == 0)
    assert result["put"]["transitions"]["new key"]["ops"] > 0


def test_third_values_give_the_nested_set_rows_ops():
    plain = _counts()
    for kind, t in (("put", "3 -> 4"), ("remove", "3 -> 2")):
        assert plain[kind]["transitions"][t]["ops"] == 0
    result = _counts("--mix", "0.5", "--third", "0.5")
    for kind, t in (("put", "3 -> 4"), ("remove", "3 -> 2")):
        row = result[kind]["transitions"][t]
        assert row["ops"] > 0 and row["total"] > 0, (kind, t)


@pytest.mark.parametrize("args", [(), ("--mix", "0.5", "--third", "0.5")], ids=["plain", "nested"])
def test_two_build_counts_repeat_exactly(args):
    first = _counts("--layer", "build", *args)
    assert first == _counts("--layer", "build", *args)
    assert first["keys"] == 64 and first["tuples"] >= first["keys"]
    assert first["nodes"] > 0 and first["transient_bytes_per_key"] > 0
    per_key = first["bytecodes_per_key"]
    assert per_key["ops"] == first["keys"]
    for name in ("nodes.build_root", "nodes._partition"):
        assert per_key["by_function"][name] > 0
    slack = 0.05 * (len(per_key["by_function"]) + 1)
    assert sum(per_key["by_function"].values()) == pytest.approx(per_key["total"], abs=slack)


def test_two_footprint_counts_repeat_exactly():
    first = _counts("--layer", "footprint", "--mix", "0.5", "--third", "0.5")
    assert first == _counts("--layer", "footprint", "--mix", "0.5", "--third", "0.5")
    assert first["nodes"] > 0
    for measure in ("footprint", "byte_components"):
        per_node = first[measure]
        assert per_node["ops"] == first["nodes"]
        assert per_node["by_function"][f"storage.{measure}"] > 0
        assert per_node["by_function"]["storage._reached"] > 0
        slack = 0.05 * (len(per_node["by_function"]) + 1)
        assert sum(per_node["by_function"].values()) == pytest.approx(per_node["total"], abs=slack)


def test_two_dominator_counts_repeat_exactly():
    args = ("--layer", "dominators", "--vertices", "32", "--graphs", "2")
    first = _counts(*args)
    assert first == _counts(*args)
    assert (first["graphs"], first["vertices"]) == (2, 32.0)
    # the first pass evaluates every vertex but the entry, and a second
    # pass always runs, since the first one stored every set
    assert first["evaluations"] >= 31 and first["passes"] >= 2
    per_eval = first["bytecodes_per_evaluation"]
    assert per_eval["ops"] == round(2 * first["evaluations"])
    for name in ("dominators._dominator_fixpoint", "maps.PersistentMultiMap.put_all"):
        assert per_eval["by_function"][name] > 0
    slack = 0.05 * (len(per_eval["by_function"]) + 1)
    assert sum(per_eval["by_function"].values()) == pytest.approx(per_eval["total"], abs=slack)
    # both figures divide one count, each rounded to 0.1 on its own
    spent = per_eval["total"] * per_eval["ops"]
    slack = 0.05 + 0.05 * per_eval["ops"] / 64
    assert first["bytecodes_per_vertex"] == pytest.approx(spent / 64, abs=slack)


# each layer's arguments and the columns of its table
LAYERS = {
    "point": ((), list(KINDS)),
    "build": ((), ["bytecodes_per_key"]),
    "footprint": (("--mix", "0.5", "--third", "0.5"), ["footprint", "byte_components"]),
    "dominators": (("--vertices", "32", "--graphs", "2"), ["bytecodes_per_evaluation"]),
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
        [f"{kind} {t}", str(r["ops"]), "-" if r["total"] is None else f"{r['total']:.1f}"]
        for kind in (TRANSITIONS if layer == "point" else ())
        for t, r in result[kind]["transitions"].items()
    ]
    # a run in table format, the default, prints the same rows
    run = _run("--layer", layer, *args).splitlines()
    assert _row_names(run) == _row_names(lines)


@pytest.mark.parametrize("lines", [0, 1], ids=["before-the-first-line", "after-one-line"])
def test_a_reader_that_closes_early_ends_the_run_quietly(lines):
    # as ``op_counts.py ... | head -1`` does; a reader that closes before
    # the first line makes every write fail
    proc = subprocess.Popen(
        [sys.executable, str(TOOL), str(ROOT), "--keys", "64", "--ops", "40", "--format", "json"],
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
