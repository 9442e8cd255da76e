"""The report comparison of the same-behaviour check (``tools/same_behaviour.py``)."""

import copy
import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "same_behaviour.py"
_spec = importlib.util.spec_from_file_location("same_behaviour", _PATH)
same_behaviour = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_behaviour)


def _report(**metadata):
    return {
        "metadata": {"generated_at": "pinned", "git_rev": "aaa", **metadata},
        "rows": [
            {"graph_name": "g0", "dom_iterations": 2, "runtime_ns": 10},
            {"graph_name": "g1", "dom_iterations": 3, "runtime_ns": 20},
        ],
    }


def test_reports_that_differ_only_in_runtime_and_revision_agree():
    parent = _report()
    change = _report()
    change["metadata"]["git_rev"] = "bbb"
    for row in change["rows"]:
        row["runtime_ns"] *= 7
    assert same_behaviour.first_difference(parent, change) is None


def test_the_first_differing_row_is_named_with_both_sides():
    parent = _report()
    change = copy.deepcopy(parent)
    change["rows"][1]["dom_iterations"] = 4
    difference = same_behaviour.first_difference(parent, change)
    assert difference.startswith("row 1 differs:")
    assert '"dom_iterations": 3' in difference and '"dom_iterations": 4' in difference
    assert "runtime_ns" not in difference


def test_the_first_difference_names_the_keys_that_differ():
    parent = _report()
    change = copy.deepcopy(parent)
    change["rows"][0]["runtime_ns"] = 99  # ignored, so row 0 agrees
    change["rows"][1].update(dom_iterations=4, graph_name="h1", bytes_trie=8)
    difference = same_behaviour.first_difference(parent, change)
    assert difference.startswith("row 1 differs: keys bytes_trie, dom_iterations, graph_name; ")
    # a key compares as JSON text too, and the metadata names its keys
    change = copy.deepcopy(parent)
    change["rows"][0]["dom_iterations"] = 2.0
    assert same_behaviour.first_difference(parent, change).startswith(
        "row 0 differs: keys dom_iterations; parent "
    )
    other = _report(config={"graphs": 2})
    other["metadata"]["git_rev"] = "bbb"
    assert same_behaviour.first_difference(parent, other).startswith(
        "metadata differs: keys config; parent "
    )


def test_a_metadata_difference_does_not_hide_a_row_difference(monkeypatch, capsys):
    parent = _report(model={"specialize": True, "slot_words": 1})
    change = _report(model={"specialize": True})
    change["rows"][1]["dom_iterations"] = 4
    metadata, row = same_behaviour.first_difference(parent, change).split("\n")
    assert metadata.startswith("metadata differs: keys model; parent ")
    assert row.startswith("row 1 differs: keys dom_iterations; parent ")
    # main prints each line under the command's name and exits 1
    reports = {"parent": parent, "change": change}
    monkeypatch.setattr(same_behaviour, "run_report", lambda checkout, command: reports[checkout])
    assert same_behaviour.main(["parent", "change"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(": ", 1) for line in lines] == [
        [name, text] for name in same_behaviour.COMMANDS for text in (metadata, row)
    ]


def test_values_compare_as_json_text():
    parent = _report()
    change = copy.deepcopy(parent)
    change["rows"][0]["dom_iterations"] = 2.0  # equal in Python, not in JSON
    assert same_behaviour.first_difference(parent, change).startswith("row 0 differs:")


def test_a_missing_row_or_a_metadata_change_is_a_difference():
    parent = _report()
    shorter = copy.deepcopy(parent)
    del shorter["rows"][1]
    assert same_behaviour.first_difference(parent, shorter) == (
        'row 1 differs: parent {"dom_iterations": 3, "graph_name": "g1"}, change None'
    )
    other = _report(config={"graphs": 2})
    assert same_behaviour.first_difference(parent, other).startswith("metadata differs:")


def test_both_commands_pin_the_timestamp_and_ask_for_json():
    for command in same_behaviour.COMMANDS.values():
        assert command[command.index("--format") + 1] == "json"
        assert command[command.index("--timestamp") + 1] == same_behaviour.TIMESTAMP


def test_a_relative_checkout_path_runs_its_own_source(monkeypatch):
    root = _PATH.parent.parent
    monkeypatch.chdir(root.parent)
    command = ["footprint", "--sizes", "6", *same_behaviour.REPORT]
    report = same_behaviour.run_report(root.name, command)
    assert [row["size_exponent"] for row in report["rows"]] == [6, 6]


def test_a_checkout_without_sources_stops_the_check_with_its_stderr(tmp_path, capsys):
    root = _PATH.parent.parent
    bare = tmp_path / "bare"  # fails first, so the repository's run never starts
    bare.mkdir()
    assert same_behaviour.main([str(bare), str(root)]) == 2
    err = capsys.readouterr().err
    assert f"same_behaviour: run failed in {bare}" in err
    assert "-m leantrie.cli footprint --format json" in err
    assert "exit code: 1" in err
    assert "No module named 'leantrie'" in err
