"""The bytecode counts of ``tools/op_counts.py``."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "op_counts.py"
KINDS = ("put", "remove", "contains_entry")


def _counts(*args):
    proc = subprocess.run(
        [sys.executable, str(TOOL), str(ROOT), "--keys", "64", "--ops", "40", "--format", "json", *args],
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout)


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
    assert "nodes.TrieNode.update" in first["put"]["by_function"]
    assert "nodes.TrieNode.lookup" in first["contains_entry"]["by_function"]


def test_another_seed_draws_other_operations():
    assert _counts("--seed", "2") != _counts()
