"""Check that two checkouts give the same ``leantrie`` reports.

Usage, from anywhere::

    python3 tools/same_behaviour.py PARENT_DIR CHANGE_DIR

Runs ``leantrie footprint --format json`` and ``leantrie dominators
--format json`` with their default workloads and a pinned ``--timestamp``
in each checkout, from its ``src`` directory, and compares the two
reports of each command: every row except its measured ``runtime_ns``,
in order, and the metadata except ``git_rev``.  Values compare as their
JSON text, so ``1`` and ``1.0`` differ.  Prints one line per command,
the first difference where the reports differ, and exits 0 when every
command agrees and 1 otherwise.  A command that exits non-zero in either
checkout stops the check with exit status 2, printing the checkout, the
command, the exit code and the tail of its stderr.  A refactor that claims no behaviour
change is checked this way; a change that moves one report is checked
for the others.
"""

import argparse
import json
import os
import sys
from itertools import zip_longest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import RunFailed, run_child  # noqa: E402  (a sibling script)

TIMESTAMP = "2026-01-01T00:00:00+00:00"
REPORT = ["--format", "json", "--timestamp", TIMESTAMP, "--output", "-"]
COMMANDS = {
    "footprint": ["footprint", *REPORT],
    "dominators": ["dominators", *REPORT],
}
IGNORED_ROW_KEYS = {"runtime_ns"}
IGNORED_METADATA_KEYS = {"git_rev"}


def run_report(checkout, command):
    """The JSON report of ``leantrie <command>`` run from ``checkout``."""
    checkout = Path(checkout).resolve()  # the run's cwd is the checkout itself
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    proc = run_child([sys.executable, "-m", "leantrie.cli", *command], checkout, env)
    return json.loads(proc.stdout)


def _kept(record, ignored):
    """``record`` without the ``ignored`` keys, as canonical JSON text."""
    if record is None:
        return None
    kept = {k: v for k, v in record.items() if k not in ignored}
    return json.dumps(kept, sort_keys=True)


def first_difference(parent, change):
    """The first difference between two reports as one line, or None."""
    a = _kept(parent["metadata"], IGNORED_METADATA_KEYS)
    b = _kept(change["metadata"], IGNORED_METADATA_KEYS)
    if a != b:
        return f"metadata differs: parent {a}, change {b}"
    rows = zip_longest(parent["rows"], change["rows"])
    for i, (row_a, row_b) in enumerate(rows):
        a = _kept(row_a, IGNORED_ROW_KEYS)
        b = _kept(row_b, IGNORED_ROW_KEYS)
        if a != b:
            return f"row {i} differs: parent {a}, change {b}"
    return None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="checkout of the parent commit")
    parser.add_argument("change", help="checkout of the change")
    args = parser.parse_args(argv)
    status = 0
    for name, command in COMMANDS.items():
        try:
            parent = run_report(args.parent, command)
            change = run_report(args.change, command)
        except RunFailed as failed:
            print(f"same_behaviour: {failed}", file=sys.stderr)
            return 2
        difference = first_difference(parent, change)
        if difference is None:
            print(f"{name}: {len(parent['rows'])} rows, same")
        else:
            print(f"{name}: {difference}")
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
