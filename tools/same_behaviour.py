"""Check that two checkouts give the same ``leantrie`` reports.

Usage, from anywhere::

    python3 tools/same_behaviour.py PARENT_DIR CHANGE_DIR

Runs ``leantrie footprint --format json`` and ``leantrie dominators
--format json`` with their default workloads and a pinned ``--timestamp``
in each checkout, from its ``src`` directory, and compares the two
reports of each command: every row except its measured ``runtime_ns``,
in order, and the metadata except ``git_rev``.  Values compare as their
JSON text, so ``1`` and ``1.0`` differ.  Prints one line per command
when its reports agree; where they differ, one line for the metadata
difference and one for the first differing row, each with the keys whose
values differ in it, so a metadata change does not hide a row change.
Exits 0 when every command agrees and 1 otherwise.  A command that exits
non-zero in either checkout stops the check with exit status 2, printing
the checkout, the command, the exit code and the tail of its stderr.  A
refactor that claims no behaviour change is checked this way; a change
that moves one report is checked for the others.
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


def differing_keys(a, b, ignored):
    """The keys, in sorted order, whose values differ as JSON text between
    the records ``a`` and ``b``, a key on one side only included."""
    return sorted(
        k
        for k in (a.keys() | b.keys()) - ignored
        if k not in a or k not in b or json.dumps(a[k]) != json.dumps(b[k])
    )


def _difference(what, record_a, record_b, ignored):
    """One line naming how ``record_a`` and ``record_b`` differ, or None."""
    a = _kept(record_a, ignored)
    b = _kept(record_b, ignored)
    if a == b:
        return None
    if record_a is None or record_b is None:
        return f"{what} differs: parent {a}, change {b}"
    keys = ", ".join(differing_keys(record_a, record_b, ignored))
    return f"{what} differs: keys {keys}; parent {a}, change {b}"


def first_difference(parent, change):
    """How two reports differ, or None: the metadata difference and the
    first row that differs, one line each, with the keys that differ in
    it."""
    lines = [_difference("metadata", parent["metadata"], change["metadata"], IGNORED_METADATA_KEYS)]
    rows = zip_longest(parent["rows"], change["rows"])
    for i, (row_a, row_b) in enumerate(rows):
        found = _difference(f"row {i}", row_a, row_b, IGNORED_ROW_KEYS)
        if found is not None:
            lines.append(found)
            break
    return "\n".join(filter(None, lines)) or None


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
            for line in difference.splitlines():
                print(f"{name}: {line}")
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
