"""Check that two runs on one seed give exactly equal count metrics.

Usage, from the root of a checkout::

    python3 perfbench/determinism.py --workload mixed --seed 1 [--scale tiny]

Runs ``run.py`` twice untraced and twice traced, compares every metric in
``units.COUNT_METRICS`` for exact equality, prints one JSON line and exits
non-zero on any mismatch, missing metric or failed correctness gate.  The
runs themselves refuse non-int keys or values, which would make counts
depend on ``PYTHONHASHSEED``.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

from units import COUNT_METRICS

HERE = Path(__file__).resolve().parent


def run_once(workload, seed, trace, scale, seconds=1):
    cmd = [
        sys.executable,
        str(HERE / "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--scale", scale,
    ]
    done = subprocess.run(
        cmd, cwd=HERE.parent, capture_output=True, text=True, check=True, timeout=900
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def count_metrics(workload, seed, scale):
    """The count metrics of one untraced and one traced run."""
    values = {}
    for trace in (0, 1):
        result = run_once(workload, seed, trace, scale)
        if not result["correct"]:
            raise RuntimeError(f"{workload} trace={trace}: correctness gate failed")
        for name, metric in result["metrics"].items():
            if name in COUNT_METRICS:
                values[name] = metric["value"]
    return values


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("build", "mixed", "dominators"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = p.parse_args(argv)
    first = count_metrics(args.workload, args.seed, args.scale)
    second = count_metrics(args.workload, args.seed, args.scale)
    mismatched = {
        name: [first.get(name), second.get(name)]
        for name in COUNT_METRICS
        if first.get(name) != second.get(name)
    }
    missing = [name for name in COUNT_METRICS if name not in first]
    print(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "counts": first,
                "mismatched": mismatched,
                "missing": missing,
            }
        )
    )
    return 1 if mismatched or missing else 0


if __name__ == "__main__":
    sys.exit(main())
