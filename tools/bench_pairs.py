"""Run perfbench on two checkouts in alternating pairs and summarize them.

Usage, from anywhere::

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR \\
        --workload dominators --seed 1 --seed 7919 --pairs 10 \\
        --output BENCH_name.json [--append] [--meta key=value ...]

Each pair runs ``python3 perfbench/run.py --workload W --seed S --seconds T
--trace 0`` once in each checkout, where ``T`` is ``run_seconds`` from this
repository's ``BENCHMARK.json``.  Even pairs run the parent first, odd pairs
the change.  The report has three parts: ``metadata``, ``runs`` (one row per
run with its ``failed``/``attempted`` counts and metric values) and
``summary`` (per workload, seed and end-to-end metric: each side's median
and quartiles, ``change_wins`` over pairs, where a tie counts for neither
side, ``change_vs_parent``, the change's median over the parent's minus
one, ``bound``, the metric's regression bound from ``BENCHMARK.json``,
``beyond_bound``, whether the change's median is worse than the parent's
by more than that bound, ``gain_shown``, whether the change wins at least
9 of 10 pairs and its median beats the parent's by more than the parent's
interquartile range ``q3 - q1``, both in the metric's ``better``
direction, and each side's ``failed``/``attempted`` totals over the same
pairs).
A run with failed operations also gets a warning on stderr.  At the end of
a series, one line per summary row goes to stdout: both medians,
``change_vs_parent``, wins over pairs, the parent's interquartile range as
a share of its median, ``gain_shown`` and ``beyond_bound``.  The report is
rewritten after every pair, so an interrupted series keeps the pairs it
finished; ``--append`` extends the report at ``--output``, or starts it
when there is none yet.  A run that exits non-zero stops the series: its
checkout, command, exit code and the tail of its stderr are printed, and
the exit status is 1.
"""

import argparse
import json
import os
import platform
import shlex
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def load_benchmark(root=ROOT):
    """``(run_seconds, {metric: better}, {metric: bound})`` from
    ``BENCHMARK.json``, where a bound is how much worse, as a share of the
    parent's median, an end-to-end metric may get."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]
    return (
        spec["run_seconds"],
        {m["name"]: m["better"] for m in metrics},
        {m["name"]: m["bound"] for m in metrics},
    )


class RunFailed(Exception):
    """A child run that exited non-zero."""


def run_child(command, checkout, env=None):
    """``command`` run in ``checkout`` with its output captured; raises
    :class:`RunFailed` naming the checkout, the command, the exit code and
    the last 20 lines of stderr when it exits non-zero."""
    proc = subprocess.run(command, cwd=checkout, env=env, capture_output=True, text=True)
    if proc.returncode:
        lines = proc.stderr.rstrip().splitlines()[-20:] or ["(empty)"]
        raise RunFailed("\n".join([
            f"run failed in {checkout}",
            f"  command: {shlex.join(map(str, command))}",
            f"  exit code: {proc.returncode}",
            "  stderr tail:",
            *(f"    {line}" for line in lines),
        ]))
    return proc


def run_once(checkout, workload, seed, seconds):
    """One untraced perfbench run in ``checkout``; its last stdout line."""
    proc = run_child(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        checkout,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {
        "failed": result["failed"],
        "attempted": result["attempted"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
    }


def run_pair(checkouts, workload, seed, pair, seconds):
    """Both sides of one pair, in the order the pair's parity gives."""
    order = SIDES if pair % 2 == 0 else SIDES[::-1]
    rows = []
    for i, side in enumerate(order):
        row = {
            "workload": workload, "seed": seed, "pair": pair, "side": side,
            "ran_first": i == 0,
            **run_once(checkouts[side], workload, seed, seconds),
        }
        if row["failed"] > 0:
            print(f"warning: {workload} seed {seed} pair {pair} {side}: "
                  f"{row['failed']} of {row['attempted']} operations failed",
                  file=sys.stderr)
        rows.append(row)
    return sorted(rows, key=lambda r: SIDES.index(r["side"]))


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(runs, better, bounds=None):
    """One summary row per (workload, seed, metric), in first-seen order
    of (workload, seed) and ``better``'s metric order.  Each row carries
    both sides' ``failed``/``attempted`` totals for its (workload, seed)
    and, for a metric that ``bounds`` names, its bound and whether the
    change's median is beyond it.  ``gain_shown`` is the rule a claimed
    gain must meet: wins in at least 9 of 10 pairs and a median gain over
    the parent's larger than the parent's ``q3 - q1``.  Pairs missing a
    side are left out."""
    bounds = bounds or {}
    pairs = {}
    for run in runs:
        key = (run["workload"], run["seed"])
        pairs.setdefault(key, {}).setdefault(run["pair"], {})[run["side"]] = run
    rows = []
    for (workload, seed), by_pair in pairs.items():
        complete = [p for _, p in sorted(by_pair.items()) if len(p) == 2]
        totals = {
            f"{side}_{count}": sum(p[side][count] for p in complete)
            for side in SIDES for count in ("failed", "attempted")
        }
        for metric, direction in better.items():
            values = {
                side: [p[side]["metrics"][metric] for p in complete
                       if metric in p[side]["metrics"]]
                for side in SIDES
            }
            if not values["parent"] or len(values["parent"]) != len(values["change"]):
                continue
            sign = 1 if direction == "higher" else -1
            wins = sum(
                sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"])
            )
            row = {"workload": workload, "seed": seed, "metric": metric,
                   "better": direction}
            for side in SIDES:
                q1, q3 = _quartiles(values[side])
                row[f"{side}_median"] = statistics.median(values[side])
                row[f"{side}_q1"] = q1
                row[f"{side}_q3"] = q3
            row["change_wins"] = wins
            row["pairs"] = len(complete)
            gain = sign * (row["change_median"] - row["parent_median"])
            spread = row["parent_q3"] - row["parent_q1"]
            row["gain_shown"] = 10 * wins >= 9 * len(values["parent"]) and gain > spread
            change = row["change_median"] / row["parent_median"] - 1
            row["change_vs_parent"] = round(change, 4)
            if metric in bounds:
                row["bound"] = bounds[metric]
                row["beyond_bound"] = sign * change < -bounds[metric]
            row.update(totals)
            rows.append(row)
    return rows


def _number(value):
    """``value`` with four significant digits, or whole above 10,000."""
    return f"{value:,.0f}" if abs(value) >= 10_000 else f"{value:.4g}"


def summary_lines(rows):
    """One line per summary row, the fields a claim is read from."""
    lines = []
    for r in rows:
        spread = (r["parent_q3"] - r["parent_q1"]) / r["parent_median"]
        bound = r.get("beyond_bound")
        lines.append(
            f"{r['workload']} seed {r['seed']} {r['metric']}: "
            f"parent {_number(r['parent_median'])} change {_number(r['change_median'])} "
            f"({r['change_vs_parent']:+.1%}), wins {r['change_wins']}/{r['pairs']}, "
            f"parent IQR {spread:.1%}, gain_shown {r['gain_shown']}, "
            f"beyond_bound {'-' if bound is None else bound}"
        )
    return lines


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=Path, help="checkout of the parent commit")
    p.add_argument("change", type=Path, help="checkout of the change")
    p.add_argument("--workload", action="append", required=True,
                   choices=("build", "mixed", "dominators"))
    p.add_argument("--seed", type=int, action="append", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--output", type=Path, required=True)
    p.add_argument("--append", action="store_true",
                   help="keep the runs of the report at --output, if there is one")
    p.add_argument("--meta", action="append", default=[], metavar="KEY=VALUE",
                   help="extra metadata field (repeatable)")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    for item in args.meta:
        if "=" not in item:
            p.error(f"--meta expects KEY=VALUE, got {item!r}")
    return args


def main(argv=None):
    args = parse_args(argv)
    seconds, better, bounds = load_benchmark()
    report = {"metadata": {}, "runs": []}
    if args.append and args.output.exists():
        report = json.loads(args.output.read_text())
    meta = report["metadata"]
    meta.update({
        "what": "alternating parent/change pairs of `python3 perfbench/run.py "
                "--workload W --seed S --seconds T --trace 0`",
        "note": "even pairs run the parent first, odd pairs the change first; "
                "times are at the benchmark's nominal host speed",
        "run_seconds": seconds,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
    })
    meta.update(item.split("=", 1) for item in args.meta)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for workload in args.workload:
        for seed in args.seed:
            done = {r["pair"] for r in report["runs"]
                    if r["workload"] == workload and r["seed"] == seed}
            first = max(done, default=-1) + 1
            for pair in range(first, first + args.pairs):
                try:
                    rows = run_pair(checkouts, workload, seed, pair, seconds)
                except RunFailed as failed:
                    print(f"bench_pairs: {failed}", file=sys.stderr)
                    return 1
                report["runs"].extend(rows)
                report["summary"] = summarize(report["runs"], better, bounds)
                args.output.write_text(json.dumps(
                    {k: report[k] for k in ("metadata", "summary", "runs")}, indent=1
                ) + "\n")
                print(f"{workload} seed {seed} pair {pair} done", file=sys.stderr)
    print("\n".join(summary_lines(report.get("summary", []))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
