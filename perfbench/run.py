"""Benchmark of the leantrie multimap: bulk build, point operations and the
dominator case study, as one single-threaded, closed-loop process.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload {build,mixed,dominators} \\
        --seed N --seconds S --trace {0,1}

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run (spans are written to ``perfbench/out/``
at exit).  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
carries the run's metadata, sample counts and failure ratio.

End-to-end times are reported at a nominal host speed: each timed region is
bracketed by a fixed reference task that uses no library code, and scaled by
the task's nominal time over its measured time (``hostspeed.py``).  The info
line gives the reference task's median and nominal times, so a measured time
is the reported one times median / nominal.  Per-layer times are as measured.

The library is imported from ``src/`` of the checkout this file sits in and
nowhere else, so the run fails, printing no result, where it is missing.

Seed 1 is the default.  Seed 7919 is held out: use it only to check a
claim made on numbers taken with other seeds.
"""

import argparse
import gc
import json
import os
import platform
import sys
from pathlib import Path

DEFAULT_SEED = 1

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"


def _import_library():
    src = ROOT / "src"
    if not (src / "leantrie" / "__init__.py").is_file():
        sys.exit(f"perfbench: no leantrie sources under {src}")
    sys.path.insert(0, str(src))


def git_revision(root):
    """HEAD's commit read from ``.git`` without running git; ``unknown``
    outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(args):
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "git_rev": git_revision(ROOT),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "trace": bool(args.trace),
        "gc_thresholds": list(gc.get_threshold()),
        "gc_enabled": gc.isenabled(),
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("build", "mixed", "dominators"))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--scale",
        choices=("full", "tiny"),
        default="full",
        help="input sizes; 'tiny' is for the smoke test only",
    )
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    _import_library()
    import layers
    import workloads
    from units import END_TO_END_UNITS, PER_LAYER_UNITS

    scale = workloads.SCALES[args.scale]
    meta = metadata(args)
    if args.trace:
        values, tally, extra = layers.run_traced(
            args.workload, args.seed, scale, meta, OUT_DIR
        )
        units = PER_LAYER_UNITS
    else:
        values, tally, extra = workloads.run_end_to_end(
            args.workload, args.seed, args.seconds, scale
        )
        units = END_TO_END_UNITS
    ratio = tally.failed / tally.attempted if tally.attempted else 1.0
    side = {"metadata": meta, "failed_ops_ratio": ratio, **extra}
    print("perfbench-info " + json.dumps(side, sort_keys=True))
    result = {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": values[name], "unit": units[name]}
            for name in units
            if name in values
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
