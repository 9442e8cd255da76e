"""Command-line interface: bench, footprint, dominators.

Integer lists, the size exponents (``--sizes 6..16`` means 2^6..2^16)
and the random graphs' vertex counts (``--random``), are comma lists of
numbers and ``A..B`` ranges; mixes are given as ``--mix 50:50``.  ``--output -``
writes to stdout.  Exit status: 0 on success, also when the reader of
stdout closes it early (``leantrie ... --output - | head -1``), 1 when a
correctness gate fails, 2 on configuration, input or output errors.
"""

import argparse
import os
import sys
from contextlib import nullcontext
from datetime import datetime, timezone
from pathlib import Path

from .bench import (
    BENCH_COLUMNS,
    FOOTPRINT_COLUMNS,
    OPERATIONS,
    BenchConfig,
    ConfigurationError,
    GateError,
    WorkloadSpec,
    run_benchmarks,
    run_footprint,
    write_csv,
    write_json,
)
from .dominators import (
    DOMINATOR_COLUMNS,
    GraphError,
    analyze_graph,
    parse_edge_list,
    random_cfg,
)


def _parse_sizes(text):
    if not text.strip():
        raise argparse.ArgumentTypeError("no sizes given")
    out = []
    for part in text.split(","):
        part = part.strip()
        lo, dots, hi = part.partition("..")
        try:
            lo = int(lo)
            hi = int(hi) if dots else lo
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"{part!r} is not an integer or an A..B range"
            ) from None
        if lo > hi:
            raise argparse.ArgumentTypeError(f"empty size range {part!r}")
        out.extend(range(lo, hi + 1))
    return tuple(out)


def _parse_mix(text):
    left, _, right = text.partition(":")
    try:
        ones, twos = int(left), int(right)
    except ValueError:
        raise argparse.ArgumentTypeError(f"mix must look like 50:50, got {text!r}") from None
    if ones < 0 or twos < 0 or ones + twos == 0:
        raise argparse.ArgumentTypeError("mix parts must be non-negative and not both zero")
    return ones / (ones + twos)


def _parse_names(text):
    return tuple(text.split(","))


def _add_sizes_flag(parser):
    parser.add_argument(
        "--sizes", type=_parse_sizes, default=tuple(range(6, 17)),
        metavar="A..B", help="size exponents (default 6..16)",
    )


def _add_report_flags(parser):
    parser.add_argument(
        "--format", choices=("csv", "json"), default="csv", help="report format"
    )
    parser.add_argument(
        "--output", default="-", metavar="PATH", help="report path; - for stdout"
    )
    parser.add_argument(
        "--timestamp",
        default=None,
        metavar="ISO8601",
        help="timestamp for the JSON metadata header (default: now; "
        "set explicitly for reproducible output)",
    )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="leantrie",
        description="Benchmarks, footprint comparisons, and the dominator "
        "case study for the persistent multimap.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    bench = sub.add_parser("bench", help="time the operation suites")
    _add_sizes_flag(bench)
    bench.add_argument("--seeds", type=int, default=5, help="seeds per size (default 5)")
    bench.add_argument(
        "--mix", type=_parse_mix, default=1.0, metavar="ONE:TWO",
        help="share of 1:1 vs 1:2 keys (default 100:0, a pure 1:1 grid "
        "on which the plain-map baseline can join the comparison)",
    )
    bench.add_argument(
        "--structures", type=_parse_names, default=None, metavar="NAMES",
        help="comma list among multimap,map_of_sets,map "
        "(default: all that fit the mix)",
    )
    bench.add_argument(
        "--operations", type=_parse_names, default=OPERATIONS, metavar="NAMES",
        help=f"comma list among {','.join(OPERATIONS)} (default: all)",
    )
    bench.add_argument("--warmup", type=int, default=10, help="warmup iterations")
    bench.add_argument("--measured", type=int, default=20, help="measured iterations")
    _add_report_flags(bench)
    bench.set_defaults(run=_cmd_bench)

    fp = sub.add_parser("footprint", help="modeled-word footprint comparison")
    _add_sizes_flag(fp)
    fp.add_argument(
        "--mix", type=_parse_mix, default=0.5, metavar="ONE:TWO",
        help="share of 1:1 vs 1:2 keys (default 50:50)",
    )
    fp.add_argument("--seed", type=int, default=0, help="dataset seed (default 0)")
    _add_report_flags(fp)
    fp.set_defaults(run=_cmd_footprint)

    dom = sub.add_parser("dominators", help="dominator analysis over CFGs")
    dom.add_argument(
        "--graph", action="append", default=[], metavar="PATH",
        help="edge-list file, or directory whose files are read in sorted "
        "order (repeatable)",
    )
    dom.add_argument(
        "--random", type=_parse_sizes, default=None, metavar="SIZES",
        help="generate random CFGs of these vertex counts "
        "(default 128,256,512 when no --graph is given)",
    )
    dom.add_argument(
        "--graphs-per-size", type=int, default=100,
        help="random graphs per size (default 100)",
    )
    dom.add_argument("--seed", type=int, default=0, help="generator seed base")
    _add_report_flags(dom)
    dom.set_defaults(run=_cmd_dominators)
    return parser


# the flags that say how a report is written, not what it reports
_NOT_CONFIG = {"command", "run", "format", "output", "timestamp"}


def _write_report(args, rows, columns):
    """``rows`` written as ``args`` ask; a JSON report's settings are the
    parsed arguments but those of ``_NOT_CONFIG``."""
    config = {k: v for k, v in vars(args).items() if k not in _NOT_CONFIG}
    timestamp = args.timestamp or datetime.now(timezone.utc).isoformat()
    if args.output == "-":
        target = nullcontext(sys.stdout)
    else:
        target = open(args.output, "w", encoding="utf-8", newline="")
    with target as stream:
        if args.format == "csv":
            write_csv(rows, columns, stream)
        else:
            write_json(rows, columns, stream, timestamp, config)
        stream.flush()  # a closed pipe shows here, not at interpreter exit


def _cmd_bench(args):
    spec = WorkloadSpec(size_exponents=args.sizes, seeds=args.seeds, mix=args.mix)
    config = BenchConfig(warmup_iterations=args.warmup, measured_iterations=args.measured)
    return run_benchmarks(spec, config, args.structures, args.operations), BENCH_COLUMNS


def _cmd_footprint(args):
    return run_footprint(args.sizes, mix=args.mix, seed=args.seed), FOOTPRINT_COLUMNS


def _load_graphs(args):
    if args.graphs_per_size < 1:
        raise ConfigurationError(
            f"--graphs-per-size must be at least 1, got {args.graphs_per_size}"
        )
    graphs = []
    for given in map(Path, args.graph):
        paths = sorted(p for p in given.iterdir() if p.is_file()) if given.is_dir() else [given]
        for path in paths:
            try:
                text = path.read_text(encoding="utf-8-sig")
            except (OSError, UnicodeDecodeError) as exc:
                raise GraphError(f"cannot read graph file {path}: {exc}") from exc
            graphs.append(parse_edge_list(text, name=path.name))
    if args.random is None and not args.graph:
        args.random = (128, 256, 512)  # so the report's settings name the sizes run
    for size in args.random or ():
        for i in range(args.graphs_per_size):
            graphs.append(random_cfg(size, args.seed + i))
    if not graphs:
        raise ConfigurationError("no graphs to analyze")
    return graphs


def _cmd_dominators(args):
    return [analyze_graph(g) for g in _load_graphs(args)], DOMINATOR_COLUMNS


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        _write_report(args, *args.run(args))
        return 0
    except GateError as exc:
        print(f"leantrie: correctness gate failed: {exc}", file=sys.stderr)
        return 1
    except (ConfigurationError, GraphError) as exc:
        print(f"leantrie: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader has all it wanted; what stdout still buffers goes to
        # devnull, so the flush at interpreter exit fails no more
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except OSError as exc:
        print(f"leantrie: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
