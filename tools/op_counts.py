"""Count the bytecodes of a perfbench workload's point operations, build, footprint or dominators.

Usage, from anywhere::

    python3 tools/op_counts.py CHECKOUT --workload build|mixed|dominators
        [--layer point|build|footprint|dominators] [--scale full|tiny]
        [--ops 8000] [--seed 1] [--format table|json]

Counts what ``perfbench/run.py --workload W --seed S --scale C`` runs, on
its own inputs: every layer reads one set-up, ``SETUPS[W](S, SCALES[C],
0.0)``, from ``CHECKOUT/perfbench/workloads.py``, with ``leantrie``
imported from ``CHECKOUT/src``.  Zero seconds sizes the set-up as the
traced run (``--trace 1``) sizes it, so the ``dominators`` workload holds
``trace_graphs`` graphs and its point stream runs on their predecessor
relation.  ``sys.settrace`` counts the bytecodes that Python functions
execute, by function.

``--layer point`` (the default) counts the first ``--ops`` operations of
the workload's ``stream.ops``: a closed loop of ``contains_entry``,
``put`` and ``remove`` from its ``base`` multimap, each operation applied
to the version the one before returned, as ``workloads.run_points``
applies them.  The report gives each operation kind's bytecodes per
operation, split by the function that ran them, with the total.  ``put``
and ``remove`` are also split by the transition of the key's value count,
read before the traced call, one row per transition the stream draws: a
``put`` adds a new key (``new key``), promotes a stored one (``1 -> 2``,
``2 -> 3``) or inserts into its nested set (``3 -> 4`` and on), and a
``remove`` drops a key (``1 -> 0``) or demotes one (``2 -> 1``, ``3 ->
2``, ...).

``--layer build`` counts one build of the workload's build phase:
``multimap`` of ``datasets[0]`` for ``build``, of ``builds[0]`` for
``mixed``, and ``compute_preds`` of the first graph for ``dominators``.
It reports the build's bytecodes per key by function (in
``nodes.build_root``, the grouping pass and the nested and bucket builds;
in ``nodes._partition``, the node layout), the nodes it builds (trie
nodes, buckets and nested set nodes), and its transient bytes per key:
the ``tracemalloc`` peak of a build run with the garbage collector off,
after one untraced warm-up build, less the ``object_bytes`` of the
result: the most scratch the build holds at once beyond what it keeps.

``--layer footprint`` counts ``footprint`` and ``byte_components`` of the
workload's ``base`` multimap: each one's bytecodes per node by function,
over the nodes ``structure_stats`` counts, as ``--layer build`` counts
them.

``--layer dominators`` counts the dominator fixpoint
(``dominators._dominator_fixpoint``) over the first ``trace_graphs`` of
the workload's ``graphs``.  It reports the bytecodes per evaluated vertex
by function (an evaluation is one vertex's intersection and ``put_all``;
the first pass evaluates every reachable vertex but the entry, a later
pass only those whose predecessors changed), per graph the vertices,
evaluations and fixpoint passes (as the traced fixpoint returns them),
and all bytecodes over all vertices.

``--format json`` prints the report as it is counted.  ``--format
table``, the default, prints every layer's report one way (``table``):
a header of the layer's unit and one column per by-function report, the
reports' total, one row per function and their ops, then each other
figure of the report under its JSON key, and for ``--layer point`` one
row per transition.

The counts depend only on the code, the interpreter's version and the
seed, not on the host's speed, so two checkouts can be compared by one
run each where their timings cannot.  Each counted call runs twice, each
run under its own ``sys.settrace``, and only the second run is counted:
CPython 3.12 turns opcode events on only at a ``settrace`` made after a
frame asked for them, and 3.13 misses some opcode events of a code
object's first traced call.
Bytecodes miss C-level work: ``sorted``, dict and list building,
allocation.  On the 2^13-key 50:50 build, a grouping pass over a
``defaultdict(list)`` cut the bytecodes by 12% and was no faster, while
keeping the caller's pairs and freeing the scratch on return cut them by
1.3%, and the transient bytes by 41%, and built 8% more tuples per
second.  So a count is a direction signal for a plan, and a speed claim
still needs ``tools/bench_pairs.py``.
"""

import argparse
import gc
import json
import os
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

# by perfbench's operation kinds LOOKUP, PUT and REMOVE
METHODS = ("contains_entry", "put", "remove")
MEASURES = ("footprint", "byte_components")


def set_up(checkout, workload, scale, seed):
    """``(leantrie, inputs, scale)``: ``leantrie`` imported from
    ``checkout``'s ``src``, and the inputs and ``Scale`` of ``workload`` at
    ``scale`` and ``seed``, from ``checkout``'s ``perfbench/workloads.py``."""
    root = Path(checkout).resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import leantrie
    import workloads

    for module in (leantrie, workloads):
        if root not in Path(module.__file__).resolve().parents:
            raise SystemExit(f"op_counts: {module.__name__} came from {module.__file__}")
    sc = workloads.SCALES[scale]
    return leantrie, workloads.SETUPS[workload](seed, sc, 0.0), sc


def transition(method, n):
    """The transition row of a ``put`` or ``remove`` on a key of ``n``
    values."""
    if method == "put":
        return "new key" if n == 0 else f"{n} -> {n + 1}"
    return f"{n} -> {n - 1}"


def traced(fn, *args, calls=None):
    """``(Counter(function -> bytecodes), result)`` of ``fn(*args)``: the
    bytecodes it executes, a function named ``module.qualname``, and what
    it returns.  A ``calls`` Counter, when given, also gets each function's
    calls by the same names.  ``fn(*args)`` runs twice, each run under its
    own ``sys.settrace`` of one tracer, and only the second run counts."""
    counts = Counter()
    entered = Counter()

    def local(frame, event, arg):
        if event == "opcode":
            counts[frame.f_code] += 1
        return local

    def trace(frame, event, arg):
        frame.f_trace_opcodes = True
        entered[frame.f_code] += 1
        return local

    for _ in range(2):
        counts.clear()
        entered.clear()
        sys.settrace(trace)
        try:
            result = fn(*args)
        finally:
            sys.settrace(None)
    if calls is not None:
        calls.update(_by_name(entered))
    return _by_name(counts), result


def _by_name(counts):
    """``counts`` over code objects summed by function name."""
    by_function = Counter()
    for code, n in counts.items():
        name = f"{Path(code.co_filename).stem}.{getattr(code, 'co_qualname', code.co_name)}"
        by_function[name] += n
    return by_function


def count_point(leantrie, inp, sc, args):
    """``{method: per op}`` of the first ``--ops`` operations of the
    stream, for each method they call, as :func:`_per_op` gives it, and
    for ``put`` and ``remove`` also ``"transitions": {transition: per
    op}``."""
    rows = {}
    mm = inp.base
    for kind, k, v in inp.stream.ops[: args.ops]:
        method = METHODS[kind]
        if method == "contains_entry":
            keys = [method]
            by_function = traced(mm.contains_entry, k, v)[0]
        else:
            keys = [method, (method, len(mm.get(k)))]
            by_function, mm = traced(getattr(mm, method), k, v)
        for key in keys:
            entry = rows.setdefault(key, [0, Counter()])
            entry[0] += 1
            entry[1] += by_function
    out = {method: _per_op(*rows[method]) for method in METHODS if method in rows}
    for method, n in sorted(key for key in rows if type(key) is tuple):
        out[method].setdefault("transitions", {})[transition(method, n)] = _per_op(
            *rows[method, n]
        )
    return out


def count_build(leantrie, inp, sc, args):
    """``{"keys", "tuples", "nodes", "transient_bytes_per_key",
    "bytecodes_per_key"}`` of one build of the workload's build phase; the
    bytecodes per key as :func:`_per_op` gives them.  An untraced build
    runs first, so that whatever the first run of the build code allocates
    once for good is not counted as the traced build's scratch."""
    from leantrie.dominators import compute_preds

    if args.workload == "dominators":
        build, source = compute_preds, inp.graphs[0]
    else:
        dataset = inp.datasets[0] if args.workload == "build" else inp.builds[0]
        build, source = leantrie.multimap, dataset.entries
    build(source)
    gc.collect()  # a full collection also empties the free lists
    gc.disable()
    tracemalloc.start()
    try:
        mm = build(source)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        gc.enable()
    keys = mm.key_count
    return {
        "keys": keys,
        "tuples": mm.tuple_count,
        "nodes": node_count(leantrie, mm),
        "transient_bytes_per_key": round((peak - leantrie.object_bytes(mm)) / keys, 1),
        "bytecodes_per_key": _per_op(keys, traced(build, source)[0]),
    }


def count_footprint(leantrie, inp, sc, args):
    """``{"nodes", "footprint", "byte_components"}`` of the workload's
    ``base``: the bytecodes per node of each measure, as :func:`_per_op`
    gives them."""
    nodes = node_count(leantrie, inp.base)
    result = {"nodes": nodes}
    for measure in MEASURES:
        result[measure] = _per_op(nodes, traced(getattr(leantrie, measure), inp.base)[0])
    return result


def count_dominators(leantrie, inp, sc, args):
    """``{"graphs", "vertices", "evaluations", "passes",
    "bytecodes_per_vertex", "bytecodes_per_evaluation"}`` of the dominator
    fixpoint over the first ``trace_graphs`` of the workload's graphs: the
    vertices, evaluations and fixpoint passes per graph, all bytecodes over
    all vertices, and the bytecodes per evaluation as :func:`_per_op` gives
    them.  An evaluation ends in one ``put_all``; the passes are those the
    traced fixpoint returns."""
    from leantrie.dominators import _dominator_fixpoint

    graphs = inp.graphs[: sc.trace_graphs]
    by_function = Counter()
    calls = Counter()
    passes = 0
    for g in graphs:
        counted, (_, iterations, _) = traced(_dominator_fixpoint, g, calls=calls)
        by_function += counted
        passes += iterations
    vertices = sum(g.vertex_count for g in graphs)
    evaluations = calls["maps.PersistentMultiMap.put_all"]
    n = len(graphs)
    return {
        "graphs": n,
        "vertices": round(vertices / n, 1),
        "evaluations": round(evaluations / n, 1),
        "passes": round(passes / n, 2),
        "bytecodes_per_vertex": round(sum(by_function.values()) / vertices, 1),
        "bytecodes_per_evaluation": _per_op(evaluations, by_function),
    }


LAYERS = {
    "point": (count_point, "bytecodes per op"),
    "build": (count_build, "bytecodes per key"),
    "footprint": (count_footprint, "bytecodes per node"),
    "dominators": (count_dominators, "bytecodes per evaluation"),
}


def node_count(leantrie, mm):
    """Trie nodes, buckets and nested set nodes of ``mm``."""
    stats = leantrie.structure_stats(mm)
    return stats["trie_nodes"] + stats["collision_nodes"] + stats["nested_set_nodes"]


def _per_op(n, by_function):
    """``{"ops": n, "total": per op, "by_function": {name: per op}}``,
    functions by falling count.  For a build, ``n`` is its number of
    keys."""
    return {
        "ops": n,
        "total": round(sum(by_function.values()) / n, 1),
        "by_function": {
            name: round(c / n, 1)
            for name, c in sorted(by_function.items(), key=lambda item: (-item[1], item[0]))
        },
    }


def table(result, unit):
    """A report of any layer as text: a header of ``unit`` and one column
    per :func:`_per_op` report of ``result``; their total, one row per
    function and their ops; each other figure of ``result`` under its key;
    then one row per transition of the reports that have them."""
    columns = [key for key, value in result.items() if isinstance(value, dict)]
    figures = [key for key in result if key not in columns]
    names = sorted(
        {name for c in columns for name in result[c]["by_function"]},
        key=lambda name: (-sum(result[c]["by_function"].get(name, 0) for c in columns), name),
    )
    transitions = [
        (f"{c} {t}", r) for c in columns for t, r in result[c].get("transitions", {}).items()
    ]
    width = max(map(len, [unit, *names, *figures, *(row for row, _ in transitions)]))
    cell = max(16, *(len(c) + 2 for c in columns))
    lines = [f"{unit:<{width}}" + "".join(f"{c:>{cell}}" for c in columns)]
    for name in ["total", *names]:
        cells = [
            result[c]["total"] if name == "total" else result[c]["by_function"].get(name, 0)
            for c in columns
        ]
        lines.append(f"{name:<{width}}" + "".join(f"{n:>{cell}.1f}" for n in cells))
    lines.append(f"{'ops':<{width}}" + "".join(f"{result[c]['ops']:>{cell}}" for c in columns))
    lines += [f"{key:<{width}}{result[key]:>{cell}}" for key in figures]
    if transitions:
        lines += ["", f"{'transition':<{width}}{'ops':>16}{unit:>18}"]
    for row, r in transitions:
        lines.append(f"{row:<{width}}{r['ops']:>16}{r['total']:>18.1f}")
    return "\n".join(lines)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("checkout", type=Path, help="checkout whose src/leantrie is measured")
    p.add_argument("--layer", choices=tuple(LAYERS), default="point", help="what is counted")
    p.add_argument(
        "--workload", required=True, choices=("build", "mixed", "dominators"),
        help="perfbench workload whose inputs are counted",
    )
    p.add_argument("--scale", choices=("full", "tiny"), default="full", help="perfbench scale")
    p.add_argument("--ops", type=int, default=8000, help="point operations counted")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--format", choices=("table", "json"), default="table")
    args = p.parse_args(argv)
    if args.ops < 1:
        p.error("--ops must be at least 1")
    count_layer, unit = LAYERS[args.layer]
    leantrie, inp, sc = set_up(args.checkout, args.workload, args.scale, args.seed)
    result = count_layer(leantrie, inp, sc, args)
    try:
        print(json.dumps(result, indent=1) if args.format == "json" else table(result, unit))
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
    except BrokenPipeError:
        # the reader has all it wanted; what stdout still buffers goes to
        # devnull, so the flush at interpreter exit fails no more
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return 0


if __name__ == "__main__":
    sys.exit(main())
