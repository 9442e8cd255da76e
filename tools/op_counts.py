"""Count the bytecodes a multimap's point operations, build or footprint execute.

Usage, from anywhere::

    python3 tools/op_counts.py CHECKOUT [--layer point|build|footprint|dominators]
        [--keys 65536] [--mix 0.9] [--third 0] [--ops 8000] [--vertices 512]
        [--graphs 8] [--seed 1] [--format table|json]

Imports ``leantrie`` from ``CHECKOUT/src`` and builds the multimap of
``leantrie.bench.generate_workload`` at ``--keys`` keys, ``--mix`` of them
with one value and the rest with two, of which a seeded ``--third`` share
gets a third value that no other draw gives (so those keys hold nested
sets).  ``sys.settrace`` counts the bytecodes that Python functions
execute, by function.

``--layer point`` (the default) draws a seeded op mix of ``--ops``
operations: half ``contains_entry`` (hit : value miss : key miss =
2:1:1), a quarter ``put`` (half a new key, half a new value for a stored
key) and a quarter ``remove`` of a stored tuple.  Each operation is
applied to the built multimap itself, so no operation depends on
another's result.  The report gives each operation kind's bytecodes per
operation, split by the function that ran them, with the total.  ``put``
and ``remove`` are also split by the transition of the key's value count,
read before the traced call: a ``put`` adds a new key (``new key``),
promotes a stored one (``1 -> 2``, ``2 -> 3``) or inserts into its nested
set (``3 -> 4``), and a ``remove`` drops a key (``1 -> 0``) or demotes
one (``2 -> 1``, ``3 -> 2``).  A transition the op mix never draws reads
0 ops: without ``--third``, no key holds three values, so ``3 -> 4`` and
``3 -> 2`` do not occur.

``--layer build`` counts ``multimap(entries)`` of that dataset: its
bytecodes per key by function (in ``nodes.build_root``, the grouping pass
and the nested and bucket builds; in ``nodes._partition``, the node
layout), the nodes it builds (trie nodes, buckets and nested set nodes),
and its transient bytes per key: the ``tracemalloc`` peak of a build run
with the garbage collector off, after one untraced warm-up build, less the
``object_bytes`` of the result: the most scratch the build holds at once
beyond what it keeps.

``--layer footprint`` counts ``footprint(mm)`` and ``byte_components(mm)``
of the built multimap: each one's bytecodes per node by function, over
the nodes ``structure_stats`` counts (trie nodes, buckets and nested set
nodes), as ``--layer build`` counts them.

``--layer dominators`` counts ``compute_dominators`` over ``--graphs``
seeded ``random_cfg`` graphs of ``--vertices`` vertices, graph ``i`` of
seed ``(--seed * 1000 + 3) * 100000 + i``: at the defaults, the first
eight graphs that perfbench's ``dominators`` workload times at that
seed.  It reports the bytecodes per evaluated vertex by function (an
evaluation is one vertex's intersection and ``put_all``; the first pass
evaluates every reachable vertex but the entry, a later pass only those
whose predecessors changed), per graph the vertices, evaluations and
fixpoint passes, and all bytecodes over all vertices.  ``--keys``,
``--mix``, ``--third`` and ``--ops`` do not apply.

The counts depend only on the code and the seed, not on the host's
speed, so two checkouts can be compared by one run each where their
timings cannot.  Bytecodes miss C-level work: ``sorted``, dict and list
building, allocation.  On the 2^13-key 50:50 build, a grouping pass over
a ``defaultdict(list)`` cut the bytecodes by 12% and was no faster, while
keeping the caller's pairs and freeing the scratch on return cut them by
1.3%, and the transient bytes by 41%, and built 8% more tuples per
second.  So a count is a direction signal for a plan, and a speed claim
still needs ``tools/bench_pairs.py``.
"""

import argparse
import gc
import json
import os
import random
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

KINDS = ("put", "remove", "contains_entry")
MEASURES = ("footprint", "byte_components")
TRANSITIONS = {
    "put": ("new key", "1 -> 2", "2 -> 3", "3 -> 4"),
    "remove": ("1 -> 0", "2 -> 1", "3 -> 2"),
}


def import_leantrie(checkout):
    """``leantrie`` imported from ``checkout``'s ``src`` directory."""
    src = (Path(checkout) / "src").resolve()
    sys.path.insert(0, str(src))
    import leantrie

    if src not in Path(leantrie.__file__).resolve().parents:
        raise SystemExit(f"op_counts: leantrie came from {leantrie.__file__}, not {src}")
    return leantrie


def with_third_values(dataset, share, seed):
    """``dataset``'s entries with a third value for a seeded ``share`` of
    its two-value keys.  Third values lie above the values that
    :func:`op_mix` draws as new, so a ``put`` of a new value to such a key
    grows its nested set."""
    from leantrie.bench import _VALUE_SPACE

    rng = random.Random(seed)
    entries = list(dataset.entries)
    for k in dataset.double_keys:
        if rng.random() < share:
            entries.append((k, 2 * _VALUE_SPACE + rng.randrange(_VALUE_SPACE)))
    return entries


def op_mix(entries, n_ops, seed):
    """``[(kind, key, value)]``: ``n_ops`` operations on the multimap of
    ``entries``, in a seeded order.  New keys and values lie outside the
    dataset's key and value spaces, so a new key is absent and a new value
    is not stored."""
    from leantrie.bench import _KEY_SPACE, _VALUE_SPACE

    rng = random.Random(seed)
    n_put = n_remove = n_ops // 4
    n_lookup = n_ops - n_put - n_remove
    kinds = ["contains_entry"] * n_lookup + ["put"] * n_put + ["remove"] * n_remove
    rng.shuffle(kinds)
    cases = {
        "contains_entry": ("stored", "stored", "new value", "new key"),
        "put": ("new value", "new key"),
        "remove": ("stored",),
    }
    ops = []
    for kind in kinds:
        case = rng.choice(cases[kind])
        if case == "stored":
            k, v = rng.choice(entries)
        elif case == "new value":
            k, v = rng.choice(entries)[0], _VALUE_SPACE + rng.randrange(_VALUE_SPACE)
        else:
            k, v = _KEY_SPACE + rng.randrange(_KEY_SPACE), rng.randrange(_VALUE_SPACE)
        ops.append((kind, k, v))
    return ops


def transition(kind, n):
    """The transition row of a ``put`` or ``remove`` on a key of ``n``
    values."""
    if kind == "put":
        return "new key" if n == 0 else f"{n} -> {n + 1}"
    return f"{n} -> {n - 1}"


def traced(fn, *args, calls=None):
    """``Counter(function -> bytecodes)`` that ``fn(*args)`` executes, a
    function named ``module.qualname``.  A ``calls`` Counter, when given,
    also gets each function's calls by the same names."""
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

    sys.settrace(trace)
    try:
        fn(*args)
    finally:
        sys.settrace(None)
    if calls is not None:
        calls.update(_by_name(entered))
    return _by_name(counts)


def _by_name(counts):
    """``counts`` over code objects summed by function name."""
    by_function = Counter()
    for code, n in counts.items():
        name = f"{Path(code.co_filename).stem}.{getattr(code, 'co_qualname', code.co_name)}"
        by_function[name] += n
    return by_function


def count(mm, ops):
    """``{row: [n_ops, Counter(function -> bytecodes)]}`` over ``ops``
    applied to ``mm``, each traced on its own.  A row is an operation kind,
    or ``(kind, transition)`` for a ``put`` or ``remove``, its key's value
    count read outside the traced call."""
    rows = {kind: [0, Counter()] for kind in KINDS}
    rows.update(((kind, t), [0, Counter()]) for kind, ts in TRANSITIONS.items() for t in ts)
    for kind, k, v in ops:
        method = getattr(mm, kind)
        keys = [kind]
        if kind in TRANSITIONS:
            keys.append((kind, transition(kind, len(mm.get(k)))))
        by_function = traced(method, k, v)
        for key in keys:
            entry = rows.setdefault(key, [0, Counter()])
            entry[0] += 1
            entry[1] += by_function
    return rows


def count_build(leantrie, entries):
    """``{"keys", "tuples", "nodes", "transient_bytes_per_key",
    "bytecodes_per_key"}`` of ``leantrie.multimap(entries)``; the bytecodes
    per key as :func:`_per_op` gives them.  An untraced build runs first,
    so that whatever the first run of the build code allocates once for
    good is not counted as the traced build's scratch."""
    leantrie.multimap(entries)
    gc.collect()  # a full collection also empties the free lists
    gc.disable()
    tracemalloc.start()
    try:
        mm = leantrie.multimap(entries)
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
        "bytecodes_per_key": _per_op(keys, traced(leantrie.multimap, entries)),
    }


def count_footprint(leantrie, mm):
    """``{"nodes", "footprint", "byte_components"}`` of the multimap
    ``mm``: the bytecodes per node of each measure, as :func:`_per_op`
    gives them."""
    nodes = node_count(leantrie, mm)
    result = {"nodes": nodes}
    for measure in MEASURES:
        result[measure] = _per_op(nodes, traced(getattr(leantrie, measure), mm))
    return result


def dominator_graphs(vertices, count, seed):
    """The ``count`` seeded ``random_cfg`` graphs of ``--layer
    dominators``."""
    from leantrie.dominators import random_cfg

    return [random_cfg(vertices, (seed * 1_000 + 3) * 100_000 + i) for i in range(count)]


def count_dominators(graphs):
    """``{"graphs", "vertices", "evaluations", "passes",
    "bytecodes_per_vertex", "bytecodes_per_evaluation"}`` of
    ``compute_dominators`` over ``graphs``: the vertices, evaluations and
    fixpoint passes per graph, all bytecodes over all vertices, and the
    bytecodes per evaluation as :func:`_per_op` gives them.  An
    evaluation ends in one ``put_all``; the passes come from an untraced
    ``analyze_graph`` of each graph."""
    from leantrie.dominators import analyze_graph, compute_dominators

    by_function = Counter()
    calls = Counter()
    passes = 0
    for g in graphs:
        by_function += traced(compute_dominators, g, calls=calls)
        passes += analyze_graph(g).dom_iterations
    evaluations = calls["maps.PersistentMultiMap.put_all"]
    n = len(graphs)
    vertices = sum(g.vertex_count for g in graphs)
    return {
        "graphs": n,
        "vertices": round(vertices / n, 1),
        "evaluations": round(evaluations / n, 1),
        "passes": round(passes / n, 2),
        "bytecodes_per_vertex": round(sum(by_function.values()) / vertices, 1),
        "bytecodes_per_evaluation": _per_op(evaluations, by_function),
    }


def node_count(leantrie, mm):
    """Trie nodes, buckets and nested set nodes of ``mm``."""
    stats = leantrie.structure_stats(mm)
    return stats["trie_nodes"] + stats["collision_nodes"] + stats["nested_set_nodes"]


def _per_op(n, by_function):
    """``{"ops": n, "total": per op, "by_function": {name: per op}}``,
    functions by falling count; no total for no ops.  For a build, ``n``
    is its number of keys."""
    return {
        "ops": n,
        "total": round(sum(by_function.values()) / n, 1) if n else None,
        "by_function": {
            name: round(c / n, 1)
            for name, c in sorted(by_function.items(), key=lambda item: (-item[1], item[0]))
        },
    }


def report(rows):
    """``{kind: per op}`` as :func:`_per_op` gives it, and for ``put`` and
    ``remove`` also ``"transitions": {transition: per op}``."""
    out = {kind: _per_op(*rows[kind]) for kind in KINDS}
    for row, counted in rows.items():
        if type(row) is tuple:
            kind, t = row
            out[kind].setdefault("transitions", {})[t] = _per_op(*counted)
    return out


def _columns(result, columns, unit):
    """``(lines, width)``: a header of ``unit`` and ``columns``, then the
    total and one row per function, of the reports ``result[column]``."""
    names = sorted(
        {name for c in columns for name in result[c]["by_function"]},
        key=lambda name: (-sum(result[c]["by_function"].get(name, 0) for c in columns), name),
    )
    width = max([len(unit), *map(len, names)])
    lines = [f"{unit:<{width}}" + "".join(f"{c:>16}" for c in columns)]
    for name in ["total", *names]:
        cells = [
            result[c]["total"] if name == "total" else result[c]["by_function"].get(name, 0)
            for c in columns
        ]
        lines.append(f"{name:<{width}}" + "".join(f"{n:>16.1f}" for n in cells))
    return lines, width


def table(result):
    """The report as one row per function, one column per kind."""
    lines, width = _columns(result, KINDS, "bytecodes per op")
    lines.append(f"{'ops':<{width}}" + "".join(f"{result[kind]['ops']:>16}" for kind in KINDS))
    lines += ["", f"{'transition':<{width}}{'ops':>16}{'bytecodes per op':>18}"]
    for kind in TRANSITIONS:
        for t, r in result[kind]["transitions"].items():
            total = "-" if r["total"] is None else f"{r['total']:.1f}"
            lines.append(f"{kind + ' ' + t:<{width}}{r['ops']:>16}{total:>18}")
    return "\n".join(lines)


def build_table(result):
    """The build report as one row per function, then its sizes."""
    per_key = result["bytecodes_per_key"]["by_function"]
    width = max(map(len, per_key), default=8)
    lines = [f"{'bytecodes per key':<{width}}{result['bytecodes_per_key']['total']:>12.1f}"]
    lines += [f"{name:<{width}}{n:>12.1f}" for name, n in per_key.items()]
    lines.append("")
    for name in ("keys", "tuples", "nodes", "transient_bytes_per_key"):
        lines.append(f"{name:<{width}}{result[name]:>12}")
    return "\n".join(lines)


def dominators_table(result):
    """The dominators report as one row per function, then its per-graph
    figures."""
    per_eval = result["bytecodes_per_evaluation"]
    width = max(len("bytecodes per evaluation"), *map(len, per_eval["by_function"]))
    lines = [f"{'bytecodes per evaluation':<{width}}{per_eval['total']:>12.1f}"]
    lines += [f"{name:<{width}}{n:>12.1f}" for name, n in per_eval["by_function"].items()]
    lines.append("")
    for label, name in (
        ("graphs", "graphs"),
        ("vertices per graph", "vertices"),
        ("evaluations per graph", "evaluations"),
        ("passes per graph", "passes"),
        ("bytecodes per vertex", "bytecodes_per_vertex"),
    ):
        lines.append(f"{label:<{width}}{result[name]:>12}")
    return "\n".join(lines)


def footprint_table(result):
    """The footprint report as one row per function, one column per
    measure, then the node count."""
    lines, width = _columns(result, MEASURES, "bytecodes per node")
    lines.append(f"{'nodes':<{width}}{result['nodes']:>16}")
    return "\n".join(lines)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("checkout", type=Path, help="checkout whose src/leantrie is measured")
    p.add_argument(
        "--layer",
        choices=("point", "build", "footprint", "dominators"),
        default="point",
        help="what is counted",
    )
    p.add_argument("--keys", type=int, default=1 << 16)
    p.add_argument("--mix", type=float, default=0.9, help="share of keys with one value")
    p.add_argument(
        "--third", type=float, default=0.0, help="share of two-value keys given a third value"
    )
    p.add_argument("--ops", type=int, default=8000)
    p.add_argument("--vertices", type=int, default=512, help="vertices per dominators graph")
    p.add_argument("--graphs", type=int, default=8, help="dominators graphs")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--format", choices=("table", "json"), default="table")
    args = p.parse_args(argv)
    if args.ops < 4:
        p.error("--ops must be at least 4, so that each kind runs once")
    if args.vertices < 2 or args.graphs < 1:
        p.error("--vertices must be at least 2 and --graphs at least 1")
    leantrie = import_leantrie(args.checkout)
    from leantrie.bench import WorkloadSpec, generate_workload

    if args.layer == "dominators":
        graphs = dominator_graphs(args.vertices, args.graphs, args.seed)
        result, show = count_dominators(graphs), dominators_table
        return _print(result, show, args.format)
    dataset = generate_workload(WorkloadSpec(mix=args.mix), args.keys, args.seed)
    entries = with_third_values(dataset, args.third, args.seed)
    if args.layer == "build":
        result, show = count_build(leantrie, entries), build_table
    elif args.layer == "footprint":
        result, show = count_footprint(leantrie, leantrie.multimap(entries)), footprint_table
    else:
        mm = leantrie.multimap(entries)
        result, show = report(count(mm, op_mix(entries, args.ops, args.seed))), table
    return _print(result, show, args.format)


def _print(result, show, fmt):
    """Print ``result`` as JSON or as ``show`` renders it; 0."""
    try:
        print(json.dumps(result, indent=1) if fmt == "json" else show(result))
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
