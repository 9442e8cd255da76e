"""Count the bytecodes of a multimap's point operations, build, footprint or dominators.

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

``--layer dominators`` counts the dominator fixpoint
(``dominators._dominator_fixpoint``) over ``--graphs`` seeded
``random_cfg`` graphs of ``--vertices`` vertices, graph ``i`` of
seed ``(--seed * 1000 + 3) * 100000 + i``: at the defaults, the first
eight graphs that perfbench's ``dominators`` workload times at that
seed.  It reports the bytecodes per evaluated vertex by function (an
evaluation is one vertex's intersection and ``put_all``; the first pass
evaluates every reachable vertex but the entry, a later pass only those
whose predecessors changed), per graph the vertices, evaluations and
fixpoint passes (as the traced fixpoint returns them), and all bytecodes
over all vertices.  ``--keys``, ``--mix``, ``--third`` and
``--ops`` do not apply.

``--format json`` prints the report as it is counted.  ``--format
table``, the default, prints every layer's report one way (``table``):
a header of the layer's unit and one column per by-function report, the
reports' total, one row per function and their ops, then each other
figure of the report under its JSON key, and for ``--layer point`` one
row per transition.

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
    """``leantrie`` imported from ``checkout``'s ``src`` directory, with
    ``leantrie.bench`` loaded for every layer: an ``isinstance`` check
    against an ABC walks the subclasses loaded so far, so the classes
    loaded change what a first check counts."""
    src = (Path(checkout) / "src").resolve()
    sys.path.insert(0, str(src))
    import leantrie
    import leantrie.bench  # noqa: F401

    if src not in Path(leantrie.__file__).resolve().parents:
        raise SystemExit(f"op_counts: leantrie came from {leantrie.__file__}, not {src}")
    return leantrie


def workload(args):
    """The entries of the seeded multimap that ``args`` describe:
    ``generate_workload``'s dataset, with a third value for a seeded
    ``--third`` share of its two-value keys.  Third values lie above the
    values that :func:`op_mix` draws as new, so a ``put`` of a new value to
    such a key grows its nested set."""
    from leantrie.bench import _VALUE_SPACE, WorkloadSpec, generate_workload

    dataset = generate_workload(WorkloadSpec(mix=args.mix), args.keys, args.seed)
    rng = random.Random(args.seed)
    entries = list(dataset.entries)
    for k in dataset.double_keys:
        if rng.random() < args.third:
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
    """``(Counter(function -> bytecodes), result)`` of ``fn(*args)``: the
    bytecodes it executes, a function named ``module.qualname``, and what
    it returns.  A ``calls`` Counter, when given, also gets each function's
    calls by the same names."""
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
        by_function = traced(method, k, v)[0]
        for key in keys:
            entry = rows.setdefault(key, [0, Counter()])
            entry[0] += 1
            entry[1] += by_function
    return rows


def count_point(leantrie, args):
    """``{kind: per op}`` of the op mix on the multimap of ``args``, as
    :func:`_per_op` gives it, and for ``put`` and ``remove`` also
    ``"transitions": {transition: per op}``."""
    entries = workload(args)
    rows = count(leantrie.multimap(entries), op_mix(entries, args.ops, args.seed))
    out = {kind: _per_op(*rows[kind]) for kind in KINDS}
    for row, counted in rows.items():
        if type(row) is tuple:
            kind, t = row
            out[kind].setdefault("transitions", {})[t] = _per_op(*counted)
    return out


def count_build(leantrie, args):
    """``{"keys", "tuples", "nodes", "transient_bytes_per_key",
    "bytecodes_per_key"}`` of ``leantrie.multimap`` over the entries of
    ``args``; the bytecodes per key as :func:`_per_op` gives them.  An
    untraced build runs first, so that whatever the first run of the build
    code allocates once for good is not counted as the traced build's
    scratch."""
    entries = workload(args)
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
        "bytecodes_per_key": _per_op(keys, traced(leantrie.multimap, entries)[0]),
    }


def count_footprint(leantrie, args):
    """``{"nodes", "footprint", "byte_components"}`` of the multimap of
    ``args``: the bytecodes per node of each measure, as :func:`_per_op`
    gives them."""
    mm = leantrie.multimap(workload(args))
    nodes = node_count(leantrie, mm)
    result = {"nodes": nodes}
    for measure in MEASURES:
        result[measure] = _per_op(nodes, traced(getattr(leantrie, measure), mm)[0])
    return result


def count_dominators(leantrie, args):
    """``{"graphs", "vertices", "evaluations", "passes",
    "bytecodes_per_vertex", "bytecodes_per_evaluation"}`` of the dominator
    fixpoint over ``--graphs`` seeded ``random_cfg`` graphs of
    ``--vertices`` vertices: the vertices, evaluations and fixpoint passes
    per graph, all bytecodes over all vertices, and the bytecodes per
    evaluation as :func:`_per_op` gives them.  An evaluation ends in one
    ``put_all``; the passes are those the traced fixpoint returns."""
    from leantrie.dominators import _dominator_fixpoint, random_cfg

    by_function = Counter()
    calls = Counter()
    passes = vertices = 0
    for i in range(args.graphs):
        g = random_cfg(args.vertices, (args.seed * 1_000 + 3) * 100_000 + i)
        counted, (_, iterations, _) = traced(_dominator_fixpoint, g, calls=calls)
        by_function += counted
        passes += iterations
        vertices += g.vertex_count
    evaluations = calls["maps.PersistentMultiMap.put_all"]
    n = args.graphs
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
        total = "-" if r["total"] is None else f"{r['total']:.1f}"
        lines.append(f"{row:<{width}}{r['ops']:>16}{total:>18}")
    return "\n".join(lines)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("checkout", type=Path, help="checkout whose src/leantrie is measured")
    p.add_argument("--layer", choices=tuple(LAYERS), default="point", help="what is counted")
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
    count_layer, unit = LAYERS[args.layer]
    result = count_layer(import_leantrie(args.checkout), args)
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
