"""Per-layer metrics from a traced run, named after the library's modules.

The traced run does a fixed amount of the workload's own phase twice, once
untraced and once recording spans, in alternating chunks so that drift in
the host's speed falls on both alike, and reports the gap between the two
as ``trace.overhead_frac``.  The GC counts come from the untraced chunks,
so they repeat exactly.  Spans ``(id, name, start_ns, end_ns, op, parent)``
are kept in memory and written as JSON lines at exit.

Spans are taken around the benchmark's own calls into each layer:

* ``maps.put`` / ``remove`` / ``contains_entry`` -- one public call of the
  workload's point-operation stream, each followed at once by
* ``nodes.insert`` / ``delete`` / ``lookup`` -- the same operation replayed
  on ``structure._root`` with a precomputed hash, parented by that ``maps``
  span, so a ``maps`` self time is its span minus the paired ``nodes`` span;
* ``maps.get`` / ``set_and`` / ``set_eq`` / ``rewrite`` -- the dominator
  fixpoint's calls, replayed on the finished result's real operands.

The node replay is the only code here that reads library internals
(``_root``, ``_cfg`` and the node methods ``insert`` / ``delete`` /
``lookup``).  If it fails, the failure is reported and its metrics are left
out; the rest of the run, and every untraced run, does not depend on it.
"""

import gc
import json
import random
import statistics
import sys
import traceback
from types import SimpleNamespace

import leantrie
from leantrie import bits, dominators

import workloads as wl
from oracle import LOOKUP, PUT, REMOVE

M32 = 0xFFFFFFFF
OP_SPANS = {
    LOOKUP: ("maps.contains_entry", "nodes.lookup"),
    PUT: ("maps.put", "nodes.insert"),
    REMOVE: ("maps.remove", "nodes.delete"),
}
clock = wl.clock


class ReplayError(RuntimeError):
    """A node-level replay disagreed with the public call it mirrors."""


class Tracer:
    """In-memory spans, written out once at the end of the run."""

    FIELDS = ("id", "name", "start_ns", "end_ns", "op", "parent")

    def __init__(self):
        self.spans = []

    def add(self, name, start, end, op, parent=None):
        sid = len(self.spans)
        self.spans.append((sid, name, start, end, op, parent))
        return sid

    def write(self, path, meta):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            f.write(json.dumps({"metadata": meta, "fields": self.FIELDS}) + "\n")
            for span in self.spans:
                f.write(json.dumps(span) + "\n")


def p50_us(samples_ns):
    return wl.percentile(samples_ns, 50) / 1e3


# -- bits -----------------------------------------------------------------------


def bits_ns(seed, n=20_000, reps=5):
    """ns per call of ``filter_pattern`` and ``index_in_category`` over
    seeded random 64-bit words, loop included; median of ``reps``."""
    rng = random.Random(seed)
    fp_args = [(rng.getrandbits(64), rng.randrange(4)) for _ in range(n)]
    ic_args = [(w, p, rng.randrange(32)) for w, p in fp_args]
    filter_pattern = bits.filter_pattern
    index_in_category = bits.index_in_category

    def fp_loop():
        for w, p in fp_args:
            filter_pattern(w, p)

    def ic_loop():
        for w, p, b in ic_args:
            index_in_category(w, p, b)

    def per_call(loop):
        times = []
        for _ in range(reps):
            t0 = clock()
            loop()
            times.append(clock() - t0)
        return statistics.median(times) / n

    return per_call(fp_loop), per_call(ic_loop)


# -- storage --------------------------------------------------------------------


def alloc_deltas(base, stream, samples):
    """Exact modeled allocation of sampled updates of ``stream``:
    ``footprint([old, new]) - footprint(old)``, averaged per kind."""
    ops = stream.ops

    def evenly(kind):
        idx = [i for i, op in enumerate(ops) if op[0] == kind]
        step = max(1, len(idx) // samples)
        return idx[::step][:samples]

    chosen = set(evenly(PUT)) | set(evenly(REMOVE))
    words = {PUT: [], REMOVE: []}
    nodes = []
    mm = base
    for i, (kind, k, v) in enumerate(ops):
        if kind == LOOKUP:
            continue
        new = mm.put(k, v) if kind == PUT else mm.remove(k, v)
        if i in chosen:
            old = leantrie.footprint(mm)
            both = leantrie.footprint([mm, new])
            words[kind].append(both.words_total - old.words_total)
            if kind == PUT:
                nodes.append(both.nodes - old.nodes)
        mm = new
    return {
        "storage.words_alloc_per_put": statistics.mean(words[PUT]),
        "storage.nodes_alloc_per_put": statistics.mean(nodes),
        "storage.words_alloc_per_remove": statistics.mean(words[REMOVE]),
    }


def shape_metrics(structures):
    report = leantrie.footprint(structures)
    stats = [leantrie.structure_stats(s) for s in structures]
    return {
        "storage.nested_words_share": report.nested_words / report.words_total,
        "nodes.max_depth": max(s["max_depth"] for s in stats),
        "nodes.trie_nodes": sum(s["trie_nodes"] for s in stats),
        "nodes.nested_set_nodes": sum(s["nested_set_nodes"] for s in stats),
    }


# -- nodes and maps -------------------------------------------------------------


def paired_pass(base, stream):
    """One pass of ``stream`` in which every public call is followed at once
    by the same operation replayed on the bare trie (``_root``, with hashes
    computed before the loop), so each pair of spans sees the same state of
    the host.  Returns ``(maps, nodes)`` spans, one ``(start, end)`` each
    per operation; the node chain must give the public call's answers."""
    cfg = base._cfg
    vcfg = cfg.value_cfg
    root = base._root
    mm = base
    hashed = [(cfg.hasher(k) & M32, vcfg.hasher(v) & M32) for _, k, v in stream.ops]
    flat = []
    gc.collect()
    for (kind, k, v), (kh, vh) in zip(stream.ops, hashed):
        if kind == LOOKUP:
            t0 = clock()
            r = mm.contains_entry(k, v)
            t1 = clock()
            n0 = clock()
            found = root.lookup(cfg, 0, kh, k)
            if found is None:
                hit = False
            elif type(found[1]) is int:
                hit = found[1] == v
            else:
                hit = found[1].lookup(vcfg, 0, vh, v) is not None
            n1 = clock()
            if hit != r:
                raise ReplayError(f"node lookup of {k!r} answered {hit}")
        else:
            old = root
            if kind == PUT:
                t0 = clock()
                r = mm.put(k, v)
                t1 = clock()
                n0 = clock()
                root = root.insert(cfg, 0, kh, k, v)[0]
                n1 = clock()
            else:
                t0 = clock()
                r = mm.remove(k, v)
                t1 = clock()
                n0 = clock()
                root = root.delete(cfg, 0, kh, k, v, False)[0]
                n1 = clock()
            mm = r
            if root is old:
                raise ReplayError(f"node update of {k!r} changed nothing")
        flat += (t0, t1, n0, n1)
    return pairs(flat[0::2]), pairs(flat[1::2])


def point_layers(base, stream, tracer):
    """Per-op node times and ``maps`` self times from a paired pass."""
    m = {
        "nodes.promote_share": stream.promote_share,
        "nodes.demote_share": stream.demote_share,
    }
    try:
        maps_spans, node_spans = paired_pass(base, stream)
    except Exception:
        traceback.print_exc()
        print("perfbench: node replay failed; nodes/maps self times omitted", file=sys.stderr)
        return m
    node_ns = ([], [], [])
    self_ns = ([], [], [])
    for i, ((kind, _, _), (m0, m1), (n0, n1)) in enumerate(
        zip(stream.ops, maps_spans, node_spans)
    ):
        parent = tracer.add(OP_SPANS[kind][0], m0, m1, i)
        tracer.add(OP_SPANS[kind][1], n0, n1, i, parent)
        node_ns[kind].append(n1 - n0)
        self_ns[kind].append((m1 - m0) - (n1 - n0))
    m.update(
        {
            "nodes.insert_us_p50": p50_us(node_ns[PUT]),
            "nodes.delete_us_p50": p50_us(node_ns[REMOVE]),
            "nodes.lookup_us_p50": p50_us(node_ns[LOOKUP]),
            "maps.put_self_us": p50_us(self_ns[PUT]),
            "maps.remove_self_us": p50_us(self_ns[REMOVE]),
            "maps.lookup_self_us": p50_us(self_ns[LOOKUP]),
        }
    )
    return m


def replay_fixpoint(graphs, results, tracer, tally):
    """Time the dominator fixpoint's calls on each finished result's real
    operands: ``get`` of every predecessor's set, the pairwise ``&`` fold,
    the ``==`` stability test, and the ``remove_key`` plus one ``put`` per
    dominator that rewrites a vertex.  At the fixpoint every test must hold
    and every rewrite must give back an equal multimap."""
    times = {"get": [], "set_and": [], "set_eq": [], "rewrite": []}

    def span(name, t0, t1, op):
        tracer.add("maps." + name, t0, t1, op)
        times[name].append(t1 - t0)

    op = 0
    for g, dom in zip(graphs, results):
        preds = dominators.compute_preds(g)
        failed = 0
        for n in range(g.vertex_count):
            if n == g.entry:
                continue
            op += 1
            operands = []
            for p in preds.get(n):
                t0 = clock()
                s = dom.get(p)
                span("get", t0, clock(), op)
                operands.append(s)
            acc = operands[0]
            for other in operands[1:]:
                t0 = clock()
                acc = acc & other
                span("set_and", t0, clock(), op)
            new = acc if n in acc else acc | (n,)
            current = dom.get(n)
            t0 = clock()
            same = new == current
            span("set_eq", t0, clock(), op)
            t0 = clock()
            rewritten = dom.remove_key(n)
            for d in new:
                rewritten = rewritten.put(n, d)
            span("rewrite", t0, clock(), op)
            failed += not same or rewritten != dom
        tally.add((g.vertex_count - 1, failed))
    return {f"maps.{name}_us_p50": p50_us(ns) for name, ns in times.items()}


def dominator_counts(graphs):
    results = [dominators.analyze_graph(g) for g in graphs]
    vertices = sum(r.vertices for r in results)
    return {
        "dominators.iterations": sum(r.dom_iterations for r in results),
        "dominators.preds_pct_1to1": statistics.mean(r.preds_pct_1to1 for r in results),
        "dominators.dom_tuples_per_vertex": sum(
            r.dominators.tuple_count for r in results
        )
        / vertices,
    }


# -- the traced run -------------------------------------------------------------


PRIMARY_SPANS = {
    "build": "maps.multimap",
    "mixed": "maps.point_op",
    "dominators": "dominators.compute_dominators",
}


def _primary(name, inp, sc, tally, res, spans=None):
    """The workload's own phase at a fixed size, in four chunks."""
    if name == "build":
        return wl.build_phase(inp.datasets, inp.models, sc.trace_builds, tally, res, spans)
    if name == "mixed":
        return wl.points_phase(inp.base, inp.stream, 1, 4, tally, res, spans)
    return wl.dominator_phase(inp.graphs, 4, len(inp.graphs), tally, res, spans)


def pairs(flat):
    return list(zip(flat[::2], flat[1::2]))


def run_traced(name, seed, sc, meta, out_dir):
    """One traced run; returns (per-layer metrics, tally, side info)."""
    tally = wl.Tally()
    tracer = Tracer()
    inp = next(wl.setup_phase(name, seed, sc, 0, 0, []))

    # the same fixed work untraced and traced, chunks alternating, so that
    # drift in the host's speed falls on both alike
    untraced = wl.Tally()
    res, traced_res = SimpleNamespace(), SimpleNamespace()
    spans = []
    wl.run_rounds(
        _primary(name, inp, sc, untraced, res),
        _primary(name, inp, sc, tally, traced_res, spans),
    )
    tally.merge(untraced)
    spans = pairs(spans)
    m = {f"gc.collections_gen{i}": n for i, n in enumerate(untraced.gc)}
    m["trace.overhead_frac"] = res.rate / traced_res.rate - 1

    for i, (t0, t1) in enumerate(spans):
        tracer.add(PRIMARY_SPANS[name], t0, t1, i)
    base, stream = inp.base, inp.stream
    if name == "dominators":
        structures = res.kept[: sc.kept_graphs]
    else:
        structures = [base if name == "build" else res.final]
    m.update(point_layers(base, stream, tracer))
    m.update(alloc_deltas(base, stream, sc.delta_samples))
    m.update(shape_metrics(structures))

    if name != "dominators":
        res = SimpleNamespace()
        wl.run_rounds(wl.dominator_phase(inp.graphs, 1, len(inp.graphs), tally, res))
    m.update(replay_fixpoint(inp.graphs, res.kept, tracer, tally))
    m.update(dominator_counts(inp.graphs))

    m["bits.filter_pattern_ns"], m["bits.index_in_category_ns"] = bits_ns(
        wl.sub_seed(seed, 4)
    )
    tracer.write(out_dir / f"trace-{name}-seed{seed}.jsonl", meta)
    return m, tally, {"spans": len(tracer.spans), "gc_collections": untraced.gc}
