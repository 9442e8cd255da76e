"""The three workloads and their end-to-end measurement.

Every workload is built from phases over the library's public API:

* ``build``      -- bulk ``multimap(entries)`` of 2^13-key 50:50 datasets;
* ``points``     -- a closed loop of ``contains_entry`` / ``put`` / ``remove``
  with one client, each result becoming the current version;
* ``dominators`` -- ``compute_dominators`` on 512-vertex random CFGs, and
  the bulk build of each graph's predecessor relation.

A workload gives its own phase most of the run and runs the others as small
fixed slices on its own data, so that every run reports every end-to-end
metric (the point-operation latencies of the ``build`` workload come from
the multimap it builds, and the ``mixed`` workload bulk-builds a smaller
dataset of its own 90:10 mix, for example).  The phases advance in lockstep
rounds, one chunk each per round, and each metric is a median over rounds
or blocks: the host's speed drifts by 10-30% over seconds, and a slice run
in one burst would measure the burst's luck instead of the code.  Slower
shifts, lasting minutes and worth up to 1.7x, are taken out by bracketing
every timed region of an end-to-end run with the reference task of
``hostspeed`` and reporting its time at the nominal host speed.

Work is sized from ``--seconds`` at a nominal rate per unit, not by polling
the clock, so that two runs on one seed do the same work whatever the
machine's speed; that keeps the count metrics exactly repeatable.
"""

import gc
import statistics
import sys
import types
from dataclasses import dataclass
from itertools import pairwise
from time import perf_counter_ns
from types import SimpleNamespace

import leantrie
from leantrie import bench, dominators

from hostspeed import LONG_BRACKET, NOMINAL_NS, Speedometer
from oracle import (
    LOOKUP,
    PUT,
    REMOVE,
    OpStream,
    check_answers,
    check_dominators,
    check_multimap,
    model_of,
    require_ints,
    update_answer,
)

WORKLOADS = ("build", "mixed", "dominators")
OPS = ((LOOKUP, "lookup"), (PUT, "put"), (REMOVE, "remove"))


@dataclass(frozen=True)
class Scale:
    build_log2: int  # keys per bulk-build dataset (50:50 mix)
    build_datasets: int  # distinct datasets the build phase cycles through
    build_nominal_s: float  # seconds per build, to size the phase
    mixed_log2: int  # keys in the prebuilt point-operation multimap (90:10)
    mixed_build_log2: int  # keys in the mixed workload's build slice (90:10)
    pass_ops: int  # operations per point-operation pass
    round_nominal_s: float  # seconds per round of the mixed/dominators phase
    graph_vertices: int
    graph_nominal_s: float
    slice_ops: int  # point operations when points is a slice
    slice_graphs: int  # graphs when dominators is a slice
    # Smaller graphs for the slice, and more of them: the time per graph
    # moves by +-30% with its shape, and 16 graphs of 512 vertices left the
    # slice's rate 12% apart from one seed to the next.
    slice_graph_vertices: int
    setup_reps: int  # set-ups per run; setup_s is their median
    kept_graphs: int  # dominator results kept for words/bytes
    block: int  # latency samples per percentile block; point ops per reference task
    delta_samples: int  # sampled updates per kind for storage deltas
    trace_builds: int  # fixed work of the traced run's primary phase
    trace_graphs: int


FULL = Scale(
    build_log2=13,
    build_datasets=2,
    build_nominal_s=0.4,
    mixed_log2=16,
    mixed_build_log2=13,
    pass_ops=40_000,
    round_nominal_s=1.3,
    graph_vertices=512,
    graph_nominal_s=0.26,
    slice_ops=100_000,
    slice_graphs=64,
    slice_graph_vertices=128,
    setup_reps=3,
    kept_graphs=24,
    block=2_000,
    delta_samples=8,
    trace_builds=2,
    trace_graphs=8,
)

TINY = Scale(
    build_log2=8,
    build_datasets=2,
    build_nominal_s=100.0,
    mixed_log2=9,
    mixed_build_log2=7,
    pass_ops=4_000,
    round_nominal_s=100.0,
    graph_vertices=64,
    graph_nominal_s=100.0,
    slice_ops=4_000,
    slice_graphs=3,
    slice_graph_vertices=64,
    setup_reps=3,
    kept_graphs=2,
    block=1_000,
    delta_samples=3,
    trace_builds=2,
    trace_graphs=3,
)

SCALES = {"full": FULL, "tiny": TINY}

clock = perf_counter_ns


def sub_seed(seed, stream, i=0):
    """Independent, non-negative seeds for each generated input."""
    return (seed * 1_000 + stream) * 100_000 + i


def gc_collections():
    return [g["collections"] for g in gc.get_stats()]


class Tally:
    """Operations checked against an oracle, how many disagreed, and the
    collections the cyclic GC ran inside timed regions, per generation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.gc = [0, 0, 0]

    def add(self, outcome):
        attempted, failed = outcome
        self.attempted += attempted
        self.failed += failed

    def gc_since(self, before):
        self.gc = [n + a - b for n, a, b in zip(self.gc, gc_collections(), before)]

    def merge(self, other):
        self.add((other.attempted, other.failed))
        self.gc = [a + b for a, b in zip(self.gc, other.gc)]


def percentile(samples, q):
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def block_percentile(samples, q, block):
    """Median over consecutive blocks of about ``block`` samples of each
    block's ``q``-th percentile; a short tail joins the last block."""
    n = max(1, len(samples) // block)
    size = len(samples) // n
    blocks = [samples[i * size : (i + 1) * size] for i in range(n - 1)]
    blocks.append(samples[(n - 1) * size :])
    return statistics.median(percentile(b, q) for b in blocks)


def chunk_bounds(n, chunks):
    return [n * i // chunks for i in range(chunks + 1)]


def run_rounds(*phases):
    """Advance phase generators in lockstep, one chunk each per round,
    until every one is exhausted."""
    active = list(phases)
    while active:
        active = [p for p in active if next(p, StopIteration) is not StopIteration]


# -- inputs ---------------------------------------------------------------------


def _graphs(seed, vertices, count):
    return [
        dominators.random_cfg(vertices, sub_seed(seed, 3, i))
        for i in range(count)
    ]


def _dataset(seed, log2, mix, i=0):
    spec = bench.WorkloadSpec(mix=mix)
    return bench.generate_workload(spec, 1 << log2, sub_seed(seed, 1, i))


def setup_build(seed, sc, seconds):
    datasets = [_dataset(seed, sc.build_log2, 0.5, i) for i in range(sc.build_datasets)]
    models = [model_of(d.entries) for d in datasets]
    return SimpleNamespace(
        datasets=datasets,
        models=models,
        # the point slice runs on dataset 0's multimap
        base=leantrie.multimap(datasets[0].entries),
        stream=OpStream(models[0], sc.slice_ops, sub_seed(seed, 2)),
        graphs=_graphs(seed, sc.slice_graph_vertices, sc.slice_graphs),
    )


def setup_mixed(seed, sc, seconds):
    dataset = _dataset(seed, sc.mixed_log2, 0.9)
    small = _dataset(seed, sc.mixed_build_log2, 0.9, 1)
    model = model_of(dataset.entries)
    return SimpleNamespace(
        datasets=[dataset, small],
        model=model,
        stream=OpStream(model, sc.pass_ops, sub_seed(seed, 2)),
        base=leantrie.multimap(dataset.entries),
        builds=[small],
        build_models=[model_of(small.entries)],
        graphs=_graphs(seed, sc.slice_graph_vertices, sc.slice_graphs),
    )


def setup_dominators(seed, sc, seconds):
    count = max(sc.trace_graphs, round(seconds / sc.graph_nominal_s))
    graphs = _graphs(seed, sc.graph_vertices, count)
    base, stream = cfg_relation(graphs, sc, seed)
    return SimpleNamespace(datasets=[], graphs=graphs, base=base, stream=stream)


SETUPS = {"build": setup_build, "mixed": setup_mixed, "dominators": setup_dominators}


def input_pairs(inp):
    """Every generated (key, value) pair and edge, for the int check."""
    for d in inp.datasets:
        yield from d.entries
    yield from ((k, v) for _, k, v in inp.stream.ops)
    for g in inp.graphs:
        yield from g.edges


# -- phases ---------------------------------------------------------------------
#
# Each phase is a generator that yields after every chunk of timed work and
# leaves its results in the namespace it is given.  Correctness gates run
# between chunks, outside every timed region; ``gc.collect()`` runs before
# each timed chunk, and the GC stays on inside it.  ``spans``, when given,
# gets each timed call's start and end as two flat ints: a tuple per call
# would be a GC-tracked allocation that itself triggers collections.


def run_points(base, ops, lat, spans=None):
    """Apply ``ops`` in a closed loop from ``base``; return the final version
    and the observed answers.  Only the library call sits between the two
    clock reads; ``lat[kind]`` gets each latency in ns."""
    mm = base
    out = []
    for kind, k, v in ops:
        if kind == LOOKUP:
            t0 = clock()
            r = mm.contains_entry(k, v)
            t1 = clock()
            out.append(r)
        else:
            if kind == PUT:
                t0 = clock()
                r = mm.put(k, v)
                t1 = clock()
            else:
                t0 = clock()
                r = mm.remove(k, v)
                t1 = clock()
            out.append(update_answer(r.tuple_count, r.key_count, r is not mm))
            mm = r
        lat[kind].append(t1 - t0)
        if spans is not None:
            spans.append(t0)
            spans.append(t1)
    return mm, out


def run_points_scaled(mm, ops, lat, speed, step):
    """``run_points`` in steps of ``step`` operations with the reference task
    between steps; latencies go to ``lat`` at the nominal host speed.
    Returns the final version, the answers and the scaled busy time in ns."""
    out = []
    busy = 0.0
    before = speed.sample()
    for a in range(0, len(ops), step):
        raw = ([], [], [])
        t0 = clock()
        mm, answers = run_points(mm, ops[a : a + step], raw)
        t1 = clock()
        after = speed.sample()
        f = speed.factor(before, after)
        for kind, samples in enumerate(raw):
            lat[kind].extend(ns * f for ns in samples)
        busy += (t1 - t0) * f
        out.extend(answers)
        before = after
    return mm, out, busy


def points_phase(base, stream, passes, chunks, tally, res, spans=None, speed=None, step=0):
    """``passes`` passes of ``stream``, each from ``base`` and in ``chunks``
    consecutive pieces.  Leaves the median ops/s over chunks in ``res.rate``,
    latencies by kind in ``res.lat`` and the last version in ``res.final``.
    Answers are checked after each pass, the final version's content and
    invariants at the end.  With ``speed``, times are at the nominal host
    speed, the reference task running every ``step`` operations."""
    ops = stream.ops
    bounds = chunk_bounds(len(ops), chunks)
    res.rates = []
    res.lat = ([], [], [])
    for _ in range(passes):
        mm = base
        out = []
        for a, b in pairwise(bounds):
            piece = ops[a:b]
            gc.collect()
            g = gc_collections()
            if speed is None:
                t0 = clock()
                mm, answers = run_points(mm, piece, res.lat, spans)
                busy = clock() - t0
            else:
                mm, answers, busy = run_points_scaled(mm, piece, res.lat, speed, step)
            tally.gc_since(g)
            res.rates.append(len(piece) / (busy / 1e9))
            out.extend(answers)
            yield
        tally.add(check_answers(stream.expected, out))
    res.final = mm
    res.rate = statistics.median(res.rates)
    tally.add(check_multimap(mm, stream.final_model, leantrie.check_invariants))


def scaled(speed, before, ns, n=1):
    """``ns`` measured after the reference sample ``before`` of ``n`` tasks,
    at the nominal host speed; unchanged without ``speed``."""
    if speed is None:
        return ns
    return ns * speed.factor(before, speed.sample(n))


def build_phase(datasets, models, n_builds, tally, res, spans=None, speed=None):
    """``n_builds`` bulk builds cycling over ``datasets``, one per chunk;
    leaves the median tuples/s over builds in ``res.rate``.  Every build is
    gated."""
    res.rates = []
    for i in range(n_builds):
        j = i % len(datasets)
        entries = datasets[j].entries
        gc.collect()
        g = gc_collections()
        before = speed and speed.sample()
        t0 = clock()
        mm = leantrie.multimap(entries)
        t1 = clock()
        busy = scaled(speed, before, t1 - t0)
        tally.gc_since(g)
        if spans is not None:
            spans.append(t0)
            spans.append(t1)
        res.rates.append(len(entries) / (busy / 1e9))
        tally.add(check_multimap(mm, models[j], leantrie.check_invariants))
        mm = None
        yield
    res.rate = statistics.median(res.rates)


def dominator_phase(graphs, chunks, keep, tally, res, spans=None, speed=None):
    """Analyse ``graphs`` in ``chunks`` pieces; leaves vertices/s over the
    whole phase in ``res.rate`` and the first ``keep`` results in
    ``res.kept``.  Each result is gated against the bit-vector oracle.

    The rate is a total, not a median over chunks: the time per graph is
    bimodal (two or three fixpoint passes), and a median would jump
    between the modes from one seed to the next."""
    res.kept = []
    busy = vertices = 0
    for a, b in pairwise(chunk_bounds(len(graphs), chunks)):
        gc.collect()
        for g in graphs[a:b]:
            before = gc_collections()
            ref = speed and speed.sample()
            t0 = clock()
            dom = dominators.compute_dominators(g)
            t1 = clock()
            busy += scaled(speed, ref, t1 - t0)
            tally.gc_since(before)
            if spans is not None:
                spans.append(t0)
                spans.append(t1)
            vertices += g.vertex_count
            tally.add(check_dominators(g, dom))
            if len(res.kept) < keep:
                res.kept.append(dom)
        yield
    res.rate = vertices / (busy / 1e9)


def preds_phase(graphs, chunks, tally, res, speed=None):
    """Bulk builds of each graph's predecessor relation in ``chunks``
    pieces; leaves tuples/s over the whole phase in ``res.rate``."""
    busy = tuples = 0
    for a, b in pairwise(chunk_bounds(len(graphs), chunks)):
        gc.collect()
        for g in graphs[a:b]:
            before = gc_collections()
            ref = speed and speed.sample()
            t0 = clock()
            preds = dominators.compute_preds(g)
            busy += scaled(speed, ref, clock() - t0)
            tally.gc_since(before)
            tuples += preds.tuple_count
            model = model_of((d, s) for s, d in g.edges)
            tally.add(check_multimap(preds, model, leantrie.check_invariants))
        yield
    res.rate = tuples / (busy / 1e9)


def cfg_relation(graphs, sc, seed):
    """Every graph's predecessor relation as one multimap keyed ``graph << 16
    | vertex``, and a point-operation stream over it (edge queries and CFG
    edits): the point slice of the dominators workload."""
    pairs = [(i << 16 | d, s) for i, g in enumerate(graphs) for s, d in g.edges]
    model = model_of(pairs)
    return leantrie.multimap(pairs), OpStream(model, sc.slice_ops, sub_seed(seed, 2))


# -- memory ---------------------------------------------------------------------

_SHARED = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType)


def object_bytes(structures):
    """CPython bytes held by ``structures``: ``sys.getsizeof`` of every object
    reachable from them, each counted once, leaving out the keys and values
    they store and objects every structure shares (classes, functions,
    ``None`` and small ints).  This is what ``tracemalloc`` sees a fresh
    ``multimap`` of the same content allocate, up to the interpreter's own
    few-KiB caches (``test_smoke`` checks the two agree), at a fraction of
    the cost of building under ``tracemalloc``.
    """
    skip = {id(x) for s in structures for pair in s.items() for x in pair}
    seen = set()
    total = 0
    stack = list(structures)
    while stack:
        o = stack.pop()
        if id(o) in seen or id(o) in skip:
            continue
        seen.add(id(o))
        if o is None or type(o) is bool or isinstance(o, _SHARED):
            continue
        if type(o) is int and -5 <= o <= 256:
            continue
        total += sys.getsizeof(o)
        stack.extend(gc.get_referents(o))
    return total


def memory_per_tuple(structures):
    """(CPython bytes per tuple, modeled footprint words per tuple)."""
    tuples = sum(s.tuple_count for s in structures)
    words = leantrie.footprint(structures).words_total
    return object_bytes(structures) / tuples, words / tuples


# -- end-to-end runs ------------------------------------------------------------


def setup_phase(name, seed, sc, seconds, rounds, times, speed=None):
    """Set the workload up ``sc.setup_reps`` times, the first before any
    round and the others spread evenly over ``rounds`` rounds, so that
    ``setup_s`` samples the whole run.  The first inputs are returned by the
    first ``next()``; later repetitions' inputs are dropped.  With ``speed``,
    times are at the nominal host speed."""
    spread = sc.setup_reps - 1
    at = [0] + [max(1, round((i + 1) * rounds / spread)) for i in range(spread)]
    inp = None
    for r in range(rounds + 1):
        for _ in range(at.count(r)):
            fresh = None
            gc.collect()
            ref = speed and speed.sample(LONG_BRACKET)
            t0 = clock()
            fresh = SETUPS[name](seed, sc, seconds)
            times.append(scaled(speed, ref, clock() - t0, LONG_BRACKET) / 1e9)
            if inp is None:
                inp = fresh
                require_ints(input_pairs(inp))
            fresh = None
        yield inp


def point_metrics(res, block):
    """The tail is p95, not p99: cyclic-GC pauses and the slowest promotions
    (150-250 us) make up about 1% of updates, so p99 falls on the edge of
    that plateau and moves by 20-45% from one seed to the next."""
    m = {"mixed_ops_per_s": res.rate}
    for kind, op in OPS:
        m[f"{op}_us_p50"] = block_percentile(res.lat[kind], 50, block) / 1e3
        m[f"{op}_us_p95"] = block_percentile(res.lat[kind], 95, block) / 1e3
    return m


def run_end_to_end(name, seed, seconds, sc):
    """One untraced run; returns (metrics, tally, side info)."""
    tally = Tally()
    speed = Speedometer()
    nominal = sc.build_nominal_s if name == "build" else sc.round_nominal_s
    rounds = max(2, round(seconds / nominal))
    setup_times = []
    setups = setup_phase(name, seed, sc, seconds, rounds, setup_times, speed)
    inp = next(setups)
    pts, doms = SimpleNamespace(), SimpleNamespace()

    if name == "build":
        tally.add(check_multimap(inp.base, inp.models[0], leantrie.check_invariants))
        builds = SimpleNamespace()
        run_rounds(
            setups,
            build_phase(inp.datasets, inp.models, rounds, tally, builds, speed=speed),
            points_phase(inp.base, inp.stream, 1, rounds, tally, pts, None, speed, sc.block),
            dominator_phase(inp.graphs, rounds, 0, tally, doms, speed=speed),
        )
        build_rate = builds.rate
        produced = [inp.base]
    elif name == "mixed":
        tally.add(check_multimap(inp.base, inp.model, leantrie.check_invariants))
        builds = SimpleNamespace()
        run_rounds(
            setups,
            points_phase(inp.base, inp.stream, rounds, 1, tally, pts, None, speed, sc.block),
            build_phase(inp.builds, inp.build_models, rounds, tally, builds, speed=speed),
            dominator_phase(inp.graphs, rounds, 0, tally, doms, speed=speed),
        )
        build_rate = builds.rate
        produced = [pts.final]
    else:
        preds = SimpleNamespace()
        run_rounds(
            setups,
            dominator_phase(inp.graphs, rounds, sc.kept_graphs, tally, doms, speed=speed),
            preds_phase(inp.graphs, rounds, tally, preds, speed),
            points_phase(inp.base, inp.stream, 1, rounds, tally, pts, None, speed, sc.block),
        )
        build_rate = preds.rate
        produced = doms.kept

    m = {"setup_s": statistics.median(setup_times), "build_tuples_per_s": build_rate}
    m.update(point_metrics(pts, sc.block))
    m["dom_vertices_per_s"] = doms.rate
    m["bytes_per_tuple"], m["words_per_tuple"] = memory_per_tuple(produced)
    samples = {op: len(pts.lat[kind]) for kind, op in OPS}
    return m, tally, {
        "samples": samples,
        "gc_collections": tally.gc,
        "rounds": rounds,
        "setup_s_each": setup_times,
        # reported times are measured times * nominal / reference
        "reference_ms": {
            "median": statistics.median(speed.samples) / 1e6,
            "nominal": NOMINAL_NS / 1e6,
            "tasks": len(speed.samples),
        },
    }
