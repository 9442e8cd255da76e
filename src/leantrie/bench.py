"""Benchmark and footprint harness for the multimap and its baselines.

Workloads are sized in unique keys (2^x), generated deterministically
from a seed with a configurable mix of 1:1 and 1:2 key-to-value
mappings, plus three disjoint 8-probe bursts: full matches (key and
value present), partial matches (key present, value absent — the burst
that exercises promotion), and no matches (key absent).

Three structures are comparable on one dataset:

* ``multimap``     -- :class:`leantrie.PersistentMultiMap`;
* ``map_of_sets``  -- the baseline idiom, a persistent map whose values
  are persistent sets (one nested set per key, even singletons);
* ``map``          -- a plain persistent map, only valid on pure 1:1
  datasets, for overhead comparisons against the multimap.

Every timed cell is preceded by a correctness gate that cross-checks
the structure against a dict-of-sets reference model; timings report
the median and the median absolute deviation in nanoseconds per single
operation.  Footprint rows give the abstract word model, which is fully
deterministic, next to real CPython bytes (:func:`object_bytes`), which
are deterministic for one Python build.
"""

import csv
import json
import os
import platform
import random
import statistics
import subprocess
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from time import perf_counter_ns

from .maps import multimap, pmap, pset
from .storage import DEFAULT_MODEL, byte_components, footprint

OPERATIONS = (
    "lookup",
    "insert",
    "delete",
    "lookup_fail",
    "insert_fail",
    "delete_fail",
    "iterate_keys",
    "iterate_entries",
)


class ConfigurationError(ValueError):
    """A workload or suite request that cannot be satisfied."""


class GateError(AssertionError):
    """A correctness gate failed; timing was not attempted."""


@dataclass(frozen=True)
class WorkloadSpec:
    """Workload parameters; sizes are 2^x for each listed exponent."""

    size_exponents: tuple = tuple(range(1, 19))
    seeds: int = 5
    mix: float = 0.5  # fraction of keys with exactly one value

    def __post_init__(self):
        if not all(1 <= x <= 23 for x in self.size_exponents):
            raise ConfigurationError("size exponents must lie in [1, 23]")
        if not 0.0 <= self.mix <= 1.0:
            raise ConfigurationError("mix must be a fraction in [0, 1]")
        if self.seeds < 1:
            raise ConfigurationError("need at least one seed")


@dataclass(frozen=True)
class Dataset:
    """One generated workload: entries plus the three probe bursts."""

    size: int
    seed: int
    entries: tuple
    full_probes: tuple
    partial_probes: tuple
    none_probes: tuple

    @property
    def is_pure_one_to_one(self):
        return len(self.entries) == self.size


_KEY_SPACE = 1 << 40
_VALUE_SPACE = 1 << 32
_BURST = 8  # probes per burst, as in the paper


def generate_workload(spec, size, seed):
    """Deterministic dataset of ``size`` unique keys for (spec, size, seed).

    Keys split into ``mix`` 1:1 and the rest 1:2 mappings; the three
    probe bursts are pairwise disjoint, padded by duplication up to
    ``_BURST`` probes.
    """
    if size < 1:
        raise ConfigurationError("size must be at least 1")
    rng = random.Random((seed << 32) ^ size)
    # spare keys beyond `size` feed the no-match burst
    keys = rng.sample(range(_KEY_SPACE), size + _BURST)
    absent_keys = keys[size:]
    keys = keys[:size]
    n_single = round(size * spec.mix)

    entries = []
    values = {}
    for k in keys[:n_single]:
        v = rng.randrange(_VALUE_SPACE)
        entries.append((k, v))
        values[k] = (v,)
    for k in keys[n_single:]:
        v1, v2 = rng.sample(range(_VALUE_SPACE), 2)
        entries.append((k, v1))
        entries.append((k, v2))
        values[k] = (v1, v2)

    def pad(probes):
        if not probes:
            raise ConfigurationError(
                f"size {size} cannot supply disjoint probe bursts"
            )
        out = list(probes)
        while len(out) < _BURST:
            out.append(out[len(out) % len(probes)])
        return tuple(out[:_BURST])

    full = pad([(k, values[k][i % len(values[k])]) for i, k in enumerate(pad(keys))])
    # a value outside the 32-bit value space can never collide with a
    # stored value, keeping the partial burst disjoint from the full one
    partial = pad([(k, _VALUE_SPACE + rng.randrange(1 << 16)) for k in pad(keys)])
    none = pad([(k, rng.randrange(_VALUE_SPACE)) for k in absent_keys])
    return Dataset(
        size=size,
        seed=seed,
        entries=tuple(entries),
        full_probes=full,
        partial_probes=partial,
        none_probes=none,
    )


# -- structure adapters ----------------------------------------------------------


class _Adapter:
    """What the three adapters share; each overrides what differs."""

    def insert(self, s, k, v):
        return s.put(k, v)

    def counts(self, s):
        """``(tuples, keys)``."""
        return len(s), len(s)

    def iter_keys_count(self, s):
        return sum(1 for _ in s)

    def iter_entries_count(self, s):
        return sum(1 for _ in s.items())


class _MultiMapAdapter(_Adapter):
    name = "multimap"

    def build(self, dataset):
        return multimap(dataset.entries)

    def lookup(self, s, k, v):
        return s.contains_entry(k, v)

    def delete(self, s, k, v):
        return s.remove(k, v)

    def counts(self, s):
        return s.tuple_count, s.key_count


class _MapOfSetsAdapter(_Adapter):
    name = "map_of_sets"
    # the empty value set: every value set grows from it and so shares its
    # config, as a multimap's nested sets share theirs
    empty = pset()

    def build(self, dataset):
        grouped = {}
        for k, v in dataset.entries:
            grouped.setdefault(k, []).append(v)
        make = self.empty._from_iterable
        return pmap((k, make(vs)) for k, vs in grouped.items())

    def lookup(self, s, k, v):
        nested = s.get(k)
        return nested is not None and v in nested

    def insert(self, s, k, v):
        nested = s.get(k)
        if nested is None:
            return s.put(k, self.empty.add(v))
        return s.put(k, nested.add(v))

    def delete(self, s, k, v):
        nested = s.get(k)
        if nested is None:
            return s
        smaller = nested.discard(v)
        if smaller is nested:
            return s
        if len(smaller) == 0:
            return s.remove(k)
        return s.put(k, smaller)

    def counts(self, s):
        return sum(len(vs) for vs in s.values()), len(s)

    def iter_entries_count(self, s):
        return sum(1 for vs in s.values() for _ in vs)


class _MapAdapter(_Adapter):
    name = "map"

    def build(self, dataset):
        if not dataset.is_pure_one_to_one:
            raise ConfigurationError(
                "the plain map baseline requires a pure 1:1 dataset (mix=1.0)"
            )
        return pmap(dataset.entries)

    def lookup(self, s, k, v):
        found = s.get(k, _MISSING)
        return found is not _MISSING and found == v

    def delete(self, s, k, v):
        if self.lookup(s, k, v):
            return s.remove(k)
        return s


_MISSING = object()

_ADAPTERS = {
    "multimap": _MultiMapAdapter(),
    "map_of_sets": _MapOfSetsAdapter(),
    "map": _MapAdapter(),
}


def _adapter(name):
    try:
        return _ADAPTERS[name]
    except KeyError:
        raise ConfigurationError(f"unknown structure {name!r}") from None


# -- correctness gate --------------------------------------------------------------


def _reference_model(dataset):
    model = {}
    for k, v in dataset.entries:
        model.setdefault(k, set()).add(v)
    return model


def _require(condition, message):
    if not condition:
        raise GateError(message)


def _correctness_gate(adapter, base, dataset):
    model = _reference_model(dataset)
    tuples, keys = adapter.counts(base)
    _require(keys == len(model), f"{adapter.name}: key count {keys} != {len(model)}")
    expected_tuples = sum(len(s) for s in model.values())
    _require(
        tuples == expected_tuples,
        f"{adapter.name}: tuple count {tuples} != {expected_tuples}",
    )
    for k, v in dataset.full_probes:
        _require(v in model.get(k, ()), "dataset: full probe not in the model")
        _require(adapter.lookup(base, k, v), f"{adapter.name}: full-match lookup missed")
    for k, v in dataset.partial_probes:
        _require(
            k in model and v not in model[k], "dataset: partial probe misclassified"
        )
        _require(
            not adapter.lookup(base, k, v),
            f"{adapter.name}: partial-match lookup hit",
        )
    for k, v in dataset.none_probes:
        _require(k not in model, "dataset: no-match probe key is present")
        _require(
            not adapter.lookup(base, k, v), f"{adapter.name}: no-match lookup hit"
        )
    _require(
        adapter.iter_keys_count(base) == keys,
        f"{adapter.name}: key iteration count mismatch",
    )
    _require(
        adapter.iter_entries_count(base) == tuples,
        f"{adapter.name}: entry iteration count mismatch",
    )
    # mutation spot checks on one probe of each class
    k, v = dataset.full_probes[0]
    _require(
        adapter.insert(base, k, v) is base,
        f"{adapter.name}: inserting a present tuple must be a no-op",
    )
    _require(
        not adapter.lookup(adapter.delete(base, k, v), k, v),
        f"{adapter.name}: deleting a present tuple left it visible",
    )
    k, v = dataset.partial_probes[0]
    _require(
        adapter.lookup(adapter.insert(base, k, v), k, v),
        f"{adapter.name}: partial-match insert did not land",
    )
    _require(
        adapter.delete(base, k, v) is base,
        f"{adapter.name}: partial-match delete must be a no-op",
    )
    k, v = dataset.none_probes[0]
    _require(
        adapter.lookup(adapter.insert(base, k, v), k, v),
        f"{adapter.name}: no-match insert did not land",
    )
    _require(
        adapter.delete(base, k, v) is base,
        f"{adapter.name}: no-match delete must be a no-op",
    )


def _gated(name, dataset):
    """``(adapter, structure)``: the structure named ``name`` built from
    ``dataset``, once the correctness gate has passed on it."""
    adapter = _adapter(name)
    base = adapter.build(dataset)
    _correctness_gate(adapter, base, dataset)
    return adapter, base


# -- timing -------------------------------------------------------------------------


# each call is repeated to fill about this long a sample
_TARGET_SAMPLE_NS = 1_000_000


@dataclass(frozen=True)
class BenchConfig:
    warmup_iterations: int = 10
    measured_iterations: int = 20

    def __post_init__(self):
        if self.warmup_iterations < 0 or self.measured_iterations < 1:
            raise ConfigurationError("iteration counts out of range")


@dataclass(frozen=True)
class BenchRow:
    structure: str
    operation: str
    size_exponent: int
    seed: int
    median_ns: float
    mad_ns: float


BENCH_COLUMNS = tuple(f.name for f in fields(BenchRow))


def _op_callables(adapter, base, dataset):
    """The eight timed operations with their per-call probe counts."""
    present = dataset.full_probes + dataset.partial_probes
    absent = dataset.none_probes

    def run_probes(fn, probes):
        def call():
            for k, v in probes:
                fn(base, k, v)

        return call, len(probes)

    return {
        "lookup": run_probes(adapter.lookup, present),
        "insert": run_probes(adapter.insert, present),
        "delete": run_probes(adapter.delete, present),
        "lookup_fail": run_probes(adapter.lookup, absent),
        "insert_fail": run_probes(adapter.insert, absent),
        "delete_fail": run_probes(adapter.delete, absent),
        "iterate_keys": (lambda: adapter.iter_keys_count(base), 1),
        "iterate_entries": (lambda: adapter.iter_entries_count(base), 1),
    }


def _time_interleaved(calls, config):
    """Median and MAD nanoseconds per probe of each ``(call, probes)``.

    Each call is calibrated and warmed up on its own; then the measured
    iterations alternate, sample ``i`` of every call taken before sample
    ``i + 1`` of any, so host drift lands on every call alike.
    """
    repeats = []
    for call, _ in calls:
        start = perf_counter_ns()
        call()
        once = max(perf_counter_ns() - start, 1)
        n = max(1, min(100_000, _TARGET_SAMPLE_NS // once))
        for _ in range(config.warmup_iterations):
            for _ in range(n):
                call()
        repeats.append(n)
    samples = [[] for _ in calls]
    for _ in range(config.measured_iterations):
        for (call, probes), n, taken in zip(calls, repeats, samples):
            start = perf_counter_ns()
            for _ in range(n):
                call()
            taken.append((perf_counter_ns() - start) / n / probes)
    timed = []
    for taken in samples:
        med = statistics.median(taken)
        timed.append((med, statistics.median(abs(s - med) for s in taken)))
    return timed


def _run_cell(names, dataset, config, first=0, operations=OPERATIONS):
    """Gate every structure of one (size, seed) cell, then time each of
    ``operations`` across the structures with their samples interleaved,
    starting at ``names[first]``, so host drift lands on every side of a
    comparison.

    Rows come out structure by structure, operations in ``operations``
    order.
    """
    calls = {name: _op_callables(*_gated(name, dataset), dataset) for name in names}
    timed = {}
    order = names[first:] + names[:first]
    for operation in operations:
        results = _time_interleaved([calls[n][operation] for n in order], config)
        for name, result in zip(order, results):
            timed[name, operation] = result
    size_exponent = dataset.size.bit_length() - 1
    return [
        BenchRow(
            structure=name,
            operation=operation,
            size_exponent=size_exponent,
            seed=dataset.seed,
            median_ns=round(timed[name, operation][0], 1),
            mad_ns=round(timed[name, operation][1], 1),
        )
        for name in names
        for operation in operations
    ]


def default_structures(dataset):
    """The structures comparable on ``dataset``: the plain map baseline
    joins only on pure 1:1 data."""
    names = ["multimap", "map_of_sets"]
    if dataset.is_pure_one_to_one:
        names.append("map")
    return names


def run_benchmarks(spec, config=None, structures=None, operations=OPERATIONS):
    """The full (size x seed x structure) grid of timed suites, each
    timing ``operations``, names from ``OPERATIONS`` (by default all of
    them, in order); the structure timed first rotates from seed to
    seed."""
    config = config or BenchConfig()
    operations = tuple(operations)
    if not operations:
        raise ConfigurationError("need at least one operation")
    for operation in operations:
        if operation not in OPERATIONS:
            raise ConfigurationError(f"unknown operation {operation!r}")
    rows = []
    for x in spec.size_exponents:
        for seed in range(spec.seeds):
            dataset = generate_workload(spec, 1 << x, seed)
            names = list(structures or default_structures(dataset))
            rows.extend(_run_cell(names, dataset, config, seed % len(names), operations))
    return rows


# -- footprint comparison -------------------------------------------------------------


@dataclass(frozen=True)
class FootprintRow:
    structure: str
    size_exponent: int
    words_total: int
    words_nested: int
    bytes_total: int
    bytes_trie: int
    bytes_nested: int
    bytes_bitmaps: int
    bytes_wrappers: int
    nodes: int
    slots: int
    ratio_vs_baseline: float
    bytes_ratio_vs_baseline: float


FOOTPRINT_COLUMNS = tuple(f.name for f in fields(FootprintRow))


def run_footprint(size_exponents, mix=0.5, seed=0):
    """Modeled-word and real-byte comparison rows, multimap vs baseline.

    ``ratio_vs_baseline`` divides the baseline's total words by the
    structure's own (so the baseline rows carry 1.0), and
    ``bytes_ratio_vs_baseline`` does the same for ``bytes_total``.
    ``words_nested`` is the part of ``words_total`` below payload slots,
    and the ``bytes_*`` components (see :func:`byte_components`) sum to
    ``bytes_total``.
    """
    spec = WorkloadSpec(size_exponents=tuple(size_exponents), mix=mix)
    rows = []
    for x in spec.size_exponents:
        dataset = generate_workload(spec, 1 << x, seed)
        measured = {name: _gated(name, dataset)[1] for name in ("multimap", "map_of_sets")}
        reports = {name: footprint(s) for name, s in measured.items()}
        parts = {name: byte_components(s) for name, s in measured.items()}
        totals = {name: sum(p.values()) for name, p in parts.items()}
        for name in measured:
            report = reports[name]
            rows.append(
                FootprintRow(
                    structure=name,
                    size_exponent=x,
                    words_total=report.words_total,
                    words_nested=report.nested_words,
                    bytes_total=totals[name],
                    **{f"bytes_{c}": n for c, n in parts[name].items()},
                    nodes=report.nodes,
                    slots=report.slots,
                    ratio_vs_baseline=round(
                        reports["map_of_sets"].words_total / report.words_total, 4
                    ),
                    bytes_ratio_vs_baseline=round(totals["map_of_sets"] / totals[name], 4),
                )
            )
    return rows


# -- report writers ---------------------------------------------------------------------


def write_csv(rows, columns, stream):
    """``rows`` as CSV: a header of ``columns``, then one line per row."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([getattr(row, c) for c in columns])


def _git_revision(directory):
    """HEAD's commit of the checkout holding ``directory``; None outside a
    checkout or without git."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=directory,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def write_json(rows, columns, stream, generated_at, config=None):
    """``rows`` as a JSON document: run metadata, then ``columns`` of each
    row."""
    document = {
        "metadata": {
            "generated_at": generated_at,
            "config": config or {},
            "model": asdict(DEFAULT_MODEL),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
            "git_rev": _git_revision(Path(__file__).parent),
        },
        "rows": [{c: getattr(row, c) for c in columns} for row in rows],
    }
    json.dump(document, stream, indent=2)
    stream.write("\n")

