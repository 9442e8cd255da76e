"""Reference oracles and seeded inputs for the benchmark.

Everything here is plain Python over builtin dicts, sets and ints; the
library is only touched through the results handed in, so a gate fails when
the library is wrong, never because of how it is built.

* a dict-of-sets multimap model and the point-operation stream it drives;
* gates that count mismatches between the library's answers and the model;
* a bit-vector dominator analysis, independent of the library's fixpoint.

Each gate returns ``(attempted, failed)`` so that callers can sum them into
the run's failure ratio.
"""

import random

LOOKUP, PUT, REMOVE = 0, 1, 2

# Keys and values the stream invents lie above every generated data domain
# (``bench.generate_workload`` keys < 2**40, values < 2**32; CFG vertices are
# small), so a "new" key or value is new by construction.
_FRESH_KEYS = (1 << 41, 1 << 42)
_FRESH_VALUES = (1 << 33, 1 << 34)


def require_ints(pairs):
    """Raise unless every key and value is an ``int``: int hashes do not
    depend on ``PYTHONHASHSEED``, so trie shapes and counts repeat."""
    for k, v in pairs:
        if type(k) is not int or type(v) is not int:
            raise TypeError(f"non-int benchmark input ({k!r}, {v!r})")


def model_of(pairs):
    model = {}
    for k, v in pairs:
        model.setdefault(k, set()).add(v)
    return model


def tuple_count(model):
    return sum(len(vs) for vs in model.values())


def update_answer(tuples, keys, changed):
    """An update's observable result packed into one int.  Ints are not
    tracked by the cyclic GC, so recording answers inside the timed loop
    adds no collections of its own."""
    return (tuples << 32 | keys) << 1 | changed


class OpStream:
    """A seeded closed-loop point-operation stream over a multimap.

    Half the operations are ``contains_entry`` (hit : partial-match : miss =
    2:1:1), a quarter ``put`` (half to new keys, half a new value for an
    existing key) and a quarter ``remove`` of a present tuple.  Proportions
    are exact, so every operation type has ``n_ops // 4`` samples or more.
    ``expected[i]`` is the model's answer for operation ``i``: a bool for a
    lookup, ``update_answer(tuple_count, key_count, changed)`` after an
    update.
    """

    def __init__(self, model, n_ops, seed):
        rng = random.Random(seed)
        model = {k: set(vs) for k, vs in model.items()}
        keys = list(model)
        where = {k: i for i, k in enumerate(keys)}
        tuples = tuple_count(model)

        def fresh_key():
            while True:
                k = rng.randrange(*_FRESH_KEYS)
                if k not in model:
                    return k

        def fresh_value(k):
            while True:
                v = rng.randrange(*_FRESH_VALUES)
                if v not in model.get(k, ()):
                    return v

        def drop_key(k):
            i = where.pop(k)
            last = keys.pop()
            if last != k:
                keys[i] = last
                where[last] = i
            del model[k]

        n_put = n_remove = n_ops // 4
        n_lookup = n_ops - n_put - n_remove
        kinds = [LOOKUP] * n_lookup + [PUT] * n_put + [REMOVE] * n_remove
        rng.shuffle(kinds)
        lookup_cases = ([0, 0, 1, 2] * (n_lookup // 4 + 1))[:n_lookup]
        rng.shuffle(lookup_cases)
        put_cases = ([0, 1] * (n_put // 2 + 1))[:n_put]
        rng.shuffle(put_cases)
        lookups, puts = iter(lookup_cases), iter(put_cases)

        ops, expected = [], []
        promotes = demotes = 0
        for kind in kinds:
            if kind == LOOKUP:
                case = next(lookups)
                if case == 2 or not keys:
                    k = fresh_key()
                    v = fresh_value(k)
                    hit = False
                else:
                    k = keys[rng.randrange(len(keys))]
                    if case == 0:
                        v = rng.choice(tuple(model[k]))
                        hit = True
                    else:
                        v = fresh_value(k)
                        hit = False
                ops.append((LOOKUP, k, v))
                expected.append(hit)
                continue
            if kind == PUT or not keys:
                kind = PUT
                if next(puts, 0) == 0 or not keys:
                    k = fresh_key()
                    keys.append(k)
                    where[k] = len(keys) - 1
                    model[k] = set()
                else:
                    k = keys[rng.randrange(len(keys))]
                    promotes += len(model[k]) == 1
                v = fresh_value(k)
                model[k].add(v)
                tuples += 1
            else:
                k = keys[rng.randrange(len(keys))]
                values = model[k]
                v = rng.choice(tuple(values))
                demotes += len(values) == 2
                values.discard(v)
                if not values:
                    drop_key(k)
                tuples -= 1
            ops.append((kind, k, v))
            expected.append(update_answer(tuples, len(model), True))

        self.ops = ops
        self.expected = expected
        self.final_model = model
        updates = n_put + n_remove
        self.promote_share = promotes / updates if updates else 0.0
        self.demote_share = demotes / updates if updates else 0.0


def check_answers(expected, observed):
    """Gate for a point-operation pass: one mismatch per wrong answer."""
    failed = sum(1 for e, o in zip(expected, observed) if e != o)
    failed += abs(len(expected) - len(observed))
    return len(expected), failed


def check_multimap(mm, model, check_invariants):
    """Gate for a whole multimap: tuples in the symmetric difference with
    the model, plus one for wrong cached counts and one for a broken
    structural invariant.  Attempted is the model's tuple count."""
    expected_tuples = tuple_count(model)
    seen = model_of(mm.items())
    failed = 0
    for k in model.keys() | seen.keys():
        failed += len(model.get(k, set()) ^ seen.get(k, set()))
    failed += (mm.tuple_count, mm.key_count) != (expected_tuples, len(model))
    try:
        check_invariants(mm)
    except AssertionError:
        failed += 1
    attempted = max(expected_tuples, 1)
    return attempted, min(failed, attempted)


def dominator_bits(graph):
    """Dominator sets as int bit vectors, by the classic iterative
    data-flow equations over reachable vertices: ``{vertex: bits}``."""
    n = graph.vertex_count
    succs = [[] for _ in range(n)]
    preds = [[] for _ in range(n)]
    for s, d in graph.edges:
        succs[s].append(d)
        preds[d].append(s)
    entry = graph.entry
    order, seen = [entry], {entry}
    for v in order:
        for w in succs[v]:
            if w not in seen:
                seen.add(w)
                order.append(w)
    full = 0
    for v in order:
        full |= 1 << v
    dom = {v: full for v in order}
    dom[entry] = 1 << entry
    changed = True
    while changed:
        changed = False
        for v in order:
            if v == entry:
                continue
            bits = full
            for p in preds[v]:
                if p in seen:
                    bits &= dom[p]
            bits |= 1 << v
            if bits != dom[v]:
                dom[v] = bits
                changed = True
    return dom


def check_dominators(graph, dom_mm):
    """Gate for one analysed graph: one failure per vertex whose dominator
    set differs from the bit-vector oracle, plus one for a wrong key count."""
    oracle = dominator_bits(graph)
    failed = 0
    for v, bits in oracle.items():
        got = 0
        for d in dom_mm.get(v):
            got |= 1 << d
        failed += got != bits
    failed += dom_mm.key_count != len(oracle)
    return len(oracle), min(failed, len(oracle))
