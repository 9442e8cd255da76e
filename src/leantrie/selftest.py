"""Quick self-checks: bitmap algebra and the trie's slot ranks, model
equivalence, canonical shapes, bulk build and ``put_all`` against their
update folds, bitmap sharing within a bulk build, footprint constants,
and the dominator fixpoint, each against a small independent oracle.
Prints one line per check; returns overall success.
"""

import random
from time import perf_counter

from . import bits
from .bench import run_footprint
from .dominators import CfgGraph, compute_dominators, random_cfg
from .maps import check_invariants, multimap, pmap
from .nodes import COLL_W, PAIR_W, CollisionNode, _pos, regions
from .storage import FootprintModel, _reached, footprint


def _check_bitmap_algebra(rng):
    for _ in range(5_000):
        bitmap = rng.getrandbits(64)
        groups = [(bitmap >> (2 * b)) & 0b11 for b in range(32)]
        branch = rng.randrange(32)
        for pattern in range(4):
            expect = 0
            for b, g in enumerate(groups):
                if g == pattern:
                    expect |= 1 << (2 * b)
            if bits.filter_pattern(bitmap, pattern) != expect:
                return False
            rank = sum(1 for g in groups[:branch] if g == pattern)
            if bits.index_in_category(bitmap, pattern, branch) != rank:
                return False
        if not _node_ranks_match(rng, groups, bitmap):
            return False
    return True


def _node_ranks_match(rng, groups, bitmap):
    """Whether ``nodes._pos`` and ``nodes.regions`` agree with a slot run
    laid out branch by branch, region by region, for ``bitmap`` with a
    random share of its COLLECTION branches marked as pairs, at widths 1
    and 2."""
    pairs = 0
    for b, g in enumerate(groups):
        if g == bits.COLLECTION and rng.random() < 0.5:
            pairs |= 1 << b
    bm = bitmap | pairs << bits.PAIR_PLANE
    patterns = [bits.PAIR if pairs >> b & 1 else g for b, g in enumerate(groups)]
    for w in (1, 2):
        size = {bits.INLINE: w, bits.PAIR: PAIR_W, bits.COLLECTION: COLL_W, bits.NODE: 1}
        expect = {}
        bounds = []
        pos = 1
        for region in (bits.INLINE, bits.PAIR, bits.COLLECTION, bits.NODE):
            bounds.append(pos)
            for b, p in enumerate(patterns):
                if p == region:
                    expect[b] = pos
                    pos += size[p]
        node = (bm,) + (None,) * (pos - 1)
        if regions(node, w) != tuple(bounds):
            return False
        if any(_pos(bm, w, patterns[b], b, pos) != at for b, at in expect.items()):
            return False
    return True


def _random_ops(rng, mm, count, key_space, value_space, put_share):
    """``mm`` after ``count`` random puts (a ``put_share`` of them) and
    removes, and the dict-of-sets model of the same operations."""
    model = {}
    for _ in range(count):
        key = rng.randrange(key_space)
        value = rng.randrange(value_space)
        if rng.random() < put_share:
            mm = mm.put(key, value)
            model.setdefault(key, set()).add(value)
        else:
            mm = mm.remove(key, value)
            bucket = model.get(key)
            if bucket is not None:
                bucket.discard(value)
                if not bucket:
                    del model[key]
    return mm, model


def _same_contents(mm, model):
    if mm.key_count != len(model):
        return False
    if mm.tuple_count != sum(len(v) for v in model.values()):
        return False
    return all(set(mm.get(k)) == v for k, v in model.items())


def _check_model_equivalence(rng):
    mm, model = _random_ops(rng, multimap(), 4_000, key_space=500, value_space=8, put_share=0.6)
    check_invariants(mm)
    return _same_contents(mm, model)


def _check_canonical_shapes(rng):
    pairs = [(rng.randrange(1 << 30), rng.randrange(4)) for _ in range(300)]
    direct = multimap(sorted(set(pairs)))
    shuffled = list(set(pairs))
    rng.shuffle(shuffled)
    built = multimap(shuffled)
    if not built._root.equals(built._cfg, direct._root):
        return False
    extras = [(rng.randrange(1 << 30), 99) for _ in range(100)]
    grown = built
    for k, v in extras:
        grown = grown.put(k, v)
    for k, v in extras:
        grown = grown.remove(k, v)
    check_invariants(grown)
    return grown._root.equals(grown._cfg, direct._root)


def _check_bulk_build(rng):
    pairs = [(rng.randrange(400), rng.randrange(3)) for _ in range(600)]
    pairs += [(True, "t"), (1, 1), (1.0, 1)]  # equal keys of three types
    for hasher in (None, lambda o: hash(o) % 7):
        built = multimap(pairs, key_hash=hasher, value_hash=hasher)
        folded = multimap(key_hash=hasher, value_hash=hasher)
        for k, v in pairs:
            folded = folded.put(k, v)
        check_invariants(built)
        if not built._root.equals(built._cfg, folded._root):
            return False
        if (built.tuple_count, built.key_count) != (folded.tuple_count, folded.key_count):
            return False
        if footprint(built).words_total != footprint(folded).words_total:
            return False
    return True


def _check_put_all(rng):
    for hasher in (None, lambda o: hash(o) % 7):
        pairs = [(rng.randrange(60), rng.randrange(6)) for _ in range(150)]
        mm = multimap(pairs, key_hash=hasher, value_hash=hasher)
        for _ in range(300):
            key = rng.randrange(80)
            if rng.random() < 0.5:
                values = [rng.randrange(6) for _ in range(rng.randrange(4))]
            else:
                values = mm.get(rng.randrange(60))  # a shared value set
            got = mm.put_all(key, values)
            folded = mm.remove_key(key)
            for v in values:
                folded = folded.put(key, v)
            if not got._root.equals(got._cfg, folded._root):
                return False
            if (got.tuple_count, got.key_count) != (folded.tuple_count, folded.key_count):
                return False
            mm = got
        check_invariants(mm)
    return True


def _bitmap_ints(structure):
    """Every trie-node bitmap above the small-int cache in ``structure``,
    nested sets and nodes under collision buckets included."""
    return [
        o[0]
        for o, cfg, _, _ in _reached(structure)
        if cfg is not None and type(o) is not CollisionNode and o[0] > 256
    ]


def _check_shared_bitmaps(rng):
    pairs = [(rng.randrange(600), rng.randrange(40)) for _ in range(2_000)]
    for hasher in (None, lambda o: hash(o) % 7):
        built = multimap(pairs, key_hash=hasher, value_hash=hasher)
        bitmaps = _bitmap_ints(built)
        if not bitmaps or len({id(bm) for bm in bitmaps}) != len(set(bitmaps)):
            return False
    return True


def _check_footprint_constants(_rng):
    if footprint(multimap()).words_total != 3:
        return False
    rows = run_footprint([10])
    ratio = next(r.ratio_vs_baseline for r in rows if r.structure == "multimap")
    return ratio >= 1.5


def _check_one_to_one_degenerate(rng):
    pairs = [(k, rng.randrange(1 << 20)) for k in rng.sample(range(1 << 30), 512)]
    mm = multimap(pairs)
    mp = pmap(pairs)
    check_invariants(mm)
    return footprint(mm).words_total == footprint(mp).words_total


def _check_specialization_opacity(rng):
    generic = FootprintModel(specialize=False)
    pairs = [(rng.randrange(1 << 30), rng.randrange(16)) for _ in range(400)]
    mm = multimap(pairs)
    spec, gen = footprint(mm), footprint(mm, generic)
    if (spec.nodes, spec.slots) != (gen.nodes, gen.slots):
        return False
    small = multimap((k, 0) for k in range(4))
    return footprint(small).words_total < footprint(small, generic).words_total


def _oracle_dominators(graph):
    preds = {}
    for src, dst in graph.edges:
        preds.setdefault(dst, set()).add(src)
    n = graph.vertex_count
    full = (1 << n) - 1
    dom = [full] * n
    dom[graph.entry] = 1 << graph.entry
    changed = True
    while changed:
        changed = False
        for v in range(n):
            if v == graph.entry:
                continue
            acc = full
            for p in preds.get(v, ()):
                acc &= dom[p]
            acc |= 1 << v
            if acc != dom[v]:
                dom[v] = acc
                changed = True
    return {v: {i for i in range(n) if dom[v] >> i & 1} for v in range(n)}


def _reachable_oracle(graph):
    succs = {}
    for src, dst in graph.edges:
        succs.setdefault(src, set()).add(dst)
    seen = {graph.entry}
    stack = [graph.entry]
    while stack:
        for nxt in succs.get(stack.pop(), ()):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def _check_dominators(rng):
    diamond = CfgGraph(
        name="diamond", entry=0, vertex_names=("a", "b", "c", "d"),
        edges=((0, 1), (0, 2), (1, 3), (2, 3)),
    )
    dom = compute_dominators(diamond)
    if set(dom.get(3)) != {0, 3} or set(dom.get(1)) != {0, 1}:
        return False
    for _ in range(5):
        graph = random_cfg(48, seed=rng.randrange(1 << 16))
        dom = compute_dominators(graph)
        reachable = _reachable_oracle(graph)
        expect = _oracle_dominators(graph)
        got = {v: set(dom.get(v)) for v in reachable}
        if got != {v: expect[v] for v in reachable}:
            return False
    return True


def _check_collision_torture(rng):
    colliding = multimap(key_hash=lambda o: 0, value_hash=lambda o: 0)
    mm, model = _random_ops(rng, colliding, 600, key_space=30, value_space=6, put_share=0.55)
    check_invariants(mm)
    return _same_contents(mm, model)


CHECKS = (
    ("bitmap algebra and node ranks vs per-branch oracle", _check_bitmap_algebra),
    ("multimap matches dict-of-sets model", _check_model_equivalence),
    ("canonical shapes are history-free", _check_canonical_shapes),
    ("bulk build matches the put fold", _check_bulk_build),
    ("put_all matches the remove_key + put fold", _check_put_all),
    ("a bulk build holds one int per distinct bitmap", _check_shared_bitmaps),
    ("footprint constants and lean ratio", _check_footprint_constants),
    ("pure 1:1 multimap prices like a map", _check_one_to_one_degenerate),
    ("specialization is shape-invisible", _check_specialization_opacity),
    ("dominator fixpoint vs bit-vector oracle", _check_dominators),
    ("full-collision torture", _check_collision_torture),
)


def run_selftest():
    """Run every quick check; print one status line each, with the check's
    runtime; return success."""
    rng = random.Random(0xC0FFEE)
    ok = True
    for name, check in CHECKS:
        start = perf_counter()
        try:
            passed = check(rng)
            detail = ""
        except Exception as exc:  # noqa: BLE001 - a crash is a failed check
            passed = False
            detail = f"{type(exc).__name__}: {exc}, "
        ms = (perf_counter() - start) * 1e3
        status = "ok - " if passed else "FAIL - "
        print(f"{status}{name} ({detail}{ms:.0f} ms)")
        ok = ok and passed
    return ok
