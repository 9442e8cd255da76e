"""End-to-end acceptance suite.

One test per acceptance criterion; each prints a single PASS/FAIL line
(visible with ``pytest -s``) carrying its measured runtime against the
budget, then asserts.  Every expected value is computed by an
independent oracle, inside this file or, for dominator sets, the
bit-vector oracle of ``test_dominators.py``, or pinned as an explicit
constant.
"""

import random
import statistics
import time

from leantrie import (
    FootprintModel,
    check_invariants,
    footprint,
    multimap,
    pmap,
    structure_stats,
)
from leantrie import bits
from leantrie.bench import (
    BenchConfig,
    WorkloadSpec,
    generate_workload,
    run_benchmarks,
    run_footprint,
)
from leantrie.dominators import (
    analyze_graph,
    parse_edge_list,
    random_cfg,
)
from leantrie.nodes import _pos, regions

from test_dominators import bitmask_dominators


def _report(label, elapsed, budget, ok, detail=""):
    status = "PASS" if ok and elapsed <= budget else "FAIL"
    suffix = f" - {detail}" if detail else ""
    print(f"{status}: {label} ({elapsed:.1f}s of {budget:.0f}s budget){suffix}")
    assert ok, f"{label}: {detail}"
    assert elapsed <= budget, f"{label}: exceeded the {budget:.0f}s budget"


# -- 1. bit engine vs per-branch loop oracles -------------------------------------------


def test_bit_engine_agrees_with_per_branch_loop_oracles():
    # the filter/rank pair of the paper's algebra, and the ranks the trie
    # runs: a width-2 node's region bounds and an entry's slot index
    start = time.perf_counter()
    rng = random.Random(0xB17)
    checked = 0
    ok = True
    detail = ""
    for _ in range(1_000_000):
        bm = rng.getrandbits(64)
        groups = [(bm >> (i << 1)) & 3 for i in range(32)]
        filters = [0, 0, 0, 0]
        for i, g in enumerate(groups):
            filters[g] |= 1 << (i << 1)
        branch = bm & 31
        pattern = (bm >> 7) & 3
        rank = groups[:branch].count(pattern)
        # inline entries (2) and collection entries (3) take two slots
        # each, after the bitmap; sub-nodes (1) one each, at the end
        end_i = 1 + 2 * groups.count(2)
        end = end_i + 2 * groups.count(3)
        pos = (None, end + rank, 1 + 2 * rank, end_i + 2 * rank)[pattern]
        if (
            bits.filter_pattern(bm, 0) != filters[0]
            or bits.filter_pattern(bm, 1) != filters[1]
            or bits.filter_pattern(bm, 2) != filters[2]
            or bits.filter_pattern(bm, 3) != filters[3]
            or bits.index_in_category(bm, pattern, branch) != rank
            or regions((bm,), 2) != (1, end_i, end_i, end)
            or (pattern and _pos(bm, 2, pattern, branch, end + groups.count(1)) != pos)
        ):
            ok = False
            detail = f"disagreement on bitmap {bm:#018x}"
            break
        checked += 1
    if ok:
        detail = f"{checked} random bitmaps, exact"
    _report(
        "bit engine vs per-branch loop oracles",
        time.perf_counter() - start,
        30,
        ok,
        detail,
    )


# -- 2. model equivalence at scale ------------------------------------------------------


def _run_model_sequence(seed, op_count):
    """One interleaved put/remove/lookup sequence against a dict-of-sets
    reference; returns an error string or None."""
    rng = random.Random(seed)
    key_space = (64, 1024, 4096, 65536)[seed % 4]
    value_space = (2, 8, 64)[seed % 3]
    mm = multimap()
    model = {}
    model_tuples = 0  # tracked incrementally so the per-op check is O(1)
    roll = rng.random
    pick = rng.randrange
    for step in range(op_count):
        k = pick(key_space)
        v = pick(value_space)
        r = roll()
        if r < 0.40:
            if mm.contains_entry(k, v) != (v in model.get(k, ())):
                return f"seed {seed} step {step}: lookup({k}, {v}) disagrees"
        elif r < 0.72:
            mm = mm.put(k, v)
            s = model.setdefault(k, set())
            if v not in s:
                s.add(v)
                model_tuples += 1
        else:
            mm = mm.remove(k, v)
            s = model.get(k)
            if s is not None and v in s:
                s.discard(v)
                model_tuples -= 1
                if not s:
                    del model[k]
        if mm.key_count != len(model):
            return f"seed {seed} step {step}: key_count {mm.key_count} != {len(model)}"
        if mm.tuple_count != model_tuples:
            return f"seed {seed} step {step}: tuple_count disagrees"
    if sorted(mm.items()) != sorted((k, v) for k, vs in model.items() for v in vs):
        return f"seed {seed}: entry iteration multiset disagrees"
    if sorted(mm.keys()) != sorted(model):
        return f"seed {seed}: key iteration multiset disagrees"
    check_invariants(mm)
    return None


def test_multimap_agrees_with_the_reference_model_at_scale():
    start = time.perf_counter()
    error = None
    for seed in range(100):
        error = _run_model_sequence(seed, 100_000)
        if error:
            break
    _report(
        "model equivalence, 100 sequences x 1e5 ops",
        time.perf_counter() - start,
        300,
        error is None,
        error or "every query, count, and iteration multiset agreed",
    )


# -- 3. canonical shapes regardless of history ------------------------------------------


def test_builds_are_canonical_regardless_of_history():
    start = time.perf_counter()
    rng = random.Random(0xCA0)
    error = None
    for trial in range(1000):
        size = 1 << 12 if trial % 100 == 99 else rng.randrange(1, 2 << rng.randrange(12))
        pairs = list(
            {(rng.randrange(1 << 32), rng.randrange(6)) for _ in range(size)}
        )
        direct = multimap(sorted(pairs))
        rng.shuffle(pairs)
        shuffled = multimap(pairs)
        if not shuffled._root.equals(shuffled._cfg, direct._root):
            error = f"trial {trial}: shuffled build diverged"
            break
        extras = {(rng.randrange(1 << 32), 100 + rng.randrange(6))
                  for _ in range(max(1, len(pairs) // 4))} - set(pairs)
        grown = shuffled
        for k, v in extras:
            grown = grown.put(k, v)
        for k, v in sorted(extras, key=lambda p: p[1]):
            grown = grown.remove(k, v)
        if not grown._root.equals(grown._cfg, direct._root):
            error = f"trial {trial}: superset-then-delete build diverged"
            break
        if grown != direct:
            error = f"trial {trial}: equality disagrees with node comparison"
            break
    _report(
        "canonicity over 1000 shuffled / grow-shrink builds",
        time.perf_counter() - start,
        300,
        error is None,
        error or "all builds node-equal to sorted-insertion builds",
    )


# -- 4. footprint ratio vs the map-of-sets baseline --------------------------------------


def test_multimap_footprint_beats_the_map_of_sets_baseline():
    start = time.perf_counter()
    rows = run_footprint(range(6, 17), mix=0.5, seed=0)
    ratios = {
        r.size_exponent: r.ratio_vs_baseline for r in rows if r.structure == "multimap"
    }
    worst = min(ratios.values())
    med = statistics.median(ratios.values())
    ok = worst >= 1.5 and med >= 1.8
    _report(
        "footprint ratio vs map-of-sets, 50:50 mix, 2^6..2^16",
        time.perf_counter() - start,
        120,
        ok,
        f"min {worst:.4f} (floor 1.5), median {med:.4f} (floor 1.8)",
    )


# -- 5. pure 1:1 data degrades to exactly a map -------------------------------------------


def test_pure_one_to_one_multimap_prices_like_a_plain_map():
    start = time.perf_counter()
    error = None
    for exponent in (6, 10, 14):
        spec = WorkloadSpec(size_exponents=(exponent,), mix=1.0)
        dataset = generate_workload(spec, 1 << exponent, seed=0)
        mm = check_invariants(multimap(dataset.entries))
        stats = structure_stats(mm)
        if stats["nested_set_nodes"] or stats["collection_entries"]:
            error = f"2^{exponent}: nested sets allocated on pure 1:1 data"
            break
        mm_words = footprint(mm).words_total
        map_words = footprint(pmap(dataset.entries)).words_total
        if mm_words != map_words:
            error = f"2^{exponent}: {mm_words} words != map's {map_words}"
            break
    _report(
        "pure 1:1 multimap matches a map's footprint exactly",
        time.perf_counter() - start,
        60,
        error is None,
        error or "zero nested sets; word counts equal at 2^6, 2^10, 2^14",
    )


# -- 6. lookup overhead vs the plain map --------------------------------------------------


def test_multimap_lookup_overhead_stays_within_bound():
    start = time.perf_counter()
    spec = WorkloadSpec(size_exponents=tuple(range(6, 17)), seeds=5, mix=1.0)
    # only the lookup rows are read, so only lookup is timed; it is the
    # first operation of a cell, so its samples are taken as in a full run
    rows = run_benchmarks(
        spec, BenchConfig(), structures=("multimap", "map"), operations=("lookup",)
    )
    lookups = {}
    for r in rows:
        if r.operation == "lookup":
            lookups.setdefault((r.structure, r.size_exponent), []).append(r.median_ns)
    ratios = {}
    for x in spec.size_exponents:
        mm = statistics.median(lookups[("multimap", x)])
        mp = statistics.median(lookups[("map", x)])
        ratios[x] = mm / mp
    ok = all(r <= 1.5 for r in ratios.values())
    raw = ", ".join(f"2^{x}:{r:.2f}" for x, r in ratios.items())
    _report(
        "multimap lookup within 1.5x of the plain map",
        time.perf_counter() - start,
        900,
        ok,
        f"raw ratios {raw}",
    )


# -- 7. specialization is invisible in shape and cheaper in words --------------------------


def _slots_all_fit_fixed_arity(root):
    from leantrie.nodes import CollisionNode

    # the builds below store ints, so every tuple in a slot is a node: a
    # bucket, or a trie node, whose plain-tuple inner nodes carry no HEAD
    stack = [root]
    while stack:
        node = stack.pop()
        head = 3 if type(node) is CollisionNode else 1
        if len(node) - head > 8:
            return False
        stack += [slot for slot in node[head:] if isinstance(slot, tuple)]
    return True


def test_specialized_storage_is_shape_invisible_and_strictly_leaner():
    # specialization is a pricing rule: each structure is priced under the
    # default model and under the generic one, which sees the same nodes
    start = time.perf_counter()
    error = None
    generic = FootprintModel(specialize=False)
    rng = random.Random(0x5BEC)
    for seq in range(20):
        mm = multimap()
        model_ops = [
            (rng.randrange(2048), rng.randrange(8), rng.random() < 0.65)
            for _ in range(5000)
        ]
        for k, v, adding in model_ops:
            mm = mm.put(k, v) if adding else mm.remove(k, v)
        spec, gen = footprint(mm), footprint(mm, generic)
        if (spec.nodes, spec.slots) != (gen.nodes, gen.slots):
            error = f"sequence {seq}: the pricings saw different shapes"
            break
        if spec.words_total > gen.words_total:
            error = f"sequence {seq}: specialization increased the footprint"
            break
    if error is None:
        # identity hashes give full control over the shapes: flat roots and
        # a two-level chain, every node within the fixed-arity ceiling
        small_builds = [[(k, 0) for k in range(n)] for n in (1, 2, 3, 4)]
        small_builds.append([(0b00000_00001, 0), (0b00001_00001, 0)])
        for pairs in small_builds:
            mm = multimap(pairs, key_hash=lambda k: k)
            if not _slots_all_fit_fixed_arity(mm._root):
                error = f"{len(pairs)} entries: build exceeds fixed arity"
                break
            if not footprint(mm).words_total < footprint(mm, generic).words_total:
                error = f"{len(pairs)} entries: no strict word saving"
                break
    _report(
        "specialization: identical shapes, strictly fewer words",
        time.perf_counter() - start,
        300,
        error is None,
        error or "20 op sequences priced both ways; all-fixed tries strictly leaner",
    )


# -- 8. dominator analysis vs a boolean-vector oracle ---------------------------------------


def test_dominator_analysis_matches_the_boolean_vector_oracle():
    start = time.perf_counter()
    error = None

    diamond = parse_edge_list("entry a\na b\na c\nb d\nc d\n", name="diamond")
    chain = parse_edge_list("entry a\na b\nb c\nc d\n", name="chain")
    hand_expected = {
        "diamond": {0: {0}, 1: {0, 1}, 2: {0, 2}, 3: {0, 3}},
        "chain": {0: {0}, 1: {0, 1}, 2: {0, 1, 2}, 3: {0, 1, 2, 3}},
    }
    for graph in (diamond, chain):
        result = analyze_graph(graph)
        got = {v: set(result.dominators.get(v)) for v in result.dominators.keys()}
        if got != hand_expected[graph.name]:
            error = f"{graph.name}: hand-checked dominator sets disagree"
            break

    results = []
    if error is None:
        for size in (128, 256, 512):
            for seed in range(100):
                graph = random_cfg(size, seed)
                result = analyze_graph(graph)
                got = {
                    v: frozenset(result.dominators.get(v))
                    for v in result.dominators.keys()
                }
                if got != bitmask_dominators(graph):
                    error = f"{graph.name}: dominator sets disagree with the oracle"
                    break
                if result.preds_pct_1to1 < 80.0:
                    error = (
                        f"{graph.name}: preds only "
                        f"{result.preds_pct_1to1}% 1:1 (floor 80%)"
                    )
                    break
                results.append(result)
            if error:
                break
    detail = error
    if error is None:
        detail = (
            f"300 random CFGs exact; preds 1:1 median "
            f"{statistics.median(r.preds_pct_1to1 for r in results):.2f}%, "
            f"min {min(r.preds_pct_1to1 for r in results):.2f}%"
        )
    _report(
        "dominators vs boolean-vector oracle, 100 graphs x {128,256,512}",
        time.perf_counter() - start,
        600,
        error is None,
        detail,
    )


# -- 9. every law survives total hash collisions --------------------------------------------


def test_collection_laws_hold_under_total_hash_collisions():
    start = time.perf_counter()
    rng = random.Random(0xC011)
    error = None

    def clashing(_):
        return 7

    mm = multimap(key_hash=clashing, value_hash=clashing)
    model = {}
    for step in range(4000):
        k = rng.randrange(30)
        v = rng.randrange(6)
        r = rng.random()
        if r < 0.35:
            if mm.contains_entry(k, v) != (v in model.get(k, ())):
                error = f"step {step}: collided lookup disagrees"
                break
        elif r < 0.70:
            mm = mm.put(k, v)
            model.setdefault(k, set()).add(v)
        else:
            mm = mm.remove(k, v)
            s = model.get(k)
            if s is not None:
                s.discard(v)
                if not s:
                    del model[k]
        if mm.key_count != len(model) or mm.tuple_count != sum(
            len(s) for s in model.values()
        ):
            error = f"step {step}: collided counts disagree"
            break
    if error is None:
        check_invariants(mm)
        if sorted(mm.items()) != sorted(
            (k, v) for k, vs in model.items() for v in vs
        ):
            error = "collided iteration is incomplete"
    if error is None:
        for trial in range(50):
            pairs = list(
                {(rng.randrange(40), rng.randrange(6)) for _ in range(rng.randrange(1, 64))}
            )
            direct = multimap(sorted(pairs), key_hash=clashing, value_hash=clashing)
            rng.shuffle(pairs)
            shuffled = multimap(pairs, key_hash=clashing, value_hash=clashing)
            if not shuffled._root.equals(shuffled._cfg, direct._root):
                error = f"collided canonicity trial {trial} diverged"
                break
    _report(
        "all collection laws under a constant hash function",
        time.perf_counter() - start,
        60,
        error is None,
        error or "model, canonicity, and iteration laws hold inside collision nodes",
    )
