"""Footprint-model and real-byte tests.

Footprint numbers for small structures are frozen from hand counts under
the default pricing at the model's fixed prices (header 2 words, bitmap
1, slot 1, out-of-line indirection 1); ``object_bytes`` is checked against what
``tracemalloc`` sees a build allocate, its components against a walk of
``gc`` referents that knows no node layout, and every bulk build against
holding one int object per distinct bitmap, shared with no other build,
and against leaving no cyclic garbage.
"""

import gc
import random
import sys
import tracemalloc
import types

import pytest

import leantrie
from leantrie import (
    PersistentMultiMap,
    PersistentSet,
    byte_components,
    check_invariants,
    footprint,
    multimap,
    object_bytes,
    pmap,
    pset,
    storage,
)
from leantrie.bench import WorkloadSpec, _adapter, generate_workload, run_footprint
from leantrie.bits import PAIR_PLANE
from leantrie.nodes import COLL_W, CollisionNode, TrieNode, regions, walk
from leantrie.storage import (
    BITMAP_WORDS,
    BYTE_COMPONENTS,
    HEADER_WORDS,
    INDIRECTION_WORDS,
    MAX_FIXED_SLOTS,
    SLOT_WORDS,
    WRAPPER_FIELDS,
)


# --- indirection pricing rule ---------------------------------------------------
#
# Nodes are plain tuples; ``footprint``'s ``specialize`` flag only decides
# whether a node is charged the out-of-line indirection word, so each test
# prices one structure both ways.  A flat identity-hashed set of n
# elements is one root node of exactly n slots.


def _flat_set(n):
    s = pset(range(n), element_hash=lambda e: e)
    assert len(s._root[regions(s._root, 1)[0] :]) == n
    return s


def _head(node):
    """The items before ``node``'s slot run: a bucket's hash and entry
    counts, or a trie node's bitmap."""
    return 3 if type(node) is CollisionNode else 1


def _nodes(structure):
    """Every node reachable from ``structure``'s root, nested set roots too.
    The structures measured here store ints, so a tuple in a slot is a node:
    a root, a bucket or a plain-tuple inner trie node."""
    stack = [structure._root]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(s for s in node[_head(node) :] if isinstance(s, tuple))


def test_small_specialized_nodes_pay_no_indirection():
    for n in range(MAX_FIXED_SLOTS + 1):
        report = footprint(_flat_set(n))
        assert (report.nodes, report.indirections) == (1, 0), n


def test_wide_nodes_pay_one_indirection():
    for n in range(MAX_FIXED_SLOTS + 1, 33):
        s = _flat_set(n)
        for specialize in (True, False):
            report = footprint(s, specialize=specialize)
            assert (report.nodes, report.indirections) == (1, 1), n


def test_fixed_capacity_is_exact():
    for n in range(MAX_FIXED_SLOTS + 1):
        report = footprint(_flat_set(n))
        assert report.slots == n
        assert report.words_total == 3 + n


def test_specialize_false_always_generic():
    for n in (0, 1, 8, 20):
        report = footprint(_flat_set(n), specialize=False)
        assert report.indirections == report.nodes == 1
        assert report.words_total == 3 + n + 1


def test_get_set_roundtrip_all_classes():
    for n in list(range(9)) + [9, 17, 32]:
        root = _flat_set(n)._root
        slots = root[regions(root, 1)[0] :]
        assert type(slots) is tuple
        assert slots == tuple(range(n))


def test_indirection_depends_only_on_the_slot_total():
    # inline, collection and sub-node regions, nested set roots and
    # collision buckets all fall under the same per-node rule
    rng = random.Random(8)
    entries = [(rng.randrange(300), rng.randrange(4)) for _ in range(600)]
    mm = multimap(entries, key_hash=lambda k: k % 97)
    nodes = list(_nodes(mm))
    assert any(type(n) is CollisionNode for n in nodes)
    assert any(len(n) - _head(n) > MAX_FIXED_SLOTS for n in nodes)
    assert any(len(n) - _head(n) <= MAX_FIXED_SLOTS for n in nodes)
    for specialize in (True, False):
        report = footprint(mm, specialize=specialize)
        assert report.nodes == len(nodes)
        assert report.indirections == sum(
            1 for n in nodes if len(n) - _head(n) > MAX_FIXED_SLOTS or not specialize
        )


# --- footprint model --------------------------------------------------------


def test_default_model_constants():
    assert (HEADER_WORDS, BITMAP_WORDS, SLOT_WORDS, INDIRECTION_WORDS) == (2, 1, 1, 1)


def test_specialize_is_a_keyword_only_flag():
    mm = multimap([(1, 2)])
    with pytest.raises(TypeError):
        footprint(mm, False)
    assert footprint(mm, specialize=True) == footprint(mm)
    assert not hasattr(leantrie, "FootprintModel")
    assert not hasattr(storage, "FootprintModel")
    assert not hasattr(leantrie, "DEFAULT_MODEL")


def test_footprint_empty_multimap_is_three_words():
    report = footprint(multimap())
    assert report.words_total == 3  # header 2 + bitmap 1, FixedArity(0)
    assert report.nodes == 1
    assert report.slots == 0
    assert report.indirections == 0


def test_footprint_one_entry_multimap_is_five_words():
    report = footprint(multimap([(1, 2)]))
    assert report.words_total == 5  # header 2 + bitmap 1 + two slots
    assert report.slots == 2
    assert report.indirections == 0


def test_footprint_of_a_multimap_holding_a_pair():
    # keys 0 and 1 hash to branches 0 and 1 of one root node: key 0 holds
    # one value inline, key 1 two values as one pair entry
    ident = lambda x: x  # noqa: E731
    mm = multimap([(0, 10), (1, 20), (1, 21)], key_hash=ident, value_hash=ident)
    report = footprint(mm)
    assert report.nodes == 1
    assert report.slots == 5  # (0, 10) inline: 2 slots; (1, 20, 21) pair: 3 slots
    assert report.indirections == 0  # 5 slots fit a fixed-arity node
    assert report.words_total == 8  # header 2 + bitmap 1 + 5 slots
    # the pair is bit 1 of the bitmap's pair plane; a JVM-style layout keeps
    # that plane in a second bitmap word, which would make it 9 words
    assert mm._root[0] >> PAIR_PLANE == 0b10


def test_footprint_all_generic_adds_one_indirection_per_node():
    mm = multimap([(1, 2)])
    spec = footprint(mm)
    gen = footprint(mm, specialize=False)
    assert gen.words_total == spec.words_total + 1
    assert gen.indirections == 1


def test_footprint_components_sum_to_total():
    rng = random.Random(5)
    entries = [(rng.getrandbits(32), rng.getrandbits(16)) for _ in range(300)]
    report = footprint(multimap(entries))
    assert report.words_total == (
        report.headers + report.bitmaps + report.slots + report.indirections
    )


def test_footprint_one_entry_map_of_sets_counts_the_set_object():
    m = pmap([(1, pset([2]))])
    report = footprint(m)
    # map root (2+1+2) + set object (2 header + root/size fields) + set root (2+1+1)
    assert report.words_total == 13
    assert report.nodes == 3


def test_footprint_multimap_promotion_adds_only_the_nested_set_root():
    base = footprint(multimap([(1, 2)])).words_total
    paired = footprint(multimap([(1, 2), (1, 3)])).words_total
    # a pair is one slot wider than an inline entry and allocates nothing
    assert paired == base + 1
    promoted = footprint(multimap([(1, 2), (1, 3), (1, 4)])).words_total
    # collection entry still two slots; nested 3-element set root adds 2+1+3
    assert promoted == base + 6


def test_footprint_is_monotone_under_puts():
    rng = random.Random(11)
    m = multimap()
    last = footprint(m).words_total
    for _ in range(200):
        m = m.put(rng.getrandbits(32), rng.getrandbits(8))
        cur = footprint(m).words_total
        assert cur >= last
        last = cur


def test_footprint_counts_shared_subtries_once():
    rng = random.Random(2)
    m1 = multimap((rng.getrandbits(32), rng.getrandbits(8)) for _ in range(500))
    m2 = m1.put(12345, 678)
    joint = footprint([m1, m2]).words_total
    separate = footprint(m1).words_total + footprint(m2).words_total
    assert joint < separate


def test_specialized_saving_is_exactly_one_indirection_per_node():
    rng = random.Random(3)
    # mixed 1:1 / 1:2 so nested set roots participate as nodes too
    entries = []
    for k in range(40):
        entries.append((rng.getrandbits(32), rng.getrandbits(8)))
        if k % 2 == 0:
            entries.append((entries[-1][0], rng.getrandbits(8)))
    mm = multimap(entries)
    spec_report = footprint(mm)
    gen_report = footprint(mm, specialize=False)
    assert gen_report.nodes == spec_report.nodes
    saving = gen_report.words_total - spec_report.words_total
    # nodes wider than the fixed-arity ceiling stay generic either way, so
    # the saving is one indirection per node that actually specialized
    assert saving == gen_report.indirections - spec_report.indirections
    assert saving > 0
    # every node in the generic build carries exactly one indirection
    assert gen_report.indirections == gen_report.nodes


def test_small_specialized_build_drops_every_indirection():
    mm = multimap((n, n + 1) for n in range(4))
    spec_report = footprint(mm)
    gen_report = footprint(mm, specialize=False)
    assert spec_report.indirections == 0
    saving = gen_report.words_total - spec_report.words_total
    assert saving == gen_report.indirections == gen_report.nodes


def test_footprint_rejects_non_structures():
    with pytest.raises(TypeError):
        footprint({"a": 1})


# --- real bytes ---------------------------------------------------------------


def _walked_and_traced(build, source):
    """``object_bytes`` of ``build(source)`` and the bytes ``tracemalloc``
    sees that build allocate."""
    build(source)  # warms the interpreter's free lists, which tracemalloc sees
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        built = build(source)
        gc.collect()
        traced = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return object_bytes(built), traced


@pytest.mark.parametrize("mix", [0.5, 0.9])
def test_object_bytes_match_what_tracemalloc_sees_a_build_allocate(mix):
    pairs = generate_workload(WorkloadSpec(mix=mix), 4096, 1).entries
    walked, traced = _walked_and_traced(multimap, pairs)
    assert abs(walked - traced) <= 0.01 * traced + 4096


@pytest.mark.parametrize("mix", [0.5, 0.9])
@pytest.mark.parametrize("build", [pset, pmap])
def test_object_bytes_match_tracemalloc_for_sets_and_maps(build, mix):
    pairs = generate_workload(WorkloadSpec(mix=mix), 4096, 1).entries
    walked, traced = _walked_and_traced(build, pairs)
    assert abs(walked - traced) <= 0.01 * traced + 4096


def _mod64(obj):
    return obj % 64


def test_a_collision_bucket_is_one_object_in_object_bytes():
    # 1,000 elements on 64 hashes: 32 sub-nodes of two buckets each
    build = lambda elements: pset(elements, element_hash=_mod64)  # noqa: E731
    elements = list(range(1000))  # made before the build, as stored objects are
    built = build(elements)
    nodes = list(_nodes(built))
    assert sum(type(n) is CollisionNode for n in nodes) == 64
    # the bucket hashes and counts are small ints: no object besides the nodes
    assert byte_components(built)["trie"] == sum(map(sys.getsizeof, nodes))
    walked, traced = _walked_and_traced(build, elements)
    assert abs(walked - traced) <= 0.01 * traced + 4096


def _low_bits(obj):
    # ~4 keys per hash among 4,096: buckets, with nested sets under them
    return hash(obj) & 0x3FF


def _entries(mix):
    return generate_workload(WorkloadSpec(mix=mix), 4096, 1).entries


BULK_BUILDS = {
    "multimap-0.5": lambda: multimap(_entries(0.5)),
    "multimap-0.9": lambda: multimap(_entries(0.9)),
    "pset": lambda: pset(k for k, _ in _entries(0.5)),
    "pmap": lambda: pmap(_entries(0.9)),
    "colliding": lambda: multimap(_entries(0.5), key_hash=_low_bits, value_hash=_low_bits),
    # the nested set that put_all builds from a list
    "put_all": lambda: multimap().put_all("k", list(range(0, 50_000, 7))).get("k"),
    "and": lambda: pset(range(0, 60_000, 3)) & pset(range(0, 60_000, 5)),
}


def _bitmap_ints(structure):
    """Every trie-node bitmap above the small-int cache in ``structure``,
    nested sets and nodes under collision buckets included."""
    return [
        o[0]
        for o, cfg, _, _ in storage._reached(structure)
        if cfg is not None and type(o) is not CollisionNode and o[0] > 256
    ]


@pytest.mark.parametrize("name", sorted(BULK_BUILDS))
def test_bulk_build_holds_one_int_per_distinct_bitmap(name):
    built = BULK_BUILDS[name]()
    bitmaps = _bitmap_ints(built)
    assert bitmaps  # else the checks below pass on nothing
    assert len({id(bm) for bm in bitmaps}) == len(set(bitmaps))
    # the table lives for one build only: object_bytes then agrees with
    # tracemalloc, which sees every build allocate its own ints
    again = BULK_BUILDS[name]()
    assert not {id(bm) for bm in bitmaps} & {id(bm) for bm in _bitmap_ints(again)}



@pytest.mark.parametrize("name", sorted(BULK_BUILDS))
def test_a_bulk_build_makes_only_its_roots_trie_node_objects(name):
    # a root, top-level or nested, is a TrieNode; below it a trie node is a
    # plain tuple and a bucket a CollisionNode (validate_root checks it too)
    built = check_invariants(BULK_BUILDS[name]())
    kinds = set()
    stack = [(built._cfg, built._root)]
    while stack:
        cfg, root = stack.pop()
        for depth, run, _, _, end_p, end in walk(cfg.width, root):
            kinds.add((depth == 1, type(run)))
            stack += [(cfg.value_cfg, nested) for nested in run[end_p + 1 : end : COLL_W]]
    assert (False, tuple) in kinds
    assert kinds <= {(True, TrieNode), (False, tuple), (False, CollisionNode)}


@pytest.mark.parametrize("name", sorted(BULK_BUILDS))
def test_bulk_build_leaves_no_cyclic_garbage(name):
    # what a build allocates and does not keep is freed on return, by
    # reference counts alone: a collection right after finds nothing
    gc.collect()
    gc.disable()
    try:
        built = BULK_BUILDS[name]()
        found = gc.collect()
    finally:
        gc.enable()
    assert found == 0, f"a build of {len(built)} left {found} objects in cycles"

def test_object_bytes_measure_structures_stored_as_values():
    # a map of sets costs its map, with the same keys, plus its sets
    dataset = generate_workload(WorkloadSpec(mix=0.5), 256, 3)
    nested = _adapter("map_of_sets").build(dataset)
    flat = pmap((k, 0) for k in nested)
    assert object_bytes(nested) == object_bytes(flat) + object_bytes(nested.values())


def test_structures_stored_inline_in_pairs_and_in_nested_sets_are_measured():
    # keys of one, two and three values: inline, pair and nested set
    keys = ["a", "b", "b", "c", "c", "c"]
    sets = [pset(range(100 * i, 100 * i + 40)) for i in range(len(keys))]
    collide = {"value_hash": lambda v: 0}  # the same shapes for sets and ints
    stored = multimap(zip(keys, sets), **collide)
    plain = multimap(zip(keys, range(len(keys))), **collide)
    assert object_bytes(stored) == object_bytes(plain) + object_bytes(sets)
    wrapper_words = HEADER_WORDS + WRAPPER_FIELDS[PersistentSet]
    added = footprint(sets).words_total + len(sets) * wrapper_words
    assert footprint(stored).words_total == footprint(plain).words_total + added
    assert footprint(stored).nested_words == footprint(plain).nested_words + added


def test_object_bytes_leave_out_stored_keys_and_values():
    big = [(10**20 + i, 10**30 + i) for i in range(50)]
    small = [(i, i) for i in range(50)]
    # equal shapes when the hashes agree: only the payload objects differ
    same_hash = {"key_hash": lambda k: k % 1000, "value_hash": lambda v: v % 1000}
    assert object_bytes(multimap(big, **same_hash)) == object_bytes(
        multimap(small, **same_hash)
    )
    shared = multimap(big)
    assert object_bytes([shared, shared]) == object_bytes(shared)
    with pytest.raises(TypeError):
        object_bytes([{}])


def _reached(roots, skip):
    """``{id: object}`` of every object ``gc.get_referents`` reaches from
    ``roots``, leaving out the ids in ``skip`` and the objects that
    ``object_bytes`` leaves out as shared: a walk that knows no node
    layout."""
    found = {}
    stack = list(roots)
    while stack:
        o = stack.pop()
        if id(o) in found or id(o) in skip or o is None or type(o) is bool:
            continue
        if isinstance(o, (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType)):
            continue
        if type(o) is int and -5 <= o <= 256:
            continue
        found[id(o)] = o
        stack.extend(gc.get_referents(o))
    return found


def _bytes(objects):
    return sum(sys.getsizeof(o) for o in objects.values())


COMPONENT_CASES = {
    "one-or-two-values": lambda: multimap(_entries(0.5)),
    "three-values": lambda: multimap((k % 500, v) for k, v in _entries(0.9)),
    "colliding": lambda: multimap(
        ((k % 500, v) for k, v in _entries(0.9)), key_hash=_low_bits, value_hash=_low_bits
    ),
    "pset": lambda: pset(k for k, _ in _entries(0.5)),
}


@pytest.mark.parametrize("name", sorted(COMPONENT_CASES))
def test_byte_components_match_a_layout_free_walk(name):
    built = COMPONENT_CASES[name]()
    # stored keys and values, read through the public API
    if isinstance(built, PersistentMultiMap):
        stored = {id(o) for entry in built.items() for o in entry}
        sets = (built.get(k) for k in built.keys())
        nested_roots = [s._root for s in sets if len(s) >= 3]
    else:
        stored = {id(o) for o in built}
        nested_roots = []
    nodes = _reached([built._root], stored)
    # each node's head ints: a trie node's bitmap, a bucket's hash and
    # counts; stored keys and values are skipped, so every tuple is a node
    heads = (o[: _head(o)] for o in nodes.values() if isinstance(o, tuple))
    bitmaps = {id(i): i for head in heads for i in head if i > 256}
    nested = _reached(nested_roots, stored.union(bitmaps))
    trie = _reached([built._root], stored.union(bitmaps, map(id, nested_roots)))
    wrappers = _reached([built], stored | {id(built._root)})
    assert nodes.keys() == trie.keys() | nested.keys() | bitmaps.keys()
    assert not wrappers.keys() & nodes.keys()
    assert byte_components(built) == {
        "trie": _bytes(trie),
        "nested": _bytes(nested),
        "bitmaps": _bytes(bitmaps),
        "wrappers": _bytes(wrappers),
    }
    assert bool(nested_roots) == (name in ("three-values", "colliding"))


def _layout_free_words(objects):
    """Default-model words of the trie nodes among ``objects``: 3 per node
    plus one per slot, and the indirection word past ``MAX_FIXED_SLOTS``.
    Stored keys and values are left out of ``objects``, so every tuple among
    them is a node."""
    words = 0
    for o in objects.values():
        if isinstance(o, tuple):
            n_slots = len(o) - _head(o)
            words += 3 + n_slots + (n_slots > MAX_FIXED_SLOTS)
    return words


@pytest.mark.parametrize("name", sorted(COMPONENT_CASES))
def test_footprint_words_match_a_layout_free_walk(name):
    built = COMPONENT_CASES[name]()
    if isinstance(built, PersistentMultiMap):
        stored = {id(o) for entry in built.items() for o in entry}
        sets = (built.get(k) for k in built.keys())
        nested_roots = [s._root for s in sets if len(s) >= 3]
    else:
        stored = {id(o) for o in built}
        nested_roots = []
    report = footprint(built)
    assert report.words_total == _layout_free_words(_reached([built._root], stored))
    assert report.nested_words == _layout_free_words(_reached(nested_roots, stored))
    assert bool(report.nested_words) == (name in ("three-values", "colliding"))


def test_byte_components_split_nested_tries_from_the_trie():
    # a 50:50 multimap stores every value in its key's entry
    assert byte_components(multimap(_entries(0.5)))["nested"] == 0
    assert byte_components(multimap((k % 500, v) for k, v in _entries(0.9)))["nested"] > 0
    # a map of sets: the sets' tries are nested, and measured on their own
    # they are the trie
    nested = _adapter("map_of_sets").build(generate_workload(WorkloadSpec(mix=0.5), 256, 3))
    sets = list(nested.values())
    assert byte_components(nested)["nested"] == byte_components(sets)["trie"]


def test_the_first_structure_listed_owns_a_shared_node_in_both_walks():
    # the set that get returns has the multimap's nested set root as its
    # own trie, so the joint walks must agree on whose node it is
    mm = multimap([(k, v) for k in range(50) for v in range(k % 6)])
    s = mm.get(5)
    nested_words = footprint(mm).nested_words
    mm_bytes, s_bytes = byte_components(mm), byte_components(s)
    assert footprint([mm, s]).nested_words == nested_words == 168
    assert footprint([s, mm]).nested_words == nested_words - footprint(s).words_total == 160
    mm_first, s_first = byte_components([mm, s]), byte_components([s, mm])
    assert (mm_first["trie"], mm_first["nested"]) == (mm_bytes["trie"], mm_bytes["nested"])
    assert (s_first["trie"], s_first["nested"]) == (
        mm_bytes["trie"] + s_bytes["trie"],
        mm_bytes["nested"] - s_bytes["trie"],
    )
    assert sum(mm_first.values()) == sum(s_first.values()) == object_bytes([mm, s])


def test_deeply_nested_stored_structures_are_priced_without_recursion():
    s = pset([0])
    for _ in range(600):
        s = pset([s])
    report = footprint(s)
    # 601 one-slot roots of 4 words, and 600 stored set objects of 2 header
    # words and 2 fields; the outermost set object is not priced
    assert (report.words_total, report.nested_words, report.nodes) == (4804, 4800, 1201)
    assert object_bytes(s) > 0


def test_footprint_rows_report_nested_words_and_bytes():
    for row in run_footprint([6, 8]):
        assert all(getattr(row, f"bytes_{c}") >= 0 for c in BYTE_COMPONENTS)
        assert 0 <= row.words_nested < row.words_total
        # keys of one or two values: no nested set in the multimap, one per
        # key in the baseline
        if row.structure == "multimap":
            assert row.words_nested == row.bytes_nested == 0
        else:
            assert row.words_nested > 0 and row.bytes_nested > 0
