"""Slot-splicing, footprint-model and real-byte tests.

``nodes._splice`` / ``nodes._replaced`` are checked against an
element-wise list oracle; footprint numbers for small structures are frozen
from hand counts under the default model (header 2 words, bitmap 1, slot 1,
out-of-line indirection 1); ``object_bytes`` is checked against what
``tracemalloc`` sees a build allocate, and every bulk build against
holding one int object per distinct bitmap, shared with no other build.
"""

import gc
import random
import tracemalloc

import pytest

from leantrie import (
    DEFAULT_MODEL,
    FootprintModel,
    footprint,
    multimap,
    object_bytes,
    pmap,
    pset,
)
from leantrie.bench import WorkloadSpec, _adapter, generate_workload
from leantrie.nodes import CollisionNode, TrieNode, _replaced, _splice
from leantrie.selftest import _bitmap_ints
from leantrie.storage import MAX_FIXED_SLOTS


def oracle_splice(old, rm_pos, rm_len, ins_pos, vals):
    out = list(old)
    del out[rm_pos : rm_pos + rm_len]
    out[ins_pos:ins_pos] = vals
    return tuple(out)


# --- slot splicing vs oracle --------------------------------------------------


def test_splice_matches_elementwise_oracle():
    branches = set()
    for size in range(10):
        old = tuple(range(size))
        for rm_len in range(min(size, 3) + 1):
            for rm_pos in range(size - rm_len + 1):
                for ins_pos in range(size - rm_len + 1):
                    for vals in ((), (100,), (100, 101)):
                        got = _splice(old, rm_pos, rm_len, ins_pos, vals)
                        assert type(got) is tuple
                        assert got == oracle_splice(old, rm_pos, rm_len, ins_pos, vals)
                        branches.add(ins_pos <= rm_pos)
    assert branches == {True, False}  # both the ins <= rm and ins > rm branch


def test_splice_replaces_the_head():
    old = tuple(range(8))
    for rm_pos in range(1, 7):
        for ins_pos in range(1, 7):
            got = _splice(old, rm_pos, 2, ins_pos, ("x",), ("h",))
            want = oracle_splice(("h",) + old[1:], rm_pos, 2, ins_pos, ("x",))
            assert got == want


def test_splice_with_nothing_to_move_is_a_copy():
    old = (1, 2, 3)
    assert _splice(old, 1, 0, 1, ()) == old
    assert _splice((), 0, 0, 0, ()) == ()


def test_replaced_swaps_exactly_one_slot():
    old = tuple(range(7))
    for pos in range(7):
        got = _replaced(old, pos, "x")
        assert got == old[:pos] + ("x",) + old[pos + 1 :]
    assert old == tuple(range(7))  # receiver untouched


# --- indirection pricing rule ---------------------------------------------------
#
# Nodes are plain tuples whatever ``specialize`` says; the flag only decides
# whether the footprint model charges the out-of-line indirection word.  A
# flat identity-hashed set of n elements is one root node of exactly n slots.


def _flat_set(n, specialize):
    s = pset(range(n), element_hash=lambda e: e, specialize=specialize)
    assert len(s._root.slots) == n
    return s


def _nodes(structure):
    """Every node reachable from ``structure``'s root, nested set roots too."""
    stack = [structure._root]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(s for s in node.slots if isinstance(s, (TrieNode, CollisionNode)))


def test_small_specialized_nodes_pay_no_indirection():
    for n in range(MAX_FIXED_SLOTS + 1):
        report = footprint(_flat_set(n, specialize=True))
        assert (report.nodes, report.indirections) == (1, 0), n


def test_wide_nodes_pay_one_indirection():
    for n in range(MAX_FIXED_SLOTS + 1, 33):
        for specialize in (True, False):
            report = footprint(_flat_set(n, specialize))
            assert (report.nodes, report.indirections) == (1, 1), n


def test_fixed_capacity_is_exact():
    for n in range(MAX_FIXED_SLOTS + 1):
        report = footprint(_flat_set(n, specialize=True))
        assert report.slots == n
        assert report.words_total == 3 + n


def test_specialize_false_always_generic():
    for n in (0, 1, 8, 20):
        report = footprint(_flat_set(n, specialize=False))
        assert report.indirections == report.nodes == 1
        assert report.words_total == 3 + n + 1


def test_get_set_roundtrip_all_classes():
    for n in list(range(9)) + [9, 17, 32]:
        for specialize in (True, False):
            root = _flat_set(n, specialize)._root
            assert type(root.slots) is tuple
            assert root.slots == tuple(range(n))


def test_indirection_depends_only_on_the_slot_total():
    # inline, collection and sub-node regions, nested set roots and
    # collision buckets all fall under the same per-node rule
    rng = random.Random(8)
    entries = [(rng.randrange(300), rng.randrange(4)) for _ in range(600)]
    for specialize in (True, False):
        mm = multimap(entries, key_hash=lambda k: k % 97, specialize=specialize)
        nodes = list(_nodes(mm))
        assert any(type(n) is CollisionNode for n in nodes)
        assert any(len(n.slots) > MAX_FIXED_SLOTS for n in nodes)
        assert any(len(n.slots) <= MAX_FIXED_SLOTS for n in nodes)
        report = footprint(mm)
        assert report.nodes == len(nodes)
        assert report.indirections == sum(
            1 for n in nodes if len(n.slots) > MAX_FIXED_SLOTS or not specialize
        )


def test_empty_roots_of_both_pricings_are_measured_separately():
    report = footprint([multimap(), multimap(specialize=False)])
    assert report.nodes == 2
    assert report.words_total == 3 + 4
    assert report.indirections == 1


# --- footprint model --------------------------------------------------------


def test_default_model_constants():
    assert DEFAULT_MODEL == FootprintModel(
        header_words=2, bitmap_words=1, slot_words=1, indirection_words=1
    )


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


def test_footprint_all_generic_adds_one_indirection_per_node():
    spec = footprint(multimap([(1, 2)]))
    gen = footprint(multimap([(1, 2)], specialize=False))
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
    promoted = footprint(multimap([(1, 2), (1, 3)])).words_total
    # collection entry still two slots; nested 2-element set root adds 2+1+2
    assert promoted == base + 5


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


def test_footprint_custom_model_scales_components():
    model = FootprintModel(
        header_words=3, bitmap_words=2, slot_words=4, indirection_words=7
    )
    report = footprint(multimap([(1, 2)]), model)
    assert report.words_total == 3 + 2 + 2 * 4
    generic = footprint(multimap([(1, 2)], specialize=False), model)
    assert generic.words_total == report.words_total + 7


def test_specialized_saving_is_exactly_one_indirection_per_node():
    rng = random.Random(3)
    # mixed 1:1 / 1:2 so nested set roots participate as nodes too
    entries = []
    for k in range(40):
        entries.append((rng.getrandbits(32), rng.getrandbits(8)))
        if k % 2 == 0:
            entries.append((entries[-1][0], rng.getrandbits(8)))
    spec_report = footprint(multimap(entries))
    gen_report = footprint(multimap(entries, specialize=False))
    assert gen_report.nodes == spec_report.nodes
    saving = gen_report.words_total - spec_report.words_total
    # nodes wider than the fixed-arity ceiling stay generic either way, so
    # the saving is one indirection per node that actually specialized
    assert saving == gen_report.indirections - spec_report.indirections
    assert saving > 0
    # every node in the generic build carries exactly one indirection
    assert gen_report.indirections == gen_report.nodes


def test_small_specialized_build_drops_every_indirection():
    entries = [(n, n + 1) for n in range(4)]
    spec_report = footprint(multimap(entries))
    gen_report = footprint(multimap(entries, specialize=False))
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


@pytest.mark.parametrize("name", sorted(BULK_BUILDS))
def test_bulk_build_holds_one_int_per_distinct_bitmap(name):
    built = BULK_BUILDS[name]()
    bitmaps = _bitmap_ints(built._root)
    assert len({id(bm) for bm in bitmaps}) == len(set(bitmaps))
    # the table lives for one build only: object_bytes then agrees with
    # tracemalloc, which sees every build allocate its own ints
    again = BULK_BUILDS[name]()
    assert not {id(bm) for bm in bitmaps} & {id(bm) for bm in _bitmap_ints(again._root)}


def test_object_bytes_measure_structures_stored_as_values():
    # a map of sets costs its map, with the same keys, plus its sets
    dataset = generate_workload(WorkloadSpec(mix=0.5), 256, 3)
    nested = _adapter("map_of_sets").build(dataset)
    flat = pmap((k, 0) for k in nested)
    assert object_bytes(nested) == object_bytes(flat) + object_bytes(nested.values())


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
