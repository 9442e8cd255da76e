"""Trie node behavior against an independent dict-of-sets reference model.

The reference model re-implements multimap semantics with plain Python
dicts and sets; the trie must match it for any operation sequence under
any hash function, and every intermediate structure must satisfy the
full invariant set (canonical form, region layout, collision placement,
cached counts).
"""

import gc
import random
import sys
import tracemalloc
from itertools import chain, groupby
from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leantrie import (
    FootprintModel,
    check_invariants,
    footprint,
    multimap,
    pmap,
    pset,
    structure_stats,
)
from leantrie.bits import (
    COLLECTION,
    EMPTY,
    EVEN_BITS,
    INLINE,
    NODE,
    PAIR,
    pattern_bits,
)
from leantrie.maps import PersistentMap, PersistentMultiMap, PersistentSet
from leantrie.nodes import (
    COLL_W,
    EMPTY_ROOT,
    M32,
    PAIR_W,
    CollisionNode,
    InvariantError,
    TrieNode,
    ValuePair,
    _add_value,
    _drop_key,
    _drop_value,
    _few_values,
    _pos,
    _root_of_two,
    _set_of_three,
    _trie_order,
    _update,
    build_root,
    fold_hash,
    iter_keys,
    map_config,
    multimap_config,
    put_values,
    regions,
    set_config,
    validate_root,
    walk,
)


class ModelMultiMap:
    """Plain dict-of-sets with the multimap's operation semantics."""

    def __init__(self):
        self.data = {}

    def put(self, k, v):
        self.data.setdefault(k, set()).add(v)

    def remove(self, k, v):
        if k in self.data:
            self.data[k].discard(v)
            if not self.data[k]:
                del self.data[k]

    def remove_key(self, k):
        self.data.pop(k, None)

    @property
    def tuple_count(self):
        return sum(len(s) for s in self.data.values())

    @property
    def key_count(self):
        return len(self.data)

    def as_dict(self):
        return {k: set(s) for k, s in self.data.items()}


def contents(mm):
    return {k: set(mm.get(k)) for k in mm.keys()}


HASHERS = [
    None,
    lambda x: hash(x) % 13,
    lambda x: 0,
    lambda x: hash(x) & 0x3FF,
]
HASHER_IDS = ["default", "mod13", "constant", "ten-bit"]


def apply_ops(ops, key_hash=None, value_hash=None, validate_every=None):
    mm = multimap(key_hash=key_hash, value_hash=value_hash)
    model = ModelMultiMap()
    for i, (op, k, v) in enumerate(ops):
        if op == 0:
            mm = mm.put(k, v)
            model.put(k, v)
        elif op == 1:
            mm = mm.remove(k, v)
            model.remove(k, v)
        else:
            mm = mm.remove_key(k)
            model.remove_key(k)
        if validate_every and i % validate_every == 0:
            check_invariants(mm)
    check_invariants(mm)
    return mm, model


@pytest.mark.parametrize("key_hash", HASHERS, ids=HASHER_IDS)
def test_random_ops_match_reference_model(key_hash):
    rng = random.Random(0x5EED)
    n = 600 if key_hash in (HASHERS[2],) else 2500
    ops = [
        (rng.choices([0, 1, 2], weights=[6, 3, 1])[0], rng.randrange(60), rng.randrange(7))
        for _ in range(n)
    ]
    mm, model = apply_ops(ops, key_hash=key_hash, validate_every=100)
    assert contents(mm) == model.as_dict()
    assert mm.tuple_count == model.tuple_count
    assert mm.key_count == model.key_count


def test_colliding_value_hash_matches_reference_model():
    rng = random.Random(17)
    ops = [
        (rng.choices([0, 1, 2], weights=[6, 3, 1])[0], rng.randrange(30), rng.randrange(10))
        for _ in range(1500)
    ]
    mm, model = apply_ops(
        ops, key_hash=lambda x: hash(x) % 11, value_hash=lambda v: v % 3,
        validate_every=100,
    )
    assert contents(mm) == model.as_dict()


ops_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=25),
        st.integers(min_value=0, max_value=4),
    ),
    max_size=120,
)


@settings(max_examples=60, deadline=None)
@given(ops=ops_strategy)
def test_any_op_sequence_matches_model_default_hash(ops):
    mm, model = apply_ops(ops)
    assert contents(mm) == model.as_dict()
    assert mm.tuple_count == model.tuple_count


@settings(max_examples=40, deadline=None)
@given(ops=ops_strategy)
def test_any_op_sequence_matches_model_colliding_hash(ops):
    mm, model = apply_ops(ops, key_hash=lambda x: hash(x) % 5)
    assert contents(mm) == model.as_dict()
    assert mm.key_count == model.key_count


@settings(max_examples=40, deadline=None)
@given(ops=ops_strategy)
def test_every_intermediate_structure_is_valid(ops):
    apply_ops(ops, key_hash=lambda x: hash(x) % 7, validate_every=1)


# -- canonical form -------------------------------------------------------------


def structurally_equal(a, b):
    return a._root.equals(a._cfg, b._root)


@pytest.mark.parametrize("key_hash", HASHERS, ids=HASHER_IDS)
def test_insertion_order_does_not_change_structure(key_hash):
    rng = random.Random(5)
    pairs = [(k, v) for k in range(30) for v in range(rng.randrange(1, 4))]
    built = multimap(pairs, key_hash=key_hash)
    for _ in range(4):
        rng.shuffle(pairs)
        other = multimap(pairs, key_hash=key_hash)
        check_invariants(other)
        assert built == other
        assert structurally_equal(built, other)


@pytest.mark.parametrize("key_hash", HASHERS, ids=HASHER_IDS)
def test_deleting_extras_restores_the_direct_build(key_hash):
    rng = random.Random(11)
    pairs = [(k, v) for k in range(25) for v in range(rng.randrange(1, 4))]
    extras = [(k, v + 50) for k in range(40) for v in range(2)]
    direct = multimap(pairs, key_hash=key_hash)
    grown = multimap(pairs + extras, key_hash=key_hash)
    assert not structurally_equal(direct, grown)
    shrunk = grown
    order = extras[:]
    rng.shuffle(order)
    for k, v in order:
        shrunk = shrunk.remove(k, v)
    check_invariants(shrunk)
    assert shrunk == direct
    assert structurally_equal(shrunk, direct)


def test_demotion_reverses_promotion_structurally():
    base = multimap([(k, 0) for k in range(12)])
    paired = base.put(5, 1)  # key 5 now holds a pair, and no nested set
    check_invariants(paired)
    stats = structure_stats(paired)
    assert (stats["pair_entries"], stats["collection_entries"]) == (1, 0)
    assert stats["nested_set_nodes"] == 0
    promoted = paired.put(5, 2)  # the third value promotes it to a nested set
    check_invariants(promoted)
    stats = structure_stats(promoted)
    assert (stats["pair_entries"], stats["collection_entries"]) == (0, 1)
    back = promoted.remove(5, 2)
    check_invariants(back)
    assert structurally_equal(back, paired)
    demoted = back.remove(5, 1)
    check_invariants(demoted)
    stats = structure_stats(demoted)
    assert (stats["pair_entries"], stats["collection_entries"]) == (0, 0)
    assert structurally_equal(demoted, base)


# value hashes of the three promoted values: distinct first fragments, one
# shared 5-bit fragment, and fully equal (a bucket below the set root)
PROMOTED_VALUE_HASHES = {
    "distinct": (1, 2, 3),
    "shared-fragment": (0b00001_00011, 0b00010_00011, 0b00011_00011),
    "equal": (7, 7, 7),
}


@pytest.mark.parametrize("key_hash", [None, lambda k: 0], ids=["trie", "bucket"])
@pytest.mark.parametrize("kind", PROMOTED_VALUE_HASHES)
def test_promotion_builds_the_same_nested_set_as_inserts(kind, key_hash):
    table = dict(zip(("v0", "v1", "v2"), PROMOTED_VALUE_HASHES[kind]))
    options = {"key_hash": key_hash, "value_hash": table.__getitem__}
    base = multimap([("k", "v0"), ("j", "v0")], **options)
    paired = base.put("k", "v1")  # the inline-to-pair promotion
    check_invariants(paired)
    assert structurally_equal(paired, multimap([("j", "v0"), ("k", "v1"), ("k", "v0")], **options))
    # get hands out the set the inserts would build
    two = paired.get("k")
    expected = pset(["v0", "v1"], element_hash=table.__getitem__)
    assert two._root.equals(expected._cfg, expected._root)
    mm = paired.put("k", "v2")  # the pair-to-collection promotion
    check_invariants(mm)
    promoted = mm.get("k")
    assert type(promoted._root) is TrieNode
    expected = pset(["v0", "v1", "v2"], element_hash=table.__getitem__)
    assert promoted._root.equals(expected._cfg, expected._root)


def test_removing_whole_key_collapses_to_sibling_free_form():
    direct = multimap([(1, 1)])
    grown = multimap([(1, 1), (2, 1), (2, 2), (2, 3)])
    shrunk = grown.remove_key(2)
    check_invariants(shrunk)
    assert structurally_equal(shrunk, direct)


def test_noop_operations_return_the_receiver():
    mm = multimap([("a", 1), ("a", 2), ("b", 3)])
    assert mm.put("a", 1) is mm
    assert mm.put("a", 2) is mm
    assert mm.remove("a", 99) is mm
    assert mm.remove("zzz", 1) is mm
    assert mm.remove_key("zzz") is mm
    m = pmap([("x", 1)])
    assert m.put("x", 1) is m
    assert m.remove("y") is m
    s = pset([4])
    assert s.add(4) is s
    assert s.discard(9) is s


# -- collision buckets ----------------------------------------------------------


def test_full_collision_forms_a_bucket_under_the_root():
    mm = multimap([("A", 1), ("B", 2)], key_hash=lambda k: 42)
    check_invariants(mm)
    stats = structure_stats(mm)
    assert stats["collision_nodes"] == 1
    assert stats["trie_nodes"] == 1  # just the root above the bucket
    assert stats["max_depth"] == 2


def test_bucket_floats_up_when_the_forcing_sibling_leaves():
    # A and B collide on the full 32-bit hash; C shares only the first
    # 5-bit fragment, forcing the bucket one level deeper while present.
    table = {"A": 0b1100001, "B": 0b1100001, "C": 0b0100001}
    mm = multimap([("A", 1), ("B", 2), ("C", 3)], key_hash=table.__getitem__)
    assert structure_stats(mm)["max_depth"] == 3
    shrunk = mm.remove_key("C")
    check_invariants(shrunk)
    assert structure_stats(shrunk)["max_depth"] == 2
    direct = multimap([("A", 1), ("B", 2)], key_hash=table.__getitem__)
    assert structurally_equal(shrunk, direct)


def test_bucket_floats_through_several_chain_levels():
    # A/B collide fully; C shares two fragments (10 bits) before diverging.
    table = {"A": 0b11_00001_00001, "B": 0b11_00001_00001, "C": 0b01_00001_00001}
    mm = multimap([("A", 1), ("B", 2), ("C", 3)], key_hash=table.__getitem__)
    assert structure_stats(mm)["max_depth"] == 4
    shrunk = mm.remove_key("C")
    check_invariants(shrunk)
    assert structure_stats(shrunk)["max_depth"] == 2
    direct = multimap([("A", 1), ("B", 2)], key_hash=table.__getitem__)
    assert structurally_equal(shrunk, direct)


def test_new_hash_lifts_an_existing_bucket_one_level():
    table = {"A": 7, "B": 7, "C": 7 + 32}
    mm = multimap([("A", 1), ("B", 2)], key_hash=table.__getitem__)
    assert structure_stats(mm)["max_depth"] == 2
    grown = mm.put("C", 3)
    check_invariants(grown)
    assert structure_stats(grown)["max_depth"] == 3
    assert contents(grown) == {"A": {1}, "B": {2}, "C": {3}}


def test_bucket_promotes_and_demotes_entries():
    mm = multimap([("A", 1), ("B", 2)], key_hash=lambda k: 3)
    paired = mm.put("A", 9)
    check_invariants(paired)
    assert set(paired.get("A")) == {1, 9}
    assert structure_stats(paired)["pair_entries"] == 1
    # the bucket's regions: B's inline entry, then A's pair
    bucket = paired._root[1]
    assert regions(bucket, 2) == (3, 5, 5 + PAIR_W, 5 + PAIR_W)
    assert bucket[regions(bucket, 2)[0] :] == ("B", 2, "A", 1, 9)
    grown = paired.put("A", 5)
    check_invariants(grown)
    assert set(grown.get("A")) == {1, 5, 9}
    assert structure_stats(grown)["collection_entries"] == 1
    # then A's collection entry, in the region after the empty pair region
    bucket = grown._root[1]
    assert regions(bucket, 2) == (3, 5, 5, 5 + COLL_W)
    assert bucket[regions(bucket, 2)[0] :][:3] == ("B", 2, "A")
    back = grown.remove("A", 5)
    check_invariants(back)
    assert structurally_equal(back, paired)
    back = back.remove("A", 9)
    check_invariants(back)
    assert structure_stats(back)["pair_entries"] == 0
    assert structurally_equal(back, mm)


def test_bucket_shrinking_to_one_entry_reinlines_into_the_parent():
    table = {"A": 33, "B": 33, "C": 2}
    mm = multimap([("A", 1), ("B", 2), ("C", 3)], key_hash=table.__getitem__)
    assert structure_stats(mm)["collision_nodes"] == 1
    shrunk = mm.remove_key("B")
    check_invariants(shrunk)
    stats = structure_stats(shrunk)
    assert stats["collision_nodes"] == 0
    assert stats["trie_nodes"] == 1
    direct = multimap([("A", 1), ("C", 3)], key_hash=table.__getitem__)
    assert structurally_equal(shrunk, direct)


LIFT_TABLE = {"A": 33, "B": 33, "C": 2}  # A and B share a bucket on branch 1


@pytest.mark.parametrize("kind", ["inline", "pair", "collection", "set"])
def test_a_bucket_left_with_each_kind_of_entry_lifts_into_the_parent(kind):
    # the survivor's entry: one value, two (a bucket of 3 + PAIR_W items,
    # the largest node that lifts), three, or a set's element
    if kind == "set":
        grown = pset("ABC", element_hash=LIFT_TABLE.__getitem__)
        shrunk = grown.remove("B")
        direct = pset("AC", element_hash=LIFT_TABLE.__getitem__)
    else:
        values = {"inline": [1], "pair": [1, 2], "collection": [1, 2, 3]}[kind]
        pairs = [("A", v) for v in values] + [("C", 9)]
        grown = multimap(pairs + [("B", 5)], key_hash=LIFT_TABLE.__getitem__)
        shrunk = grown.remove("B", 5)
        direct = multimap(pairs, key_hash=LIFT_TABLE.__getitem__)
    bucket = grown._root[-1]
    assert type(bucket) is CollisionNode
    assert len(bucket) == {"inline": 7, "pair": 8, "collection": 7, "set": 5}[kind]
    check_invariants(shrunk)
    stats = structure_stats(shrunk)
    assert stats["collision_nodes"] == 0
    assert stats["trie_nodes"] == 1
    assert shrunk._root.equals(shrunk._cfg, direct._root)
    assert shrunk._root[0] == direct._root[0]


def _big_bitmap_root(structure):
    """``structure``'s root bitmap, checked to be an int object of its own
    (small ints are cached, so identity would say nothing)."""
    bm = structure._root[0]
    assert bm > 256
    return bm


def test_an_update_that_keeps_a_nodes_patterns_keeps_its_bitmap_int():
    ident = lambda k: k  # noqa: E731 - keys 20 and 21 land on branches 20 and 21
    m = pmap({20: "a", 21: "b"}, key_hash=ident)
    bm = _big_bitmap_root(m)
    assert m.put(20, "c")._root[0] is bm  # map replace
    mm = multimap([(20, 1), (20, 2), (20, 3), (21, 4)], key_hash=ident)
    bm = _big_bitmap_root(mm)
    assert mm.put(20, 5)._root[0] is bm  # nested insert into a collection entry
    others = pset([6, 7, 8, 9])
    assert mm.put_all(20, others)._root[0] is bm  # another 3+-value set
    assert mm.remove(20, 1).put(20, 1)._root[0] is not bm  # demoted, then promoted
    # a change below a sub-node path-copies the parent with its bitmap int
    deep = multimap([(20, 1), (20 | 1 << 5, 2), (21, 4)], key_hash=ident)
    bm = _big_bitmap_root(deep)
    assert deep.put(20, 3)._root[0] is bm


def test_an_update_that_changes_a_pattern_makes_a_new_bitmap_int():
    ident = lambda k: k  # noqa: E731
    mm = multimap([(20, 1), (21, 4)], key_hash=ident)
    bm = _big_bitmap_root(mm)
    for changed in (mm.put(21, 5), mm.remove(21, 4), mm.put(22, 6)):
        assert changed._root[0] is not bm
        assert changed._root[0] != bm
    paired = mm.put(21, 5)
    back = paired.remove(21, 5)
    assert back._root[0] == bm and back._root[0] is not paired._root[0]


# -- what a point update writes --------------------------------------------------


def _node_ids(cfg, root):
    """The ids of every node of the trie ``root``, its nested sets' too."""
    ids = set()
    for _, run, _, _, end_p, end in walk(cfg.width, root):
        ids.add(id(run))
        for nested in run[end_p + 1 : end : COLL_W]:
            ids.update(id(n) for _, n, *_ in walk(1, nested))
    return ids


def _sub_node(node, branch):
    """``node``'s sub-node on ``branch``, or None."""
    if node is None or type(node) is CollisionNode or (node[0] >> (branch << 1)) & 0b11 != NODE:
        return None
    return node[_pos(node[0], 1, NODE, branch, len(node))]


def _check_written(cfg, old, new, shift, h, key, value, old_root, old_ids):
    """Check that ``new``, the node at ``shift`` on the hash path ``h`` of
    ``key`` after an update whose node there was ``old`` (None when there
    was none), wrote nothing off that path: each of its sub-nodes on
    another branch is a node of the old trie, the old node's own on that
    branch where it had one, and each other key's nested root is the one
    the old trie holds for it.  ``value`` is the value of a one-value
    update, whose nested set is checked the same way on the value's hash
    path, or None."""
    if new is old or id(new) in old_ids:
        return
    w = cfg.width
    _, _, end_p, end = regions(new, w)
    if type(new) is CollisionNode:
        assert new[0] == h, "a new bucket off the key's hash"
    for pos in range(end_p, end, COLL_W):
        k, nested = new[pos], new[pos + 1]
        was = old_root.lookup(cfg, 0, cfg.hasher(k) & M32, k)
        if not (k is key or k == key):
            assert was is not None and nested is was[1], f"nested root of {k!r} copied"
        elif value is not None and was is not None and was[0] == COLLECTION:
            vcfg = cfg.value_cfg
            vh = vcfg.hasher(value) & M32
            _check_written(vcfg, was[1], nested, 0, vh, value, None, was[1], old_ids)
    if type(new) is CollisionNode:
        return
    branch = (h >> shift) & 31
    for b in range(32):
        child = _sub_node(new, b)
        if child is None:
            continue
        if b == branch:
            was = _sub_node(old, b)
            _check_written(cfg, was, child, shift + 5, h, key, value, old_root, old_ids)
            continue
        assert id(child) in old_ids, f"sub-node on branch {b} at shift {shift} is new"
        kept = _sub_node(old, b)
        assert kept is None or child is kept, f"sub-node on branch {b} at shift {shift} copied"


def test_a_point_update_writes_only_its_keys_hash_path():
    # key k hashes to k & 0xFFF: keys 0..1199 fill a trie three levels deep
    # (k and k + 1024 part at the third), and 4096 + j shares j's hash, so
    # buckets form; some keys hold nested sets two levels deep
    key_hash = lambda k: k & 0xFFF  # noqa: E731
    rng = random.Random(25)
    keys = list(range(1200)) + list(range(4096, 4106))
    content = []
    for k in rng.sample(keys, 700):
        n = rng.choice((1, 1, 2, 3, 40))
        content += [(k, v) for v in rng.sample(range(48), n)]
    mm = multimap(content, key_hash=key_hash)
    assert structure_stats(mm)["max_depth"] >= 3
    seen = set()
    for _ in range(800):
        k = rng.choice(keys)
        op = rng.choice(("put", "put", "remove", "remove", "put_all", "remove_key"))
        v = rng.randrange(48)
        if op == "put":
            new = mm.put(k, v)
        elif op == "remove":
            new = mm.remove(k, v)
        elif op == "put_all":
            new = mm.put_all(k, rng.sample(range(48), rng.choice((0, 1, 2, 3, 5))))
        else:
            new = mm.remove_key(k)
        if new is mm:
            continue
        # three stands for three or more values
        seen.add((op, min(3, len(mm.get(k))), min(3, len(new.get(k)))))
        grown = sum(1 for _ in walk(2, new._root)) - sum(1 for _ in walk(2, mm._root))
        if grown:  # a trie node more or fewer
            seen.add((op, "push down" if grown > 0 else "lift"))
        old_ids = _node_ids(mm._cfg, mm._root)
        single = v if op in ("put", "remove") else None
        _check_written(mm._cfg, mm._root, new._root, 0, key_hash(k), k, single, mm._root, old_ids)
        mm = new
    check_invariants(mm)
    expected = {
        ("put", 0, 1), ("put", 1, 2), ("put", 2, 3), ("put", 3, 3),
        ("remove", 1, 0), ("remove", 2, 1), ("remove", 3, 2), ("remove", 3, 3),
        ("put_all", 1, 2), ("put_all", 2, 1), ("put_all", 1, 3), ("put_all", 3, 1),
        ("put_all", 3, 3), ("put_all", 0, 2), ("put_all", 3, 0),
        ("remove_key", 1, 0), ("remove_key", 2, 0), ("remove_key", 3, 0),
        ("put", "push down"), ("remove", "lift"), ("remove_key", "lift"),
    }
    assert expected <= seen, expected - seen


def test_bucket_region_order_is_irrelevant_to_equality():
    ops = [("A", 1), ("B", 2), ("C", 3)]
    a = multimap(ops, key_hash=lambda k: 9)
    b = multimap(list(reversed(ops)), key_hash=lambda k: 9)
    assert a == b
    assert structurally_equal(a, b)


def test_deep_divergence_terminates_at_the_last_level():
    # hashes differ only in the top two bits: chain runs to shift 30
    table = {"A": 0x3FFFFFFF, "B": 0x7FFFFFFF}
    mm = multimap([("A", 1), ("B", 2)], key_hash=table.__getitem__)
    check_invariants(mm)
    stats = structure_stats(mm)
    assert stats["collision_nodes"] == 0
    assert stats["max_depth"] == 7  # shifts 0..30 inclusive
    assert contents(mm) == {"A": {1}, "B": {2}}


def test_depth_never_exceeds_seven_levels_plus_buckets():
    rng = random.Random(2)
    mm = multimap([(rng.getrandbits(64), 0) for _ in range(3000)])
    check_invariants(mm)
    assert structure_stats(mm)["max_depth"] <= 8


# -- iteration ------------------------------------------------------------------


def test_iteration_is_deterministic_for_equal_structures():
    rng = random.Random(23)
    pairs = [(k, v) for k in range(40) for v in range(rng.randrange(1, 4))]
    a = multimap(pairs)
    shuffled = pairs[:]
    rng.shuffle(shuffled)
    b = multimap(shuffled)
    assert list(a.items()) == list(b.items())
    assert list(a.keys()) == list(b.keys())


def test_iteration_covers_exactly_the_contents():
    rng = random.Random(29)
    ops = [
        (rng.choices([0, 1], weights=[3, 1])[0], rng.randrange(40), rng.randrange(5))
        for _ in range(800)
    ]
    mm, model = apply_ops(ops, key_hash=lambda x: hash(x) % 9)
    seen = {}
    for k, v in mm.items():
        seen.setdefault(k, set()).add(v)
    assert seen == model.as_dict()
    assert sorted(mm.keys()) == sorted(model.data)
    assert len(list(mm.items())) == mm.tuple_count


def _reference_entries(cfg, node):
    """A node's entries in trie order, by recursion: its inline, pair and
    collection entries (a set's elements at width 1), then each sub-node's
    in branch order."""
    w = cfg.width
    start, end_i, end_p, end = regions(node, w)
    if w == 1:
        yield from node[start:end_i]
    else:
        for pos in range(start, end_i, w):
            yield (node[pos], node[pos + 1])
        for pos in range(end_i, end_p, PAIR_W):
            yield (node[pos], node[pos + 1])
            yield (node[pos], node[pos + 2])
        for pos in range(end_p, end, COLL_W):
            for v in _reference_entries(cfg.value_cfg, node[pos + 1]):
                yield (node[pos], v)
    for child in node[end:]:
        yield from _reference_entries(cfg, child)


def _reference_keys(cfg, node):
    w = cfg.width
    start, end_i, end_p, end = regions(node, w)
    yield from node[start:end_i:w]
    yield from node[end_i:end_p:PAIR_W]
    yield from node[end_p:end:COLL_W]
    for child in node[end:]:
        yield from _reference_keys(cfg, child)


def _mod7(obj):
    return hash(obj) % 7


def _low10(obj):
    return hash(obj) & 0x3FF


@pytest.mark.parametrize("hasher", [None, _mod7, _low10], ids=["default", "mod7", "low10"])
def test_iteration_follows_the_recursive_trie_order(hasher):
    rng = random.Random(31)
    # one to five values per key: inline, pair and nested-set entries; keys
    # 1024 apart collide under _low10
    pairs = [(k, rng.randrange(3000)) for k in range(0, 2800, 4) for _ in range(k % 5 + 1)]
    mm = multimap(pairs, key_hash=hasher, value_hash=hasher)
    m = pmap(pairs, key_hash=hasher)
    s = pset((v for _, v in pairs), element_hash=hasher)
    stats = structure_stats(mm)
    assert stats["nested_set_nodes"] > stats["collection_entries"] > 0
    assert (stats["collision_nodes"] > 0) == (hasher is not None)
    for built in (mm, m):
        assert list(built.items()) == list(_reference_entries(built._cfg, built._root))
        assert list(built.keys()) == list(_reference_keys(built._cfg, built._root))
    assert list(m.values()) == [v for _, v in _reference_entries(m._cfg, m._root)]
    assert list(s) == list(_reference_entries(s._cfg, s._root))
    assert list(s) == list(_reference_keys(s._cfg, s._root))
    # the dominator fixpoint reads a key's values from one items() walk
    grouped = [(k, [v for _, v in run]) for k, run in groupby(mm.items(), key=itemgetter(0))]
    assert len(grouped) == mm.key_count
    assert all(values == list(mm.get(k)) for k, values in grouped)


def test_structure_stats_count_each_nested_root_once_per_key():
    def colliding_below_zero(v):
        return 0 if v < 0 else v  # negative values share one hash: a bucket

    mm = multimap(
        # 1: a nested set three levels deep; 2: a nested bucket under its
        # root; 4: inline and 36: a pair, on a sub-node of the root
        [(1, 1), (1, 33), (1, 1025), (2, -1), (2, -2), (2, -3), (4, 7), (36, 5), (36, 6)],
        key_hash=lambda k: k,
        value_hash=colliding_below_zero,
    )
    shared = mm.put_all(3, mm.get(1))
    assert shared.get(3)._root is mm.get(1)._root
    assert structure_stats(shared) == {
        "trie_nodes": 2,
        "collision_nodes": 0,
        "inline_entries": 1,
        "pair_entries": 1,
        "collection_entries": 3,
        "nested_set_nodes": 3 + 2 + 3,  # key 1's root counted for key 3 too
        "max_depth": 2,  # the nested tries' three levels are not the trie's
    }


# -- sets and maps through the shared machinery ----------------------------------


@settings(max_examples=50, deadline=None)
@given(
    ops=st.lists(
        st.tuples(st.booleans(), st.integers(min_value=0, max_value=40)), max_size=150
    )
)
def test_set_ops_match_builtin_set(ops):
    s = pset(element_hash=lambda x: hash(x) % 17)
    model = set()
    for add, x in ops:
        if add:
            s = s.add(x)
            model.add(x)
        else:
            s = s.discard(x)
            model.discard(x)
    check_invariants(s)
    assert set(s) == model
    assert len(s) == len(model)


@settings(max_examples=50, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.booleans(),
            st.integers(min_value=0, max_value=30),
            st.integers(min_value=0, max_value=5),
        ),
        max_size=150,
    )
)
def test_map_ops_match_builtin_dict(ops):
    m = pmap(key_hash=lambda x: hash(x) % 17)
    model = {}
    for put, k, v in ops:
        if put:
            m = m.put(k, v)
            model[k] = v
        else:
            m = m.remove(k)
            model.pop(k, None)
    check_invariants(m)
    assert dict(m.items()) == model


def test_map_put_replaces_without_promotion():
    m = pmap([("k", 1)])
    m = m.put("k", 2)
    assert m["k"] == 2
    assert len(m) == 1
    assert structure_stats(m)["collection_entries"] == 0


# -- only a trie's root carries the TrieNode class ------------------------------

# the node classes a trie may hold, by whether the node is a root: a root,
# top-level or nested, is a TrieNode, and below it a trie node is a plain
# tuple and a bucket a CollisionNode
ROOT_RULE = {(True, "TrieNode"), (False, "tuple"), (False, "CollisionNode")}


def _node_kinds(cfg, root):
    """``{(is_root, class name)}`` over the nodes of the trie ``root`` and
    of its nested sets."""
    kinds = set()
    stack = [(cfg, root)]
    while stack:
        c, r = stack.pop()
        for depth, run, _, _, end_p, end in walk(c.width, r):
            kinds.add((depth == 1, type(run).__name__))
            stack += [(c.value_cfg, nested) for nested in run[end_p + 1 : end : COLL_W]]
    return kinds


def _keeps_the_root_rule(structure):
    check_invariants(structure)  # validate_root checks the rule too
    return _node_kinds(structure._cfg, structure._root) <= ROOT_RULE


@settings(max_examples=40, deadline=None)
@given(
    a=st.sets(st.integers(0, 3000), max_size=80),
    b=st.sets(st.integers(0, 3000), max_size=80),
    values=st.lists(st.integers(0, 3000), min_size=3, max_size=3, unique=True),
    hasher=st.sampled_from([None, _mod7, _low10]),
)
def test_only_roots_carry_the_trie_node_class(a, b, values, hasher):
    sa = pset(a, element_hash=hasher)
    sb = pset(b, element_hash=hasher)
    for s in (sa, sb, sa & sb, sb & sa, sa.add(3001), sa.discard(min(a, default=0))):
        assert _keeps_the_root_rule(s)
    mm = multimap([(k, k) for k in a], key_hash=hasher, value_hash=hasher)
    # a shared nested root, a list's build, and get's roots of each entry kind
    for k in (0, 1):
        mm = mm.put_all(k, sa).put_all(k + 2, list(b))
    assert _keeps_the_root_rule(mm)
    for k in (0, 2, *list(a)[:3]):
        assert _keeps_the_root_rule(mm.get(k))
    # the pair-to-set promotion, one node or the general path
    v0, v1, v2 = values
    vcfg = mm._cfg.value_cfg
    if not _trie_order(vcfg.hasher(v0) & M32, vcfg.hasher(v1) & M32):
        v0, v1 = v1, v0
    three = PersistentSet(vcfg, _set_of_three(vcfg, v0, v1, v2), 3)
    assert _keeps_the_root_rule(three)
    promoted = multimap([(9, v0), (9, v1)], key_hash=hasher, value_hash=hasher).put(9, v2)
    assert _keeps_the_root_rule(promoted) and _keeps_the_root_rule(promoted.get(9))


@pytest.mark.parametrize(
    "h0, h1",
    [(1, 2), (0b00001_00011, 0b00010_00011), (0b11 << 25 | 5, 0b01 << 25 | 5), (7, 7)],
    ids=["distinct", "shared-fragment", "shared-six-fragments", "collision"],
)
def test_a_two_set_root_keeps_the_root_rule(h0, h1):
    table = {"x": h0, "y": h1}
    cfg = set_config(table.__getitem__)
    root = _root_of_two(h0, "x", h1, "y")
    assert _keeps_the_root_rule(PersistentSet(cfg, root, 2))
    kinds = _node_kinds(cfg, root)
    if h0 & 31 != h1 & 31:
        assert kinds == {(True, "TrieNode")}
    elif h0 == h1:
        assert kinds == {(True, "TrieNode"), (False, "CollisionNode")}
    else:
        assert kinds == {(True, "TrieNode"), (False, "tuple")}


def _drop_by_rebuild(cfg, k0, root, value):
    """``_drop_value`` of ``value`` from the nested set ``root``, three
    values, as it was before the one-node read: remove the value by
    ``update`` and read the two left."""
    vcfg = cfg.value_cfg
    new_root, _ = _update(root, vcfg, 0, vcfg.hasher(value) & M32, value, None, _drop_key)
    if new_root is root:
        return None
    return PAIR, (k0, *_few_values(new_root))


def _shifted(obj):
    # every value on first-level branch 0: the three hang below a sub-node
    return (hash(obj) << 5) & M32


@pytest.mark.parametrize(
    "hasher", [None, _mod7, _low10, _shifted], ids=["default", "mod7", "low10", "shifted"]
)
def test_a_three_value_demotion_matches_the_rebuild(hasher):
    cfg = multimap_config(value_hash=hasher)
    vcfg = cfg.value_cfg
    rng = random.Random(2929)
    one_node = 0
    for _ in range(300):
        values = rng.sample(range(4000), 3)
        v0, v1, v2 = values
        if not _trie_order(vcfg.hasher(v0) & M32, vcfg.hasher(v1) & M32):
            v0, v1 = v1, v0
        root = _set_of_three(vcfg, v0, v1, v2)
        bm = root[0]
        one_node += len(root) == 4 and not bm & ~(bm >> 1) & EVEN_BITS
        # each stored value, and absent ones: a new one and an equal copy
        for value in (*values, 4000 + rng.randrange(4000), float(values[0])):
            got = _drop_value(cfg, COLLECTION, "k", root, value)
            want = _drop_by_rebuild(cfg, "k", root, value)
            assert got == want, (values, value)
            if got is not None:
                assert all(a is b for a, b in zip(got[1], want[1]))
    # the default hash puts nine in ten on the one-node read, _shifted none
    if hasher is None:
        assert one_node > 240
    if hasher is _shifted:
        assert one_node == 0


# -- validator rejects malformed structures --------------------------------------


def make_leaf(branch, key, value):
    return TrieNode((INLINE << (branch << 1), key, value))


def test_validator_rejects_single_payload_child():
    cfg = map_config(key_hash=lambda k: k)
    child = tuple(make_leaf(1, 32, "v"))  # hash 32: fragment 0 then 1
    root = TrieNode((NODE << 0, child))
    with pytest.raises(InvariantError, match="single payload"):
        validate_root(cfg, root)


def test_validator_rejects_chain_over_a_bucket():
    cfg = map_config(key_hash=lambda k: 0)
    bucket = CollisionNode((0, 2, 0, "a", 1, "b", 2))
    chain = (NODE << 0, bucket)
    root = TrieNode((NODE << 0, chain))
    with pytest.raises(InvariantError, match="chain node"):
        validate_root(cfg, root)


def test_specialization_is_a_pricing_rule_not_a_storage_class():
    # one node, valid under either model; only the modeled price differs
    leaf = make_leaf(3, 3, "v")
    cfg = map_config(key_hash=lambda k: k)
    assert validate_root(cfg, leaf) == (1, 1)
    structure = PersistentMap(cfg, leaf, 1)
    words = {}
    for specialize in (True, False):
        report = footprint(structure, FootprintModel(specialize=specialize))
        assert report.indirections == (0 if specialize else 1)
        words[specialize] = report.words_total
    assert words[False] == words[True] + 1


def test_validator_rejects_misplaced_key():
    cfg = map_config(key_hash=lambda k: k)
    root = make_leaf(4, 9, "v")  # key 9 belongs on branch 9, not 4
    with pytest.raises(InvariantError, match="wrong branch"):
        validate_root(cfg, root)


def test_validator_rejects_undersized_nested_set():
    cfg = multimap_config(key_hash=lambda k: k, value_hash=lambda v: v)
    vcfg = cfg.value_cfg
    one_elem_root = TrieNode((INLINE << (7 << 1), 7))
    root = TrieNode((COLLECTION << (2 << 1), 2, one_elem_root))
    with pytest.raises(InvariantError, match="holds 1 value"):
        validate_root(cfg, root)


def test_validator_rejects_slot_count_mismatch():
    cfg = map_config()
    root = TrieNode((0, None, None))  # bitmap says empty, slots say 2
    with pytest.raises(InvariantError, match="slot run"):
        validate_root(cfg, root)


def _chain(levels, bottom):
    """The root of ``bottom`` hung ``levels`` levels down branch 0, through
    plain-tuple inner nodes."""
    for _ in range(levels - 1):
        bottom = (NODE, bottom)
    return TrieNode((NODE, bottom))


def _under_root(node):
    """The root of ``node`` hung on branch 0."""
    return TrieNode((NODE, node))


_IDENTITY = multimap_config(key_hash=lambda k: k, value_hash=lambda v: v)

# one malformed structure per reachable validator message: (config, root,
# message); "maximum is 96" cannot fire, since 32 branches of at most
# three slots fill at most 96 slots
MALFORMED = {
    "below-last-level": (
        map_config(key_hash=lambda k: 0),
        _chain(7, (0,)),
        r"below the last hash level \(shift 35\)",
    ),
    "wide-bitmap": (
        map_config(),
        TrieNode((1 << 96,)),
        "wider than its 64 pattern bits and 32 pair bits",
    ),
    "pair-bit-off-collection": (
        _IDENTITY,
        TrieNode((pattern_bits(INLINE, 2) | 1 << 66, 2, "v")),
        "pair bit on a branch whose pattern is not COLLECTION",
    ),
    "nested-set-of-two": (
        _IDENTITY,
        TrieNode((COLLECTION << 4, 2, TrieNode((INLINE << 2 | INLINE << 4, 1, 2)))),
        "collection entry for 2 holds 2 values",
    ),
    "pair-of-equal-values": (
        _IDENTITY,
        TrieNode((pattern_bits(PAIR, 2), 2, 5, 5)),
        "pair entry for 2 holds two equal values",
    ),
    "pair-out-of-order": (
        # value hashes 2 and 1: the nested set of the two iterates 1 first
        _IDENTITY,
        TrieNode((pattern_bits(PAIR, 2), 2, 2, 1)),
        "pair entry for 2 holds its values out of hash order",
    ),
    "collection-at-width-1": (
        set_config(element_hash=lambda e: 0),
        TrieNode((COLLECTION, 0, TrieNode((0,)))),
        "collection entries in a width-1 trie",
    ),
    "empty-non-root": (map_config(), _under_root((0,)), "empty non-root"),
    "wrong-prefix": (
        # both keys' hashes end in fragment 2, but they hang off branch 1
        map_config(key_hash=lambda k: k),
        TrieNode((NODE << 2, (INLINE << 2 | INLINE << 4, 34, "a", 66, "b"))),
        "34 stored under the wrong hash prefix",
    ),
    "bucket-run-mismatch": (
        map_config(key_hash=lambda k: 0),
        _under_root(CollisionNode((0, 2, 0, "a", 1, "b", 2, "c"))),
        "collision slot run does not match",
    ),
    "bucket-of-one": (
        map_config(key_hash=lambda k: 0),
        _under_root(CollisionNode((0, 1, 0, "a", 1))),
        "fewer than two entries",
    ),
    "bucket-off-prefix": (
        map_config(key_hash=lambda k: 1),
        _under_root(CollisionNode((1, 2, 0, "a", 1, "b", 2))),
        "bucket hash disagrees with its path prefix",
    ),
    "bucket-stray-hash": (
        map_config(key_hash=lambda k: 0 if k == "a" else 32),
        _under_root(CollisionNode((0, 2, 0, "a", 1, "b", 2))),
        "'b' does not hash to the bucket hash",
    ),
    "bucket-duplicate-key": (
        map_config(key_hash=lambda k: 0),
        _under_root(CollisionNode((0, 2, 0, "a", 1, "a", 2))),
        "duplicate key 'a' in collision bucket",
    ),
    "root-not-a-trie-node": (
        map_config(key_hash=lambda k: 0),
        CollisionNode((0, 2, 0, "a", 1, "b", 2)),
        "root must be a TrieNode, got CollisionNode",
    ),
    "root-a-plain-tuple": (
        map_config(key_hash=lambda k: k),
        (INLINE << 6, 3, "v"),
        "root must be a TrieNode, got tuple",
    ),
    "nested-root-a-plain-tuple": (
        _IDENTITY,
        TrieNode((COLLECTION << 4, 2, (INLINE << 2 | INLINE << 4 | INLINE << 6, 1, 2, 3))),
        "root must be a TrieNode, got tuple",
    ),
    "inner-node-a-trie-node": (
        map_config(key_hash=lambda k: k),
        _under_root(TrieNode((INLINE << 2 | INLINE << 4, 32, "a", 64, "b"))),
        "trie node below a root must be a plain tuple, got TrieNode",
    ),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_validator_names_each_malformation(case):
    cfg, root, message = MALFORMED[case]
    with pytest.raises(InvariantError, match=message):
        validate_root(cfg, root)


def test_validator_accepts_the_empty_root_and_single_entry_root():
    cfg = map_config(key_hash=lambda k: k)
    assert validate_root(cfg, TrieNode((0,))) == (0, 0)
    assert validate_root(cfg, make_leaf(5, 5, "v")) == (1, 1)


def test_default_hash_folds_to_32_bits():
    for value in (0, 1, "abc", (1, 2), 2**63, -17):
        h = fold_hash(value)
        assert 0 <= h <= 0xFFFFFFFF


class _Hashed:
    """An object whose ``hash()`` is a given int (CPython turns -1 into
    -2)."""

    def __init__(self, h):
        self.h = h

    def __hash__(self):
        return self.h


def test_default_hash_is_the_unsigned_64_bit_fold():
    def unsigned_fold(obj):
        h = hash(obj) & 0xFFFFFFFFFFFFFFFF
        return (h ^ (h >> 32)) & 0xFFFFFFFF

    edges = (0, 1, -1, -2, 2**32 - 1, 2**32 + 1, 2**61 - 1, -(2**63), 2**63 - 1)
    rng = random.Random(150)
    sweep = [rng.getrandbits(64) - 2**63 for _ in range(2000)]
    objects = [_Hashed(h) for h in chain(edges, sweep)] + [*edges, "abc", 2.5, (1, "x")]
    assert {hash(_Hashed(h)) for h in edges} >= {-(2**63), 2**63 - 1, 2**32 + 1}
    for obj in objects:
        assert fold_hash(obj) == unsigned_fold(obj), hash(obj)


def test_config_widths():
    assert set_config().width == 1
    assert map_config().width == 2
    assert map_config().value_cfg is None
    mc = multimap_config()
    assert mc.width == 2
    assert mc.value_cfg.width == 1


# -- node layout: one tuple, its true size, and the rank rule ---------------------


def test_node_size_is_what_the_allocator_gives_it():
    # CPython allocates a heap tuple subtype with one item more than it holds;
    # TrieNode.__sizeof__ counts it, so byte walks agree with tracemalloc
    batch = [None] * 64
    for n in range(1, 66):
        items = (0,) * n
        for i in range(len(batch)):
            batch[i] = None
        # the 64 GC-tracked allocations can start a cyclic collection, which
        # allocates bytes of its own inside the window
        gc.disable()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for i in range(len(batch)):
                batch[i] = TrieNode(items)
            traced = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
            gc.enable()
        assert traced == len(batch) * sys.getsizeof(batch[0]), n
        assert sys.getsizeof(batch[0]) == sys.getsizeof(items) + tuple.__itemsize__, n
    # a plain tuple, an inner trie node, holds no sentinel.  A full collection
    # empties the tuple free lists, so each tuple of the batch is a new block,
    # and tracing starts right before the batch, so nothing else is counted
    for n in range(1, 66):
        items = [0] * n
        for i in range(len(batch)):
            batch[i] = None
        gc.collect()
        gc.disable()
        tracemalloc.start()
        try:
            for i in range(len(batch)):
                batch[i] = tuple(items)
            traced = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
            gc.enable()
        assert traced == len(batch) * sys.getsizeof(batch[0]), n


def test_nodes_compare_and_hash_by_identity():
    # roots and buckets; an inner trie node is a plain tuple
    a = TrieNode((INLINE << 2, "k", "v"))
    b = TrieNode((INLINE << 2, "k", "v"))
    assert a == a and a != b
    assert hash(a) == object.__hash__(a) and len({a, b}) == 2
    head = regions(a, 2)[0]
    assert (a[0], a[head:]) == (INLINE << 2, ("k", "v"))
    assert type(a[head:]) is tuple
    c = CollisionNode((0, 2, 0, "a", 1, "b", 2))
    d = CollisionNode((0, 2, 0, "a", 1, "b", 2))
    assert c == c and c != d
    assert hash(c) == object.__hash__(c) and len({c, d}) == 2
    head = regions(c, 2)[0]
    assert c[head:] == ("a", 1, "b", 2) and type(c[head:]) is tuple


def _groups(bm):
    """Decode a bitmap's 32 branch patterns one branch at a time, branch 0
    first: a COLLECTION group whose pair-plane bit is set reads PAIR."""
    groups = []
    for b in range(32):
        g = (bm >> (b << 1)) & 0b11
        groups.append(PAIR if g == COLLECTION and (bm >> (64 + b)) & 1 else g)
    return groups


def _expected_pos(bm, w, pattern, branch):
    """Index of ``branch``'s entry of ``pattern`` from a per-branch count."""
    groups = _groups(bm)
    n_i, n_p, n_c = (groups.count(p) for p in (INLINE, PAIR, COLLECTION))
    rank = groups[:branch].count(pattern)
    if pattern == INLINE:
        return 1 + w * rank
    if pattern == PAIR:
        return 1 + w * n_i + PAIR_W * rank
    if pattern == COLLECTION:
        return 1 + w * n_i + PAIR_W * n_p + COLL_W * rank
    return 1 + w * n_i + PAIR_W * n_p + COLL_W * n_c + rank


def _reference_counts(bm):
    groups = _groups(bm)
    return tuple(groups.count(p) for p in (INLINE, PAIR, COLLECTION, NODE))


def _random_bitmaps(rng, count):
    """Pattern bitmaps, and for each one the same bitmap with a random
    subset of its COLLECTION branches marked as pairs."""
    fixed = (0, (1 << 64) - 1, 0x5555555555555555, 0xAAAAAAAAAAAAAAAA)
    for bm in chain(fixed, (rng.getrandbits(64) for _ in range(count))):
        yield bm
        colls = [b for b, g in enumerate(_groups(bm)) if g == COLLECTION]
        yield bm | sum(1 << (64 + b) for b in colls if rng.random() < 0.5)


def test_pos_and_region_counts_agree_with_the_reference_rank():
    rng = random.Random(64)
    for bm in _random_bitmaps(rng, 300):
        n_i, n_p, n_c, n_n = _reference_counts(bm)
        for w in (1, 2):
            node = TrieNode((bm,))
            start, end_i, end_p, end = regions(node, w)
            assert start == 1
            assert (end_i - start, end_p - end_i, end - end_p) == (
                w * n_i,
                PAIR_W * n_p,
                COLL_W * n_c,
            )
            n = end + n_n
            for branch in range(32):
                for pattern in (INLINE, PAIR, COLLECTION, NODE):
                    if w == 1 and pattern in (PAIR, COLLECTION):
                        continue
                    want = _expected_pos(bm, w, pattern, branch)
                    assert _pos(bm, w, pattern, branch, n) == want, (hex(bm), w, branch)


def test_lookup_ranks_agree_with_the_reference_rank():
    # a node over a random bitmap with every entry at its reference index:
    # lookup's inlined ranks must find each branch's key and payload, and a
    # sub-node's own one-entry node one level down
    cfg = map_config()
    rng = random.Random(65)
    for bm in _random_bitmaps(rng, 200):
        items = [None] * (_expected_pos(bm, 2, NODE, 32))
        items[0] = bm
        groups = _groups(bm)
        for branch, pattern in enumerate(groups):
            if pattern == EMPTY:
                continue
            pos = _expected_pos(bm, 2, pattern, branch)
            if pattern == NODE:
                items[pos] = TrieNode((INLINE, ("k", branch), ("v", branch)))
            elif pattern == PAIR:
                items[pos : pos + 3] = ("k", branch), ("v", branch), ("w", branch)
            else:
                items[pos : pos + 2] = ("k", branch), ("v", branch)
        node = TrieNode(items)
        for branch, pattern in enumerate(groups):
            found = node.lookup(cfg, 0, branch, ("k", branch))
            if pattern == EMPTY:
                assert found is None
            elif pattern == PAIR:
                assert found == (PAIR, (("v", branch), ("w", branch))), (hex(bm), branch)
                assert type(found[1]) is ValuePair
            else:
                got_pattern = INLINE if pattern == NODE else pattern
                assert found == (got_pattern, ("v", branch)), (hex(bm), branch)
            assert node.lookup(cfg, 0, branch, ("k", -1)) is None


# -- pair entries ---------------------------------------------------------------


def _entry_kinds(mm):
    stats = structure_stats(mm)
    return stats["inline_entries"], stats["pair_entries"], stats["collection_entries"]


@pytest.mark.parametrize("value_hash", [None, lambda v: 0], ids=["values", "colliding"])
@pytest.mark.parametrize("key_hash", [None, lambda k: 0], ids=["trie", "bucket"])
def test_values_move_between_inline_pair_and_nested_set(key_hash, value_hash):
    # a key's one value is inline, two are a pair, three a nested set, in
    # either direction; "j" and "m" share the key's node (or its bucket)
    options = {"key_hash": key_hash, "value_hash": value_hash}
    others = [("j", 0), ("m", 1)]
    mm = multimap(others, **options)
    held = []
    steps = [("put", "a"), ("put", "b"), ("put", "c"), ("remove", "b"),
             ("put", "d"), ("remove", "a"), ("remove", "d"), ("remove", "c")]
    kinds = {0: (2, 0, 0), 1: (3, 0, 0), 2: (2, 1, 0), 3: (2, 0, 1)}
    for op, value in steps:
        if op == "put":
            mm = mm.put("k", value)
            held.append(value)
        else:
            mm = mm.remove("k", value)
            held.remove(value)
        check_invariants(mm)
        assert _entry_kinds(mm) == kinds[len(held)], (op, value)
        fresh = multimap(others + [("k", v) for v in held], **options)
        assert structurally_equal(mm, fresh), (op, value)
        if held:
            assert mm.put_all("k", held[::-1]) is mm
            assert set(mm.get("k")) == set(held)
            assert all(mm.contains_entry("k", v) for v in held)
            assert not mm.contains_entry("k", "z")


def test_pair_values_of_node_like_types_come_back_as_values():
    node = TrieNode((INLINE << 2, "x", "y"))
    bucket = CollisionNode((0, 2, 0, "a", 1, "b", 2))
    pair = ValuePair((1, 2))
    stored = [node, (1, 2), pset([1, 2, 3]), bucket, pair, pset([4, 5])]
    for v0, v1 in zip(stored, stored[1:]):
        mm = multimap([("k", v0), ("k", v1), ("j", 0)])
        check_invariants(mm)
        assert _entry_kinds(mm) == (1, 1, 0)
        got = [v for k, v in mm.items() if k == "k"]
        assert sorted(map(id, got)) == sorted(map(id, (v0, v1)))
        assert sorted(map(id, mm.get("k"))) == sorted(map(id, (v0, v1)))
        assert mm.contains_entry("k", v0) and mm.contains_entry("k", v1)
        three = mm.put("k", "z")
        check_invariants(three)
        assert structurally_equal(three.remove("k", "z"), mm)
        assert structurally_equal(mm.remove("k", v0).put("k", v0), mm)


@pytest.mark.parametrize("key_hash", [None, lambda k: 0], ids=["trie", "bucket"])
def test_a_pair_answers_the_nested_set_lookup_protocol(key_hash):
    # what a node-level reader does with a payload that is not an int:
    # ask it for the value as it would ask a nested set root
    mm = multimap([("k", 1), ("k", 2), ("i", 3), ("n", 4), ("n", 5), ("n", 6)], key_hash=key_hash)
    cfg = mm._cfg
    vcfg = cfg.value_cfg
    for key in ("k", "n"):
        found = mm._root.lookup(cfg, 0, cfg.hasher(key) & M32, key)
        payload = found[1]
        assert type(payload) is not int
        for v in range(8):
            hit = payload.lookup(vcfg, 0, vcfg.hasher(v) & M32, v) is not None
            assert hit == mm.contains_entry(key, v), (key, v)


# -- one update descent ---------------------------------------------------------


@pytest.mark.parametrize("key_hash", [None, lambda k: k % 13], ids=["default", "mod13"])
def test_the_entry_points_are_update_with_a_named_transition(key_hash):
    cfg = multimap_config(key_hash=key_hash)
    rng = random.Random(0xD35C)
    root = EMPTY_ROOT
    for _ in range(3_000):
        op, k, v = rng.randrange(3), rng.randrange(60), rng.randrange(5)
        h = cfg.hasher(k) & M32
        if op == 0:
            entry = root.insert(cfg, 0, h, k, v)
            via_update = root.update(cfg, 0, h, k, v, _add_value)
        else:
            entry = root.delete(cfg, 0, h, k, v, op == 2)
            via_update = root.update(cfg, 0, h, k, v, _drop_key if op == 2 else _drop_value)
        assert entry[1:] == via_update[1:]
        assert (entry[0] is root) == (via_update[0] is root)
        assert entry[0].equals(cfg, via_update[0])
        root = via_update[0]
    validate_root(cfg, root)


# the moving key's branches: both ends of the inline and pattern planes, and
# the two highest pair-plane bits, which make a bitmap of four 30-bit digits
EDGE_BRANCHES = (0, 1, 30, 31)
# the neighbours' branches: the moving key's own is left out
EDGE_NEIGHBOURS = (0, 1, 2, 3, 4, 5, 6, 7, 24, 25, 26, 27, 28, 29, 30, 31)
NEIGHBOUR_KINDS = ("inline", "pair", "collection", "sub-node")


def _edge_content(branch, rotation):
    """Tuples of the neighbours of a key on ``branch``, under the identity
    key hash: a neighbour of each kind on every fourth other branch, the
    kinds shifted by ``rotation``, so that each kind lies next to the
    moving key on some rotation."""
    content = []
    others = [b for b in EDGE_NEIGHBOURS if b != branch]
    for i, b in enumerate(others):
        kind = NEIGHBOUR_KINDS[(i + rotation) % 4]
        if kind == "sub-node":  # two keys of branch b a level down
            content += [(b, 0), (b + 32, 0)]
        else:
            content += [(b, v) for v in range(1 + NEIGHBOUR_KINDS.index(kind))]
    return content


def _edge_moves(key):
    """``(name, values before, step, tuples after)`` for each move of
    ``key``'s entry, a step being a function from the multimap to the
    moved one; a key ``key + 32`` shares its first-level branch."""
    sub = key + 32
    moves = [
        ("1 -> 2", [0], lambda mm: mm.put(key, 1), [0, 1]),
        ("2 -> 3", [0, 1], lambda mm: mm.put(key, 2), [0, 1, 2]),
        ("3 -> 2", [0, 1, 2], lambda mm: mm.remove(key, 1), [0, 2]),
        ("2 -> 1", [0, 1], lambda mm: mm.remove(key, 0), [1]),
        ("put_all 1 -> 3", [0], lambda mm: mm.put_all(key, [4, 5, 6]), [4, 5, 6]),
        ("put_all 3 -> 1", [0, 1, 2], lambda mm: mm.put_all(key, [7]), [7]),
        ("put_all 1 -> 2", [0], lambda mm: mm.put_all(key, [4, 5]), [4, 5]),
        ("put_all 2 -> 1", [0, 1], lambda mm: mm.put_all(key, [7]), [7]),
        ("remove_key", [0, 1], lambda mm: mm.remove_key(key), []),
    ]
    moves = [(name, held, step, [(key, v) for v in after]) for name, held, step, after in moves]
    for n in (1, 2, 3):
        held = list(range(n))
        kept = [(key, v) for v in held]
        # a new key on the branch pushes the entry down with it, and its
        # removal lifts the entry back
        moves.append((f"push down {n}", held, lambda mm: mm.put(sub, 9), kept + [(sub, 9)]))
        moves.append((f"lift {n}", held, lambda mm: mm.put(sub, 9).remove(sub, 9), kept))
    return moves


@pytest.mark.parametrize("rotation", range(4))
@pytest.mark.parametrize("branch", EDGE_BRANCHES)
def test_every_move_at_the_branch_edges_gives_the_built_trie(branch, rotation):
    ident = lambda k: k  # noqa: E731 - key b lies on first-level branch b % 32
    neighbours = _edge_content(branch, rotation)
    for name, held, step, after in _edge_moves(branch):
        before = multimap(neighbours + [(branch, v) for v in held], key_hash=ident)
        moved = step(before)
        check_invariants(moved)
        built = multimap(neighbours + after, key_hash=ident)
        assert structurally_equal(moved, built), name
        assert moved._root[0] == built._root[0], name


_ABSENT = {
    # (stored keys, absent key); keys hash to themselves
    "empty branch": ((1, 2 + 32), 3),
    "another key on the branch": ((5,), 5 + 32),
    "bucket of the same hash": (("A", "B"), "C"),
    "bucket of another hash": (("A", "B"), "D"),
}
_BUCKET_HASHES = {"A": 7, "B": 7, "C": 7, "D": 7 + 32}


@pytest.mark.parametrize("case", list(_ABSENT), ids=list(_ABSENT))
def test_an_absent_key_gives_back_the_receiver_under_both_drops(case):
    stored, absent = _ABSENT[case]
    cfg = multimap_config(key_hash=lambda k: _BUCKET_HASHES.get(k, k))
    root, _, _ = build_root(cfg, [(k, v) for k in stored for v in range(3)])
    h = cfg.hasher(absent) & M32
    for change in (_drop_value, _drop_key):
        new, kd = root.update(cfg, 0, h, absent, 0, change)
        assert new is root and kd == 0, change.__name__


@pytest.mark.parametrize("n_values", [1, 2, 3], ids=["inline", "pair", "collection"])
def test_a_bucket_joined_by_a_new_hash_matches_the_bulk_build(n_values):
    # C shares the bucket's first two hash fragments (7, then 3) and
    # leaves it at the third: the bucket and C part two levels down
    table = {"A": 7 | 3 << 5, "B": 7 | 3 << 5, "C": 7 | 3 << 5 | 1 << 10}
    cfg = multimap_config(key_hash=table.__getitem__)
    entries = [("A", 1), ("B", 1), ("B", 2)]
    root, _, _ = build_root(cfg, entries)
    values = list(range(n_values))
    nested, _, _ = build_root(cfg.value_cfg, values)
    joined, kd = root.update(cfg, 0, table["C"], "C", ("C", nested), put_values)
    direct, _, _ = build_root(cfg, entries + [("C", v) for v in values])
    assert kd == 1
    assert validate_root(cfg, joined) == validate_root(cfg, direct)
    assert joined.equals(cfg, direct)


def _seven(obj):
    return 7


def _bucket_of(root):
    """The collision bucket that a root of one constant hash hangs."""
    assert type(root) is TrieNode and root[0] == NODE << (7 << 1)
    (bucket,) = root[1:]
    assert type(bucket) is CollisionNode and bucket[0] == 7
    return bucket


def test_bulk_build_orders_each_bucket_region_by_first_appearance():
    # a set and a map: one inline region, later duplicates keep their place
    s_root, n, _ = build_root(set_config(_seven), ["b", "a", "b", "c", "a"])
    s = _bucket_of(s_root)
    assert (s[1], s[2], s[regions(s, 1)[0] :], n) == (3, 0, ("b", "a", "c"), 3)
    pairs = [("b", 1), ("a", 2), ("b", 3), ("c", 4), ("a", 2)]
    m_root, n, _ = build_root(map_config(_seven), pairs)
    m = _bucket_of(m_root)
    assert (m[1], m[2], m[regions(m, 2)[0] :], n) == (3, 0, ("b", 3, "a", 2, "c", 4), 3)
    # a multimap whose values hash alike too: equal-hash pairs keep their
    # input order; d gets its second value before b does, and a and e stay
    # inline although a repeats its value
    entries = [
        ("b", 2), ("a", 1), ("c", 3), ("d", 5), ("d", 6), ("c", 1), ("b", 1),
        ("a", 1), ("c", 3), ("e", 9), ("b", 2), ("c", 4), ("c", 2), ("d", 5),
    ]
    cfg = multimap_config(_seven, _seven)
    root, tuples, keys = build_root(cfg, entries)
    bucket = _bucket_of(root)
    nested = bucket[-1]
    assert (bucket[1], bucket[2]) == (2, 2)
    assert bucket[regions(bucket, 2)[0] :] == ("a", 1, "e", 9, "b", 2, 1, "d", 5, 6, "c", nested)
    values = _bucket_of(nested)
    assert (values[1], values[2], values[regions(values, 1)[0] :]) == (4, 0, (3, 1, 4, 2))
    assert (tuples, keys) == (10, 5)
    validate_root(cfg, root)


def _shown(cfg, slots):
    """``slots`` with each nested root read as the sorted list of its values."""
    return tuple(
        sorted(iter_keys(cfg.value_cfg, s)) if type(s) is TrieNode else s for s in slots
    )


def _bucket_layout(structure):
    """``(inline_n, pair_n, slots)`` of the bucket under a constant-hash
    structure's root, each nested root read as the sorted list of its
    values."""
    bucket = _bucket_of(structure._root)
    slots = bucket[regions(bucket, structure._cfg.width)[0] :]
    return bucket[1], bucket[2], _shown(structure._cfg, slots)


def test_bucket_updates_keep_each_entry_in_place_or_close_its_region():
    # a set: a new element closes the inline region, a removal closes the gap
    s = pset(element_hash=_seven).add("a").add("b").add("c")
    assert _bucket_layout(s) == (3, 0, ("a", "b", "c"))
    assert _bucket_layout(s.add("d")) == (4, 0, ("a", "b", "c", "d"))
    assert _bucket_layout(s.remove("b")) == (2, 0, ("a", "c"))
    # a map: a replaced value keeps its entry's place
    m = pmap(key_hash=_seven).put("a", 1).put("b", 2).put("c", 3)
    assert _bucket_layout(m.put("b", 9)) == (3, 0, ("a", 1, "b", 9, "c", 3))
    assert _bucket_layout(m.put("d", 4)) == (4, 0, ("a", 1, "b", 2, "c", 3, "d", 4))
    assert _bucket_layout(m.remove("b")) == (2, 0, ("a", 1, "c", 3))
    # a multimap: an entry that changes its pattern closes its new region
    mm = multimap(key_hash=_seven)
    for key, value in [("a", 1), ("b", 2), ("c", 3), ("x", 1), ("x", 2)]:
        mm = mm.put(key, value)
    assert _bucket_layout(mm) == (3, 1, ("a", 1, "b", 2, "c", 3, "x", 1, 2))
    mm = mm.put("b", 5)  # inline -> pair, after x's pair
    assert _bucket_layout(mm) == (2, 2, ("a", 1, "c", 3, "x", 1, 2, "b", 2, 5))
    mm = mm.put("x", 3).put("y", 7).put("y", 8).put("y", 9)
    assert _bucket_layout(mm) == (
        2, 1, ("a", 1, "c", 3, "b", 2, 5, "x", [1, 2, 3], "y", [7, 8, 9])
    )
    mm = mm.put("b", 6)  # pair -> collection, after x's and y's
    assert _bucket_layout(mm) == (
        2, 0, ("a", 1, "c", 3, "x", [1, 2, 3], "y", [7, 8, 9], "b", [2, 5, 6])
    )
    mm = mm.put("y", 4).put("c", 3)  # a nested insert in the middle; no change
    assert _bucket_layout(mm) == (
        2, 0, ("a", 1, "c", 3, "x", [1, 2, 3], "y", [4, 7, 8, 9], "b", [2, 5, 6])
    )
    mm = mm.remove("x", 3)  # collection -> pair, into the empty pair region
    assert _bucket_layout(mm) == (
        2, 1, ("a", 1, "c", 3, "x", 1, 2, "y", [4, 7, 8, 9], "b", [2, 5, 6])
    )
    mm = mm.remove("x", 1)  # pair -> inline, after a and c
    assert _bucket_layout(mm) == (
        3, 0, ("a", 1, "c", 3, "x", 2, "y", [4, 7, 8, 9], "b", [2, 5, 6])
    )
    mm = mm.put("d", 1)  # a new key closes the inline region
    assert _bucket_layout(mm) == (
        4, 0, ("a", 1, "c", 3, "x", 2, "d", 1, "y", [4, 7, 8, 9], "b", [2, 5, 6])
    )
    mm = mm.remove_key("c").remove_key("y")  # removals from the middle
    assert _bucket_layout(mm) == (3, 0, ("a", 1, "x", 2, "d", 1, "b", [2, 5, 6]))
    check_invariants(mm)


def _entry_list(bucket, w):
    """``[(pattern, slots)]`` of a bucket's entries, region by region."""
    start, end_i, end_p, end = regions(bucket, w)
    entries = []
    for pattern, first, last, size in (
        (INLINE, start, end_i, w),
        (PAIR, end_i, end_p, PAIR_W),
        (COLLECTION, end_p, end, COLL_W),
    ):
        entries += [(pattern, bucket[pos : pos + size]) for pos in range(first, last, size)]
    return entries


def _laid_out(key_hash, entries):
    """The bucket tuple of ``entries``, each region in the order given."""
    regions = {INLINE: [], PAIR: [], COLLECTION: []}
    for p, slots in entries:
        regions[p].append(slots)
    head = (key_hash, len(regions[INLINE]), len(regions[PAIR]))
    return head + tuple(chain(*regions[INLINE], *regions[PAIR], *regions[COLLECTION]))


def _rebuilt(cfg, bucket, key, value, change):
    """Reference bucket update: the entry list edited and laid out again.

    An entry that keeps its pattern keeps its index, a dropped one is
    deleted, and a new key or an entry that changes its pattern is
    appended, so it closes its region.  Returns ``(pattern, new_pattern,
    first_in_region, entries, laid_out)``, or None when nothing changes.
    """
    w = cfg.width
    entries = _entry_list(bucket, w)
    for i, (pattern, slots) in enumerate(entries):
        if slots[0] is key or slots[0] == key:
            break
    else:
        added = change(cfg, EMPTY, key, None, value)
        if added is None:
            return None
        entries.append(added)
        return EMPTY, added[0], False, entries, _laid_out(bucket[0], entries)
    payload = slots[1:] if pattern == PAIR else slots[w - 1]
    changed = change(cfg, pattern, slots[0], payload, value)
    if changed is None:
        return None
    first = i == 0 or entries[i - 1][0] != pattern
    p = changed[0]
    if p == pattern:
        entries[i] = changed
    else:
        del entries[i]
        if p != EMPTY:
            entries.append(changed)
    return pattern, p, first, entries, _laid_out(bucket[0], entries)


def _random_bucket_op(rng, structure):
    """``(new structure, key, value, change)`` of one random update."""
    key = rng.randrange(7)
    value = rng.randrange(5)
    if type(structure) is PersistentSet:
        if rng.random() < 0.6:
            return structure.add(key), key, None, _add_value
        return structure.discard(key), key, None, _drop_key
    if type(structure) is PersistentMap:
        if rng.random() < 0.6:
            return structure.put(key, value), key, value, _add_value
        return structure.remove(key), key, None, _drop_key
    r = rng.random()
    if r < 0.45:
        return structure.put(key, value), key, value, _add_value
    if r < 0.75:
        return structure.remove(key, value), key, value, _drop_value
    if r < 0.82:
        return structure.remove_key(key), key, None, _drop_key
    values = rng.sample(range(5), rng.randrange(1, 5))
    root = build_root(structure._cfg.value_cfg, values)[0]
    return structure.put_all(key, values), key, (key, root), put_values


_ALL_BUCKET_MOVES = {
    (old, new)
    for old in (EMPTY, INLINE, PAIR, COLLECTION)
    for new in (EMPTY, INLINE, PAIR, COLLECTION)
    if old != EMPTY or new != EMPTY
}


@pytest.mark.parametrize(
    "empty, moves",
    [
        (pset(element_hash=_seven), {(EMPTY, INLINE), (INLINE, EMPTY)}),
        (pmap(key_hash=_seven), {(EMPTY, INLINE), (INLINE, INLINE), (INLINE, EMPTY)}),
        (multimap(key_hash=_seven), _ALL_BUCKET_MOVES),
    ],
    ids=["set", "map", "multimap"],
)
def test_bucket_updates_match_the_entry_list_rebuild(empty, moves):
    # every update of a bucket gives, slot for slot, the bucket that
    # editing its entry list and laying the regions out again gives
    rng = random.Random(26)
    cfg = empty._cfg
    size = len if type(empty) is not PersistentMultiMap else lambda mm: mm.key_count
    structure = empty
    seen = set()
    first_collection_demoted = False
    for _ in range(3000):
        new, key, value, change = _random_bucket_op(rng, structure)
        root = structure._root
        if len(root) == 2 and type(root[1]) is CollisionNode:
            expected = _rebuilt(cfg, root[1], key, value, change)
            if expected is None:
                assert new is structure
            else:
                pattern, p, first, entries, laid_out = expected
                seen.add((pattern, p))
                if (pattern, p) == (COLLECTION, PAIR) and first:
                    first_collection_demoted = True
                if len(entries) == 1:  # the parent lifts the one entry left
                    assert _shown(cfg, new._root[1:]) == _shown(cfg, laid_out[3:])
                else:
                    bucket = _bucket_of(new._root)
                    assert bucket[:3] == laid_out[:3]
                    assert _shown(cfg, bucket[3:]) == _shown(cfg, laid_out[3:])
                assert size(new) - size(structure) == (pattern == EMPTY) - (p == EMPTY)
        structure = new
    check_invariants(structure)
    assert seen == moves
    assert first_collection_demoted or type(empty) is not PersistentMultiMap


def test_a_key_on_a_buckets_path_with_another_hash_is_absent():
    # D's hash shares the bucket's first fragment, 7, and no more: the
    # descent reaches the bucket and stops at its hash
    mm = multimap([("A", 1), ("B", 2), ("B", 3)], key_hash=_BUCKET_HASHES.__getitem__)
    cfg = mm._cfg
    assert type(mm._root[1]) is CollisionNode
    assert mm._root.lookup(cfg, 0, _BUCKET_HASHES["D"], "D") is None
    assert not mm.contains_key("D")
    assert not mm.contains_entry("D", 1)
    assert len(mm.get("D")) == 0
    assert mm.contains_key("A") and mm.contains_entry("B", 3)


_PATTERNS = {"inline": [1], "pair": [1, 2], "collection": [1, 2, 3]}


def _bucket_with(**values):
    """The bucket of a multimap whose keys all hash to 7, a key per
    keyword holding that keyword's values."""
    entries = [(k, v) for k, vs in values.items() for v in vs]
    mm = multimap(entries, key_hash=_seven)
    return mm._cfg, _bucket_of(mm._root)


@pytest.mark.parametrize("pattern", list(_PATTERNS), ids=list(_PATTERNS))
def test_bucket_equality_compares_each_payload(pattern):
    values = _PATTERNS[pattern]
    cfg, a = _bucket_with(A=values, B=[7])
    _, b = _bucket_with(A=values[:-1] + [9], B=[7])
    assert a[:3] == b[:3] and len(a) == len(b)
    assert not a.equals(cfg, b) and not b.equals(cfg, a)


@pytest.mark.parametrize(
    "first, second",
    [("inline", "pair"), ("inline", "collection"), ("pair", "collection")],
)
def test_bucket_equality_compares_each_keys_pattern(first, second):
    # the same region sizes, with A and B in each other's regions
    one, two = _PATTERNS[first], _PATTERNS[second]
    cfg, a = _bucket_with(A=one, B=two)
    _, b = _bucket_with(A=two, B=one)
    assert a[:3] == b[:3] and len(a) == len(b)
    assert not a.equals(cfg, b) and not b.equals(cfg, a)


def test_a_set_element_that_is_a_collision_node_is_stored_inline():
    # the build tells a bucket from an element by its hash having one
    elements = [CollisionNode((7, 2, 0, "x", "y")), CollisionNode((9, 2, 0, "z", "w")), 3]
    cfg = set_config()
    root, n, _ = build_root(cfg, elements)
    assert n == 3 and validate_root(cfg, root) == (3, 3)
    assert {id(e) for e in iter_keys(cfg, root)} == {id(e) for e in elements}
