"""Public API semantics of the set, map, multimap, and multimap values."""

import copy
import os
import pickle
import random
import subprocess
import sys
from collections import namedtuple
from collections.abc import Mapping, Set

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

import leantrie
from leantrie import (
    PersistentMap,
    PersistentMultiMap,
    PersistentSet,
    check_invariants,
    multimap,
    pmap,
    pset,
    structure_stats,
)
from leantrie.nodes import COLL_W, CollisionNode, InvariantError, TrieNode, walk


def _colliding_hash(key):
    """Every key in one collision bucket; module-level so it pickles.  The
    key's own ``__hash__`` still runs first, as in any real hasher."""
    hash(key)
    return 7


# -- PersistentSet ----------------------------------------------------------------


def test_set_basics():
    s = pset([3, 1, 2])
    assert isinstance(s, Set)
    assert len(s) == 3
    assert 1 in s and 4 not in s
    assert sorted(s) == [1, 2, 3]
    assert s == {1, 2, 3}
    assert s == frozenset([1, 2, 3])
    assert s != {1, 2}
    assert pset() == set()


def test_set_updates_share_and_preserve_originals():
    a = pset([1, 2])
    b = a.add(3)
    c = b.discard(1)
    assert sorted(a) == [1, 2]
    assert sorted(b) == [1, 2, 3]
    assert sorted(c) == [2, 3]
    with pytest.raises(KeyError):
        a.remove(99)
    assert a.remove(2) == {1}


def test_set_operators_build_persistent_sets():
    a = pset([1, 2, 3])
    b = pset([3, 4])
    union = a | b
    inter = a & b
    diff = a - b
    sym = a ^ b
    for result in (union, inter, diff, sym):
        assert isinstance(result, PersistentSet)
        check_invariants(result)
    assert union == {1, 2, 3, 4}
    assert inter == {3}
    assert diff == {1, 2}
    assert sym == {1, 2, 4}
    assert a <= union and inter <= a and not (a < a)
    assert a.isdisjoint(pset([9]))


def test_set_operator_results_keep_the_custom_hasher():
    def h(x):
        return x % 4

    a = pset([1, 2, 3], element_hash=h)
    b = pset([3, 9], element_hash=h)
    union = a | b
    assert union._cfg.hasher is h
    check_invariants(union)
    assert union == {1, 2, 3, 9}


def _mod7_hash(obj):
    return hash(obj) % 7


def _low10_hash(obj):
    return hash(obj) & 0x3FF


def _bits_0x21_hash(obj):
    # four hashes that part on two levels: buckets under a chain of nodes
    return hash(obj) & 0x21


_AND_HASHERS = [None, lambda x: 0, _mod7_hash, _low10_hash, _bits_0x21_hash]
_AND_IDS = ["default", "constant", "mod7", "low10", "0x21"]
# equal objects of several types (1, True, 1.0), so the kept one shows
_and_elements = st.one_of(
    st.integers(0, 3000), st.sampled_from([True, False, 1.0, 0.0])
)
_and_edits = st.lists(st.tuples(st.booleans(), _and_elements), max_size=25)


def _edited(s, edits):
    for add, e in edits:
        s = s.add(e) if add else s.discard(e)
    return s


@pytest.mark.parametrize("hasher", _AND_HASHERS, ids=_AND_IDS)
@settings(max_examples=60, deadline=None)
@given(
    base=st.lists(_and_elements, max_size=80),
    edits_a=_and_edits,
    edits_b=_and_edits,
    fresh_b=st.booleans(),
)
def test_set_intersection_matches_a_fresh_build(hasher, base, edits_a, edits_b, fresh_b):
    # both operands derive from one ancestor, so they share subtrees,
    # unless b is rebuilt from its elements
    ancestor = pset(base, element_hash=hasher)
    a = _edited(ancestor, edits_a)
    b = _edited(ancestor, edits_b)
    if fresh_b:
        b = pset(list(b), element_hash=hasher)
    got = a & b
    want = pset(set(a) & set(b), element_hash=hasher)
    check_invariants(got)
    assert got._root.equals(got._cfg, want._root)
    assert got is a or got._size is None  # a new result counts on first len
    assert len(got) == len(want)
    assert got._cfg is a._cfg
    kept_types = {e: type(e) for e in a}  # equal elements come from a
    assert all(type(e) is kept_types[e] for e in got)
    if set(a) <= set(b):
        assert got is a


def test_set_intersection_returns_the_left_operand_when_it_is_a_subset():
    a = pset(range(0, 300, 3))
    assert a & a is a
    assert a & pset(range(-10, 400)) is a
    assert a & a.add(1000) is a
    smaller = a.discard(3)
    assert smaller & a is smaller
    assert a & smaller == smaller and a & smaller is not a


def test_set_intersection_keeps_the_left_operands_untouched_subtrees():
    # ints hash to themselves: every root branch holds a sub-node, and b
    # lacks one element of branch 1 only; b shares no node with a
    a = pset(range(2000))
    b = pset(x for x in range(-50, 2500) if x != 1)
    got = a & b
    assert got == set(range(2000)) - {1}
    kept = [mine is theirs for mine, theirs in zip(got._root[1:], a._root[1:])]
    assert len(kept) == 32
    assert kept == [True] + [False] + [True] * 30


def test_set_intersection_with_empty_operands():
    a = pset(range(40))
    empty = pset()
    assert a & empty == set() and empty & a == set()
    assert empty & a is empty
    assert (empty & empty) is empty
    assert a & pset([99]) == set()
    for result in (a & empty, empty & a, a & pset([99])):
        check_invariants(result)
        assert len(result) == 0 and not result


def test_set_intersection_of_buckets_with_no_common_element_is_empty():
    constant = {"element_hash": lambda x: 0}
    got = pset([1, 2], **constant) & pset([3, 4], **constant)
    check_invariants(got)
    assert len(got) == 0 and not got
    assert got._root.equals(got._cfg, pset()._root)


def test_set_intersection_with_a_foreign_operand_builds_from_its_content():
    a = pset(range(20))
    other_hasher = pset(range(10, 30), element_hash=_mod7_hash)
    for other in (other_hasher, set(range(10, 30)), frozenset(range(10, 30))):
        for result in (a & other, other & a):
            assert result == set(range(10, 20))
            check_invariants(result)
        assert isinstance(a & other, PersistentSet)
        assert (a & other)._cfg.hasher is a._cfg.hasher
    assert isinstance(set(range(10, 30)) & a, PersistentSet)
    assert a & [3, 4, 99] == {3, 4}


def test_only_foreign_operands_reach_the_rebuilding_mixin(monkeypatch):
    built = []
    original = PersistentSet._from_iterable

    def recording(self, iterable):
        built.append(self)
        return original(self, iterable)

    monkeypatch.setattr(PersistentSet, "_from_iterable", recording)
    a = pset(range(0, 100, 2))
    pset(range(0, 100, 3)) & a
    a & pset(range(50), element_hash=_low10_hash)  # another hasher
    assert len(built) == 1
    a & {1, 2}
    assert len(built) == 2


def test_set_hash_is_order_independent_and_consistent_with_eq():
    a = pset([1, 2, 3])
    b = pset([3, 2, 1])
    assert a == b
    assert hash(a) == hash(b)
    assert hash(pset()) == hash(pset())


def test_set_lazy_size_from_view_roots():
    mm = multimap([("k", v) for v in range(5)])
    view = mm.get("k")
    assert isinstance(view, PersistentSet)
    assert view._size is None
    assert len(view) == 5
    assert view._size == 5


@pytest.mark.parametrize("key_hash", [None, _colliding_hash], ids=["trie", "bucket"])
def test_set_truthiness_counts_nothing(key_hash):
    mm = multimap([("a", 1), ("k", 1), ("k", 2), ("k", 3)], key_hash=key_hash)
    assert not mm.get("absent")
    assert mm.get("a")
    view = mm.get("k")
    assert view
    assert view._size is None  # bool() did not walk the nested set
    assert not view.discard(1).discard(2).discard(3)
    assert not pset() and pset([0])


def test_set_repr():
    assert repr(pset()) == "pset({})"
    assert repr(pset([7])) == "pset({7})"


# -- PersistentMap ----------------------------------------------------------------


def test_map_basics():
    m = pmap({"a": 1, "b": 2})
    assert isinstance(m, Mapping)
    assert m["a"] == 1
    assert m.get("zzz") is None
    assert m.get("zzz", 0) == 0
    assert "b" in m and "c" not in m
    assert len(m) == 2
    assert sorted(m.keys()) == ["a", "b"]
    assert sorted(m.values()) == [1, 2]
    assert dict(m.items()) == {"a": 1, "b": 2}
    with pytest.raises(KeyError):
        m["nope"]


def test_map_put_replaces_on_key_equality():
    m = pmap([("k", 1)])
    m2 = m.put("k", 2)
    assert m["k"] == 1
    assert m2["k"] == 2
    assert len(m2) == 1
    assert m2.put("k", 2) is m2


def test_map_remove():
    m = pmap({"a": 1, "b": 2})
    m2 = m.remove("a")
    assert "a" not in m2 and "a" in m
    assert len(m2) == 1
    assert m.remove("zzz") is m


def test_map_accepts_pairs_and_mappings_and_replays_duplicates():
    assert pmap([("x", 1), ("x", 2)]) == pmap({"x": 2})
    assert pmap() == {}


def test_map_equality_against_dict_and_other_maps():
    m = pmap({"a": 1, "b": 2})
    assert m == {"a": 1, "b": 2}
    assert m != {"a": 1}
    assert m != {"a": 1, "b": 3}
    assert m == pmap([("b", 2), ("a", 1)])
    assert m != pmap({"a": 1})
    assert (m == 5) is False
    assert m != 5
    # maps of unhashable keys under other hashers compare by lookup, where
    # Mapping.__eq__ would build a dict of the keys and raise TypeError
    lists = pmap([([1], 1), ([2, 3], 2)], key_hash=len)
    assert lists == pmap([([2, 3], 2), ([1], 1)], key_hash=sum)
    assert lists != pmap([([2, 3], 3), ([1], 1)], key_hash=sum)


def test_map_is_unhashable():
    with pytest.raises(TypeError):
        hash(pmap())


def test_map_repr_roundtrips_contents():
    m = pmap([(1, "x")])
    assert repr(m) == "pmap({1: 'x'})"


# -- PersistentMultiMap -------------------------------------------------------------


def test_multimap_put_get_and_counts():
    mm = multimap()
    assert len(mm) == 0 and not mm
    mm = mm.put("a", 1)
    mm = mm.put("a", 2)
    mm = mm.put("b", 3)
    assert mm.tuple_count == 3
    assert mm.key_count == 2
    assert len(mm) == 3
    assert set(mm.get("a")) == {1, 2}
    assert set(mm.get("b")) == {3}
    assert set(mm.get("zzz")) == set()
    assert bool(mm)


def test_multimap_duplicate_pairs_collapse():
    mm = multimap([("k", 1), ("k", 1), ("k", 1)])
    assert mm.tuple_count == 1
    assert mm.key_count == 1


def test_multimap_remove_semantics():
    mm = multimap([("a", 1), ("a", 2), ("b", 3)])
    m1 = mm.remove("a", 1)
    assert set(m1.get("a")) == {2}
    assert m1.tuple_count == 2 and m1.key_count == 2
    m2 = m1.remove("a", 2)
    assert not m2.contains_key("a")
    assert m2.key_count == 1
    assert mm.remove("a", 99) is mm
    assert mm.remove("zzz", 1) is mm


def test_multimap_remove_key_drops_all_values():
    mm = multimap([("a", 1), ("a", 2), ("a", 3), ("b", 1)])
    m1 = mm.remove_key("a")
    assert m1.tuple_count == 1 and m1.key_count == 1
    assert not m1.contains_key("a")
    assert mm.remove_key("zzz") is mm


def test_multimap_contains_queries():
    mm = multimap([("a", 1), ("a", 2), ("b", 3)])
    assert mm.contains_key("a") and "a" in mm
    assert not mm.contains_key("zzz")
    assert mm.contains_entry("a", 1)
    assert mm.contains_entry("b", 3)
    assert not mm.contains_entry("a", 3)
    assert not mm.contains_entry("zzz", 1)


def test_multimap_iteration():
    pairs = [("a", 1), ("a", 2), ("b", 3)]
    mm = multimap(pairs)
    assert sorted(mm.items()) == sorted(pairs)
    assert sorted(mm.keys()) == ["a", "b"]
    assert sorted(mm) == ["a", "b"]


def test_multimap_from_mapping():
    mm = multimap({"a": 1, "b": 2})
    assert mm.tuple_count == 2
    assert set(mm.get("a")) == {1}


@pytest.mark.parametrize("key", [lambda i: i, lambda i: (i, -i)], ids=["int", "2-tuple"])
def test_multimap_from_a_multimap_copies_its_tuples(key):
    # keys with one value (inline), two (a pair) and three (a nested set)
    pairs = [(key(k), v) for k in range(30) for v in range(k % 3 + 1)]
    mm = multimap(pairs)
    copied = multimap(mm)
    check_invariants(copied)
    assert copied == mm
    assert sorted(copied.items()) == sorted(pairs)
    assert (copied.tuple_count, copied.key_count) == (mm.tuple_count, mm.key_count)


def test_multimap_equality():
    a = multimap([("a", 1), ("a", 2), ("b", 3)])
    b = multimap([("b", 3), ("a", 2), ("a", 1)])
    assert a == b
    assert not (a != b)
    assert a != multimap([("a", 1), ("b", 3)])
    assert a != multimap([("a", 1), ("a", 9), ("b", 3)])
    assert (a == 5) is False


def test_multimap_equality_falls_back_on_contents_across_hashers():
    pairs = [(k, v) for k in range(20) for v in range(2)]
    a = multimap(pairs)
    b = multimap(pairs, key_hash=lambda k: hash(k) % 7)
    assert a == b
    assert b == a
    c = b.remove(3, 1)
    assert a != c


def test_multimap_is_unhashable():
    with pytest.raises(TypeError):
        hash(multimap())


def test_multimap_repr():
    mm = multimap([("a", 1)])
    assert repr(mm) == "multimap([('a', 1)])"


# -- value sets from get --------------------------------------------------------------


def test_absent_key_is_an_empty_set():
    view = multimap().get("nope")
    assert isinstance(view, Set)
    assert len(view) == 0
    assert list(view) == []
    assert 1 not in view
    assert view == set()
    assert repr(view) == "pset({})"


def test_single_value_is_built_from_the_inline_slot():
    mm = multimap([("k", 41)])
    view = mm.get("k")
    assert isinstance(view, Set)
    assert len(view) == 1
    assert 41 in view and 40 not in view
    assert list(view) == [41]
    assert view == {41}
    assert repr(view) == "pset({41})"


@pytest.mark.parametrize("value_hash", [None, _colliding_hash], ids=["values", "colliding"])
@pytest.mark.parametrize("key_hash", [None, _colliding_hash], ids=["trie", "bucket"])
def test_get_is_a_persistent_set_for_every_kind_of_entry(key_hash, value_hash):
    # "a" and "c" are inline entries, "b" a pair, "e" a collection entry,
    # "z" absent
    mm = multimap(
        [("a", 0), ("b", 0), ("b", 1), ("c", 2), ("e", 0), ("e", 1), ("e", 3)],
        key_hash=key_hash,
        value_hash=value_hash,
    )
    before = list(mm.items())
    for key, values in [("z", []), ("a", [0]), ("b", [0, 1]), ("e", [0, 1, 3])]:
        got = mm.get(key)
        assert type(got) is PersistentSet
        want = pset(values, element_hash=value_hash)
        assert got._root.equals(got._cfg, want._root)
        check_invariants(got)
        grown, shrunk = got.add(7), got.discard(0)
        assert set(grown) == {*values, 7} and set(shrunk) == set(values) - {0}
        check_invariants(grown)
        check_invariants(shrunk)
        assert list(mm.items()) == before
        assert (mm.tuple_count, mm.key_count) == (7, 4)
        check_invariants(mm)


def test_multi_value_view_is_a_persistent_set_sharing_nodes():
    mm = multimap([("k", 1), ("k", 2), ("k", 3)])
    view = mm.get("k")
    assert isinstance(view, PersistentSet)
    assert view == {1, 2, 3}
    check_invariants(view)


def test_view_set_operations_produce_persistent_sets():
    mm = multimap([("a", 1), ("b", 1), ("b", 2)])
    empty = mm.get("zzz")
    single = mm.get("a")
    multi = mm.get("b")
    assert isinstance(single | multi, PersistentSet)
    assert single | multi == {1, 2}
    assert isinstance(empty | single, PersistentSet)
    assert empty | single == {1}
    assert single <= multi
    assert multi & {2} == {2}
    assert isinstance(multi - single, PersistentSet)
    assert multi - single == {2}


def test_views_are_snapshots_of_an_immutable_structure():
    mm = multimap([("k", 1)])
    view = mm.get("k")
    mm2 = mm.put("k", 2)
    assert set(view) == {1}
    assert set(mm2.get("k")) == {1, 2}
    assert set(mm.get("k")) == {1}


# -- pluggable hashing -----------------------------------------------------------------


def test_custom_key_and_value_hashers_are_used():
    key_calls = []
    value_calls = []

    def kh(k):
        key_calls.append(k)
        return hash(k)

    def vh(v):
        value_calls.append(v)
        return hash(v)

    mm = multimap(key_hash=kh, value_hash=vh)
    mm = mm.put("k", 1).put("k", 2)  # a pair's values are ordered by hash
    assert key_calls and value_calls
    assert set(mm.get("k")) == {1, 2}


def test_wide_hashes_are_folded_to_32_bits():
    mm = multimap([(k, 0) for k in range(50)], key_hash=lambda k: k << 40 | k)
    check_invariants(mm)
    assert mm.key_count == 50
    assert all(mm.contains_entry(k, 0) for k in range(50))


def test_structure_stats_on_pure_one_to_one_data():
    mm = multimap([(k, k) for k in range(200)])
    stats = structure_stats(mm)
    assert stats["collection_entries"] == 0
    assert stats["nested_set_nodes"] == 0
    assert stats["inline_entries"] == 200


def test_check_invariants_returns_structure_and_rejects_others():
    mm = multimap([("a", 1)])
    assert check_invariants(mm) is mm
    with pytest.raises(TypeError):
        check_invariants({"a": 1})


def test_check_invariants_detects_corrupted_counts():
    mm = multimap([("a", 1), ("b", 2)])
    s = pset(["a", "b"])
    m = pmap([("a", 1), ("b", 2)])
    cases = [
        (PersistentMultiMap(mm._cfg, mm._root, 99, mm._keys), "cached counts"),
        (PersistentSet(s._cfg, s._root, 99), r"cached size 99 != recounted 2$"),
        (PersistentMap(m._cfg, m._root, 99), r"cached size 99 != recounted \(2, 2\)"),
    ]
    for broken, message in cases:
        with pytest.raises(InvariantError, match=message):
            check_invariants(broken)


def test_the_tuple_count_is_counted_once_after_a_whole_set_rewrite():
    mm = multimap([(0, v) for v in range(5)] + [(1, 1)])
    assert mm._tuples == 6  # a build counts for free
    rewritten = mm.put_all(2, range(4))
    assert rewritten._tuples is None
    check_invariants(rewritten)  # an uncached count is not checked
    assert rewritten == multimap(list(rewritten.items()))
    assert rewritten._tuples is None  # == compares key counts, then roots
    # point updates leave an uncached count uncached until it is read
    pointed = rewritten.put(3, 0).remove(0, 0)
    assert pointed._tuples is None
    assert len(pointed) == 10 and pointed._tuples == 10
    # after the read, they carry it exactly
    later = pointed.put(3, 1).remove(1, 1).put(3, 1)
    assert later._tuples == 10
    check_invariants(later)
    assert later.remove_key(3)._tuples is None
    emptied = multimap([(0, 1)]).put_all(0, [1, 2, 3]).remove_key(0)
    assert not emptied and emptied._tuples is None  # bool reads the key count
    assert emptied.tuple_count == 0


# -- randomized cross-checks ------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    pairs=st.lists(
        st.tuples(st.integers(0, 30), st.integers(0, 5)), max_size=100
    )
)
def test_multimap_matches_grouping_by_hand(pairs):
    mm = multimap(pairs)
    expected = {}
    for k, v in pairs:
        expected.setdefault(k, set()).add(v)
    assert {k: set(mm.get(k)) for k in mm.keys()} == expected
    assert mm.tuple_count == sum(len(s) for s in expected.values())
    assert mm.key_count == len(expected)


@settings(max_examples=40, deadline=None)
@given(elements=st.lists(st.integers(-50, 50), max_size=120))
def test_pset_matches_builtin_set(elements):
    s = pset(elements)
    assert s == set(elements)
    assert len(s) == len(set(elements))


def _constant_hash(obj):
    return 0


# equal-but-distinct objects (1, True, 1.0 and 0, False, 0.0) next to
# plain ones, so the kept object shows in its type
_mixed_objects = st.one_of(
    st.integers(-40, 40), st.sampled_from([True, False, 1.0, 0.0, -1.0])
)


def _kept_objects(pairs):
    """Each distinct pair mapped to the types of the objects it holds."""
    return {pair: tuple(map(type, pair)) for pair in pairs}


@pytest.mark.parametrize(
    "hasher",
    [None, _colliding_hash, _constant_hash, lambda x: hash(x) % 13, lambda x: hash(x) % 7],
    ids=["default", "colliding", "constant", "mod13", "mod7"],
)
@settings(max_examples=40, deadline=None)
@given(pairs=st.lists(st.tuples(_mixed_objects, _mixed_objects), max_size=80))
def test_bulk_build_matches_the_insert_fold(hasher, pairs):
    built = [
        multimap(pairs, key_hash=hasher, value_hash=hasher),
        pmap(pairs, key_hash=hasher),
        pset([k for k, _ in pairs], element_hash=hasher),
    ]
    folded = [
        multimap(key_hash=hasher, value_hash=hasher),
        pmap(key_hash=hasher),
        pset(element_hash=hasher),
    ]
    for key, value in pairs:
        folded[0] = folded[0].put(key, value)
        folded[1] = folded[1].put(key, value)
        folded[2] = folded[2].add(key)
    for b, f in zip(built, folded):
        check_invariants(b)
        assert b._root.equals(b._cfg, f._root)
        assert leantrie.footprint(b).words_total == leantrie.footprint(f).words_total
    assert (built[0].tuple_count, built[0].key_count) == (
        folded[0].tuple_count,
        folded[0].key_count,
    )
    assert len(built[1]) == len(folded[1]) and len(built[2]) == len(folded[2])
    # the first key object, the first of equal values and the last map value
    assert _kept_objects(built[0].items()) == _kept_objects(folded[0].items())
    assert _kept_objects(built[1].items()) == _kept_objects(folded[1].items())
    assert _kept_objects((e,) for e in built[2]) == _kept_objects((e,) for e in folded[2])
    # a key whose values are all equal stays inline
    inline = structure_stats(built[0])["inline_entries"]
    assert inline == structure_stats(folded[0])["inline_entries"]


def test_bulk_build_keeps_the_objects_the_fold_keeps():
    mm = multimap([(1, 1), (True, True), (1, 1.0), (2, 0), (2, False), (2, 5)])
    assert [(type(k), type(v)) for k, v in mm.items() if k == 1] == [(int, int)]
    assert structure_stats(mm)["inline_entries"] == 1  # 1 -> {1, True, 1.0} collapsed
    assert {type(v) for v in mm.get(2)} == {int}
    m = pmap([(1, "a"), (True, "b"), (1.0, "c")])
    assert [(type(k), v) for k, v in m.items()] == [(int, "c")]
    assert [type(e) for e in pset([1.0, True, 1])] == [float]



_Pair = namedtuple("_Pair", "key value")

# every kind of pair source a bulk build takes, as a factory over tuples
_PAIR_SOURCES = {
    "tuples": lambda pairs: pairs,
    "lists": lambda pairs: [list(p) for p in pairs],
    "namedtuples": lambda pairs: [_Pair(*p) for p in pairs],
    "generator": lambda pairs: ((k, v) for k, v in pairs),
    "dict_items": lambda pairs: dict(pairs).items(),
}


def _recorded(source, seen):
    """``source``'s pairs, each appended to ``seen`` as it is drawn."""
    for pair in source:
        seen.append(pair)
        yield pair


def _node_slots(structure):
    """Every slot of every node of ``structure``, nested sets' included."""
    todo = [(structure._cfg, structure._root)]
    while todo:
        cfg, root = todo.pop()
        for _, run, start, _, end_p, end in walk(cfg.width, root):
            yield from run[start:]
            todo += ((cfg.value_cfg, nested) for nested in run[end_p + 1 : end : 2])


@pytest.mark.parametrize("source", list(_PAIR_SOURCES))
@pytest.mark.parametrize(
    "hasher", [None, _colliding_hash, lambda x: hash(x) % 13], ids=["default", "colliding", "mod13"]
)
@settings(max_examples=25, deadline=None)
@given(pairs=st.lists(st.tuples(_mixed_objects, _mixed_objects), max_size=60))
def test_bulk_build_takes_any_pair_type_and_keeps_no_pair_object(hasher, source, pairs):
    # a dict keeps one pair per key: its plain-tuple input is its items
    plain = list(dict(pairs).items()) if source == "dict_items" else pairs
    for make in (
        lambda ps: multimap(ps, key_hash=hasher, value_hash=hasher),
        lambda ps: pmap(ps, key_hash=hasher),
    ):
        seen = []
        built = make(_recorded(_PAIR_SOURCES[source](plain), seen))
        want = make(list(plain))
        check_invariants(built)
        assert built._root.equals(built._cfg, want._root)
        # the same key and value objects, in the same slots
        assert [(id(k), id(v)) for k, v in built.items()] == [
            (id(k), id(v)) for k, v in want.items()
        ]
        assert len(seen) == len(plain)
        drawn = {id(pair) for pair in seen}  # ``seen`` keeps each id unique
        assert not any(id(slot) in drawn for slot in _node_slots(built))

# -- put_all ---------------------------------------------------------------------------


def _put_all_fold(mm, key, values):
    """What ``put_all`` must equal: drop the key, then put each value."""
    mm = mm.remove_key(key)
    for v in values:
        mm = mm.put(key, v)
    return mm


# every argument kind put_all takes, as a factory over (values, value hasher)
_PUT_ALL_INPUTS = {
    "empty": lambda vs, h: [],
    "one": lambda vs, h: vs[:1],
    "same_hasher_set": lambda vs, h: pset(vs, element_hash=h),
    "get_result": lambda vs, h: multimap([(0, v) for v in vs], value_hash=h).get(0),
    "other_hasher_set": lambda vs, h: pset(vs, element_hash=_constant_hash),
    "list_with_duplicates": lambda vs, h: vs + vs[::-1],
    "generator": lambda vs, h: (v for v in vs),
}


@pytest.mark.parametrize("kind", list(_PUT_ALL_INPUTS))
@pytest.mark.parametrize(
    "hasher", [None, _colliding_hash, lambda x: hash(x) % 7], ids=["trie", "bucket", "mod7"]
)
@settings(max_examples=25, deadline=None)
@given(
    pairs=st.lists(st.tuples(_mixed_objects, _mixed_objects), max_size=40),
    key=_mixed_objects,
    values=st.lists(_mixed_objects, max_size=6),
)
def test_put_all_matches_the_remove_key_and_put_fold(hasher, kind, pairs, key, values):
    mm = multimap(pairs, key_hash=hasher, value_hash=hasher)
    make = _PUT_ALL_INPUTS[kind]
    arg = make(values, hasher)
    got = mm.put_all(key, arg)
    want = _put_all_fold(mm, key, make(values, hasher))
    check_invariants(got)
    assert got._root.equals(got._cfg, want._root)
    assert (got.tuple_count, got.key_count) == (want.tuple_count, want.key_count)
    if got is not mm:  # a rewrite stores the caller's key and values
        assert _kept_objects(got.items()) == _kept_objects(want.items())
        if kind in ("same_hasher_set", "get_result") and len(arg) > 2:
            assert got.get(key)._root is arg._root  # shared, not copied
        if len(got.get(key)) == 2:  # a pair, which get copies out
            assert structure_stats(got)["pair_entries"] >= 1
    # an equal rewrite, and removing an absent key, give the receiver back
    assert got.put_all(key, list(got.get(key))) is got
    assert got.put_all(key, got.get(key)) is got
    assert mm.put_all(object(), ()) is mm


def test_an_equal_put_all_counts_no_entries(monkeypatch):
    # the size of a get-derived set is unknown; an equal rewrite returns the
    # receiver without ever needing it, and no rewrite counts the entries of
    # the sets it stores or drops
    import leantrie.maps
    import leantrie.nodes

    calls = []
    count_entries = leantrie.nodes.count_entries

    def counted(cfg, node):
        calls.append(node)
        return count_entries(cfg, node)

    monkeypatch.setattr(leantrie.nodes, "count_entries", counted)
    monkeypatch.setattr(leantrie.maps, "count_entries", counted)
    mm = multimap([(0, v) for v in range(200)] + [(1, 5), (2, 6), (2, 7)])
    for key in (0, 1, 2):
        values = mm.get(key)
        assert mm.put_all(key, values) is mm
        assert mm.put_all(key, values.add(next(iter(values)))) is mm
    assert calls == []
    rewritten = mm.put_all(1, mm.get(0))
    dropped = mm.remove_key(0)
    assert rewritten is not mm and dropped is not mm
    assert calls == []
    # the first read counts the whole trie once, from its root, and caches
    assert rewritten.tuple_count == mm.tuple_count + 199
    assert calls.count(rewritten._root) == 1
    walked = len(calls)
    assert rewritten.tuple_count == mm.tuple_count + 199
    assert len(calls) == walked
    assert dropped.tuple_count == mm.tuple_count - 200


# -- persistence under history ----------------------------------------------------------


_KEYS = st.integers(0, 5)
_VALUES = st.integers(0, 4)


class _HistoryMachine(RuleBasedStateMachine):
    """Every multimap version ever produced stays what it was.

    Each step derives a new version from some earlier one and records it
    with its dict-of-sets snapshot and the ``get`` results taken from it;
    after each step a sample of old versions is checked again in full.
    """

    hasher = None

    def __init__(self):
        super().__init__()
        self.versions = [(multimap(key_hash=self.hasher, value_hash=self.hasher), {})]
        self.gets = []  # (value set from get, its snapshot at the time)

    def _derive(self, pick, update):
        mm, snapshot = self.versions[pick % len(self.versions)]
        model = {k: set(vs) for k, vs in snapshot.items()}
        new = update(mm, model)
        self.versions.append((new, {k: frozenset(vs) for k, vs in model.items() if vs}))

    @rule(pick=st.integers(0, 99), key=_KEYS, value=_VALUES)
    def put(self, pick, key, value):
        def update(mm, model):
            model.setdefault(key, set()).add(value)
            return mm.put(key, value)

        self._derive(pick, update)

    @rule(pick=st.integers(0, 99), key=_KEYS, value=_VALUES)
    def remove(self, pick, key, value):
        def update(mm, model):
            model.get(key, set()).discard(value)
            return mm.remove(key, value)

        self._derive(pick, update)

    @rule(pick=st.integers(0, 99), key=_KEYS)
    def remove_key(self, pick, key):
        def update(mm, model):
            model.pop(key, None)
            return mm.remove_key(key)

        self._derive(pick, update)

    @rule(pick=st.integers(0, 99), key=_KEYS, values=st.lists(_VALUES, max_size=5))
    def put_all_list(self, pick, key, values):
        def update(mm, model):
            model[key] = set(values)
            return mm.put_all(key, values)

        self._derive(pick, update)

    @rule(pick=st.integers(0, 99), source=st.integers(0, 99), src_key=_KEYS, key=_KEYS)
    def put_all_shared(self, pick, source, src_key, key):
        # another key's value set, from any version, shared by the result
        src, src_snapshot = self.versions[source % len(self.versions)]
        shared = src.get(src_key)
        self.gets.append((shared, src_snapshot.get(src_key, frozenset())))

        def update(mm, model):
            model[key] = set(shared)
            return mm.put_all(key, shared)

        self._derive(pick, update)

    @invariant()
    def the_newest_version_keeps_the_root_rule(self):
        # each version is the newest once: its root, top-level or nested, is
        # a TrieNode, a trie node below it a plain tuple, a bucket a bucket
        mm = self.versions[-1][0]
        stack = [(mm._cfg, mm._root)]
        while stack:
            cfg, root = stack.pop()
            for depth, run, _, _, end_p, end in walk(cfg.width, root):
                kind = type(run)
                assert kind is TrieNode if depth == 1 else kind in (tuple, CollisionNode)
                stack += [(cfg.value_cfg, nested) for nested in run[end_p + 1 : end : COLL_W]]

    @invariant()
    def old_versions_are_intact(self):
        for i in _sample(len(self.versions)):
            self._check(*self.versions[i])
        for i in _sample(len(self.gets)):
            got, snapshot = self.gets[i]
            assert set(got) == snapshot
            check_invariants(got)

    def _check(self, mm, snapshot):
        assert {k: frozenset(mm.get(k)) for k in mm.keys()} == snapshot
        assert mm.key_count == len(snapshot)
        assert mm.tuple_count == sum(map(len, snapshot.values()))
        check_invariants(mm)
        fresh = multimap(
            [(k, v) for k, vs in snapshot.items() for v in vs],
            key_hash=self.hasher,
            value_hash=self.hasher,
        )
        assert mm._root.equals(mm._cfg, fresh._root)


def _sample(n):
    """A few indices spread over ``n`` versions, the newest two always."""
    return sorted({i for i in (0, n // 3, 2 * n // 3, n - 2, n - 1) if 0 <= i < n})


class _CollidingHistoryMachine(_HistoryMachine):
    hasher = staticmethod(_colliding_hash)


_HISTORY = settings(max_examples=30, stateful_step_count=30, deadline=None)
TestPersistenceUnderHistory = _HistoryMachine.TestCase
TestPersistenceUnderHistory.settings = _HISTORY
TestPersistenceUnderHistoryColliding = _CollidingHistoryMachine.TestCase
TestPersistenceUnderHistoryColliding.settings = _HISTORY


def test_structures_tolerate_mixed_key_types():
    mm = multimap([(1, "a"), ("1", "b"), ((1, 2), "c"), (None, "d"), (True, "e")])
    check_invariants(mm)
    # True == 1 with equal hashes, so they share one key slot
    assert set(mm.get(1)) == {"a", "e"}
    assert set(mm.get("1")) == {"b"}
    assert set(mm.get((1, 2))) == {"c"}
    assert set(mm.get(None)) == {"d"}


def test_large_build_and_teardown_round_trip():
    rng = random.Random(31)
    pairs = [(rng.randrange(500), rng.randrange(4)) for _ in range(3000)]
    mm = multimap(pairs)
    check_invariants(mm)
    order = list(dict.fromkeys(k for k, _ in pairs))
    rng.shuffle(order)
    for k in order:
        mm = mm.remove_key(k)
    check_invariants(mm)
    assert mm.tuple_count == 0 and mm.key_count == 0
    assert list(mm.items()) == []


# -- pickle / copy -----------------------------------------------------------------


def _round_trips(structure):
    yield pickle.loads(pickle.dumps(structure))
    yield copy.deepcopy(structure)


def test_structures_survive_pickle_and_deepcopy():
    rng = random.Random(17)
    pairs = [(rng.randrange(200), rng.randrange(3)) for _ in range(400)]
    structures = [
        multimap(pairs),  # inline and nested entries
        # one bucket: "a" inline, "b" and "c" nested
        multimap(
            [("a", 0), ("b", 0), ("b", 1), ("c", 0), ("c", 1), ("c", 2)],
            key_hash=_colliding_hash,
        ),
        pset(range(300)),
        pmap({i: str(i) for i in range(300)}),
        multimap(),
    ]
    for original in structures:
        for clone in _round_trips(original):
            assert type(clone) is type(original)
            assert clone == original
            check_invariants(clone)
            # the clone keeps its hashers: updates land where the original's do
            if isinstance(original, PersistentMultiMap):
                assert clone.put("a", 9) == original.put("a", 9)
                assert clone.remove_key("b") == original.remove_key("b")


def test_a_pickle_carries_only_the_hash_functions():
    # the hash functions are a structure's only options; node pricing
    # belongs to the footprint model and is neither an option nor pickled
    built = [
        (pset, [1, 2], {"element_hash": _colliding_hash}),
        (pmap, [(1, 2)], {"key_hash": _colliding_hash}),
        (multimap, [(1, 2)], {"key_hash": _colliding_hash, "value_hash": hash}),
    ]
    for factory, contents, options in built:
        _, (rebuilt_by, _, pickled_options) = factory(contents, **options).__reduce__()
        assert rebuilt_by is factory
        assert pickled_options == options
        with pytest.raises(TypeError):
            factory(contents, specialize=False)


# Structures keyed by str and bytes, whose hash() differs between processes.
_BUILD = """
from leantrie import multimap, pmap, pset
keys = ["key%d" % i for i in range(300)]
structures = [
    multimap([(k, v) for i, k in enumerate(keys) for v in ("x", "y", "z")[: i % 3 + 1]]),
    multimap([(k.encode(), k) for k in keys]),
    pset(keys),
    pmap({k: i for i, k in enumerate(keys)}),
]
"""

_WRITE = _BUILD + """
import pickle, sys
hash(structures[2])  # fill the set's hash cache before pickling
with open(sys.argv[1], "wb") as f:
    pickle.dump((hash("key0"), structures), f)
"""

_READ = _BUILD + """
import pickle, sys
from leantrie import check_invariants
with open(sys.argv[1], "rb") as f:
    writer_hash, loaded = pickle.load(f)
assert writer_hash != hash("key0"), "both processes hash str alike"
for got, want in zip(loaded, structures, strict=True):
    assert got == want
    check_invariants(got)
for mm, want in zip(loaded[:2], structures[:2]):
    for k, v in want.items():
        assert mm.contains_entry(k, v)
        assert mm.put(k, v) is mm
s, m = loaded[2], loaded[3]
assert hash(s) == hash(structures[2])
assert all(k in s and s.add(k) is s and m[k] == i for i, k in enumerate(keys))
"""


def _run_with_hash_seed(script, seed, path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(leantrie.__file__)))
    env = dict(os.environ, PYTHONHASHSEED=str(seed))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script, str(path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr


def test_pickles_load_in_a_process_with_other_string_hashes(tmp_path):
    path = tmp_path / "structures.pickle"
    _run_with_hash_seed(_WRITE, 1, path)
    _run_with_hash_seed(_READ, 2, path)


# -- hostile keys ---------------------------------------------------------------------


class _EqualityFailed(Exception):
    pass


class _HashFailed(Exception):
    pass


class _RaisingKey:
    """Hashes like ``twin`` so it reaches ``twin``'s entry, then raises on
    the key comparison there; as a value, the same at an equal-hashed
    value."""

    def __init__(self, twin):
        self.twin = twin

    def __hash__(self):
        return hash(self.twin)

    def __eq__(self, other):
        raise _EqualityFailed(other)


class _Unhashable:
    """A key or value whose ``__hash__`` raises: any hasher fails on it."""

    def __hash__(self):
        raise _HashFailed


@pytest.mark.parametrize("key_hash", [None, _colliding_hash], ids=["trie", "bucket"])
@pytest.mark.parametrize("twin", ["a", "p", "b"], ids=["inline", "pair", "collection"])
def test_a_raising_key_comparison_leaves_the_receiver_intact(twin, key_hash):
    # "a" and "c" are inline entries, "p" a pair, "b" a collection entry;
    # "d" holds an unhashable value inline, which nothing hashes until
    # get("d")
    bad = _Unhashable()
    mm = multimap(
        [("a", 0), ("p", 0), ("p", 1), ("b", 0), ("b", 1), ("b", 3), ("c", 2), ("d", bad)],
        key_hash=key_hash,
    )
    before = list(mm.items())
    key = _RaisingKey(twin)
    value = _RaisingKey(0)  # meets the value 0 of "a", of "p" and of "b"'s nested set
    calls = [
        # a key that raises on the comparison at twin's entry
        (_EqualityFailed, lambda: mm.put(key, 5)),
        (_EqualityFailed, lambda: mm.remove(key, 0)),
        (_EqualityFailed, lambda: mm.remove_key(key)),
        (_EqualityFailed, lambda: mm.contains_entry(key, 0)),
        (_EqualityFailed, lambda: mm.get(key)),
        # a key the key hasher fails on
        (_HashFailed, lambda: mm.put(bad, 5)),
        (_HashFailed, lambda: mm.remove(bad, 0)),
        (_HashFailed, lambda: mm.remove_key(bad)),
        (_HashFailed, lambda: mm.contains_entry(bad, 0)),
        (_HashFailed, lambda: mm.get(bad)),
        (_EqualityFailed, lambda: mm.put_all(key, [5])),
        (_HashFailed, lambda: mm.put_all(bad, [5])),
        # a value the value hasher fails on: the promotions of "a" to a pair
        # and of "p" to a nested set, an insert into the nested set of "b",
        # a delete from it, and get of an inline value
        (_HashFailed, lambda: mm.put(twin, bad)),
        (_HashFailed, lambda: mm.remove("b", bad)),
        (_HashFailed, lambda: mm.get("d")),
        (_HashFailed, lambda: mm.put_all(twin, [0, bad])),
        # a value that raises on the comparison with 0: the promotions of
        # "a" and "p" or a nested insert into "b", the removal from "a",
        # the demotion of "p" to an inline entry or a nested delete, and
        # the entry test
        (_EqualityFailed, lambda: mm.put(twin, value)),
        (_EqualityFailed, lambda: mm.remove(twin, value)),
        (_EqualityFailed, lambda: mm.contains_entry(twin, value)),
        # constructors fed twin and the raising key, one hash between them
        (_EqualityFailed, lambda: multimap([(twin, 0), (key, 1)], key_hash=key_hash)),
        (_EqualityFailed, lambda: multimap([(key, 1), (twin, 0)], key_hash=key_hash)),
        (_EqualityFailed, lambda: pmap([(twin, 0), (key, 1)], key_hash=key_hash)),
        (_EqualityFailed, lambda: pset([twin, key], element_hash=key_hash)),
        # and a multimap fed a raising value for twin's key
        (_EqualityFailed, lambda: multimap([(twin, 0), (twin, value)])),
    ]
    for error, call in calls:
        with pytest.raises(error):
            call()
        assert list(mm.items()) == before
        assert (mm.tuple_count, mm.key_count) == (8, 5)
        check_invariants(mm)
    if twin != "b":
        # an inline value and a pair compare by equality alone: nothing
        # hashes a value that is not there
        assert mm.remove(twin, bad) is mm
        assert not mm.contains_entry(twin, bad)
