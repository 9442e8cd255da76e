"""Pins of the trie layout: digests of what each node holds, item by item.

The description of a root reads node items only: each node's kind, then
its items, with sub-nodes and nested roots described the same way.  It
does not go through ``regions`` or any other decoder of the layout, so a
change to how the nodes are decoded cannot move a pin, while a change to
what a node stores, or where, moves one.  The structures hold int keys
and values, whose hashes do not depend on ``PYTHONHASHSEED``, so the
digests are the same under any hash seed.
"""

import hashlib
import random

from leantrie import multimap, pmap, pset
from leantrie.bench import run_footprint


def describe(o):
    """``o`` as nested tuples: a node (any tuple) as its kind's name and the
    description of each item, anything else as its ``repr``."""
    if isinstance(o, tuple):
        return (type(o).__name__, *map(describe, o))
    return repr(o)


def digest(structure):
    return hashlib.sha256(repr(describe(structure._root)).encode()).hexdigest()[:16]


def _entries():
    """4,096 keys, half with one value and half with two, of which 300
    get a third value."""
    rng = random.Random(31)
    keys = rng.sample(range(1 << 40), 4096)
    entries = []
    for i, k in enumerate(keys):
        n = 1 if i % 2 else 3 if i < 600 else 2
        entries += [(k, v) for v in rng.sample(range(1 << 32), n)]
    return entries


def _colliding():
    """A multimap whose keys share 61 hashes and whose values share 3:
    buckets at the top level and in the nested sets, holding inline, pair
    and collection entries.  An odd key's values all share one hash."""
    entries = [(k, v * (1 + 2 * (k % 2))) for k in range(400) for v in range(k % 6 + 1)]
    return multimap(entries, key_hash=lambda k: k % 61, value_hash=lambda v: v % 3)


def test_the_multimap_layout_is_pinned():
    entries = _entries()
    mm = multimap(entries)
    assert (mm.key_count, mm.tuple_count) == (4096, 4096 + 2048 + 300)
    assert digest(mm) == "dda5f9dafb4718c2"


def test_the_map_and_set_layouts_are_pinned():
    entries = _entries()
    assert digest(pmap(entries)) == "4787e0533bd2d4ca"
    assert digest(pset(k for k, _ in entries)) == "8fe6eb6e5396fa18"


def test_the_colliding_multimap_layout_is_pinned():
    assert digest(_colliding()) == "bb0508da95cf1fd8"


FOOTPRINT = [
    ("multimap", 6, 242, 0, 19, 178),
    ("map_of_sets", 6, 753, 548, 148, 371),
    ("multimap", 7, 480, 0, 36, 355),
    ("map_of_sets", 7, 1502, 1092, 293, 740),
    ("multimap", 8, 912, 0, 60, 699),
    ("map_of_sets", 8, 2969, 2188, 575, 1470),
    ("multimap", 9, 1856, 0, 135, 1414),
    ("map_of_sets", 9, 5968, 4372, 1164, 2955),
    ("multimap", 10, 3866, 0, 312, 2871),
    ("map_of_sets", 10, 12077, 8748, 2371, 5954),
    ("multimap", 11, 8118, 0, 706, 5825),
    ("map_of_sets", 11, 24548, 17552, 4838, 12005),
    ("multimap", 12, 15666, 0, 1216, 11455),
    ("map_of_sets", 12, 48498, 35088, 9476, 23811),
]


def test_the_modeled_footprint_columns_are_pinned():
    # the columns that do not depend on CPython's object sizes
    rows = [
        (r.structure, r.size_exponent, r.words_total, r.words_nested, r.nodes, r.slots)
        for r in run_footprint(range(6, 13))
    ]
    assert rows == FOOTPRINT
