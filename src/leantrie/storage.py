"""The abstract footprint model.

A trie node keeps its payload and sub-node references in one flat run of
slots, held in the node's own tuple after its bitmap.  The model prices a
structure in abstract machine words: a header per heap object, one word
per bitmap, one per slot cell, and one indirection word for a node whose
slots would live in a separate out-of-line block.  The model's
``specialize`` field decides that last word: under the default, it models
nodes of up to ``MAX_FIXED_SLOTS`` slots as fixed-arity objects with the
slots inline (no indirection), while larger nodes pay for the block;
``FootprintModel(specialize=False)`` prices every node with the block.
It is a pricing rule only: one structure can be priced either way, and
its nodes are the same tuples under both.

Payload objects (keys, values) cost nothing -- they are identical across
compared structures -- except nested leantrie structures stored as
values, which are priced like any other node graph.

:func:`object_bytes` measures the same graphs in real CPython bytes, by
the same rule for payloads.  Both read one walk of the node graph, which
decides what a node reaches, what is nested below a payload slot, and
which of several measured structures owns a shared node.
"""

import gc
import sys
import types
from dataclasses import dataclass
from itertools import repeat

from .maps import PersistentMap, PersistentMultiMap, PersistentSet
from .nodes import head_size, refs

MAX_FIXED_SLOTS = 8

# the modeled fields of each structure object: its root and its size, or
# its root and its tuple and key counts
WRAPPER_FIELDS = {PersistentSet: 2, PersistentMap: 2, PersistentMultiMap: 3}
_WRAPPERS = tuple(WRAPPER_FIELDS)


# --- footprint model ---------------------------------------------------------


@dataclass(frozen=True)
class FootprintModel:
    """Word prices of a node graph's components.  With ``specialize`` a
    node of at most ``MAX_FIXED_SLOTS`` slots pays no indirection word;
    without it every node pays one."""

    header_words: int = 2
    bitmap_words: int = 1
    slot_words: int = 1
    indirection_words: int = 1
    specialize: bool = True


DEFAULT_MODEL = FootprintModel()


@dataclass
class FootprintReport:
    """Word counts per component; ``nodes`` is a heap-object count.

    ``words_total == headers + bitmaps + slots + indirections`` always
    holds.  ``nested_words`` is the share of ``words_total`` contributed by
    structures hanging below payload slots (nested set tries and persistent
    structures stored as values), serialized as ``words_nested``.  A node's
    ``bitmaps`` word prices its bitmap, pair plane or not, or a bucket's hash.
    """

    words_total: int = 0
    nodes: int = 0
    slots: int = 0
    headers: int = 0
    bitmaps: int = 0
    indirections: int = 0
    nested_words: int = 0


def footprint(structures, model=DEFAULT_MODEL):
    """Measure one structure or several jointly (shared nodes counted once,
    with the first structure listed that reaches them).

    Accepts a :class:`~leantrie.PersistentMultiMap`, ``PersistentMap`` or
    ``PersistentSet``, or an iterable of them.  The outermost wrapper
    objects are not priced — the report covers the node graphs — but
    persistent structures stored *as values* are priced in full (object
    header plus one word per field plus their node graph), because there
    they are part of the measured structure's storage overhead.
    ``model`` sets the prices, so ``footprint(s, FootprintModel(
    specialize=False))`` prices the same nodes as generic ones.
    """
    report = FootprintReport()
    for o, cfg, nested in _reached(structures):
        if cfg is None:
            if not nested:
                continue  # a measured structure's own object
            slots = WRAPPER_FIELDS[type(o)] * model.slot_words
            words = model.header_words + slots
        else:
            n_slots = len(o) - head_size(o)
            slots = n_slots * model.slot_words
            words = model.header_words + model.bitmap_words + slots
            report.bitmaps += model.bitmap_words
            if not model.specialize or n_slots > MAX_FIXED_SLOTS:
                report.indirections += model.indirection_words
                words += model.indirection_words
        report.nodes += 1
        report.headers += model.header_words
        report.slots += slots
        if nested:
            report.nested_words += words
    report.words_total = (
        report.headers + report.bitmaps + report.slots + report.indirections
    )
    return report


def _reached(structures):
    """Yield ``(o, cfg, nested)`` once for each distinct structure object
    and trie node that ``structures`` reach: the one walk of the node
    graph that :func:`footprint`, :func:`byte_components` and the
    self-test's bitmap check read.

    ``cfg`` is the config of the trie that node ``o`` belongs to, and None
    for a structure object.  ``nested`` is true for what hangs below a
    payload slot: nested set tries, persistent structures stored as values
    (or as set elements), and their tries.  The walk is depth first: a
    node, then what its payload slots hold, then its sub-nodes.  It walks
    the first structure listed first, so an object that several of them
    reach belongs to the first one listed that reaches it.
    """
    seen = set()
    stack = [(s, None, False) for s in reversed(_measured(structures))]
    while stack:
        item = stack.pop()
        o, cfg, nested = item
        if id(o) in seen:
            continue
        seen.add(id(o))
        yield item
        if cfg is None:
            stack.append((o._root, o._cfg, nested))
            continue
        values, roots, children = refs(o, cfg.width)
        stack.extend(zip(reversed(children), repeat(cfg), repeat(nested)))
        stack.extend(zip(reversed(roots), repeat(cfg.value_cfg), repeat(True)))
        # by exact type, as WRAPPER_FIELDS prices them (an ABC isinstance is
        # slow), and only where one C-level scan of the types finds one
        if not WRAPPER_FIELDS.keys().isdisjoint(map(type, values)):
            stack.extend((v, None, True) for v in reversed(values) if type(v) in WRAPPER_FIELDS)


def _measured(structures):
    """``structures`` as a list of persistent structures; one is allowed."""
    if isinstance(structures, _WRAPPERS):
        return [structures]
    structures = list(structures)
    for s in structures:
        if not isinstance(s, _WRAPPERS):
            raise TypeError(f"cannot measure {type(s).__name__}")
    return structures


# -- real bytes -----------------------------------------------------------------

# objects that every structure shares: classes, modules and functions
_SHARED = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType)

# what object_bytes splits its total into
BYTE_COMPONENTS = ("trie", "nested", "bitmaps", "wrappers")


def object_bytes(structures):
    """CPython bytes held by one structure or several (shared objects
    counted once): ``sys.getsizeof`` of every object reachable from them,
    wrappers, nodes, configs and ints included; the sum of
    :func:`byte_components`.

    Stored keys and values are left out, except persistent structures
    stored as values (or as set elements), which are measured like the
    structure itself, as :func:`footprint` prices them.  Objects every
    structure shares are left out too: classes, functions, ``None``,
    bools and the interpreter's cached small ints.  Every other object is
    counted once, however many nodes refer to it: a bulk build gives equal
    bitmaps one shared int, and the walk counts that int once.  A trie's
    root and a collision bucket are tuple subclass instances, which CPython
    allocates with one 8 B sentinel item beyond their items, and their
    ``__sizeof__`` counts it; an inner trie node is a plain tuple, with no
    sentinel.  The total is what ``tracemalloc`` sees a fresh build of the
    same content allocate, up to the interpreter's own few-KiB caches and
    one known under-count: a bitmap int made by ``<<`` or ``|`` can keep
    one unused 30-bit digit allocated, which ``int.__sizeof__`` leaves
    out, so the walk reads 4 B low for each such int.  On a 4,096-key 90:10
    ``map_of_sets`` of ``PersistentSet`` values that is 12.7 KB, beyond
    the few-KiB agreement; 11.9 KB of it are the roots of the one-value
    sets, each a build of its own, so no two of them share an int.
    """
    return sum(byte_components(structures).values())


def byte_components(structures):
    """:func:`object_bytes` of ``structures`` split by what holds the
    bytes: ``{component: bytes}`` over :data:`BYTE_COMPONENTS`.

    * ``trie`` -- the nodes of the measured structures' own tries;
    * ``nested`` -- the same for the nodes below payload slots: nested
      set tries and the tries of persistent structures stored as values;
    * ``bitmaps`` -- every node's ``HEAD`` ints, trie and nested alike: a
      trie node's bitmap, and a collision bucket's hash and entry counts;
    * ``wrappers`` -- the structure objects themselves, stored ones
      included, with their configs and size fields.

    It sizes the structure objects and nodes of the walk that
    :func:`footprint` prices, so the two agree on what is nested and on
    which of ``structures`` owns a shared node: the first one listed that
    reaches it.  Of the other objects it sizes those a node or structure
    object holds apart from stored keys and values: a node's ``HEAD``
    ints, and what ``gc.get_referents`` reaches from a structure object
    other than its root.
    """
    sizes = dict.fromkeys(BYTE_COMPONENTS, 0)
    seen = set()

    def add(component, *objects):
        stack = list(objects)
        while stack:
            o = stack.pop()
            if id(o) in seen or o is None or type(o) is bool or isinstance(o, _SHARED):
                continue
            if type(o) is int and -5 <= o <= 256:
                continue
            seen.add(id(o))
            sizes[component] += sys.getsizeof(o)
            stack.extend(gc.get_referents(o))

    for o, cfg, nested in _reached(structures):
        if cfg is None:
            sizes["wrappers"] += sys.getsizeof(o)
            add("wrappers", *(r for r in gc.get_referents(o) if r is not o._root))
            continue
        component = "nested" if nested else "trie"
        sizes[component] += sys.getsizeof(o)
        add("bitmaps", *o[: head_size(o)])
    return sizes
