"""The abstract footprint model.

A trie node keeps its payload and sub-node references in one flat run of
slots, held in the node's own tuple after its bitmap.  The model prices a
structure in abstract machine words: a header per heap object, one word
per bitmap, one per slot cell, and one indirection word for a node whose
slots would live in a separate out-of-line block.  ``specialize``
decides that last word: a specialized trie models nodes of up to
``MAX_FIXED_SLOTS`` slots as fixed-arity objects with the slots inline
(no indirection), while larger nodes, and every node of an unspecialized
trie, pay for the block.  The flag changes only this pricing; node shapes
are the same either way.

Payload objects (keys, values) cost nothing -- they are identical across
compared structures -- except nested leantrie structures stored as
values, which are priced like any other node graph.

:func:`object_bytes` measures the same graphs in real CPython bytes, by
the same rule for payloads.
"""

import gc
import sys
import types
from dataclasses import dataclass

MAX_FIXED_SLOTS = 8


# --- footprint model ---------------------------------------------------------


@dataclass(frozen=True)
class FootprintModel:
    header_words: int = 2
    bitmap_words: int = 1
    slot_words: int = 1
    indirection_words: int = 1


DEFAULT_MODEL = FootprintModel()


@dataclass
class FootprintReport:
    """Word counts per component; ``nodes`` is a heap-object count.

    ``words_total == headers + bitmaps + slots + indirections`` always
    holds.  ``nested_words`` is the share of ``words_total`` contributed by
    structures hanging below payload slots (nested set tries and persistent
    structures stored as values); it is informational and not part of the
    serialized schema.
    """

    words_total: int = 0
    nodes: int = 0
    slots: int = 0
    headers: int = 0
    bitmaps: int = 0
    indirections: int = 0
    nested_words: int = 0

    def as_dict(self):
        return {
            "words_total": self.words_total,
            "nodes": self.nodes,
            "slots": self.slots,
            "headers": self.headers,
            "bitmaps": self.bitmaps,
            "indirections": self.indirections,
        }


def footprint(structures, model=DEFAULT_MODEL):
    """Measure one structure or several jointly (shared nodes counted once).

    Accepts a :class:`~leantrie.PersistentMultiMap`, ``PersistentMap`` or
    ``PersistentSet``, or an iterable of them.  The outermost wrapper
    objects are not priced — the report covers the node graphs — but
    persistent structures stored *as values* are priced in full (object
    header plus one word per field plus their node graph), because there
    they are part of the measured structure's storage overhead.
    """
    structures = _measured(structures)
    report = FootprintReport()
    seen = set()
    for s in structures:
        _walk_node(s._root, s._cfg, model, report, seen)
    report.words_total = (
        report.headers + report.bitmaps + report.slots + report.indirections
    )
    return report


def _walk_node(node, cfg, model, report, seen):
    """Price a node graph; returns the words newly added for this subtree."""
    # A node reached under both pricing rules models two distinct objects
    # (the empty root is shared by specialized and unspecialized tries).
    specialize = cfg.specialize
    key = id(node) if specialize else -id(node)
    if key in seen:
        return 0
    seen.add(key)

    slots = node.slots
    n_slots = len(slots)
    words = model.header_words + model.bitmap_words + n_slots * model.slot_words
    report.nodes += 1
    report.headers += model.header_words
    report.bitmaps += model.bitmap_words
    report.slots += n_slots * model.slot_words
    if not specialize or n_slots > MAX_FIXED_SLOTS:
        report.indirections += model.indirection_words
        words += model.indirection_words

    width = cfg.width
    n_inline, n_coll, n_sub = node.region_counts(width)
    pos = 0
    for _ in range(n_inline):
        value_slot = pos + 1 if width == 2 else pos
        words += _walk_value(slots[value_slot], model, report, seen)
        pos += width
    for _ in range(n_coll):
        added = _walk_node(slots[pos + 1], cfg.value_cfg, model, report, seen)
        report.nested_words += added
        words += added
        pos += 2
    for _ in range(n_sub):
        words += _walk_node(slots[pos], cfg, model, report, seen)
        pos += 1
    return words


def _walk_value(value, model, report, seen):
    """Price a payload slot: zero unless it is a persistent structure."""
    if not isinstance(value, _wrappers()):
        return 0
    if id(value) in seen:
        return 0
    seen.add(id(value))
    fields = value._field_count()
    words = model.header_words + fields * model.slot_words
    report.nodes += 1
    report.headers += model.header_words
    report.slots += fields * model.slot_words
    words += _walk_node(value._root, value._cfg, model, report, seen)
    report.nested_words += words
    return words


def _wrappers():
    """``(PersistentMap, PersistentMultiMap, PersistentSet)``."""
    from .maps import PersistentMap, PersistentMultiMap, PersistentSet

    return PersistentMap, PersistentMultiMap, PersistentSet


def _measured(structures):
    """``structures`` as a list of persistent structures; one is allowed."""
    wrappers = _wrappers()
    if isinstance(structures, wrappers):
        return [structures]
    structures = list(structures)
    for s in structures:
        if not isinstance(s, wrappers):
            raise TypeError(f"cannot measure {type(s).__name__}")
    return structures


# -- real bytes -----------------------------------------------------------------

# objects that every structure shares: classes, modules and functions
_SHARED = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType)


def object_bytes(structures):
    """CPython bytes held by one structure or several (shared objects
    counted once): ``sys.getsizeof`` of every object reachable from them,
    wrappers, nodes, configs and ints included.

    Stored keys and values are left out, except persistent structures
    stored as values (or as set elements), which are measured like the
    structure itself, as :func:`footprint` prices them.  Objects every
    structure shares are left out too: classes, functions, ``None``,
    bools and the interpreter's cached small ints.  Every other object is
    counted once, however many nodes refer to it: a bulk build gives equal
    bitmaps one shared int, and the walk counts that int once.  The total
    is what ``tracemalloc`` sees a fresh build of the same content
    allocate, up to the interpreter's own few-KiB caches and one known
    under-count: a bitmap int made by ``<<`` or ``|`` can keep one unused
    30-bit digit allocated, which ``int.__sizeof__`` leaves out, so the
    walk reads 4 B low for each such int.  On a 4,096-key 90:10
    ``map_of_sets`` of ``PersistentSet`` values that is 12.7 KB, beyond
    the few-KiB agreement; 11.9 KB of it are the roots of the one-value
    sets, each a build of its own, so no two of them share an int.
    """
    wrappers = _wrappers()
    persistent_set = wrappers[2]
    structures = _measured(structures)
    skip = set()
    expanded = set()
    pending = list(structures)
    while pending:
        s = pending.pop()
        if id(s) in expanded:
            continue
        expanded.add(id(s))
        if isinstance(s, persistent_set):  # a set's elements are its values
            values = list(s)
        else:
            values = []
            for k, v in s.items():
                skip.add(id(k))
                values.append(v)
        for v in values:
            if isinstance(v, wrappers):
                pending.append(v)
            else:
                skip.add(id(v))
    seen = set()
    total = 0
    stack = list(structures)
    while stack:
        o = stack.pop()
        if id(o) in seen or id(o) in skip:
            continue
        seen.add(id(o))
        if o is None or type(o) is bool or isinstance(o, _SHARED):
            continue
        if type(o) is int and -5 <= o <= 256:
            continue
        total += sys.getsizeof(o)
        stack.extend(gc.get_referents(o))
    return total
