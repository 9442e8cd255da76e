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
the same rule for payloads.
"""

import gc
import sys
import types
from dataclasses import dataclass

from .maps import PersistentMap, PersistentMultiMap, PersistentSet
from .nodes import TrieNode

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
    structures stored as values), serialized as ``words_nested``.  A
    bitmap is priced as one word whether or not it uses the pair plane.
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
    structures = _measured(structures)
    report = FootprintReport()
    seen = set()
    for s in structures:
        _walk_node(s._root, s._cfg, model, report, seen)
    report.words_total = (
        report.headers + report.bitmaps + report.slots + report.indirections
    )
    return report


def _walk_node(node, cfg, model, report, seen, own=True):
    """Price a node graph; returns the words newly added for this subtree.

    ``own`` marks a node of a measured structure's own trie: the words
    below its payload slots go to ``nested_words``, once for the whole
    subtree below the slot.
    """
    if id(node) in seen:
        return 0
    seen.add(id(node))

    width = cfg.width
    run, start, _, _, end = node.regions(width)
    n_slots = len(run) - start
    words = model.header_words + model.bitmap_words + n_slots * model.slot_words
    report.nodes += 1
    report.headers += model.header_words
    report.bitmaps += model.bitmap_words
    report.slots += n_slots * model.slot_words
    if not model.specialize or n_slots > MAX_FIXED_SLOTS:
        report.indirections += model.indirection_words
        words += model.indirection_words

    values, nested = node.payload_refs(width)
    below = sum(_walk_value(value, model, report, seen) for value in values)
    for root in nested:
        below += _walk_node(root, cfg.value_cfg, model, report, seen, own=False)
    if own:
        report.nested_words += below
    words += below
    for child in run[end:]:
        words += _walk_node(child, cfg, model, report, seen, own)
    return words


def _walk_value(value, model, report, seen):
    """Price a payload slot: zero unless it is a persistent structure."""
    if not isinstance(value, _WRAPPERS):
        return 0
    if id(value) in seen:
        return 0
    seen.add(id(value))
    fields = WRAPPER_FIELDS[type(value)]
    words = model.header_words + fields * model.slot_words
    report.nodes += 1
    report.headers += model.header_words
    report.slots += fields * model.slot_words
    return words + _walk_node(value._root, value._cfg, model, report, seen, own=False)


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
    return sum(byte_components(structures).values())


def byte_components(structures):
    """:func:`object_bytes` of ``structures`` split by what holds the
    bytes, in one walk: ``{component: bytes}`` over
    :data:`BYTE_COMPONENTS`.

    * ``trie`` -- the nodes of the measured structures' own tries, a
      collision bucket's slot tuple and hash int included;
    * ``nested`` -- the same for the nodes below payload slots: nested
      set tries and the tries of persistent structures stored as values;
    * ``bitmaps`` -- the trie nodes' bitmap ints, of either kind of node;
    * ``wrappers`` -- the structure objects themselves, stored ones
      included, with their configs and size fields.

    The walk reads a node's stored values and nested roots through its
    ``payload_refs`` and follows its bitmap, sub-nodes and nested roots,
    and of its stored keys and values only the persistent structures;
    every other object it follows through ``gc.get_referents``.  An
    object that several of ``structures`` reach is counted once, in the
    component the first structure listed that reaches it gives it, as
    :func:`footprint` counts a shared node.
    """
    sizes = dict.fromkeys(BYTE_COMPONENTS, 0)
    seen = set()
    # (object, component, the config of the trie it is a node of or None);
    # the first structure is walked first, as footprint walks them
    stack = [(s, "trie", None) for s in reversed(_measured(structures))]
    while stack:
        o, component, cfg = stack.pop()
        if id(o) in seen:
            continue
        seen.add(id(o))
        if o is None or type(o) is bool or isinstance(o, _SHARED):
            continue
        if type(o) is int and -5 <= o <= 256:
            continue
        if cfg is None and isinstance(o, _WRAPPERS):
            # a stored structure's trie is nested, a measured one's is not
            sizes["wrappers"] += sys.getsizeof(o)
            root = o._root
            stack.extend((r, "wrappers", None) for r in gc.get_referents(o) if r is not root)
            stack.append((root, component, o._cfg))
            continue
        sizes[component] += sys.getsizeof(o)
        if cfg is None:
            stack.extend((r, component, None) for r in gc.get_referents(o))
            continue
        w = cfg.width
        run, _, _, _, end = o.regions(w)
        if type(o) is TrieNode:
            stack.append((o[0], "bitmaps", None))
        else:
            # a bucket's slot tuple is part of it, read through regions
            stack.append((o.hash, component, None))
            if id(run) not in seen:
                seen.add(id(run))
                sizes[component] += sys.getsizeof(run)
        values, nested = o.payload_refs(w)
        stack.extend((v, "nested", None) for v in values if isinstance(v, _WRAPPERS))
        vcfg = cfg.value_cfg
        stack.extend((root, "nested", vcfg) for root in nested)
        stack.extend((child, component, cfg) for child in run[end:])
    return sizes
