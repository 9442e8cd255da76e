"""Trie node machinery shared by the map, set, and multimap.

Nodes are immutable.  A ``TrieNode`` consumes five hash bits per level
(shifts 0..30 over 32-bit hashes) and is itself one tuple: element 0 is
its 64-bit pattern bitmap (see :mod:`leantrie.bits`) and elements 1.. are
its flat slot run, laid out as::

    (bitmap, [inline entries][collection entries][sub-node references])

Inline entries are ``width`` slots each (1 for sets, 2 for maps and
multimaps); collection entries are always ``(key, set-root)`` pairs whose
second slot is the root node of a nested element trie, and occur only at
width 2, so every payload entry is ``width`` slots wide; sub-node
references are one slot.  Entries within a region are ordered by branch
index.  :func:`_pos` is the one layout rule: insert and delete find a
branch's index through it, and ``lookup``, a loop over trie levels, ranks
inline entries and sub-nodes by the same plane arithmetic written inline.
A ``CollisionNode`` keeps the two payload regions in a slot tuple of its
own, without a bitmap.

A ``TrieNode`` is a ``tuple`` subclass with no instance dictionary, so a
node costs one CPython object rather than an object plus a slot tuple.
Its ``==`` and ``hash`` are identity, as for any other object: a content
comparison would recurse into stored keys.  It reports its true size:
CPython allocates every instance of a heap tuple subtype with one item
more than it holds (the generic allocator's sentinel), which
``tuple.__sizeof__`` leaves out, so ``TrieNode.__sizeof__`` adds that
item and ``sys.getsizeof`` agrees with what ``tracemalloc`` sees.

Sets, maps, and multimaps share this machinery through a ``TrieConfig``:
the config's ``width`` fixes the entry layout, and ``value_cfg`` is the
nested-set config for multimaps (``None`` selects replace-on-put map
semantics; width-1 configs never see values at all).

Every change to a payload entry is decided by one of three transitions
that both node kinds share.  :func:`_add_value` covers a new key, map
replace, inline-to-collection promotion and nested-set insert;
:func:`put_values` replaces a multimap key's whole value set with a
given nested root, stored inline when it holds one value;
:func:`_drop_value` covers inline removal, whole-key removal, nested-set
delete and collection-to-inline demotion.  Each returns the entry's new
pattern and slot values, and the node only places them (``_placed``).
``insert`` is the one descent for the first two: it takes the transition
as its ``add`` argument.

Structural invariants (checked by :func:`validate_root`):

* canonical form — equal content implies structurally equal trees no
  matter the operation history; deletes re-inline a child left with a
  single payload entry and collapse chains left above a collision node;
* no collection entry holds fewer than two values;
* collision nodes hold >= 2 entries of one identical 32-bit hash and sit
  at the shallowest depth their hash prefix forces.

Mutating operations return ``(node, tuple_delta, key_delta)`` and return
the receiver itself (identity, zero deltas) when nothing changed.  A
changed node is path-copied: its new tuple is spliced from the old one
by slicing and concatenation.  Construction does not go through them:
:func:`build_root` builds a whole trie bottom-up, each node once, into the
shape that the inserts would give.  A CPython int costs 28-36 bytes, so a
build hands equal bitmaps one shared int through a table that lives only
as long as the build; a point update makes a fresh int when a node's
pattern changes and keeps the old one when it stays.
"""

from .bits import (
    COLLECTION,
    EMPTY,
    EVEN_BITS,
    INLINE,
    NODE,
    set_pattern,
)

M32 = 0xFFFFFFFF


def fold_hash(obj):
    """Default hasher: Python's hash folded onto 32 bits."""
    h = hash(obj) & 0xFFFFFFFFFFFFFFFF
    return (h ^ (h >> 32)) & M32


class TrieConfig:
    """Per-structure parameters shared by every node of one trie."""

    __slots__ = ("width", "hasher", "specialize", "value_cfg")

    def __init__(self, width, hasher, specialize, value_cfg=None):
        self.width = width
        self.hasher = hasher
        self.specialize = specialize
        self.value_cfg = value_cfg


def set_config(element_hash=None, specialize=True):
    return TrieConfig(1, element_hash or fold_hash, specialize)


def map_config(key_hash=None, specialize=True):
    return TrieConfig(2, key_hash or fold_hash, specialize)


def multimap_config(key_hash=None, value_hash=None, specialize=True):
    nested = set_config(value_hash, specialize)
    return TrieConfig(2, key_hash or fold_hash, specialize, nested)


def _eq(a, b):
    return a is b or a == b


def _splice(old, rm_pos, rm_len, ins_pos, vals, head=()):
    """``old`` minus ``rm_len`` items at ``rm_pos``, with ``vals`` inserted
    at ``ins_pos`` (a position in the result, i.e. after the removal) and
    its first ``len(head)`` items replaced by ``head``."""
    lead = len(head)
    rm_end = rm_pos + rm_len
    if ins_pos <= rm_pos:
        return head + old[lead:ins_pos] + vals + old[ins_pos:rm_pos] + old[rm_end:]
    ins_at = rm_end + ins_pos - rm_pos
    return head + old[lead:rm_pos] + old[rm_end:ins_at] + vals + old[ins_at:]


def _replaced(old, pos, value):
    return old[:pos] + (value,) + old[pos + 1 :]


def _pos(bm, w, pattern, branch, n):
    """Index of ``branch``'s entry of ``pattern`` in a trie node of length
    ``n`` with bitmap ``bm``.

    The bitmap splits into two bit planes, ``bm & EVEN_BITS`` (lo) and
    ``bm >> 1 & EVEN_BITS`` (hi), with bit ``2b`` set iff branch ``b``'s
    pattern has its low or high bit set: inline branches are hi but not lo,
    collections both, sub-nodes lo but not hi; each rank is the popcount
    of one plane expression.  Inline entries come first, right after the
    bitmap, then collection entries, each region in branch order and each
    entry ``w`` slots wide.  Sub-nodes close the node in branch order, so a
    sub-node sits as many items from the end as there are sub-nodes on
    branches >= ``branch``.
    """
    offset = branch << 1
    if pattern == NODE:
        return n - ((bm & ~(bm >> 1) & EVEN_BITS) >> offset).bit_count()
    hi = (bm >> 1) & EVEN_BITS
    below = (1 << offset) - 1
    if pattern == INLINE:
        return 1 + w * (hi & ~bm & below).bit_count()
    both = hi & bm
    return 1 + w * ((hi ^ both).bit_count() + (both & below).bit_count())


# -- payload transitions -------------------------------------------------------


def _add_value(cfg, pattern, k0, payload, value):
    """Entry ``k0`` of ``pattern`` (``payload`` is its value or nested set
    root) with ``value`` added: ``(pattern, slot_values, tuple_delta)``,
    or None when nothing changes.

    An EMPTY entry is a key not yet present: it becomes inline.  A width-1
    entry is its element; an inline value is kept when equal, replaced in
    a map and promoted to a nested two-set in a multimap; a collection
    entry inserts into its nested set.
    """
    if pattern == EMPTY:
        return INLINE, ((k0, value) if cfg.width == 2 else (k0,)), 1
    vcfg = cfg.value_cfg
    if pattern == INLINE:
        if cfg.width == 1 or payload is value or payload == value:
            return None
        if vcfg is None:
            return INLINE, (k0, value), 0
        return COLLECTION, (k0, _set_of_two(vcfg, payload, value)), 1
    vh = vcfg.hasher(value) & M32
    new_root, _, _ = payload.insert(vcfg, 0, vh, value, None)
    if new_root is payload:
        return None
    return COLLECTION, (k0, new_root), 1


def put_values(cfg, pattern, k0, payload, values):
    """Entry ``k0`` of ``pattern`` replaced by ``values``, a multimap key's
    whole new entry as ``(key, root, size)``: the caller's key object, a
    non-empty nested set root, stored inline when it holds one value and
    as is otherwise, and its size, or None when unknown.  Returns
    ``(pattern, slot_values, tuple_delta)``, or None when the key already
    holds equal values; node ``equals`` stops early on shared subtrees, and
    entries are counted only once the values are known to differ.
    """
    key, root, n = values
    single = _single_entry(root, 1)
    if single is None:
        p, new = COLLECTION, root
    else:
        p, new, n = INLINE, single[1][0], 1
    vcfg = cfg.value_cfg
    if p == pattern and (
        payload.equals(vcfg, new) if p == COLLECTION else _eq(payload, new)
    ):
        return None
    if n is None:
        n = count_entries(vcfg, root)
    if pattern == EMPTY:
        old = 0
    elif pattern == INLINE:
        old = 1
    else:
        old = count_entries(vcfg, payload)
    return p, (key, new), n - old


def _drop_value(cfg, pattern, k0, payload, value, drop_key):
    """Entry ``k0`` of ``pattern`` with ``value`` removed, or with every
    value when ``drop_key``: ``(pattern, slot_values, tuple_delta)``, or
    None when nothing changes.  A nested set left with one value demotes
    back to an inline pair.
    """
    if pattern == INLINE:
        if drop_key or payload is value or payload == value:
            return EMPTY, (), -1
        return None
    vcfg = cfg.value_cfg
    if drop_key:
        return EMPTY, (), -count_entries(vcfg, payload)
    vh = vcfg.hasher(value) & M32
    new_root, _, _ = payload.delete(vcfg, 0, vh, value, None, True)
    if new_root is payload:
        return None
    single = _single_entry(new_root, 1)
    if single is not None:
        return INLINE, (k0, single[1][0]), -1
    return COLLECTION, (k0, new_root), -1


class _Node:
    """Iteration shared by both node kinds, driven by ``region_counts``
    over the slot run that ``_run`` locates."""

    __slots__ = ()

    def iter_entries(self, cfg):
        w = cfg.width
        run, start = self._run()
        n_i, n_c, _ = self.region_counts(w)
        end_i = start + w * n_i
        end = end_i + 2 * n_c
        if w == 1:
            yield from run[start:end_i]
        else:
            for pos in range(start, end_i, 2):
                yield (run[pos], run[pos + 1])
        vcfg = cfg.value_cfg
        for pos in range(end_i, end, 2):
            k = run[pos]
            for v in run[pos + 1].iter_entries(vcfg):
                yield (k, v)
        for child in run[end:]:
            yield from child.iter_entries(cfg)

    def iter_keys(self, cfg):
        w = cfg.width
        run, start = self._run()
        n_i, n_c, _ = self.region_counts(w)
        end = start + w * n_i + 2 * n_c
        yield from run[start:end:w]
        for child in run[end:]:
            yield from child.iter_keys(cfg)


class TrieNode(_Node, tuple):
    """``(bitmap, *slots)``: one tuple per node (see the module docstring)."""

    __slots__ = ()

    STATS_KEY = "trie_nodes"

    __eq__ = object.__eq__
    __ne__ = object.__ne__
    __hash__ = object.__hash__

    def __sizeof__(self):
        # a heap tuple subtype is allocated with one item more than it
        # holds, the sentinel that tuple.__sizeof__ leaves out
        return tuple.__sizeof__(self) + tuple.__itemsize__

    @property
    def bitmap(self):
        return self[0]

    @property
    def slots(self):
        return self[1:]

    def _run(self):
        return self, 1

    def region_counts(self, w):
        bm = self[0]
        lo = bm & EVEN_BITS
        hi = (bm >> 1) & EVEN_BITS
        both = lo & hi
        return (hi ^ both).bit_count(), both.bit_count(), (lo ^ both).bit_count()

    def _placed(self, w, branch, pos, size, pattern, vals):
        """This node with the ``size`` items at ``pos`` taken out and
        ``vals`` placed as ``branch``'s entry, now of ``pattern``."""
        bm = self[0]
        ins = pos  # an entry that keeps its pattern keeps its place
        if (bm >> (branch << 1)) & 0b11 != pattern:
            bm = set_pattern(bm, branch, pattern)
            if pattern != EMPTY:
                ins = _pos(bm, w, pattern, branch, len(self) - size + len(vals))
        return TrieNode(_splice(self, pos, size, ins, vals, (bm,)))

    def lookup(self, cfg, shift, key_hash, key):
        """``(pattern, payload)`` for ``key`` or None.

        ``payload`` is the inline value (the element itself at width 1) or
        the nested set root for COLLECTION entries.  Descends level by level
        in one loop and hands a collision bucket its own ``lookup``.
        """
        node = self
        while True:
            bm = node[0]
            offset = ((key_hash >> shift) & 31) << 1
            pattern = (bm >> offset) & 0b11
            if pattern != NODE:
                break
            # _pos for NODE: the sub-nodes on branches >= this one close the node
            above = (bm & ~(bm >> 1) & EVEN_BITS) >> offset
            node = node[len(node) - above.bit_count()]
            shift += 5
            if type(node) is not TrieNode:
                return node.lookup(cfg, shift, key_hash, key)
        if pattern == EMPTY:
            return None
        w = cfg.width
        if pattern == INLINE:
            # _pos for INLINE: the inline branches below this one come first
            below = (1 << offset) - 1
            pos = 1 + w * ((bm >> 1) & ~bm & EVEN_BITS & below).bit_count()
        else:
            pos = _pos(bm, w, COLLECTION, offset >> 1, len(node))
        k0 = node[pos]
        if k0 is key or k0 == key:
            return (pattern, node[pos + w - 1])
        return None

    def insert(self, cfg, shift, key_hash, key, value, add=_add_value):
        """This node with ``add``'s transition applied to ``key``'s entry:
        ``_add_value`` adds ``value``, ``put_values`` replaces the entry."""
        bm = self[0]
        w = cfg.width
        branch = (key_hash >> shift) & 31
        pattern = (bm >> (branch << 1)) & 0b11
        if pattern == EMPTY:
            # an empty group takes the pattern by OR; nothing is removed,
            # so the entry is placed by plain insertion
            p, vals, td = add(cfg, EMPTY, key, None, value)
            bm |= p << (branch << 1)
            pos = _pos(bm, w, p, branch, len(self) + len(vals))
            return TrieNode((bm,) + self[1:pos] + vals + self[pos:]), td, 1
        pos = _pos(bm, w, pattern, branch, len(self))
        if pattern == NODE:
            child = self[pos]
            new_child, td, kd = child.insert(cfg, shift + 5, key_hash, key, value, add)
            if new_child is child:
                return self, 0, 0
            return TrieNode(_replaced(self, pos, new_child)), td, kd
        k0 = self[pos]
        if k0 is key or k0 == key:
            added = add(cfg, pattern, k0, self[pos + w - 1], value)
            if added is None:
                return self, 0, 0
            p, vals, td = added
            return self._placed(w, branch, pos, w, p, vals), td, 0
        # different key on the same branch: push both one level down
        h0 = cfg.hasher(k0) & M32
        s0 = self[pos : pos + w]
        p1, s1, td = add(cfg, EMPTY, key, None, value)
        child = _merge(shift + 5, h0, pattern, s0, key_hash, p1, s1)
        return self._placed(w, branch, pos, w, NODE, (child,)), td, 1

    def delete(self, cfg, shift, key_hash, key, value, drop_key):
        bm = self[0]
        branch = (key_hash >> shift) & 31
        pattern = (bm >> (branch << 1)) & 0b11
        if pattern == EMPTY:
            return self, 0, 0
        w = cfg.width
        pos = _pos(bm, w, pattern, branch, len(self))
        if pattern != NODE:
            k0 = self[pos]
            if not (k0 is key or k0 == key):
                return self, 0, 0
            dropped = _drop_value(cfg, pattern, k0, self[pos + w - 1], value, drop_key)
            if dropped is None:
                return self, 0, 0
            p, vals, td = dropped
            kd = -1 if p == EMPTY else 0
            return self._placed(w, branch, pos, w, p, vals), td, kd

        child = self[pos]
        new_child, td, kd = child.delete(cfg, shift + 5, key_hash, key, value, drop_key)
        if new_child is child:
            return self, 0, 0
        single = _single_entry(new_child, w)
        if single is not None:
            # child is down to one payload entry: pull it into this node
            p, vals = single
            return self._placed(w, branch, pos, 1, p, vals), td, kd
        lifted = _collision_under_chain(new_child, w)
        if lifted is not None:
            # chain node left above a collision bucket: float the bucket up
            new_child = lifted
        return TrieNode(_replaced(self, pos, new_child)), td, kd

    def equals(self, cfg, other):
        if self is other:
            return True
        if type(other) is not TrieNode or other[0] != self[0]:
            return False
        w = cfg.width
        n_i, n_c, _ = self.region_counts(w)
        end_i = 1 + w * n_i
        end = end_i + 2 * n_c
        for pos in range(1, end_i):
            if not _eq(self[pos], other[pos]):
                return False
        vcfg = cfg.value_cfg
        for pos in range(end_i, end, 2):
            if not _eq(self[pos], other[pos]):
                return False
            if not self[pos + 1].equals(vcfg, other[pos + 1]):
                return False
        for pos in range(end, len(self)):
            if not self[pos].equals(cfg, other[pos]):
                return False
        return True


class CollisionNode(_Node):
    """Bucket for entries whose 32-bit hashes are fully equal.

    Keeps the same two payload regions as ``TrieNode`` (inline entries,
    then collection entries) but no bitmap and no sub-nodes; ``inline_n``
    counts the inline entries.  Region-internal order follows the history
    (the order of inserts, or of first appearance in a bulk build), so
    structural equality compares regions as unordered collections.
    """

    __slots__ = ("hash", "inline_n", "slots")

    STATS_KEY = "collision_nodes"

    def __init__(self, key_hash, inline_n, slots):
        self.hash = key_hash
        self.inline_n = inline_n
        self.slots = slots

    def _run(self):
        return self.slots, 0

    def region_counts(self, w):
        n_i = self.inline_n
        return n_i, (len(self.slots) - w * n_i) // 2, 0

    def _find(self, w, key):
        """``(pattern, pos)`` of ``key``'s entry, or None."""
        slots = self.slots
        for pos in range(0, len(slots), w):
            k0 = slots[pos]
            if k0 is key or k0 == key:
                return (INLINE if pos < w * self.inline_n else COLLECTION), pos
        return None

    def _placed(self, w, old, pos, size, pattern, vals):
        """This bucket with the ``size`` slots of its ``old``-pattern entry
        at ``pos`` taken out and ``vals`` placed as an entry of ``pattern``.
        Regions keep insertion order, so an entry that changes its pattern
        closes its new region."""
        inline_n = self.inline_n + (pattern == INLINE) - (old == INLINE)
        slots = self.slots
        ins = pos  # an entry that keeps its pattern keeps its place
        if pattern != old and pattern != EMPTY:
            # in the result, the inline region ends at w * inline_n and the
            # collection region with the run
            end = w * inline_n if pattern == INLINE else len(slots) - size + w
            ins = end - w
        return CollisionNode(self.hash, inline_n, _splice(slots, pos, size, ins, vals))

    def lookup(self, cfg, shift, key_hash, key):
        if key_hash != self.hash:
            return None
        w = cfg.width
        found = self._find(w, key)
        if found is None:
            return None
        pattern, pos = found
        return (pattern, self.slots[pos + w - 1])

    def insert(self, cfg, shift, key_hash, key, value, add=_add_value):
        if key_hash != self.hash:
            # hashes differ after all: give the bucket a parent level first
            bm = NODE << (((self.hash >> shift) & 31) << 1)
            return TrieNode((bm, self)).insert(cfg, shift, key_hash, key, value, add)
        w = cfg.width
        slots = self.slots
        found = self._find(w, key)
        if found is None:
            p, vals, td = add(cfg, EMPTY, key, None, value)
            return self._placed(w, EMPTY, len(slots), 0, p, vals), td, 1
        pattern, pos = found
        added = add(cfg, pattern, slots[pos], slots[pos + w - 1], value)
        if added is None:
            return self, 0, 0
        p, vals, td = added
        return self._placed(w, pattern, pos, w, p, vals), td, 0

    def delete(self, cfg, shift, key_hash, key, value, drop_key):
        if key_hash != self.hash:
            return self, 0, 0
        w = cfg.width
        found = self._find(w, key)
        if found is None:
            return self, 0, 0
        pattern, pos = found
        slots = self.slots
        payload = slots[pos + w - 1]
        dropped = _drop_value(cfg, pattern, slots[pos], payload, value, drop_key)
        if dropped is None:
            return self, 0, 0
        p, vals, td = dropped
        kd = -1 if p == EMPTY else 0
        return self._placed(w, pattern, pos, w, p, vals), td, kd

    def equals(self, cfg, other):
        if self is other:
            return True
        if (
            type(other) is not CollisionNode
            or other.hash != self.hash
            or other.inline_n != self.inline_n
            or len(other.slots) != len(self.slots)
        ):
            return False
        w = cfg.width
        base = w * self.inline_n
        mine = [self.slots[i : i + w] for i in range(0, base, w)]
        theirs = [other.slots[i : i + w] for i in range(0, base, w)]
        if not _match_unordered(mine, theirs, lambda a, b: all(map(_eq, a, b))):
            return False
        vcfg = cfg.value_cfg
        end = len(self.slots)
        mine = [self.slots[i : i + 2] for i in range(base, end, 2)]
        theirs = [other.slots[i : i + 2] for i in range(base, end, 2)]
        return _match_unordered(
            mine, theirs, lambda a, b: _eq(a[0], b[0]) and a[1].equals(vcfg, b[1])
        )


def _match_unordered(left, right, same):
    if len(left) != len(right):
        return False
    remaining = list(right)
    for a in left:
        for i, b in enumerate(remaining):
            if same(a, b):
                del remaining[i]
                break
        else:
            return False
    return True


# -- construction helpers ------------------------------------------------------


EMPTY_ROOT = TrieNode((0,))


def _set_of_two(vcfg, v0, v1, bitmaps=None):
    """Root of the nested set ``{v0, v1}``; ``bitmaps`` is the table of
    the build it belongs to (see :func:`build_root`), if any."""
    h0 = vcfg.hasher(v0) & M32
    h1 = vcfg.hasher(v1) & M32
    node = _merge(0, h0, INLINE, (v0,), h1, INLINE, (v1,), bitmaps)
    if h0 == h1:
        # a root is never a bucket: hang it on its first-level branch
        return TrieNode((_bitmap(NODE << ((h0 & 31) << 1), bitmaps), node))
    return node


def _bitmap(bm, bitmaps):
    """``bm``, or the equal int that the build's ``bitmaps`` table holds."""
    if bitmaps is None:
        return bm
    return bitmaps.setdefault(bm, bm)


def _merge(shift, h0, p0, s0, h1, p1, s1, bitmaps=None):
    """Node holding two entries that fell on one branch a level above.

    ``s0``/``s1`` are the entries' slot tuples, ``p0``/``p1`` their
    payload patterns.  Recurses while the hash fragments keep agreeing;
    fully equal hashes become a collision bucket.  A build passes its
    ``bitmaps`` table; a point update passes none.
    """
    if h0 == h1:
        return _collision(h0, ((p0, s0), (p1, s1)))
    b0 = (h0 >> shift) & 31
    b1 = (h1 >> shift) & 31
    if b0 == b1:
        child = _merge(shift + 5, h0, p0, s0, h1, p1, s1, bitmaps)
        return TrieNode((_bitmap(NODE << (b0 << 1), bitmaps), child))
    bm = _bitmap((p0 << (b0 << 1)) | (p1 << (b1 << 1)), bitmaps)
    # inline region before collection region (INLINE < COLLECTION), each
    # ordered by branch
    if (p0, b0) < (p1, b1):
        return TrieNode((bm,) + s0 + s1)
    return TrieNode((bm,) + s1 + s0)


def _collision(key_hash, pairs):
    inline = [s for p, s in pairs if p == INLINE]
    coll = [s for p, s in pairs if p == COLLECTION]
    slots = tuple(v for vals in inline + coll for v in vals)
    return CollisionNode(key_hash, len(inline), slots)


def build_root(cfg, entries, bitmaps=None):
    """``(root, tuple_count, key_count)`` of the trie holding ``entries``,
    elements at width 1 and ``(key, value)`` pairs at width 2.

    The result is node for node the trie that inserting ``entries`` one by
    one into the empty root gives, with the same objects kept: a key's
    first object, a set's first element, a map's last value (an equal later
    value keeps the earlier object) and a multimap key's values in input
    order.  Canonical form makes a trie's shape a function of its content,
    so the nodes are built bottom-up, each exactly once: one pass groups the
    entries by 32-bit hash, merging equal keys, and :func:`_trie_node`
    partitions the groups by hash fragment.  A collision bucket orders each
    region by the first appearance of its keys.

    Every node of the build takes its bitmap through ``bitmaps``, a table
    from each bitmap value to its first int object, so equal bitmaps share
    one int.  A top-level call makes the table and drops it on return; a
    collection entry's nested build shares its parent's.  The table never
    outlives the build, so a fresh build allocates each distinct bitmap
    once and two builds share none of theirs.
    """
    if bitmaps is None:
        bitmaps = {}
    hasher = cfg.hasher
    first = {}  # hash -> the entry of the first key with that hash
    more = {}  # hash -> entries of later, different keys with that hash
    if cfg.width == 1:
        for e in entries:
            h = hasher(e) & M32
            e0 = first.setdefault(h, e)
            if e0 is not e and not e0 == e:
                bucket = more.setdefault(h, [])
                if not any(k is e or k == e for k in bucket):
                    bucket.append(e)
    else:
        vcfg = cfg.value_cfg
        for key, value in entries:
            h = hasher(key) & M32
            entry = [key, value]
            e0 = first.setdefault(h, entry)
            if e0 is entry:
                continue
            k0 = e0[0]
            if not (k0 is key or k0 == key):
                bucket = more.setdefault(h, [])
                e0 = next((e for e in bucket if e[0] is key or e[0] == key), entry)
                if e0 is entry:
                    bucket.append(entry)
                    continue
            # a known key: the sequential fold's _add_value, on a list
            v0 = e0[1]
            if len(e0) == 2 and (v0 is value or v0 == value):
                continue
            if vcfg is None:
                e0[1] = value
            else:
                e0.append(value)

    if not first:
        return EMPTY_ROOT, 0, 0
    items = []  # (hash, pattern, slot values), one per hash
    tuples = 0
    for h, e0 in first.items():
        bucket = more.get(h)
        if bucket is None:
            p, s, n = _grouped_entry(cfg, e0, bitmaps)
            items.append((h, p, s))
            tuples += n
            continue
        pairs = []
        for e in [e0, *bucket]:
            p, s, n = _grouped_entry(cfg, e, bitmaps)
            pairs.append((p, s))
            tuples += n
        items.append((h, NODE, (_collision(h, pairs),)))
    keys = len(first) + sum(map(len, more.values()))
    if len(items) == 1:
        # a single hash: its entry, or its bucket, hangs off the root
        h, p, s = items[0]
        bm = p << ((h & 31) << 1)
        return TrieNode((bitmaps.setdefault(bm, bm),) + s), tuples, keys
    return _trie_node(0, items, bitmaps), tuples, keys


def _grouped_entry(cfg, e, bitmaps):
    """``(pattern, slot values, value count)`` of one key grouped by
    :func:`build_root`: an element, or a ``[key, value, ...]`` list with a
    multimap key's values in input order.  A nested set's nodes take their
    bitmaps from the build's ``bitmaps`` table."""
    if cfg.width == 1:
        return INLINE, (e,), 1
    if len(e) == 2:
        return INLINE, (e[0], e[1]), 1
    if len(e) == 3:  # the two values are known to differ
        return COLLECTION, (e[0], _set_of_two(cfg.value_cfg, e[1], e[2], bitmaps)), 2
    root, n, _ = build_root(cfg.value_cfg, e[1:], bitmaps)
    return COLLECTION, (e[0], root), n


_REGION = {INLINE: 0, COLLECTION: 1, NODE: 2}


def _trie_node(shift, items, bitmaps):
    """``TrieNode`` at ``shift`` over ``items``, ``(hash, pattern, slot
    values)`` triples of two or more distinct hashes; a branch that several
    of them share gets a sub-node one level down.  Bitmaps come from the
    build's ``bitmaps`` table."""
    if len(items) == 2:
        (h0, p0, s0), (h1, p1, s1) = items
        if p0 != NODE and p1 != NODE:
            return _merge(shift, h0, p0, s0, h1, p1, s1, bitmaps)
    by_branch = {}
    for item in items:
        b = (item[0] >> shift) & 31
        group = by_branch.get(b)
        if group is None:
            by_branch[b] = [item]
        else:
            group.append(item)
    bm = 0
    regions = ([], [], [])
    for b in sorted(by_branch):
        group = by_branch[b]
        if len(group) == 1:
            _, p, s = group[0]
        else:
            p, s = NODE, (_trie_node(shift + 5, group, bitmaps),)
        bm |= p << (b << 1)
        regions[_REGION[p]].extend(s)
    inline, coll, nodes = regions
    return TrieNode((bitmaps.setdefault(bm, bm), *inline, *coll, *nodes))


def _single_entry(node, w):
    """``(pattern, slot_values)`` if ``node`` holds exactly one payload
    entry and nothing else, like after a delete; None otherwise."""
    # cheap rejection: one entry fills w slots
    if type(node) is TrieNode:
        if len(node) != w + 1:
            return None
        slots = node[1:]
    else:
        slots = node.slots
        if len(slots) != w:
            return None
    n_i, n_c, n_n = node.region_counts(w)
    if n_n or n_i + n_c != 1:
        return None
    return (INLINE if n_i else COLLECTION), slots


def _collision_under_chain(node, w):
    """The collision bucket of a ``[0 payload, 1 sub-node]`` chain node,
    if that sub-node is a collision bucket; None otherwise."""
    if type(node) is not TrieNode or len(node) != 2:
        return None
    child = node[1]
    if type(child) is not CollisionNode or node.region_counts(w) != (0, 0, 1):
        return None
    return child


def count_entries(cfg, node):
    """Number of flattened entries below ``node`` (set cardinality for
    width-1 tries), summed from region counts without visiting them."""
    w = cfg.width
    n_i, n_c, _ = node.region_counts(w)
    run, start = node._run()
    end_i = start + w * n_i
    end = end_i + 2 * n_c
    total = n_i
    for pos in range(end_i + 1, end, 2):
        total += count_entries(cfg.value_cfg, run[pos])
    for child in run[end:]:
        total += count_entries(cfg, child)
    return total


# -- validation ----------------------------------------------------------------


class InvariantError(AssertionError):
    pass


def _fail(msg):
    raise InvariantError(msg)


def validate_root(cfg, root):
    """Recursively check every structural invariant; returns
    ``(tuple_count, key_count)`` recounted from scratch."""
    if type(root) is not TrieNode:
        _fail(f"root must be a TrieNode, got {type(root).__name__}")
    return _validate(cfg, root, 0, 0, True)


def _validate(cfg, node, shift, prefix, is_root):
    w = cfg.width
    if type(node) is CollisionNode:
        return _validate_collision(cfg, node, shift, prefix)
    if shift > 30:
        _fail(f"TrieNode below the last hash level (shift {shift})")
    bm = node.bitmap
    slots = node.slots
    if bm >> 64:
        _fail("bitmap wider than 64 bits")
    n_i, n_c, n_n = node.region_counts(w)
    if n_c and w == 1:
        _fail("collection entries in a width-1 trie")
    expected = w * n_i + 2 * n_c + n_n
    if len(slots) != expected:
        _fail(f"slot run has {len(slots)} cells, bitmap implies {expected}")
    if expected > 64:
        _fail(f"trie node with {expected} slots (maximum is 64)")
    if not is_root:
        if n_i + n_c + n_n == 0:
            _fail("empty non-root node")
        if n_n == 0 and n_i + n_c == 1:
            _fail("non-root node holds a single payload entry and no sub-nodes")
        if n_i + n_c == 0 and n_n == 1 and type(slots[0]) is CollisionNode:
            _fail("chain node left above a collision bucket")

    mask = (1 << shift) - 1
    tuples = 0
    keys = 0
    pos = 0
    seen_branches = []
    for branch in range(32):
        if (bm >> (branch << 1)) & 0b11 == INLINE:
            seen_branches.append((branch, INLINE))
    for branch in range(32):
        if (bm >> (branch << 1)) & 0b11 == COLLECTION:
            seen_branches.append((branch, COLLECTION))
    for branch in range(32):
        if (bm >> (branch << 1)) & 0b11 == NODE:
            seen_branches.append((branch, NODE))

    for branch, pattern in seen_branches:
        if pattern == INLINE:
            key = slots[pos]
            _check_hash(cfg, key, shift, prefix, branch, mask)
            tuples += 1
            keys += 1
            pos += w
        elif pattern == COLLECTION:
            key = slots[pos]
            _check_hash(cfg, key, shift, prefix, branch, mask)
            set_root = slots[pos + 1]
            vcfg = cfg.value_cfg
            sub_tuples, _ = _validate(vcfg, set_root, 0, 0, True)
            if sub_tuples < 2:
                _fail(f"collection entry for {key!r} holds {sub_tuples} values")
            tuples += sub_tuples
            keys += 1
            pos += 2
        else:
            child = slots[pos]
            child_prefix = prefix | (branch << shift)
            sub_tuples, sub_keys = _validate(cfg, child, shift + 5, child_prefix, False)
            tuples += sub_tuples
            keys += sub_keys
            pos += 1
    return tuples, keys


def _validate_collision(cfg, node, shift, prefix):
    w = cfg.width
    n_i, n_c, _ = node.region_counts(w)
    if w * n_i + 2 * n_c != len(node.slots):
        _fail("collision slot run does not match its entry counts")
    if n_i + n_c < 2:
        _fail("collision bucket with fewer than two entries")
    mask = (1 << shift) - 1 if shift <= 32 else M32
    if node.hash & mask != prefix & mask:
        _fail("collision bucket hash disagrees with its path prefix")
    tuples = 0
    seen_keys = []
    for r in range(n_i):
        key = node.slots[w * r]
        if cfg.hasher(key) & M32 != node.hash:
            _fail(f"collision entry {key!r} does not hash to the bucket hash")
        for other in seen_keys:
            if _eq(other, key):
                _fail(f"duplicate key {key!r} in collision bucket")
        seen_keys.append(key)
        tuples += 1
    base = w * n_i
    vcfg = cfg.value_cfg
    for r in range(n_c):
        key = node.slots[base + 2 * r]
        if cfg.hasher(key) & M32 != node.hash:
            _fail(f"collision entry {key!r} does not hash to the bucket hash")
        for other in seen_keys:
            if _eq(other, key):
                _fail(f"duplicate key {key!r} in collision bucket")
        seen_keys.append(key)
        sub_tuples, _ = _validate(vcfg, node.slots[base + 2 * r + 1], 0, 0, True)
        if sub_tuples < 2:
            _fail(f"collection entry for {key!r} holds {sub_tuples} values")
        tuples += sub_tuples
    return tuples, n_i + n_c


def _check_hash(cfg, key, shift, prefix, branch, mask):
    h = cfg.hasher(key) & M32
    if h & mask != prefix:
        _fail(f"key {key!r} stored under the wrong hash prefix")
    if shift <= 30 and (h >> shift) & 31 != branch:
        _fail(f"key {key!r} stored on the wrong branch")


def node_stats(cfg, root):
    """Structural counters: nodes, collision buckets, entry kinds, depth."""
    stats = {
        "trie_nodes": 0,
        "collision_nodes": 0,
        "inline_entries": 0,
        "collection_entries": 0,
        "nested_set_nodes": 0,
        "max_depth": 0,
    }
    _collect_stats(cfg, root, 1, stats)
    return stats


def _collect_stats(cfg, node, depth, stats):
    stats["max_depth"] = max(stats["max_depth"], depth)
    stats[node.STATS_KEY] += 1
    w = cfg.width
    n_i, n_c, n_n = node.region_counts(w)
    slots = node.slots
    stats["inline_entries"] += n_i
    stats["collection_entries"] += n_c
    pos = w * n_i
    for r in range(n_c):
        nested = node_stats(cfg.value_cfg, slots[pos + 2 * r + 1])
        stats["nested_set_nodes"] += nested["trie_nodes"] + nested["collision_nodes"]
    pos += 2 * n_c
    for r in range(n_n):
        _collect_stats(cfg, slots[pos + r], depth + 1, stats)
