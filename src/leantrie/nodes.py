"""Trie node machinery shared by the set, map and multimap.

Layout.  A node is one immutable tuple:

* a trie node, ``(bitmap, *slots)``, five hash bits per level (shifts
  0..30).  The bitmap holds a 2-bit pattern per branch and, above those,
  a pair plane (see :mod:`leantrie.bits`).  The slot run is ``[inline
  entries][pair entries][collection entries][sub-nodes]``, each region
  in branch order.  A trie's root, at shift 0, top-level or nested, is a
  ``TrieNode``, a ``tuple`` subclass whose methods the structures call.
  Every trie node below a root is a plain ``tuple``: it copies, reads
  and allocates as fast as CPython's tuples do, with no extra slot, and
  the garbage collector stops tracking one whose items are all untracked
  objects, such as ints and strings;
* ``CollisionNode``: ``(hash, inline_n, pair_n, *slots)``, a bucket of
  keys of one full 32-bit hash: the same three payload regions, with
  their entry counts in place of a bitmap and no sub-nodes.  A bucket's
  type is its kind: ``type(node) is CollisionNode`` tells the two apart.

A root and a bucket, the two ``_Node`` subclasses, compare and hash by
identity; an inner trie node, a plain tuple, compares by content, and
nothing compares nodes by ``==``.

An inline entry is ``width`` slots (1 for sets, 2 for maps and
multimaps), a pair entry ``PAIR_W`` slots ``(key, v0, v1)``, a collection
entry ``COLL_W`` slots ``(key, nested set root)`` and a sub-node one
slot.  Which slots hold values and which a nested root is read from the
bitmap or the counts alone.  A ``TrieConfig`` gives a trie its
``width``, its hasher and, for a multimap, its nested sets' config.

Invariants, checked by :func:`validate_root`:

* canonical form: equal content gives structurally equal tries whatever
  the history.  A child left with one payload entry is lifted into its
  parent, and a chain left above a bucket collapses;
* a key holds one inline value, a pair of two unequal values or a nested
  set of three or more, by their number alone;
* a pair holds its two values in their nested set's order: the first
  5-bit hash fragment, from the low end, in which they differ decides;
* a bucket holds at least two keys and sits at the shallowest depth that
  its hash prefix forces.  Its regions keep the history's order.

Where each rule lives:

* region bounds: :func:`regions`, for either node kind, the one decoder
  of a node's regions; a traversal or footprint walk calls it once per
  node.  A node's head, the items before its slot run, ends at the
  ``start`` it gives.  Ranks in a trie node: :func:`_pos`, the reference
  rule, which :func:`_placed` and the one-node demotion call.
  :func:`_lookup` and :func:`_update` write its ranks of all four kinds
  in line; ``_update`` ranks a stored entry and a new one on an EMPTY
  branch with the same lines.  A key's entry in a bucket:
  ``CollisionNode._find``;
* point updates: ``_update(node, cfg, shift, key_hash, key, value,
  change)`` of a trie node, ``TrieNode.update`` at a root, and
  ``CollisionNode.update`` give ``(node, key_delta)``, the receiver
  itself when nothing changes.  They write each changed node as one list
  edit of the old node's items; :func:`_placed` moves an entry that
  changes its pattern.  ``change`` is one of the transitions :func:`_add_value`,
  :func:`put_values`, :func:`_drop_value` and :func:`_drop_key`;
* canonical form after a key leaves a child: :func:`_lifted`;
* construction: :func:`build_root` groups its input into one entry per
  key, and :func:`_partition` lays out the trie's nodes bottom-up.
  :func:`_merge` makes the node of two entries that share a branch, and
  :func:`_collision` lays out a bucket of entries of mixed kinds;
* set intersection on nodes: :func:`intersect`.  Traversal:
  :func:`walk`.
"""

from itertools import chain, repeat

from .bits import (
    COLLECTION,
    EMPTY,
    EVEN_BITS,
    INLINE,
    NODE,
    PAIR,
    PAIR_PLANE,
    pattern_bits,
)

M32 = 0xFFFFFFFF
PAIR_W = 3  # slots per pair entry: the key and its two values
COLL_W = 2  # slots per collection entry: the key and its nested set root


def fold_hash(obj):
    """Default hasher: Python's hash folded onto 32 bits.  A hash lies in
    [-2**63, 2**63), so its arithmetic shift by 32 has as its low 32 bits
    the high half of its 64-bit two's complement: the fold needs no
    unsigned 64-bit mask first."""
    h = hash(obj)
    return (h ^ (h >> 32)) & M32


class TrieConfig:
    """Per-structure parameters shared by every node of one trie."""

    __slots__ = ("width", "hasher", "value_cfg")

    def __init__(self, width, hasher, value_cfg=None):
        self.width = width
        self.hasher = hasher
        self.value_cfg = value_cfg


def set_config(element_hash=None):
    return TrieConfig(1, element_hash or fold_hash)


def map_config(key_hash=None):
    return TrieConfig(2, key_hash or fold_hash)


def multimap_config(key_hash=None, value_hash=None):
    return TrieConfig(2, key_hash or fold_hash, set_config(value_hash))


def _eq(a, b):
    return a is b or a == b


def _pos(bm, w, pattern, branch, n):
    """Index of ``branch``'s entry of ``pattern`` in a trie node of length
    ``n`` with bitmap ``bm``.

    The bitmap's 64 pattern bits split into two bit planes, ``bm &
    EVEN_BITS`` (lo) and ``bm >> 1 & EVEN_BITS`` (hi), with bit ``2b`` set
    iff branch ``b``'s pattern has its low or high bit set: inline branches
    are hi but not lo, collections and pairs both, sub-nodes lo but not hi;
    the pair plane ``bm >> PAIR_PLANE`` has bit ``b`` set iff branch ``b``
    is a pair.  Each rank is the popcount of one plane expression.  Inline
    entries come first, right after the bitmap, ``w`` slots each, then pair
    entries, ``PAIR_W`` slots each, then collection entries, ``COLL_W``
    slots each, each region in branch order.  Sub-nodes close the node in
    branch order, so a sub-node sits as many items from the end as there
    are sub-nodes on branches >= ``branch``.
    """
    offset = branch << 1
    if pattern == NODE:
        return n - ((bm & ~(bm >> 1) & EVEN_BITS) >> offset).bit_count()
    hi = (bm >> 1) & EVEN_BITS
    if pattern == INLINE:
        return 1 + w * (hi & ~bm & ((1 << offset) - 1)).bit_count()
    both = hi & bm
    pos = 1 + w * (hi ^ both).bit_count()
    pairs = bm >> PAIR_PLANE
    if pairs:
        pairs_below = (pairs & ((1 << branch) - 1)).bit_count()
        if pattern == PAIR:
            return pos + PAIR_W * pairs_below
        pos += PAIR_W * pairs.bit_count() - COLL_W * pairs_below
    elif pattern == PAIR:
        return pos
    return pos + COLL_W * (both & ((1 << offset) - 1)).bit_count()


def _payload(node, pattern, pos, w):
    """The payload of ``node``'s entry of ``pattern`` at ``pos``: the
    inline value (the element itself at width 1), a pair's two values as a
    tuple, or the nested set root."""
    return node[pos + 1 : pos + PAIR_W] if pattern == PAIR else node[pos + w - 1]


class ValuePair(tuple):
    """A pair entry's two values, as ``lookup`` hands them out.  Answers
    ``lookup`` as the root of the nested set of the two would, by
    equality alone."""

    __slots__ = ()

    def lookup(self, cfg, shift, value_hash, value):
        for v in self:
            if v is value or v == value:
                return (INLINE, v)
        return None


def _same_values(a, b):
    """Whether the value pairs ``a`` and ``b`` hold equal values, in either
    order (values of equal hash are unordered in a pair)."""
    a0, a1 = a
    b0, b1 = b
    return (_eq(a0, b0) and _eq(a1, b1)) or (_eq(a0, b1) and _eq(a1, b0))


def _same_payload(vcfg, pattern, a, b):
    """Whether the payloads ``a`` and ``b`` of two entries of ``pattern``
    (as :func:`_payload` reads them) hold equal values."""
    if pattern == COLLECTION:
        return _equals(a, vcfg, b)
    if pattern == PAIR:
        return _same_values(a, b)
    return _eq(a, b)


def _trie_order(h0, h1):
    """Whether a value of hash ``h0`` comes no later than one of ``h1`` in
    a nested set's iteration order: the first 5-bit fragment, from the low
    end, in which the hashes differ decides."""
    diff = h0 ^ h1
    if not diff:
        return True
    shift = ((diff & -diff).bit_length() - 1) // 5 * 5
    return (h0 >> shift) & 31 < (h1 >> shift) & 31


# -- payload transitions -------------------------------------------------------


def _add_value(cfg, pattern, k0, payload, value):
    """Entry ``k0`` of ``pattern`` (``payload`` as :func:`_payload` reads
    it) with ``value`` added: ``(pattern, slot_values)``, or None when
    nothing changes.

    An EMPTY entry is a key not yet present: it becomes inline.  A width-1
    entry is its element; an inline value is kept when equal, replaced in
    a map and promoted to a pair in a multimap; a pair is kept when it
    holds an equal value and promoted to a nested three-set otherwise; a
    collection entry inserts into its nested set.
    """
    if pattern == EMPTY:
        return INLINE, ((k0, value) if cfg.width == 2 else (k0,))
    vcfg = cfg.value_cfg
    if pattern == INLINE:
        if cfg.width == 1 or payload is value or payload == value:
            return None
        if vcfg is None:
            return INLINE, (k0, value)
        # a pair's two values in hash order; the stored one first on equal hashes
        if _trie_order(vcfg.hasher(payload) & M32, vcfg.hasher(value) & M32):
            return PAIR, (k0, payload, value)
        return PAIR, (k0, value, payload)
    if pattern == PAIR:
        v0, v1 = payload
        if v0 is value or v0 == value or v1 is value or v1 == value:
            return None
        return COLLECTION, (k0, _set_of_three(vcfg, v0, v1, value))
    vh = vcfg.hasher(value) & M32
    new_root, _ = _update(payload, vcfg, 0, vh, value, None, _add_value)
    if new_root is payload:
        return None
    return COLLECTION, (k0, new_root)


def put_values(cfg, pattern, k0, payload, values):
    """Entry ``k0`` of ``pattern`` replaced by ``values``, a multimap key's
    whole new entry as ``(key, root)``: the caller's key object and a
    non-empty nested set root, stored inline when it holds one value, as a
    pair when it holds two and as is otherwise, with ``values`` itself
    as its slot values.  Returns ``(pattern, slot_values)``, or None when
    the key already holds equal values; node ``equals`` stops early on
    shared subtrees.
    """
    key, root = values
    # a root of more items holds three or more values
    few = _few_values(root) if len(root) <= PAIR_W else None
    if few is None:
        p, new = COLLECTION, root
    elif len(few) == 1:
        p, new = INLINE, few[0]
    else:
        p, new = PAIR, few
    if p == pattern and _same_payload(cfg.value_cfg, p, payload, new):
        return None
    if p == COLLECTION:
        return p, values
    return p, ((key, *new) if p == PAIR else (key, new))


def _drop_value(cfg, pattern, k0, payload, value):
    """Entry ``k0`` of ``pattern`` with ``value`` removed: ``(pattern,
    slot_values)``, or None when nothing changes.  A pair left
    with one value demotes to an inline entry, and a nested set left with
    two to a pair.

    A nested set of three values on distinct first-level branches, the
    one-node root that nine promotions in ten make (:func:`_set_of_three`),
    demotes by reading its slots: the pair is the other two values, whose
    branch order is their pair order.  Any other nested set removes the
    value by ``update`` and reads what is left.
    """
    if pattern == INLINE:
        if payload is value or payload == value:
            return EMPTY, ()
        return None
    if pattern == PAIR:
        v0, v1 = payload
        if v0 is value or v0 == value:
            return INLINE, (k0, v1)
        if v1 is value or v1 == value:
            return INLINE, (k0, v0)
        return None
    if pattern == EMPTY:
        return None
    vcfg = cfg.value_cfg
    vh = vcfg.hasher(value) & M32
    bm = payload[0]
    if len(payload) == 4 and not bm & ~(bm >> 1) & EVEN_BITS:  # three elements, no sub-node
        branch = vh & 31
        if (bm >> (branch << 1)) & 0b11 != INLINE:
            return None
        i = _pos(bm, 1, INLINE, branch, 4)
        v = payload[i]
        if not (v is value or v == value):
            return None
        return PAIR, (k0, *payload[1:i], *payload[i + 1 :])
    new_root, _ = _update(payload, vcfg, 0, vh, value, None, _drop_key)
    if new_root is payload:
        return None
    few = _few_values(new_root)
    if few is not None:  # three values before the delete, two now
        return PAIR, (k0, *few)
    return COLLECTION, (k0, new_root)


def _drop_key(cfg, pattern, k0, payload, value):
    """Entry ``k0`` of ``pattern`` removed with all its values, a set's
    element at width 1: ``(EMPTY, ())``, or None when there is no entry."""
    if pattern == EMPTY:
        return None
    return EMPTY, ()


def regions(node, w):
    """``(start, end_i, end_p, end)`` of a node of either kind: its inline
    region spans ``[start, end_i)``, its pair region ``[end_i, end_p)``,
    its collection region ``[end_p, end)`` and its sub-nodes ``[end,
    len(node))``.  ``start`` is the node's head size: a trie node's
    bitmap, or a bucket's hash and entry counts, whose collection region
    runs to its end."""
    if type(node) is CollisionNode:
        end_i = 3 + w * node[1]
        return 3, end_i, end_i + PAIR_W * node[2], len(node)
    bm = node[0]
    hi = (bm >> 1) & EVEN_BITS
    both = bm & hi
    end_i = 1 + w * (hi ^ both).bit_count()
    pairs = bm >> PAIR_PLANE
    if not pairs:
        return 1, end_i, end_i, end_i + COLL_W * both.bit_count()
    n_p = pairs.bit_count()
    end_p = end_i + PAIR_W * n_p
    return 1, end_i, end_p, end_p + COLL_W * (both.bit_count() - n_p)


# -- trie node operations ---------------------------------------------------------
#
# A trie node below a root is a plain tuple, so these are functions that
# take the node first; ``TrieNode`` binds them as its methods.  A function
# that writes a node makes a ``TrieNode`` at shift 0 and a tuple below.


def _placed(node, shift, w, branch, old, pos, size, pattern, vals):
    """The trie node ``node`` at ``shift`` with ``branch``'s entry of
    pattern ``old``, the ``size`` items at ``pos``, cut out and ``vals``
    placed where an entry of ``pattern``, never EMPTY, goes.

    The new entry's index ``j`` is ranked once, on this node's bitmap: a
    branch never counts towards its own rank, so ``j`` is where the entry
    goes among the items around the cut, before them or after (``pos``
    itself for a sub-node that replaces a sub-node).  The new node is one
    list edit of this node's items: the new bitmap at 0, then ``vals``
    inserted at ``j`` and the cut deleted, in the order that leaves the
    other's index valid.
    """
    bm = node[0]
    j = _pos(bm, w, pattern, branch, len(node))
    # the two pattern bits and the pair bit that differ between old and new
    d = old ^ pattern
    items = list(node)
    items[0] = bm ^ (d & 0b11) << (branch << 1) ^ (d >> 2) << (PAIR_PLANE + branch)
    if j > pos:  # place after the cut first, so that pos still holds
        items[j:j] = vals
        del items[pos : pos + size]
    else:
        del items[pos : pos + size]
        items[j:j] = vals
    return (tuple if shift else TrieNode)(items)


def _lookup(node, cfg, shift, key_hash, key):
    """``(pattern, payload)`` for ``key`` in the trie node ``node``, or
    None.

    ``payload`` is the inline value (the element itself at width 1), a
    pair's two values as a :class:`ValuePair`, or the nested set root for
    COLLECTION entries.  Descends level by level in one loop and hands a
    collision bucket its own ``lookup``.
    """
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
        if type(node) is CollisionNode:
            return node.lookup(cfg, shift, key_hash, key)
    if pattern == EMPTY:
        return None
    w = cfg.width
    if pattern == INLINE:
        # _pos for INLINE: the inline branches below this one come first
        below = (1 << offset) - 1
        pos = 1 + w * ((bm >> 1) & ~bm & EVEN_BITS & below).bit_count()
    else:
        # _pos for PAIR and COLLECTION: the inline region, then the pairs
        # below this branch, or all pairs and the collections below it
        hi = (bm >> 1) & EVEN_BITS
        both = hi & bm
        pos = 1 + w * (hi ^ both).bit_count()
        pairs = bm >> PAIR_PLANE
        if pairs:
            branch = offset >> 1
            pairs_below = (pairs & ((1 << branch) - 1)).bit_count()
            if (pairs >> branch) & 1:
                pos += PAIR_W * pairs_below
                k0 = node[pos]
                if k0 is key or k0 == key:
                    return (PAIR, ValuePair(node[pos + 1 : pos + PAIR_W]))
                return None
            pos += PAIR_W * pairs.bit_count() - COLL_W * pairs_below
        pos += COLL_W * (both & ((1 << offset) - 1)).bit_count()
    k0 = node[pos]
    if k0 is key or k0 == key:
        return (pattern, node[pos + w - 1])
    return None


def _node_lookup(node, cfg, shift, key_hash, key):
    """``lookup`` of ``key`` in a node of either kind."""
    if type(node) is CollisionNode:
        return node.lookup(cfg, shift, key_hash, key)
    return _lookup(node, cfg, shift, key_hash, key)


def _update(node, cfg, shift, key_hash, key, value, change):
    """``(node, key_delta)``: the trie node ``node`` at ``shift`` with
    ``change``'s transition applied to ``key``'s entry (see the module
    docstring)."""
    bm = node[0]
    branch = (key_hash >> shift) & 31
    offset = branch << 1
    pattern = (bm >> offset) & 0b11
    if pattern == NODE:
        # _pos for NODE: the sub-nodes on branches >= this one close the node
        pos = len(node) - ((bm & ~(bm >> 1) & EVEN_BITS) >> offset).bit_count()
        child = node[pos]
        if type(child) is CollisionNode:
            new_child, kd = child.update(cfg, shift + 5, key_hash, key, value, change)
        else:
            new_child, kd = _update(child, cfg, shift + 5, key_hash, key, value, change)
        if new_child is child:
            return node, 0
        # a child that can lift is at most a bucket's head and one pair,
        # 3 + PAIR_W items, written out so that no level adds them
        if kd < 0 and len(new_child) <= 6:
            lifted = _lifted(new_child, cfg.width)
            if lifted is not None:
                p, vals = lifted
                return _placed(node, shift, cfg.width, branch, NODE, pos, 1, p, vals), kd
        items = list(node)
        items[pos] = new_child
        return (tuple if shift else TrieNode)(items), kd
    w = cfg.width
    if pattern == EMPTY:
        added = change(cfg, EMPTY, key, None, value)
        if added is None:
            return node, 0
        p, vals = added
        rank = p  # where the new entry goes
    else:
        rank = pattern  # where the stored entry is
    if rank == INLINE:
        # _pos for INLINE: the inline branches below this one come first
        pos = 1 + w * ((bm >> 1) & ~bm & EVEN_BITS & ((1 << offset) - 1)).bit_count()
        size = w
    else:
        # _pos for PAIR and COLLECTION: the inline region, then the pairs
        # below this branch, or all pairs and the collections below it;
        # an EMPTY branch has no pair bit
        hi = (bm >> 1) & EVEN_BITS
        both = hi & bm
        pos = 1 + w * (hi ^ both).bit_count()
        pairs = bm >> PAIR_PLANE
        if pairs:
            pairs_below = (pairs & ((1 << branch) - 1)).bit_count()
            if (pairs >> branch) & 1:
                rank = pattern = PAIR
            if rank == PAIR:
                pos += PAIR_W * pairs_below
            else:
                pos += PAIR_W * pairs.bit_count() - COLL_W * pairs_below
        if rank == COLLECTION:
            pos += COLL_W * (both & ((1 << offset) - 1)).bit_count()
            size = COLL_W
        else:
            size = PAIR_W
    if pattern == EMPTY:
        # an empty group takes the pattern by OR; nothing is removed,
        # so the entry is placed by plain insertion
        bm |= p << offset if p != PAIR else pattern_bits(PAIR, branch)
        items = list(node)
        items[0] = bm
        items[pos:pos] = vals
        return (tuple if shift else TrieNode)(items), 1
    k0 = node[pos]
    if k0 is key or k0 == key:
        payload = node[pos + 1 : pos + PAIR_W] if pattern == PAIR else node[pos + w - 1]
        changed = change(cfg, pattern, k0, payload, value)
        if changed is None:
            return node, 0
        p, vals = changed
        if p == pattern:  # same place, same bitmap int
            items = list(node)
            items[pos : pos + size] = vals
            return (tuple if shift else TrieNode)(items), 0
        if p == EMPTY:
            bm ^= pattern << offset if pattern != PAIR else pattern_bits(PAIR, branch)
            items = list(node)
            items[0] = bm
            del items[pos : pos + size]
            return (tuple if shift else TrieNode)(items), -1
        return _placed(node, shift, w, branch, pattern, pos, size, p, vals), 0
    added = change(cfg, EMPTY, key, None, value)
    if added is None:
        return node, 0
    p, vals = added
    # a different key on the same branch: push both one level down
    h0 = cfg.hasher(k0) & M32
    child = _merge(shift + 5, h0, pattern, node[pos : pos + size], key_hash, p, vals)
    return _placed(node, shift, w, branch, pattern, pos, size, NODE, (child,)), 1


def _equals(node, cfg, other):
    """Whether the trie nodes ``node`` and ``other`` hold equal content:
    canonical form makes that structural equality, stopping early on
    shared subtrees."""
    if node is other:
        return True
    if type(other) is CollisionNode or other[0] != node[0]:
        return False
    start, end_i, end_p, end = regions(node, cfg.width)
    for pos in range(start, end_i):
        if not _eq(node[pos], other[pos]):
            return False
    for pos in range(end_i, end_p, PAIR_W):
        if not _eq(node[pos], other[pos]):
            return False
        if not _same_values(node[pos + 1 : pos + 3], other[pos + 1 : pos + 3]):
            return False
    vcfg = cfg.value_cfg
    for pos in range(end_p, end, COLL_W):
        if not _eq(node[pos], other[pos]):
            return False
        if not _equals(node[pos + 1], vcfg, other[pos + 1]):
            return False
    for pos in range(end, len(node)):
        child = node[pos]
        if type(child) is CollisionNode:
            if not child.equals(cfg, other[pos]):
                return False
        elif not _equals(child, cfg, other[pos]):
            return False
    return True


class _Node(tuple):
    """What a trie's root and a collision bucket share: one tuple per node,
    its head (a trie node's bitmap, or a bucket's hash and entry counts)
    followed by its slot run; identity ``==`` and ``hash``, which
    hold for these two kinds only, since an inner trie node is a plain
    tuple that compares by content; the true size, with the sentinel item
    of a tuple subclass; and the two update entry points that perfbench's
    trace replay calls on roots.  :func:`walk` visits a trie's nodes."""

    __slots__ = ()

    __eq__ = object.__eq__
    __ne__ = object.__ne__
    __hash__ = object.__hash__

    def __sizeof__(self):
        # a heap tuple subtype is allocated with one item more than it
        # holds, the sentinel that tuple.__sizeof__ leaves out
        return tuple.__sizeof__(self) + tuple.__itemsize__

    def insert(self, cfg, shift, key_hash, key, value):
        return self.update(cfg, shift, key_hash, key, value, _add_value)

    def delete(self, cfg, shift, key_hash, key, value, drop_key):
        return self.update(
            cfg, shift, key_hash, key, value, _drop_key if drop_key else _drop_value
        )


class TrieNode(_Node):
    """``(bitmap, *slots)``: a trie's root, top-level or nested (see the
    module docstring).  The nodes below it are plain tuples of the same
    layout; the trie node functions are its methods."""

    __slots__ = ()

    lookup = _lookup
    update = _update
    equals = _equals


class CollisionNode(_Node):
    """``(hash, inline_n, pair_n, *slots)``: bucket for entries whose
    32-bit hashes are fully equal, one tuple like a trie node.

    Keeps the same three payload regions as ``TrieNode`` (inline entries,
    then pair entries, then collection entries) but no bitmap and no
    sub-nodes; ``inline_n`` counts the inline entries and ``pair_n`` the
    pairs.  Region-internal order follows the history, so structural
    equality finds each entry's key in the other bucket: a bulk build
    orders each region by the first appearance of its keys, and ``update``
    keeps an entry that keeps its pattern at its index and places a new
    key, or an entry whose pattern changes, at the end of its region.
    """

    __slots__ = ()

    def _find(self, w, key):
        """``(pattern, pos)`` of ``key``'s entry, its pattern and first
        slot, or None: one scan of the key positions, region by region."""
        start, end_i, end_p, end = regions(self, w)
        for pattern, first, last, size in (
            (INLINE, start, end_i, w),
            (PAIR, end_i, end_p, PAIR_W),
            (COLLECTION, end_p, end, COLL_W),
        ):
            for pos in range(first, last, size):
                k0 = self[pos]
                if k0 is key or k0 == key:
                    return pattern, pos
        return None

    def lookup(self, cfg, shift, key_hash, key):
        if key_hash != self[0]:
            return None
        w = cfg.width
        found = self._find(w, key)
        if found is None:
            return None
        pattern, pos = found
        if pattern == PAIR:
            return (PAIR, ValuePair(self[pos + 1 : pos + PAIR_W]))
        return (pattern, self[pos + w - 1])

    def update(self, cfg, shift, key_hash, key, value, change):
        """``(node, key_delta)``: this bucket with ``change``'s transition
        applied to ``key``'s entry, by one list edit of its items."""
        w = cfg.width
        found = self._find(w, key) if key_hash == self[0] else None
        if found is None:
            changed = change(cfg, EMPTY, key, None, value)
            if changed is None:
                return self, 0
            if key_hash != self[0]:
                # hashes differ after all: the bucket and the new entry
                # part where their hash fragments do
                return _merge(shift, self[0], NODE, (self,), key_hash, *changed), 1
            pattern, pos, size = EMPTY, 0, 0
        else:
            pattern, pos = found
            payload = self[pos + 1 : pos + PAIR_W] if pattern == PAIR else self[pos + w - 1]
            changed = change(cfg, pattern, self[pos], payload, value)
            if changed is None:
                return self, 0
            size = w if pattern == INLINE else PAIR_W if pattern == PAIR else COLL_W
        p, vals = changed
        items = list(self)
        if p == pattern:  # same place
            items[pos : pos + size] = vals
            return CollisionNode(items), 0
        # the new entry closes its region, ranked on the old items
        _, end_i, end_p, end = regions(self, w)
        j = end_i if p == INLINE else end_p if p == PAIR else end
        items[1] += (p == INLINE) - (pattern == INLINE)
        items[2] += (p == PAIR) - (pattern == PAIR)
        if j > pos:  # place after the cut first, so that pos still holds
            items[j:j] = vals
            del items[pos : pos + size]
        else:
            del items[pos : pos + size]
            items[j:j] = vals
        return CollisionNode(items), (pattern == EMPTY) - (p == EMPTY)

    def equals(self, cfg, other):
        """Whether ``other`` is a bucket of the same entries: each key of
        this bucket found in ``other`` under the same pattern with an equal
        payload (equal counts and distinct keys make that a bijection)."""
        if self is other:
            return True
        if type(other) is not CollisionNode or other[:3] != self[:3] or len(other) != len(self):
            return False
        w = cfg.width
        start, end_i, end_p, end = regions(self, w)
        keys = chain(range(start, end_i, w), range(end_i, end_p, PAIR_W), range(end_p, end, COLL_W))
        for pos in keys:
            pattern = INLINE if pos < end_i else PAIR if pos < end_p else COLLECTION
            found = other._find(w, self[pos])
            if found is None or found[0] != pattern:
                return False
            a = _payload(self, pattern, pos, w)
            if not _same_payload(cfg.value_cfg, pattern, a, _payload(other, pattern, found[1], w)):
                return False
        return True


# -- construction helpers ------------------------------------------------------


EMPTY_ROOT = TrieNode((0,))


def set_of_two(vcfg, v0, v1):
    """Root of the nested set ``{v0, v1}``: what ``get`` hands out for a
    pair."""
    return _root_of_two(vcfg.hasher(v0) & M32, v0, vcfg.hasher(v1) & M32, v1)


def _root_of_two(h0, v0, h1, v1):
    """Root of the nested set of two distinct values of hashes ``h0`` and
    ``h1``."""
    node = _merge(0, h0, INLINE, (v0,), h1, INLINE, (v1,))
    if h0 == h1:
        # a root is never a bucket: hang it on its first-level branch
        return TrieNode((NODE << ((h0 & 31) << 1), node))
    return node


def _set_of_three(vcfg, v0, v1, v2):
    """Root of the nested set of three distinct values: where a pair
    promotes to.  ``v0, v1`` come in pair order (:func:`_trie_order`), so
    when their first-level branches differ, ``v0``'s is the lower.

    Three values on distinct first-level branches, nine promotions in ten
    under uniform hashes, make the one-node root directly: promotions are
    a large share of the slowest ``put`` calls, and the general path
    below, a two-set's root and one ``update``, takes longer.
    """
    hasher = vcfg.hasher
    h0 = hasher(v0) & M32
    h1 = hasher(v1) & M32
    h2 = hasher(v2) & M32
    b0 = h0 & 31
    b1 = h1 & 31
    b2 = h2 & 31
    if b0 != b1 and b0 != b2 and b1 != b2:  # the common case: one node
        bm = INLINE << (b0 << 1) | INLINE << (b1 << 1) | INLINE << (b2 << 1)
        # the values in branch order: v2 sorted into the ordered v0, v1
        if b1 > b2:
            b1, v1, b2, v2 = b2, v2, b1, v1
        if b0 > b1:
            v0, v1 = v1, v0
        return TrieNode((bm, v0, v1, v2))
    root, _ = _update(_root_of_two(h0, v0, h1, v1), vcfg, 0, h2, v2, None, _add_value)
    return root


def _merge(shift, h0, p0, s0, h1, p1, s1):
    """Node holding two entries that fell on one branch a level above.

    ``s0``/``s1`` are the entries' slot tuples, ``p0``/``p1`` their
    payload patterns.  Recurses while the hash fragments keep agreeing;
    fully equal hashes become a collision bucket.
    """
    if h0 == h1:
        return _collision(h0, ((p0, s0), (p1, s1)))
    b0 = (h0 >> shift) & 31
    b1 = (h1 >> shift) & 31
    if b0 == b1:
        node = (NODE << (b0 << 1), _merge(shift + 5, h0, p0, s0, h1, p1, s1))
        return node if shift else TrieNode(node)
    bm = (p0 & 0b11) << (b0 << 1) | (p1 & 0b11) << (b1 << 1)
    if p0 == PAIR or p1 == PAIR:
        bm |= pattern_bits(p0, b0) | pattern_bits(p1, b1)
    # the inline region first, then the pair and collection regions, each
    # ordered by branch
    r0 = _REGION[p0]
    r1 = _REGION[p1]
    node = (bm,) + s0 + s1 if r0 < r1 or (r0 == r1 and b0 < b1) else (bm,) + s1 + s0
    return node if shift else TrieNode(node)


# each payload pattern's region, in slot-run order; sub-nodes close the run
_REGION = {INLINE: 0, PAIR: 1, COLLECTION: 2, NODE: 3}


def _collision(key_hash, entries):
    """Bucket of ``entries``, ``(pattern, slot values)`` pairs of one hash,
    each region in the order given."""
    by_region = ([], [], [])
    for p, s in entries:
        by_region[_REGION[p]].append(s)
    inline, pairs, coll = by_region
    head = (key_hash, len(inline), len(pairs))
    return CollisionNode(chain(head, *inline, *pairs, *coll))


def build_root(cfg, entries, bitmaps=None):
    """``(root, tuple_count, key_count)`` of the trie holding ``entries``,
    elements at width 1 and ``(key, value)`` pairs at width 2.

    The result is node for node the trie that inserting ``entries`` one by
    one into the empty root gives, with the same objects kept: a key's
    first object, a set's first element, a map's last value (an equal later
    value keeps the earlier object) and a multimap key's values in input
    order.  Canonical form makes a trie's shape a function of its content,
    so the nodes are built bottom-up, each exactly once, in two steps.

    One pass over ``entries`` groups them by 32-bit hash, into a table
    that holds each key's final entry as it forms: an inline entry's slot
    tuple, ``(element,)`` at width 1 and ``(key, value)`` at width 2 (a
    map replaces the value on a later, unequal one), then a multimap's
    hash-ordered pair ``(key, v0, v1)`` once a second distinct value
    arrives, then a list ``[key, v0, v1, v2, ...]`` from the third value
    on.  A first-seen key's entry is the caller's own pair when that is a
    plain ``tuple``; a pair of another type (a list, a namedtuple) is
    copied into one, since an entry's type names its kind.  Later keys of
    a hash already taken wait in a bucket list.

    After the pass, a nested build dedups and sizes each list's values and
    cuts the list in place to ``[key, nested root]``, and each bucket list
    becomes a collision bucket, each region in the order of its keys' first
    appearance, that takes its hash's place in the table.  :func:`_partition`
    then splits the table's hashes by hash fragment and reads an entry only
    where it places it.

    Every node of the build takes its bitmap through ``bitmaps``, a table
    from each bitmap value to its first int object, so equal bitmaps share
    one int.  A top-level call makes the table and drops it on return; a
    collection entry's nested build shares its parent's.  The table never
    outlives the build, so a fresh build allocates each distinct bitmap
    once and two builds share none of theirs.  No function object refers
    to the build's tables, so they are freed on return, with no cycle left
    for the garbage collector.
    """
    if bitmaps is None:
        bitmaps = {}
    w = cfg.width
    vcfg = cfg.value_cfg
    hasher = cfg.hasher
    table = {}  # hash -> the entry of the first key with that hash
    more = {}  # hash -> entries of later, different keys with that hash
    lists = []  # the list entries, of three values or more
    grown = 0  # tuples beyond one per key: 1 per pair, then a nested set's size - 2
    if w == 1:
        for e in entries:
            h = hasher(e) & M32
            (e0,) = table.setdefault(h, (e,))
            if e0 is not e and not e0 == e:
                bucket = more.setdefault(h, [])
                if not any(k is e or k == e for (k,) in bucket):
                    bucket.append((e,))
    else:
        vhasher = None if vcfg is None else vcfg.hasher
        for pair in entries:
            key, value = pair
            h = hasher(key) & M32
            e = table.get(h)
            if e is None:
                table[h] = pair if type(pair) is tuple else (key, value)
                continue
            k0 = e[0]
            bucket = None
            if not (k0 is key or k0 == key):
                bucket = more.setdefault(h, [])
                for i, e in enumerate(bucket):
                    k0 = e[0]
                    if k0 is key or k0 == key:
                        break
                else:
                    bucket.append(pair if type(pair) is tuple else (key, value))
                    continue
            # a known key: the sequential fold's _add_value on its entry;
            # a nested set's values are compared by its own build
            if len(e) == 2:
                v0 = e[1]
                if v0 is value or v0 == value:
                    continue
                if vhasher is None:
                    e = (k0, value)
                else:
                    grown += 1
                    if _trie_order(vhasher(v0) & M32, vhasher(value) & M32):
                        e = (k0, v0, value)
                    else:
                        e = (k0, value, v0)
            elif type(e) is tuple:
                v0 = e[1]
                v1 = e[2]
                if v0 is value or v0 == value or v1 is value or v1 == value:
                    continue
                e = [k0, v0, v1, value]
                lists.append(e)
            else:
                e.append(value)
                continue
            if bucket is None:
                table[h] = e
            else:
                bucket[i] = e
    if not table:
        return EMPTY_ROOT, 0, 0
    keys = len(table) + sum(map(len, more.values()))
    for e in lists:
        root, n, _ = build_root(vcfg, e[1:], bitmaps)
        grown += n - 2
        e[1:] = (root,)
    for h, bucket in more.items():
        kinds = [
            (COLLECTION if type(e) is list else INLINE if len(e) == w else PAIR, e)
            for e in (table[h], *bucket)
        ]
        table[h] = _collision(h, kinds)
    return _partition(table, bitmaps, w, 0, table), keys + grown, keys


def _partition(table, bitmaps, w, shift, hashes):
    """Trie node at ``shift`` over ``hashes``, distinct hashes whose
    entries ``table`` holds as :func:`build_root` leaves them: an entry's
    type names its kind, a ``tuple`` of ``w`` slots inline and of
    ``PAIR_W`` a pair, a list ``[key, nested root]`` a collection entry and
    a ``CollisionNode`` a bucket.  A branch that several hashes share gets
    a sub-node one level down; a branch of one hash stores its entry with
    no sub-node."""
    by_branch = {}
    for h in hashes:
        b = (h >> shift) & 31
        group = by_branch.get(b)
        if group is None:
            by_branch[b] = h
        elif type(group) is list:
            group.append(h)
        else:
            by_branch[b] = [group, h]
    bm = 0
    plane = 0  # the pair plane: bit b for a pair on branch b
    inline = []
    pairs = []
    colls = []
    subs = []
    for b in sorted(by_branch):
        group = by_branch[b]
        if type(group) is list:
            bm |= NODE << (b << 1)
            subs.append(_partition(table, bitmaps, w, shift + 5, group))
            continue
        e = table[group]
        kind = type(e)
        if kind is tuple:
            if len(e) == w:
                bm |= INLINE << (b << 1)
                inline += e
            else:
                bm |= COLLECTION << (b << 1)
                plane |= 1 << b
                pairs += e
        elif kind is list:
            bm |= COLLECTION << (b << 1)
            colls += e
        else:
            bm |= NODE << (b << 1)
            subs.append(e)
    if plane:
        bm |= plane << PAIR_PLANE
    node = (bitmaps.setdefault(bm, bm), *inline, *pairs, *colls, *subs)
    return node if shift else TrieNode(node)


def _lifted(node, w):
    """``(pattern, slot_values)`` of the entry that takes ``node``'s place
    in its parent once a key has left it, when canonical form moves one
    up: ``node``'s only payload entry, or the collision bucket below it
    when it is a chain node; None when ``node`` stays."""
    if type(node) is not CollisionNode:
        n = len(node) - 1
        if n > PAIR_W:  # cheap rejection: one entry fills at most PAIR_W slots
            return None
        bm = node[0]
        if bm & ~(bm >> 1) & EVEN_BITS:  # a sub-node
            if n == 1 and type(node[1]) is CollisionNode:
                return NODE, node[1:]
            return None
        if bm >> PAIR_PLANE:
            return PAIR, node[1:]
        if n != w:  # several elements of a set
            return None
        return (COLLECTION if bm & (bm >> 1) & EVEN_BITS else INLINE), node[1:]
    # a bucket left with one entry: its first entry fills it
    p, size = (INLINE, w) if node[1] else (PAIR, PAIR_W) if node[2] else (COLLECTION, COLL_W)
    return (p, node[3:]) if len(node) == 3 + size else None


def intersect(cfg, a, b):
    """The root of the set of the elements of root ``a`` that root ``b``
    also holds, both width-1 tries of the same hasher.

    The tries are walked in step over the branches that both bitmaps
    occupy: two inline elements are compared, an element facing a sub-node
    is looked up in it, two sub-nodes recurse, and a collision bucket is
    filtered by ``lookup``.  Wherever ``b`` holds all of a node of ``a``'s
    elements, the result keeps that node itself, so it is ``a`` when ``a``
    is a subset of ``b``, and the elements it holds are ``a``'s objects.  A
    changed child passes through ``_lifted``, so the result is node for
    node the trie a build of its elements gives.  New nodes take their
    bitmaps through a table that lives for the call, as in
    :func:`build_root`.
    """
    node = _intersect(cfg, 0, a, b, {})
    return EMPTY_ROOT if node is None else node


def _intersect(cfg, shift, a, b, bitmaps):
    """The node for the nodes ``a`` and ``b`` at ``shift``: ``a`` itself
    when ``b`` holds all of its elements, None when they share none, and
    otherwise a new node that its parent may still need to lift."""
    if a is b:
        return a
    if type(a) is CollisionNode or type(b) is CollisionNode:
        return _bucket_intersect(cfg, shift, a, b)
    bma = a[0]
    bmb = b[0]
    inline_a = (bma >> 1) & ~bma & EVEN_BITS
    subs_a = bma & ~(bma >> 1) & EVEN_BITS
    inline_b = (bmb >> 1) & ~bmb & EVEN_BITS
    subs_b = bmb & ~(bmb >> 1) & EVEN_BITS
    both = (inline_a | subs_a) & (inline_b | subs_b)
    kept = both == inline_a | subs_a  # no branch of a is lost to an empty one of b
    len_a = len(a)
    len_b = len(b)
    hasher = cfg.hasher
    sub_shift = shift + 5
    bm = 0
    inline = []
    subs = []
    while both:
        low = both & -both  # bit 2b of branch b
        both ^= low
        below = low - 1
        if inline_a & low:
            e = a[1 + (inline_a & below).bit_count()]
            if inline_b & low:
                f = b[1 + (inline_b & below).bit_count()]
                hit = e is f or e == f
            else:
                sub = b[len_b - (subs_b & ~below).bit_count()]
                hit = _node_lookup(sub, cfg, sub_shift, hasher(e) & M32, e) is not None
            if hit:
                bm |= low << 1
                inline.append(e)
            else:
                kept = False
            continue
        child = a[len_a - (subs_a & ~below).bit_count()]
        if inline_b & low:  # a sub-node holds more than b's one element
            kept = False
            f = b[1 + (inline_b & below).bit_count()]
            found = _node_lookup(child, cfg, sub_shift, hasher(f) & M32, f)
            if found is not None:
                bm |= low << 1
                inline.append(found[1])
            continue
        new = _intersect(cfg, sub_shift, child, b[len_b - (subs_b & ~below).bit_count()], bitmaps)
        if new is not child:
            kept = False
            if new is None:
                continue
            lifted = _lifted(new, 1)
            if lifted is not None:
                p, vals = lifted
                if p == INLINE:
                    bm |= low << 1
                    inline.append(vals[0])
                    continue
                new = vals[0]  # the bucket below a chain node
        bm |= low
        subs.append(new)
    if kept:
        return a
    if not bm:
        return None
    node = (bitmaps.setdefault(bm, bm), *inline, *subs)
    return node if shift else TrieNode(node)


def _bucket_intersect(cfg, shift, a, b):
    """``_intersect`` where ``a`` or ``b`` is a collision bucket: the
    bucket's elements that a ``lookup`` finds in the other node, as a
    bucket (of one element when one is left, for the parent to lift)."""
    if type(a) is CollisionNode:
        h = a[0]
        found = [e for e in a[3:] if _node_lookup(b, cfg, shift, h, e) is not None]
        if len(found) == len(a) - 3:
            return a
    else:
        h = b[0]
        found = [hit[1] for e in b[3:] if (hit := _node_lookup(a, cfg, shift, h, e)) is not None]
    if not found:
        return None
    return CollisionNode((h, len(found), 0, *found))


def _few_values(root):
    """The values of the nested set ``root`` when it holds one or two, in
    its iteration order; None when it holds more.  Follows the chain of
    single sub-nodes that two values of a shared hash prefix hang from."""
    node = root
    while type(node) is not CollisionNode:
        n = len(node)
        if n > PAIR_W:
            return None
        bm = node[0]
        if not bm & ~(bm >> 1) & EVEN_BITS:  # elements only
            return node[1:]
        if n != 2:  # an element next to a sub-node, or two sub-nodes
            return None
        node = node[1]
    slots = node[3:]  # a bucket's elements
    return slots if len(slots) <= 2 else None


def walk(w, root):
    """``(depth, node, *regions(node, w))`` for each node of the trie
    ``root`` of entry width ``w``, the root at depth 1: pre-order over an
    explicit stack, sub-nodes in branch order.  Nested sets are not
    entered."""
    stack = [(1, root)]
    while stack:
        depth, node = stack.pop()
        start, end_i, end_p, end = regions(node, w)
        yield depth, node, start, end_i, end_p, end
        if end < len(node):
            stack += zip(repeat(depth + 1), node[: end - 1 : -1])


def iter_keys(cfg, root):
    """The keys of the trie ``root`` in trie order: a set's elements."""
    w = cfg.width
    for _, run, start, end_i, end_p, end in walk(w, root):
        yield from run[start:end_i:w]
        if end_i < end:  # pairs or collections
            yield from run[end_i:end_p:PAIR_W]
            yield from run[end_p:end:COLL_W]


def iter_entries(cfg, root):
    """The ``(key, value)`` tuples of the map or multimap trie ``root`` in
    trie order, a key's values together and in its nested set's order."""
    for _, run, start, end_i, end_p, end in walk(2, root):
        for pos in range(start, end_i, 2):
            yield run[pos], run[pos + 1]
        if end_i < end:  # pairs or collections
            for pos in range(end_i, end_p, PAIR_W):
                yield run[pos], run[pos + 1]
                yield run[pos], run[pos + 2]
            for pos in range(end_p, end, COLL_W):
                for _, nested, first, last, _, _ in walk(1, run[pos + 1]):
                    for v in nested[first:last]:
                        yield run[pos], v


def count_entries(cfg, node):
    """Number of flattened entries below ``node`` (set cardinality for
    width-1 tries), summed from region counts without visiting them."""
    w = cfg.width
    start, end_i, end_p, end = regions(node, w)
    total = (end_i - start) // w + 2 * (end_p - end_i) // PAIR_W
    for pos in range(end_p + 1, end, COLL_W):
        total += count_entries(cfg.value_cfg, node[pos])
    for child in node[end:]:
        total += count_entries(cfg, child)
    return total


# -- validation ----------------------------------------------------------------


class InvariantError(AssertionError):
    pass


def _fail(msg):
    raise InvariantError(msg)


def validate_root(cfg, root):
    """Recursively check every structural invariant; returns
    ``(tuple_count, key_count)`` recounted from scratch.  A root, top-level
    or nested, is a ``TrieNode``, and every trie node below it a plain
    tuple."""
    return _validate(cfg, root, 0, 0, True)


def _validate(cfg, node, shift, prefix, is_root):
    """``(tuple_count, key_count)`` below ``node``, a trie node at ``shift``
    or a collision bucket, whose keys' hashes share the path ``prefix``,
    after checking its kind and each of its regions."""
    kind = type(node)
    if is_root:
        if kind is not TrieNode:
            _fail(f"root must be a TrieNode, got {kind.__name__}")
    elif kind is not tuple and kind is not CollisionNode:
        _fail(f"trie node below a root must be a plain tuple, got {kind.__name__}")
    w = cfg.width
    start, end_i, end_p, end = regions(node, w)
    n_i = (end_i - start) // w
    n_p = (end_p - end_i) // PAIR_W
    n_c = (end - end_p) // COLL_W
    mask = ((1 << shift) - 1) & M32
    bucket = kind is CollisionNode
    if bucket:
        if not end_i <= end_p <= end or (end - end_p) % COLL_W:
            _fail("collision slot run does not match its entry counts")
        if n_i + n_p + n_c < 2:
            _fail("collision bucket with fewer than two entries")
        if node[0] & mask != prefix & mask:
            _fail("collision bucket hash disagrees with its path prefix")
        branches = [None] * (n_i + n_p + n_c)
        subs = []
    else:
        if shift > 30:
            _fail(f"TrieNode below the last hash level (shift {shift})")
        bm = node[0]
        pairs = bm >> PAIR_PLANE
        if pairs >> 32:
            _fail("bitmap wider than its 64 pattern bits and 32 pair bits")
        hi = (bm >> 1) & EVEN_BITS
        both = hi & bm
        pair_branches = [b for b in range(32) if pairs >> b & 1]
        if any(not both >> (b << 1) & 1 for b in pair_branches):
            _fail("pair bit on a branch whose pattern is not COLLECTION")
        if both and w == 1:
            _fail("collection entries in a width-1 trie")
        subs = _branches(bm & EVEN_BITS & ~hi)
        n_n = len(subs)
        expected = end - start + n_n
        if len(node) - start != expected:
            _fail(f"slot run has {len(node) - start} cells, bitmap implies {expected}")
        if expected > 32 * PAIR_W:
            _fail(f"trie node with {expected} slots (maximum is {32 * PAIR_W})")
        if not is_root:
            if n_i + n_p + n_c + n_n == 0:
                _fail("empty non-root node")
            if n_n == 0 and n_i + n_p + n_c == 1:
                _fail("non-root node holds a single payload entry and no sub-nodes")
            if n_i + n_p + n_c == 0 and n_n == 1 and type(node[start]) is CollisionNode:
                _fail("chain node left above a collision bucket")
        colls = [b for b in _branches(both) if not pairs >> b & 1]
        branches = _branches(hi & ~bm) + pair_branches + colls

    tuples = 0
    seen_keys = []
    vcfg = cfg.value_cfg
    entries = chain(range(start, end_i, w), range(end_i, end_p, PAIR_W), range(end_p, end, COLL_W))
    for pos, branch in zip(entries, branches):
        key = node[pos]
        h = cfg.hasher(key) & M32
        if bucket:
            if h != node[0]:
                _fail(f"collision entry {key!r} does not hash to the bucket hash")
            if any(_eq(other, key) for other in seen_keys):
                _fail(f"duplicate key {key!r} in collision bucket")
            seen_keys.append(key)
        elif h & mask != prefix:
            _fail(f"key {key!r} stored under the wrong hash prefix")
        elif (h >> shift) & 31 != branch:
            _fail(f"key {key!r} stored on the wrong branch")
        if pos < end_i:
            tuples += 1
        elif pos < end_p:
            _validate_pair(vcfg, key, node[pos + 1], node[pos + 2])
            tuples += 2
        else:
            sub_tuples, _ = _validate(vcfg, node[pos + 1], 0, 0, True)
            if sub_tuples < 3:
                _fail(f"collection entry for {key!r} holds {sub_tuples} values")
            tuples += sub_tuples
    keys = n_i + n_p + n_c
    for branch, child in zip(subs, node[end:]):
        child_prefix = prefix | (branch << shift)
        sub_tuples, sub_keys = _validate(cfg, child, shift + 5, child_prefix, False)
        tuples += sub_tuples
        keys += sub_keys
    return tuples, keys


def _validate_pair(vcfg, key, v0, v1):
    if _eq(v0, v1):
        _fail(f"pair entry for {key!r} holds two equal values")
    if not _trie_order(vcfg.hasher(v0) & M32, vcfg.hasher(v1) & M32):
        _fail(f"pair entry for {key!r} holds its values out of hash order")


def _branches(plane):
    """The branches whose bits are set in ``plane`` (bit ``2b`` for branch
    ``b``), in branch order."""
    found = []
    while plane:
        low = plane & -plane
        found.append((low.bit_length() - 1) >> 1)
        plane ^= low
    return found


def node_stats(cfg, root):
    """Structural counters: nodes, collision buckets, entry kinds, depth."""
    stats = {
        "trie_nodes": 0,
        "collision_nodes": 0,
        "inline_entries": 0,
        "pair_entries": 0,
        "collection_entries": 0,
        "nested_set_nodes": 0,
        "max_depth": 0,
    }
    w = cfg.width
    for depth, run, start, end_i, end_p, end in walk(w, root):
        stats["max_depth"] = max(stats["max_depth"], depth)
        stats["collision_nodes" if type(run) is CollisionNode else "trie_nodes"] += 1
        stats["inline_entries"] += (end_i - start) // w
        stats["pair_entries"] += (end_p - end_i) // PAIR_W
        stats["collection_entries"] += (end - end_p) // COLL_W
        for nested in run[end_p + 1 : end : COLL_W]:
            stats["nested_set_nodes"] += sum(1 for _ in walk(1, nested))
    return stats
