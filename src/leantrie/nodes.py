"""Trie node machinery shared by the map, set, and multimap.

Nodes are immutable.  A ``TrieNode`` consumes five hash bits per level
(shifts 0..30 over 32-bit hashes) and keeps a single 64-bit pattern bitmap
(see :mod:`leantrie.bits`) plus one flat slot run, an immutable tuple,
laid out as::

    [inline entries][collection entries][sub-node references]

Inline entries are ``width`` slots each (1 for sets, 2 for maps and
multimaps); collection entries are always ``(key, set-root)`` pairs whose
second slot is the root node of a nested element trie; sub-node references
are one slot.  Entries within a region are ordered by branch index.

Sets, maps, and multimaps share this machinery through a ``TrieConfig``:
the config's ``width`` fixes the entry layout, and ``value_cfg`` is the
nested-set config for multimaps (``None`` selects replace-on-put map
semantics; width-1 configs never see values at all).

Structural invariants (checked by :func:`validate_root`):

* canonical form — equal content implies structurally equal trees no
  matter the operation history; deletes re-inline a child left with a
  single payload entry and collapse chains left above a collision node;
* no collection entry holds fewer than two values;
* collision nodes hold >= 2 entries of one identical 32-bit hash and sit
  at the shallowest depth their hash prefix forces.

Mutating operations return ``(node, tuple_delta, key_delta)`` and return
the receiver itself (identity, zero deltas) when nothing changed.  A
changed node is path-copied: its new slot tuple is spliced from the old one
by slicing and concatenation.
"""

from .bits import (
    COLLECTION,
    EMPTY,
    INLINE,
    NODE,
    filter_pattern,
    index_in_category,
    set_pattern,
)

M32 = 0xFFFFFFFF

_NOT_FOUND = object()


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


def _splice(old, rm_pos, rm_len, ins_pos, vals):
    """``old`` minus ``rm_len`` slots at ``rm_pos``, with ``vals`` inserted
    at ``ins_pos`` (a position in the result, i.e. after the removal)."""
    if ins_pos <= rm_pos:
        return old[:ins_pos] + vals + old[ins_pos:rm_pos] + old[rm_pos + rm_len :]
    rm_end = rm_pos + rm_len
    ins_at = rm_end + ins_pos - rm_pos
    return old[:rm_pos] + old[rm_end:ins_at] + vals + old[ins_at:]


def _replaced(old, pos, value):
    return old[:pos] + (value,) + old[pos + 1 :]


class TrieNode:
    __slots__ = ("bitmap", "slots")

    def __init__(self, bitmap, slots):
        self.bitmap = bitmap
        self.slots = slots

    def region_counts(self):
        bm = self.bitmap
        return (
            filter_pattern(bm, INLINE).bit_count(),
            filter_pattern(bm, COLLECTION).bit_count(),
            filter_pattern(bm, NODE).bit_count(),
        )

    # -- positions ---------------------------------------------------------

    def _coll_pos(self, branch):
        bm = self.bitmap
        w = 2  # collections only exist at width 2
        return w * filter_pattern(bm, INLINE).bit_count() + 2 * index_in_category(
            bm, COLLECTION, branch
        )

    def _node_pos(self, branch):
        # sub-nodes close the slot run in branch order, so ``branch`` sits
        # as many slots from the end as there are sub-nodes on branches
        # >= ``branch``
        at_or_above = filter_pattern(self.bitmap, NODE) >> (branch << 1)
        return len(self.slots) - at_or_above.bit_count()

    # -- lookup --------------------------------------------------------------

    def lookup(self, cfg, shift, key_hash, key):
        """``(pattern, payload)`` for ``key`` or None.

        ``payload`` is the inline value (the element itself at width 1) or
        the nested set root for COLLECTION entries.
        """
        bm = self.bitmap
        branch = (key_hash >> shift) & 31
        pattern = (bm >> (branch << 1)) & 0b11
        if pattern == EMPTY:
            return None
        slots = self.slots
        if pattern == NODE:
            child = slots[self._node_pos(branch)]
            return child.lookup(cfg, shift + 5, key_hash, key)
        if pattern == INLINE:
            w = cfg.width
            pos = w * index_in_category(bm, INLINE, branch)
            k0 = slots[pos]
            if k0 is key or k0 == key:
                return (INLINE, slots[pos + 1] if w == 2 else k0)
            return None
        pos = self._coll_pos(branch)
        k0 = slots[pos]
        if k0 is key or k0 == key:
            return (COLLECTION, slots[pos + 1])
        return None

    # -- insert --------------------------------------------------------------

    def insert(self, cfg, shift, key_hash, key, value):
        bm = self.bitmap
        w = cfg.width
        branch = (key_hash >> shift) & 31
        offset = branch << 1
        pattern = (bm >> offset) & 0b11
        slots = self.slots

        if pattern == EMPTY:
            pos = w * index_in_category(bm, INLINE, branch)
            new_bm = bm | (INLINE << offset)
            vals = (key, value) if w == 2 else (key,)
            return TrieNode(new_bm, slots[:pos] + vals + slots[pos:]), 1, 1

        if pattern == INLINE:
            pos = w * index_in_category(bm, INLINE, branch)
            k0 = slots[pos]
            if k0 is key or k0 == key:
                if w == 1:
                    return self, 0, 0
                v0 = slots[pos + 1]
                if v0 is value or v0 == value:
                    return self, 0, 0
                vcfg = cfg.value_cfg
                if vcfg is None:
                    # map semantics: replace in place
                    return TrieNode(bm, _replaced(slots, pos + 1, value)), 0, 0
                # multimap: promote the inline pair to a nested two-set
                set_root = _set_of_two(vcfg, v0, value)
                new_bm = set_pattern(bm, branch, COLLECTION)
                n_i = filter_pattern(bm, INLINE).bit_count()
                ins = w * (n_i - 1) + 2 * index_in_category(bm, COLLECTION, branch)
                slots = _splice(slots, pos, w, ins, (key, set_root))
                return TrieNode(new_bm, slots), 1, 0
            # different key on the same branch: push both one level down
            h0 = cfg.hasher(k0) & M32
            s0 = (k0, slots[pos + 1]) if w == 2 else (k0,)
            s1 = (key, value) if w == 2 else (key,)
            child = _merge(shift + 5, h0, INLINE, s0, key_hash, INLINE, s1)
            new_bm = set_pattern(bm, branch, NODE)
            n_i = filter_pattern(bm, INLINE).bit_count()
            n_c = filter_pattern(bm, COLLECTION).bit_count()
            ins = w * (n_i - 1) + 2 * n_c + index_in_category(bm, NODE, branch)
            return TrieNode(new_bm, _splice(slots, pos, w, ins, (child,))), 1, 1

        if pattern == COLLECTION:
            pos = self._coll_pos(branch)
            k0 = slots[pos]
            vcfg = cfg.value_cfg
            if k0 is key or k0 == key:
                set_root = slots[pos + 1]
                vh = vcfg.hasher(value) & M32
                new_root, _, _ = set_root.insert(vcfg, 0, vh, value, None)
                if new_root is set_root:
                    return self, 0, 0
                return TrieNode(bm, _replaced(slots, pos + 1, new_root)), 1, 0
            h0 = cfg.hasher(k0) & M32
            s0 = (k0, slots[pos + 1])
            child = _merge(
                shift + 5, h0, COLLECTION, s0, key_hash, INLINE, (key, value)
            )
            new_bm = set_pattern(bm, branch, NODE)
            n_i = filter_pattern(bm, INLINE).bit_count()
            n_c = filter_pattern(bm, COLLECTION).bit_count()
            ins = w * n_i + 2 * (n_c - 1) + index_in_category(bm, NODE, branch)
            return TrieNode(new_bm, _splice(slots, pos, 2, ins, (child,))), 1, 1

        # NODE
        pos = self._node_pos(branch)
        child = slots[pos]
        new_child, td, kd = child.insert(cfg, shift + 5, key_hash, key, value)
        if new_child is child:
            return self, 0, 0
        return TrieNode(bm, _replaced(slots, pos, new_child)), td, kd

    # -- delete --------------------------------------------------------------

    def delete(self, cfg, shift, key_hash, key, value, drop_key):
        bm = self.bitmap
        w = cfg.width
        branch = (key_hash >> shift) & 31
        offset = branch << 1
        pattern = (bm >> offset) & 0b11
        slots = self.slots

        if pattern == EMPTY:
            return self, 0, 0

        if pattern == INLINE:
            pos = w * index_in_category(bm, INLINE, branch)
            k0 = slots[pos]
            if not (k0 is key or k0 == key):
                return self, 0, 0
            if w == 2 and not drop_key:
                v0 = slots[pos + 1]
                if not (v0 is value or v0 == value):
                    return self, 0, 0
            new_bm = bm & ~(0b11 << offset)
            return TrieNode(new_bm, slots[:pos] + slots[pos + w :]), -1, -1

        if pattern == COLLECTION:
            pos = self._coll_pos(branch)
            k0 = slots[pos]
            if not (k0 is key or k0 == key):
                return self, 0, 0
            set_root = slots[pos + 1]
            vcfg = cfg.value_cfg
            if drop_key:
                count = count_entries(vcfg, set_root)
                new_bm = bm & ~(0b11 << offset)
                return TrieNode(new_bm, slots[:pos] + slots[pos + 2 :]), -count, -1
            vh = vcfg.hasher(value) & M32
            new_root, _, _ = set_root.delete(vcfg, 0, vh, value, None, True)
            if new_root is set_root:
                return self, 0, 0
            elem = _unit_element(new_root)
            if elem is not _NOT_FOUND:
                # one value left: demote the entry back to an inline pair
                new_bm = set_pattern(bm, branch, INLINE)
                ins = w * index_in_category(bm, INLINE, branch)
                slots = _splice(slots, pos, 2, ins, (key, elem))
                return TrieNode(new_bm, slots), -1, 0
            return TrieNode(bm, _replaced(slots, pos + 1, new_root)), -1, 0

        # NODE
        pos = self._node_pos(branch)
        child = slots[pos]
        new_child, td, kd = child.delete(cfg, shift + 5, key_hash, key, value, drop_key)
        if new_child is child:
            return self, 0, 0

        single = _single_entry(new_child, w)
        if single is not None:
            # child is down to one payload entry: pull it into this node
            p, vals = single
            new_bm = set_pattern(bm, branch, p)
            if p == INLINE:
                ins = w * index_in_category(bm, INLINE, branch)
            else:
                n_i = filter_pattern(bm, INLINE).bit_count()
                ins = w * n_i + 2 * index_in_category(bm, COLLECTION, branch)
            return TrieNode(new_bm, _splice(slots, pos, 1, ins, vals)), td, kd

        lifted = _collision_under_chain(new_child)
        if lifted is not None:
            # chain node left above a collision bucket: float the bucket up
            new_child = lifted
        return TrieNode(bm, _replaced(slots, pos, new_child)), td, kd

    # -- iteration / equality -----------------------------------------------

    def iter_entries(self, cfg):
        w = cfg.width
        slots = self.slots
        n_i, n_c, n_n = self.region_counts()
        pos = 0
        if w == 1:
            for _ in range(n_i):
                yield slots[pos]
                pos += 1
        else:
            for _ in range(n_i):
                yield (slots[pos], slots[pos + 1])
                pos += 2
        vcfg = cfg.value_cfg
        for _ in range(n_c):
            k = slots[pos]
            for v in slots[pos + 1].iter_entries(vcfg):
                yield (k, v)
            pos += 2
        for _ in range(n_n):
            yield from slots[pos].iter_entries(cfg)
            pos += 1

    def iter_keys(self, cfg):
        w = cfg.width
        slots = self.slots
        n_i, n_c, n_n = self.region_counts()
        pos = 0
        for _ in range(n_i):
            yield slots[pos]
            pos += w
        for _ in range(n_c):
            yield slots[pos]
            pos += 2
        for _ in range(n_n):
            yield from slots[pos].iter_keys(cfg)
            pos += 1

    def equals(self, cfg, other):
        if self is other:
            return True
        if type(other) is not TrieNode or other.bitmap != self.bitmap:
            return False
        w = cfg.width
        a = self.slots
        b = other.slots
        n_i, n_c, n_n = self.region_counts()
        pos = 0
        for _ in range(w * n_i):
            if not _eq(a[pos], b[pos]):
                return False
            pos += 1
        vcfg = cfg.value_cfg
        for _ in range(n_c):
            if not _eq(a[pos], b[pos]):
                return False
            if not a[pos + 1].equals(vcfg, b[pos + 1]):
                return False
            pos += 2
        for _ in range(n_n):
            if not a[pos].equals(cfg, b[pos]):
                return False
            pos += 1
        return True


class CollisionNode:
    """Bucket for entries whose 32-bit hashes are fully equal.

    Keeps the same two payload regions as ``TrieNode`` (inline entries,
    then collection entries) but no bitmap and no sub-nodes; ``inline_n``
    counts the inline entries.  Region-internal order is insertion order,
    so structural equality compares regions as unordered collections.
    """

    __slots__ = ("hash", "inline_n", "slots")

    def __init__(self, key_hash, inline_n, slots):
        self.hash = key_hash
        self.inline_n = inline_n
        self.slots = slots

    def _coll_n(self, w):
        return (len(self.slots) - w * self.inline_n) // 2

    def _find_inline(self, w, key):
        slots = self.slots
        for r in range(self.inline_n):
            k0 = slots[w * r]
            if k0 is key or k0 == key:
                return w * r
        return -1

    def _find_coll(self, w, key):
        slots = self.slots
        base = w * self.inline_n
        for r in range(self._coll_n(w)):
            k0 = slots[base + 2 * r]
            if k0 is key or k0 == key:
                return base + 2 * r
        return -1

    def lookup(self, cfg, shift, key_hash, key):
        if key_hash != self.hash:
            return None
        w = cfg.width
        pos = self._find_inline(w, key)
        if pos >= 0:
            return (INLINE, self.slots[pos + 1] if w == 2 else key)
        if w == 2:
            pos = self._find_coll(w, key)
            if pos >= 0:
                return (COLLECTION, self.slots[pos + 1])
        return None

    def insert(self, cfg, shift, key_hash, key, value):
        if key_hash != self.hash:
            # hashes differ after all: give the bucket a parent level first
            bm = NODE << (((self.hash >> shift) & 31) << 1)
            return TrieNode(bm, (self,)).insert(cfg, shift, key_hash, key, value)
        w = cfg.width
        slots = self.slots
        n_i = self.inline_n
        n_c = self._coll_n(w)
        pos = self._find_inline(w, key)
        if pos >= 0:
            if w == 1:
                return self, 0, 0
            v0 = slots[pos + 1]
            if v0 is value or v0 == value:
                return self, 0, 0
            vcfg = cfg.value_cfg
            if vcfg is None:
                slots = _replaced(slots, pos + 1, value)
                return CollisionNode(self.hash, n_i, slots), 0, 0
            set_root = _set_of_two(vcfg, v0, value)
            slots = _splice(slots, pos, w, len(slots) - w, (key, set_root))
            return CollisionNode(self.hash, n_i - 1, slots), 1, 0
        if w == 2:
            pos = self._find_coll(w, key)
            if pos >= 0:
                vcfg = cfg.value_cfg
                set_root = slots[pos + 1]
                vh = vcfg.hasher(value) & M32
                new_root, _, _ = set_root.insert(vcfg, 0, vh, value, None)
                if new_root is set_root:
                    return self, 0, 0
                slots = _replaced(slots, pos + 1, new_root)
                return CollisionNode(self.hash, n_i, slots), 1, 0
        # new key: append to the inline region
        vals = (key, value) if w == 2 else (key,)
        slots = slots[: w * n_i] + vals + slots[w * n_i :]
        return CollisionNode(self.hash, n_i + 1, slots), 1, 1

    def delete(self, cfg, shift, key_hash, key, value, drop_key):
        if key_hash != self.hash:
            return self, 0, 0
        w = cfg.width
        slots = self.slots
        n_i = self.inline_n
        n_c = self._coll_n(w)
        pos = self._find_inline(w, key)
        if pos >= 0:
            if w == 2 and not drop_key:
                v0 = slots[pos + 1]
                if not (v0 is value or v0 == value):
                    return self, 0, 0
            slots = slots[:pos] + slots[pos + w :]
            return CollisionNode(self.hash, n_i - 1, slots), -1, -1
        if w == 2:
            pos = self._find_coll(w, key)
            if pos >= 0:
                vcfg = cfg.value_cfg
                set_root = slots[pos + 1]
                if drop_key:
                    count = count_entries(vcfg, set_root)
                    slots = slots[:pos] + slots[pos + 2 :]
                    return CollisionNode(self.hash, n_i, slots), -count, -1
                vh = vcfg.hasher(value) & M32
                new_root, _, _ = set_root.delete(vcfg, 0, vh, value, None, True)
                if new_root is set_root:
                    return self, 0, 0
                elem = _unit_element(new_root)
                if elem is not _NOT_FOUND:
                    slots = _splice(slots, pos, 2, w * n_i, (key, elem))
                    return CollisionNode(self.hash, n_i + 1, slots), -1, 0
                slots = _replaced(slots, pos + 1, new_root)
                return CollisionNode(self.hash, n_i, slots), -1, 0
        return self, 0, 0

    def iter_entries(self, cfg):
        w = cfg.width
        slots = self.slots
        pos = 0
        if w == 1:
            for _ in range(self.inline_n):
                yield slots[pos]
                pos += 1
        else:
            for _ in range(self.inline_n):
                yield (slots[pos], slots[pos + 1])
                pos += 2
        vcfg = cfg.value_cfg
        for _ in range(self._coll_n(w)):
            k = slots[pos]
            for v in slots[pos + 1].iter_entries(vcfg):
                yield (k, v)
            pos += 2

    def iter_keys(self, cfg):
        w = cfg.width
        slots = self.slots
        pos = 0
        for _ in range(self.inline_n):
            yield slots[pos]
            pos += w
        for _ in range(self._coll_n(w)):
            yield slots[pos]
            pos += 2

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


EMPTY_ROOT = TrieNode(0, ())


def _set_of_two(vcfg, v0, v1):
    root, _, _ = EMPTY_ROOT.insert(vcfg, 0, vcfg.hasher(v0) & M32, v0, None)
    root, _, _ = root.insert(vcfg, 0, vcfg.hasher(v1) & M32, v1, None)
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
        child = _merge(shift + 5, h0, p0, s0, h1, p1, s1)
        return TrieNode(NODE << (b0 << 1), (child,))
    bm = (p0 << (b0 << 1)) | (p1 << (b1 << 1))
    # inline region before collection region (INLINE < COLLECTION), each
    # ordered by branch
    slots = s0 + s1 if (p0, b0) < (p1, b1) else s1 + s0
    return TrieNode(bm, slots)


def _collision(key_hash, pairs):
    inline = [s for p, s in pairs if p == INLINE]
    coll = [s for p, s in pairs if p == COLLECTION]
    slots = tuple(v for vals in inline + coll for v in vals)
    return CollisionNode(key_hash, len(inline), slots)


def _single_entry(node, w):
    """``(pattern, slot_values)`` if ``node`` holds exactly one payload
    entry and nothing else, like after a delete; None otherwise."""
    if type(node) is TrieNode:
        n_i, n_c, n_n = node.region_counts()
        if n_n != 0 or n_i + n_c != 1:
            return None
        return (INLINE if n_i == 1 else COLLECTION, node.slots)
    # collision bucket shrunk to one entry
    if node.inline_n == 1 and len(node.slots) == w:
        return (INLINE, node.slots)
    if node.inline_n == 0 and len(node.slots) == 2:
        return (COLLECTION, node.slots)
    return None


def _collision_under_chain(node):
    """The collision bucket of a ``[0 payload, 1 sub-node]`` chain node,
    if that sub-node is a collision bucket; None otherwise."""
    if type(node) is not TrieNode:
        return None
    n_i, n_c, n_n = node.region_counts()
    if n_i == 0 and n_c == 0 and n_n == 1:
        child = node.slots[0]
        if type(child) is CollisionNode:
            return child
    return None


def _unit_element(set_root):
    """The only element of a one-element set root, or ``_NOT_FOUND``."""
    if type(set_root) is TrieNode:
        n_i, n_c, n_n = set_root.region_counts()
        if n_i == 1 and n_c == 0 and n_n == 0:
            return set_root.slots[0]
    return _NOT_FOUND


def count_entries(cfg, node):
    """Number of flattened entries below ``node`` (set cardinality for
    width-1 tries)."""
    return sum(1 for _ in node.iter_entries(cfg))


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
    if bm >> 64:
        _fail("bitmap wider than 64 bits")
    n_i, n_c, n_n = node.region_counts()
    if n_c and w == 1:
        _fail("collection entries in a width-1 trie")
    expected = w * n_i + 2 * n_c + n_n
    if len(node.slots) != expected:
        _fail(f"slot run has {len(node.slots)} cells, bitmap implies {expected}")
    if expected > 64:
        _fail(f"trie node with {expected} slots (maximum is 64)")
    if not is_root:
        if n_i + n_c + n_n == 0:
            _fail("empty non-root node")
        if n_n == 0 and n_i + n_c == 1:
            _fail("non-root node holds a single payload entry and no sub-nodes")
        if n_i + n_c == 0 and n_n == 1 and type(node.slots[0]) is CollisionNode:
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
            key = node.slots[pos]
            _check_hash(cfg, key, shift, prefix, branch, mask)
            tuples += 1
            keys += 1
            pos += w
        elif pattern == COLLECTION:
            key = node.slots[pos]
            _check_hash(cfg, key, shift, prefix, branch, mask)
            set_root = node.slots[pos + 1]
            vcfg = cfg.value_cfg
            sub_tuples, _ = _validate(vcfg, set_root, 0, 0, True)
            if sub_tuples < 2:
                _fail(f"collection entry for {key!r} holds {sub_tuples} values")
            tuples += sub_tuples
            keys += 1
            pos += 2
        else:
            child = node.slots[pos]
            child_prefix = prefix | (branch << shift)
            sub_tuples, sub_keys = _validate(cfg, child, shift + 5, child_prefix, False)
            tuples += sub_tuples
            keys += sub_keys
            pos += 1
    return tuples, keys


def _validate_collision(cfg, node, shift, prefix):
    w = cfg.width
    n_i = node.inline_n
    n_c = node._coll_n(w)
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
    w = cfg.width
    if type(node) is CollisionNode:
        stats["collision_nodes"] += 1
        n_i, n_c, n_n = node.inline_n, node._coll_n(w), 0
    else:
        stats["trie_nodes"] += 1
        n_i, n_c, n_n = node.region_counts()
    stats["inline_entries"] += n_i
    stats["collection_entries"] += n_c
    pos = w * n_i
    for r in range(n_c):
        nested = node_stats(cfg.value_cfg, node.slots[pos + 2 * r + 1])
        stats["nested_set_nodes"] += nested["trie_nodes"] + nested["collision_nodes"]
    pos += 2 * n_c
    for r in range(n_n):
        _collect_stats(cfg, node.slots[pos + r], depth + 1, stats)
