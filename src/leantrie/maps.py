"""Public persistent collections over the shared trie node machinery.

All three structures are immutable: update methods return a new instance
that path-copies the changed nodes and shares the rest with the receiver,
and return the receiver itself when the operation was a no-op.  The
constructors (:func:`pset`, :func:`pmap`, :func:`multimap`, the sets
that ``|``, ``-`` and ``^`` return, ``&`` with an operand of another
hasher or a plain iterable, and ``put_all`` given a plain iterable) do
not fold updates: they build the trie bottom-up through
:func:`leantrie.nodes.build_root`, each node once, into the shape the
updates would give.  The ``&`` of two sets of one hasher is structural
(:func:`leantrie.nodes.intersect`): it shares the left operand's
subtrees and keeps its element objects.

* :class:`PersistentSet` -- hash set, ``collections.abc.Set``.
* :class:`PersistentMap` -- hash map, ``collections.abc.Mapping``;
  ``put`` replaces on key equality.
* :class:`PersistentMultiMap` -- the flagship key->set-of-values
  structure.  A key's values live in its own entry while they fit: one
  value inline, two slots, and two values as a pair, three slots, with
  no nested allocation.  The third distinct value promotes the entry to
  a nested persistent set, and deletion back to two values demotes it to
  a pair, and to one value to an inline entry.  ``get`` hands out a key's
  values as a :class:`PersistentSet`, and ``put_all`` takes such a set
  back as a key's whole value set, storing the root of a set of three or
  more without a copy, so value sets move between keys and versions by
  sharing nodes.

Hash functions are pluggable per structure (``key_hash``, ``value_hash``,
``element_hash``); results are folded onto 32 bits, and they are a
structure's only options: ``footprint``'s ``specialize`` flag
(:func:`leantrie.footprint`), not the structure, decides how small nodes
are priced.  Structures pickle and deep-copy when their hash functions
are module-level functions: a pickle holds a structure's contents and
hash functions, never its nodes, because node layout follows hashes
that differ between processes (``PYTHONHASHSEED``); the receiving
process rebuilds the trie with its own hashes.

The three structures share one key test and one key walk: the module
functions ``_contains_key`` and ``_keys``, bound as class attributes
(``__contains__``, ``contains_key``, ``__iter__``, ``keys``), with no
base class and no extra call frame.
"""

from collections.abc import ItemsView, Mapping, Set, ValuesView

from .bits import COLLECTION, INLINE, PAIR
from .nodes import (
    EMPTY_ROOT,
    M32,
    InvariantError,
    TrieNode,
    _add_value,
    _drop_key,
    _drop_value,
    build_root,
    count_entries,
    intersect,
    iter_entries,
    iter_keys,
    map_config,
    multimap_config,
    node_stats,
    put_values,
    set_config,
    set_of_two,
    validate_root,
)

__all__ = [
    "PersistentMap",
    "PersistentMultiMap",
    "PersistentSet",
    "multimap",
    "pmap",
    "pset",
    "check_invariants",
]


def _contains_key(self, key):
    """Whether ``key`` is a key of this structure (an element of a set)."""
    cfg = self._cfg
    return self._root.lookup(cfg, 0, cfg.hasher(key) & M32, key) is not None


def _keys(self):
    """Iterator over distinct keys (a set's elements)."""
    return iter_keys(self._cfg, self._root)


class PersistentSet(Set):
    """Immutable hash set with structural sharing.

    Supports the full ``collections.abc.Set`` operator protocol; binary
    operators return :class:`PersistentSet` instances with the same hash
    function.  ``&`` with another set of the same hash function walks the
    two tries node by node: the result shares every node of the left
    operand whose elements the right one all holds, is the left operand
    itself when that is a subset, holds the left operand's element
    objects, and counts its elements on its first ``len``, as a set that
    ``get`` hands out does.  The other operators, and ``&`` with any
    other operand, build their result through ``build_root``.  Construct
    with :func:`pset`.
    """

    __slots__ = ("_cfg", "_root", "_size", "_hash_cache")

    def __init__(self, cfg, root, size):
        self._cfg = cfg
        self._root = root
        self._size = size
        self._hash_cache = None

    def _from_iterable(self, iterable):
        return _build_set(self._cfg, iterable)

    def __reduce__(self):
        return _rebuild, (pset, list(self), {"element_hash": self._cfg.hasher})

    def add(self, element):
        """Set containing ``element``; self if already present."""
        cfg = self._cfg
        root, delta = self._root.update(
            cfg, 0, cfg.hasher(element) & M32, element, None, _add_value
        )
        if root is self._root:
            return self
        size = None if self._size is None else self._size + delta
        return PersistentSet(cfg, root, size)

    def discard(self, element):
        """Set without ``element``; self if it was absent."""
        cfg = self._cfg
        root, delta = self._root.update(
            cfg, 0, cfg.hasher(element) & M32, element, None, _drop_key
        )
        if root is self._root:
            return self
        size = None if self._size is None else self._size + delta
        return PersistentSet(cfg, root, size)

    def remove(self, element):
        """Set without ``element``; raises KeyError if it was absent."""
        result = self.discard(element)
        if result is self:
            raise KeyError(element)
        return result

    def __and__(self, other):
        cfg = self._cfg
        if isinstance(other, PersistentSet) and other._cfg.hasher is cfg.hasher:
            root = intersect(cfg, self._root, other._root)
            if root is self._root:
                return self
            return PersistentSet(cfg, root, None)
        return Set.__and__(self, other)

    __contains__ = _contains_key
    __iter__ = _keys

    def __len__(self):
        if self._size is None:
            self._size = count_entries(self._cfg, self._root)
        return self._size

    def __bool__(self):
        return len(self._root) > 1  # only an empty root holds no slots

    def __eq__(self, other):
        if self is other:
            return True
        if isinstance(other, PersistentSet) and self._cfg.hasher is other._cfg.hasher:
            return self._root.equals(self._cfg, other._root)
        return Set.__eq__(self, other)

    def __hash__(self):
        if self._hash_cache is None:
            self._hash_cache = self._hash()
        return self._hash_cache

    def __repr__(self):
        return "pset({%s})" % ", ".join(repr(e) for e in self)


class _MapItems(ItemsView):
    __slots__ = ()

    def __iter__(self):
        mapping = self._mapping
        return iter_entries(mapping._cfg, mapping._root)


class _MapValues(ValuesView):
    __slots__ = ()

    def __iter__(self):
        mapping = self._mapping
        return (v for _, v in iter_entries(mapping._cfg, mapping._root))


class PersistentMap(Mapping):
    """Immutable hash map; ``put`` replaces the value on key equality.

    Implements the read side of ``collections.abc.Mapping``.  Construct
    with :func:`pmap`.
    """

    __slots__ = ("_cfg", "_root", "_size")

    def __init__(self, cfg, root, size):
        self._cfg = cfg
        self._root = root
        self._size = size

    def __reduce__(self):
        return _rebuild, (pmap, list(self.items()), {"key_hash": self._cfg.hasher})

    def put(self, key, value):
        """Map with ``key`` bound to ``value``; self if already bound."""
        cfg = self._cfg
        root, kd = self._root.update(
            cfg, 0, cfg.hasher(key) & M32, key, value, _add_value
        )
        if root is self._root:
            return self
        return PersistentMap(cfg, root, self._size + kd)

    def remove(self, key):
        """Map without ``key``; self if it was absent."""
        cfg = self._cfg
        root, kd = self._root.update(cfg, 0, cfg.hasher(key) & M32, key, None, _drop_key)
        if root is self._root:
            return self
        return PersistentMap(cfg, root, self._size + kd)

    def __getitem__(self, key):
        cfg = self._cfg
        found = self._root.lookup(cfg, 0, cfg.hasher(key) & M32, key)
        if found is None:
            raise KeyError(key)
        return found[1]

    __contains__ = _contains_key
    __iter__ = _keys

    def __len__(self):
        return self._size

    def items(self):
        return _MapItems(self)

    def values(self):
        return _MapValues(self)

    def __eq__(self, other):
        if self is other:
            return True
        if isinstance(other, PersistentMap) and self._cfg.hasher is other._cfg.hasher:
            return self._root.equals(self._cfg, other._root)
        if isinstance(other, Mapping):
            # not Mapping.__eq__: it hashes the keys, which a key_hash map need not allow
            if len(self) != len(other):
                return False
            for key, value in self.items():
                try:
                    theirs = other[key]
                except KeyError:
                    return False
                if not (value is theirs or value == theirs):
                    return False
            return True
        return NotImplemented

    __hash__ = None

    def __repr__(self):
        pairs = ", ".join(f"{k!r}: {v!r}" for k, v in self.items())
        return "pmap({%s})" % pairs


class PersistentMultiMap:
    """Immutable multimap: each key maps to a set of distinct values.

    ``len()`` counts (key, value) tuples; ``key_count`` counts distinct
    keys.  ``get`` returns a key's values as a :class:`PersistentSet`,
    whatever their storage: the empty set for an absent key, a one-element
    set over an inline value, a two-element set over a pair, or a set
    sharing the nested set's nodes.
    ``put_all`` rewrites a key's whole value set in one update.  Construct
    with :func:`multimap`.

    The key count is always kept.  The tuple count is kept through ``put``
    and ``remove``, which change it by one, but ``put_all`` and
    ``remove_key`` do not size the value sets they store or drop: after
    them, the first ``len`` or ``tuple_count`` walks the trie once and
    caches the count, as ``len`` of a :class:`PersistentSet` does.
    """

    __slots__ = ("_cfg", "_root", "_tuples", "_keys")

    def __init__(self, cfg, root, tuples, keys):
        self._cfg = cfg
        self._root = root
        self._tuples = tuples
        self._keys = keys

    def __reduce__(self):
        cfg = self._cfg
        options = {"key_hash": cfg.hasher, "value_hash": cfg.value_cfg.hasher}
        return _rebuild, (multimap, list(self.items()), options)

    @property
    def tuple_count(self):
        if self._tuples is None:
            self._tuples = count_entries(self._cfg, self._root)
        return self._tuples

    @property
    def key_count(self):
        return self._keys

    def _updated(self, key, value, change, td=None):
        """This multimap with ``change`` applied to ``key``'s entry; ``td``
        is the change in tuples, None when the update does not know it."""
        cfg = self._cfg
        root, kd = self._root.update(cfg, 0, cfg.hasher(key) & M32, key, value, change)
        if root is self._root:
            return self
        tuples = None if td is None or self._tuples is None else self._tuples + td
        return PersistentMultiMap(cfg, root, tuples, self._keys + kd)

    def put(self, key, value):
        """Multimap with ``(key, value)`` present; self if it already was."""
        return self._updated(key, value, _add_value, 1)

    def remove(self, key, value):
        """Multimap without ``(key, value)``; self if it was absent."""
        return self._updated(key, value, _drop_value, -1)

    def remove_key(self, key):
        """Multimap without any tuple for ``key``; self if none existed."""
        return self._updated(key, None, _drop_key)

    def put_all(self, key, values):
        """Multimap in which ``key``'s values are exactly ``values``; self
        if they already were.

        No values removes the key, one is stored inline, two as a pair and
        more become a nested set, in one path copy.  A
        :class:`PersistentSet` of three or more values with this multimap's
        value hasher is shared, not copied: its root is stored as is.  Any
        other iterable is built into a set once.
        """
        vcfg = self._cfg.value_cfg
        if isinstance(values, PersistentSet) and values._cfg.hasher is vcfg.hasher:
            root = values._root
        else:
            root = build_root(vcfg, values)[0]
        if len(root) == 1:  # the empty root
            return self.remove_key(key)
        return self._updated(key, (key, root), put_values)

    def get(self, key):
        """The values bound to ``key``, as a :class:`PersistentSet`.

        An absent key gives the empty set.  An inline value gets a
        one-entry root of its own, which calls the value hasher once, and a
        pair a two-entry root, which calls it twice; a collection entry
        gives a set over the shared nested root, with no copy.
        """
        cfg = self._cfg
        vcfg = cfg.value_cfg
        found = self._root.lookup(cfg, 0, cfg.hasher(key) & M32, key)
        if found is None:
            return PersistentSet(vcfg, EMPTY_ROOT, 0)
        pattern, payload = found
        if pattern == COLLECTION:
            return PersistentSet(vcfg, payload, None)
        if pattern == INLINE:
            h = vcfg.hasher(payload) & M32
            root = TrieNode((INLINE << ((h & 31) << 1), payload))
            return PersistentSet(vcfg, root, 1)
        return PersistentSet(vcfg, set_of_two(vcfg, *payload), 2)

    contains_key = __contains__ = _contains_key

    def contains_entry(self, key, value):
        cfg = self._cfg
        found = self._root.lookup(cfg, 0, cfg.hasher(key) & M32, key)
        if found is None:
            return False
        pattern, payload = found
        if pattern == INLINE:
            return payload is value or payload == value
        if pattern == PAIR:
            v0, v1 = payload
            return v0 is value or v0 == value or v1 is value or v1 == value
        vcfg = cfg.value_cfg
        return payload.lookup(vcfg, 0, vcfg.hasher(value) & M32, value) is not None

    keys = __iter__ = _keys

    def items(self):
        """Iterator over (key, value) tuples, flattened."""
        return iter_entries(self._cfg, self._root)

    def __len__(self):
        return self.tuple_count

    def __bool__(self):
        return self._keys > 0

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, PersistentMultiMap):
            return NotImplemented
        if self._keys != other._keys:
            return False
        if self._cfg.hasher is other._cfg.hasher and (
            self._cfg.value_cfg.hasher is other._cfg.value_cfg.hasher
        ):
            return self._root.equals(self._cfg, other._root)
        if len(self) != len(other):
            return False
        return all(other.contains_entry(k, v) for k, v in self.items())

    __hash__ = None

    def __repr__(self):
        pairs = ", ".join(f"({k!r}, {v!r})" for k, v in self.items())
        return "multimap([%s])" % pairs


def _build_set(cfg, iterable):
    root, size, _ = build_root(cfg, iterable)
    return PersistentSet(cfg, root, size)


def pset(iterable=(), *, element_hash=None):
    """Persistent set of ``iterable``'s elements.

    ``element_hash`` replaces the default hash function.
    """
    return _build_set(set_config(element_hash), iterable)


def pmap(source=(), *, key_hash=None):
    """Persistent map from a mapping or an iterable of (key, value) pairs.

    Later pairs replace earlier ones on key equality.
    """
    cfg = map_config(key_hash)
    pairs = source.items() if isinstance(source, Mapping) else source
    root, _, size = build_root(cfg, pairs)
    return PersistentMap(cfg, root, size)


def multimap(source=(), *, key_hash=None, value_hash=None):
    """Persistent multimap from a mapping, a multimap or an iterable of
    (key, value) pairs.  Duplicate pairs collapse; duplicate keys
    accumulate values.
    """
    cfg = multimap_config(key_hash, value_hash)
    pairs = source.items() if isinstance(source, (Mapping, PersistentMultiMap)) else source
    return PersistentMultiMap(cfg, *build_root(cfg, pairs))


def _rebuild(factory, contents, options):
    """Unpickle a structure by building it again from its contents."""
    return factory(contents, **options)


def check_invariants(structure):
    """Validate ``structure``'s trie against every structural invariant
    and recount its sizes; raises ``InvariantError`` when a recount
    differs from a cached count.  A multimap's tuple count and a set's
    size are checked when cached.  Intended for tests and correctness gates."""
    if not isinstance(structure, (PersistentMultiMap, PersistentSet, PersistentMap)):
        raise TypeError(f"not a persistent structure: {type(structure).__name__}")
    tuples, keys = validate_root(structure._cfg, structure._root)
    if isinstance(structure, PersistentMultiMap):
        cached = structure._tuples
        if keys != structure._keys or (cached is not None and tuples != cached):
            raise InvariantError(
                f"cached counts ({structure._tuples}, {structure._keys}) "
                f"!= recounted ({tuples}, {keys})"
            )
    elif isinstance(structure, PersistentSet):
        if structure._size is not None and tuples != structure._size:
            raise InvariantError(
                f"cached size {structure._size} != recounted {tuples}"
            )
    elif tuples != structure._size or keys != structure._size:
        raise InvariantError(
            f"cached size {structure._size} != recounted ({tuples}, {keys})"
        )
    return structure


def structure_stats(structure):
    """Node-level counters for ``structure`` (see ``node_stats``)."""
    return node_stats(structure._cfg, structure._root)
