"""Persistent map, set, and memory-lean multimap on bitmapped tries.

The flagship structure is :class:`PersistentMultiMap`, which stores a
key's values in the key's own entry while they fit: one value inline, two
as a pair, and a nested persistent set only from three values on.
All structures are immutable; update operations return new instances that
share structure with the original.
"""

from .maps import (
    PersistentMap,
    PersistentMultiMap,
    PersistentSet,
    check_invariants,
    multimap,
    pmap,
    pset,
    structure_stats,
)
from .storage import (
    DEFAULT_MODEL,
    FootprintModel,
    FootprintReport,
    byte_components,
    footprint,
    object_bytes,
)

__all__ = [
    "PersistentMap",
    "PersistentMultiMap",
    "PersistentSet",
    "multimap",
    "pmap",
    "pset",
    "FootprintModel",
    "FootprintReport",
    "DEFAULT_MODEL",
    "footprint",
    "object_bytes",
    "byte_components",
    "check_invariants",
    "structure_stats",
]
