"""Persistent map, set, and memory-lean multimap on bitmapped tries.

The flagship structure is :class:`PersistentMultiMap`, which stores keys
with a single value inline (no nested set is allocated until a key gains a
second value) and promotes to a nested persistent set only when needed.
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
