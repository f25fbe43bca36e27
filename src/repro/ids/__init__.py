"""Integer interning of entity URIs and packed pair keys.

The similarity hot path never needs the URI *strings* — it needs stable
identities that hash fast, sort fast and serialize compactly.  This
package provides the two primitives the array-backed similarity core is
built on:

- :class:`~repro.ids.interner.EntityInterner` maps each KB's URIs to
  dense ``int32`` ids, assigned in sorted-URI order and never appended
  to, so ids are deterministic and id order *is* URI order — integer
  sorts and tie-breaks everywhere downstream are URI sorts and
  tie-breaks;
- :mod:`~repro.ids.packing` packs an ``(id1, id2)`` cross-KB pair into a
  single ``int64`` key (``id1 << 32 | id2``) — one machine word per
  pair instead of a tuple of two heap strings.

Everything URI-facing stays a thin decode layer over these ids; see
``docs/PERFORMANCE.md`` for the representation and its determinism
contract.
"""

from .interner import EntityInterner
from .packing import (
    PAIR_ID_BITS,
    PAIR_ID_MASK,
    MAX_ENTITY_ID,
    pack_pair,
    unpack_pair,
)

__all__ = [
    "EntityInterner",
    "PAIR_ID_BITS",
    "PAIR_ID_MASK",
    "MAX_ENTITY_ID",
    "pack_pair",
    "unpack_pair",
]
