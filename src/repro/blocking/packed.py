"""Columnar (id-column CSR) block collections.

A :class:`PackedBlockCollection` holds a two-sided block collection the
way the similarity core holds pair maps: block keys as one sorted string
column, each side's membership as an :class:`~repro.ids.EntityInterner`
over exactly the member URIs plus a CSR layout (``starts`` offsets into
a flat, per-row-sorted ``int32`` id column).  The columns are the
collection: the engine, the online resolver's block probes and the
digest read them.  The familiar string-keyed
:class:`~repro.blocking.base.BlockCollection` surface is decoded from
them on its first read (H1 walks the name blocks; nothing on a delta
reads the token blocks' view).  The blocking stages assemble one from
their :class:`~repro.blocking.placements.PlacementTable`;
:meth:`PackedBlockCollection.from_collection` encodes the plain
collection a custom blocking stage produces.

Because member interners assign ids in sorted-URI order and every CSR
row is sorted ascending, scanning a row in id order reproduces exactly
the sorted-URI scans of the string-keyed builders — the same property
the similarity indices rely on.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cached_property
from typing import Collection, Iterable, Sequence

from ..ids import EntityInterner, arrays
from .base import Block, BlockCollection


class PackedBlockCollection(BlockCollection):
    """A block collection whose canonical form is id-column CSR.

    Parameters
    ----------
    name:
        Collection label (``"BT"`` for token blocks, ``"BN"`` for names).
    keys:
        Block keys in **strictly ascending** order.
    members1 / members2:
        Per key, in the same order, the URIs of that block on each side.

    Each side's members are interned over exactly the member URIs
    (sorted-URI ids) and laid out as CSR: ``starts`` has ``len(keys) +
    1`` offsets into a flat ``ids`` column whose rows sort ascending
    (:meth:`csr`).  The member collections are read once, here: the
    string-keyed ``Block`` view is decoded from the columns when first
    read, so it shows these members even after the caller mutates its
    sets (a placement table's are live).  ``len``, ``keys()``, ``in``
    and :attr:`block_keys` answer from the key column.
    """

    def __init__(
        self,
        name: str,
        keys: Iterable[str],
        members1: Sequence[Collection[str]],
        members2: Sequence[Collection[str]],
    ) -> None:
        self.name = name
        self._keys = tuple(keys)
        if any(
            later <= earlier
            for earlier, later in zip(self._keys, self._keys[1:])
        ):
            raise ValueError("block keys must be strictly ascending")
        if not len(members1) == len(members2) == len(self._keys):
            raise ValueError("one member set per key and side is required")
        self._interner1, self._starts1, self._ids1 = arrays.member_csr(members1)
        self._interner2, self._starts2, self._ids2 = arrays.member_csr(members2)

    @cached_property
    def _blocks(self) -> dict[str, Block]:
        """The string-keyed view, decoded from the columns on first read."""
        return {
            key: Block(key, set(entities1), set(entities2))
            for key, entities1, entities2 in zip(
                self._keys, self.member_uris(1), self.member_uris(2)
            )
        }

    @classmethod
    def from_collection(
        cls, blocks: BlockCollection, name: str | None = None
    ) -> "PackedBlockCollection":
        """Encode an existing collection into its columnar form.

        The decode view of the result equals ``blocks`` exactly (same
        keys, same membership sets); one-sided blocks are rejected —
        they carry no comparison and the columnar form has no place for
        them.
        """
        ordered = sorted(blocks, key=lambda block: block.key)
        for block in ordered:
            if block.is_empty():
                raise ValueError(
                    f"cannot pack one-sided block {block.key!r}; "
                    "drop_empty() first"
                )
        return cls(
            name or blocks.name,
            [block.key for block in ordered],
            [block.entities1 for block in ordered],
            [block.entities2 for block in ordered],
        )

    # ------------------------------------------------------------------
    # Columnar access
    # ------------------------------------------------------------------
    @property
    def block_keys(self) -> tuple[str, ...]:
        """All block keys, ascending (row order of the CSR columns)."""
        return self._keys

    def interners(self) -> tuple[EntityInterner, EntityInterner]:
        """The member-URI id maps (side 1, side 2) the CSR ids index."""
        return self._interner1, self._interner2

    def csr(self, side: int) -> tuple:
        """One side's ``(starts, ids)`` CSR columns, ``int64`` / ``int32``
        NumPy arrays (do not mutate)."""
        if side == 1:
            return self._starts1, self._ids1
        if side == 2:
            return self._starts2, self._ids2
        raise ValueError("side must be 1 or 2")

    def member_uris(self, side: int) -> list[list[str]]:
        """Per block row, one side's member URIs ascending."""
        starts, ids = self.csr(side)
        uris = (self._interner1 if side == 1 else self._interner2).uris()
        decoded = [uris[i] for i in ids.tolist()]
        bounds = starts.tolist()
        return [decoded[lo:hi] for lo, hi in zip(bounds, bounds[1:])]

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, key: str) -> bool:
        position = bisect_left(self._keys, key)
        return position < len(self._keys) and self._keys[position] == key

    def keys(self) -> list[str]:
        return list(self._keys)

    def __repr__(self) -> str:
        return (
            f"PackedBlockCollection({self.name!r}, {len(self)} blocks, "
            f"{len(self._ids1)}+{len(self._ids2)} placements)"
        )
