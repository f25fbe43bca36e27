"""Columnar (id-column CSR) block collections.

A :class:`PackedBlockCollection` holds a two-sided block collection the
way the similarity core holds pair maps: block keys as one sorted string
column, each side's membership as an :class:`~repro.ids.EntityInterner`
over exactly the member URIs plus a CSR layout (``starts`` offsets into
a flat, per-row-sorted ``array('i')`` id column).  The familiar
string-keyed :class:`~repro.blocking.base.BlockCollection` surface is
built beside the columns from the same member sets — the packed columns
stay authoritative for the engine (shard encoding without re-interning),
for process workers (raw buffers instead of string sets) and for the
online resolver's block probes.  The blocking stages assemble one from
their :class:`~repro.blocking.placements.PlacementTable`;
:meth:`PackedBlockCollection.from_collection` encodes the plain
collection a custom blocking stage produces.

Because member interners assign ids in sorted-URI order and every CSR
row is sorted ascending, scanning a row in id order reproduces exactly
the sorted-URI scans of the string-keyed builders — the same property
PR 4's similarity indices rely on.
"""

from __future__ import annotations

from array import array
from typing import Collection, Iterable, Sequence

from ..ids import EntityInterner
from .base import Block, BlockCollection


def _csr(
    members: Sequence[Collection[str]],
) -> tuple[EntityInterner, array, array]:
    """One side's member interner and ``(starts, ids)`` rows; sorted-URI
    ids make each row's ascending ids its ascending URIs."""
    interner = EntityInterner(uri for row in members for uri in row)
    ids_of = interner.ids_by_uri()
    starts, ids = array("q", (0,)), array("i")
    for row in members:
        ids.extend(sorted(map(ids_of.__getitem__, row)))
        starts.append(len(ids))
    return interner, starts, ids


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
    1`` offsets into a flat ``ids`` column whose rows sort ascending.
    The string-keyed ``Block`` view is built eagerly from copies of the
    member sets (downstream purging/metrics/digest code keeps working
    unchanged); the columns stay accessible via :meth:`csr`.
    """

    def __init__(
        self,
        name: str,
        keys: Iterable[str],
        members1: Sequence[Collection[str]],
        members2: Sequence[Collection[str]],
    ) -> None:
        self._keys = tuple(keys)
        if any(
            later <= earlier
            for earlier, later in zip(self._keys, self._keys[1:])
        ):
            raise ValueError("block keys must be strictly ascending")
        if not len(members1) == len(members2) == len(self._keys):
            raise ValueError("one member set per key and side is required")
        self._interner1, self._starts1, self._ids1 = _csr(members1)
        self._interner2, self._starts2, self._ids2 = _csr(members2)
        super().__init__(
            name,
            (
                Block(key, set(entities1), set(entities2))
                for key, entities1, entities2 in zip(
                    self._keys, members1, members2
                )
            ),
        )

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

    def csr(self, side: int) -> tuple[array, array]:
        """One side's ``(starts, ids)`` CSR columns (do not mutate)."""
        if side == 1:
            return self._starts1, self._ids1
        if side == 2:
            return self._starts2, self._ids2
        raise ValueError("side must be 1 or 2")

    def row_ids(self, row: int, side: int) -> array:
        """The sorted member ids of one block row on one side."""
        starts, ids = self.csr(side)
        return ids[starts[row] : starts[row + 1]]

    def row_sizes(self, row: int) -> tuple[int, int]:
        """``(|b1|, |b2|)`` of one block row, from the offsets alone."""
        return (
            self._starts1[row + 1] - self._starts1[row],
            self._starts2[row + 1] - self._starts2[row],
        )

    def __repr__(self) -> str:
        return (
            f"PackedBlockCollection({self.name!r}, {len(self)} blocks, "
            f"{len(self._ids1)}+{len(self._ids2)} placements)"
        )
