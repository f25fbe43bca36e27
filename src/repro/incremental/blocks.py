"""Delta-maintained block placements (the mutable twin of a BlockCollection).

A :class:`DeltaBlockIndex` holds, per KB side, the ``key -> {uris}``
placements a blocking scheme would compute, plus the inverse ``uri ->
{keys}`` view, and keeps both consistent under entity insertions and
removals — re-deriving keys only for the entities a delta touches.  It
can materialize a :class:`~repro.blocking.base.BlockCollection` equal
to what the batch builders produce on the same data: two-sided keys
only, blocks inserted in sorted key order, membership sets copied.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from ..blocking.base import Block, BlockCollection
from ..engine.blocking import KeyRows


class DeltaBlockIndex:
    """Two-sided blocking placements maintained under entity deltas."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._placements: tuple[dict[str, set[str]], dict[str, set[str]]] = (
            {},
            {},
        )
        self._entity_keys: tuple[
            dict[str, frozenset[str]], dict[str, frozenset[str]]
        ] = ({}, {})

    @classmethod
    def from_rows(
        cls, name: str, rows: tuple[KeyRows, KeyRows]
    ) -> "DeltaBlockIndex":
        """An index holding both sides' ``(uri, keys)`` placement rows."""
        index = cls(name)
        index.load_side(1, rows[0])
        index.load_side(2, rows[1])
        return index

    # ------------------------------------------------------------------
    # Delta application
    # ------------------------------------------------------------------
    def add_entity(self, side: int, uri: str, keys: Iterable[str]) -> None:
        """Place ``uri`` (side 1 or 2) into the blocks for ``keys``.

        Raises on a URI already placed on that side: overwriting would
        leave the old keys' placements behind (silent index corruption);
        callers re-keying an entity must ``remove_entity`` first.
        """
        placements = self._placements[side - 1]
        if uri in self._entity_keys[side - 1]:
            raise ValueError(
                f"entity {uri!r} already placed on side {side}; "
                "remove_entity first to re-key it"
            )
        key_set = frozenset(keys)
        self._entity_keys[side - 1][uri] = key_set
        for key in key_set:
            placements.setdefault(key, set()).add(uri)

    def remove_entity(self, side: int, uri: str) -> None:
        """Withdraw ``uri`` from every block it was placed in."""
        placements = self._placements[side - 1]
        key_set = self._entity_keys[side - 1].pop(uri, frozenset())
        for key in key_set:
            members = placements.get(key)
            if members is None:
                continue
            members.discard(uri)
            if not members:
                del placements[key]

    def load_side(
        self, side: int, entity_keys: Iterable[tuple[str, frozenset[str]]]
    ) -> None:
        """Replace one side wholesale (bootstrap, or a scheme change)."""
        placements: dict[str, set[str]] = {}
        keys_of: dict[str, frozenset[str]] = {}
        for uri, keys in entity_keys:
            keys_of[uri] = keys
            for key in keys:
                placements.setdefault(key, set()).add(uri)
        self._placements = (
            (placements, self._placements[1])
            if side == 1
            else (self._placements[0], placements)
        )
        self._entity_keys = (
            (keys_of, self._entity_keys[1])
            if side == 1
            else (self._entity_keys[0], keys_of)
        )

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def entity_keys(self, side: int, uri: str) -> frozenset[str]:
        """The block keys of ``uri`` on ``side`` (empty when absent)."""
        return self._entity_keys[side - 1].get(uri, frozenset())

    def rows(self, uris: tuple[list[str], list[str]]) -> tuple[KeyRows, KeyRows]:
        """Both sides' placement rows in the given URI orders (the
        inverse of :meth:`from_rows`; what a snapshot persists)."""
        return tuple(
            [(uri, self.entity_keys(side, uri)) for uri in side_uris]
            for side, side_uris in enumerate(uris, start=1)
        )

    def shared_counts(self) -> dict[str, tuple[int, int]]:
        """Side sizes of every two-sided key (the keys that form blocks)."""
        side1, side2 = self._placements
        return {
            key: (len(side1[key]), len(side2[key]))
            for key in side1.keys() & side2.keys()
        }

    # ------------------------------------------------------------------
    # Materialization
    # ------------------------------------------------------------------
    def assemble(self, keep: Mapping[str, object] | set[str] | None = None) -> BlockCollection:
        """A :class:`BlockCollection` equal to the batch builders' output.

        Two-sided keys only (optionally restricted to ``keep``), inserted
        in sorted key order, membership sets copied so downstream holders
        never alias this index's mutable state.
        """
        side1, side2 = self._placements
        keys = side1.keys() & side2.keys()
        if keep is not None:
            keys = keys & set(keep)
        blocks = BlockCollection(self.name)
        for key in sorted(keys):
            blocks.add(Block(key, set(side1[key]), set(side2[key])))
        return blocks

    def __repr__(self) -> str:
        return (
            f"DeltaBlockIndex({self.name!r}, "
            f"{len(self._placements[0])}+{len(self._placements[1])} keys)"
        )
