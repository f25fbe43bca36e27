"""Placement tables: the one form a blocking scheme's output takes.

A :class:`PlacementTable` holds, per KB side, the ``key -> {uris}``
placements of one blocking scheme — purged and one-sided keys included
— plus the inverse ``uri -> keys`` view.  The blocking stages key every
entity once (:func:`entity_key_rows`) into a table and publish it
(``token_placements`` / ``name_placements``); the snapshot store
persists its :meth:`rows`; the incremental matcher adopts it and keeps
both views consistent under entity insertions and removals, keying only
the entities a delta adds.

Blocks are never built any other way: :meth:`assemble` turns the
two-sided keys (optionally only the Block Purging survivors) into the
:class:`~repro.blocking.packed.PackedBlockCollection` a cold run, a
snapshot load and a delta all hand downstream.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping

from ..kb.entity import EntityDescription
from .packed import PackedBlockCollection

#: Placement rows of one side: ``(uri, block keys)`` per entity.
KeyRows = list[tuple[str, frozenset[str]]]

#: Entity -> its block keys under one blocking scheme.
KeysOf = Callable[[EntityDescription], frozenset[str]]


def entity_key_rows(
    entities: Iterable[EntityDescription], keys_of: KeysOf
) -> KeyRows:
    """``(uri, block keys)`` of every entity, in the order given.

    The one place an entity is turned into its blocking keys:
    ``keys_of`` is ``partial(token_keys, tokenizer=...)`` or
    ``partial(name_keys, extractor=...)``.
    """
    return [(entity.uri, keys_of(entity)) for entity in entities]


class PlacementTable:
    """Both sides' placements of one blocking scheme, delta-maintainable."""

    def __init__(
        self,
        name: str,
        rows: tuple[Iterable[tuple[str, frozenset[str]]], ...] = ((), ()),
    ) -> None:
        """A table named like the collections it assembles (``"BT"`` /
        ``"BN"``) holding both sides' ``(uri, keys)`` rows."""
        self.name = name
        self._placements: tuple[dict[str, set[str]], dict[str, set[str]]] = (
            {},
            {},
        )
        self._entity_keys: tuple[
            dict[str, frozenset[str]], dict[str, frozenset[str]]
        ] = ({}, {})
        for side, side_rows in enumerate(rows, start=1):
            for uri, keys in side_rows:
                self.add_entity(side, uri, keys)

    # ------------------------------------------------------------------
    # Delta application
    # ------------------------------------------------------------------
    def add_entity(self, side: int, uri: str, keys: Iterable[str]) -> None:
        """Place ``uri`` (side 1 or 2) into the blocks for ``keys``.

        Raises on a URI already placed on that side: overwriting would
        leave the old keys' placements behind (silent index corruption);
        callers re-keying an entity must ``remove_entity`` first.
        """
        if uri in self._entity_keys[side - 1]:
            raise ValueError(
                f"entity {uri!r} already placed on side {side}; "
                "remove_entity first to re-key it"
            )
        key_set = frozenset(keys)
        self._entity_keys[side - 1][uri] = key_set
        placements = self._placements[side - 1]
        for key in key_set:
            placements.setdefault(key, set()).add(uri)

    def remove_entity(self, side: int, uri: str) -> None:
        """Withdraw ``uri`` from every block it was placed in."""
        placements = self._placements[side - 1]
        for key in self._entity_keys[side - 1].pop(uri, frozenset()):
            members = placements[key]
            members.discard(uri)
            if not members:
                del placements[key]

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def entity_keys(self, side: int, uri: str) -> frozenset[str]:
        """The block keys of ``uri`` on ``side`` (empty when absent)."""
        return self._entity_keys[side - 1].get(uri, frozenset())

    def key_members(self, side: int) -> Mapping[str, set[str]]:
        """The live ``key -> {uris}`` placements of ``side``: read-only,
        and changed by the next delta — a reader that outlives it copies
        what it needs."""
        return self._placements[side - 1]

    def rows(self, uris: tuple[list[str], list[str]]) -> tuple[KeyRows, KeyRows]:
        """Both sides' placement rows in the given URI orders (the
        constructor's input; what a snapshot persists)."""
        return tuple(
            [(uri, self.entity_keys(side, uri)) for uri in side_uris]
            for side, side_uris in enumerate(uris, start=1)
        )

    def shared_counts(self) -> dict[str, tuple[int, int]]:
        """Side sizes of every two-sided key (the keys that form blocks):
        all Block Purging needs to decide."""
        side1, side2 = self._placements
        return {
            key: (len(side1[key]), len(side2[key]))
            for key in side1.keys() & side2.keys()
        }

    # ------------------------------------------------------------------
    # Materialization
    # ------------------------------------------------------------------
    def assemble(self, keep: Iterable[str] | None = None) -> PackedBlockCollection:
        """The blocks of every two-sided key, optionally only those in
        ``keep`` (the purging survivors), packed.

        Keys ascend and the members are read into columns here, so the
        collection equals the serial builders' output block for block
        and never aliases this table's mutable state.
        """
        side1, side2 = self._placements
        keys = side1.keys() & side2.keys()
        if keep is not None:
            keys = keys.intersection(keep)
        ordered = sorted(keys)
        return PackedBlockCollection(
            self.name,
            ordered,
            [side1[key] for key in ordered],
            [side2[key] for key in ordered],
        )

    def __repr__(self) -> str:
        return (
            f"PlacementTable({self.name!r}, "
            f"{len(self._placements[0])}+{len(self._placements[1])} keys)"
        )
