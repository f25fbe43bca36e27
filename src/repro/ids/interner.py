"""Dense, deterministic integer ids for one KB's entity URIs.

An :class:`EntityInterner` assigns ids ``0..n-1`` to the distinct URIs
it is constructed from, in **sorted URI order**.  That single choice
buys two properties the array-backed similarity core leans on:

- ids are a pure function of the URI *set* — identical across runs,
  processes and executors (no insertion-order or hash-seed dependence);
- ascending id order coincides with ascending URI order, so integer
  sorts and integer tie-breaks reproduce exactly the string sorts and
  string tie-breaks of the old dict-backed code.

URIs interned *after* construction get the next free id, which may
break the id-order == URI-order coincidence; :attr:`is_sorted` tracks
whether it still holds so consumers can keep the integer fast path or
fall back to decoded-URI ordering.  The pipeline itself never grows an
interner (a delta builds new indices over freshly sorted interners);
appended ids reach it only through snapshots written by earlier builds.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .packing import MAX_ENTITY_ID


class EntityInterner:
    """Bidirectional URI <-> dense ``int32`` id map, stable-sorted."""

    __slots__ = ("_uris", "_ids", "_sorted")

    def __init__(self, uris: Iterable[str] = ()) -> None:
        self._uris: list[str] = sorted(set(uris))
        if len(self._uris) > MAX_ENTITY_ID + 1:
            raise OverflowError(
                f"cannot intern {len(self._uris)} URIs; packed pair keys "
                f"hold at most {MAX_ENTITY_ID + 1} ids per KB"
            )
        self._ids: dict[str, int] = {
            uri: position for position, uri in enumerate(self._uris)
        }
        self._sorted = True

    # ------------------------------------------------------------------
    # Construction (alternate)
    # ------------------------------------------------------------------
    @classmethod
    def from_uri_list(cls, uris: Iterable[str]) -> "EntityInterner":
        """An interner whose id of ``uris[i]`` is exactly ``i``.

        The inverse of :meth:`uris`: snapshot loading and other
        column-oriented consumers reconstruct an interner from its
        serialized decode table, preserving every id assignment —
        including ids appended out of sorted order by deltas.
        ``is_sorted`` is recomputed from the list, which equals what
        incremental tracking would have recorded (the flag only drops
        when an append lands below its predecessor).
        """
        interner = cls.__new__(cls)
        interner._uris = list(uris)
        if len(interner._uris) > MAX_ENTITY_ID + 1:
            raise OverflowError(
                f"cannot intern {len(interner._uris)} URIs; packed pair "
                f"keys hold at most {MAX_ENTITY_ID + 1} ids per KB"
            )
        interner._ids = {
            uri: position for position, uri in enumerate(interner._uris)
        }
        if len(interner._ids) != len(interner._uris):
            raise ValueError("URI list contains duplicates")
        interner._sorted = all(
            earlier <= later
            for earlier, later in zip(interner._uris, interner._uris[1:])
        )
        return interner

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def id_of(self, uri: str) -> int:
        """The id of an interned URI (``KeyError`` when unknown)."""
        return self._ids[uri]

    def get(self, uri: str) -> int | None:
        """The id of a URI, or ``None`` when it was never interned."""
        return self._ids.get(uri)

    def uri_of(self, entity_id: int) -> str:
        """The URI an id decodes to (``IndexError`` when out of range)."""
        return self._uris[entity_id]

    def uris(self) -> list[str]:
        """All interned URIs, indexed by id (the live decode table)."""
        return self._uris

    def ids_by_uri(self) -> dict[str, int]:
        """The live ``uri -> id`` map, for bulk encoding (do not mutate)."""
        return self._ids

    # ------------------------------------------------------------------
    # Growth
    # ------------------------------------------------------------------
    def intern(self, uri: str) -> int:
        """The id of ``uri``, interning it at the next free id if new.

        Appending keeps every existing id stable.  :attr:`is_sorted`
        drops to False when the new URI lands out of sorted order.
        """
        found = self._ids.get(uri)
        if found is not None:
            return found
        assigned = len(self._uris)
        if assigned > MAX_ENTITY_ID:
            raise OverflowError(
                f"cannot intern more than {MAX_ENTITY_ID + 1} URIs per KB"
            )
        if self._sorted and self._uris and uri < self._uris[-1]:
            self._sorted = False
        self._uris.append(uri)
        self._ids[uri] = assigned
        return assigned

    @property
    def is_sorted(self) -> bool:
        """True while ascending id order still equals ascending URI order."""
        return self._sorted

    # ------------------------------------------------------------------
    # Dunder plumbing
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._uris)

    def __contains__(self, uri: str) -> bool:
        return uri in self._ids

    def __iter__(self) -> Iterator[str]:
        return iter(self._uris)

    def __repr__(self) -> str:
        state = "sorted" if self._sorted else "appended"
        return f"EntityInterner({len(self._uris)} URIs, {state})"
