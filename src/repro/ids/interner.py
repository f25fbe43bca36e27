"""Dense, deterministic integer ids for one KB's entity URIs.

An :class:`EntityInterner` assigns ids ``0..n-1`` to the distinct URIs
it is constructed from, in **sorted URI order**, and never grows.  That
single choice buys two properties the array-backed similarity core
leans on:

- ids are a pure function of the URI *set* — identical across runs,
  processes and executors (no insertion-order or hash-seed dependence);
- ascending id order coincides with ascending URI order, so integer
  sorts and integer tie-breaks reproduce exactly the string sorts and
  string tie-breaks of the old dict-backed code.

Both constructors enforce the order: the plain one sorts its URIs, and
:meth:`EntityInterner.from_uri_list` refuses a list that does not
strictly ascend.  A delta builds new indices over fresh interners.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Iterator

from .packing import MAX_ENTITY_ID


class EntityInterner:
    """Bidirectional URI <-> dense ``int32`` id map, in URI order."""

    __slots__ = ("_uris", "_ids")

    def __init__(self, uris: Iterable[str] = ()) -> None:
        self._adopt(sorted(set(uris)))

    @classmethod
    def from_uri_list(cls, uris: Iterable[str]) -> "EntityInterner":
        """An interner whose id of ``uris[i]`` is exactly ``i``.

        The inverse of :meth:`uris`, for column-oriented consumers that
        reconstruct an interner from its serialized decode table.
        Raises ``ValueError`` unless ``uris`` strictly ascends (which
        also rules out duplicates).
        """
        uris = list(uris)
        if any(earlier >= later for earlier, later in zip(uris, uris[1:])):
            raise ValueError("URI list is not strictly ascending")
        interner = cls.__new__(cls)
        interner._adopt(uris)
        return interner

    def _adopt(self, uris: list[str]) -> None:
        if len(uris) > MAX_ENTITY_ID + 1:
            raise OverflowError(
                f"cannot intern {len(uris)} URIs; packed pair keys hold "
                f"at most {MAX_ENTITY_ID + 1} ids per KB"
            )
        self._uris = uris
        self._ids: dict[str, int] = {
            uri: position for position, uri in enumerate(uris)
        }

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

    def images_in(self, target: "EntityInterner") -> array:
        """Per id here, the id of its URI in ``target`` (``-1`` where
        ``target`` lacks it).  Ascending where defined: both id orders
        are URI order."""
        ids = target._ids
        return array("q", [ids.get(uri, -1) for uri in self._uris])

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
        return f"EntityInterner({len(self._uris)} URIs)"
