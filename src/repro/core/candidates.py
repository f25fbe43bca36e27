"""Per-entity candidate lists drawn from the two similarity indices.

Each entity carries up to ``K`` value-based candidates and up to ``K``
neighbor-based candidates.  These lists feed H3 (rank aggregation over the
two orders) and H4 (reciprocity: a match must appear in the other side's
lists too).

The lists are cut on **bare ids** (:func:`kept_neighbor_offsets` over
the two undecoded CSR rows) and only the ≤ 2·``K`` survivors are decoded
to URIs; the online resolver's H4 bars call the same function.
"""

from __future__ import annotations

from array import array
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Sequence

from .neighbors import NeighborSimilarityIndex
from .similarity import ValueSimilarityIndex


class ProbeCache:
    """A bounded LRU map for probe results that holds no back-references.

    ``functools.lru_cache`` over a bound method stores the method — and
    through ``__self__`` the owner — inside a wrapper the owner itself
    keeps, a reference cycle that parks every retired owner (a replaced
    serving generation, a dropped session) in the garbage collector
    instead of freeing it the moment its last reference dies.  This
    explicit variant stores only keys and results, so owners are
    reclaimed promptly by refcount alone.
    """

    __slots__ = (
        "maxsize",
        "hits",
        "misses",
        "evictions",
        "_entries",
        "__weakref__",
    )

    def __init__(self, maxsize: int) -> None:
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.maxsize = maxsize
        #: Lifetime counters (never reset by :meth:`clear`): operators
        #: read them at ``/metrics`` to judge cache effectiveness.
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._entries: OrderedDict[Any, Any] = OrderedDict()

    def get(self, key: Any) -> Any:
        """The cached value for ``key`` (``None`` on a miss)."""
        entries = self._entries
        value = entries.get(key)
        if value is not None:
            self.hits += 1
            entries.move_to_end(key)
        else:
            self.misses += 1
        return value

    def put(self, key: Any, value: Any) -> None:
        """Store ``value``, evicting the least recently used overflow."""
        entries = self._entries
        entries[key] = value
        entries.move_to_end(key)
        if len(entries) > self.maxsize:
            entries.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        self._entries.clear()

    def stats(self) -> dict[str, int]:
        """The lifetime counters plus current size, JSON-ready."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "size": len(self._entries),
        }

    def __len__(self) -> int:
        return len(self._entries)


def counterpart_translation(
    value_index: ValueSimilarityIndex,
    neighbor_index: NeighborSimilarityIndex,
    side: int,
) -> array:
    """Neighbor-row counterpart id -> value-row counterpart id.

    Rows of ``side`` hold ids of the *other* side, each index in its own
    interner space; ``-1`` marks a candidate the value index never saw
    (no value row contains it).
    """
    value_ids = value_index.interners()[2 - side].ids_by_uri()
    neighbor_uris = neighbor_index.interners()[2 - side].uris()
    return array("i", (value_ids.get(uri, -1) for uri in neighbor_uris))


def kept_neighbor_offsets(
    value_ids: Sequence[int],
    neighbor_ids: Sequence[int],
    translation: Sequence[int],
    k: int,
    restrict: bool,
) -> Sequence[int]:
    """Offsets, into one ranked neighbor-id row, of its top-``k`` list.

    ``value_ids`` / ``neighbor_ids`` are an entity's full CSR rows, best
    first, in any integer-sequence form (``array``, ``ndarray``, mmap
    ``memoryview``).  Restricted, a neighbor candidate counts only if
    its :func:`counterpart_translation` is in the value row — the
    co-occurrence test on bare ids — and the scan stops at the ``k``-th
    keeper.  (The value list needs no function: ``value_ids[:k]``.)
    """
    if not restrict:
        return range(min(k, len(neighbor_ids)))
    cooccurring = set(value_ids)
    kept: list[int] = []
    for offset, neighbor_id in enumerate(neighbor_ids):
        if translation[neighbor_id] in cooccurring:
            kept.append(offset)
            if len(kept) == k:
                break
    return kept


@dataclass(frozen=True)
class CandidateLists:
    """Top-K value and neighbor candidates of one entity (URIs, best first)."""

    value: tuple[str, ...] = ()
    neighbor: tuple[str, ...] = ()

    def contains(self, uri: str) -> bool:
        """True when ``uri`` appears in either list (H4's test)."""
        return uri in self.value or uri in self.neighbor

    def is_empty(self) -> bool:
        return not self.value and not self.neighbor


class CandidateIndex:
    """Candidate lists for every entity of both KBs.

    Parameters
    ----------
    value_index / neighbor_index:
        The sparse similarity maps computed from the token blocks.
    k:
        List length cap (the paper's K=15).
    restrict_neighbors_to_cooccurring:
        When true (the conference paper's reading), the neighbor list only
        keeps candidates that also co-occur with the entity in the token
        blocks; the journal version admits purely neighbor-derived
        candidates.
    """

    def __init__(
        self,
        value_index: ValueSimilarityIndex,
        neighbor_index: NeighborSimilarityIndex,
        k: int,
        restrict_neighbors_to_cooccurring: bool = True,
    ) -> None:
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        self._value_index = value_index
        self._neighbor_index = neighbor_index
        self._restrict = restrict_neighbors_to_cooccurring
        self._cache1: dict[str, CandidateLists] = {}
        self._cache2: dict[str, CandidateLists] = {}
        self._translations: dict[int, array] = {}

    # ------------------------------------------------------------------
    # Lookup (lazy, cached)
    # ------------------------------------------------------------------
    def of_entity1(self, uri1: str) -> CandidateLists:
        """Candidate lists of an E1 entity."""
        cached = self._cache1.get(uri1)
        if cached is None:
            cached = self._build(uri1, side=1)
            self._cache1[uri1] = cached
        return cached

    def of_entity2(self, uri2: str) -> CandidateLists:
        """Candidate lists of an E2 entity."""
        cached = self._cache2.get(uri2)
        if cached is None:
            cached = self._build(uri2, side=2)
            self._cache2[uri2] = cached
        return cached

    def translation(self, side: int) -> array:
        """:func:`counterpart_translation` of ``side``'s rows, built once."""
        column = self._translations.get(side)
        if column is None:
            column = self._translations[side] = counterpart_translation(
                self._value_index, self._neighbor_index, side
            )
        return column

    def _build(self, uri: str, side: int) -> CandidateLists:
        value_ids = self._value_index.csr_row_ids(side, uri)
        neighbor_ids = self._neighbor_index.csr_row_ids(side, uri)
        kept = kept_neighbor_offsets(
            value_ids,
            neighbor_ids,
            self.translation(side),
            self.k,
            self._restrict,
        )
        value_decode = self._value_index.interners()[2 - side].uris()
        neighbor_decode = self._neighbor_index.interners()[2 - side].uris()
        return CandidateLists(
            value=tuple(value_decode[i] for i in value_ids[: self.k]),
            neighbor=tuple(neighbor_decode[neighbor_ids[j]] for j in kept),
        )

    # ------------------------------------------------------------------
    # Reciprocity helper
    # ------------------------------------------------------------------
    def mutually_listed(self, uri1: str, uri2: str) -> bool:
        """True when each entity lists the other among its candidates.

        This is exactly H4's test: a matched pair survives only if both
        sides "agree" the other is a plausible candidate.
        """
        return self.of_entity1(uri1).contains(uri2) and self.of_entity2(
            uri2
        ).contains(uri1)
