"""Per-entity candidate lists drawn from the two similarity indices.

Each entity carries up to ``K`` value-based candidates and up to ``K``
neighbor-based candidates.  H3 aggregates the ranks of a KB1 entity's
two lists; H4 (reciprocity: a match must appear in the other side's
lists too) asks only whether each entity's lists hold the other, which
:meth:`CandidateIndex.reciprocal` answers by counting, per pair, the
row entries that beat it — no row is ranked for H4.

Both lists are the first ``K`` ids of a ranked CSR row; only those
≤ 2·``K`` ids are decoded to URIs.  The matching stage ranks only the
KB1 rows H3 reads (:meth:`CandidateIndex.rank`); a list of another KB1
entity ranks its rows alone.  Under the conference H3 the neighbor
index they are cut from holds only the co-occurring pairs (the neighbor
stage builds only those), so the lists keep candidates that also share
a token block with the entity.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Iterable, Sequence

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


@dataclass(frozen=True)
class CandidateLists:
    """Top-K value and neighbor candidates of one entity (URIs, best first)."""

    value: tuple[str, ...] = ()
    neighbor: tuple[str, ...] = ()


class CandidateIndex:
    """Candidate lists for every entity of both KBs.

    Parameters
    ----------
    value_index / neighbor_index:
        The sparse similarity maps computed from the token blocks.
        The neighbor index is the one the run published: the
        co-occurring pairs only under the conference H3, every pair under
        the journal version.
    k:
        List length cap (the paper's K=15).
    """

    def __init__(
        self,
        value_index: ValueSimilarityIndex,
        neighbor_index: NeighborSimilarityIndex,
        k: int,
    ) -> None:
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        self._value_index = value_index
        self._neighbor_index = neighbor_index
        self._cache1: dict[str, CandidateLists] = {}

    # ------------------------------------------------------------------
    # Lookup (lazy, cached)
    # ------------------------------------------------------------------
    def rank(self, uris1: Iterable[str]) -> None:
        """Rank, to ``K``, the rows of these E1 entities in both
        indices: the lists H3 is about to read."""
        for index in (self._value_index, self._neighbor_index):
            index.rank(1, self.k, uris1)

    def of_entity1(self, uri1: str) -> CandidateLists:
        """Candidate lists of an E1 entity."""
        cached = self._cache1.get(uri1)
        if cached is None:
            value_ids, _ = self._value_index.csr_row(1, uri1, self.k)
            neighbor_ids, _ = self._neighbor_index.csr_row(1, uri1, self.k)
            value_decode = self._value_index.interners()[1].uris()
            neighbor_decode = self._neighbor_index.interners()[1].uris()
            cached = self._cache1[uri1] = CandidateLists(
                value=tuple(map(value_decode.__getitem__, value_ids)),
                neighbor=tuple(map(neighbor_decode.__getitem__, neighbor_ids)),
            )
        return cached

    # ------------------------------------------------------------------
    # Reciprocity (H4)
    # ------------------------------------------------------------------
    def reciprocal(
        self, uris1: Sequence[str], uris2: Sequence[str]
    ) -> list[bool]:
        """Per pair ``(uris1[i], uris2[i])``: whether each entity lists
        the other among its top-``K`` value or neighbor candidates —
        H4's test, ``(value ∨ neighbor on side 1) ∧ (value ∨ neighbor on
        side 2)``, each a rank count over one index side
        (:meth:`~repro.core.similarity.PackedSimilarityIndex.listed`)."""
        value, neighbor = self._value_index, self._neighbor_index
        side1, side2 = (
            value.listed(side, uris1, uris2, self.k)
            | neighbor.listed(side, uris1, uris2, self.k)
            for side in (1, 2)
        )
        return (side1 & side2).tolist()
