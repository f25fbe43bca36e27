"""Value similarity computed purely from token-block statistics.

The paper's ``valueSim`` sums, over the tokens two descriptions share,
``1 / log2(EF_E1(t) · EF_E2(t) + 1)`` where ``EF_E(t)`` counts the entities
of KB ``E`` containing token ``t``.  Because Token Blocking places exactly
the entities containing ``t`` into block ``t``, the two block side sizes
*are* the entity frequencies — the similarity "can be computed using
exclusively block statistics (e.g. block size)", as the paper puts it.

:func:`~repro.engine.similarity.build_value_index` adds each (purged)
token block's weight to every pair it suggests.  This yields the exact
valueSim restricted to tokens that survived purging, for precisely the
pairs co-occurring in some block — all other pairs have similarity zero.

**Representation.**  Both KBs' URIs are interned to dense ``int32`` ids
(:class:`~repro.ids.EntityInterner`, whose id order is URI order) and
every pair lives under one packed ``int64`` key (``id1 << 32 | id2``).
The pair map is **two parallel columns** — keys strictly ascending,
``float64`` similarities — the very buffers the row-owned kernels emit,
the snapshot store writes and maps back, and the shared-memory arena
publishes; there is no ``dict`` behind them, and
:meth:`PackedSimilarityIndex.from_packed_columns` is the one way to
make an index.  Point lookups bisect the key column and the per-entity
ranked candidate lists are CSR-style offset+column arrays built from
the columns in one pass.  The floats never depend on the container:
every sum's addition order is fixed where it is folded (the engine's
row kernels).  See ``docs/PERFORMANCE.md``.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from functools import lru_cache

from ..ids import EntityInterner, PAIR_ID_BITS
from ..ids.arrays import ranked_csr
from ..textsim.weighted import WEIGHT_CACHE_SHAPES, arcs_token_weight


@lru_cache(maxsize=WEIGHT_CACHE_SHAPES)
def block_token_weight(n_entities1: int, n_entities2: int) -> float:
    """Weight of one shared token given its block's side sizes.

    Memoized per ``(n1, n2)`` shape, bounded like
    :func:`~repro.textsim.weighted.arcs_token_weight` (which it wraps)
    so a long-running warm-started service cannot grow the memo without
    limit: collections contain many blocks of the same shape and the
    log2 is identical for all of them, and an evicted-then-recomputed
    weight is byte-identical to the cached one.
    """
    return arcs_token_weight(n_entities1, n_entities2)


class PackedSimilarityIndex:
    """Shared array-backed core of the value and neighbor indices.

    State:

    - two :class:`~repro.ids.EntityInterner` maps (one per KB side);
    - ``_keys`` / ``_values``: the sparse pair map as two parallel
      columns — packed ``int64`` keys strictly ascending, ``float64``
      similarities — the single source of truth.  They are whatever
      buffer the producer emitted: the kernels' NumPy arrays or
      ``array`` s, or the ``memoryview`` s of an mmap-loaded snapshot;
    - per side, a CSR layout of the ranked candidate lists
      (:func:`~repro.ids.arrays.ranked_csr`): ``_starts`` (one offset
      per entity id, length ``n+1``), ``_cols`` (counterpart ids) and
      ``_sims`` (their similarities), rows ordered best-first with the
      counterpart URI breaking ties.

    An index is never mutated after :meth:`from_packed_columns` — a
    delta builds a new one — so whoever holds a reference (a published
    serving generation) has a frozen view.
    """

    _interner1: EntityInterner
    _interner2: EntityInterner

    @classmethod
    def from_packed_columns(
        cls,
        keys,
        sims,
        interner1: EntityInterner,
        interner2: EntityInterner,
    ) -> "PackedSimilarityIndex":
        """An index over finished ``(packed keys, similarities)`` columns.

        ``keys`` must be strictly ascending and ``sims`` parallel to it;
        both are adopted as they are (no copy, any buffer-protocol
        sequence) and only the ranked rows are built.
        """
        index = cls()
        index._interner1, index._interner2 = interner1, interner2
        index._keys, index._values = keys, sims
        (
            index._starts1, index._cols1, index._sims1,
            index._starts2, index._cols2, index._sims2,
        ) = ranked_csr(keys, sims, len(interner1), len(interner2))
        return index

    # ------------------------------------------------------------------
    # Row decode (the URI-facing layer)
    # ------------------------------------------------------------------
    def _row(
        self, side: int, uri: str, k: int | None
    ) -> list[tuple[str, float]]:
        if side == 1:
            interner = self._interner1
            starts, cols, sims = self._starts1, self._cols1, self._sims1
            decode = self._interner2.uris()
        else:
            interner = self._interner2
            starts, cols, sims = self._starts2, self._cols2, self._sims2
            decode = self._interner1.uris()
        entity_id = interner.get(uri)
        if entity_id is None:
            return []
        start, stop = starts[entity_id], starts[entity_id + 1]
        if k is not None:
            stop = min(stop, start + k)
        return [(decode[cols[j]], sims[j]) for j in range(start, stop)]

    def csr_row_ids(self, side: int, uri: str) -> array:
        """One row's full ranked counterpart-id column, undecoded.

        The packed form of ``candidates_of_entity{side}(uri)`` for
        id-level consumers (the candidate lists' trim reads these rows
        before decoding any URI): counterpart ids in ranked order, in
        the *other* side's interner space.  Empty for URIs the index
        never saw.
        """
        start, stop = self.csr_row_span(side, uri)
        return self.csr_columns(side)[1][start:stop]

    def csr_columns(self, side: int) -> tuple[array, array]:
        """One side's immutable CSR ``(starts, cols)`` columns: every
        ranked row end to end, delimited by ``starts``."""
        if side == 1:
            return self._starts1, self._cols1
        return self._starts2, self._cols2

    def csr_row_span(self, side: int, uri: str) -> tuple[int, int]:
        """One row's ``[start, stop)`` range inside ``csr_columns(side)``
        (``(0, 0)``, an empty row, for URIs the index never saw)."""
        if side == 1:
            interner, starts = self._interner1, self._starts1
        else:
            interner, starts = self._interner2, self._starts2
        entity_id = interner.get(uri)
        if entity_id is None:
            return (0, 0)
        return starts[entity_id], starts[entity_id + 1]

    def csr_row(self, side: int, uri: str) -> tuple[array, array]:
        """One row's ranked ``(counterpart ids, similarities)`` slices,
        undecoded — for readers that want a similarity at a known rank
        (the online H4 bars) without boxing the row."""
        start, stop = self.csr_row_span(side, uri)
        if side == 1:
            return self._cols1[start:stop], self._sims1[start:stop]
        return self._cols2[start:stop], self._sims2[start:stop]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def similarity(self, uri1: str, uri2: str) -> float:
        """Similarity of a pair (0.0 when it never co-occurred)."""
        id1 = self._interner1.get(uri1)
        if id1 is None:
            return 0.0
        id2 = self._interner2.get(uri2)
        if id2 is None:
            return 0.0
        key = (id1 << PAIR_ID_BITS) | id2
        at = bisect_left(self._keys, key)
        if at == len(self._keys) or self._keys[at] != key:
            return 0.0
        return float(self._values[at])

    def packed_columns(self):
        """The live ``(packed keys ascending, similarities)`` columns.

        Read-only buffer-protocol sequences (NumPy arrays, ``array`` s or
        mmap ``memoryview`` s — see the class docstring); the form the
        builders, the snapshot store and the digests consume.
        """
        return self._keys, self._values

    def interners(self) -> tuple[EntityInterner, EntityInterner]:
        """The two id maps (side 1, side 2) pairs are packed with."""
        return self._interner1, self._interner2

    def candidates_of_entity1(
        self, uri1: str, k: int | None = None
    ) -> list[tuple[str, float]]:
        """Counterpart E2 entities of ``uri1``, best first (top-k if given)."""
        return self._row(1, uri1, k)

    def candidates_of_entity2(
        self, uri2: str, k: int | None = None
    ) -> list[tuple[str, float]]:
        """Counterpart E1 entities of ``uri2``, best first (top-k if given)."""
        return self._row(2, uri2, k)

    def best_candidate(
        self, uri1: str, exclude: frozenset[str] | set[str] = frozenset()
    ) -> tuple[str, float] | None:
        """The counterpart E2 entity with maximum similarity (H2's vmax).

        ``exclude`` removes already-matched E2 entities from
        consideration.
        """
        id1 = self._interner1.get(uri1)
        if id1 is None:
            return None
        starts = self._starts1
        decode = self._interner2.uris()
        cols, sims = self._cols1, self._sims1
        for j in range(starts[id1], starts[id1 + 1]):
            uri2 = decode[cols[j]]
            if uri2 not in exclude:
                return uri2, sims[j]
        return None

    def __len__(self) -> int:
        return len(self._keys)


class ValueSimilarityIndex(PackedSimilarityIndex):
    """Sparse valueSim over all pairs co-occurring in the token blocks
    (built by :func:`~repro.engine.similarity.build_value_index`)."""

    def __repr__(self) -> str:
        return f"ValueSimilarityIndex({len(self)} co-occurring pairs)"
