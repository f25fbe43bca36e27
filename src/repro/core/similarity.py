"""Value similarity computed purely from token-block statistics.

The paper's ``valueSim`` sums, over the tokens two descriptions share,
``1 / log2(EF_E1(t) · EF_E2(t) + 1)`` where ``EF_E(t)`` counts the entities
of KB ``E`` containing token ``t``.  Because Token Blocking places exactly
the entities containing ``t`` into block ``t``, the two block side sizes
*are* the entity frequencies — the similarity "can be computed using
exclusively block statistics (e.g. block size)", as the paper puts it.

:class:`ValueSimilarityIndex` walks the (purged) token blocks once, adding
each block's token weight to every pair it suggests.  This yields the exact
valueSim restricted to tokens that survived purging, for precisely the
pairs co-occurring in some block — all other pairs have similarity zero.

**Representation.**  Since PR 4 the index is array-backed: both KBs' URIs
are interned to dense ``int32`` ids (:class:`~repro.ids.EntityInterner`,
sorted so id order equals URI order), every pair lives under one packed
``int64`` key (``id1 << 32 | id2``) in a flat ``packed key -> float``
map, and the per-entity ranked candidate lists are CSR-style
offset+column arrays built by a single argsort-equivalent pass.  All
URI-facing queries (``similarity``, ``pairs``, ``candidates_of_*``) are
thin decode layers over the ids, so accumulation order — and with it
every floating-point sum — is bit-identical to the previous string-dict
construction.  See ``docs/PERFORMANCE.md``.
"""

from __future__ import annotations

from array import array
from functools import lru_cache

from ..blocking.base import BlockCollection
from ..ids import EntityInterner, PAIR_ID_BITS, PAIR_ID_MASK
from ..ids.arrays import numpy_enabled, numpy_module, ranked_csr
from ..textsim.weighted import WEIGHT_CACHE_SHAPES, arcs_token_weight

Pair = tuple[str, str]

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
    - ``_packed``: the sparse ``packed int64 key -> float`` pair map —
      the single source of truth for similarities;
    - per side, a CSR layout of the ranked candidate lists:
      ``_starts`` (one offset per entity id, length ``n+1``), ``_cols``
      (counterpart ids) and ``_sims`` (their similarities), rows ordered
      best-first with the counterpart URI breaking ties.

    Subclasses populate ``_packed`` (block accumulation / neighbor
    propagation) and then call :meth:`_build_ranked_rows` once; an index
    is never mutated afterwards — a delta builds a new one — so whoever
    holds a reference (a published serving generation) has a frozen view.
    """

    _interner1: EntityInterner
    _interner2: EntityInterner
    _packed: dict[int, float]

    def _init_store(
        self, interner1: EntityInterner, interner2: EntityInterner
    ) -> None:
        self._interner1 = interner1
        self._interner2 = interner2
        self._packed = {}
        self._pairs_cache: dict[Pair, float] | None = None
        self._starts1 = array("q", (0,))
        self._cols1 = array("i")
        self._sims1 = array("d")
        self._starts2 = array("q", (0,))
        self._cols2 = array("i")
        self._sims2 = array("d")

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_packed_sums(
        cls,
        packed: dict[int, float],
        interner1: EntityInterner,
        interner2: EntityInterner,
    ) -> "PackedSimilarityIndex":
        """An index over externally accumulated packed pair sums.

        The parallel engine accumulates per-shard ``array`` columns and
        merges them associatively; this constructor takes ownership of
        the merged map (no copy) and only builds the ranked rows.
        """
        index = cls.__new__(cls)
        index._init_store(interner1, interner2)
        index._packed = packed
        index._build_ranked_rows()
        return index

    @classmethod
    def from_pair_sums(
        cls, sims: dict[Pair, float]
    ) -> "PackedSimilarityIndex":
        """An index over an externally accumulated URI-keyed pair map.

        Interns the URIs appearing in ``sims`` and re-keys the map to
        packed ids, preserving the given accumulation (insertion) order.
        """
        index = cls.__new__(cls)
        index._init_store(
            EntityInterner(uri1 for uri1, _ in sims),
            EntityInterner(uri2 for _, uri2 in sims),
        )
        ids1 = index._interner1.ids_by_uri()
        ids2 = index._interner2.ids_by_uri()
        packed = index._packed
        for (uri1, uri2), value in sims.items():
            packed[(ids1[uri1] << PAIR_ID_BITS) | ids2[uri2]] = value
        index._build_ranked_rows()
        return index

    def _build_ranked_rows(self) -> None:
        """One argsort-equivalent pass per side over the packed map.

        Each side's rows sort by ``(entity id, -similarity, counterpart
        id)``; with sorted interners the id tie-break IS the URI
        tie-break, so the rows equal the old per-entity
        ``sort(key=(-sim, uri))`` lists.  Vectorized
        (:func:`~repro.ids.arrays.ranked_csr`) when NumPy is available;
        unsorted interners (restored from a snapshot an earlier build
        wrote after in-place deltas) fall back to decoded-URI sort keys.
        """
        sortable = self._interner1.is_sorted and self._interner2.is_sorted
        if sortable and self._packed and numpy_enabled():
            numpy = numpy_module()
            count = len(self._packed)
            starts1, cols1, sims1, starts2, cols2, sims2 = ranked_csr(
                numpy.fromiter(self._packed.keys(), numpy.int64, count),
                numpy.fromiter(self._packed.values(), numpy.float64, count),
                len(self._interner1),
                len(self._interner2),
            )
            self._starts1 = array("q")
            self._starts1.frombytes(starts1.tobytes())
            self._cols1 = array("i")
            self._cols1.frombytes(cols1.tobytes())
            self._sims1 = array("d")
            self._sims1.frombytes(sims1.tobytes())
            self._starts2 = array("q")
            self._starts2.frombytes(starts2.tobytes())
            self._cols2 = array("i")
            self._cols2.frombytes(cols2.tobytes())
            self._sims2 = array("d")
            self._sims2.frombytes(sims2.tobytes())
            return
        packed = self._packed
        keys = array("q", packed.keys())
        sims = array("d", packed.values())
        shift, mask = PAIR_ID_BITS, PAIR_ID_MASK
        if sortable:
            def key1(i: int):
                return (keys[i] >> shift, -sims[i], keys[i] & mask)

            def key2(i: int):
                return (keys[i] & mask, -sims[i], keys[i] >> shift)
        else:  # pragma: no cover - defensive; builders pass sorted interners
            uris1, uris2 = self._interner1.uris(), self._interner2.uris()

            def key1(i: int):
                return (keys[i] >> shift, -sims[i], uris2[keys[i] & mask])

            def key2(i: int):
                return (keys[i] & mask, -sims[i], uris1[keys[i] >> shift])

        self._starts1, self._cols1, self._sims1 = self._csr_side(
            keys, sims, sorted(range(len(keys)), key=key1),
            len(self._interner1), own_shift=shift, other_shift=0,
        )
        self._starts2, self._cols2, self._sims2 = self._csr_side(
            keys, sims, sorted(range(len(keys)), key=key2),
            len(self._interner2), own_shift=0, other_shift=shift,
        )

    @staticmethod
    def _csr_side(
        keys: array,
        sims: array,
        order: list[int],
        n_entities: int,
        own_shift: int,
        other_shift: int,
    ) -> tuple[array, array, array]:
        mask = PAIR_ID_MASK
        starts = array("q", bytes(8 * (n_entities + 1)))
        for key in keys:
            starts[((key >> own_shift) & mask) + 1] += 1
        for position in range(1, n_entities + 1):
            starts[position] += starts[position - 1]
        cols = array("i", ((keys[i] >> other_shift) & mask for i in order))
        row_sims = array("d", (sims[i] for i in order))
        return starts, cols, row_sims

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

        The packed form of ``candidates_of_entity{side}(uri)`` for bulk
        consumers (the H3 candidate gather ships these slices to workers
        instead of the whole index): counterpart ids in ranked order, in
        the *other* side's interner space.  Empty for URIs the index
        never saw.
        """
        start, stop = self.csr_row_span(side, uri)
        return self.csr_columns(side)[1][start:stop]

    def csr_columns(self, side: int) -> tuple[array, array]:
        """One side's immutable CSR ``(starts, cols)`` columns.

        The buffer-level counterpart of :meth:`csr_row_ids` for
        publish-once consumers (the shared-memory H3 gather maps the
        whole ``cols`` column into a segment and ships row *spans*
        instead of row copies).
        """
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

    def ranked_ids(self, side: int, uri: str) -> list[tuple[int, float]]:
        """One row as ``(counterpart id, similarity)`` pairs, ranked.

        The id-space twin of ``candidates_of_entity{side}``: identical
        order (best first, counterpart URI breaking ties), no URI
        decode.
        """
        start, stop = self.csr_row_span(side, uri)
        if side == 1:
            cols, sims = self._cols1, self._sims1
        else:
            cols, sims = self._cols2, self._sims2
        return list(zip(cols[start:stop], sims[start:stop]))

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
        return self._packed.get((id1 << PAIR_ID_BITS) | id2, 0.0)

    def pairs(self) -> dict[Pair, float]:
        """The sparse URI-pair-to-similarity map (read-only by convention).

        A decoded snapshot of the packed map, cached; consumers that
        only need sizes should use ``len(index)`` instead of decoding.
        """
        if self._pairs_cache is None:
            uris1 = self._interner1.uris()
            uris2 = self._interner2.uris()
            shift, mask = PAIR_ID_BITS, PAIR_ID_MASK
            self._pairs_cache = {
                (uris1[key >> shift], uris2[key & mask]): value
                for key, value in self._packed.items()
            }
        return self._pairs_cache

    def packed_items(self) -> dict[int, float]:
        """The live packed ``int64 key -> similarity`` map (do not mutate)."""
        return self._packed

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

    def partners_of_entity1(self, uri1: str) -> set[str]:
        """The counterpart URIs of ``uri1`` as a set (no scores decoded)."""
        decode = self._interner2.uris()
        return {decode[col] for col in self.csr_row_ids(1, uri1)}

    def partners_of_entity2(self, uri2: str) -> set[str]:
        """The counterpart URIs of ``uri2`` as a set (no scores decoded)."""
        decode = self._interner1.uris()
        return {decode[col] for col in self.csr_row_ids(2, uri2)}

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
        return len(self._packed)


class ValueSimilarityIndex(PackedSimilarityIndex):
    """Sparse valueSim over all pairs co-occurring in the token blocks."""

    def __init__(self, token_blocks: BlockCollection) -> None:
        self._init_store(
            EntityInterner(
                uri for block in token_blocks for uri in block.entities1
            ),
            EntityInterner(
                uri for block in token_blocks for uri in block.entities2
            ),
        )
        self._accumulate(token_blocks)
        self._build_ranked_rows()

    def _accumulate(self, token_blocks: BlockCollection) -> None:
        # Mirrored by repro.engine.similarity._value_partial_packed
        # (per-shard accumulation); change the weighting or pair
        # placement in both.
        sims = self._packed
        ids1 = self._interner1.ids_by_uri()
        ids2 = self._interner2.ids_by_uri()
        for block in token_blocks:
            weight = block_token_weight(
                len(block.entities1), len(block.entities2)
            )
            for uri1 in block.entities1:
                base = ids1[uri1] << PAIR_ID_BITS
                for uri2 in block.entities2:
                    key = base | ids2[uri2]
                    sims[key] = sims.get(key, 0.0) + weight

    def __repr__(self) -> str:
        return f"ValueSimilarityIndex({len(self._packed)} co-occurring pairs)"
