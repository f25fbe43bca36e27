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
the snapshot store writes and maps back, and the engine hands its
workers; there is no ``dict`` behind them, and
:meth:`PackedSimilarityIndex.from_packed_columns` is the one way to
make an index.  The per-entity
ranked candidate lists are CSR-style offset+column arrays built from
the columns in groups of rows of bounded pair count, for just the
side-1 rows a reader names (:meth:`PackedSimilarityIndex.rank`) or on
the first read of a side-2 row; a side-1 row no ranking covers is
ranked alone when read — an index whose rows nobody reads never ranks,
and H4's membership test
(:meth:`PackedSimilarityIndex.listed`) counts instead of ranking.  The
floats never depend on the container:
every sum's addition order is fixed where it is folded (the engine's
row kernels).  See ``docs/PERFORMANCE.md``.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from functools import lru_cache
from threading import Lock
from typing import Iterable, NamedTuple, Sequence

from ..ids import EntityInterner, PAIR_ID_BITS
from ..ids.arrays import (
    in_top_k,
    joined_rows,
    pair_ids,
    ranked_side,
    row_groups,
    side2_groups,
)
from ..obs.runtime import current as _telemetry_current
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


class _Ranked(NamedTuple):
    """One side's ranked rows, cut at ``depth`` (``None``: whole)."""

    depth: int | None
    starts: array
    cols: array
    sims: array
    lengths: array  # every covered row's true length, cut or not
    covered: frozenset[int] | None  # the ranked row ids; None: every row

    def covers(self, entity_id: int) -> bool:
        """Whether this ranking holds the entity's row."""
        return self.covered is None or entity_id in self.covered

    def truncated(self, entity_id: int) -> bool:
        """Whether the depth cut dropped part of this entity's row."""
        return self.depth is not None and self.lengths[entity_id] > self.depth


def _deeper(depth: int | None, than: int | None) -> bool:
    """Whether ``depth`` reads past a cut at ``than`` (``None``: whole)."""
    return than is not None and (depth is None or depth > than)


class PackedSimilarityIndex:
    """Shared array-backed core of the value and neighbor indices.

    State:

    - two :class:`~repro.ids.EntityInterner` maps (one per KB side);
    - ``_keys`` / ``_values``: the sparse pair map as two parallel
      columns — packed ``int64`` keys strictly ascending, ``float64``
      similarities — the single source of truth.  They are whatever
      buffer the producer emitted: the kernels' NumPy arrays or
      ``array`` s, or the ``memoryview`` s of an mmap-loaded snapshot;
    - ``_ranked``: per side, ``None`` until the side is ranked (a
      side-1 row read alone ranks nothing), then the side's CSR layout
      of the ranked candidate lists
      (:func:`~repro.ids.arrays.ranked_side`): ``starts`` (one
      offset per entity id, length ``n+1``), ``cols`` (counterpart ids)
      and ``sims`` (their similarities), rows ordered best-first with
      the counterpart URI breaking ties, cut at a depth, beside every
      ranked row's true length and, when :meth:`rank` was given side-1
      rows, which rows it covers.

    An index is never mutated after :meth:`from_packed_columns` — a
    delta builds a new one; publishing a side's rows is the only
    assignment, each in one, under the index's ranking lock, and a
    ranking only ever widens — so whoever holds a reference (a published
    serving generation) has a frozen view.
    """

    _interner1: EntityInterner
    _interner2: EntityInterner
    _ranked: list[_Ranked | None]

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
        sequence).  Nothing is ranked here: the first row read of a side
        ranks that side (:meth:`rank`).
        """
        index = cls()
        index._interner1, index._interner2 = interner1, interner2
        index._keys, index._values = keys, sims
        index._ranked = [None, None]
        index._ranking = Lock()
        return index

    # ------------------------------------------------------------------
    # Ranked rows
    # ------------------------------------------------------------------
    def rank(
        self, side: int, depth: int | None, rows: Iterable[str] | None = None
    ) -> None:
        """Rank ``side``'s rows to ``depth`` now, unless they are ranked
        at least that deep — what a reader asks for the rows it expects
        to read: the matching stage the side-1 rows H2 walks and H3
        reads (``rows``, URIs; those the index lacks are skipped), the
        online H4 bars every row of side 2, on their first read.

        A ranking only widens: a call whose rows are already ranked deep
        enough ranks nothing; any other ranks, in one ranking, every row
        ranked so far and every row asked for, at the deeper of the two
        depths.  Only side 1 ranks a subset: its rows are runs of the
        key column.
        """
        if rows is not None:
            if side != 1:
                raise ValueError("only side-1 rows are ranked by subset")
            ids = self._interner1.ids_by_uri()
            rows = frozenset(ids[uri] for uri in rows if uri in ids)
        self._widen(side, depth, rows)

    def _widen(
        self, side: int, depth: int | None, rows: frozenset[int] | None
    ) -> _Ranked:
        """``side``'s ranking once it holds ``rows`` (``None``: every
        row) to at least ``depth``.  A ranking that lacks some is
        replaced by one of every row it held and every row asked for, at
        the deeper depth — under the index's lock, so two racing calls
        each keep what the other ranked."""
        with self._ranking:
            current = self._ranked[side - 1]
            if current is not None:
                covered = current.covered
                if not _deeper(depth, current.depth):
                    if covered is None or (
                        rows is not None and rows <= covered
                    ):
                        return current
                    depth = current.depth
                if rows is not None and covered is not None:
                    rows |= covered
                else:
                    rows = None
            ranked = self._ranked[side - 1] = self._rank(side, depth, rows)
            return ranked

    def _rank(
        self, side: int, depth: int | None, rows: frozenset[int] | None
    ) -> _Ranked:
        """``side``'s rows (only the side-1 ``rows`` when given) ranked
        to ``depth``, in one ``similarity.ranked_rows`` span under
        whichever stage or request asked; args ``side``, ``depth``,
        ``rows`` (how many rows, ``None`` for the whole side) and
        ``groups`` (how many :func:`~repro.ids.arrays.ranked_side`
        passes it took).

        Either side is ranked in groups of consecutive rows of bounded
        pair count, one :func:`~repro.ids.arrays.ranked_side` pass each,
        and the groups' cut rows joined
        (:func:`~repro.ids.arrays.joined_rows`): side-1 rows are runs of
        the key column (:func:`~repro.ids.arrays.row_groups`); a group
        of side-2 rows is one run within each side-1 row
        (:func:`~repro.ids.arrays.side2_groups`)."""
        n = len(self.interners()[side - 1])
        ordered = None if rows is None else sorted(rows)
        telemetry = _telemetry_current()
        with telemetry.tracer.span(
            "similarity.ranked_rows",
            category="similarity",
            args={
                "side": side,
                "depth": depth,
                "rows": None if ordered is None else len(ordered),
            },
        ) as span:
            if side == 1:
                cut = row_groups(self._keys, self._values, n, ordered)
            else:
                cut = side2_groups(self._keys, self._values, n)
            groups = [
                (first, ranked_side(*pairs, count, depth))
                for first, count, pairs in cut
            ]
            *columns, kept = joined_rows(groups, n)
            span.set(groups=len(groups))
        telemetry.metrics.counter("similarity.ranked_pairs_kept").inc(kept)
        return _Ranked(depth, *columns, rows)

    def _side_rows(self, side: int, depth: int | None) -> _Ranked:
        """``side``'s ranked rows, ranked to ``depth`` if nobody read
        or ranked the side before."""
        ranked = self._ranked[side - 1]
        return ranked if ranked is not None else self._widen(side, depth, None)

    def _whole(self, side: int) -> _Ranked:
        """``side``'s whole rows: a read its depth cut or its row subset
        cannot answer ranks the side once more, whole (a counted
        fallback)."""
        ranked = self._side_rows(side, None)
        if ranked.depth is not None or ranked.covered is not None:
            _telemetry_current().metrics.counter(
                "similarity.whole_side_fallbacks"
            ).inc()
            ranked = self._widen(side, None, None)
        return ranked

    def _whole_row1(self, id1: int) -> tuple[array, array]:
        """``id1``'s whole side-1 row, ranked alone: its pairs are one
        run of the key column, so a read past the cut of one side-1 row,
        or of a row the ranking does not cover, never ranks the side."""
        lo = bisect_left(self._keys, id1 << PAIR_ID_BITS)
        hi = bisect_left(self._keys, (id1 + 1) << PAIR_ID_BITS, lo)
        ids1, ids2 = pair_ids(self._keys[lo:hi])
        _, cols, sims, _, _ = ranked_side(
            ids1 - id1, ids2, self._values[lo:hi], 1
        )
        return cols, sims

    def listed(
        self, side: int, uris1: Sequence[str], uris2: Sequence[str], k: int
    ):
        """Per pair ``(uris1[i], uris2[i])``: whether its ``side`` row
        lists the other entity among its first ``k`` — H4's test of one
        index side, a rank count over the columns
        (:func:`~repro.ids.arrays.in_top_k`) that ranks no row.  The
        URIs map through this index's own interners; a pair with a URI
        they lack is listed nowhere.  A ``bool`` array."""
        ids1 = self._interner1.ids_by_uri()
        ids2 = self._interner2.ids_by_uri()
        return in_top_k(
            self._keys,
            self._values,
            side,
            array("q", [ids1.get(uri, -1) for uri in uris1]),
            array("q", [ids2.get(uri, -1) for uri in uris2]),
            k,
        )

    def csr_row(
        self, side: int, uri: str, k: int | None = None
    ) -> tuple[array, array]:
        """One row's ranked ``(counterpart ids, similarities)`` slices,
        undecoded and cut to the first ``k`` when given — for id-level
        readers (H2, H3, the online H4 bars) that decode only what they
        keep.  Ids are in the *other* side's interner
        space; the row is empty for URIs the index never saw.

        A side-1 read never ranks the side: a row no ranking covers, or
        one read deeper than the cut that shortened it, is ranked alone
        (one run of the key column).  The first read of a side 2 nobody
        ranked ranks it whole, to ``k``; a side-2 read deeper than the
        cut of a row it shortened ranks the side whole once more (its
        pairs are spread over the key column), in groups of bounded pair
        count like any ranking of a side."""
        entity_id = self.interners()[side - 1].get(uri)
        if entity_id is None:
            return array("i"), array("d")
        if side == 1:
            ranked = self._ranked[0]
            if ranked is None or not ranked.covers(entity_id) or (
                ranked.truncated(entity_id) and _deeper(k, ranked.depth)
            ):
                cols, sims = self._whole_row1(entity_id)
                return cols[:k], sims[:k]
        else:
            ranked = self._side_rows(2, k)
            if ranked.truncated(entity_id) and _deeper(k, ranked.depth):
                ranked = self._whole(2)
        start, stop = ranked.starts[entity_id], ranked.starts[entity_id + 1]
        if k is not None:
            stop = min(stop, start + k)
        return ranked.cols[start:stop], ranked.sims[start:stop]

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
        ids, sims = self.csr_row(1, uri1, k)
        decode = self._interner2.uris()
        return [(decode[i], sim) for i, sim in zip(ids, sims)]

    def __len__(self) -> int:
        return len(self._keys)


class ValueSimilarityIndex(PackedSimilarityIndex):
    """Sparse valueSim over all pairs co-occurring in the token blocks
    (built by :func:`~repro.engine.similarity.build_value_index`)."""

    def __repr__(self) -> str:
        return f"ValueSimilarityIndex({len(self)} co-occurring pairs)"
