"""Partitioned H3 (and the engine's H2 entry point).

H2 and H3 are sequential *decisions* — an entity matched early removes
its partner from every later candidate scan — but H3's per-entity work
(building the top-K value and neighbor candidate lists) is read-only
against the prepared indices.  H3 therefore runs in two phases:

1. **gather** (parallel): entity chunks build candidate lists against
   the read-only evidence;
2. **resolve** (serial): the original heuristic logic walks the entities
   in their original order, consuming the gathered lists.

Phase 2 is exactly the serial heuristic, so the emitted matches are
identical to a fully serial run, match-for-match.

**Packed gather.**  Workers never see the similarity indices.  The
driver slices, per entity, the two CSR ranked-row id columns (value and
neighbor candidates, already in ranked order) and ships only those
slices — plus the candidate index's neighbor-id -> value-id translation
column for the co-occurrence test — to the workers, which run the
candidate index's own id-level trim
(:func:`~repro.core.candidates.kept_neighbor_offsets`).  The driver
decodes the surviving ids back to URIs and preloads the candidate
cache.  Candidate lists are pure per-entity functions, so the split
cannot change any list.

H2 has no phase worth distributing — its per-entity "work" is a lookup
into ranked lists the value index already holds — so the engine entry
point delegates straight to the serial scan; shipping row slices to
workers only to perform lookups would cost more than the scan itself.
"""

from __future__ import annotations

from array import array
from functools import partial
from typing import Any, Iterable, Sequence

from ..core.candidates import (
    CandidateIndex,
    CandidateLists,
    kept_neighbor_offsets,
)
from ..core.heuristics import (
    Match,
    MatchedRegistry,
    h2_value_matches,
    h3_rank_aggregation_matches,
)
from ..core.similarity import ValueSimilarityIndex
from ..obs.runtime import current as _telemetry_current
from .executor import Executor, SerialExecutor
from .partitioner import chunk_evenly, partition_count
from .shm import attach


def h2_value_matches_engine(
    entity1_uris: Iterable[str],
    value_index: ValueSimilarityIndex,
    registry: MatchedRegistry,
    engine: Executor | None = None,
) -> list[Match]:
    """H2 through the engine interface (uniform stage dispatch).

    Delegates to the serial :func:`h2_value_matches`; see the module
    docstring for why H2 gains nothing from parallel gathering.
    ``engine`` is accepted so the pipeline dispatches every heuristic
    the same way.
    """
    del engine  # H2 is a per-entity lookup; nothing to distribute
    return h2_value_matches(entity1_uris, value_index, registry)


def _candidate_id_rows(
    rows: Sequence[tuple[int, array, array]],
    neighbor_to_value2: array,
    k: int,
    restrict: bool,
) -> list[tuple[int, list[int], list[int]]]:
    """Trim/filter one chunk of packed candidate rows (engine worker).

    Each row is ``(position, full value-candidate ids, full
    neighbor-candidate ids)``, both columns in ranked order.  The value
    list is the first ``k`` ids; the neighbor list is whatever
    :func:`~repro.core.candidates.kept_neighbor_offsets` keeps — the
    same trim :class:`~repro.core.candidates.CandidateIndex` runs for
    the entities nobody preloaded, so the two cannot disagree.
    """
    out = []
    for position, value_cols, neighbor_cols in rows:
        kept = kept_neighbor_offsets(
            value_cols, neighbor_cols, neighbor_to_value2, k, restrict
        )
        out.append(
            (
                position,
                list(value_cols[:k]),
                [neighbor_cols[offset] for offset in kept],
            )
        )
    return out


def _candidate_span_rows(
    spans: Sequence[tuple[int, int, int, int, int]],
    value_cols: Any,
    neighbor_cols: Any,
    neighbor_to_value2: Any,
    k: int,
    restrict: bool,
) -> list[tuple[int, list[int], list[int]]]:
    """:func:`_candidate_id_rows` over shared-memory CSR columns.

    Each span is ``(position, value start, value stop, neighbor start,
    neighbor stop)`` into the two published full ``cols`` columns; the
    rows are reassembled as zero-copy views, so a chunk ships a handful
    of integers per entity instead of its row copies.
    """
    with attach(value_cols.segment) as reader:
        value_view = reader.view(value_cols)
        neighbor_view = reader.view(neighbor_cols)
        translation = reader.view(neighbor_to_value2)
        rows = [
            (
                position,
                value_view[value_start:value_stop],
                neighbor_view[neighbor_start:neighbor_stop],
            )
            for position, value_start, value_stop,
            neighbor_start, neighbor_stop in spans
        ]
        result = _candidate_id_rows(rows, translation, k, restrict)
        rows.clear()
    return result


def _preload_candidate_lists(
    uris: Sequence[str], candidate_index: CandidateIndex, engine: Executor
) -> None:
    """Warm the candidate cache for ``uris`` via the packed row protocol.

    With a shared-memory arena on the engine, the driver publishes the
    two full CSR ``cols`` columns plus the translation column once and
    ships per-entity row *spans* (five integers); otherwise it ships
    per-entity row copies.  Both protocols feed the identical
    trim/filter, so the gathered lists cannot differ.
    """
    _telemetry_current().metrics.counter(
        "matching.candidate_lists_built"
    ).inc(len(uris))
    value_index = candidate_index.value_index
    neighbor_index = candidate_index.neighbor_index
    value_decode = value_index.interners()[1].uris()
    neighbor_decode = neighbor_index.interners()[1].uris()
    translation = candidate_index.translation(1)
    arena = getattr(engine, "shared_arena", None)

    # Candidate lists are a pure function of the uri, so — unlike the
    # floating-point-summing stages — the chunk count may follow the
    # worker count; chunking only schedules, it cannot change any
    # gathered list.
    built: list[list[tuple[int, list[int], list[int]]]] = []
    if arena is not None:
        spans = [
            (
                position,
                *value_index.csr_row_span(1, uri),
                *neighbor_index.csr_row_span(1, uri),
            )
            for position, uri in enumerate(uris)
        ]
        if spans:
            with arena.publish(
                [
                    ("i", value_index.csr_columns(1)[1]),
                    ("i", neighbor_index.csr_columns(1)[1]),
                    ("i", translation),
                ]
            ) as segment:
                n_chunks = min(partition_count(len(spans)), engine.workers)
                built = engine.map_partitions(
                    partial(
                        _candidate_span_rows,
                        value_cols=segment.slices[0],
                        neighbor_cols=segment.slices[1],
                        neighbor_to_value2=segment.slices[2],
                        k=candidate_index.k,
                        restrict=candidate_index.restrict_neighbors,
                    ),
                    chunk_evenly(spans, n_chunks),
                )
    else:
        rows = [
            (
                position,
                value_index.csr_row_ids(1, uri),
                neighbor_index.csr_row_ids(1, uri),
            )
            for position, uri in enumerate(uris)
        ]
        if rows:
            n_chunks = min(partition_count(len(rows)), engine.workers)
            built = engine.map_partitions(
                partial(
                    _candidate_id_rows,
                    neighbor_to_value2=translation,
                    k=candidate_index.k,
                    restrict=candidate_index.restrict_neighbors,
                ),
                chunk_evenly(rows, n_chunks),
            )
    if built:
        candidate_index.preload_entity1(
            (
                uris[position],
                CandidateLists(
                    value=tuple(value_decode[i] for i in value_ids),
                    neighbor=tuple(neighbor_decode[i] for i in neighbor_ids),
                ),
            )
            for chunk in built
            for position, value_ids, neighbor_ids in chunk
        )


def h3_rank_aggregation_matches_engine(
    entity1_uris: Iterable[str],
    candidate_index: CandidateIndex,
    theta: float,
    registry: MatchedRegistry,
    engine: Executor | None = None,
) -> list[Match]:
    """H3 with parallel candidate-list building; serial rank resolution.

    The expensive part of H3 — assembling each entity's top-K value and
    neighbor candidate lists — is pure per entity, so chunks of packed
    CSR row slices build lists concurrently (see the module docstring)
    and preload the index's cache; the registry-dependent aggregation
    then runs serially over the warm cache, which makes it identical to
    the serial heuristic.
    """
    engine = engine or SerialExecutor()
    uris = [uri for uri in entity1_uris if uri not in registry.matched1]
    _preload_candidate_lists(uris, candidate_index, engine)
    return h3_rank_aggregation_matches(uris, candidate_index, theta, registry)
