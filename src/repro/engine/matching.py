"""Partitioned H3.

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

**Packed gather.**  Workers never see the similarity indices.  Per
chunk of entities the driver ships four columns of row *spans* into the
two CSR ranked-row id columns (value and neighbor candidates, already in
ranked order); the id columns themselves and the candidate index's
neighbor-id -> value-id translation column (for the co-occurrence test)
travel once, as shared columns of
:meth:`Executor.map_columns <repro.engine.executor.Executor.map_columns>`.
The one worker, :func:`_candidate_id_rows`, runs the candidate index's
own id-level trim (:func:`~repro.core.candidates.kept_neighbor_offsets`);
the driver decodes the surviving ids back to URIs and preloads the
candidate cache.  Candidate lists are pure per-entity functions, so the
split cannot change any list.
"""

from __future__ import annotations

from array import array
from functools import partial
from typing import Iterable, Sequence

from ..core.candidates import (
    CandidateIndex,
    CandidateLists,
    kept_neighbor_offsets,
)
from ..core.heuristics import (
    Match,
    MatchedRegistry,
    h3_rank_aggregation_matches,
)
from ..obs.runtime import current as _telemetry_current
from .executor import Executor, SerialExecutor
from .partitioner import chunk_evenly, partition_count


def _candidate_id_rows(
    value_starts: Sequence[int],
    value_stops: Sequence[int],
    neighbor_starts: Sequence[int],
    neighbor_stops: Sequence[int],
    value_cols: Sequence[int],
    neighbor_cols: Sequence[int],
    neighbor_to_value2: Sequence[int],
    k: int,
    restrict: bool,
) -> list[tuple[list[int], list[int]]]:
    """Trim/filter one chunk of packed candidate rows (engine worker).

    Entity ``i`` of the chunk owns the rows ``value_cols[value_starts[i]
    : value_stops[i]]`` and ``neighbor_cols[neighbor_starts[i] :
    neighbor_stops[i]]`` of the two CSR id columns, both in ranked
    order.  Its value list is the first ``k`` ids; its neighbor list is
    whatever :func:`~repro.core.candidates.kept_neighbor_offsets` keeps
    — the same trim :class:`~repro.core.candidates.CandidateIndex` runs
    for the entities nobody preloaded, so the two cannot disagree.
    Returns ``(value ids, neighbor ids)`` per entity, in chunk order.
    """
    out = []
    for value_start, value_stop, neighbor_start, neighbor_stop in zip(
        value_starts, value_stops, neighbor_starts, neighbor_stops
    ):
        value_row = value_cols[value_start:value_stop]
        neighbor_row = neighbor_cols[neighbor_start:neighbor_stop]
        kept = kept_neighbor_offsets(
            value_row, neighbor_row, neighbor_to_value2, k, restrict
        )
        out.append(
            (
                list(value_row[:k]),
                [neighbor_row[offset] for offset in kept],
            )
        )
    return out


def _preload_candidate_lists(
    uris: Sequence[str], candidate_index: CandidateIndex, engine: Executor
) -> None:
    """Warm the candidate cache for ``uris`` via the packed row protocol."""
    _telemetry_current().metrics.counter(
        "matching.candidate_lists_built"
    ).inc(len(uris))
    if not uris:
        return
    value_index = candidate_index.value_index
    neighbor_index = candidate_index.neighbor_index
    spans = [
        (
            *value_index.csr_row_span(1, uri),
            *neighbor_index.csr_row_span(1, uri),
        )
        for uri in uris
    ]
    # Candidate lists are a pure function of the uri, so — unlike the
    # floating-point-summing stages — the chunk count may follow the
    # worker count; chunking only schedules, it cannot change any
    # gathered list.
    n_chunks = min(partition_count(len(spans)), engine.workers)
    built = engine.map_columns(
        partial(
            _candidate_id_rows,
            k=candidate_index.k,
            restrict=candidate_index.restrict_neighbors,
        ),
        [
            tuple(array("q", column) for column in zip(*chunk))
            for chunk in chunk_evenly(spans, n_chunks)
        ],
        "qqqq",
        (
            value_index.csr_columns(1)[1],
            neighbor_index.csr_columns(1)[1],
            candidate_index.translation(1),
        ),
        "iii",
    )
    value_decode = value_index.interners()[1].uris()
    neighbor_decode = neighbor_index.interners()[1].uris()
    # Chunks are contiguous and come back in order: row i is uris[i].
    candidate_index.preload_entity1(
        zip(
            uris,
            (
                CandidateLists(
                    value=tuple(value_decode[i] for i in value_ids),
                    neighbor=tuple(neighbor_decode[i] for i in neighbor_ids),
                )
                for chunk in built
                for value_ids, neighbor_ids in chunk
            ),
        )
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
