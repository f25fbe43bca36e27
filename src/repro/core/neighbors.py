"""Neighbor similarity from the most important relations.

``neighborNSim(ei, ej)`` sums ``valueSim(nei, nej)`` over every pair of
*top neighbors* of ``ei`` and ``ej`` — the neighbors linked to each entity
via one of the ``N`` relations with the highest importance score in its KB.

Instead of enumerating the neighbor cross-product per candidate pair,
:func:`~repro.engine.similarity.build_neighbor_index` propagates the
sparse value-similarity map upward: every co-occurring neighbor pair
``(n1, n2)`` contributes its valueSim to all entity pairs ``(e1, e2)``
that have ``n1`` / ``n2`` among their top neighbors.  This is the
non-iterative, block-driven evaluation the paper advocates.  The result
is array-backed like the value index
(:class:`~repro.core.similarity.PackedSimilarityIndex`).
"""

from __future__ import annotations

import numpy

from ..ids import EntityInterner, arrays
from ..kb.graph import NeighborIndex
from ..kb.knowledge_base import KnowledgeBase
from .similarity import PackedSimilarityIndex
from .statistics import relation_table


def top_neighbors(kb: KnowledgeBase, relations: list[str]) -> dict[str, set[str]]:
    """Per-entity set of neighbors reachable via the given relations
    (inverse ones ``~``-tagged, as :func:`~repro.core.statistics.top_relations`
    names them)."""
    return _neighbors_via(NeighborIndex(kb, include_incoming=True), relations)


def top_relations_and_neighbors(kb: KnowledgeBase, n: int) -> tuple[list, dict]:
    """``top_relations(kb, n)`` and the :func:`top_neighbors` over them,
    both read off one pass over the KB's graph."""
    graph = NeighborIndex(kb, include_incoming=True)
    relations = [row.predicate for row in relation_table(graph)[: max(n, 0)]]
    return relations, _neighbors_via(graph, relations)


def _neighbors_via(graph: NeighborIndex, relations: list[str]) -> dict:
    wanted = set(relations)
    found = (
        (entity.uri, {t for r, t in graph.neighbors(entity.uri) if r in wanted})
        for entity in graph.kb
    )
    return {uri: targets for uri, targets in found if targets}


def top_neighbor_csr(
    top_neighbors: dict[str, set[str]],
    parents: EntityInterner,
    value_entities: EntityInterner,
) -> tuple:
    """CSR ``(starts, value ids)``: per parent id, the ascending value
    ids of its top neighbors.  Neighbors absent from the value index can
    never receive a value-pair contribution, so they are dropped here —
    exactly the pairs a string-keyed reverse index would have missed."""
    rows = [top_neighbors[uri] for uri in parents.uris()]
    return arrays.member_csr(rows, value_entities.ids_by_uri())[1:]


def transposed_csr(starts, ids, n_targets: int) -> tuple:
    """The transpose of a CSR ``(starts, ids)``: per target id, the
    ascending rows listing it."""
    ids = numpy.asarray(ids)
    rows = numpy.repeat(
        numpy.arange(len(starts) - 1, dtype=numpy.int32),
        numpy.diff(numpy.asarray(starts)),
    )
    t_starts = numpy.zeros(n_targets + 1, dtype=numpy.int64)
    numpy.cumsum(numpy.bincount(ids, minlength=n_targets), out=t_starts[1:])
    return t_starts, rows[numpy.argsort(ids, kind="stable")]


class NeighborSimilarityIndex(PackedSimilarityIndex):
    """Sparse neighborNSim over entity pairs with similar top neighbors."""

    def __repr__(self) -> str:
        return f"NeighborSimilarityIndex({len(self)} pairs)"
