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

from ..kb.graph import NeighborIndex
from ..kb.knowledge_base import KnowledgeBase
from .similarity import PackedSimilarityIndex


def top_neighbors(kb: KnowledgeBase, relations: list[str]) -> dict[str, set[str]]:
    """Per-entity set of neighbors reachable via the given relations
    (inverse ones ``~``-tagged, as :func:`~repro.core.statistics.top_relations`
    names them)."""
    index = NeighborIndex(kb, include_incoming=True)
    wanted = set(relations)
    result: dict[str, set[str]] = {}
    for entity in kb:
        neighbor_uris = {
            target
            for relation, target in index.neighbors(entity.uri)
            if relation in wanted
        }
        if neighbor_uris:
            result[entity.uri] = neighbor_uris
    return result


class NeighborSimilarityIndex(PackedSimilarityIndex):
    """Sparse neighborNSim over entity pairs with similar top neighbors."""

    def __repr__(self) -> str:
        return f"NeighborSimilarityIndex({len(self)} pairs)"
