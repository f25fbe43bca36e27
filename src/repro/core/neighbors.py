"""Neighbor similarity from the most important relations.

``neighborNSim(ei, ej)`` sums ``valueSim(nei, nej)`` over every pair of
*top neighbors* of ``ei`` and ``ej`` — the neighbors linked to each entity
via one of the ``N`` relations with the highest importance score in its KB.

Instead of enumerating the neighbor cross-product per candidate pair, the
index propagates the sparse value-similarity map upward: every co-occurring
neighbor pair ``(n1, n2)`` contributes its valueSim to all entity pairs
``(e1, e2)`` that have ``n1`` / ``n2`` among their top neighbors.  This is
the non-iterative, block-driven evaluation the paper advocates.

Like the value index, the neighbor index is array-backed
(:class:`~repro.core.similarity.PackedSimilarityIndex`): parent entities
are interned to dense ids, propagation runs over packed ``int64`` keys,
and the reverse top-neighbor indices map value-pair ids straight to
parent ids — no string touches anywhere in the propagation loop.
"""

from __future__ import annotations

from ..ids import EntityInterner, PAIR_ID_BITS, PAIR_ID_MASK
from ..kb.graph import NeighborIndex
from ..kb.knowledge_base import KnowledgeBase
from .similarity import PackedSimilarityIndex, ValueSimilarityIndex


def top_neighbors(
    kb: KnowledgeBase,
    relations: list[str],
    include_incoming: bool = False,
) -> dict[str, set[str]]:
    """Per-entity set of neighbors reachable via the given relations."""
    index = NeighborIndex(kb, include_incoming=include_incoming)
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

    def __init__(
        self,
        value_index: ValueSimilarityIndex,
        top_neighbors1: dict[str, set[str]],
        top_neighbors2: dict[str, set[str]],
    ) -> None:
        # Mirrored by repro.engine.similarity.build_neighbor_index (the
        # row-owned kernel); change the placement rule in both.
        # Reverse indices: value-pair neighbor id -> parent entity ids.
        interner1 = EntityInterner(top_neighbors1)
        interner2 = EntityInterner(top_neighbors2)
        value1, value2 = value_index.interners()
        own1 = interner1.ids_by_uri()
        own2 = interner2.ids_by_uri()
        reverse1: dict[int, list[int]] = {}
        for uri, neighbor_set in top_neighbors1.items():
            parent = own1[uri]
            for neighbor in neighbor_set:
                neighbor_id = value1.get(neighbor)
                if neighbor_id is not None:
                    reverse1.setdefault(neighbor_id, []).append(parent)
        reverse2: dict[int, list[int]] = {}
        for uri, neighbor_set in top_neighbors2.items():
            parent = own2[uri]
            for neighbor in neighbor_set:
                neighbor_id = value2.get(neighbor)
                if neighbor_id is not None:
                    reverse2.setdefault(neighbor_id, []).append(parent)

        sims: dict[int, float] = {}
        shift, mask = PAIR_ID_BITS, PAIR_ID_MASK
        for key, sim in value_index.packed_items().items():
            parents1 = reverse1.get(key >> shift)
            if not parents1:
                continue
            parents2 = reverse2.get(key & mask)
            if not parents2:
                continue
            for entity1 in parents1:
                base = entity1 << shift
                for entity2 in parents2:
                    pair = base | entity2
                    sims[pair] = sims.get(pair, 0.0) + sim
        self._adopt_sums(sims, interner1, interner2)

    def __repr__(self) -> str:
        return f"NeighborSimilarityIndex({len(self)} pairs)"
