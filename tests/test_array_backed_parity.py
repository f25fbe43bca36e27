"""Array-backed similarity core vs the pre-refactor dict construction.

Rebuilds both similarity indices the way the engine built them before
the integer-interned core — string-tuple pair dicts accumulated shard by
shard, per-entity candidate lists sorted by ``(-sim, uri)`` — on the
committed golden fixture, and asserts the packed indices return
**identical** (``==``, not approx) pair maps and ranked lists.
"""

from pathlib import Path

import pytest

from repro.core import MinoanERConfig
from repro.core.neighbors import top_neighbors
from repro.core.statistics import top_relations
from repro.engine import build_neighbor_index, build_value_index, partition_count
from repro.kb.io_ntriples import read_ntriples

from oracles import (
    _value_partial,
    blocking_context,
    block_shards,
    candidates_of_entity2,
    decoded_pairs,
    h2_walk,
    hash_partitions,
    merge_pair_sums,
    value_pair_key,
)

GOLDEN = Path(__file__).parent / "golden"


# ----------------------------------------------------------------------
# Reference (pre-refactor) constructions, kept as plain dict code
# ----------------------------------------------------------------------
def reference_value_engine(token_blocks):
    """The pre-refactor engine build: sharded string-keyed partials."""
    merged = {}
    for shard in block_shards(token_blocks, partition_count(len(token_blocks))):
        merged = merge_pair_sums(merged, _value_partial(shard))
    return merged


def _reference_reverse(top_neighbor_map):
    reverse = {}
    for uri, neighbor_set in top_neighbor_map.items():
        for neighbor in neighbor_set:
            reverse.setdefault(neighbor, []).append(uri)
    for parents in reverse.values():
        parents.sort()
    return reverse


def _propagate_into(sums, value_items, reverse1, reverse2):
    for (neighbor1, neighbor2), sim in value_items:
        parents1 = reverse1.get(neighbor1)
        if not parents1:
            continue
        parents2 = reverse2.get(neighbor2)
        if not parents2:
            continue
        for entity1 in parents1:
            for entity2 in parents2:
                pair = (entity1, entity2)
                sums[pair] = sums.get(pair, 0.0) + sim
    return sums


def reference_neighbor_engine(value_sims, top_neighbors1, top_neighbors2):
    """The pre-refactor engine build: sorted pairs, sharded by pair key."""
    reverse1 = _reference_reverse(top_neighbors1)
    reverse2 = _reference_reverse(top_neighbors2)
    items = sorted(value_sims.items())
    merged = {}
    for shard in hash_partitions(
        items,
        partition_count(len(items)),
        key=lambda item: value_pair_key(item[0]),
    ):
        merged = merge_pair_sums(
            merged, _propagate_into({}, shard, reverse1, reverse2)
        )
    return merged


def reference_ranked_lists(sims):
    by_entity1, by_entity2 = {}, {}
    for (uri1, uri2), sim in sims.items():
        by_entity1.setdefault(uri1, []).append((uri2, sim))
        by_entity2.setdefault(uri2, []).append((uri1, sim))
    for ranked in by_entity1.values():
        ranked.sort(key=lambda item: (-item[1], item[0]))
    for ranked in by_entity2.values():
        ranked.sort(key=lambda item: (-item[1], item[0]))
    return by_entity1, by_entity2


@pytest.fixture(scope="module")
def golden_evidence():
    kb1 = read_ntriples(GOLDEN / "kb1.nt", name="golden1")
    kb2 = read_ntriples(GOLDEN / "kb2.nt", name="golden2")
    config = MinoanERConfig()
    blocks = blocking_context(kb1, kb2).get("token_blocks")
    neighbors1 = top_neighbors(kb1, top_relations(kb1, config.top_n_relations))
    neighbors2 = top_neighbors(kb2, top_relations(kb2, config.top_n_relations))
    return blocks, neighbors1, neighbors2


def assert_index_equals_reference(index, sims):
    assert decoded_pairs(index) == sims  # exact floats, not approx
    assert len(index) == len(sims)
    by_entity1, by_entity2 = reference_ranked_lists(sims)
    for uri1 in {uri1 for uri1, _ in sims}:
        assert index.candidates_of_entity1(uri1) == by_entity1[uri1]
        assert index.candidates_of_entity1(uri1, 3) == by_entity1[uri1][:3]
    for uri2 in {uri2 for _, uri2 in sims}:
        assert candidates_of_entity2(index, uri2) == by_entity2[uri2]
    assert index.candidates_of_entity1("urn:absent") == []
    assert candidates_of_entity2(index, "urn:absent") == []


def test_value_indices_equal_references(golden_evidence, numpy_arm):
    blocks, _, _ = golden_evidence
    assert_index_equals_reference(
        build_value_index(blocks), reference_value_engine(blocks)
    )


def test_neighbor_indices_equal_references(golden_evidence, numpy_arm):
    blocks, neighbors1, neighbors2 = golden_evidence
    value_index = build_value_index(blocks)
    assert_index_equals_reference(
        build_neighbor_index(value_index, neighbors1, neighbors2),
        reference_neighbor_engine(
            decoded_pairs(value_index), neighbors1, neighbors2
        ),
    )


def test_best_candidate_accepts_frozenset_and_set(golden_evidence):
    blocks, neighbors1, neighbors2 = golden_evidence
    value_index = build_value_index(blocks)
    neighbor_index = build_neighbor_index(value_index, neighbors1, neighbors2)
    for index in (value_index, neighbor_index):
        some_uri1 = next(uri1 for uri1, _ in decoded_pairs(index))
        unrestricted = h2_walk(index, some_uri1)
        assert unrestricted is not None
        assert h2_walk(index, some_uri1, taken=frozenset()) == unrestricted
        best_uri, _ = unrestricted
        narrowed = h2_walk(index, some_uri1, taken={best_uri})
        assert narrowed is None or narrowed[0] != best_uri
