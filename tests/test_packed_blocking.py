"""Packed (id-column) token blocking and the packed H3 candidate gather.

Both refactors ride on the same guarantee as PR 4's similarity core:
the packed construction must equal the string-keyed reference — which
stays in the tree as the executable specification — element for element,
so every golden digest and parity harness passes unchanged.
"""

from pathlib import Path

import pytest

from repro.blocking import PackedBlockCollection, purge_blocks
from repro.core import MinoanER, MinoanERConfig
from repro.core.candidates import CandidateIndex
from repro.core.neighbors import top_neighbors
from repro.core.statistics import top_relations
from repro.engine import (
    SerialExecutor,
    assemble_packed_blocks,
    build_neighbor_index,
    build_value_index,
    create_executor,
    packed_token_placements,
    shared_side_sizes,
    token_blocking_engine,
    token_blocking_packed_engine,
)
from repro.engine.matching import _preload_candidate_lists
from repro.blocking.purging import purge_decision_from_sizes
from repro.kb.io_ntriples import read_ntriples
from repro.kb.tokenizer import Tokenizer

GOLDEN = Path(__file__).parent / "golden"

EXECUTORS = [("serial", None), ("thread", 3), ("process", 2)]


@pytest.fixture(scope="module")
def kbs():
    return (
        read_ntriples(GOLDEN / "kb1.nt", name="golden1"),
        read_ntriples(GOLDEN / "kb2.nt", name="golden2"),
    )


def collection_signature(blocks):
    return {
        block.key: (frozenset(block.entities1), frozenset(block.entities2))
        for block in blocks
    }


# ----------------------------------------------------------------------
# Packed token blocking == string-keyed reference
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine_name,workers", EXECUTORS)
def test_packed_equals_string_engine(kbs, engine_name, workers):
    kb1, kb2 = kbs
    with create_executor(engine_name, workers) as engine:
        packed = token_blocking_packed_engine(kb1, kb2, engine=engine)
        reference = token_blocking_engine(kb1, kb2, engine=engine)
    assert packed.keys() == reference.keys()  # sorted key order included
    assert collection_signature(packed) == collection_signature(reference)


@pytest.mark.parametrize(
    "tokenizer",
    [
        Tokenizer(),
        Tokenizer(min_length=3),
        Tokenizer(include_uri_localnames=True),
    ],
    ids=["default", "min3", "localnames"],
)
def test_packed_equals_string_engine_tokenizer_variants(kbs, tokenizer):
    kb1, kb2 = kbs
    packed = token_blocking_packed_engine(kb1, kb2, tokenizer)
    reference = token_blocking_engine(kb1, kb2, tokenizer)
    assert collection_signature(packed) == collection_signature(reference)


def test_purge_from_sizes_equals_materialized_purge(kbs):
    kb1, kb2 = kbs
    side1, side2, interner1, interner2 = packed_token_placements(kb1, kb2)
    sizes = shared_side_sizes(side1, side2)
    kept, report = purge_decision_from_sizes(sizes)
    packed = assemble_packed_blocks(
        side1, side2, interner1, interner2, keep=kept
    )

    reference, reference_report = purge_blocks(token_blocking_engine(kb1, kb2))
    assert report == reference_report
    assert collection_signature(packed) == collection_signature(reference)


def test_packed_csr_invariants(kbs):
    kb1, kb2 = kbs
    packed = token_blocking_packed_engine(kb1, kb2)
    assert list(packed.block_keys) == sorted(packed.block_keys)
    interner1, interner2 = packed.interners()
    for row, key in enumerate(packed.block_keys):
        for side, interner in ((1, interner1), (2, interner2)):
            ids = packed.row_ids(row, side)
            assert list(ids) == sorted(ids)  # sorted ids == sorted URIs
            members = (
                packed[key].entities1 if side == 1 else packed[key].entities2
            )
            assert {interner.uri_of(i) for i in ids} == members
        assert packed.row_sizes(row) == (
            len(packed[key].entities1),
            len(packed[key].entities2),
        )


def test_from_collection_roundtrip(kbs):
    kb1, kb2 = kbs
    reference = token_blocking_engine(kb1, kb2)
    packed = PackedBlockCollection.from_collection(reference)
    assert collection_signature(packed) == collection_signature(reference)
    assert packed.keys() == reference.keys()


def test_value_index_from_packed_collection_is_bit_identical(kbs):
    kb1, kb2 = kbs
    reference_blocks, _ = MinoanER().build_token_blocks(kb1, kb2)
    packed_blocks = PackedBlockCollection.from_collection(reference_blocks)
    via_packed = build_value_index(packed_blocks)
    via_reference = build_value_index(reference_blocks)
    assert via_packed.pairs() == via_reference.pairs()  # exact floats
    for uri1 in {uri1 for uri1, _ in via_reference.pairs()}:
        assert via_packed.candidates_of_entity1(
            uri1
        ) == via_reference.candidates_of_entity1(uri1)


# ----------------------------------------------------------------------
# Packed H3 gather == per-entity decoded build
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def evidence(kbs):
    kb1, kb2 = kbs
    config = MinoanERConfig()
    blocks, _ = MinoanER().build_token_blocks(kb1, kb2)
    value_index = build_value_index(blocks)
    relations1 = top_relations(
        kb1, config.top_n_relations, config.include_incoming_edges
    )
    relations2 = top_relations(
        kb2, config.top_n_relations, config.include_incoming_edges
    )
    neighbor_index = build_neighbor_index(
        value_index,
        top_neighbors(kb1, relations1, config.include_incoming_edges),
        top_neighbors(kb2, relations2, config.include_incoming_edges),
    )
    return value_index, neighbor_index


@pytest.mark.parametrize("restrict", [True, False], ids=["restricted", "open"])
@pytest.mark.parametrize("k", [2, 15])
def test_gathered_lists_equal_decoded_build(kbs, evidence, restrict, k):
    kb1, _ = kbs
    value_index, neighbor_index = evidence
    gathered = CandidateIndex(
        value_index, neighbor_index, k=k,
        restrict_neighbors_to_cooccurring=restrict,
    )
    with SerialExecutor() as engine:
        _preload_candidate_lists(kb1.uris(), gathered, engine)
    fresh = CandidateIndex(
        value_index, neighbor_index, k=k,
        restrict_neighbors_to_cooccurring=restrict,
    )
    for uri in kb1.uris():
        assert gathered.of_entity1(uri) == fresh.of_entity1(uri), uri
