"""Blocking through the placement table, and the id-level candidate lists.

The blocking stages key every entity once into a
:class:`~repro.blocking.placements.PlacementTable` and assemble packed
blocks from it; the serial string-keyed builders (``token_blocking`` /
``name_blocking`` + ``purge_blocks``) stay in the tree as the executable
specification the stages must equal element for element — under every
executor — so every golden digest and parity harness passes unchanged.
"""

from pathlib import Path

import pytest
from oracles import (
    blocking_context,
    candidate_lists_by_uri,
    cooccurring_neighbor_index,
    csr_candidate_lists,
    decoded_pairs,
)

from repro.blocking import (
    PackedBlockCollection,
    PlacementTable,
    name_blocking,
    names_from_attributes,
    purge_blocks,
    token_blocking,
)
from repro.core import MinoanERConfig
from repro.core.candidates import CandidateIndex
from repro.core.neighbors import top_neighbors
from repro.core.statistics import top_relations
from repro.engine import build_neighbor_index, build_value_index
from repro.blocking.placements import entity_key_rows
from repro.blocking.purging import purge_decision_from_sizes
from repro.kb.io_ntriples import read_ntriples
from repro.pipeline.stages import TokenBlockingStage

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


def token_table(kb1, kb2):
    keyer = TokenBlockingStage.keyer()
    return PlacementTable(
        "BT", tuple(entity_key_rows(kb, keyer) for kb in (kb1, kb2))
    )


# ----------------------------------------------------------------------
# The blocking stages == the serial string-keyed reference
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine_name,workers", EXECUTORS)
def test_packed_equals_string_engine(kbs, engine_name, workers):
    """Both stages' blocks and the purge report, under every executor."""
    kb1, kb2 = kbs
    ctx = blocking_context(
        kb1, kb2, MinoanERConfig(engine=engine_name, workers=workers)
    )
    tokens, report = ctx.get("token_blocks"), ctx.get("purging_report")
    names = ctx.get("name_blocks")
    attributes1 = ctx.get("name_attributes1")
    attributes2 = ctx.get("name_attributes2")
    reference, reference_report = purge_blocks(token_blocking(kb1, kb2))
    assert isinstance(tokens, PackedBlockCollection)
    assert tokens.keys() == sorted(reference.keys())  # sorted key order
    assert collection_signature(tokens) == collection_signature(reference)
    assert report == reference_report

    reference = name_blocking(
        kb1,
        kb2,
        names_from_attributes(attributes1),
        names_from_attributes(attributes2),
    )
    assert isinstance(names, PackedBlockCollection)
    assert names.keys() == sorted(reference.keys())
    assert collection_signature(names) == collection_signature(reference)


def test_packed_equals_string_engine_unpurged(kbs):
    kb1, kb2 = kbs
    config = MinoanERConfig(purge_token_blocks=False)
    ctx = blocking_context(kb1, kb2, config)
    packed, report = ctx.get("token_blocks"), ctx.get("purging_report")
    reference = token_blocking(kb1, kb2)
    assert report is None
    assert collection_signature(packed) == collection_signature(reference)


def test_purge_from_sizes_equals_materialized_purge(kbs):
    kb1, kb2 = kbs
    table = token_table(kb1, kb2)
    kept, report = purge_decision_from_sizes(table.shared_counts())
    packed = table.assemble(keep=kept)

    reference, reference_report = purge_blocks(token_blocking(kb1, kb2))
    assert report == reference_report
    assert collection_signature(packed) == collection_signature(reference)


def test_packed_csr_invariants(kbs):
    kb1, kb2 = kbs
    packed = token_table(kb1, kb2).assemble()
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
    reference = token_blocking(kb1, kb2)
    packed = PackedBlockCollection.from_collection(reference)
    assert collection_signature(packed) == collection_signature(reference)
    assert packed.keys() == sorted(reference.keys())
    assert collection_signature(
        token_table(kb1, kb2).assemble()
    ) == collection_signature(packed)


# ----------------------------------------------------------------------
# The placement table
# ----------------------------------------------------------------------
class TestPlacementTable:
    def test_add_remove_roundtrip_assembles_like_batch(self):
        table = PlacementTable(
            "BT",
            ([("a1", frozenset({"x", "y"}))], [("b1", frozenset({"y", "z"}))]),
        )
        table.add_entity(1, "a2", {"z", "y"})
        blocks = table.assemble()
        assert blocks.keys() == ["y", "z"]  # sorted, two-sided only
        assert blocks["y"].entities1 == {"a1", "a2"}
        table.remove_entity(1, "a2")
        assert table.assemble().keys() == ["y"]

    def test_re_adding_placed_entity_rejected(self):
        table = PlacementTable("BT")
        table.add_entity(1, "a1", {"x"})
        with pytest.raises(ValueError, match="already placed"):
            table.add_entity(1, "a1", {"y"})
        assert table.entity_keys(1, "a1") == {"x"}  # untouched

    def test_shared_counts_and_keep_filter(self):
        table = PlacementTable(
            "BT",
            (
                [("a1", frozenset({"x", "only1"}))],
                [("b1", frozenset({"x"})), ("b2", frozenset({"x"}))],
            ),
        )
        assert table.shared_counts() == {"x": (1, 2)}
        assert table.assemble(keep=set()).keys() == []

    def test_keep_restricts_two_sided_keys_only(self):
        table = PlacementTable(
            "BT",
            (
                [("a1", frozenset({"x", "y", "only1"}))],
                [("b1", frozenset({"x", "y"})), ("b2", frozenset({"y"}))],
            ),
        )
        blocks = table.assemble(keep={"y", "only1", "absent"})
        assert blocks.keys() == ["y"]  # a kept one-sided key forms no block
        assert blocks["y"].entities2 == {"b1", "b2"}
        assert blocks.interners()[0].uris() == ["a1"]
        assert list(blocks.csr(2)[0]) == [0, 2]

    @pytest.mark.parametrize(
        "rows",
        [((), ()), ([("a1", frozenset({"x"}))], ()), ((), [("b1", frozenset({"x"}))])],
        ids=["empty", "side2-empty", "side1-empty"],
    )
    def test_empty_side_assembles_no_blocks(self, rows):
        blocks = PlacementTable("BN", rows).assemble()
        assert len(blocks) == 0 and blocks.name == "BN"
        assert [len(interner) for interner in blocks.interners()] == [0, 0]
        for side in (1, 2):
            assert [list(column) for column in blocks.csr(side)] == [[0], []]

    def test_rows_round_trip_and_blocks_never_alias(self):
        rows = (
            [("a1", frozenset({"x"})), ("a2", frozenset())],
            [("b1", frozenset({"x", "z"}))],
        )
        table = PlacementTable("BT", rows)
        uris = (["a2", "a1", "ghost"], ["b1"])
        assert table.rows(uris) == (
            [("a2", frozenset()), ("a1", frozenset({"x"})), ("ghost", frozenset())],
            [("b1", frozenset({"x", "z"}))],
        )
        blocks = table.assemble()
        table.add_entity(1, "a3", {"x"})
        assert blocks["x"].entities1 == {"a1"}  # a copy, not the table's set


def test_value_index_from_packed_collection_is_bit_identical(kbs):
    kb1, kb2 = kbs
    reference_blocks = blocking_context(kb1, kb2).get("token_blocks")
    packed_blocks = PackedBlockCollection.from_collection(reference_blocks)
    via_packed = build_value_index(packed_blocks)
    via_reference = build_value_index(reference_blocks)
    assert decoded_pairs(via_packed) == decoded_pairs(via_reference)
    for uri1 in {uri1 for uri1, _ in decoded_pairs(via_reference)}:
        assert via_packed.candidates_of_entity1(
            uri1
        ) == via_reference.candidates_of_entity1(uri1)


# ----------------------------------------------------------------------
# Id-level candidate lists == per-entity decoded build
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def evidence(kbs):
    kb1, kb2 = kbs
    config = MinoanERConfig()
    blocks = blocking_context(kb1, kb2).get("token_blocks")
    value_index = build_value_index(blocks)
    relations1 = top_relations(kb1, config.top_n_relations)
    relations2 = top_relations(kb2, config.top_n_relations)
    neighbor_index = build_neighbor_index(
        value_index,
        top_neighbors(kb1, relations1),
        top_neighbors(kb2, relations2),
    )
    return value_index, neighbor_index


@pytest.mark.parametrize("restrict", [True, False], ids=["restricted", "open"])
@pytest.mark.parametrize("k", [2, 15])
def test_gathered_lists_equal_decoded_build(kbs, evidence, restrict, k):
    """On the golden KBs, both sides' lists as H3 and H4 read them."""
    value_index, neighbor_index = evidence
    published = (
        cooccurring_neighbor_index(value_index, neighbor_index)
        if restrict
        else neighbor_index
    )
    gathered = CandidateIndex(value_index, published, k=k)

    def lists(side, uri):
        if side == 1:
            return gathered.of_entity1(uri)
        return csr_candidate_lists(value_index, published, uri, side, k)

    for side, kb in ((1, kbs[0]), (2, kbs[1])):
        for uri in kb.uris():
            assert lists(side, uri) == candidate_lists_by_uri(
                value_index, neighbor_index, uri, side, k, restrict
            ), uri
