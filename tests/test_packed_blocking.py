"""Blocking through the placement table, and the id-level candidate lists.

The blocking stages key every entity once into a
:class:`~repro.blocking.placements.PlacementTable` and assemble packed
blocks from it; the serial string-keyed builders (``token_blocking`` /
``name_blocking`` + ``purge_blocks``) stay in the tree as the executable
specification the stages must equal element for element — under every
executor — so every golden digest and parity harness passes unchanged.
"""

from pathlib import Path

import numpy
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from oracles import (
    blocking_context,
    candidate_lists_by_uri,
    cooccurring_neighbor_index,
    csr_candidate_lists,
    decoded_pairs,
    member_csr_by_row,
    relation_importance_by_entity_walk,
    top_neighbor_csr_by_row,
)

from repro.blocking import (
    Block,
    BlockCollection,
    PackedBlockCollection,
    PlacementTable,
    name_blocking,
    names_from_attributes,
    purge_blocks,
    token_blocking,
)
from repro.core import MinoanERConfig
from repro.core.neighbors import (
    top_neighbor_csr,
    top_neighbors,
    top_relations_and_neighbors,
)
from repro.core.statistics import relation_importance, top_relations
from repro.datasets import generate_benchmark
from repro.ids import EntityInterner
from repro.ids.arrays import member_csr
from repro.incremental import IncrementalMatcher
from repro.pipeline import MatchSession
from repro.pipeline.digest import artifact_digest
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
            starts, ids = packed.csr(side)
            ids = list(ids[starts[row] : starts[row + 1]])
            assert ids == sorted(ids)  # sorted ids == sorted URIs
            members = (
                packed[key].entities1 if side == 1 else packed[key].entities2
            )
            assert {interner.uri_of(i) for i in ids} == members
            assert len(ids) == len(members)


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
# One-pass CSR builders == the per-row loops they replaced
# ----------------------------------------------------------------------
#: Member URIs: ASCII and not, prefixes of each other, and code points
#: whose UTF-8 order is not their UTF-16 order.
URIS = st.sampled_from(
    ["a", "a1", "a10", "a2", "b", "é", "ü:x", "日本", "\U0001f600", "\uffff", "Z"]
)


def assert_same_csr(built, oracle):
    """Interner, ``starts`` and ``ids`` equal, bytes and element type."""
    (interner, starts, ids), (interner0, starts0, ids0) = built, oracle
    assert interner.uris() == interner0.uris()
    assert (starts.dtype, ids.dtype) == (numpy.int64, numpy.int32)
    assert starts.tobytes() == starts0.tobytes()
    assert ids.tobytes() == ids0.tobytes()


@given(st.lists(st.sets(URIS, max_size=6), max_size=8))
@example([])
@example([set(), set()])
@example([{"é"}, set(), {"a"}, {"日本", "a", "Z"}])
def test_member_csr_equals_the_per_row_loop(rows):
    assert_same_csr(member_csr(rows), member_csr_by_row(rows))


@given(
    st.dictionaries(URIS, st.sets(URIS, min_size=1, max_size=5), max_size=8),
    st.sets(URIS),
)
@example({}, set())
@example({"a": {"b"}}, set())  # no neighbor in the value interner
@example({"a": {"é"}, "b": {"é", "Z", "日本"}}, {"é", "日本"})
def test_top_neighbor_csr_equals_the_per_row_loop(neighbors, values):
    """Neighbors the value interner lacks are dropped, rows stay."""
    parents, value_entities = EntityInterner(neighbors), EntityInterner(values)
    assert_same_csr(
        (value_entities, *top_neighbor_csr(neighbors, parents, value_entities)),
        (
            value_entities,
            *top_neighbor_csr_by_row(neighbors, parents, value_entities),
        ),
    )


@pytest.mark.parametrize("profile", ["yago_imdb", "rexa_dblp"])
def test_one_graph_pass_gives_the_relations_and_neighbors_of_two(profile):
    """``relation_importance`` read off the graph equals the entity walk,
    and one pass gives the top relations and neighbors two passes did."""
    data = generate_benchmark(profile, 0.2, 13)
    for kb in (data.kb1, data.kb2):
        assert relation_importance(kb) == relation_importance_by_entity_walk(kb)
        for n in (0, 1, 4):
            relations = top_relations(kb, n)
            assert top_relations_and_neighbors(kb, n) == (
                relations,
                top_neighbors(kb, relations),
            )


# ----------------------------------------------------------------------
# The string-keyed view, built on first read
# ----------------------------------------------------------------------
def eager_view(name, keys, members1, members2):
    """The collection the constructor once built beside its columns."""
    return BlockCollection(
        name,
        (
            Block(key, set(entities1), set(entities2))
            for key, entities1, entities2 in zip(keys, members1, members2)
        ),
    )


def assert_view_equals(packed, eager):
    assert packed.keys() == eager.keys() and len(packed) == len(eager)
    assert all(key in packed for key in eager.keys())
    assert "\x00absent" not in packed
    assert collection_signature(packed) == collection_signature(eager)
    assert packed.total_comparisons() == eager.total_comparisons()
    assert artifact_digest(packed) == artifact_digest(eager)


def test_lazy_view_equals_the_eager_one(kbs):
    for blocks in (
        token_table(*kbs).assemble(),
        blocking_context(*kbs).get("name_blocks"),
    ):
        keys = blocks.block_keys
        members = [
            [set(row) for row in blocks.member_uris(side)] for side in (1, 2)
        ]
        fresh = PackedBlockCollection(blocks.name, keys, *members)
        digest = artifact_digest(fresh)  # from the columns: builds no view
        assert "_blocks" not in vars(fresh)
        assert digest == artifact_digest(eager_view(blocks.name, keys, *members))
        assert_view_equals(fresh, eager_view(blocks.name, keys, *members))
        assert "_blocks" in vars(fresh)


@given(
    st.lists(
        st.tuples(*[st.sets(URIS, min_size=1, max_size=4)] * 2), max_size=6
    )
)
def test_lazy_view_equals_the_eager_one_on_any_blocks(rows):
    keys = [f"k{row}" for row in range(len(rows))]
    keys.sort()
    members1, members2 = [list(side) for side in zip(*rows)] or ([], [])
    packed = PackedBlockCollection("BT", keys, members1, members2)
    assert "_blocks" not in vars(packed)
    assert_view_equals(packed, eager_view("BT", keys, members1, members2))


def test_view_read_after_a_later_delta_shows_its_own_generation(kbs):
    """A view first read after the placement table moved on decodes the
    columns of its own generation, not the table's live sets."""
    table = token_table(*kbs)
    blocks = table.assemble()
    expected = collection_signature(token_blocking(*kbs))
    moved = sorted(table.key_members(1)[blocks.block_keys[0]])[0]
    table.remove_entity(1, moved)
    table.add_entity(1, "urn:new", set(blocks.block_keys[:3]))
    assert collection_signature(blocks) == expected
    assert collection_signature(table.assemble()) != expected


def test_matcher_generations_keep_their_own_token_blocks(kbs):
    """The same through the incremental matcher: a generation's token
    blocks, first read after two more deltas, are a cold run's."""
    kb1, kb2 = kbs
    matcher = IncrementalMatcher(MatchSession(kb1.copy(), kb2.copy()))
    matcher.match()
    held = matcher.last_context.get("token_blocks")
    cold = MatchSession(kb1.copy(), kb2.copy()).run_context()
    for uri in sorted(kb1.uris())[:2]:
        matcher.remove_entities(1, [uri])
        matcher.match()
    assert "_blocks" not in vars(held)
    assert collection_signature(held) == collection_signature(
        cold.get("token_blocks")
    )
    assert artifact_digest(held) == artifact_digest(cold.get("token_blocks"))


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
    for side, kb in ((1, kbs[0]), (2, kbs[1])):
        for uri in kb.uris():
            lists = csr_candidate_lists(value_index, published, uri, side, k)
            assert lists == candidate_lists_by_uri(
                value_index, neighbor_index, uri, side, k, restrict
            ), uri
