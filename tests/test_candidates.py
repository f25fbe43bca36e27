"""Unit tests for the per-entity candidate lists (H3/H4 input)."""

import numpy
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import candidate_lists_by_uri, h4_bars_by_uri, index_of_pairs
from repro.blocking import token_blocking
from repro.core import CandidateIndex, CandidateLists
from repro.core import MinoanERConfig
from repro.core.neighbors import NeighborSimilarityIndex
from repro.core.similarity import ValueSimilarityIndex
from repro.core.candidates import counterpart_translation, kept_neighbor_offsets
from repro.datasets import generate_benchmark
from repro.engine import build_neighbor_index, build_value_index
from repro.kb import KnowledgeBase
from repro.pipeline import MatchSession


def kb_from_texts(name, texts, prefix):
    kb = KnowledgeBase(name)
    for index, text in enumerate(texts):
        kb.new_entity(f"{prefix}{index}").add_literal("v", text)
    return kb


def build(texts1, texts2, k=3, restrict=True):
    kb1 = kb_from_texts("A", texts1, "a")
    kb2 = kb_from_texts("B", texts2, "b")
    value_index = build_value_index(token_blocking(kb1, kb2))
    neighbor_index = build_neighbor_index(value_index, {}, {})
    return CandidateIndex(value_index, neighbor_index, k=k, restrict_neighbors_to_cooccurring=restrict)


class TestCandidateLists:
    def test_contains_checks_both_lists(self):
        lists = CandidateLists(value=("a",), neighbor=("b",))
        assert lists.contains("a")
        assert lists.contains("b")
        assert not lists.contains("c")

    def test_is_empty(self):
        assert CandidateLists().is_empty()
        assert not CandidateLists(value=("x",)).is_empty()


class TestCandidateIndex:
    def test_value_candidates_top_k(self):
        index = build(["red zebra"], ["red a", "red b", "red c", "red d"], k=2)
        lists = index.of_entity1("a0")
        assert len(lists.value) == 2

    def test_k_validation(self):
        with pytest.raises(ValueError):
            build(["x"], ["x"], k=0)

    def test_entity_without_candidates(self):
        index = build(["unique1"], ["unique2"])
        assert index.of_entity1("a0").is_empty()

    def test_of_entity2_direction(self):
        index = build(["red zebra"], ["red dot"])
        assert "a0" in index.of_entity2("b0").value

    def test_mutually_listed_symmetric_requirement(self):
        index = build(["red zebra"], ["red dot"])
        assert index.mutually_listed("a0", "b0")

    def test_not_mutually_listed_when_out_of_top_k(self):
        # a0 shares only the frequent token with b5, but b5's list is
        # dominated by better candidates... simulate via k=1
        index = build(
            ["red zebra", "red zebra stripes"],
            ["red zebra stripes extra"],
            k=1,
        )
        # b0's single slot goes to a1 (more shared tokens)
        assert not index.mutually_listed("a0", "b0")
        assert index.mutually_listed("a1", "b0")

    def test_caching_returns_same_object(self):
        index = build(["red"], ["red"])
        assert index.of_entity1("a0") is index.of_entity1("a0")


# ----------------------------------------------------------------------
# The id-level trim against the URI-level implementation it replaced
# ----------------------------------------------------------------------
#: Few distinct scores, so ranked rows are full of ties.
_sims = st.sampled_from([0.25, 0.5, 0.5000000000000001, 1.0, 2.0])
#: The value index sees entities 0..5 of each KB, the neighbor index
#: 2..8: some neighbor candidates translate to no value id (``-1``) and
#: some entities have a row in one index only.
_value_pairs = st.dictionaries(
    st.tuples(st.integers(0, 5), st.integers(0, 5)), _sims, max_size=20
)
_neighbor_pairs = st.dictionaries(
    st.tuples(st.integers(2, 8), st.integers(2, 8)), _sims, max_size=30
)


def _uri(side: int, position: int) -> str:
    return f"urn:kb{side}:e{position}"


def _index_of(cls, id_pairs: dict, mapped: bool = False):
    """``cls`` over ``id_pairs``; optionally as read-only views over
    foreign bytes (what an mmap load adopts)."""
    index = index_of_pairs(
        {(_uri(1, id1), _uri(2, id2)): sim for (id1, id2), sim in id_pairs.items()},
        cls,
    )
    if not mapped:
        return index
    keys, sims = (
        memoryview(column.tobytes()).cast(column.typecode)
        for column in index.packed_columns()
    )
    return cls.from_packed_columns(keys, sims, *index.interners())


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    value_pairs=_value_pairs,
    neighbor_pairs=_neighbor_pairs,
    mapped=st.booleans(),
)
def test_id_level_lists_equal_uri_level_lists(
    numpy_arm, value_pairs, neighbor_pairs, mapped
):
    value_index = _index_of(ValueSimilarityIndex, value_pairs, mapped)
    neighbor_index = _index_of(NeighborSimilarityIndex, neighbor_pairs, mapped)
    for restrict in (True, False):
        for k in (1, 2, 15):
            index = CandidateIndex(
                value_index,
                neighbor_index,
                k=k,
                restrict_neighbors_to_cooccurring=restrict,
            )
            for side, of_entity in ((1, index.of_entity1), (2, index.of_entity2)):
                for position in range(10):  # 9 is in neither index
                    uri = _uri(side, position)
                    assert of_entity(uri) == candidate_lists_by_uri(
                        value_index, neighbor_index, uri, side, k, restrict
                    )


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    value_pairs=_value_pairs,
    neighbor_pairs=_neighbor_pairs,
    k=st.sampled_from([1, 2, 15]),
    restrict=st.booleans(),
)
def test_trim_reads_any_integer_column(
    numpy_arm, value_pairs, neighbor_pairs, k, restrict
):
    """CSR rows come as ``array`` s, mmap ``memoryview`` s or NumPy
    arrays; the trim keeps the same ids from every form, and
    :meth:`CandidateIndex.of_entity1` decodes them to the same lists."""
    value_index = _index_of(ValueSimilarityIndex, value_pairs)
    neighbor_index = _index_of(NeighborSimilarityIndex, neighbor_pairs)
    translation = counterpart_translation(value_index, neighbor_index, 1)
    forms = [
        lambda column: column,
        lambda column: memoryview(column),
        lambda column: numpy.frombuffer(
            column, dtype={"i": numpy.int32, "q": numpy.int64}[column.typecode]
        ),
    ]
    decode_neighbor = neighbor_index.interners()[1].uris()
    index = CandidateIndex(
        value_index,
        neighbor_index,
        k=k,
        restrict_neighbors_to_cooccurring=restrict,
    )
    for uri in (_uri(1, position) for position in range(10)):
        lists = candidate_lists_by_uri(
            value_index, neighbor_index, uri, 1, k, restrict
        )
        value_ids = value_index.csr_row_ids(1, uri)
        neighbor_ids = neighbor_index.csr_row_ids(1, uri)
        for form in forms:
            kept = kept_neighbor_offsets(
                form(value_ids), form(neighbor_ids), form(translation), k, restrict
            )
            assert (
                tuple(decode_neighbor[neighbor_ids[j]] for j in kept)
                == lists.neighbor
            )
        assert index.of_entity1(uri) == lists


@pytest.mark.parametrize("restrict", [True, False])
def test_online_h4_bars_equal_decoded_rows(numpy_arm, restrict):
    """``OnlineResolver._h4_bars`` reads the k-th similarities at the
    positions the trim keeps; float ``==`` to cutting decoded rows."""
    data = generate_benchmark("restaurant", 1.0, 5)
    session = MatchSession(
        data.kb1,
        data.kb2,
        MinoanERConfig(restrict_h3_to_cooccurring=restrict),
    )
    session.match()
    resolver = session._reads().resolver
    value_index = session.run_context().get("value_index")
    neighbor_index = session.run_context().get("neighbor_index")
    bars = 0
    for uri2 in sorted(data.kb2.uris()) + ["urn:absent"]:
        for k in (1, 2, 15):
            expected = h4_bars_by_uri(
                value_index, neighbor_index, uri2, k, restrict
            )
            assert resolver._h4_bars(uri2, k) == expected
            bars += sum(bar is not None for bar in expected)
    assert bars  # the dataset does fill some lists to k
