"""Unit tests for the per-entity candidate lists (H3/H4 input)."""

import weakref
from pathlib import Path

import numpy
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from oracles import (
    candidate_lists_by_uri,
    csr_candidate_lists,
    h4_bars_by_uri,
    index_of_pairs,
)
from repro.blocking import token_blocking
from repro.core import CandidateIndex, CandidateLists
from repro.core import MinoanERConfig
from repro.core import candidates as candidates_module
from repro.core import similarity as similarity_module
from repro.core.neighbors import NeighborSimilarityIndex
from repro.core.similarity import ValueSimilarityIndex
from repro.core.candidates import cooccurring_neighbor_index
from repro.datasets import generate_benchmark
from repro.engine import build_neighbor_index, build_value_index
from repro.incremental import IncrementalMatcher
from repro.kb import KnowledgeBase
from repro.kb.io_ntriples import read_ntriples
from repro.pipeline import MatchSession
from repro.serve import ServingState
from repro.serve.handlers import handle_candidates, handle_resolve
from repro.serve.json_codec import entity_to_dict

GOLDEN = Path(__file__).parent / "golden"


def kb_from_texts(name, texts, prefix):
    kb = KnowledgeBase(name)
    for index, text in enumerate(texts):
        kb.new_entity(f"{prefix}{index}").add_literal("v", text)
    return kb


def build_indices(texts1, texts2):
    kb1 = kb_from_texts("A", texts1, "a")
    kb2 = kb_from_texts("B", texts2, "b")
    value_index = build_value_index(token_blocking(kb1, kb2))
    return value_index, build_neighbor_index(value_index, {}, {})


def build(texts1, texts2, k=3):
    return CandidateIndex(*build_indices(texts1, texts2), k=k)


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
        indices = build_indices(["red zebra"], ["red dot"])
        assert "a0" in csr_candidate_lists(*indices, "b0", 2, 3).value

    def test_mutually_listed_symmetric_requirement(self):
        index = build(["red zebra"], ["red dot"])
        assert index.reciprocal(["a0"], ["b0"]) == [True]
        assert index.reciprocal([], []) == []

    def test_not_mutually_listed_when_out_of_top_k(self):
        # a0 shares only the frequent token with b5, but b5's list is
        # dominated by better candidates... simulate via k=1
        index = build(
            ["red zebra", "red zebra stripes"],
            ["red zebra stripes extra"],
            k=1,
        )
        # b0's single slot goes to a1 (more shared tokens)
        assert index.reciprocal(["a0", "a1"], ["b0", "b0"]) == [False, True]

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


#: The column forms an index holds: a copy load's ``array`` s, an mmap
#: load's read-only views over foreign bytes, a build's NumPy arrays.
_FORMS = {
    "array": lambda column: column,
    "memoryview": lambda column: memoryview(column.tobytes()).cast(
        column.typecode
    ),
    "ndarray": numpy.array,
}


def _index_of(cls, id_pairs: dict, form: str = "array"):
    """``cls`` over ``id_pairs``, its columns in ``form``."""
    index = index_of_pairs(
        {(_uri(1, id1), _uri(2, id2)): sim for (id1, id2), sim in id_pairs.items()},
        cls,
    )
    return cls.from_packed_columns(
        *map(_FORMS[form], index.packed_columns()), *index.interners()
    )


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    value_pairs=_value_pairs,
    neighbor_pairs=_neighbor_pairs,
    form=st.sampled_from(sorted(_FORMS)),
)
def test_id_level_lists_equal_uri_level_lists(
    numpy_arm, value_pairs, neighbor_pairs, form
):
    value_index = _index_of(ValueSimilarityIndex, value_pairs, form)
    neighbor_index = _index_of(NeighborSimilarityIndex, neighbor_pairs, form)
    for restrict in (True, False):
        # what the neighbor stage publishes; the oracle reads the full product
        published = (
            cooccurring_neighbor_index(value_index, neighbor_index)
            if restrict
            else neighbor_index
        )
        for k in (1, 2, 15):
            index = CandidateIndex(value_index, published, k=k)
            for side in (1, 2):
                for position in range(10):  # 9 is in neither index
                    uri = _uri(side, position)
                    lists = (
                        index.of_entity1(uri)
                        if side == 1
                        else csr_candidate_lists(
                            value_index, published, uri, side, k
                        )
                    )
                    assert lists == candidate_lists_by_uri(
                        value_index, neighbor_index, uri, side, k, restrict
                    )


def _ranked_row(index, side: int, uri: str, k: int | None = None):
    if side == 1:
        return index.candidates_of_entity1(uri, k)
    return index.candidates_of_entity2(uri, k)


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    value_pairs=_value_pairs,
    neighbor_pairs=_neighbor_pairs,
    form=st.sampled_from(sorted(_FORMS)),
)
@example(value_pairs={}, neighbor_pairs={(2, 3): 1.0, (4, 3): 0.5}, form="array")
@example(value_pairs={}, neighbor_pairs={}, form="memoryview")
def test_cooccurring_rows_are_filtered_full_rows(
    numpy_arm, value_pairs, neighbor_pairs, form
):
    """The co-occurring index's ranked rows are the full neighbor rows
    with every candidate the entity shares no value pair with dropped,
    order kept — from every column form, with neighbor entities the value
    index never saw, and over an empty value index."""
    value_index = _index_of(ValueSimilarityIndex, value_pairs, form)
    neighbor_index = _index_of(NeighborSimilarityIndex, neighbor_pairs, form)
    cooccurring = cooccurring_neighbor_index(value_index, neighbor_index)
    assert cooccurring.interners() == neighbor_index.interners()
    for side in (1, 2):
        for position in range(10):  # 9 is in neither index
            uri = _uri(side, position)
            partners = {c for c, _ in _ranked_row(value_index, side, uri)}
            filtered = [
                (candidate, sim)
                for candidate, sim in _ranked_row(neighbor_index, side, uri)
                if candidate in partners
            ]
            for k in (1, 2, 15):
                assert _ranked_row(cooccurring, side, uri, k) == filtered[:k]


# ----------------------------------------------------------------------
# Rank only what is read
# ----------------------------------------------------------------------
def _golden_kbs():
    return (
        read_ntriples(GOLDEN / "kb1.nt", name="golden1"),
        read_ntriples(GOLDEN / "kb2.nt", name="golden2"),
    )


def _recorded_rankings(monkeypatch) -> list:
    """Every ranking pass from now on, as ``(index, side, depth, rows)``:
    ``rows`` the set of side-1 ids it ranked, ``None`` for a whole side."""
    rankings = []
    real = similarity_module.PackedSimilarityIndex._rank

    def recorded(index, side, depth, rows=None):
        rankings.append((index, side, depth, rows))
        return real(index, side, depth, rows)

    monkeypatch.setattr(
        similarity_module.PackedSimilarityIndex, "_rank", recorded
    )
    return rankings


@pytest.mark.parametrize("restrict", [True, False])
def test_restricted_match_never_builds_the_full_neighbor_index(
    monkeypatch, restrict
):
    """A default batch match folds only the co-occurring neighbor pairs:
    the run constructs exactly one neighbor index, the one the neighbor
    stage publishes, and the lists are cut from its rows at depth K.
    Unrestricted, the published index is the full product and the lists
    are its rows.  Either way the run ranks side 1 only, each index
    once, to K, and only the rows read: the value rows H2 walks (KB1
    minus H1's matches), the neighbor rows H3 reads (minus H2's too);
    H4 ranks no row."""
    made = []
    real = NeighborSimilarityIndex.from_packed_columns.__func__

    def recorded(cls, *columns):
        index = real(cls, *columns)
        made.append(weakref.ref(index))
        return index

    monkeypatch.setattr(
        NeighborSimilarityIndex, "from_packed_columns", classmethod(recorded)
    )
    rankings = _recorded_rankings(monkeypatch)
    config = MinoanERConfig(restrict_h3_to_cooccurring=restrict)
    ctx = MatchSession(*_golden_kbs(), config).run_context()
    assert ctx.get("matches")
    assert len(made) == 1
    published = ctx.get("neighbor_index")
    assert made[0]() is published
    # the lists were cut from the published index at depth K: side 1 of
    # both indices ranked once, to K, over the rows read, and no read
    # went deeper
    k = config.top_k_candidates
    value_index = ctx.get("value_index")
    claimed = {"H1": set(), "H2": set(), "H3": set()}
    for match in ctx.get("pre_h4_matches"):
        claimed[match.heuristic].add(match.uri1)
    assert claimed["H1"] and claimed["H2"] and claimed["H3"]

    def row_ids(index, skipped):
        ids = index.interners()[0].ids_by_uri()
        return {ids[u] for u in ctx.kb1.uris() if u in ids and u not in skipped}

    assert rankings == [
        (value_index, 1, k, row_ids(value_index, claimed["H1"])),
        (published, 1, k, row_ids(published, claimed["H1"] | claimed["H2"])),
    ]
    lists = ctx.get("candidate_index")
    for uri1 in ctx.kb1.uris():
        assert lists.of_entity1(uri1).neighbor == tuple(
            uri2 for uri2, _ in published.candidates_of_entity1(uri1, k)
        )


def test_published_state_answers_first_reads_without_building(
    monkeypatch, tmp_path
):
    """``ServingState.from_matcher`` ranks every side the read path
    serves, to K — over a loaded snapshot too, whose replay reads no
    row: the first ``/candidates`` and ``/resolve`` calls rank no side
    and filter no neighbor pair (a side-1 row the neighbor gather reads
    whole is ranked alone).  Across a delta's match and its publish,
    each index is ranked to K only: the delta's matching ranks the
    side-1 rows H2 and H3 read, and its publish ranks side 2 and side 1
    whole (every row the matching ranked, and the rest)."""
    kb1, kb2 = _golden_kbs()
    saved = MatchSession(kb1, kb2).save(tmp_path / "snap")
    matcher = IncrementalMatcher(MatchSession.load(saved))
    rankings = _recorded_rankings(monkeypatch)
    states, indices = [], []
    for delta in (False, True):
        if delta:
            matcher.remove_entities("kb1", sorted(kb1.uris())[:2])
        matcher.match()
        states.append(
            ServingState.from_matcher(
                matcher, generation=1 + delta, delta_count=int(delta)
            )
        )
        ctx = matcher.last_context
        indices.append((ctx.get("value_index"), ctx.get("neighbor_index")))
    k = matcher.config.top_k_candidates

    def ranked(index) -> list:
        return [
            (side, depth, rows)
            for of, side, depth, rows in rankings
            if of is index
        ]

    # the replayed snapshot's publish ranks all four sides whole
    for index in indices[0]:
        assert ranked(index) == [(1, k, None), (2, k, None)]
    # the delta's matching ranks some side-1 rows; its publish ranks
    # both sides whole
    for index in indices[1]:
        (_, _, read), *published = ranked(index)
        assert 0 < len(read) < len(index.interners()[0])
        assert published == [(1, k, None), (2, k, None)]
    assert len(rankings) == 10  # nothing else ranked

    def built(*args):
        raise AssertionError("a read ranked a side or filtered pairs")

    monkeypatch.setattr(similarity_module.PackedSimilarityIndex, "_rank", built)
    monkeypatch.setattr(candidates_module, "pairs_translated_into", built)
    for state in states:
        matched = 0
        for match in state.matches[:20]:
            assert handle_candidates(state, match.uri1, None)["match"]
            record = entity_to_dict(kb1.get(match.uri1))
            record["uri"] = "urn:query:" + match.uri1
            resolved = handle_resolve(state, {"record": record})
            matched += resolved["match"] is not None
        assert matched  # some resolves reached H4's bars


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
    ctx = session.run_context()
    value_index = ctx.get("value_index")
    # the oracle restricts the full product itself
    neighbor_index = build_neighbor_index(
        value_index, ctx.get("top_neighbors1"), ctx.get("top_neighbors2")
    )
    bars = 0
    for uri2 in sorted(data.kb2.uris()) + ["urn:absent"]:
        for k in (1, 2, 15):
            expected = h4_bars_by_uri(
                value_index, neighbor_index, uri2, k, restrict
            )
            assert resolver._h4_bars(uri2, k) == expected
            bars += sum(bar is not None for bar in expected)
    assert bars  # the dataset does fill some lists to k
