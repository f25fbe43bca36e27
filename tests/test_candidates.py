"""Unit tests for the per-entity candidate lists (H3/H4 input): the
first ``K`` of each entity's ranked rows in the two similarity indices."""

import hashlib
import json
import sys
import threading
import time
import weakref
from pathlib import Path

import numpy
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from oracles import (
    CandidateLists,
    candidate_lists_by_uri,
    candidates_of_entity2,
    cooccurring_neighbor_index,
    csr_candidate_lists,
    h4_bars_by_uri,
    index_of_pairs,
)
from repro.blocking import token_blocking
from repro.core import Match, MinoanERConfig, h4_reciprocity_filter
from repro.core import similarity as similarity_module
from repro.core.neighbors import NeighborSimilarityIndex
from repro.core.similarity import ValueSimilarityIndex
from repro.core.resolve import OnlineResolver
from repro.datasets import generate_benchmark, query_stream
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


def reciprocal(indices, pairs, k=3) -> list[bool]:
    """Per ``(uri1, uri2)``: whether H4 keeps it."""
    matches = [Match(uri1, uri2, "H2") for uri1, uri2 in pairs]
    kept, _ = h4_reciprocity_filter(matches, *indices, k)
    return [match in kept for match in matches]


class TestCandidateIndex:
    """The lists H3 reads (the first ``K`` of a ``csr_row``) and the
    membership H4 tests, over the two indices."""

    def test_value_candidates_top_k(self):
        indices = build_indices(
            ["red zebra"], ["red a", "red b", "red c", "red d"]
        )
        assert len(csr_candidate_lists(*indices, "a0", 1, 2).value) == 2

    def test_k_validation(self):
        with pytest.raises(ValueError):
            MinoanERConfig(top_k_candidates=0)

    def test_entity_without_candidates(self):
        indices = build_indices(["unique1"], ["unique2"])
        assert csr_candidate_lists(*indices, "a0", 1, 3) == CandidateLists()

    def test_of_entity2_direction(self):
        indices = build_indices(["red zebra"], ["red dot"])
        assert "a0" in csr_candidate_lists(*indices, "b0", 2, 3).value

    def test_mutually_listed_symmetric_requirement(self):
        indices = build_indices(["red zebra"], ["red dot"])
        assert reciprocal(indices, [("a0", "b0")]) == [True]
        assert reciprocal(indices, []) == []

    def test_not_mutually_listed_when_out_of_top_k(self):
        # a0 shares only the frequent token with b5, but b5's list is
        # dominated by better candidates... simulate via k=1
        indices = build_indices(
            ["red zebra", "red zebra stripes"], ["red zebra stripes extra"]
        )
        # b0's single slot goes to a1 (more shared tokens)
        pairs = [("a0", "b0"), ("a1", "b0")]
        assert reciprocal(indices, pairs, k=1) == [False, True]


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
            for side in (1, 2):
                for position in range(10):  # 9 is in neither index
                    uri = _uri(side, position)
                    lists = csr_candidate_lists(
                        value_index, published, uri, side, k
                    )
                    assert lists == candidate_lists_by_uri(
                        value_index, neighbor_index, uri, side, k, restrict
                    )


def _ranked_row(index, side: int, uri: str, k: int | None = None):
    if side == 1:
        return index.candidates_of_entity1(uri, k)
    return candidates_of_entity2(index, uri, k)


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
    for uri1 in ctx.kb1.uris():
        lists = csr_candidate_lists(value_index, published, uri1, 1, k)
        assert lists.neighbor == tuple(
            uri2 for uri2, _ in published.candidates_of_entity1(uri1, k)
        )


def test_published_state_answers_first_reads_without_building(
    monkeypatch, tmp_path
):
    """A publish ranks nothing: not over a loaded snapshot, whose replay
    reads no row, and not after a delta, whose matching ranks only the
    side-1 rows H2 and H3 read.  A generation's first read of H4's bars
    ranks side 2 of both indices to K, once; no other read ranks a side
    (a side-1 row no ranking answers is ranked alone)."""
    kb1, kb2 = _golden_kbs()
    saved = MatchSession(kb1, kb2).save(tmp_path / "snap")
    matcher = IncrementalMatcher(MatchSession.load(saved))
    rankings = _recorded_rankings(monkeypatch)
    states, indices = [], []
    for delta in (False, True):
        if delta:
            matcher.remove_entities("kb1", sorted(kb1.uris())[:2])
        matcher.match()
        ctx = matcher.last_context
        indices.append((ctx.get("value_index"), ctx.get("neighbor_index")))
        matched = len(rankings)
        states.append(
            ServingState.from_matcher(
                matcher, generation=1 + delta, delta_count=int(delta)
            )
        )
        assert len(rankings) == matched  # the publish ranked nothing
    k = matcher.config.top_k_candidates

    def ranked(index) -> list:
        return [
            (side, depth, rows)
            for of, side, depth, rows in rankings
            if of is index
        ]

    # the replayed snapshot ranked nothing; the delta's matching ranked
    # some side-1 rows of each index, to K
    for index in indices[0]:
        assert ranked(index) == []
    for index in indices[1]:
        ((side, depth, read),) = ranked(index)
        assert (side, depth) == (1, k)
        assert 0 < len(read) < len(index.interners()[0])
    assert len(rankings) == 2
    rankings.clear()
    for state, (value_index, neighbor_index) in zip(states, indices):
        for match in state.matches[:20]:
            assert handle_candidates(state, match.uri1, None)["match"]
            record = entity_to_dict(kb1.get(match.uri1))
            record["uri"] = "urn:query:" + match.uri1
            handle_resolve(state, {"record": record})
        # the first H4 bar read ranked side 2 of both indices; the
        # probes, the other resolves and later bar reads ranked nothing
        assert rankings == [
            (value_index, 2, k, None),
            (neighbor_index, 2, k, None),
        ]
        rankings.clear()


def test_racing_first_h4_reads_rank_side_2_once(monkeypatch):
    """Four threads reading a fresh generation's H4 bars at once, each
    ranking slowed so that every thread misses the memo before any
    ranks, under a 1 µs switch interval: side 2 of each index is ranked
    once, to K, and every thread reads the bars of a resolver whose
    sides were all ranked before its first read."""
    kb1, kb2 = _golden_kbs()
    known1 = frozenset(kb1.uris())
    uris2 = sorted(kb2.uris())[:40]
    eager = OnlineResolver.from_context(
        MatchSession(kb1, kb2).run_context(), known1
    )
    k = eager._config.top_k_candidates
    for index in (eager._value_index, eager._neighbor_index):
        index.rank(1, k)
        index.rank(2, k)
    expected = [eager._h4_bars(uri2, k) for uri2 in uris2]
    assert any(bar is not None for bars in expected for bar in bars)
    real = similarity_module.ranked_side

    def slow(*args, **kwargs):
        time.sleep(0.01)
        return real(*args, **kwargs)

    monkeypatch.setattr(similarity_module, "ranked_side", slow)
    rankings = _recorded_rankings(monkeypatch)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            ctx = MatchSession(kb1, kb2).run_context()
            resolver = OnlineResolver.from_context(ctx, known1)
            rankings.clear()  # the match's own side-1 rows
            start = threading.Barrier(4)
            answers: list = [None] * 4

            def read(slot):
                start.wait(timeout=10)
                order = uris2[slot * 10 :] + uris2[: slot * 10]
                bars = {uri2: resolver._h4_bars(uri2, k) for uri2 in order}
                answers[slot] = [bars[uri2] for uri2 in uris2]

            threads = [
                threading.Thread(target=read, args=(slot,))
                for slot in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
            assert sorted(
                (type(index).__name__, side, depth, rows)
                for index, side, depth, rows in rankings
            ) == [
                ("NeighborSimilarityIndex", 2, k, None),
                ("ValueSimilarityIndex", 2, k, None),
            ]
            assert answers == [expected] * 4
    finally:
        sys.setswitchinterval(interval)


def test_lazily_ranked_state_answers_as_an_eagerly_ranked_one(tmp_path):
    """A generation booted from a snapshot, whose reads rank what they
    read, answers 300 never-seen resolves and a probe of every KB1
    entity, at k = 3 and 5, to the same digest as a generation whose
    four index sides were all ranked to K before its first read."""
    data = generate_benchmark("rexa_dblp", 0.2, 13)
    session = MatchSession(data.kb1, data.kb2)
    saved = session.save(tmp_path / "snap")
    eager_matcher = IncrementalMatcher(session)
    eager_matcher.match()
    ctx = eager_matcher.last_context
    k = ctx.config.top_k_candidates
    for name in ("value_index", "neighbor_index"):
        ctx.get(name).rank(1, k)
        ctx.get(name).rank(2, k)
    lazy_matcher = IncrementalMatcher.from_snapshot(saved)
    lazy_matcher.match()
    lazy_ctx = lazy_matcher.last_context
    states = [
        ServingState.from_matcher(matcher, generation=1, delta_count=0)
        for matcher in (eager_matcher, lazy_matcher)
    ]
    for name in ("value_index", "neighbor_index"):
        assert lazy_ctx.get(name)._ranked == [None, None]
    records = [query.record for query in query_stream(data, 300, seed=13)]
    uris1 = sorted(data.kb1.uris())

    def digest(state) -> str:
        answers = [
            [state.resolve(record, k).as_dict() for record in records]
            + [state.probe(uri1, k).as_dict() for uri1 in uris1]
            for k in (3, 5)
        ]
        rendered = json.dumps(answers, sort_keys=True).encode("utf-8")
        return hashlib.sha256(rendered).hexdigest()

    eager, lazy = map(digest, states)
    assert lazy == eager
    assert any(
        states[1].resolve(record, 5).match is not None for record in records
    )
    for name in ("value_index", "neighbor_index"):
        side1, side2 = lazy_ctx.get(name)._ranked
        assert side1 is None and side2.depth == k


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
    resolver = session._reads()
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
