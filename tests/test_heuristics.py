"""Unit tests for the four matching heuristics H1-H4."""

import sys
import threading
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    cooccurring_neighbor_index,
    h2_matches_by_uri,
    h3_matches_by_uri,
    h4_filter_by_uri,
    index_of_pairs,
)

from repro.blocking import (
    name_blocking,
    names_from_attributes,
    token_blocking,
)
from repro.core import (
    Match,
    MatchedRegistry,
    h1_name_matches,
    h2_value_matches,
    h3_rank_aggregation_matches,
    h4_reciprocity_filter,
)
from repro.core import similarity as similarity_module
from repro.core.heuristics import _value_row
from repro.core.neighbors import NeighborSimilarityIndex
from repro.core.similarity import ValueSimilarityIndex
from repro.datasets import generate_benchmark
from repro.engine import build_neighbor_index, build_value_index
from repro.kb import KnowledgeBase
from repro.obs import Telemetry, activate
from repro.pipeline import MatchSession


def kb_with(name, rows, prefix):
    """rows: list of (name_value, other_text)."""
    kb = KnowledgeBase(name)
    for index, (label, text) in enumerate(rows):
        entity = kb.new_entity(f"{prefix}{index}")
        entity.add_literal("name", label)
        if text:
            entity.add_literal("info", text)
    return kb


class TestH1:
    def test_unique_shared_name_matches(self):
        kb1 = kb_with("A", [("blue note", "")], "a")
        kb2 = kb_with("B", [("Blue Note!", "")], "b")
        blocks = name_blocking(
            kb1, kb2, names_from_attributes(["name"]), names_from_attributes(["name"])
        )
        registry = MatchedRegistry()
        matches = h1_name_matches(blocks, registry)
        assert [m.pair() for m in matches] == [("a0", "b0")]
        assert matches[0].heuristic == "H1"

    def test_ambiguous_name_skipped(self):
        kb1 = kb_with("A", [("dup", ""), ("dup", "")], "a")
        kb2 = kb_with("B", [("dup", "")], "b")
        blocks = name_blocking(
            kb1, kb2, names_from_attributes(["name"]), names_from_attributes(["name"])
        )
        assert h1_name_matches(blocks, MatchedRegistry()) == []

    def test_already_matched_entity_skipped(self):
        kb1 = kb_with("A", [("n one", "")], "a")
        kb2 = kb_with("B", [("n one", "")], "b")
        blocks = name_blocking(
            kb1, kb2, names_from_attributes(["name"]), names_from_attributes(["name"])
        )
        registry = MatchedRegistry()
        registry.mark("a0", "bX")
        assert h1_name_matches(blocks, registry) == []

    def test_entity_with_two_unique_names_matches_once(self):
        kb1 = KnowledgeBase("A")
        entity = kb1.new_entity("a0")
        entity.add_literal("name", "first alias")
        entity.add_literal("name", "second alias")
        kb2 = kb_with("B", [("first alias", ""), ("second alias", "")], "b")
        blocks = name_blocking(
            kb1, kb2, names_from_attributes(["name"]), names_from_attributes(["name"])
        )
        matches = h1_name_matches(blocks, MatchedRegistry())
        assert len(matches) == 1


class TestH2:
    def build(self, texts1, texts2):
        kb1 = kb_with("A", [("", t) for t in texts1], "a")
        kb2 = kb_with("B", [("", t) for t in texts2], "b")
        return kb1, kb2, build_value_index(token_blocking(kb1, kb2))

    def test_unique_shared_token_fires(self):
        kb1, _, index = self.build(["zebra stripe"], ["zebra dot"])
        registry = MatchedRegistry()
        matches = h2_value_matches(kb1.uris(), index, registry, 3)
        assert [m.pair() for m in matches] == [("a0", "b0")]
        assert matches[0].score >= 1.0

    def test_below_threshold_does_not_fire(self):
        # token shared by many entities on each side -> low weight
        kb1, _, index = self.build(["common x1", "common x2", "common x3"],
                                   ["common y1", "common y2", "common y3"])
        matches = h2_value_matches(["a0"], index, MatchedRegistry(), 3)
        assert matches == []

    def test_matched_e2_excluded(self):
        kb1, _, index = self.build(
            ["zebra uniq1", "zebra uniq2"], ["zebra uniq1 uniq2"]
        )
        registry = MatchedRegistry()
        first = h2_value_matches(kb1.uris(), index, registry, 3)
        # both a0 and a1 reach vmax >= 1 against b0 (a shared unique
        # token each), but only one of them can take it
        assert len(first) == 1

    def test_matched_e1_skipped(self):
        kb1, _, index = self.build(["zebra a"], ["zebra c"])
        registry = MatchedRegistry()
        registry.mark("a0", "bZ")
        assert h2_value_matches(kb1.uris(), index, registry, 3) == []


class TestH3:
    def match(self, texts1, texts2, registry):
        kb1 = kb_with("A", [("", t) for t in texts1], "a")
        kb2 = kb_with("B", [("", t) for t in texts2], "b")
        value_index = build_value_index(token_blocking(kb1, kb2))
        neighbor_index = build_neighbor_index(value_index, {}, {})
        return h3_rank_aggregation_matches(
            kb1.uris(),
            value_index,
            neighbor_index,
            registry,
            k=5,
            theta=0.6,
            cooccurring=False,
        )

    def test_top_value_candidate_matched(self):
        matches = self.match(
            ["red zebra"], ["red", "red zebra"], MatchedRegistry()
        )
        assert [m.pair() for m in matches] == [("a0", "b1")]
        assert matches[0].heuristic == "H3"

    def test_no_candidates_no_match(self):
        assert self.match(["solo"], ["other"], MatchedRegistry()) == []

    def test_matched_candidates_filtered(self):
        registry = MatchedRegistry()
        registry.mark("aX", "b0")  # best candidate already taken
        matches = self.match(["red zebra"], ["red zebra", "red"], registry)
        assert [m.pair() for m in matches] == [("a0", "b1")]


class TestH4:
    def test_keeps_reciprocal(self):
        kb1 = kb_with("A", [("", "zebra x")], "a")
        kb2 = kb_with("B", [("", "zebra y")], "b")
        value_index = build_value_index(token_blocking(kb1, kb2))
        neighbor_index = build_neighbor_index(value_index, {}, {})
        kept, discarded = h4_reciprocity_filter(
            [Match("a0", "b0", "H2", 1.0)], value_index, neighbor_index, 3
        )
        assert len(kept) == 1 and discarded == []

    def test_discards_non_reciprocal(self):
        kb1 = kb_with("A", [("", "zebra x")], "a")
        kb2 = kb_with("B", [("", "unrelated")], "b")
        value_index = build_value_index(token_blocking(kb1, kb2))
        neighbor_index = build_neighbor_index(value_index, {}, {})
        kept, discarded = h4_reciprocity_filter(
            [Match("a0", "b0", "H1", 1.0)], value_index, neighbor_index, 3
        )
        assert kept == [] and len(discarded) == 1


# ----------------------------------------------------------------------
# H4 counts ranks: the URI-list H4 it replaced is the oracle
# ----------------------------------------------------------------------
#: Few distinct scores and both zeros, so rows are full of ties.
_sims = st.sampled_from([-0.0, 0.0, 0.25, 0.5, 0.5000000000000001, 1.0])
#: The value index sees entities 0..5 of each KB, the neighbor index
#: 2..8, and 9 is in neither: the two intern different URIs.
_value_pairs = st.dictionaries(
    st.tuples(st.integers(0, 5), st.integers(0, 5)), _sims, max_size=20
)
_neighbor_pairs = st.dictionaries(
    st.tuples(st.integers(2, 8), st.integers(2, 8)), _sims, max_size=30
)
_match_pairs = st.lists(
    st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=12
)


def _uri(side: int, position: int) -> str:
    return f"urn:kb{side}:e{position}"


def _index(cls, id_pairs: dict):
    return index_of_pairs(
        {(_uri(1, a), _uri(2, b)): sim for (a, b), sim in id_pairs.items()},
        cls,
    )


@given(_value_pairs, _neighbor_pairs, _match_pairs, st.integers(1, 4))
# each index lists one match; the third pairs URIs each index half lacks
@example(
    {(0, 0): 1.0},
    {(7, 7): 1.0},
    [(0, 0), (7, 7), (0, 7), (9, 9)],
    1,
)
# listed on side 1 by value only, on side 2 by neighbor only
@example(
    {(3, 3): 0.25, (3, 4): 0.5, (4, 3): 1.0},
    {(3, 3): 1.0},
    [(3, 3)],
    1,
)
def test_h4_equals_the_uri_list_oracle(value_pairs, neighbor_pairs, pairs, k):
    """``(kept, discarded)`` equal the URI-list H4's, in order, for
    repeated pairs, pairs no index holds and URIs one index lacks."""
    value_index = _index(ValueSimilarityIndex, value_pairs)
    neighbor_index = _index(NeighborSimilarityIndex, neighbor_pairs)
    matches = [Match(_uri(1, a), _uri(2, b), "H2", 1.0) for a, b in pairs]
    assert h4_reciprocity_filter(
        matches, value_index, neighbor_index, k
    ) == h4_filter_by_uri(matches, value_index, neighbor_index, k)


def test_h4_of_a_batch_match_equals_the_uri_list_oracle():
    """On a generated KB pair whose two indices intern different KB2
    URIs, the matching stage's H4 keeps and discards what the URI-list
    H4 does — matches whose URI one index lacks included."""
    data = generate_benchmark("rexa_dblp", 0.3, 13)
    ctx = MatchSession(data.kb1, data.kb2).run_context()
    value_index = ctx.get("value_index")
    neighbor_index = ctx.get("neighbor_index")
    matches = ctx.get("pre_h4_matches")
    assert len(neighbor_index.interners()[1]) < len(value_index.interners()[1])
    assert any(m.uri2 not in neighbor_index.interners()[1] for m in matches)
    assert ctx.get("discarded_by_h4")
    assert (ctx.get("matches"), ctx.get("discarded_by_h4")) == h4_filter_by_uri(
        matches, value_index, neighbor_index, ctx.config.top_k_candidates
    )


# ----------------------------------------------------------------------
# H2 and H3 decide on id rows: the URI rungs they replaced are the oracle
# ----------------------------------------------------------------------
_taken = st.sets(st.integers(0, 9), max_size=4)


@settings(deadline=None)
@given(
    value_pairs=_value_pairs,
    neighbor_pairs=_neighbor_pairs,
    taken1=_taken,
    taken2=_taken,
    k=st.integers(1, 4),
    theta=st.sampled_from([0.5, 0.6]),
    restrict=st.booleans(),
    h2_first=st.booleans(),
)
# θ = 0.5 over value list [e3, e4] and neighbor list [e4, e3]: both
# aggregate to 0.75 and e3, the smaller URI, wins in either mode; under
# the journal H3, the neighbor-only e6 ties the value-only e5 of e3 and
# loses to it
@example(
    value_pairs={(2, 3): 0.5, (2, 4): 0.25, (3, 5): 0.5},
    neighbor_pairs={(2, 4): 1.0, (2, 3): 0.25, (3, 6): 1.0},
    taken1=set(),
    taken2=set(),
    k=2,
    theta=0.5,
    restrict=False,
    h2_first=False,
)
@example(
    value_pairs={(2, 3): 0.5, (2, 4): 0.25},
    neighbor_pairs={(2, 4): 1.0, (2, 3): 0.25},
    taken1=set(),
    taken2=set(),
    k=2,
    theta=0.5,
    restrict=True,
    h2_first=False,
)
# H2 walks past a depth cut whose every candidate is taken
@example(
    value_pairs={(0, j): 1.0 + j for j in range(5)},
    neighbor_pairs={},
    taken1=set(),
    taken2={4, 3},
    k=2,
    theta=0.6,
    restrict=True,
    h2_first=True,
)
def test_id_rungs_equal_the_uri_rungs(
    value_pairs, neighbor_pairs, taken1, taken2, k, theta, restrict, h2_first
):
    """The batch H2 and H3 decide what the URI rungs decide — matches,
    scores and the registry they leave — over rows ranked to ``k`` as
    the matching stage ranks them, with KB1 and KB2 entities already
    taken, aggregate ties across the value and neighbor lists, and, under
    the journal H3, neighbor candidates no value row holds."""
    value_index = _index(ValueSimilarityIndex, value_pairs)
    full = _index(NeighborSimilarityIndex, neighbor_pairs)
    published = (
        cooccurring_neighbor_index(value_index, full) if restrict else full
    )
    uris1 = [_uri(1, position) for position in range(10)]
    registries = [MatchedRegistry(), MatchedRegistry()]
    for registry in registries:
        registry.matched1 |= {_uri(1, p) for p in taken1}
        registry.matched2 |= {_uri(2, p) for p in taken2}
    got, expected = [], []
    if h2_first:
        value_index.rank(1, k, uris1)
        got += h2_value_matches(uris1, value_index, registries[0], k)
        expected += h2_matches_by_uri(uris1, value_index, registries[1])
    for index in (value_index, published):
        index.rank(1, k, uris1)
    got += h3_rank_aggregation_matches(
        uris1,
        value_index,
        published,
        registries[0],
        k=k,
        theta=theta,
        cooccurring=restrict,
    )
    expected += h3_matches_by_uri(
        uris1, value_index, full, k, theta, registries[1], restrict
    )
    assert got == expected
    assert vars(registries[0]) == vars(registries[1])


# ----------------------------------------------------------------------
# Ranking only the side-1 rows a heuristic reads
# ----------------------------------------------------------------------
def _whole_row(index, uri: str):
    """``uri``'s whole side-1 row, from a fresh index ranked whole."""
    whole = type(index).from_packed_columns(
        *index.packed_columns(), *index.interners()
    )
    return whole.csr_row(1, uri)


def _assert_covered_rows_are_prefixes(index, covered: set, depth):
    """The side-1 ranking covers exactly ``covered`` (ids), each row the
    whole row's first ``depth`` — ids ``==``, similarity bytes ``==``."""
    ranked = index._ranked[0]
    assert ranked.depth == depth
    uris = index.interners()[0].uris()
    assert {i for i in range(len(uris)) if ranked.covers(i)} == covered
    for entity_id in covered:
        ids, sims = _whole_row(index, uris[entity_id])
        lo, hi = ranked.starts[entity_id], ranked.starts[entity_id + 1]
        assert list(ranked.cols[lo:hi]) == list(ids[:depth])
        assert ranked.sims[lo:hi].tobytes() == sims[:depth].tobytes()
        assert ranked.lengths[entity_id] == len(ids)


_rank_calls = st.lists(
    st.tuples(
        st.one_of(st.none(), st.sets(st.integers(0, 6), max_size=5)),
        st.one_of(st.none(), st.integers(1, 4)),
    ),
    min_size=1,
    max_size=4,
)


@given(_value_pairs, _rank_calls)
@example({(0, j): 1.0 - j / 8 for j in range(6)}, [({0}, 2), ({1, 2}, 1)])
@example({(0, 0): 0.5, (1, 0): -0.0}, [({1}, 1), (None, 1)])
@example({(0, 0): 0.5, (1, 2): 0.25}, [({0}, 1), ({1}, None), ({6}, 3)])
@example({}, [({0, 1}, 2)])
def test_partial_rankings_widen_and_hold_whole_row_prefixes(pairs, calls):
    """Each ``rank(1, depth, rows)`` leaves every row ranked so far, or
    asked for, ranked to the deepest depth asked — never fewer rows,
    never shallower — and a covered row is the whole row's prefix.
    Rows the index never saw (position 6) are skipped."""
    index = _index(ValueSimilarityIndex, pairs)
    ids = index.interners()[0].ids_by_uri()
    covered: set = set()
    depths = []
    for positions, depth in calls:
        uris = None if positions is None else [_uri(1, p) for p in positions]
        index.rank(1, depth, uris)
        if uris is None:
            covered = set(ids.values())
        else:
            covered |= {ids[uri] for uri in uris if uri in ids}
        depths.append(depth)
        deepest = None if None in depths else max(depths)
        _assert_covered_rows_are_prefixes(index, covered, deepest)


def test_an_uncovered_read_ranks_that_row_alone():
    """A read of a side-1 row the ranking left out answers the whole
    row's prefix without ranking the side: no span opens and the
    ranking stays the same object."""
    pairs = {(0, j): 1.0 - j / 8 for j in range(6)}
    pairs.update({(1, j): 0.5 for j in range(4)})
    index = _index(ValueSimilarityIndex, pairs)
    row1 = _uri(1, 1)
    ids, sims = _whole_row(index, row1)
    telemetry = Telemetry.create()
    with activate(telemetry):
        index.rank(1, 2, [_uri(1, 0)])
        ranked = index._ranked[0]
        for k in (1, 2, 3, None):
            got = index.csr_row(1, row1, k)
            assert list(got[0]) == list(ids[:k])
            assert got[1].tobytes() == sims[:k].tobytes()
        # H2's walk of the row, past a cut at 2 (read whole, alone)
        assert list(_value_row(index, row1, 2)) == list(zip(ids, sims))
        assert index.candidates_of_entity1(_uri(1, 0), 2) == [
            (_uri(2, 0), 1.0),
            (_uri(2, 1), 0.875),
        ]
    assert index._ranked[0] is ranked
    assert index._ranked[1] is None
    assert [
        record.args
        for record in telemetry.tracer.records()
        if record.name == "similarity.ranked_rows"
    ] == [{"side": 1, "depth": 2, "rows": 1, "groups": 1}]
    counters = telemetry.metrics.counters()
    assert "similarity.whole_side_fallbacks" not in counters


def test_racing_rank_calls_never_narrow_coverage(monkeypatch):
    """Four threads ranking different rows of a fresh index, each
    ranking slowed so all read the empty state before any publishes,
    under a 1 µs switch interval: the ranking ends up covering every
    thread's rows."""
    pairs = {(a, b): (a + b) % 3 / 2 for a in range(8) for b in range(5)}
    real = similarity_module.ranked_side

    def slow(*args, **kwargs):
        time.sleep(0.01)
        return real(*args, **kwargs)

    monkeypatch.setattr(similarity_module, "ranked_side", slow)
    subsets = ((0, 1, 2), (3, 4), (5,), (6, 7, 1))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            index = _index(ValueSimilarityIndex, pairs)
            start = threading.Barrier(len(subsets))

            def rank(positions):
                start.wait(timeout=10)
                index.rank(1, 2, [_uri(1, p) for p in positions])

            threads = [
                threading.Thread(target=rank, args=(rows,)) for rows in subsets
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
                assert not thread.is_alive()
            _assert_covered_rows_are_prefixes(index, set(range(8)), 2)
    finally:
        sys.setswitchinterval(interval)


def test_rank_by_subset_is_side_1_only():
    index = _index(ValueSimilarityIndex, {(0, 0): 1.0})
    with pytest.raises(ValueError):
        index.rank(2, 1, [_uri(2, 0)])


class TestMatchedRegistry:
    def test_mark_and_is_free(self):
        registry = MatchedRegistry()
        assert registry.is_free("a", "b")
        registry.mark("a", "b")
        assert not registry.is_free("a", "x")
        assert not registry.is_free("y", "b")
        assert registry.is_free("y", "x")
