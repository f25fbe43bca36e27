"""Tests for the online resolution fast path (repro.core.resolve).

Covers the parity contract (a record byte-identical to an existing KB1
entity resolves exactly like the precomputed probe path, across
serial/thread/process engines and the NumPy/stdlib kernels), the
batch-equals-sequential property, resolved rows against the
string-keyed reference in ``tests/oracles.py``, generation isolation of
the serving path, the ``query_stream`` held-out record generator,
repeated reads answering equal, the ServeClient failure taxonomy, and the
``POST /resolve`` and ``POST /resolve_batch`` endpoints end to end.
"""

import socket
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.blocking import PackedBlockCollection
from repro.core import MinoanERConfig, aggregate_scores
from repro.core.resolve import OnlineResolver, _held_bytes
from repro.datasets import (
    generate,
    generate_benchmark,
    load_profile,
    query_stream,
)
from repro.ids import arrays
from repro.incremental import IncrementalMatcher
from repro.kb.entity import EntityDescription, UriRef
from repro.kb.io_ntriples import read_ntriples
from repro.kb.tokenizer import Tokenizer
from repro.pipeline import MatchSession
from repro.pipeline.digest import artifact_digest
from repro.serve import (
    ResolutionDaemon,
    ServeClient,
    ServeClientError,
    ServingState,
    build_server,
)
from repro.serve.json_codec import entity_to_dict

from oracles import (
    block_span_by_bisect,
    h1_match_by_kb_walk,
    h1_names_by_kb_walk,
    ranked_by_uri,
    resolve_decision_by_uri,
    resolve_rows_by_uri,
    resolve_scores_by_uri,
)
from test_pipeline import make_pair

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture()
def served(tmp_path):
    """A live daemon + client over the make_pair KBs."""
    kb1, kb2 = make_pair()
    session = MatchSession(kb1, kb2)
    session.match()
    snapshot_dir = session.save(tmp_path / "seed")
    daemon = ResolutionDaemon.from_snapshot(
        snapshot_dir, snapshot_dir=tmp_path / "snaps"
    )
    server = build_server(daemon, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    client = ServeClient(f"http://127.0.0.1:{server.server_address[1]}")
    try:
        yield daemon, client
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def clone_record(entity, uri):
    """The entity's exact pairs under a fresh (never-seen) URI."""
    return EntityDescription(uri, entity.pairs)


# ----------------------------------------------------------------------
# Parity with the precomputed probe path
# ----------------------------------------------------------------------
class TestKnownRecordParity:
    @pytest.mark.parametrize("engine", ["serial", "thread", "process"])
    def test_known_uri_equals_probe_across_engines(
        self, engine, numpy_arm
    ):
        kb1, kb2 = make_pair()
        session = MatchSession(kb1, kb2, MinoanERConfig(engine=engine))
        session.match()
        for uri in kb1.uris():
            resolved = session.resolve(kb1[uri])
            probed = session.probe(uri)
            assert resolved.known is True
            assert resolved.as_dict() == probed.as_dict()

    def test_golden_fixture_digest_parity(self, numpy_arm):
        """Resolve on a golden KB1 record is digest-identical to probe."""
        kb1 = read_ntriples(GOLDEN / "kb1.nt", name="golden1")
        kb2 = read_ntriples(GOLDEN / "kb2.nt", name="golden2")
        session = MatchSession(kb1, kb2)
        session.match()
        for uri in sorted(kb1.uris())[:25]:
            resolved = session.resolve(kb1[uri])
            probed = session.probe(uri)
            assert artifact_digest(resolved.as_dict()) == artifact_digest(
                probed.as_dict()
            )

    def test_unknown_clone_matches_original_counterpart(self, numpy_arm):
        """A never-seen copy of a KB1 entity finds the same KB2 match."""
        kb1, kb2 = make_pair()
        session = MatchSession(kb1, kb2)
        session.match()
        for uri1, uri2 in [("a1", "b1"), ("a2", "b2")]:
            record = clone_record(kb1[uri1], f"urn:q:{uri1}")
            result = session.resolve(record)
            assert result.known is False
            assert result.match is not None
            assert result.match.uri1 == record.uri
            assert result.match.uri2 == uri2

    def test_resolve_validates_k(self):
        kb1, kb2 = make_pair()
        session = MatchSession(kb1, kb2)
        session.match()
        with pytest.raises(ValueError):
            session.resolve(kb1["a0"], k=0)
        with pytest.raises(ValueError):
            session.resolve_batch([kb1["a0"]], k=-1)


# ----------------------------------------------------------------------
# Batch == sequential (hypothesis property)
# ----------------------------------------------------------------------
_WORDS = [
    "unique", "venue", "first", "label", "zanzibar", "festival",
    "shared", "third", "thing", "mild", "parade", "calm", "other",
    "different", "name", "qqq", "zzz",
]
_literals = st.lists(
    st.sampled_from(_WORDS), min_size=1, max_size=4
).map(" ".join)
_pairs = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["name", "info", "notes"]), _literals),
        st.tuples(
            st.just("linked"),
            st.sampled_from(["a0", "a1", "a2", "urn:none"]).map(UriRef),
        ),
    ),
    min_size=1,
    max_size=4,
)
_records = st.lists(
    st.builds(
        lambda index, pairs: EntityDescription(f"urn:h:{index}", pairs),
        st.integers(min_value=0, max_value=99),
        _pairs,
    ),
    min_size=1,
    max_size=6,
)


@pytest.fixture(scope="module")
def pair_resolver():
    """An OnlineResolver over the make_pair KBs (no session cache)."""
    kb1, kb2 = make_pair()
    session = MatchSession(kb1, kb2)
    session.match()
    return session._reads()


def _query(index, *pairs):
    return EntityDescription(f"urn:h:{index}", list(pairs))


class TestBatchEqualsSequential:
    @given(records=_records, k=st.one_of(st.none(), st.integers(1, 5)))
    @example(records=[_query(0, ("linked", UriRef("a1")))], k=1)  # no token
    @example(records=[_query(0, ("name", "qqq zzz"))], k=None)  # no span
    # every word: each shared block row, the heaviest gather of the KBs
    @example(records=[_query(0, ("name", " ".join(_WORDS)))], k=5)
    # five tokenless records and a one-id one: the batch's 6 x 3 slab
    # exceeds 16 slots per gathered id, so it takes the sort arm
    @example(
        records=[_query(i, ("notes", "zzz")) for i in range(5)]
        + [_query(5, ("name", "unique"))],
        k=2,
    )
    # a KB1 URI among never-seen records: probed, the rest gathered
    @example(
        records=[
            _query(0, ("name", "zanzibar mild")),
            EntityDescription("a1", [("name", "first label")]),
            _query(1, ("info", "shared calm"), ("linked", UriRef("a0"))),
        ],
        k=3,
    )
    def test_property(self, pair_resolver, records, k):
        batch = pair_resolver.resolve_batch(records, k)
        single = [pair_resolver.resolve(record, k) for record in records]
        assert [r.as_dict() for r in batch] == [r.as_dict() for r in single]

    def test_mixed_known_and_unknown_preserves_order(self, pair_resolver):
        kb1, _ = make_pair()
        records = [
            clone_record(kb1["a1"], "urn:q:x"),
            kb1["a0"],
            EntityDescription("urn:q:empty", [("name", "nothing here")]),
            kb1["a2"],
        ]
        batch = pair_resolver.resolve_batch(records)
        assert [r.uri for r in batch] == [r.uri for r in records]
        assert [r.known for r in batch] == [False, True, False, True]
        single = [pair_resolver.resolve(record) for record in records]
        assert [r.as_dict() for r in batch] == [r.as_dict() for r in single]

    def test_empty_batch(self, pair_resolver):
        assert pair_resolver.resolve_batch([]) == []


# ----------------------------------------------------------------------
# Resolved rows == the string-keyed reference (differential oracle)
# ----------------------------------------------------------------------
#: Vocabulary of the oracle records: the heaviest token blocks first,
#: then a spread of the others, then two tokens no block carries.
_HEAVY, _SPREAD, _TARGETS = 8, 14, 11
_VOCABULARY = _HEAVY + _SPREAD + 2
#: A record spec: (token indices, (relation index, target index) links).
_specs = st.lists(
    st.tuples(
        st.lists(st.integers(0, _VOCABULARY - 1), max_size=6),
        st.lists(
            st.tuples(st.integers(0, 2), st.integers(0, _TARGETS)),
            max_size=3,
        ),
    ),
    min_size=1,
    max_size=4,
)


@pytest.fixture(scope="module")
def oracle_kbs():
    """Restaurant KBs (blocks of up to 6,720 comparisons, an
    ``address`` top relation) and what the oracle records draw from."""
    data = generate_benchmark("restaurant", 1.0, 5)
    ctx = MatchSession(data.kb1, data.kb2).run_context()
    blocks = sorted(
        ctx.get("token_blocks"), key=lambda b: (-b.cardinality(), b.key)
    )
    rest = blocks[_HEAVY:]
    vocabulary = [b.key for b in blocks[:_HEAVY]]
    vocabulary += [b.key for b in rest[:: len(rest) // _SPREAD]][:_SPREAD]
    vocabulary += ["qqzzv", "vvzzq"]
    relations = ["address", "~address", "notes"]
    assert set(ctx.get("top_relations1")) >= {"address", "~address"}
    targets = sorted(
        {
            target
            for entity in data.kb1
            for relation, target in entity.relation_pairs()
            if relation == "address"
        }
    )[:_TARGETS] + ["urn:none"]
    assert len(vocabulary) == _VOCABULARY and len(targets) == _TARGETS + 1
    return data, ctx, vocabulary, relations, targets


@pytest.fixture(scope="module")
def oracle_decisions(oracle_kbs):
    """Per ``restrict_h3_to_cooccurring``, the oracle KBs' context, and
    H1's tables re-keyed from both KBs."""
    data, ctx, *_ = oracle_kbs
    unrestricted = MinoanERConfig(restrict_h3_to_cooccurring=False)
    contexts = {
        True: ctx,
        False: MatchSession(data.kb1, data.kb2, unrestricted).run_context(),
    }
    names = h1_names_by_kb_walk(
        data.kb1,
        data.kb2,
        ctx.get("name_attributes1"),
        ctx.get("name_attributes2"),
    )
    return contexts, names


def oracle_records(oracle_kbs, specs):
    """The never-seen records ``specs`` describe over the oracle KBs."""
    _, _, vocabulary, relations, targets = oracle_kbs
    records = []
    for index, (tokens, links) in enumerate(specs):
        pairs = [("name", " ".join(vocabulary[t] for t in tokens))]
        pairs += [(relations[r], UriRef(targets[t])) for r, t in links]
        records.append(EntityDescription(f"urn:oracle:{index}", pairs))
    return records


#: Decision-oracle examples (restaurant 1.0, seed 5, conference H3),
#: each deciding H3 for a KB2 entity scored at the tied boundary.
_VALUE_TIE = [([5], [(0, 4)])], 3  # tie at the k-th value row
_NEIGHBOR_TIE = [([4, 11, 13], [(0, 2)])], 3  # ... co-occurring neighbor row
_MULTI_TARGET = [([1, 7, 15, 23], [(1, 10), (0, 5), (1, 1)])], 4
#: The config's K: a request's ``k`` above it reads side 2 past the
#: cut.  The first record's H3 candidate is refused by a bar past it;
#: the second's is kept.
_K = MinoanERConfig().top_k_candidates
_PAST_THE_CUT = [([0], [])] + _MULTI_TARGET[0]
#: Per H3 variant, a θ = 0.5 record whose top two H3 candidates tie, one
#: in its value list alone and one in its neighbor list alone (under the
#: journal H3 one with no value score at all); H3 decides the smaller URI.
_CROSS_TIES = {True: ([([4, 12], [(0, 1)])], 3), False: ([([2], [(1, 0)])], 3)}


@pytest.fixture(scope="module")
def tied_contexts(oracle_kbs):
    """Per ``restrict_h3_to_cooccurring``, the oracle KBs' context at
    θ = 0.5 with H3 listed first: a candidate first in one list alone
    ties one first in the other alone."""
    data = oracle_kbs[0]
    return {
        restrict: MatchSession(
            data.kb1,
            data.kb2,
            MinoanERConfig(
                theta=0.5,
                heuristics=("h3", "h2", "h4"),
                restrict_h3_to_cooccurring=restrict,
            ),
        ).run_context()
        for restrict in (True, False)
    }


class TestResolveOracle:
    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(specs=_specs, k=st.integers(1, 5))
    @example(specs=[([], [])], k=1)  # no token, no link
    @example(specs=[(list(range(_HEAVY)), [(0, 0)])], k=5)  # heavy tokens
    # multi-target: links whose merge order shows in the top row
    @example(specs=[([9], [(0, 0), (0, 3), (1, 10)]), ([], [(0, 6)])], k=1)
    def test_rows_equal_the_oracle(self, oracle_kbs, numpy_arm, specs, k):
        """Every resolved ``value`` / ``neighbor`` / ``best`` row equals
        ``tests/oracles.py::resolve_rows_by_uri`` float for float, for
        a fresh resolver (no memo carried over)."""
        data, ctx, *_ = oracle_kbs
        records = oracle_records(oracle_kbs, specs)
        resolver = OnlineResolver.from_context(ctx, frozenset(data.kb1.uris()))
        tokenizer = Tokenizer()
        for record, result in zip(records, resolver.resolve_batch(records, k)):
            assert result.known is False
            assert (result.value, result.neighbor, result.best) == (
                resolve_rows_by_uri(
                    record,
                    tokenizer,
                    ctx.get("token_blocks"),
                    ctx.get("value_index"),
                    ctx.get("top_neighbors2"),
                    ctx.get("top_relations1"),
                    k,
                )
            )

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(specs=_specs, k=st.integers(1, 5), restrict=st.booleans())
    @example(specs=_VALUE_TIE[0], k=_VALUE_TIE[1], restrict=True)
    @example(specs=_NEIGHBOR_TIE[0], k=_NEIGHBOR_TIE[1], restrict=True)
    @example(specs=_MULTI_TARGET[0], k=_MULTI_TARGET[1], restrict=True)
    @example(specs=_MULTI_TARGET[0], k=_MULTI_TARGET[1], restrict=False)
    @example(specs=_PAST_THE_CUT, k=_K + 1, restrict=True)
    @example(specs=_PAST_THE_CUT, k=_K + 1, restrict=False)
    @example(specs=_PAST_THE_CUT, k=50, restrict=True)
    @example(specs=_PAST_THE_CUT, k=50, restrict=False)
    def test_decisions_equal_the_oracle(
        self, oracle_kbs, oracle_decisions, specs, k, restrict
    ):
        """Every resolved ``match`` equals
        ``tests/oracles.py::resolve_decision_by_uri`` — the whole online
        ladder, H4 included — under both H3 variants, and for a ``k``
        above the config's K, whose H4 bars lie past the ranked cut."""
        contexts, names = oracle_decisions
        ctx = contexts[restrict]
        records = oracle_records(oracle_kbs, specs)
        resolver = OnlineResolver.from_context(
            ctx, frozenset(oracle_kbs[0].kb1.uris())
        )
        results = resolver.resolve_batch(records, k)
        assert [r.match for r in results] == [
            resolve_decision_by_uri(record, ctx, k, names) for record in records
        ]

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(specs=_specs, k=st.integers(1, 5), restrict=st.booleans())
    @example(specs=_CROSS_TIES[True][0], k=_CROSS_TIES[True][1], restrict=True)
    @example(
        specs=_CROSS_TIES[False][0], k=_CROSS_TIES[False][1], restrict=False
    )
    def test_h3_first_decisions_equal_the_oracle(
        self, oracle_kbs, tied_contexts, specs, k, restrict
    ):
        """With H3 listed first at θ = 0.5, where equal aggregate scores
        across the value and neighbor lists are common, every resolved
        ``match`` equals the URI rung's
        (``tests/oracles.py::resolve_decision_by_uri``) under both H3
        variants."""
        ctx = tied_contexts[restrict]
        records = oracle_records(oracle_kbs, specs)
        resolver = OnlineResolver.from_context(
            ctx, frozenset(oracle_kbs[0].kb1.uris())
        )
        assert [r.match for r in resolver.resolve_batch(records, k)] == [
            resolve_decision_by_uri(record, ctx, k) for record in records
        ]

    @pytest.mark.parametrize("restrict", [True, False])
    def test_cross_tie_examples_tie(self, oracle_kbs, tied_contexts, restrict):
        """Each ``_CROSS_TIES`` record still ties what it is named for,
        and resolves to H3's pick: the smaller of the two URIs."""
        ctx = tied_contexts[restrict]
        specs, k = _CROSS_TIES[restrict]
        (record,) = oracle_records(oracle_kbs, specs)
        value, neighbor = resolve_scores_by_uri(
            record,
            Tokenizer(),
            ctx.get("token_blocks"),
            ctx.get("value_index"),
            ctx.get("top_neighbors2"),
            ctx.get("top_relations1"),
        )
        if restrict:
            neighbor = {u: s for u, s in neighbor.items() if u in value}
        lists = [
            [u for u, _ in ranked_by_uri(rows)[:k]] for rows in (value, neighbor)
        ]
        scores = aggregate_scores(*lists, 0.5)
        (first, top), (second, runner_up) = sorted(
            scores.items(), key=lambda item: (-item[1], item[0])
        )[:2]
        assert top == runner_up and first < second
        # the one candidate each list holds alone
        only = [
            [u for u in (first, second) if u not in other]
            for other in lists[::-1]
        ]
        assert len(only[0]) == len(only[1]) == 1
        if not restrict:
            assert only[1][0] not in value  # a neighbor-only candidate
        resolver = OnlineResolver.from_context(
            ctx, frozenset(oracle_kbs[0].kb1.uris())
        )
        match = resolver.resolve(record, k).match
        assert (match.uri2, match.heuristic) == (first, "H3")

    def test_examples_hit_their_boundary_ties(self, oracle_kbs, oracle_decisions):
        """The decision examples above still show what they are named
        for: the decided KB2 entity scores exactly the k-th value (or
        co-occurring neighbor) score, which the (k+1)-th ties; and the
        multi-target record links three targets and decides H3."""
        contexts, names = oracle_decisions
        ctx = contexts[True]

        def scored(example):
            (record,), k = oracle_records(oracle_kbs, example[0]), example[1]
            value, neighbor = resolve_scores_by_uri(
                record,
                Tokenizer(),
                ctx.get("token_blocks"),
                ctx.get("value_index"),
                ctx.get("top_neighbors2"),
                ctx.get("top_relations1"),
            )
            match = resolve_decision_by_uri(record, ctx, k, names)
            assert match is not None and match.heuristic == "H3"
            return record, k, value, neighbor, match

        for example, row in ((_VALUE_TIE, 0), (_NEIGHBOR_TIE, 1)):
            _, k, value, neighbor, match = scored(example)
            scores = (value, {u: s for u, s in neighbor.items() if u in value})
            ranked = [score for _, score in ranked_by_uri(scores[row])]
            assert len(ranked) > k and ranked[k - 1] == ranked[k]
            assert scores[row][match.uri2] == ranked[k - 1]
        record, *_ = scored(_MULTI_TARGET)
        assert len({target for _, target in record.relation_pairs()}) == 3


# ----------------------------------------------------------------------
# A batch gathers in groups of records: the same answers as one gather
# ----------------------------------------------------------------------
#: Oracle-KB records of small gathers, one of every heavy block's ids
#: (alone above a group), and one with no token.
_GROUP_SPECS = [
    ([9, 15], [(0, 1)]),
    ([20, 3], []),
    (list(range(_HEAVY)), [(0, 0)]),
    ([12], [(1, 3)]),
    ([], []),
    ([14, 16, 18], [(0, 2), (1, 4)]),
    ([2], []),
]


def batch_gathers(oracle_kbs, monkeypatch, records, run_size, k):
    """``records`` resolved in one batch by a fresh resolver at
    ``run_size``: the answers, and per batch gather the ids it selected
    and how many records' spans it held."""
    data, ctx, *_ = oracle_kbs
    monkeypatch.setattr(arrays, "RUN_SIZE", run_size)
    gathers = []

    def traced(*args, real=arrays.gathered_candidate_sums, **kwargs):
        if len(args) == 5:  # a batch's, keyed by record
            _, starts, stops, _, bases = args
            ids = sum(stop - start for start, stop in zip(starts, stops))
            gathers.append((ids, len(set(bases))))
        return real(*args, **kwargs)

    monkeypatch.setattr("repro.core.resolve.gathered_candidate_sums", traced)
    resolver = OnlineResolver.from_context(ctx, frozenset(data.kb1.uris()))
    results = [r.as_dict() for r in resolver.resolve_batch(records, k)]
    return results, gathers


class TestBatchInRecordGroups:
    def test_groups_equal_one_gather(self, oracle_kbs, monkeypatch):
        """A group holds at most ``RUN_SIZE // 16`` ids, or one record
        that selects more alone (every heavy block's ids); the grouped
        batch answers exactly as one gather over the whole batch does,
        and as each record resolved alone."""
        data, ctx, *_ = oracle_kbs
        records = oracle_records(oracle_kbs, _GROUP_SPECS)
        resolver = OnlineResolver.from_context(ctx, frozenset(data.kb1.uris()))

        def probe(record):
            return resolver._probe_spans(record)

        selected = [
            sum(stop - start for start, stop, _ in spans)
            for spans in map(probe, records)
        ]
        budget = sorted(selected)[-2]  # every record's but the heavy one
        assert selected[2] > 2 * budget
        single = [resolver.resolve(record, 3).as_dict() for record in records]

        whole, (one,) = batch_gathers(
            oracle_kbs, monkeypatch, records, 1 << 40, 3
        )
        assert one == (sum(selected), 6)
        grouped, gathers = batch_gathers(
            oracle_kbs, monkeypatch, records, 16 * budget, 3
        )
        assert (selected[2], 1) in gathers
        assert len(gathers) >= 4
        assert all(ids <= budget or held == 1 for ids, held in gathers)
        assert sum(ids for ids, _ in gathers) == sum(selected)
        assert grouped == whole == single

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(specs=_specs, run_size=st.sampled_from([1, 16 * 64, 1 << 40]))
    def test_any_grouping_equals_single_resolves(
        self, oracle_kbs, monkeypatch, specs, run_size
    ):
        """Whatever the run size — a record per group, groups of 64
        ids, one gather — every record of a batch resolves as it does
        alone."""
        data, ctx, *_ = oracle_kbs
        records = oracle_records(oracle_kbs, specs)
        resolver = OnlineResolver.from_context(ctx, frozenset(data.kb1.uris()))
        single = [resolver.resolve(record, 2).as_dict() for record in records]
        with monkeypatch.context() as patch:
            grouped, _ = batch_gathers(oracle_kbs, patch, records, run_size, 2)
        assert grouped == single


# ----------------------------------------------------------------------
# H3's neighbor list is built only when read
# ----------------------------------------------------------------------
#: Oracle-KB records (spec, k) by what decides them under both H3
#: variants: H2; H3 for a candidate in the value list; H1 for a KB2
#: entity outside the value list.
_H2_DECIDED = ([18], []), 3
_H3_IN_VALUES = ([22, 5, 7, 14], []), 1
_H1_OUTSIDE = ([1], [(1, 6)]), 3


@pytest.fixture(scope="module")
def unfiltered_contexts(oracle_kbs):
    """Per ``restrict_h3_to_cooccurring``, the oracle KBs' context with
    H4 not listed."""
    data = oracle_kbs[0]
    return {
        restrict: MatchSession(
            data.kb1,
            data.kb2,
            MinoanERConfig(
                heuristics=("h1", "h2", "h3"),
                restrict_h3_to_cooccurring=restrict,
            ),
        ).run_context()
        for restrict in (True, False)
    }


class TestLazyNeighborList:
    @staticmethod
    def builds(oracle_kbs, ctx, monkeypatch, example):
        """Per read path (``resolve``, ``resolve_batch``), the decision
        of ``example``'s record and how many H3 neighbor lists it
        built, on a fresh resolver."""
        (record,), k = oracle_records(oracle_kbs, [example[0]]), example[1]
        resolver = OnlineResolver.from_context(
            ctx, frozenset(oracle_kbs[0].kb1.uris())
        )
        calls = []

        def spy(self, *args, real=OnlineResolver._h3_neighbors):
            calls.append(args)
            return real(self, *args)

        monkeypatch.setattr(OnlineResolver, "_h3_neighbors", spy)
        seen = []
        for read in (
            lambda: resolver.resolve(record, k),
            lambda: resolver.resolve_batch([record], k)[0],
        ):
            calls.clear()
            result = read()
            in_values = result.match is not None and result.match.uri2 in {
                uri2 for uri2, _ in result.value
            }
            seen.append((result.match, in_values, len(calls)))
        assert seen[0] == seen[1]
        return seen[0]

    @pytest.mark.parametrize("restrict", [True, False])
    def test_h2_builds_none_h3_builds_one(
        self, oracle_kbs, oracle_decisions, monkeypatch, restrict
    ):
        ctx = oracle_decisions[0][restrict]
        match, in_values, built = self.builds(
            oracle_kbs, ctx, monkeypatch, _H2_DECIDED
        )
        assert (match.heuristic, in_values, built) == ("H2", True, 0)
        match, in_values, built = self.builds(
            oracle_kbs, ctx, monkeypatch, _H3_IN_VALUES
        )
        assert (match.heuristic, in_values, built) == ("H3", True, 1)

    @pytest.mark.parametrize("restrict", [True, False])
    def test_h4_builds_one_for_a_match_outside_the_values(
        self,
        oracle_kbs,
        oracle_decisions,
        unfiltered_contexts,
        tied_contexts,
        monkeypatch,
        restrict,
    ):
        """An H1 match outside the value list builds the list only for
        H4 (without H4 it builds none); an H3 match outside it, which
        H3 ranked from the neighbor list, builds it once."""
        match, in_values, built = self.builds(
            oracle_kbs, unfiltered_contexts[restrict], monkeypatch, _H1_OUTSIDE
        )
        assert (match.heuristic, in_values, built) == ("H1", False, 0)
        _, _, built = self.builds(
            oracle_kbs, oracle_decisions[0][restrict], monkeypatch, _H1_OUTSIDE
        )
        assert built == 1
        (spec,), k = _CROSS_TIES[True]
        match, in_values, built = self.builds(
            oracle_kbs, tied_contexts[restrict], monkeypatch, (spec, k)
        )
        assert (match.heuristic, in_values, built) == ("H3", False, 1)


# ----------------------------------------------------------------------
# The resolver's memos: bounded, shared across threads, read-only
# ----------------------------------------------------------------------
#: Oracle-KB records with one link each, several links, and none, whose
#: tokens make most of them decide (so H4's bars are memoized too).
_MEMO_SPECS = (
    [([t % _HEAVY, _HEAVY + t], [(0, t)]) for t in range(_TARGETS)]
    + [([t, 20], [(0, t), (1, t + 1)]) for t in range(0, _TARGETS - 1, 2)]
    + [([3, 12], [])]
)


class TestResolverMemos:
    @pytest.fixture()
    def fresh(self, oracle_kbs):
        """A factory of resolvers with empty memos over the oracle KBs,
        and the memo test records."""
        data, ctx, *_ = oracle_kbs
        known1 = frozenset(data.kb1.uris())
        records = oracle_records(oracle_kbs, _MEMO_SPECS)
        return lambda: OnlineResolver.from_context(ctx, known1), records

    def test_memos_stop_growing_at_the_limit(self, fresh, monkeypatch):
        """With the byte budget cut to half of what the smaller memo
        fills unbounded, each memo stops taking entries at the budget —
        holding some, not all, of what the records would fill it with,
        its byte count the sum of its entries' — and every answer equals
        an unbounded resolver's, first time and repeated."""
        new_resolver, records = fresh
        unbounded = new_resolver()
        expected = [r.as_dict() for r in unbounded.resolve_batch(records)]
        memos = ("_neighbor_memo", "_h4_memo")
        filled = {name: getattr(unbounded, name) for name in memos}
        for memo in filled.values():
            assert memo.bytes == sum(
                _held_bytes(key) + _held_bytes(entry)
                for key, entry in memo.items()
            )
        budget = min(memo.bytes for memo in filled.values()) // 2

        monkeypatch.setattr("repro.core.resolve._MEMO_BYTES", budget)
        capped = new_resolver()
        for _ in range(2):
            got = [capped.resolve(record).as_dict() for record in records]
            assert got == expected
            for name in memos:
                memo = getattr(capped, name)
                assert 0 < len(memo) < len(filled[name])
                assert 0 < memo.bytes <= budget
                assert memo.bytes == sum(
                    _held_bytes(key) + _held_bytes(entry)
                    for key, entry in memo.items()
                )

    def test_reader_threads_share_one_resolver(self, fresh):
        """Four threads resolving the same records at once through one
        fresh resolver (racing to fill its memos) each return the
        sequential answers."""
        new_resolver, records = fresh
        expected = [r.as_dict() for r in new_resolver().resolve_batch(records)]
        shared = new_resolver()
        start = threading.Barrier(4)
        answers: list = [None] * 4

        def read(slot):
            start.wait()
            answers[slot] = [
                shared.resolve(record).as_dict() for record in records
            ]

        threads = [threading.Thread(target=read, args=(s,)) for s in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads mid memo fill
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert answers == [expected] * 4

    def test_memo_entries_are_read_only(self, fresh):
        """Every published neighbor column refuses writes, so a caller
        holding a shared entry cannot corrupt later answers."""
        new_resolver, records = fresh
        resolver = new_resolver()
        expected = [r.as_dict() for r in resolver.resolve_batch(records)]
        entries = [*resolver._neighbor_memo.values(), resolver._no_neighbors]
        assert any(isinstance(key, tuple) for key in resolver._neighbor_memo)
        for columns in entries:
            for column in columns:
                assert not column.flags.writeable
                if len(column):
                    with pytest.raises(ValueError):
                        column[0] = 0
        assert [r.as_dict() for r in resolver.resolve_batch(records)] == expected


# ----------------------------------------------------------------------
# Online H1 == re-keying both KBs (the reference derivation)
# ----------------------------------------------------------------------
def h1_records(tables, attributes):
    """Records whose names are unique in KB2, shared in KB2, carried by
    KB1 or absent — each name under each given attribute — plus one
    carrying a KB1 name beside a unique one, from every table pair."""
    picked = {"absent": ["qqzzv vvzzq"]}
    for names1, names2 in tables:
        for key, sole in sorted(names2.items()):
            kind = "kb1" if key in names1 else "unique" if sole else "shared"
            picked.setdefault(kind, []).append(key)
        picked.setdefault("kb1", []).extend(sorted(names1)[:3])
    assert set(picked) == {"absent", "kb1", "unique", "shared"}
    keys = sorted({key for kind in picked.values() for key in kind[:4]})
    pairs = [[(a, key)] for key in keys for a in attributes]
    first = attributes[0]
    pairs.append([(first, picked["kb1"][0]), (first, picked["unique"][0])])
    return [
        EntityDescription(f"urn:h1:{index}", row)
        for index, row in enumerate(pairs)
    ]


class TestH1Oracle:
    def test_session_and_every_delta_generation(self):
        """Online H1 decisions equal :func:`h1_match_by_kb_walk` — on a
        cold session, and on each published generation of a delta
        sequence whose remove moves KB1's name attributes and whose
        re-add moves them back (restaurant 0.15, seed 7: the first two
        sorted KB1 URIs).  Every state answers after the whole sequence,
        so each generation's tables must have been frozen at publish."""
        data = generate_benchmark("restaurant", 0.15, 7)
        kb1, kb2 = data.kb1.copy(), data.kb2.copy()
        config = MinoanERConfig(heuristics=("h1",))
        matcher = IncrementalMatcher(MatchSession(kb1, kb2, config))
        removed = sorted(kb1.uris())[:2]
        held = [kb1[uri] for uri in removed]
        steps = [
            lambda: None,
            lambda: matcher.remove_entities("kb1", removed),
            lambda: matcher.add_entities("kb1", held),
        ]
        generations = []
        for generation, step in enumerate(steps, start=1):
            step()
            matcher.match()
            ctx = matcher.last_context
            attributes = (
                ctx.get("name_attributes1"),
                ctx.get("name_attributes2"),
            )
            generations.append(
                (
                    ServingState.from_matcher(
                        matcher, generation=generation, delta_count=0
                    ),
                    attributes,
                    h1_names_by_kb_walk(kb1, kb2, *attributes),
                )
            )
        moved = {tuple(attrs[0]) for _, attrs, _ in generations}
        assert len(moved) == 2  # the delta did move the name attributes
        records = h1_records(
            [names for _, _, names in generations],
            sorted({a for attrs in moved for a in attrs}),
        )
        cold = MatchSession(data.kb1, data.kb2, config)
        served = [(cold, *generations[0][1:])] + generations
        decided = set()
        for state, attributes, names in served:
            results = state.resolve_batch(records)
            expected = [
                h1_match_by_kb_walk(record, names, attributes[0])
                for record in records
            ]
            assert [r.match for r in results] == expected
            decided.add(tuple(match is None for match in expected))
        assert all(False in outcome and True in outcome for outcome in decided)
        assert len(decided) > 1  # the generations decide differently


# ----------------------------------------------------------------------
# Generation isolation: resolve never mutates a published state
# ----------------------------------------------------------------------
class TestGenerationPin:
    def test_resolve_leaves_published_state_untouched(self, served):
        daemon, client = served
        pinned = daemon.state()
        generation = pinned.generation
        digest = pinned.matches_digest
        probe_before = pinned.probe("a0").as_dict()
        kb1, _ = make_pair()
        record = clone_record(kb1["a1"], "urn:q:pin")

        first = pinned.resolve(record).as_dict()
        assert pinned.generation == generation
        assert pinned.matches_digest == digest
        assert pinned.probe("a0").as_dict() == probe_before
        assert pinned.resolve(record).as_dict() == first

    def test_pinned_generation_survives_delta(self, served):
        """A delta publishes a new state; the old one answers as before."""
        daemon, client = served
        pinned = daemon.state()
        kb1, _ = make_pair()
        record = clone_record(kb1["a1"], "urn:q:pin2")
        before = pinned.resolve(record).as_dict()

        client.apply_delta(
            {
                "ops": [
                    {
                        "op": "add",
                        "kb": "kb2",
                        "entities": [
                            {
                                "uri": "b9",
                                "pairs": [
                                    ["notes", {"lit": "zanzibar surprise"}]
                                ],
                            }
                        ],
                    }
                ]
            }
        )
        assert daemon.state() is not pinned
        assert daemon.state().generation == pinned.generation + 1
        assert pinned.resolve(record).as_dict() == before


# ----------------------------------------------------------------------
# query_stream
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def small_dataset():
    return generate(load_profile("rexa_dblp", scale=0.05, seed=7))


class TestQueryStream:
    def test_deterministic(self, small_dataset):
        first = query_stream(small_dataset, n=9, dirtiness=0.3, seed=3)
        second = query_stream(small_dataset, n=9, dirtiness=0.3, seed=3)
        assert [
            (q.record.uri, q.record.pairs, q.expected, q.variant)
            for q in first
        ] == [
            (q.record.uri, q.record.pairs, q.expected, q.variant)
            for q in second
        ]

    def test_variants_cycle_and_uris_are_fresh(self, small_dataset):
        queries = query_stream(small_dataset, n=7, seed=0)
        cycle = ("clean", "token_dropped", "near_miss")
        assert [q.variant for q in queries] == [
            cycle[i % 3] for i in range(7)
        ]
        known = set(small_dataset.kb1.uris()) | set(small_dataset.kb2.uris())
        for q in queries:
            assert q.record.uri not in known
            assert q.expected in small_dataset.kb2

    def test_records_resolve_to_expected(self, small_dataset):
        session = MatchSession(small_dataset.kb1, small_dataset.kb2)
        session.match()
        queries = query_stream(small_dataset, n=12, dirtiness=0.2, seed=1)
        for q in queries:
            result = session.resolve(q.record)
            assert result.known is False
            assert result.match is not None, q.variant
            assert result.match.uri2 == q.expected, q.variant

    def test_accepts_profile_directly(self):
        queries = query_stream(
            load_profile("rexa_dblp", scale=0.05, seed=7), n=3, seed=2
        )
        assert len(queries) == 3

    def test_validation(self, small_dataset):
        with pytest.raises(ValueError):
            query_stream(small_dataset, n=-1)
        with pytest.raises(ValueError):
            query_stream(small_dataset, n=1, dirtiness=1.5)


# ----------------------------------------------------------------------
# Repeated reads: no cache, the same answer
# ----------------------------------------------------------------------
def _reader(owner: str):
    """A session or a published generation over the make_pair KBs."""
    kb1, kb2 = make_pair()
    session = MatchSession(kb1, kb2)
    if owner == "session":
        return kb1, session
    matcher = IncrementalMatcher(session)
    matcher.match()
    return kb1, ServingState.from_matcher(matcher, generation=1, delta_count=0)


@pytest.mark.parametrize("owner", ["session", "state"])
class TestRepeatedReads:
    def test_never_seen_record_resolves_equal_twice(self, owner):
        kb1, reader = _reader(owner)
        record = clone_record(kb1["a1"], "urn:q:twice")
        first = reader.resolve(record)
        assert first.known is False and first.match is not None
        assert reader.resolve(record) == first
        assert reader.resolve_batch([record])[0] == first

    def test_default_k_equals_explicit_k(self, owner):
        kb1, reader = _reader(owner)
        record = clone_record(kb1["a2"], "urn:q:k")
        top_k = MinoanERConfig().top_k_candidates
        assert reader.resolve(record) == reader.resolve(record, k=top_k)
        assert reader.probe("a2") == reader.probe("a2", top_k)

    def test_known_uri_probes_equal_twice(self, owner):
        _, reader = _reader(owner)
        first = reader.probe("a1", 2)
        assert first.known is True
        assert reader.probe("a1", 2) == first


@pytest.fixture(scope="module")
def oracle_probes(oracle_kbs):
    """The oracle KBs' sorted KB1 URIs and a resolver over their run."""
    data, ctx, *_ = oracle_kbs
    uris1 = sorted(data.kb1.uris())
    return uris1, OnlineResolver.from_context(ctx, frozenset(uris1))


class TestProbeBest:
    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(at=st.integers(0, 10**6), k=st.integers(1, _K + 3))
    @example(at=0, k=1)
    @example(at=0, k=_K + 3)  # a whole row, past the config's K
    def test_best_is_the_first_value_row(self, oracle_probes, at, k):
        """A probe's ``best`` is its first value row, for every ``k``
        (``None`` with no row, as for an unknown URI)."""
        uris1, resolver = oracle_probes
        uri = uris1[at % len(uris1)]
        probe = resolver.probe(uri, k)
        assert probe.best == (probe.value[0] if probe.value else None)
        assert resolver.probe("urn:ghost", k).best is None


# ----------------------------------------------------------------------
# ServeClient failure taxonomy (satellite 2)
# ----------------------------------------------------------------------
class TestServeClientErrors:
    def test_connection_refused_maps_to_status_zero(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        client = ServeClient(f"http://127.0.0.1:{port}", timeout=0.5)
        with pytest.raises(ServeClientError) as excinfo:
            client.healthz()
        assert excinfo.value.status == 0

    def test_read_timeout_maps_to_status_zero(self):
        """A server that accepts but never answers trips the timeout."""
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        port = listener.getsockname()[1]
        try:
            client = ServeClient(f"http://127.0.0.1:{port}", timeout=30.0)
            with pytest.raises(ServeClientError) as excinfo:
                client.healthz(timeout=0.2)  # per-call override
            assert excinfo.value.status == 0
        finally:
            listener.close()

    def test_http_error_keeps_status_and_message(self, served):
        _, client = served
        with pytest.raises(ServeClientError) as excinfo:
            client._json("GET", "/no-such-endpoint")
        assert excinfo.value.status == 404


# ----------------------------------------------------------------------
# /resolve and /resolve_batch endpoints
# ----------------------------------------------------------------------
class TestResolveEndpoints:
    def test_resolve_known_equals_candidates(self, served):
        _, client = served
        kb1, _ = make_pair()
        payload = client.resolve(entity_to_dict(kb1["a0"]))
        probed = client.candidates("a0")
        assert payload["known"] is True
        assert payload["generation"] == probed["generation"]
        for key in ("value", "neighbor", "best", "match"):
            assert payload[key] == probed[key]

    def test_resolve_unknown_record(self, served):
        _, client = served
        kb1, _ = make_pair()
        record = clone_record(kb1["a1"], "urn:q:http")
        payload = client.resolve(entity_to_dict(record), k=3)
        assert payload["known"] is False
        assert payload["k"] == 3
        assert payload["match"]["uri1"] == "urn:q:http"
        assert payload["match"]["uri2"] == "b1"
        assert client.resolve(entity_to_dict(record), k=3) == payload
        samples = {
            line.split()[0]: float(line.split()[1])
            for line in client.metrics().splitlines()
            if line and not line.startswith("#")
        }
        assert samples["repro_serve_resolve_records"] >= 2

    def test_resolve_batch_equals_per_record(self, served):
        _, client = served
        kb1, _ = make_pair()
        records = [
            entity_to_dict(clone_record(kb1["a1"], "urn:q:h1")),
            entity_to_dict(kb1["a0"]),
        ]
        batch = client.resolve_batch(records)
        singles = [client.resolve(record) for record in records]
        assert len(batch["results"]) == 2
        for got, want in zip(batch["results"], singles):
            for key in ("uri", "known", "value", "neighbor", "best", "match"):
                assert got[key] == want[key]

    @pytest.mark.parametrize(
        "path, body",
        [
            ("/resolve", {}),
            ("/resolve", {"record": "not a dict"}),
            ("/resolve", {"record": {"uri": "urn:q", "pairs": []}, "k": 0}),
            ("/resolve", {"record": {"uri": "urn:q", "pairs": []}, "k": True}),
            ("/resolve", {"record": {"pairs": []}}),
            ("/resolve_batch", {}),
            ("/resolve_batch", {"records": {"uri": "urn:q"}}),
            ("/resolve_batch", {"records": [{"pairs": []}]}),
        ],
    )
    def test_malformed_bodies_are_400(self, served, path, body):
        _, client = served
        with pytest.raises(ServeClientError) as excinfo:
            client._json("POST", path, body)
        assert excinfo.value.status == 400

    def test_resolver_survives_snapshot_round_trip(self, served, tmp_path):
        """reload() rebuilds a state whose resolver still answers."""
        _, client = served
        target = str(tmp_path / "round")
        client.snapshot(target)
        client.reload(target)
        kb1, _ = make_pair()
        record = clone_record(kb1["a1"], "urn:q:reloaded")
        payload = client.resolve(entity_to_dict(record))
        assert payload["match"]["uri2"] == "b1"


# ----------------------------------------------------------------------
# Resolver construction details
# ----------------------------------------------------------------------
class TestResolverInternals:
    def test_from_context_pins_known_uris(self):
        """A resolver built with known1 never consults the live KB1."""
        kb1, kb2 = make_pair()
        session = MatchSession(kb1, kb2)
        session.match()
        resolver = OnlineResolver.from_context(
            session.run_context(), frozenset(kb1.uris())
        )
        kb1.new_entity("a9").add_literal("name", "late arrival")
        result = resolver.resolve(EntityDescription("a9", kb1["a9"].pairs))
        assert result.known is False

    def test_construction_reads_no_kb_entity(self, numpy_arm, monkeypatch):
        """Building a resolver keys and walks no KB entity:
        H1's tables come from the published ``name_placements``, the
        fan-out from the published ``top_neighbors2``; resolving keys
        only the records.  A context lacking either artifact is refused
        by name, and one without name blocking resolves without H1."""
        from importlib import import_module

        from repro.pipeline import MissingArtifactError
        from repro.pipeline.context import PipelineContext

        kb1 = read_ntriples(GOLDEN / "kb1.nt", name="golden1")
        kb2 = read_ntriples(GOLDEN / "kb2.nt", name="golden2")
        held_out = [kb1.remove(uri) for uri in sorted(kb1.uris())[:20]]
        ctx = MatchSession(kb1, kb2).run_context()
        known1 = frozenset(kb1.uris())

        name_blocking, neighbors, resolve_module = map(
            import_module,
            (
                "repro.blocking.name_blocking",
                "repro.core.neighbors",
                "repro.core.resolve",
            ),
        )
        keyed, walked = [], []
        real = name_blocking.name_keys
        for module in (name_blocking, resolve_module):
            monkeypatch.setattr(
                module,
                "name_keys",
                lambda entity, extractor: keyed.append(entity)
                or real(entity, extractor),
                raising=False,
            )
        for module in (neighbors, resolve_module):
            monkeypatch.setattr(
                module,
                "top_neighbors",
                lambda *args: walked.append(args),
                raising=False,
            )
        resolver = OnlineResolver.from_context(ctx, known1)
        assert (keyed, walked) == ([], [])
        results = resolver.resolve_batch(held_out, 5)
        assert keyed and all(
            any(entity is record for record in held_out) for entity in keyed
        )
        assert walked == []
        assert any(r.match for r in results)  # the records did resolve

        def without(*missing):
            bare = PipelineContext(kb1, kb2, ctx.config)
            for artifact in ctx:
                if artifact.key not in missing:
                    bare.put(artifact.key, artifact.value, artifact.producer)
            return bare

        for missing in ("top_neighbors2", "name_placements"):
            with pytest.raises(MissingArtifactError) as refused:
                OnlineResolver.from_context(without(missing), known1)
            assert refused.value.key == missing
        nameless = OnlineResolver.from_context(
            without("name_placements", "name_attributes1", "name_attributes2"),
            known1,
        ).resolve_batch(held_out, 5)
        assert [r.value for r in nameless] == [r.value for r in results]
        assert not any(r.match and r.match.heuristic == "H1" for r in nameless)

    def test_span_table_equals_bisect_lookup(self, tmp_path):
        """The span table answers every token as the binary search over
        the sorted key column does (``oracles.block_span_by_bisect``):
        each block key, a token no block has, and a key whose side-2 row
        is empty — on a freshly matched generation, on snapshot-loaded
        ones (copied and mapped), and on blocks holding an empty row.
        A record's spans are the hits among its sorted tokens."""
        kb1 = read_ntriples(GOLDEN / "kb1.nt", name="golden1")
        kb2 = read_ntriples(GOLDEN / "kb2.nt", name="golden2")
        session = MatchSession(kb1, kb2)
        ctx = session.run_context()
        known1 = frozenset(kb1.uris())
        session.save(tmp_path / "seed")
        generations = [
            (OnlineResolver.from_context(ctx, known1), ctx.get("token_blocks"))
        ]
        for mode in ("copy", "mmap"):
            daemon = ResolutionDaemon.from_snapshot(tmp_path / "seed", mode=mode)
            generations.append(
                (
                    daemon.state().resolver,
                    daemon._matcher.last_context.get("token_blocks"),
                )
            )

        blocks = sorted(ctx.get("token_blocks"), key=lambda block: block.key)
        hollow = blocks[-1].key + "~"  # sorts last: no side-2 member
        with_hollow = PackedBlockCollection(
            "BT",
            [block.key for block in blocks] + [hollow],
            [block.entities1 for block in blocks] + [{sorted(known1)[0]}],
            [block.entities2 for block in blocks] + [set()],
        )
        generations.append(
            (
                OnlineResolver(
                    config=ctx.config,
                    known1=known1,
                    decisions1={},
                    token_blocks=with_hollow,
                    value_index=ctx.get("value_index"),
                    neighbor_index=ctx.get("neighbor_index"),
                    top_neighbors2=ctx.get("top_neighbors2"),
                ),
                with_hollow,
            )
        )

        absent = "\x00never a block key"
        for resolver, token_blocks in generations:
            keys = token_blocks.block_keys
            assert len(keys) > 100
            for token in (*keys, absent, hollow):
                assert resolver._spans.get(token) == block_span_by_bisect(
                    token_blocks, token
                ), token
            assert hollow not in resolver._spans
            record = EntityDescription(
                "urn:q:spans", [("name", " ".join([keys[7], keys[3], absent]))]
            )
            tokens = sorted(Tokenizer().token_set(record))
            expected = [block_span_by_bisect(token_blocks, t) for t in tokens]
            assert resolver._probe_spans(record) == [
                span for span in expected if span is not None
            ]
            assert len(resolver._probe_spans(record)) >= 2
