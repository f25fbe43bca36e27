"""Unit tests for the incremental subsystem's building blocks.

The end-to-end parity contract lives in ``test_incremental_parity.py``;
here each piece is exercised in isolation: the shard-then-merge float
order of the batch index builders, stale-session detection with the
explicit ``invalidate`` API, and the matcher's graph validation, delta
validation and bookkeeping.  (The placement table the matcher maintains
is tested beside the packed blocks it assembles, in
``test_packed_blocking.py``.)
"""

import pytest

from repro.core import MinoanER, MinoanERConfig
from repro.incremental import IncrementalMatcher
from repro.kb import KnowledgeBase
from repro.kb.entity import EntityDescription
from repro.blocking.base import Block, BlockCollection
from repro.blocking.purging import (
    cardinality_threshold,
    cardinality_threshold_from_sizes,
)
from repro.pipeline import MatchSession, Stage, StaleSessionError
from repro.pipeline.stages import TokenBlockingStage

from oracles import (
    _value_partial,
    block_shards,
    merge_pair_sums,
    shard_merged_sum,
    value_pair_key,
)
from test_pipeline import make_pair


# ----------------------------------------------------------------------
# KnowledgeBase mutation contract
# ----------------------------------------------------------------------
class TestMutableKB:
    def test_version_bumps_on_add_and_remove(self):
        kb = KnowledgeBase("X")
        v0 = kb.version
        kb.new_entity("a")
        assert kb.version == v0 + 1
        kb.remove("a")
        assert kb.version == v0 + 2

    def test_remove_missing_raises(self):
        with pytest.raises(KeyError, match="ghost"):
            KnowledgeBase("X").remove("ghost")

    def test_remove_preserves_order_and_readd_appends(self):
        kb = KnowledgeBase("X")
        for uri in ("a", "b", "c"):
            kb.new_entity(uri)
        middle = kb.remove("b")
        assert kb.uris() == ["a", "c"]
        kb.add(middle)
        assert kb.uris() == ["a", "c", "b"]

    def test_copy_is_independent(self):
        kb = KnowledgeBase("X")
        kb.new_entity("a")
        clone = kb.copy()
        clone.remove("a")
        assert "a" in kb and "a" not in clone


# ----------------------------------------------------------------------
# Shard-then-merge accumulation order of the batch builders
# ----------------------------------------------------------------------
class TestShardMergeOrder:
    def test_shard_merged_sum_replays_engine_accumulation(self):
        blocks = BlockCollection("BT")
        # one shared pair across many singleton blocks, each contributing
        # arcs(1, 1) == 1.0 plus a varying tail via block "u"
        for i in range(12):
            blocks.add(Block(f"t{i}", {"a1"}, {"b1"}))
        blocks.add(Block("u", {"a1", "a2", "a3"}, {"b1", "b2"}))
        for n_shards in (1, 2, 3, 7):
            merged = {}
            for shard in block_shards(blocks, n_shards):
                merged = merge_pair_sums(merged, _value_partial(shard))
            contributions = sorted(
                (
                    block.key,
                    1.0
                    if block.key != "u"
                    else merged[("a2", "b2")],  # u's weight, arcs(3, 2)
                )
                for block in blocks
            )
            assert (
                shard_merged_sum(contributions, n_shards)
                == merged[("a1", "b1")]
            )

    def test_value_pair_key_distinguishes_boundary(self):
        assert value_pair_key(("ab", "c")) != value_pair_key(("a", "bc"))


# ----------------------------------------------------------------------
# Purging threshold arithmetic sharing
# ----------------------------------------------------------------------
class TestPurgingFromSizes:
    def test_matches_block_collection_path(self):
        blocks = BlockCollection("BT")
        blocks.add(Block("stop", set(map(str, range(30))), set(map(str, range(30)))))
        for i in range(20):
            blocks.add(Block(f"t{i}", {"a"}, {"b"}))
        assert cardinality_threshold(blocks) == cardinality_threshold_from_sizes(
            (len(b.entities1), len(b.entities2)) for b in blocks
        )


# ----------------------------------------------------------------------
# Stale sessions and explicit invalidation
# ----------------------------------------------------------------------
class TestStaleSession:
    def test_mutated_kb_raises_instead_of_stale_matches(self):
        kb1, kb2 = make_pair()
        session = MatchSession(kb1, kb2)
        first = session.match()
        extra = EntityDescription("a9")
        extra.add_literal("name", "freshly added venue")
        kb1.add(extra)
        with pytest.raises(StaleSessionError, match="mutated"):
            session.match()
        # the pre-delta result object is unaffected
        assert ("a0", "b0") in first.pairs()

    def test_invalidate_seed_key_recovers_and_sees_delta(self):
        kb1, kb2 = make_pair()
        session = MatchSession(kb1, kb2)
        session.match()
        extra1 = EntityDescription("a9")
        extra1.add_literal("name", "freshly added venue")
        extra2 = EntityDescription("b9")
        extra2.add_literal("name", "Freshly Added Venue")
        kb1.add(extra1)
        kb2.add(extra2)
        dropped = session.invalidate("kb1")
        assert dropped == len(list(session.graph))  # everything was tainted
        result = session.match()
        assert ("a9", "b9") in result.pairs()

    def test_invalidate_artifact_drops_stage_and_downstream_only(self):
        kb1, kb2 = make_pair()
        session = MatchSession(kb1, kb2)
        session.match()
        cached_before = session.cached_artifacts()
        dropped = session.invalidate("token_blocks")
        # token_blocking + value/neighbor/matching, not names
        assert dropped == 4
        assert session.cached_artifacts() == cached_before - 4
        session.match()
        assert session.runs("name_blocking") == 1  # reused from cache
        assert session.runs("token_blocking") == 2

    def test_narrow_invalidate_keeps_stale_guard_armed(self):
        kb1, kb2 = make_pair()
        session = MatchSession(kb1, kb2)
        session.match()
        extra = EntityDescription("a9")
        extra.add_literal("name", "freshly added venue")
        kb1.add(extra)
        session.invalidate("matching")  # narrow: upstream caches still stale
        with pytest.raises(StaleSessionError):
            session.match()

    def test_invalidate_unknown_artifact_raises(self):
        kb1, kb2 = make_pair()
        session = MatchSession(kb1, kb2)
        with pytest.raises(KeyError, match="nonsense"):
            session.invalidate("nonsense")

    def test_clear_also_accepts_current_versions(self):
        kb1, kb2 = make_pair()
        session = MatchSession(kb1, kb2)
        session.match()
        kb1.remove("a0")
        session.clear()
        assert ("a0", "b0") not in session.match().pairs()


# ----------------------------------------------------------------------
# IncrementalMatcher surface behaviour
# ----------------------------------------------------------------------
class TestIncrementalMatcherSurface:
    def make_matcher(self):
        kb1, kb2 = make_pair()
        return IncrementalMatcher(MinoanER().session(kb1, kb2))

    def test_rejects_unsupported_graph_compositions(self):
        """The placement tables reproduce the built-in blocking stages'
        keys and nothing else: any other producer of ``token_blocks`` /
        ``name_blocks`` is rejected by name, with the reason."""
        kb1, kb2 = make_pair()

        class StemmedTokens(TokenBlockingStage):
            pass

        class InitialsAsNames(Stage):
            name = "initials"
            provides = ("name_blocks", "name_attributes1", "name_attributes2")

            def run(self, ctx, engine):  # pragma: no cover - never run
                raise AssertionError

        for blocking, named in (
            (("name", StemmedTokens()), ("'token_blocks'", "StemmedTokens")),
            ((InitialsAsNames(), "token"), ("'name_blocks'", "'initials'")),
        ):
            builder = MinoanER.builder().with_blocking(*blocking)
            with pytest.raises(ValueError) as excinfo:
                IncrementalMatcher(builder.session(kb1, kb2))
            message = str(excinfo.value)
            for fragment in named:
                assert fragment in message
            assert "built-in" in message
            assert "MatchSession.match()" in message

    def test_delta_hook_stage_accepted_and_rerun(self):
        """A custom stage downstream of ``matches`` needs no hook: it is
        accepted as it is, re-runs once per delta because its inputs
        were rebuilt, and not at all on a no-delta ``match()``."""
        kb1, kb2 = make_pair()
        runs = []

        class Hooked(Stage):
            name = "hooked"
            requires = ("matches",)
            provides = ("hooked",)

            def run(self, ctx, engine):
                runs.append(len(ctx.get("matches")))
                ctx.put("hooked", len(ctx.get("matches")), producer=self.name)

        builder = MinoanER.builder().with_stage(Hooked())
        matcher = IncrementalMatcher(builder.session(kb1, kb2))
        result = matcher.match()
        assert matcher.last_context.get("hooked") == len(result.matches)
        assert matcher.stage_recomputes["hooked"] == len(runs) == 1
        matcher.remove_entities(1, ["a0"])
        result = matcher.match()
        assert matcher.last_context.get("hooked") == len(result.matches)
        assert matcher.stage_recomputes["hooked"] == len(runs) == 2
        matcher.match()
        assert matcher.stage_recomputes["hooked"] == len(runs) == 2

    def test_missing_stage_rejected_by_name(self):
        kb1, kb2 = make_pair()
        builder = (
            MinoanER.builder()
            .with_blocking("name")
            .without_stage("value_index")
            .without_stage("neighbor_index")
            .with_config(heuristics=("h1",))
        )
        with pytest.raises(ValueError, match="lacks .*'token_blocking'"):
            IncrementalMatcher(builder.session(kb1, kb2))

    def test_construction_runs_an_unmatched_session_once(self):
        """Adopting a session is the cold pass and nothing more: every
        stage once on an unmatched session, none on a matched one."""
        kb1, kb2 = make_pair()
        session = MinoanER().session(kb1, kb2)
        IncrementalMatcher(session)
        assert session.stage_runs == dict.fromkeys(session.graph.names(), 1)
        matcher = IncrementalMatcher(session)
        matcher.match()
        assert session.stage_runs == dict.fromkeys(session.graph.names(), 1)

    def test_kb_selector_forms(self):
        matcher = self.make_matcher()
        assert matcher._side_of(1) == 1
        assert matcher._side_of("kb2") == 2
        assert matcher._side_of("1") == 1
        with pytest.raises(ValueError, match="unknown KB"):
            matcher._side_of("nope")

    def test_duplicate_add_rejected_atomically(self):
        matcher = self.make_matcher()
        clash = EntityDescription("a0")
        fresh = EntityDescription("a8")
        with pytest.raises(ValueError, match="duplicate"):
            matcher.add_entities(1, [fresh, clash])
        assert "a8" not in matcher.kbs[0]  # nothing was applied

    def test_remove_missing_rejected(self):
        matcher = self.make_matcher()
        with pytest.raises(KeyError, match="ghost"):
            matcher.remove_entities(1, ["ghost"])

    def test_remove_duplicate_uri_rejected_atomically(self):
        matcher = self.make_matcher()
        with pytest.raises(KeyError, match="a2"):
            matcher.remove_entities(1, ["a2", "a2"])
        # nothing was applied: the entity still matches
        assert "a2" in matcher.kbs[0]
        assert matcher.refresh() is False
        assert ("a2", "b2") in matcher.match().pairs()

    def test_delta_log_and_counters(self):
        matcher = self.make_matcher()
        matcher.match()
        matcher.remove_entities(1, ["a2"])
        matcher.match()
        assert matcher.deltas_applied == 1
        counters = matcher.counters()
        assert counters["delta_updated"]["token_blocking"] >= 1
        assert counters["recomputed"]["matching"] == 2

    def test_applied_batches_leave_no_growing_container(self):
        """A daemon applies deltas for its whole life: the matcher counts
        batches instead of keeping them, so after 5 and after 50 batches
        every container it holds has the same size."""
        matcher = self.make_matcher()
        matcher.match()
        entity = matcher.kbs[0]["a2"]
        sizes = {}
        for batch in range(1, 51):
            if batch % 2:
                matcher.remove_entities(1, ["a2"])
            else:
                matcher.add_entities(1, [entity])
            if batch in (5, 50):
                sizes[batch] = {
                    name: len(value)
                    for name, value in vars(matcher).items()
                    if isinstance(value, (list, tuple, dict, set))
                }
                assert repr(matcher).endswith(f"deltas={batch})")
        assert sizes[5] == sizes[50]

    def test_empty_add_is_a_noop(self):
        matcher = self.make_matcher()
        assert matcher.add_entities(1, []) == 0
        assert matcher.refresh() is False

    def test_no_delta_match_reports_no_refresh_stages(self):
        matcher = self.make_matcher()
        matcher.remove_entities(1, ["a2"])
        after_delta = matcher.match()
        assert matcher.last_context.stage_runs == {
            "name_blocking": 0,  # seeded from the placement tables
            "token_blocking": 0,
            "value_index": 1,
            "neighbor_index": 1,
            "matching": 1,
        }
        repeat = matcher.match()  # nothing pending: a pure cache restore
        assert set(matcher.last_context.stage_runs.values()) == {0}
        assert set(repeat.stage_seconds) == set(matcher.graph.names())
        assert repeat.matches == after_delta.matches

    def test_wrapped_session_raises_after_deltas(self):
        kb1, kb2 = make_pair()
        session = MinoanER().session(kb1, kb2)
        matcher = IncrementalMatcher(session)
        matcher.remove_entities(1, ["a2"])
        with pytest.raises(StaleSessionError):
            session.match()
        assert ("a2", "b2") not in matcher.match().pairs()
