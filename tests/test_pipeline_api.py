"""Tests for the composable stage-graph API (repro.pipeline).

Covers the artifact store, graph validation/toposort, registries
(registration, override, unregistration), the fluent builder, session
memoization and cache invalidation keyed by declared config fields, and
a custom user-defined heuristic end-to-end.
"""

import pytest

from repro.core import MinoanER, MinoanERConfig
from repro.core.heuristics import Match
from repro.datasets import generate_benchmark
from repro.kb import KnowledgeBase
from repro.pipeline import (
    BLOCKING_SCHEMES,
    HEURISTICS,
    Heuristic,
    MatchSession,
    MatchingStage,
    MissingArtifactError,
    PipelineBuilder,
    PipelineContext,
    Registry,
    RegistryError,
    Stage,
    StageGraph,
    StageGraphError,
)

from test_pipeline import make_pair


# ----------------------------------------------------------------------
# PipelineContext
# ----------------------------------------------------------------------
class TestPipelineContext:
    def make_ctx(self):
        kb1, kb2 = make_pair()
        return PipelineContext(kb1, kb2, MinoanERConfig())

    def test_seeds_kbs_as_artifacts(self):
        ctx = self.make_ctx()
        assert ctx.get("kb1") is ctx.kb1
        assert ctx.provenance("kb2").producer == "input"

    def test_put_get_provenance(self):
        ctx = self.make_ctx()
        ctx.put("thing", 42, producer="stage_x")
        assert ctx.get("thing") == 42
        record = ctx.provenance("thing")
        assert record.producer == "stage_x"
        assert record.cached is False

    def test_missing_artifact_error_names_available(self):
        ctx = self.make_ctx()
        with pytest.raises(MissingArtifactError) as excinfo:
            ctx.get("nope")
        assert "nope" in str(excinfo.value)
        assert "kb1" in str(excinfo.value)

    def test_get_or_default(self):
        assert self.make_ctx().get_or("nope", "fallback") == "fallback"


# ----------------------------------------------------------------------
# StageGraph validation and ordering
# ----------------------------------------------------------------------
class _StubStage(Stage):
    def __init__(self, name, requires=(), provides=()):
        self.name = name
        self.requires = tuple(requires)
        self.provides = tuple(provides)
        self.ran = 0

    def run(self, ctx, engine):
        self.ran += 1
        for key in self.provides:
            ctx.put(key, f"{self.name}:{key}", producer=self.name)


class TestStageGraph:
    def test_topological_ordering_is_dependency_driven(self):
        consumer = _StubStage("consumer", requires=("a",), provides=("b",))
        producer = _StubStage("producer", provides=("a",))
        graph = StageGraph([consumer, producer])
        assert graph.names() == ["producer", "consumer"]

    def test_duplicate_stage_name_rejected(self):
        with pytest.raises(StageGraphError, match="duplicate stage name"):
            StageGraph([_StubStage("x"), _StubStage("x")])

    def test_duplicate_producer_rejected(self):
        with pytest.raises(StageGraphError, match="provided by both"):
            StageGraph(
                [_StubStage("x", provides=("a",)), _StubStage("y", provides=("a",))]
            )

    def test_unsatisfiable_requirement_rejected(self):
        with pytest.raises(StageGraphError, match="unsatisfiable"):
            StageGraph([_StubStage("x", requires=("ghost",))])

    def test_cycle_rejected(self):
        with pytest.raises(StageGraphError, match="cycle"):
            StageGraph(
                [
                    _StubStage("x", requires=("b",), provides=("a",)),
                    _StubStage("y", requires=("a",), provides=("b",)),
                ]
            )

    def test_default_graph_names(self):
        assert MinoanER().graph.names() == [
            "name_blocking",
            "token_blocking",
            "value_index",
            "neighbor_index",
            "matching",
        ]

    def test_execute_checks_declared_provides(self):
        """A stage that skips a declared artifact fails the run the same
        way through the facade and through a session (one runner)."""

        class Liar(Stage):
            name = "liar"
            provides = ("promised",)

            def run(self, ctx, engine):
                pass  # never puts "promised"

        kb1, kb2 = make_pair()
        graph = StageGraph([Liar()])
        with pytest.raises(StageGraphError, match="did not produce"):
            MinoanER(graph=graph).match(kb1, kb2)
        with pytest.raises(StageGraphError, match="did not produce"):
            MatchSession(kb1, kb2, graph=graph).match()


# ----------------------------------------------------------------------
# Registries
# ----------------------------------------------------------------------
class TestRegistry:
    def test_builtins_registered(self):
        assert BLOCKING_SCHEMES.names() == ["name", "token"]
        assert HEURISTICS.names() == ["h1", "h2", "h3", "h4"]

    def test_register_create_unregister(self):
        registry = Registry("widget")
        registry.register("w", lambda: 7)
        assert "w" in registry
        assert registry.create("w") == 7
        registry.unregister("w")
        assert "w" not in registry

    def test_duplicate_registration_needs_override(self):
        registry = Registry("widget")
        registry.register("w", lambda: 1)
        with pytest.raises(RegistryError, match="already registered"):
            registry.register("w", lambda: 2)
        registry.register("w", lambda: 2, override=True)
        assert registry.create("w") == 2

    def test_unknown_name_lists_registered(self):
        with pytest.raises(RegistryError, match="h1"):
            HEURISTICS.create("h99")

    def test_decorator_registration(self):
        registry = Registry("widget")

        @registry.register("decorated")
        class Thing:
            pass

        assert isinstance(registry.create("decorated"), Thing)


# ----------------------------------------------------------------------
# Builder
# ----------------------------------------------------------------------
class TestBuilder:
    def test_build_matches_default_pipeline(self):
        kb1, kb2 = make_pair()
        default = MinoanER().match(kb1, kb2)
        built = MinoanER.builder().build().match(kb1, kb2)
        assert built.pairs() == default.pairs()

    def test_with_config_overrides(self):
        builder = MinoanER.builder().with_config(theta=0.3)
        assert builder.config.theta == 0.3

    def test_with_config_validates(self):
        with pytest.raises(ValueError):
            MinoanER.builder().with_config(theta=1.5)

    def test_config_heuristics_select_the_sequence(self):
        kb1, kb2 = make_pair()
        matcher = MinoanER.builder().with_config(heuristics=("h1",)).build()
        result = matcher.match(kb1, kb2)
        assert {m.heuristic for m in result.matches} == {"H1"}

    def test_token_only_blocking_needs_h1_free_heuristics(self):
        builder = MinoanER.builder().with_blocking("token")
        with pytest.raises(StageGraphError, match="name_blocks"):
            builder.build_graph()
        builder.with_config(heuristics=("h2", "h3", "h4"))
        graph = builder.build_graph()
        assert "name_blocking" not in graph.names()

    def test_token_only_blocking_via_config_toggle(self):
        # leaving H1 out of the config shrinks the matching stage's
        # declared requires, so the graph needs no name blocking
        kb1, kb2 = make_pair()
        matcher = (
            MinoanER.builder()
            .with_config(heuristics=("h2", "h3", "h4"))
            .with_blocking("token")
            .build()
        )
        result = matcher.match(kb1, kb2)
        assert result.pairs()
        assert all(m.heuristic != "H1" for m in result.matches)

    def test_token_only_pipeline_runs(self):
        kb1, kb2 = make_pair()
        matcher = (
            MinoanER.builder()
            .with_blocking("token")
            .with_config(heuristics=("h2", "h3", "h4"))
            .build()
        )
        result = matcher.match(kb1, kb2)
        assert result.pairs()  # token evidence still finds matches
        assert all(m.heuristic != "H1" for m in result.matches)
        assert len(result.name_blocks) == 0  # graph never built BN

    def test_without_stage(self):
        graph = (
            MinoanER.builder()
            .with_config(heuristics=("h2", "h3", "h4"))
            .without_stage("name_blocking")
            .build_graph()
        )
        assert "name_blocking" not in graph.names()

    def test_custom_stage_ordered_by_requires(self):
        class CountStage(Stage):
            name = "match_count"
            requires = ("matches",)
            provides = ("match_count",)

            def run(self, ctx, engine):
                ctx.put("match_count", len(ctx.get("matches")), producer=self.name)

        kb1, kb2 = make_pair()
        builder = MinoanER.builder().with_stage(CountStage())
        graph = builder.build_graph()
        assert graph.names()[-1] == "match_count"
        session = builder.session(kb1, kb2)
        result = session.match()
        assert "match_count" in result.stage_seconds
        assert session.runs("match_count") == 1


# ----------------------------------------------------------------------
# Sessions: reuse, invalidation, parity
# ----------------------------------------------------------------------
class TestMatchSession:
    def test_repeat_run_is_fully_cached(self):
        kb1, kb2 = make_pair()
        session = MatchSession(kb1, kb2)
        first = session.match()
        again = session.match()
        assert again.pairs() == first.pairs()
        assert all(count == 1 for count in session.stage_runs.values())

    def test_session_equals_one_shot_match(self):
        kb1, kb2 = make_pair()
        session_result = MatchSession(kb1, kb2).match()
        one_shot = MinoanER().match(kb1, kb2)
        assert [
            (m.uri1, m.uri2, m.heuristic, m.score)
            for m in session_result.matches
        ] == [(m.uri1, m.uri2, m.heuristic, m.score) for m in one_shot.matches]

    def test_theta_change_reruns_matching_only(self):
        kb1, kb2 = make_pair()
        session = MatchSession(kb1, kb2)
        session.match()
        session.match(theta=0.4)
        assert session.runs("matching") == 2
        for stage in (
            "name_blocking",
            "token_blocking",
            "value_index",
            "neighbor_index",
        ):
            assert session.runs(stage) == 1

    def test_top_k_change_invalidates_candidates_downstream(self):
        kb1, kb2 = make_pair()
        session = MatchSession(kb1, kb2)
        session.match()
        session.match(top_k_candidates=5)
        assert session.runs("matching") == 2
        assert session.runs("value_index") == 1
        assert session.runs("token_blocking") == 1

    def test_upstream_change_cascades_to_downstream_stages(self):
        kb1, kb2 = make_pair()
        session = MatchSession(kb1, kb2)
        session.match()
        session.match(purge_token_blocks=False)
        # token blocking changed, so everything fed by it re-ran ...
        assert session.runs("token_blocking") == 2
        assert session.runs("value_index") == 2
        assert session.runs("matching") == 2
        # ... while the independent name blocking stayed cached
        assert session.runs("name_blocking") == 1

    def test_match_heuristics_override(self):
        kb1, kb2 = make_pair()
        session = MatchSession(kb1, kb2)
        result = session.match(heuristics=("h2", "h4"))
        assert result.matches
        assert all(m.heuristic == "H2" for m in result.matches)
        # the override takes effect on a session built with any list
        narrowed = MinoanER.builder().with_config(heuristics=("h1",))
        session = narrowed.session(kb1, kb2)
        assert session.match().by_heuristic() == {"H1": 1}
        assert session.match(heuristics=("h1", "h2")).by_heuristic() == {
            "H1": 1,
            "H2": 1,
        }

    def test_engine_choice_does_not_invalidate_cache(self):
        kb1, kb2 = make_pair()
        session = MatchSession(kb1, kb2)
        serial = session.match()
        threaded = session.match(engine="thread", workers=2)
        assert threaded.pairs() == serial.pairs()
        # executors are bit-identical by contract: nothing re-ran
        assert all(count == 1 for count in session.stage_runs.values())

    def test_cached_artifacts_carry_provenance(self):
        kb1, kb2 = make_pair()
        session = MatchSession(kb1, kb2)
        session.match()
        session.match()
        assert session.cached_artifacts() > 0

    def test_caller_mutation_cannot_corrupt_cache(self):
        kb1, kb2 = make_pair()
        session = MatchSession(kb1, kb2)
        first = session.match()
        expected = [(m.uri1, m.uri2) for m in first.matches]
        first.matches.clear()  # a consumer post-processing its result
        first.name_attributes1.sort(reverse=True)
        replay = session.match()  # full cache hit
        assert [(m.uri1, m.uri2) for m in replay.matches] == expected
        assert all(count == 1 for count in session.stage_runs.values())

    def test_clear_forces_recompute(self):
        kb1, kb2 = make_pair()
        session = MatchSession(kb1, kb2)
        session.match()
        session.clear()
        session.match()
        assert session.runs("matching") == 2

    def test_unknown_config_field_rejected(self):
        class BadStage(Stage):
            name = "bad"
            provides = ("bad_artifact",)
            config_fields = ("not_a_field",)

            def run(self, ctx, engine):
                ctx.put("bad_artifact", 1, producer=self.name)

        kb1, kb2 = make_pair()
        session = MatchSession(kb1, kb2, graph=StageGraph([BadStage()]))
        with pytest.raises(ValueError, match="not_a_field"):
            session.match()

    def test_minoaner_session_shortcut(self):
        kb1, kb2 = make_pair()
        session = MinoanER().session(kb1, kb2)
        assert session.match().pairs() == MinoanER().match(kb1, kb2).pairs()


# ----------------------------------------------------------------------
# Custom heuristics end-to-end
# ----------------------------------------------------------------------
class SameLocalnameHeuristic(Heuristic):
    """Toy H5: match entities whose URI localnames are identical."""

    name = "h5_localname"

    def produce(self, ctx, registry, engine):
        from repro.core.heuristics import Match

        by_localname = {}
        for uri2 in ctx.kb2.uris():
            by_localname.setdefault(uri2.rsplit("/", 1)[-1], []).append(uri2)
        matches = []
        for uri1 in ctx.kb1.uris():
            candidates = by_localname.get(uri1.rsplit("/", 1)[-1], [])
            if len(candidates) == 1 and registry.is_free(uri1, candidates[0]):
                registry.mark(uri1, candidates[0])
                matches.append(Match(uri1, candidates[0], "H5"))
        return matches


class ClaimingHeuristic(Heuristic):
    """A producer that marks fixed pairs and records the registry it
    found (class attributes, set by the test that registers it)."""

    name = "claim"
    claims: list = []
    found: list = []

    def produce(self, ctx, registry, engine):
        self.found.append((set(registry.matched1), set(registry.matched2)))
        matches = []
        for uri1, uri2 in self.claims:
            registry.mark(uri1, uri2)
            matches.append(Match(uri1, uri2, "C"))
        return matches


class TestCustomHeuristic:
    def make_localname_pair(self):
        kb1 = KnowledgeBase("A")
        kb1.new_entity("http://a.org/x1").add_literal("name", "alpha thing")
        kb1.new_entity("http://a.org/x2").add_literal("name", "beta thing")
        kb2 = KnowledgeBase("B")
        kb2.new_entity("http://b.org/x1").add_literal("label", "wholly different")
        kb2.new_entity("http://b.org/x2").add_literal("label", "unrelated words")
        return kb1, kb2

    def test_custom_heuristic_instance_in_builder(self):
        # a heuristic runs by registered name: the config can hash,
        # store and hand a name to the resolver, not an instance
        builder = MinoanER.builder().with_config(
            heuristics=("h1", SameLocalnameHeuristic())
        )
        with pytest.raises(RegistryError, match="unknown heuristic"):
            builder.build()

    def test_custom_heuristic_via_registry_name(self):
        HEURISTICS.register("h5_localname", SameLocalnameHeuristic)
        try:
            kb1, kb2 = self.make_localname_pair()
            matcher = (
                MinoanER.builder()
                .with_config(heuristics=("h1", "h2", "h5_localname"))
                .build()
            )
            result = matcher.match(kb1, kb2)
            assert result.pairs() == {
                ("http://a.org/x1", "http://b.org/x1"),
                ("http://a.org/x2", "http://b.org/x2"),
            }
            assert {m.heuristic for m in result.matches} == {"H5"}
        finally:
            HEURISTICS.unregister("h5_localname")

    def test_producer_listed_before_h2_and_h3_keeps_its_entities(self):
        """A custom producer listed before the built-in H2 and H3 — the
        order ``examples/custom_heuristic.py`` uses — keeps every KB1 and
        KB2 entity it marked away from them, entities they match without
        it included; one listed after them finds their matches marked."""
        data = generate_benchmark("restaurant", 1.0, 5)

        def pre_h4(*heuristics):
            config = MinoanERConfig(heuristics=heuristics)
            ctx = MatchSession(data.kb1, data.kb2, config).run_context()
            return ctx.get("pre_h4_matches")

        plain = pre_h4("h2", "h3", "h4")
        # each third match's KB1 entity beside the next one's KB2 entity:
        # claimed on both sides, and no pair the built-ins would make
        chosen = plain[::3]
        claims = [(a.uri1, b.uri2) for a, b in zip(chosen, chosen[1:])]
        claimed1 = {uri1 for uri1, _ in claims}
        claimed2 = {uri2 for _, uri2 in claims}
        for rung in ("H2", "H3"):
            built = [m for m in plain if m.heuristic == rung]
            assert claimed1 & {m.uri1 for m in built}, rung
            assert claimed2 & {m.uri2 for m in built}, rung
        HEURISTICS.register("claim", ClaimingHeuristic)
        ClaimingHeuristic.claims = claims
        ClaimingHeuristic.found = []
        try:
            before = pre_h4("claim", "h2", "h3", "h4")
            assert ClaimingHeuristic.found == [(set(), set())]
            assert [m.pair() for m in before[: len(claims)]] == claims
            for match in before[len(claims) :]:
                assert match.heuristic in ("H2", "H3")
                assert match.uri1 not in claimed1, match
                assert match.uri2 not in claimed2, match
            ClaimingHeuristic.found = []
            pre_h4("h2", "h3", "claim")
            assert ClaimingHeuristic.found == [
                ({m.uri1 for m in plain}, {m.uri2 for m in plain})
            ]
        finally:
            HEURISTICS.unregister("claim")

    def test_custom_heuristic_in_session_keyed_by_sequence(self):
        HEURISTICS.register("h5_localname", SameLocalnameHeuristic)
        try:
            kb1, kb2 = self.make_localname_pair()
            with_h5 = (
                MinoanER.builder()
                .with_config(heuristics=("h1", "h5_localname"))
                .session(kb1, kb2)
            )
            assert len(with_h5.match().matches) == 2
            # the list is part of the matching cache key: another order
            # re-runs the matching stage only
            with_h5.match(heuristics=("h5_localname", "h1"))
            assert with_h5.runs("matching") == 2
            assert with_h5.runs("neighbor_index") == 1
        finally:
            HEURISTICS.unregister("h5_localname")

    def test_matching_stage_reads_config_heuristics(self):
        stage = MatchingStage(MinoanERConfig(heuristics=("h1", "h2")))
        assert stage.requires == ("name_blocks", "value_index")
        assert stage.config_fields == ("theta", "heuristics")
        full = MatchingStage(MinoanERConfig())
        assert full.requires == (
            "name_blocks",
            "value_index",
            "neighbor_index",
        )
