"""End-to-end tests for the MinoanER pipeline on controlled inputs."""

import pytest

from repro.core import MinoanER, MinoanERConfig
from repro.kb import KnowledgeBase


def make_pair():
    """Three matched entities exercising H1, H2 and H3 respectively.

    - pair 0: unique shared name on both sides (H1)
    - pair 1: names differ, unique shared value token (H2)
    - pair 2: weak value overlap but matching neighbors (H3)
    """
    kb1 = KnowledgeBase("A")
    e0 = kb1.new_entity("a0")
    e0.add_literal("name", "unique venue")
    e1 = kb1.new_entity("a1")
    e1.add_literal("name", "first label")
    e1.add_literal("info", "zanzibar festival shared")
    e2 = kb1.new_entity("a2")
    e2.add_literal("name", "third thing")
    e2.add_literal("info", "shared mild")
    e2.add_relation("linked", "a0")

    kb2 = KnowledgeBase("B")
    f0 = kb2.new_entity("b0")
    f0.add_literal("name", "Unique Venue")
    f1 = kb2.new_entity("b1")
    f1.add_literal("name", "other label")
    f1.add_literal("notes", "zanzibar parade shared")
    f2 = kb2.new_entity("b2")
    f2.add_literal("name", "different name")
    f2.add_literal("notes", "shared calm")
    f2.add_relation("rel", "b0")
    return kb1, kb2


class TestPipeline:
    def test_finds_all_three_matches(self):
        result = MinoanER().match(*make_pair())
        assert result.pairs() == {("a0", "b0"), ("a1", "b1"), ("a2", "b2")}

    def test_heuristic_provenance(self):
        result = MinoanER().match(*make_pair())
        by_pair = {m.pair(): m.heuristic for m in result.matches}
        assert by_pair[("a0", "b0")] == "H1"
        assert by_pair[("a1", "b1")] == "H2"
        assert by_pair[("a2", "b2")] == "H3"

    def test_name_attribute_discovery(self):
        result = MinoanER().match(*make_pair())
        assert "name" in result.name_attributes1
        assert "name" in result.name_attributes2

    def test_as_mapping(self):
        result = MinoanER().match(*make_pair())
        assert result.as_mapping()["a1"] == "b1"

    def test_by_heuristic_counts(self):
        counts = MinoanER().match(*make_pair()).by_heuristic()
        assert counts == {"H1": 1, "H2": 1, "H3": 1}

    def test_one_shot_match_is_a_session_match(self):
        kb1, kb2 = make_pair()
        one_shot = MinoanER().match(kb1, kb2)
        session = MinoanER().session(kb1, kb2).match()
        assert [
            (m.uri1, m.uri2, m.heuristic, m.score) for m in one_shot.matches
        ] == [(m.uri1, m.uri2, m.heuristic, m.score) for m in session.matches]
        assert one_shot.pairs() == {("a0", "b0"), ("a1", "b1"), ("a2", "b2")}

    def test_seconds_recorded(self):
        assert MinoanER().match(*make_pair()).seconds > 0.0


class TestHeuristicToggles:
    def test_h1_disabled(self):
        config = MinoanERConfig(heuristics=("h2", "h3", "h4"))
        result = MinoanER(config).match(*make_pair())
        assert all(m.heuristic != "H1" for m in result.matches)

    def test_h3_only(self):
        config = MinoanERConfig(heuristics=("h3", "h4"))
        result = MinoanER(config).match(*make_pair())
        assert all(m.heuristic == "H3" for m in result.matches)
        # H3 alone still finds the name matches through token evidence
        assert ("a0", "b0") in result.pairs()

    def test_h4_disabled_keeps_pre_matches(self):
        config = MinoanERConfig(heuristics=("h1", "h2", "h3"))
        result = MinoanER(config).match(*make_pair())
        assert result.discarded_by_h4 == []
        assert result.matches == result.pre_h4_matches

    def test_purging_disabled(self):
        config = MinoanERConfig(purge_token_blocks=False)
        result = MinoanER(config).match(*make_pair())
        assert result.purging_report is None


class TestEdgeCases:
    def test_empty_kbs(self):
        result = MinoanER().match(KnowledgeBase("A"), KnowledgeBase("B"))
        assert result.matches == []

    def test_one_empty_side(self):
        kb1, _ = make_pair()
        result = MinoanER().match(kb1, KnowledgeBase("B"))
        assert result.matches == []

    def test_kb_without_literals(self):
        kb1 = KnowledgeBase("A")
        kb1.new_entity("a0").add_relation("r", "a0")
        kb2 = KnowledgeBase("B")
        kb2.new_entity("b0").add_relation("r", "b0")
        result = MinoanER().match(kb1, kb2)
        assert result.matches == []
