"""Unit tests for the four matching heuristics H1-H4."""

import pytest

from repro.blocking import (
    name_blocking,
    names_from_attributes,
    token_blocking,
)
from repro.core import (
    CandidateIndex,
    Match,
    MatchedRegistry,
    h1_name_matches,
    h2_value_matches,
    h3_rank_aggregation_matches,
    h4_reciprocity_filter,
)
from repro.engine import build_neighbor_index, build_value_index
from repro.kb import KnowledgeBase


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
        matches = h2_value_matches(kb1.uris(), index, registry)
        assert [m.pair() for m in matches] == [("a0", "b0")]
        assert matches[0].score >= 1.0

    def test_below_threshold_does_not_fire(self):
        # token shared by many entities on each side -> low weight
        kb1, _, index = self.build(["common x1", "common x2", "common x3"],
                                   ["common y1", "common y2", "common y3"])
        matches = h2_value_matches(["a0"], index, MatchedRegistry())
        assert matches == []

    def test_matched_e2_excluded(self):
        kb1, _, index = self.build(
            ["zebra uniq1", "zebra uniq2"], ["zebra uniq1 uniq2"]
        )
        registry = MatchedRegistry()
        first = h2_value_matches(kb1.uris(), index, registry)
        # both a0 and a1 reach vmax >= 1 against b0 (a shared unique
        # token each), but only one of them can take it
        assert len(first) == 1

    def test_matched_e1_skipped(self):
        kb1, _, index = self.build(["zebra a"], ["zebra c"])
        registry = MatchedRegistry()
        registry.mark("a0", "bZ")
        assert h2_value_matches(kb1.uris(), index, registry) == []


class TestH3:
    def build_index(self, texts1, texts2, k=5):
        kb1 = kb_with("A", [("", t) for t in texts1], "a")
        kb2 = kb_with("B", [("", t) for t in texts2], "b")
        value_index = build_value_index(token_blocking(kb1, kb2))
        neighbor_index = build_neighbor_index(value_index, {}, {})
        return kb1, CandidateIndex(value_index, neighbor_index, k=k)

    def test_top_value_candidate_matched(self):
        kb1, candidates = self.build_index(
            ["red zebra"], ["red", "red zebra"]
        )
        registry = MatchedRegistry()
        matches = h3_rank_aggregation_matches(
            kb1.uris(), candidates, 0.6, registry
        )
        assert [m.pair() for m in matches] == [("a0", "b1")]
        assert matches[0].heuristic == "H3"

    def test_no_candidates_no_match(self):
        kb1, candidates = self.build_index(["solo"], ["other"])
        assert (
            h3_rank_aggregation_matches(kb1.uris(), candidates, 0.6, MatchedRegistry())
            == []
        )

    def test_matched_candidates_filtered(self):
        kb1, candidates = self.build_index(["red zebra"], ["red zebra", "red"])
        registry = MatchedRegistry()
        registry.mark("aX", "b0")  # best candidate already taken
        matches = h3_rank_aggregation_matches(
            kb1.uris(), candidates, 0.6, registry
        )
        assert [m.pair() for m in matches] == [("a0", "b1")]


class TestH4:
    def test_keeps_reciprocal(self):
        kb1 = kb_with("A", [("", "zebra x")], "a")
        kb2 = kb_with("B", [("", "zebra y")], "b")
        value_index = build_value_index(token_blocking(kb1, kb2))
        candidates = CandidateIndex(
            value_index, build_neighbor_index(value_index, {}, {}), k=3
        )
        kept, discarded = h4_reciprocity_filter(
            [Match("a0", "b0", "H2", 1.0)], candidates
        )
        assert len(kept) == 1 and discarded == []

    def test_discards_non_reciprocal(self):
        kb1 = kb_with("A", [("", "zebra x")], "a")
        kb2 = kb_with("B", [("", "unrelated")], "b")
        value_index = build_value_index(token_blocking(kb1, kb2))
        candidates = CandidateIndex(
            value_index, build_neighbor_index(value_index, {}, {}), k=3
        )
        kept, discarded = h4_reciprocity_filter(
            [Match("a0", "b0", "H1", 1.0)], candidates
        )
        assert kept == [] and len(discarded) == 1


class TestMatchedRegistry:
    def test_mark_and_is_free(self):
        registry = MatchedRegistry()
        assert registry.is_free("a", "b")
        registry.mark("a", "b")
        assert not registry.is_free("a", "x")
        assert not registry.is_free("y", "b")
        assert registry.is_free("y", "x")
