"""Unit and property tests for the block-derived value similarity."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    candidates_of_entity2,
    decoded_pairs,
    h2_walk,
    pair_similarity,
)
from repro.blocking import token_blocking
from repro.core import block_token_weight
from repro.engine import build_value_index
from repro.kb import KnowledgeBase, Tokenizer
from repro.textsim import arcs_similarity


def kb_from_texts(name, texts, prefix):
    kb = KnowledgeBase(name)
    for index, text in enumerate(texts):
        entity = kb.new_entity(f"{prefix}{index}")
        entity.add_literal("value", text)
    return kb


def build_index(texts1, texts2):
    kb1 = kb_from_texts("A", texts1, "a")
    kb2 = kb_from_texts("B", texts2, "b")
    blocks = token_blocking(kb1, kb2)
    return kb1, kb2, build_value_index(blocks)


class TestBlockTokenWeight:
    def test_equals_arcs_weight(self):
        assert block_token_weight(1, 1) == pytest.approx(1.0)
        assert block_token_weight(3, 1) == pytest.approx(0.5)


class TestValueSimilarityIndex:
    def test_unique_shared_token_scores_one(self):
        _, _, index = build_index(["zebra stripe"], ["zebra dot"])
        assert pair_similarity(index, "a0", "b0") == pytest.approx(1.0)

    def test_no_shared_token_is_zero(self):
        _, _, index = build_index(["alpha"], ["beta"])
        assert pair_similarity(index, "a0", "b0") == 0.0

    def test_candidates_sorted_descending(self):
        _, _, index = build_index(
            ["red zebra"], ["red cat", "red zebra", "dog"]
        )
        ranked = index.candidates_of_entity1("a0")
        assert ranked[0][0] == "b1"
        sims = [s for _, s in ranked]
        assert sims == sorted(sims, reverse=True)

    def test_best_candidate_excludes(self):
        _, _, index = build_index(["red zebra"], ["red cat", "red zebra"])
        best = h2_walk(index, "a0", taken={"b1"})
        assert best[0] == "b0"

    def test_best_candidate_none_when_all_excluded(self):
        _, _, index = build_index(["red"], ["red"])
        assert h2_walk(index, "a0", taken={"b0"}) is None

    def test_candidates_of_entity2(self):
        _, _, index = build_index(["red a", "red b"], ["red c"])
        ranked = candidates_of_entity2(index, "b0")
        assert {uri for uri, _ in ranked} == {"a0", "a1"}

    def test_top_k_limits(self):
        _, _, index = build_index(["red"], ["red x", "red y", "red z"])
        assert len(index.candidates_of_entity1("a0", k=2)) == 2

    texts = st.lists(
        st.lists(
            st.sampled_from("one two three four five six".split()),
            min_size=1,
            max_size=5,
        ).map(" ".join),
        min_size=1,
        max_size=5,
    )

    @given(texts, texts)
    @settings(max_examples=30, deadline=None)
    def test_matches_brute_force_arcs(self, texts1, texts2):
        """Block-walk accumulation equals the paper's formula directly."""
        kb1, kb2, index = build_index(texts1, texts2)
        tokenizer = Tokenizer()
        ef1 = kb1.entity_frequencies(tokenizer)
        ef2 = kb2.entity_frequencies(tokenizer)
        for e1 in kb1:
            for e2 in kb2:
                # restrict EF tables to tokens present in both KBs, matching
                # the dropped one-sided blocks
                shared = tokenizer.token_set(e1) & tokenizer.token_set(e2)
                expected = arcs_similarity(shared, shared, ef1, ef2)
                assert pair_similarity(index, e1.uri, e2.uri) == pytest.approx(
                    expected
                )

    @given(texts, texts)
    @settings(max_examples=20, deadline=None)
    def test_symmetry_across_sides(self, texts1, texts2):
        _, _, index = build_index(texts1, texts2)
        for (u1, u2), sim in decoded_pairs(index).items():
            assert dict(candidates_of_entity2(index, u2))[u1] == sim
