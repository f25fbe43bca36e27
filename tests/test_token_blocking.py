"""Unit and property tests for Token Blocking."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blocking import token_blocking
from repro.kb import EntityDescription, KnowledgeBase, Tokenizer


def kb_from_texts(name, texts, prefix):
    kb = KnowledgeBase(name)
    for index, text in enumerate(texts):
        entity = kb.new_entity(f"{prefix}{index}")
        entity.add_literal("value", text)
    return kb


class LongTokens(Tokenizer):
    """A caller's own tokenizer: only tokens of three or more characters."""

    def tokens(self, entity):
        return [token for token in super().tokens(entity) if len(token) >= 3]


class TestTokenBlocking:
    def test_one_block_per_shared_token(self):
        kb1 = kb_from_texts("A", ["red car", "blue bike"], "a")
        kb2 = kb_from_texts("B", ["red bus"], "b")
        blocks = token_blocking(kb1, kb2)
        assert set(blocks.keys()) == {"red"}

    def test_entities_with_token_are_in_block(self):
        kb1 = kb_from_texts("A", ["red car", "red hat"], "a")
        kb2 = kb_from_texts("B", ["red bus"], "b")
        blocks = token_blocking(kb1, kb2)
        assert blocks["red"].entities1 == {"a0", "a1"}
        assert blocks["red"].entities2 == {"b0"}

    def test_one_sided_blocks_dropped(self):
        kb1 = kb_from_texts("A", ["solo"], "a")
        kb2 = kb_from_texts("B", ["other"], "b")
        assert len(token_blocking(kb1, kb2)) == 0

    def test_respects_tokenizer(self):
        kb1 = kb_from_texts("A", ["ab x"], "a")
        kb2 = kb_from_texts("B", ["ab y"], "b")
        blocks = token_blocking(kb1, kb2, LongTokens())
        assert len(blocks) == 0

    texts = st.lists(
        st.lists(
            st.sampled_from("alpha beta gamma delta epsilon zeta".split()),
            min_size=1,
            max_size=4,
        ).map(" ".join),
        min_size=1,
        max_size=6,
    )

    @given(texts, texts)
    @settings(max_examples=40, deadline=None)
    def test_completeness_property(self, texts1, texts2):
        """Any cross-KB pair sharing a token co-occurs in some block."""
        kb1 = kb_from_texts("A", texts1, "a")
        kb2 = kb_from_texts("B", texts2, "b")
        blocks = token_blocking(kb1, kb2)
        tokenizer = Tokenizer()
        suggested = blocks.distinct_pairs()
        for e1 in kb1:
            for e2 in kb2:
                shares = bool(
                    tokenizer.token_set(e1) & tokenizer.token_set(e2)
                )
                assert shares == ((e1.uri, e2.uri) in suggested)

    @given(texts, texts)
    @settings(max_examples=20, deadline=None)
    def test_block_sizes_are_entity_frequencies(self, texts1, texts2):
        """|block t| per side equals EF(t) — the valueSim weighting input."""
        kb1 = kb_from_texts("A", texts1, "a")
        kb2 = kb_from_texts("B", texts2, "b")
        blocks = token_blocking(kb1, kb2)
        ef1 = kb1.entity_frequencies(Tokenizer())
        ef2 = kb2.entity_frequencies(Tokenizer())
        for block in blocks:
            assert len(block.entities1) == ef1[block.key]
            assert len(block.entities2) == ef2[block.key]
