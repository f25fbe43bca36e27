"""Property-based tests for the textsim measures (hypothesis).

Every similarity measure in :mod:`repro.textsim` promises some mix of:
symmetry, bounds in [0, 1], identity (``sim(x, x) == 1``), and — for
the tokenizer — idempotence.  Hand-picked examples cannot sweep the
edge space (empty inputs, single characters, repeated tokens, extreme
weights); these properties do.  Runs are deterministic under the
``ci`` hypothesis profile registered in ``conftest.py``.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.kb.tokenizer import Tokenizer, tokenize_text
from repro.blocking.name_blocking import normalize_name
from repro.kb import KnowledgeBase
from repro.textsim import (
    arcs_token_weight,
    character_qgrams,
    containment,
    cosine,
    cosine_sets,
    dice,
    generalized_jaccard,
    jaccard,
    jaro,
    jaro_winkler,
    levenshtein_distance,
    levenshtein_similarity,
    monge_elkan,
    overlap,
    sigma_similarity,
    symmetric_monge_elkan,
    token_ngrams,
)

# Compact strategies: small alphabets find collisions/overlaps far more
# often than full unicode, which is what exercises the interesting
# branches of set/string measures.
token = st.text(alphabet="abc01", min_size=1, max_size=4)
token_set = st.sets(token, max_size=8)
token_list = st.lists(token, max_size=8)
word = st.text(max_size=12)
weight = st.floats(
    min_value=1e-3, max_value=1e6, allow_nan=False, allow_infinity=False
)
weights = st.dictionaries(token, weight, max_size=8)

SET_MEASURES = [jaccard, dice, overlap, cosine_sets, containment]


class TestSetMeasures:
    @given(a=token_set, b=token_set)
    def test_bounds(self, a, b):
        for measure in SET_MEASURES:
            assert 0.0 <= measure(a, b) <= 1.0

    @given(a=token_set, b=token_set)
    def test_symmetry(self, a, b):
        for measure in (jaccard, dice, overlap, cosine_sets):
            assert measure(a, b) == measure(b, a)

    @given(a=token_set)
    def test_identity(self, a):
        for measure in SET_MEASURES:
            assert measure(a, a) == 1.0

    @given(a=token_set, b=token_set)
    def test_disjoint_sets_score_zero(self, a, b):
        disjoint_b = {item + "|x" for item in b}
        if a and disjoint_b:
            assert jaccard(a, disjoint_b) == 0.0

    @given(a=weights, b=weights)
    def test_generalized_jaccard_bounds_and_symmetry(self, a, b):
        score = generalized_jaccard(a, b)
        assert 0.0 <= score <= 1.0
        assert score == pytest.approx(generalized_jaccard(b, a), rel=1e-9)

    @given(a=weights)
    def test_generalized_jaccard_identity(self, a):
        assert generalized_jaccard(a, a) == pytest.approx(1.0)


class TestStringMeasures:
    @given(a=word, b=word)
    def test_levenshtein_similarity_bounds_and_symmetry(self, a, b):
        assert 0.0 <= levenshtein_similarity(a, b) <= 1.0
        assert levenshtein_distance(a, b) == levenshtein_distance(b, a)

    @given(a=word)
    def test_levenshtein_identity(self, a):
        assert levenshtein_distance(a, a) == 0
        assert levenshtein_similarity(a, a) == 1.0

    @given(a=word, b=word)
    def test_levenshtein_triangle_with_empty(self, a, b):
        # distance can never exceed replacing everything + length gap
        assert levenshtein_distance(a, b) <= max(len(a), len(b))

    @given(a=word, b=word)
    def test_jaro_bounds_and_symmetry(self, a, b):
        score = jaro(a, b)
        assert 0.0 <= score <= 1.0
        assert score == pytest.approx(jaro(b, a), rel=1e-9)

    @given(a=word)
    def test_jaro_identity(self, a):
        assert jaro(a, a) == 1.0

    @given(a=word, b=word)
    def test_jaro_winkler_bounds_and_dominance(self, a, b):
        base = jaro(a, b)
        boosted = jaro_winkler(a, b)
        assert 0.0 <= boosted <= 1.0
        assert boosted >= base - 1e-12  # prefix boost never hurts

    @given(a=token_list, b=token_list)
    def test_monge_elkan_bounds(self, a, b):
        assert 0.0 <= monge_elkan(a, b) <= 1.0 + 1e-12

    @given(a=token_list, b=token_list)
    def test_symmetric_monge_elkan_symmetry(self, a, b):
        assert symmetric_monge_elkan(a, b) == pytest.approx(
            symmetric_monge_elkan(b, a), rel=1e-9
        )


class TestVectorAndWeightedMeasures:
    @given(a=weights, b=weights)
    def test_cosine_bounds_and_symmetry(self, a, b):
        score = cosine(a, b)
        assert 0.0 <= score <= 1.0
        assert score == pytest.approx(cosine(b, a), rel=1e-9)

    @given(a=weights)
    def test_cosine_identity(self, a):
        assert cosine(a, a) == pytest.approx(1.0)

    @given(ef1=st.integers(1, 10**9), ef2=st.integers(1, 10**9))
    def test_arcs_token_weight_bounds(self, ef1, ef2):
        w = arcs_token_weight(ef1, ef2)
        assert 0.0 < w <= 1.0
        # unique-in-both-KBs tokens contribute exactly 1.0 (H2's rule)
        assert arcs_token_weight(1, 1) == 1.0

    @given(a=weights, b=weights)
    def test_sigma_bounds_and_symmetry(self, a, b):
        score = sigma_similarity(a, b)
        assert 0.0 <= score <= 1.0
        assert score == pytest.approx(sigma_similarity(b, a), rel=1e-9)


class TestTokenizerProperties:
    @given(text=word)
    def test_tokenize_idempotent(self, text):
        tokens = tokenize_text(text)
        assert tokenize_text(" ".join(tokens)) == tokens

    @given(text=word)
    def test_tokens_lowercase_and_min_length(self, text):
        for tok in tokenize_text(text):
            assert tok == tok.lower()
            assert len(tok) >= 1

    @given(name=word)
    def test_normalize_name_idempotent(self, name):
        once = normalize_name(name)
        assert normalize_name(once) == once

    @given(values=st.lists(word, max_size=4))
    def test_token_set_equals_distinct_tokens(self, values):
        kb = KnowledgeBase("T")
        entity = kb.new_entity("e")
        for index, value in enumerate(values):
            entity.add_literal(f"attr{index}", value)
        tokenizer = Tokenizer()
        assert tokenizer.token_set(entity) == set(tokenizer.tokens(entity))
        # the memoized bag equals the fresh bag
        assert list(tokenizer.cached_tokens(entity)) == tokenizer.tokens(entity)

    @given(tokens=token_list, n=st.integers(1, 4))
    def test_token_ngrams_count(self, tokens, n):
        grams = token_ngrams(tokens, n)
        assert len(grams) == max(0, len(tokens) - n + 1)

    @given(text=word, q=st.integers(1, 4))
    def test_character_qgrams_cover_text(self, text, q):
        grams = character_qgrams(text, q)
        assert all(len(g) == q for g in grams)
        assert len(grams) == max(0, len(text) - q + 1)
