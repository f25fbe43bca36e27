"""Unit and property tests for the schema-agnostic tokenizer."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.kb import EntityDescription, Tokenizer, tokenize_text


class TestTokenizeText:
    def test_lowercases(self):
        assert tokenize_text("Alan TURING") == ["alan", "turing"]

    def test_splits_punctuation(self):
        assert tokenize_text("Taj-Mahal, Agra (India)") == [
            "taj",
            "mahal",
            "agra",
            "india",
        ]

    def test_keeps_digits(self):
        assert tokenize_text("born 1912") == ["born", "1912"]

    def test_empty_string(self):
        assert tokenize_text("") == []

    def test_only_punctuation(self):
        assert tokenize_text("!!! --- ???") == []

    def test_min_length_filters(self):
        # the minimum token length is 1: no token is too short
        assert tokenize_text("a bb ccc") == ["a", "bb", "ccc"]

    @given(st.text(max_size=200))
    def test_tokens_are_lowercase_alnum(self, text):
        for token in tokenize_text(text):
            assert token == token.lower()
            assert token.isalnum()

    @given(st.text(max_size=200))
    def test_idempotent_under_rejoin(self, text):
        tokens = tokenize_text(text)
        assert tokenize_text(" ".join(tokens)) == tokens


def make_entity():
    entity = EntityDescription("u1")
    entity.add_literal("name", "Blue Note Cafe")
    entity.add_literal("city", "New York")
    entity.add_relation("in", "http://e.org/places/NewYorkCity")
    return entity


class TestTokenizer:
    def test_default_tokens(self):
        tokens = Tokenizer().tokens(make_entity())
        assert tokens == ["blue", "note", "cafe", "new", "york"]

    def test_token_set_deduplicates(self):
        entity = EntityDescription("u")
        entity.add_literal("a", "x y")
        entity.add_literal("b", "y z")
        assert Tokenizer().token_set(entity) == {"x", "y", "z"}

    def test_token_counts(self):
        entity = EntityDescription("u")
        entity.add_literal("a", "x y")
        entity.add_literal("b", "y z")
        counts = Tokenizer().token_counts(entity)
        assert counts["y"] == 2
        assert counts["x"] == 1

    def test_uri_localnames_disabled_by_default(self):
        tokens = Tokenizer().token_set(make_entity())
        assert "newyorkcity" not in tokens

    def test_min_length(self):
        entity = EntityDescription("u")
        entity.add_literal("a", "a bb ccc")
        assert Tokenizer().tokens(entity) == ["a", "bb", "ccc"]

    def test_min_length_validation(self):
        # the tokenizer has no settings: the length floor is a constant
        with pytest.raises(TypeError):
            Tokenizer(min_length=1)

    def test_repr(self):
        assert repr(Tokenizer()) == "Tokenizer()"


class TestCachedTokens:
    def test_memoizes_per_entity(self):
        tokenizer = Tokenizer()
        entity = EntityDescription("e1")
        entity.add_literal("name", "alpha beta")
        first = tokenizer.cached_tokens(entity)
        assert first == ("alpha", "beta")
        assert tokenizer.cached_tokens(entity) is first  # cache hit

    def test_clear_cache(self):
        tokenizer = Tokenizer()
        entity = EntityDescription("e1")
        entity.add_literal("name", "alpha")
        tokenizer.cached_tokens(entity)
        tokenizer.clear_cache()
        assert tokenizer._token_cache == {}

    def test_pickle_drops_cache(self):
        import pickle

        tokenizer = Tokenizer()
        entity = EntityDescription("e1")
        entity.add_literal("name", "the alpha")
        tokenizer.cached_tokens(entity)
        clone = pickle.loads(pickle.dumps(tokenizer))
        assert clone._token_cache == {}
        assert clone.cached_tokens(entity) == ("the", "alpha")
