"""Schema-agnostic tokenization of entity descriptions.

MinoanER treats a description as a *bag of tokens*: the words appearing in
its literal values, regardless of which attribute carries them.  This module
provides the single tokenizer used across blocking, value similarity and the
BSL baseline, so that every component sees the same token universe.
"""

from __future__ import annotations

import re
from collections import Counter

from .entity import EntityDescription

_TOKEN_PATTERN = re.compile(r"[a-z0-9]+")


def tokenize_text(text: str) -> list[str]:
    """Split ``text`` into lower-cased alphanumeric tokens.

    >>> tokenize_text("The Taj-Mahal, Agra (India)")
    ['the', 'taj', 'mahal', 'agra', 'india']
    """
    return _TOKEN_PATTERN.findall(text.lower())


class Tokenizer:
    """Extracts the schema-agnostic token bag of an entity description:
    the tokens of its literal values.  URI-valued objects contribute no
    tokens (they are neighbor evidence), and no token is dropped — the
    pipeline relies on Block Purging instead of stop-word lists or a
    length floor, as in the paper.
    """

    def __init__(self) -> None:
        # Per-entity token-bag memo keyed by object identity; the stored
        # entity reference both pins the id and detects stale reuse.
        self._token_cache: dict[
            int, tuple[EntityDescription, tuple[str, ...]]
        ] = {}

    def tokens(self, entity: EntityDescription) -> list[str]:
        """The token bag of ``entity`` (duplicates preserved)."""
        collected: list[str] = []
        for _, text in entity.literal_pairs():
            collected.extend(tokenize_text(text))
        return collected

    def token_set(self, entity: EntityDescription) -> set[str]:
        """The distinct tokens of ``entity``."""
        return set(self.tokens(entity))

    def token_counts(self, entity: EntityDescription) -> Counter[str]:
        """Token multiplicities of ``entity`` (term frequencies)."""
        return Counter(self.tokens(entity))

    def cached_tokens(self, entity: EntityDescription) -> tuple[str, ...]:
        """The token bag of ``entity``, memoized per tokenizer.

        Descriptions are immutable in practice once loaded, so passes
        that revisit entities with one tokenizer — BSL's grid search
        tokenizes both KBs once per (n-gram, weighting, similarity)
        point — pay the tokenization exactly once.  Mutating an entity
        after it was cached will not be observed; use
        :meth:`clear_cache` in that case.
        """
        key = id(entity)
        hit = self._token_cache.get(key)
        if hit is not None and hit[0] is entity:
            return hit[1]
        bag = tuple(self.tokens(entity))
        self._token_cache[key] = (entity, bag)
        return bag

    def clear_cache(self) -> None:
        """Drop all memoized token bags."""
        self._token_cache.clear()

    def __getstate__(self) -> dict:
        # The memo is an identity-keyed local cache: ids are meaningless
        # in another process, so pickles (for process executors) drop it.
        state = self.__dict__.copy()
        state["_token_cache"] = {}
        return state

    def __repr__(self) -> str:
        return "Tokenizer()"
