"""Token Blocking: one block per distinct token (schema-agnostic).

Token Blocking [6] places every entity in one block per distinct token of
its values, ignoring attribute names entirely.  It achieves very high
recall on heterogeneous Web data — any pair of matches sharing at least one
token co-occurs in some block — at the cost of many superfluous
comparisons, which Block Purging later bounds.
"""

from __future__ import annotations

from ..kb.entity import EntityDescription
from ..kb.knowledge_base import KnowledgeBase
from ..kb.tokenizer import Tokenizer
from .base import BlockCollection


def token_keys(entity: EntityDescription, tokenizer: Tokenizer) -> frozenset[str]:
    """The token-blocking keys of one entity: its distinct tokens."""
    return frozenset(tokenizer.token_set(entity))


def token_blocking(
    kb1: KnowledgeBase,
    kb2: KnowledgeBase,
    tokenizer: Tokenizer | None = None,
    name: str = "BT",
) -> BlockCollection:
    """Build the token blocks ``BT`` of two KBs (single-pass construction).

    Every distinct token of an entity's schema-agnostic token bag becomes a
    blocking key.  Blocks with entities from only one KB suggest no
    comparison in clean-clean ER and are dropped.

    The pipeline's ``token_blocking`` stage keys entities into a
    :class:`~repro.blocking.placements.PlacementTable` instead and must
    equal ``purge_blocks`` over this collection: this is its reference.
    """
    tokenizer = tokenizer or Tokenizer()
    blocks = BlockCollection(name)
    for side, kb in ((1, kb1), (2, kb2)):
        for entity in kb:
            for token in tokenizer.token_set(entity):
                blocks.place(token, entity.uri, side)
    return blocks.drop_empty()
