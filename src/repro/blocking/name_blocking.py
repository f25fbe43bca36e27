"""Name Blocking: whole entity names as blocking keys.

H1 treats the entire (normalized) name of an entity as a blocking key,
yielding the block set ``BN``.  Names are the literal values of the top-k
most *important* attributes per KB — importance being the harmonic mean of
support and discriminability, computed in :mod:`repro.core.statistics`.
This module only needs a per-entity name extractor, keeping it independent
of how names were discovered.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from ..kb.entity import EntityDescription
from ..kb.knowledge_base import KnowledgeBase
from ..kb.tokenizer import tokenize_text
from .base import Block, BlockCollection

NameExtractor = Callable[[EntityDescription], Iterable[str]]


def normalize_name(name: str) -> str:
    """Canonical form of a name used as a blocking key.

    Lower-cased, tokenized, token-sorted and re-joined with single spaces,
    so that punctuation, whitespace and token-order variations of the same
    name collide ("Smith, John" vs "John Smith" — a pervasive formatting
    divergence between Web KBs):

    >>> normalize_name(" The  Taj-Mahal ")
    'mahal taj the'
    >>> normalize_name("Smith, John") == normalize_name("John Smith")
    True
    """
    return " ".join(sorted(tokenize_text(name)))


@dataclass(frozen=True)
class AttributeNameExtractor:
    """Reads names from the literal values of a fixed attribute list.

    A callable class rather than a closure, so that two extractors over
    the same attributes compare (and pickle) by that list.
    """

    attributes: tuple[str, ...]

    def __call__(self, entity: EntityDescription) -> list[str]:
        names: list[str] = []
        for attribute in self.attributes:
            names.extend(entity.literals_of(attribute))
        return names


def names_from_attributes(
    attributes: Iterable[str],
) -> NameExtractor:
    """A name extractor reading the literal values of given attributes."""
    return AttributeNameExtractor(tuple(attributes))


def name_keys(
    entity: EntityDescription, extractor: NameExtractor
) -> frozenset[str]:
    """The name-blocking keys of one entity: its non-empty normalized names."""
    return frozenset(
        key for key in map(normalize_name, extractor(entity)) if key
    )


def name_blocking(
    kb1: KnowledgeBase,
    kb2: KnowledgeBase,
    extractor1: NameExtractor,
    extractor2: NameExtractor,
    name: str = "BN",
) -> BlockCollection:
    """Build the name blocks ``BN`` of two KBs.

    Each normalized name of an entity is a key; empty names are skipped.
    Blocks whose entities come from a single KB are dropped (no comparison).
    """
    blocks = BlockCollection(name)
    for side, kb, extractor in ((1, kb1, extractor1), (2, kb2, extractor2)):
        for entity in kb:
            for key in name_keys(entity, extractor):
                blocks.place(key, entity.uri, side)
    return blocks.drop_empty()


def unique_match_blocks(blocks: BlockCollection) -> list[Block]:
    """Blocks holding exactly one entity from each KB.

    These are the blocks H1 interprets as matches: two entities match if
    they, and only they, share a name.
    """
    return [
        block
        for block in blocks
        if len(block.entities1) == 1 and len(block.entities2) == 1
    ]
