"""Data-driven discovery of name attributes and important relations.

MinoanER requires no schema knowledge: which attributes act as entity
*names* and which relations matter for neighbor evidence are both inferred
from two simple per-KB statistics:

- **support(p)** — the fraction of the KB's entities whose description
  contains predicate ``p``;
- **discriminability(p)** — the number of distinct objects of ``p``
  divided by the number of entities containing ``p``.

The *importance* of ``p`` is the harmonic mean of the two: a good name
attribute (or relation) is both widespread and nearly unique per entity.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Mapping

from ..kb.entity import Literal
from ..kb.graph import NeighborIndex
from ..kb.knowledge_base import KnowledgeBase


@dataclass(frozen=True)
class PredicateImportance:
    """Support, discriminability and their harmonic mean for a predicate."""

    predicate: str
    support: float
    discriminability: float

    @property
    def importance(self) -> float:
        """Harmonic mean of support and discriminability."""
        total = self.support + self.discriminability
        if total == 0.0:
            return 0.0
        return 2.0 * self.support * self.discriminability / total


def _ranked(
    n_entities: int, entities_with: Mapping[str, int], n_objects: Mapping[str, int]
) -> list[PredicateImportance]:
    """The importance rows of the predicates carried by
    ``entities_with[p]`` entities with ``n_objects[p]`` distinct
    objects, best first."""
    table = [
        PredicateImportance(p, count / n_entities, n_objects[p] / count)
        for p, count in entities_with.items()
    ]
    table.sort(key=lambda row: (-row.importance, row.predicate))
    return table


def attribute_importance(kb: KnowledgeBase) -> list[PredicateImportance]:
    """Importance of every literal-valued attribute, best first."""
    entities_with: dict[str, int] = {}
    distinct_objects: dict[str, set[str]] = {}
    for entity in kb:
        seen_here: set[str] = set()
        for predicate, value in entity:
            if isinstance(value, Literal):
                distinct_objects.setdefault(predicate, set()).add(value.value)
                seen_here.add(predicate)
        for predicate in seen_here:
            entities_with[predicate] = entities_with.get(predicate, 0) + 1
    n_objects = {p: len(objects) for p, objects in distinct_objects.items()}
    return _ranked(len(kb), entities_with, n_objects)


def relation_importance(kb: KnowledgeBase) -> list[PredicateImportance]:
    """Importance of every URI-valued relation, best first.

    Only edges pointing at entities of the same KB count — dangling URI
    objects behave like opaque identifiers, not graph structure.  Every
    relation is also scored in its inverse direction (named
    ``~relation``, as in :mod:`repro.kb.graph`), whose support is the
    fraction of entities *receiving* the relation and
    discriminability the diversity of their in-neighbors.  Entities that
    are only ever objects (e.g. the persons movies point at) get their
    neighbor evidence through these inverse relations.
    """
    return relation_table(NeighborIndex(kb, include_incoming=True))


def relation_table(graph: NeighborIndex) -> list[PredicateImportance]:
    """:func:`relation_importance` of ``graph.kb``, read off its graph
    (built with ``include_incoming``): its edges' distinct ``(entity,
    relation)`` and ``(relation, target)`` pairs."""
    edges = [
        (entity.uri, relation, target)
        for entity in graph.kb
        for relation, target in graph.neighbors(entity.uri)
    ]
    return _ranked(
        len(graph.kb),
        Counter(relation for _, relation in {(u, r) for u, r, _ in edges}),
        Counter(relation for relation, _ in {(r, t) for _, r, t in edges}),
    )


def top_name_attributes(kb: KnowledgeBase, k: int) -> list[str]:
    """The k most important literal attributes — the KB's name attributes.

    The paper motivates this as discovering "the most distinctive
    attributes that could serve as names of entities beyond rdfs:label",
    which is not always present in Web data.
    """
    if k <= 0:
        return []
    return [row.predicate for row in attribute_importance(kb)[:k]]


def top_relations(kb: KnowledgeBase, n: int) -> list[str]:
    """The n most important relations of the KB (neighbor evidence).

    Forward and inverse relations compete in the same ranking (inverse
    names are ``~``-tagged).
    """
    if n <= 0:
        return []
    return [row.predicate for row in relation_importance(kb)[:n]]
