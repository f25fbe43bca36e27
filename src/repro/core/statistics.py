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

from dataclasses import dataclass

from ..kb.entity import Literal, UriRef
from ..kb.graph import inverse
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


def _importance_table(
    kb: KnowledgeBase, want_literals: bool
) -> list[PredicateImportance]:
    """Importance of every literal attribute (or relation) of ``kb``."""
    n_entities = len(kb)
    if n_entities == 0:
        return []
    entities_with: dict[str, int] = {}
    distinct_objects: dict[str, set[str]] = {}
    for entity in kb:
        seen_here: set[str] = set()
        for predicate, value in entity:
            is_literal = isinstance(value, Literal)
            if is_literal != want_literals:
                continue
            obj = value.value if isinstance(value, Literal) else value.uri
            distinct_objects.setdefault(predicate, set()).add(obj)
            seen_here.add(predicate)
        for predicate in seen_here:
            entities_with[predicate] = entities_with.get(predicate, 0) + 1

    table = []
    for predicate, count in entities_with.items():
        support = count / n_entities
        discriminability = len(distinct_objects[predicate]) / count
        table.append(
            PredicateImportance(predicate, support, discriminability)
        )
    table.sort(key=lambda row: (-row.importance, row.predicate))
    return table


def attribute_importance(kb: KnowledgeBase) -> list[PredicateImportance]:
    """Importance of every literal-valued attribute, best first."""
    return _importance_table(kb, want_literals=True)


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
    n_entities = len(kb)
    if n_entities == 0:
        return []
    entities_with: dict[str, int] = {}
    distinct_objects: dict[str, set[str]] = {}

    def record(subject_uri: str, predicate: str, object_uri: str) -> None:
        distinct_objects.setdefault(predicate, set()).add(object_uri)
        per_entity.setdefault(subject_uri, set()).add(predicate)

    per_entity: dict[str, set[str]] = {}
    for entity in kb:
        for predicate, value in entity:
            if not isinstance(value, UriRef) or value.uri not in kb:
                continue
            record(entity.uri, predicate, value.uri)
            record(value.uri, inverse(predicate), entity.uri)
    for predicates in per_entity.values():
        for predicate in predicates:
            entities_with[predicate] = entities_with.get(predicate, 0) + 1

    table = []
    for predicate, count in entities_with.items():
        support = count / n_entities
        discriminability = len(distinct_objects[predicate]) / count
        table.append(PredicateImportance(predicate, support, discriminability))
    table.sort(key=lambda row: (-row.importance, row.predicate))
    return table


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
