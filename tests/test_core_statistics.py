"""Unit tests for attribute/relation importance discovery."""

import pytest

from repro.core import (
    attribute_importance,
    relation_importance,
    top_name_attributes,
    top_relations,
)
from repro.kb import KnowledgeBase


def make_kb():
    """A KB where 'name' is clearly the best name attribute.

    - name: on all 4 entities, all distinct  -> support 1, disc 1
    - color: on all 4 entities, one value    -> support 1, disc 1/4
    - serial: on 1 entity, distinct          -> support 1/4, disc 1
    """
    kb = KnowledgeBase("S")
    for index in range(4):
        entity = kb.new_entity(f"u{index}")
        entity.add_literal("name", f"unique name {index}")
        entity.add_literal("color", "red")
    kb["u0"].add_literal("serial", "s-001")
    # relations: 'likes' everywhere but concentrated; 'knows' selective
    kb["u0"].add_relation("likes", "u1")
    kb["u1"].add_relation("likes", "u1")
    kb["u2"].add_relation("likes", "u1")
    kb["u0"].add_relation("knows", "u2")
    kb["u1"].add_relation("knows", "u3")
    return kb


class TestAttributeImportance:
    def test_importance_is_harmonic_mean(self):
        table = {row.predicate: row for row in attribute_importance(make_kb())}
        name = table["name"]
        assert name.support == 1.0
        assert name.discriminability == 1.0
        assert name.importance == pytest.approx(1.0)

    def test_frequent_constant_attribute_scores_low(self):
        table = {row.predicate: row for row in attribute_importance(make_kb())}
        color = table["color"]
        assert color.importance == pytest.approx(2 * 1 * 0.25 / 1.25)

    def test_rare_distinct_attribute_scores_low(self):
        table = {row.predicate: row for row in attribute_importance(make_kb())}
        serial = table["serial"]
        assert serial.importance == pytest.approx(2 * 0.25 * 1 / 1.25)

    def test_sorted_best_first(self):
        table = attribute_importance(make_kb())
        assert table[0].predicate == "name"

    def test_empty_kb(self):
        assert attribute_importance(KnowledgeBase()) == []


class TestTopNameAttributes:
    def test_top_k(self):
        assert top_name_attributes(make_kb(), 1) == ["name"]

    def test_k_zero(self):
        assert top_name_attributes(make_kb(), 0) == []

    def test_k_larger_than_attributes(self):
        assert len(top_name_attributes(make_kb(), 10)) == 3


class TestRelationImportance:
    def test_knows_beats_likes(self):
        # likes: support 3/4, distinct objects 1 -> disc 1/3
        # knows: support 2/4, distinct objects 2 -> disc 1
        table = relation_importance(make_kb())
        assert table[0].predicate == "knows"

    def test_incoming_direction_included(self):
        table = {row.predicate for row in relation_importance(make_kb())}
        assert table == {"likes", "knows", "~likes", "~knows"}

    def test_dangling_edges_ignored(self):
        kb = KnowledgeBase()
        entity = kb.new_entity("u")
        entity.add_relation("r", "missing")
        assert relation_importance(kb) == []

    def test_top_relations(self):
        assert top_relations(make_kb(), 1) == ["knows"]

    def test_top_relations_zero(self):
        assert top_relations(make_kb(), 0) == []

    def test_top_relations_incoming(self):
        names = top_relations(make_kb(), 4)
        assert any(name.startswith("~") for name in names)
