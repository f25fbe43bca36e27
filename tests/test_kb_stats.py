"""Unit tests for dataset statistics (Table I counters)."""

import pytest

from repro.kb import (
    EntityDescription,
    KnowledgeBase,
    Tokenizer,
    dataset_statistics,
    kb_statistics,
)


def make_kb():
    kb = KnowledgeBase("S")
    e1 = kb.new_entity("u1")
    e1.add_literal("name", "alpha beta")
    e1.add_literal("rdf:type", "Restaurant")
    e1.add_relation("addr", "u2")
    e2 = kb.new_entity("u2")
    e2.add_literal("street", "gamma")
    e2.add_literal("rdf:type", "Address")
    return kb


class TestKbStatistics:
    def test_entities_and_triples(self):
        stats = kb_statistics(make_kb())
        assert stats.entities == 2
        assert stats.triples == 5

    def test_types_counted_separately(self):
        stats = kb_statistics(make_kb())
        assert stats.types == 2

    def test_type_attribute_excluded_from_attributes(self):
        stats = kb_statistics(make_kb())
        assert stats.attributes == 2  # name, street

    def test_relations(self):
        assert kb_statistics(make_kb()).relations == 1

    def test_average_tokens_counts_type_values(self):
        # u1: alpha beta restaurant (3); u2: gamma address (2)
        stats = kb_statistics(make_kb())
        assert stats.average_tokens == pytest.approx(2.5)

    def test_as_row_rounds(self):
        row = kb_statistics(make_kb()).as_row()
        assert row["avg tokens"] == 2.5
        assert row["name"] == "S"


class TestDatasetStatistics:
    def test_combines_two_kbs(self):
        stats = dataset_statistics(make_kb(), make_kb(), n_matches=7)
        assert stats.kb1.entities == stats.kb2.entities == 2
        assert stats.matches == 7

    def test_custom_tokenizer(self):
        class LongTokens(Tokenizer):
            def tokens(self, entity):
                return [t for t in super().tokens(entity) if len(t) >= 6]

        stats = kb_statistics(make_kb(), LongTokens())
        # only "restaurant" and "address" have six or more characters
        assert stats.average_tokens == pytest.approx(1.0)

    def test_empty_kb(self):
        stats = kb_statistics(KnowledgeBase("E"))
        assert stats.entities == 0
        assert stats.average_tokens == 0.0
