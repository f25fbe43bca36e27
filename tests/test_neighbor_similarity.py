"""Unit tests for top-neighbor selection and neighbor similarity."""

import pytest
from oracles import candidates_of_entity2, pair_similarity

from repro.blocking import token_blocking
from repro.core import top_neighbors
from repro.engine import build_neighbor_index, build_value_index
from repro.kb import KnowledgeBase


def make_pair():
    """Two tiny movie KBs with matching neighbor structure.

    m{1,2} movies, p{1,2} persons; movie names are opaque, persons share
    distinctive name tokens — neighbor similarity must identify m-pairs.
    """
    kb1 = KnowledgeBase("A")
    for uri, name in (("am1", "rec one"), ("am2", "rec two")):
        kb1.new_entity(uri).add_literal("label", name)
    for uri, name in (("ap1", "karel novak"), ("ap2", "emma stone")):
        kb1.new_entity(uri).add_literal("label", name)
    kb1["am1"].add_relation("cast", "ap1")
    kb1["am2"].add_relation("cast", "ap2")

    kb2 = KnowledgeBase("B")
    for uri, name in (("bm1", "item x"), ("bm2", "item y")):
        kb2.new_entity(uri).add_literal("title", name)
    for uri, name in (("bp1", "karel novak"), ("bp2", "emma stone")):
        kb2.new_entity(uri).add_literal("title", name)
    kb2["bm1"].add_relation("stars", "bp1")
    kb2["bm2"].add_relation("stars", "bp2")
    return kb1, kb2


def build_indices():
    kb1, kb2 = make_pair()
    blocks = token_blocking(kb1, kb2)
    value_index = build_value_index(blocks)
    tn1 = top_neighbors(kb1, ["cast"])
    tn2 = top_neighbors(kb2, ["stars"])
    return value_index, tn1, tn2


class TestTopNeighbors:
    def test_collects_targets_of_selected_relations(self):
        kb1, _ = make_pair()
        tn = top_neighbors(kb1, ["cast"])
        assert tn["am1"] == {"ap1"}

    def test_entities_without_edges_absent(self):
        kb1, _ = make_pair()
        tn = top_neighbors(kb1, ["cast"])
        assert "ap1" not in tn

    def test_incoming_direction(self):
        kb1, _ = make_pair()
        tn = top_neighbors(kb1, ["~cast"])
        assert tn["ap1"] == {"am1"}

    def test_unselected_relations_ignored(self):
        kb1, _ = make_pair()
        assert top_neighbors(kb1, ["nope"]) == {}


class TestNeighborSimilarityIndex:
    def test_propagates_neighbor_value_sim(self):
        value_index, tn1, tn2 = build_indices()
        index = build_neighbor_index(value_index, tn1, tn2)
        # persons share two unique tokens -> valueSim 2.0 -> propagated
        assert pair_similarity(index, "am1", "bm1") == pytest.approx(2.0)
        assert pair_similarity(index, "am2", "bm2") == pytest.approx(2.0)

    def test_cross_pairs_zero(self):
        value_index, tn1, tn2 = build_indices()
        index = build_neighbor_index(value_index, tn1, tn2)
        assert pair_similarity(index, "am1", "bm2") == 0.0

    def test_candidates_ranked(self):
        value_index, tn1, tn2 = build_indices()
        index = build_neighbor_index(value_index, tn1, tn2)
        ranked = index.candidates_of_entity1("am1")
        assert ranked[0][0] == "bm1"

    def test_candidates_of_entity2(self):
        value_index, tn1, tn2 = build_indices()
        index = build_neighbor_index(value_index, tn1, tn2)
        assert candidates_of_entity2(index, "bm1")[0][0] == "am1"

    def test_shared_neighbor_accumulates(self):
        """Two shared top-neighbor pairs sum their value similarities."""
        value_index, tn1, tn2 = build_indices()
        tn1 = dict(tn1)
        tn1["am1"] = {"ap1", "ap2"}
        tn2 = dict(tn2)
        tn2["bm1"] = {"bp1", "bp2"}
        index = build_neighbor_index(value_index, tn1, tn2)
        assert pair_similarity(index, "am1", "bm1") == pytest.approx(4.0)

    def test_len_counts_pairs(self):
        value_index, tn1, tn2 = build_indices()
        index = build_neighbor_index(value_index, tn1, tn2)
        assert len(index) == 2
