"""Unit tests for MinoanERConfig validation and toggles."""

from dataclasses import fields, replace

import pytest

from repro.core import PAPER_DEFAULTS, MinoanERConfig
from repro.kb import KnowledgeBase
from repro.pipeline import MatchSession


class TestDefaults:
    def test_paper_values(self):
        assert PAPER_DEFAULTS.top_k_candidates == 15
        assert PAPER_DEFAULTS.top_n_relations == 3
        assert PAPER_DEFAULTS.name_attributes == 2
        assert PAPER_DEFAULTS.theta == pytest.approx(0.6)

    def test_all_heuristics_enabled(self):
        assert PAPER_DEFAULTS.heuristics == ("h1", "h2", "h3", "h4")

    def test_frozen(self):
        with pytest.raises(Exception):
            PAPER_DEFAULTS.theta = 0.5


class TestValidation:
    def test_invalid_k(self):
        with pytest.raises(ValueError):
            MinoanERConfig(top_k_candidates=0)

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            MinoanERConfig(top_n_relations=-1)

    def test_invalid_name_attributes(self):
        with pytest.raises(ValueError):
            MinoanERConfig(name_attributes=-1)

    @pytest.mark.parametrize("theta", [0.0, 1.0, -0.5, 1.5])
    def test_invalid_theta(self, theta):
        with pytest.raises(ValueError):
            MinoanERConfig(theta=theta)

    # Minimum token length and the purging gain are constants of the
    # method, no longer fields: any value is refused.
    def test_invalid_min_token_length(self):
        with pytest.raises(TypeError, match="min_token_length"):
            MinoanERConfig(min_token_length=1)

    def test_invalid_gain_factor(self):
        with pytest.raises(TypeError, match="purging_gain_factor"):
            MinoanERConfig(purging_gain_factor=8.0)

    def test_nine_fields(self):
        assert [field.name for field in fields(MinoanERConfig)] == [
            "top_k_candidates",
            "top_n_relations",
            "name_attributes",
            "theta",
            "purge_token_blocks",
            "restrict_h3_to_cooccurring",
            "engine",
            "workers",
            "heuristics",
        ]


class TestWithHeuristics:
    def test_disable_single(self):
        config = replace(PAPER_DEFAULTS, heuristics=("h1", "h2", "h3"))
        assert "h4" not in config.heuristics
        assert "h1" in config.heuristics

    def test_unspecified_preserved(self):
        base = MinoanERConfig(heuristics=("h1", "h3", "h4"), theta=0.4)
        config = replace(base, heuristics=("h1", "h4"))
        assert config.heuristics == ("h1", "h4")
        assert config.theta == 0.4

    def test_original_unchanged(self):
        config = replace(PAPER_DEFAULTS, heuristics=("h2", "h3", "h4"))
        assert PAPER_DEFAULTS.heuristics == ("h1", "h2", "h3", "h4")
        assert config.heuristics == ("h2", "h3", "h4")

    def test_list_coerced_to_hashable_tuple(self):
        # a config decoded from JSON carries a list
        config = MinoanERConfig(heuristics=["h4", "h1"])
        assert config.heuristics == ("h4", "h1")
        assert hash(config) == hash(MinoanERConfig(heuristics=("h4", "h1")))

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            MinoanERConfig(heuristics=("h1", "h2", "h1"))

    def test_string_rejected(self):
        # tuple("h1") would be ("h", "1"): an unknown heuristic "h" at
        # graph build, far from the mistake
        with pytest.raises(ValueError, match="heuristics"):
            MinoanERConfig(heuristics="h1")
        session = MatchSession(KnowledgeBase("A"), KnowledgeBase("B"))
        with pytest.raises(ValueError, match="heuristics"):
            session.match(heuristics="h2")


class TestEngineKnobs:
    def test_defaults(self):
        assert PAPER_DEFAULTS.engine == "serial"
        assert PAPER_DEFAULTS.workers is None

    def test_parallel_engines_accept_workers(self):
        assert MinoanERConfig(engine="thread", workers=4).workers == 4
        assert MinoanERConfig(engine="process", workers=2).workers == 2

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="engine"):
            MinoanERConfig(engine="spark")

    def test_nonpositive_workers_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            MinoanERConfig(engine="thread", workers=0)

    def test_workers_with_serial_engine_rejected(self):
        # Silently ignoring workers would let a user believe a run was
        # parallel; the config refuses the combination instead.
        with pytest.raises(ValueError, match="no effect"):
            MinoanERConfig(workers=8)
