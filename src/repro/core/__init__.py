"""MinoanER core: the paper's primary contribution.

Statistics-driven name/relation discovery, block-derived value and neighbor
similarities, rank aggregation, the four heuristics H1-H4, and the
non-iterative pipeline combining them.
"""

from .config import PAPER_DEFAULTS, MinoanERConfig
from .heuristics import (
    Match,
    MatchedRegistry,
    h1_name_matches,
    h2_value_matches,
    h3_rank_aggregation_matches,
    h4_reciprocity_filter,
)
from .neighbors import NeighborSimilarityIndex, top_neighbors
from .pipeline import MatchResult, MinoanER
from .rank_aggregation import (
    aggregate_scores,
    normalized_ranks,
    top_aggregate_candidate,
)
from .similarity import ValueSimilarityIndex, block_token_weight
from .statistics import (
    PredicateImportance,
    attribute_importance,
    relation_importance,
    top_name_attributes,
    top_relations,
)

__all__ = [
    "Match",
    "MatchResult",
    "MatchedRegistry",
    "MinoanER",
    "MinoanERConfig",
    "NeighborSimilarityIndex",
    "PAPER_DEFAULTS",
    "PredicateImportance",
    "ValueSimilarityIndex",
    "aggregate_scores",
    "attribute_importance",
    "block_token_weight",
    "h1_name_matches",
    "h2_value_matches",
    "h3_rank_aggregation_matches",
    "h4_reciprocity_filter",
    "normalized_ranks",
    "relation_importance",
    "top_aggregate_candidate",
    "top_name_attributes",
    "top_neighbors",
    "top_relations",
]
