"""Schema-agnostic blocking: token blocks, name blocks, the placement
tables both are assembled from, purging, filtering.

Blocking bounds the quadratic comparison space of ER.  MinoanER derives all
of its similarity evidence from two schema-agnostic block collections:
Token Blocking (``BT``) and Name Blocking (``BN``), after Block Purging.
"""

from .base import Block, BlockCollection
from .filtering import filter_blocks
from .metablocking import (
    PRUNING_SCHEMES,
    WEIGHTING_SCHEMES,
    BlockingGraph,
    meta_blocking_pairs,
    prune_edges,
)
from .metrics import BlockingQuality, blocking_quality, union_quality
from .packed import PackedBlockCollection
from .placements import PlacementTable
from .name_blocking import (
    AttributeNameExtractor,
    NameExtractor,
    name_blocking,
    names_from_attributes,
    normalize_name,
    unique_match_blocks,
)
from .purging import (
    DEFAULT_GAIN_FACTOR,
    PurgingReport,
    cardinality_threshold,
    purge_blocks,
)
from .token_blocking import token_blocking

__all__ = [
    "AttributeNameExtractor",
    "Block",
    "BlockCollection",
    "BlockingGraph",
    "BlockingQuality",
    "DEFAULT_GAIN_FACTOR",
    "PRUNING_SCHEMES",
    "WEIGHTING_SCHEMES",
    "meta_blocking_pairs",
    "prune_edges",
    "NameExtractor",
    "PackedBlockCollection",
    "PlacementTable",
    "PurgingReport",
    "blocking_quality",
    "cardinality_threshold",
    "filter_blocks",
    "name_blocking",
    "names_from_attributes",
    "normalize_name",
    "purge_blocks",
    "token_blocking",
    "union_quality",
    "unique_match_blocks",
]
