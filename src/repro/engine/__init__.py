"""The partitioned parallel execution engine.

The laptop-scale analogue of the paper's Spark jobs: pluggable executors
(:mod:`.executor`), data-determined partition layouts (:mod:`.partitioner`)
and partitioned implementations of the pipeline's hot stages — blocking
(:mod:`.blocking`), similarity-index construction (:mod:`.similarity`) and
the H3 candidate-list scan (:mod:`.matching`; H2 is a per-entity lookup
and stays serial behind the same dispatch interface).

All three executors compute bit-identical results; see the determinism
contract in :mod:`.executor`.
"""

from .blocking import (
    assemble_packed_blocks,
    name_blocking_engine,
    packed_token_placements,
    shared_side_sizes,
    token_blocking_engine,
    token_blocking_packed_engine,
)
from .executor import (
    EXECUTOR_NAMES,
    Executor,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    auto_workers,
    create_executor,
)
from .matching import (
    h2_value_matches_engine,
    h3_rank_aggregation_matches_engine,
)
from .partitioner import (
    PackedPairHasher,
    chunk_evenly,
    hash_partitions,
    partition_blocks,
    partition_count,
    partition_entities,
    stable_hash,
)
from .shm import SharedArena, SharedSlice, shm_available
from .similarity import build_neighbor_index, build_value_index

__all__ = [
    "SharedArena",
    "SharedSlice",
    "shm_available",
    "EXECUTOR_NAMES",
    "Executor",
    "PackedPairHasher",
    "ProcessExecutor",
    "SerialExecutor",
    "ThreadExecutor",
    "assemble_packed_blocks",
    "auto_workers",
    "build_neighbor_index",
    "build_value_index",
    "chunk_evenly",
    "create_executor",
    "packed_token_placements",
    "shared_side_sizes",
    "token_blocking_packed_engine",
    "h2_value_matches_engine",
    "h3_rank_aggregation_matches_engine",
    "hash_partitions",
    "name_blocking_engine",
    "partition_blocks",
    "partition_count",
    "partition_entities",
    "stable_hash",
    "token_blocking_engine",
]
