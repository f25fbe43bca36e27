"""The partitioned parallel execution engine.

The laptop-scale analogue of the paper's Spark jobs: pluggable executors
(:mod:`.executor`), data-determined partition layouts (:mod:`.partitioner`)
and partitioned implementations of the pipeline's hot stages — keying
entities into blocking placements (:mod:`.blocking`), similarity-index
construction (:mod:`.similarity`) and the H3 candidate-list scan
(:mod:`.matching`).

All three executors compute bit-identical results; see the determinism
contract in :mod:`.executor`.
"""

from .executor import (
    EXECUTOR_NAMES,
    Executor,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    auto_workers,
    create_executor,
)
from .matching import h3_rank_aggregation_matches_engine
from .partitioner import (
    PackedPairHasher,
    chunk_evenly,
    partition_count,
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
    "auto_workers",
    "build_neighbor_index",
    "build_value_index",
    "chunk_evenly",
    "create_executor",
    "h3_rank_aggregation_matches_engine",
    "partition_count",
    "stable_hash",
]
