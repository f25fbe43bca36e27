"""The partitioned parallel execution engine.

The laptop-scale analogue of the paper's Spark jobs: pluggable executors
(:mod:`.executor`), data-determined partition layouts (:mod:`.partitioner`)
and the one kernel they dispatch — the row sums behind both similarity
indices (:mod:`.similarity`).  Blocking keys and H3's candidate lists
are built in the calling process.

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
from .partitioner import (
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
    "ProcessExecutor",
    "SerialExecutor",
    "ThreadExecutor",
    "auto_workers",
    "build_neighbor_index",
    "build_value_index",
    "chunk_evenly",
    "create_executor",
    "partition_count",
    "stable_hash",
]
