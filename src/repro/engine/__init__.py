"""The partitioned parallel execution engine.

The laptop-scale analogue of the paper's Spark jobs: pluggable executors
(:mod:`.executor`), data-determined partition layouts (:mod:`.partitioner`)
and the one kernel they dispatch — the row sums behind both similarity
indices (:mod:`.similarity`).  Blocking keys and H3's candidate lists
are built in the calling process.

All three executors compute bit-identical results; see the determinism
contract in :mod:`.executor`.  A dispatch's shared columns reach each
process worker once, when the dispatch's pool starts; a task ships only
its own shard.
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
from .similarity import build_neighbor_index, build_value_index

__all__ = [
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
