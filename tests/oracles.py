"""Executable reference specifications the parity tests compare against.

Nothing here runs in production: these are the readable, scalar forms
of arithmetic the engine performs in vectorized kernels, kept so a test
can state *what* float a kernel must produce without calling the kernel.
"""

from typing import Iterable

from repro.engine.partitioner import stable_hash


def shard_merged_sum(
    contributions: Iterable[tuple[str, float]], n_shards: int
) -> float:
    """The batch builders' shard-then-merge accumulation, for one pair.

    ``contributions`` are ``(shard key, weight)`` terms **in the batch
    scan order** (sorted by the stage's sort domain: block key for
    valueSim, value pair for neighborNSim).  Grouping by
    ``stable_hash(key) % n_shards``, subtotalling within each shard in
    scan order, and adding subtotals in ascending shard order is the
    float order ``build_value_index`` / ``build_neighbor_index`` commit
    to — a function of keys alone, never of position, which is why a
    rebuild on a post-delta state lands on the floats of a cold run.
    """
    subtotals: dict[int, float] = {}
    for key, weight in contributions:
        shard = stable_hash(key) % n_shards
        subtotals[shard] = subtotals.get(shard, 0.0) + weight
    total = 0.0
    for shard in sorted(subtotals):
        total += subtotals[shard]
    return total
