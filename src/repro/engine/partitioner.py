"""Deterministic partition layouts: stable shard hashes, even chunks.

- a **stable hash** of a string key (CRC32, never Python's salted
  ``hash``) names the shard of a block / a value pair in the similarity
  stages (:func:`packed_pair_hashes`: the CRC32 of the pair's *string*
  key, combined from per-id CRCs).  A shard is no layout: it only
  names the slab its contributions are folded in, i.e. it *defines the
  float fold*;
- **even chunking** splits a sequence into contiguous runs, preserving
  order — the similarity stages' ranges of output rows.

The partition *count* is a function of the data size alone, never of the
executor's worker count.  Every executor therefore sees the identical
partition layout and merges per-partition results in the identical order,
which makes all floating-point accumulations bit-identical across
``serial``/``thread``/``process`` runs — executors only change how the
partitions are scheduled.
"""

from __future__ import annotations

import zlib
from typing import Sequence, TypeVar

import numpy

from ..ids import EntityInterner, PAIR_ID_BITS, PAIR_ID_MASK
from ..ids.arrays import crc32_combined, crc32_shift_tables

T = TypeVar("T")

#: Aim for at least this many items per partition before splitting further.
MIN_PARTITION_SIZE = 64
#: Upper bound on partitions; more shards than this only adds overhead.
MAX_PARTITIONS = 16


def stable_hash(key: str) -> int:
    """A process- and run-stable hash of a string key (CRC32).

    Python's builtin ``hash`` is salted per interpreter, so it cannot
    place the same key in the same shard across runs or across worker
    processes; CRC32 can.
    """
    return zlib.crc32(key.encode("utf-8"))


def partition_count(
    n_items: int,
    min_partition_size: int = MIN_PARTITION_SIZE,
    max_partitions: int = MAX_PARTITIONS,
) -> int:
    """How many partitions to split ``n_items`` into.

    Deliberately independent of the worker count — see the module
    docstring for why this buys cross-executor determinism.
    """
    if n_items <= 0:
        return 1
    return max(1, min(max_partitions, n_items // min_partition_size))


def packed_pair_hashes(
    keys,
    interner1: EntityInterner,
    interner2: EntityInterner,
    separator: str,
):
    """:func:`stable_hash` of every *packed* pair key in a column, as
    ``uint32``, without decoding.

    Shard keys stay **string-stable**: the hash of a packed ``id1 << 32
    | id2`` key is, by construction, exactly
    ``stable_hash(uri1 + separator + uri2)`` — the key the string-keyed
    path sharded value pairs by — so a pair's shard (and with it the
    grouping of the float fold) never depends on an id assignment.

    No key bytes are read: per side-1 id the CRC of ``uri1 + separator``
    and per side-2 id the CRC of ``uri2`` are computed once, and each
    key *combines* the two through the linear map that appending
    ``len(uri2)`` bytes applies (:func:`~repro.ids.arrays.crc32_combined`
    is ``zlib.crc32`` of the concatenated bytes, by identity).
    """
    prefixes = [(uri + separator).encode("utf-8") for uri in interner1.uris()]
    suffixes = [uri.encode("utf-8") for uri in interner2.uris()]
    prefix_crcs = numpy.fromiter(
        map(zlib.crc32, prefixes), numpy.uint32, len(prefixes)
    )
    suffix_crcs = numpy.fromiter(
        map(zlib.crc32, suffixes), numpy.uint32, len(suffixes)
    )
    tables, rows = crc32_shift_tables(list(map(len, suffixes)))
    keys = numpy.asarray(keys)
    id1 = keys >> PAIR_ID_BITS
    id2 = keys & PAIR_ID_MASK
    return crc32_combined(prefix_crcs[id1], suffix_crcs[id2], rows[id2], tables)


def chunk_evenly(items: Sequence[T], n_chunks: int) -> list[Sequence[T]]:
    """Split a sequence into ``n_chunks`` contiguous, order-preserving runs.

    Chunk sizes differ by at most one; empty chunks are dropped.
    """
    if n_chunks < 1:
        raise ValueError("n_chunks must be >= 1")
    total = len(items)
    size, remainder = divmod(total, n_chunks)
    chunks: list[Sequence[T]] = []
    start = 0
    for index in range(n_chunks):
        stop = start + size + (1 if index < remainder else 0)
        if stop > start:
            chunks.append(items[start:stop])
        start = stop
    return chunks
