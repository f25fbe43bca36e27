"""Partitioned construction of the value and neighbor similarity indices.

Both indices are sums over independent contributions — token-block weights
for ``valueSim``, propagated value pairs for ``neighborNSim`` — so each
shard accumulates a partial ``pair -> sum`` map and the driver merges the
partials associatively, in partition order.

Determinism: blocks and value pairs are both sharded by a *stable hash*
of their key (block key / value-pair key), scanned within a shard in
sorted key order, and the partials merge left-to-right.  The resulting
floating-point sums are therefore bit-identical across executors and
worker counts, and a function of the *content* being indexed alone —
which is what lets the incremental subsystem call these same builders
on a post-delta state and land on the floats of a cold run.

**One worker per index, over plain columns.**  A builder shards *row
numbers*, not rows: a value shard is ``(token weights, block rows)`` into
the block collection's own CSR columns, a neighbor shard is a run of the
value index's ``(packed keys, sims)`` columns, and the CSR columns the
rows point into — block members, reverse top-neighbor index — travel
once, as shared columns of
:meth:`Executor.map_columns <repro.engine.executor.Executor.map_columns>`.
The worker (:func:`_value_shard_sums`, :func:`_neighbor_shard_sums`)
receives buffers and nothing else; whether they were pickled, passed by
reference or mapped from shared memory is the executor's business.
Inside, the NumPy arm (ragged expansion, then
:func:`~repro.ids.arrays.sequential_unique_sums`) and the stdlib arm (the
nested loops it vectorizes) add the same floats in the same order.  The
partials merge through :func:`~repro.ids.arrays.merged_run_sums`, and
the merged ``(keys ascending, totals)`` columns *are* the finished index
(``from_packed_columns`` adopts them).  Value pairs are sharded by
:class:`~repro.engine.partitioner.PackedPairHasher`, which reproduces
``stable_hash(uri1 + separator + uri2)`` bit-for-bit; the string-keyed
scan that defines these orders lives in ``tests/oracles.py``.
"""

from __future__ import annotations

from array import array

from ..blocking.base import BlockCollection
from ..blocking.packed import PackedBlockCollection
from ..core.neighbors import NeighborSimilarityIndex
from ..core.similarity import ValueSimilarityIndex, block_token_weight
from ..ids import EntityInterner, PAIR_ID_BITS, PAIR_ID_MASK
from ..ids.arrays import (
    merged_run_sums,
    numpy_enabled,
    numpy_module,
    ragged_cross_products,
    sequential_unique_sums,
)
from ..obs.runtime import current as _telemetry_current
from .executor import Executor, SerialExecutor
from .partitioner import (
    PackedPairHasher,
    hash_partitions_packed,
    partition_count,
    stable_hash,
)

#: Separator of the two URIs inside a value-pair shard key.  Any fixed
#: byte works: the key only feeds CRC32, never an ordering comparison.
_PAIR_KEY_SEPARATOR = "\x1f"


def _value_shard_sums(weights, rows, starts1, ids1, starts2, ids2) -> tuple:
    """valueSim contributions of one shard of block rows (engine worker).

    ``rows`` index the CSR block columns ``(starts, member ids)`` of both
    sides, ``weights`` are the rows' token weights.  Member ids ascend
    within a row and id order is URI order, so walking a row's
    ``ids1 × ids2`` reproduces the sorted-URI scan of the string-keyed
    specification: same first-seen pair order, same per-pair addition
    order.  The ragged expansion emits exactly that nested-loop order
    and the unbuffered per-key summation adds in it, so both arms yield
    the same subtotals.  Returns parallel ``(packed keys, subtotals)``
    columns, keys unique.
    """
    if numpy_enabled():
        numpy = numpy_module()
        weights, rows, starts1, ids1, starts2, ids2 = map(
            numpy.asarray, (weights, rows, starts1, ids1, starts2, ids2)
        )
        keys, values = ragged_cross_products(
            ids1,
            starts1[rows],
            starts1[rows + 1] - starts1[rows],
            ids2,
            starts2[rows],
            starts2[rows + 1] - starts2[rows],
            weights,
        )
        return sequential_unique_sums(keys, values)
    sums: dict[int, float] = {}
    for weight, row in zip(weights, rows):
        row_ids2 = ids2[starts2[row] : starts2[row + 1]]
        for id1 in ids1[starts1[row] : starts1[row + 1]]:
            base = id1 << PAIR_ID_BITS
            for id2 in row_ids2:
                key = base | id2
                sums[key] = sums.get(key, 0.0) + weight
    return array("q", sums), array("d", sums.values())


def _block_row_shards(
    blocks: PackedBlockCollection, n_partitions: int
) -> list[tuple[array, array]]:
    """Hash-by-block-key shards ``(token weights, block rows)``.

    The layout of :func:`~repro.engine.partitioner.partition_blocks` —
    blocks in key order (the collection's row order), sharded by
    ``stable_hash(block key)`` — naming each block by its row instead of
    copying its members.
    """
    shards = [(array("d"), array("q")) for _ in range(n_partitions)]
    for row, key in enumerate(blocks.block_keys):
        weights, rows = shards[stable_hash(key) % n_partitions]
        weights.append(block_token_weight(*blocks.row_sizes(row)))
        rows.append(row)
    return shards


def build_value_index(
    token_blocks: BlockCollection, engine: Executor | None = None
) -> ValueSimilarityIndex:
    """The :class:`ValueSimilarityIndex` of ``token_blocks``, partitioned.

    Shards the block rows by key (hash-by-block-key), accumulates
    per-shard packed pair columns against the collection's CSR member
    columns, merges them in shard order.
    """
    engine = engine or SerialExecutor()
    # Taken from the collection as handed in: the shard count fixes the
    # float fold, and packing drops one-sided blocks.
    n_partitions = partition_count(len(token_blocks))
    if not isinstance(token_blocks, PackedBlockCollection):
        token_blocks = PackedBlockCollection.from_collection(
            token_blocks.drop_empty()
        )
    shards = _block_row_shards(token_blocks, n_partitions)
    partials = engine.map_columns(
        _value_shard_sums,
        shards,
        "dq",
        (*token_blocks.csr(1), *token_blocks.csr(2)),
        "qiqi",
    )
    del shards
    columns = merged_run_sums(partials)
    del partials  # see build_neighbor_index
    # The member interners are exactly the sorted member URIs per side.
    index = ValueSimilarityIndex.from_packed_columns(
        *columns, *token_blocks.interners()
    )
    _telemetry_current().metrics.counter(
        "similarity.value_pairs_scored"
    ).inc(len(index))
    return index


def _reverse_csr(
    top_neighbors: dict[str, set[str]],
    parents: EntityInterner,
    value_entities: EntityInterner,
) -> tuple[array, array]:
    """CSR ``(starts, parent ids)``: per value id, the ascending ids of
    the entities listing it as a top neighbor.

    Neighbors absent from the value index can never receive a value-pair
    contribution, so they are dropped here — exactly the pairs a
    string-keyed reverse index would have missed on lookup.
    """
    ids = parents.ids_by_uri()
    reverse: dict[int, list[int]] = {}
    for uri, neighbor_set in top_neighbors.items():
        parent = ids[uri]
        for neighbor in neighbor_set:
            value_id = value_entities.get(neighbor)
            if value_id is not None:
                reverse.setdefault(value_id, []).append(parent)
    starts, flat = array("q", (0,)), array("i")
    for value_id in range(len(value_entities)):
        flat.extend(sorted(reverse.get(value_id, ())))
        starts.append(len(flat))
    return starts, flat


def _neighbor_shard_sums(
    value_keys, value_sims, starts1, parents1, starts2, parents2
) -> tuple:
    """neighborNSim contributions of one shard of value pairs (engine
    worker).

    ``value_keys`` / ``value_sims`` are the shard's packed pairs in scan
    order; the two :func:`_reverse_csr` indices give, per value id, the
    parents to propagate to.  Parent ids are pre-sorted (and sorted
    parent-id order is sorted parent-URI order), so per output pair the
    contribution order equals the string-keyed propagation's, and — as
    in :func:`_value_shard_sums` — the ragged expansion plus unbuffered
    summation matches the dict accumulation float for float.  Returns
    parallel ``(packed keys, subtotals)`` columns, keys unique.
    """
    if numpy_enabled():
        numpy = numpy_module()
        value_keys, value_sims, starts1, parents1, starts2, parents2 = map(
            numpy.asarray,
            (value_keys, value_sims, starts1, parents1, starts2, parents2),
        )
        vids1 = value_keys >> PAIR_ID_BITS
        vids2 = value_keys & PAIR_ID_MASK
        fan1 = starts1[vids1 + 1] - starts1[vids1]
        fan2 = starts2[vids2 + 1] - starts2[vids2]
        keep = (fan1 > 0) & (fan2 > 0)
        keys, values = ragged_cross_products(
            parents1,
            starts1[vids1[keep]],
            fan1[keep],
            parents2,
            starts2[vids2[keep]],
            fan2[keep],
            value_sims[keep],
        )
        return sequential_unique_sums(keys, values)
    sums: dict[int, float] = {}
    shift, mask = PAIR_ID_BITS, PAIR_ID_MASK
    for key, sim in zip(value_keys, value_sims):
        vid1, vid2 = key >> shift, key & mask
        row2 = parents2[starts2[vid2] : starts2[vid2 + 1]]
        if not len(row2):
            continue
        for entity1 in parents1[starts1[vid1] : starts1[vid1 + 1]]:
            base = entity1 << shift
            for entity2 in row2:
                pair = base | entity2
                sums[pair] = sums.get(pair, 0.0) + sim
    return array("q", sums), array("d", sums.values())


def _vectorized_value_shards(
    keys, sims, n_partitions: int, hasher: PackedPairHasher
) -> list[tuple]:
    """The ascending value-pair columns grouped into shards.

    Keys hash via the vectorized zlib-compatible CRC and group stably —
    each shard keeps its keys in ascending (scan) order, exactly as
    :func:`hash_partitions_packed` over the sorted sequence would.
    """
    numpy = numpy_module()
    # int16 shard ids: NumPy's stable sort is a radix sort at that width
    # (same permutation, a tenth of the time of the int64 merge sort).
    shard_ids = (hasher.hash_many(keys) % n_partitions).astype(numpy.int16)
    grouping = numpy.argsort(shard_ids, kind="stable")
    keys = keys[grouping]
    sims = sims[grouping]
    bounds = numpy.zeros(n_partitions + 1, dtype=numpy.int64)
    numpy.cumsum(
        numpy.bincount(shard_ids, minlength=n_partitions), out=bounds[1:]
    )
    return [
        (keys[bounds[i] : bounds[i + 1]], sims[bounds[i] : bounds[i + 1]])
        for i in range(n_partitions)
    ]


def build_neighbor_index(
    value_index: ValueSimilarityIndex,
    top_neighbors1: dict[str, set[str]],
    top_neighbors2: dict[str, set[str]],
    engine: Executor | None = None,
) -> NeighborSimilarityIndex:
    """The :class:`NeighborSimilarityIndex`, propagated shard by shard.

    The value index's pair columns are scanned in ascending packed-key
    order (ascending ``(uri1, uri2)`` while the interners are
    sort-stable) and sharded by the stable hash of each pair's *string*
    key via :class:`~repro.engine.partitioner.PackedPairHasher` (not by
    position, so a pair's shard is a function of the pair alone); every
    shard propagates its pairs up to the entities listing them as top
    neighbors, against the read-only reverse indices.
    """
    engine = engine or SerialExecutor()
    value1, value2 = value_index.interners()
    parents1 = EntityInterner(top_neighbors1)
    parents2 = EntityInterner(top_neighbors2)
    keys, sims = value_index.packed_columns()
    n_partitions = partition_count(len(keys))
    sort_stable = value1.is_sorted and value2.is_sorted
    # Hashes a packed key to ``stable_hash(uri1 + separator + uri2)`` —
    # the string-stable shard assignment, without building key strings.
    hasher = PackedPairHasher(value1, value2, _PAIR_KEY_SEPARATOR)
    if numpy_enabled() and sort_stable:
        numpy = numpy_module()
        shards = _vectorized_value_shards(
            numpy.asarray(keys), numpy.asarray(sims), n_partitions, hasher
        )
    else:
        # Plain ints/floats out of any column type, without a copy.
        keys, sims = memoryview(keys), memoryview(sims)
        if not sort_stable:
            # ids appended by deltas broke the id-order == URI-order
            # coincidence: scan by decoded URIs, the order the
            # string-keyed path used.
            uris1, uris2 = value1.uris(), value2.uris()
            order = sorted(
                range(len(keys)),
                key=lambda i: (
                    uris1[keys[i] >> PAIR_ID_BITS],
                    uris2[keys[i] & PAIR_ID_MASK],
                ),
            )
            keys = [keys[i] for i in order]
            sims = [sims[i] for i in order]
        shards = hash_partitions_packed(keys, sims, n_partitions, hasher)
    partials = engine.map_columns(
        _neighbor_shard_sums,
        shards,
        "qd",
        (
            *_reverse_csr(top_neighbors1, parents1, value1),
            *_reverse_csr(top_neighbors2, parents2, value2),
        ),
        "qiqi",
    )
    # Bytes are seconds (docs/PERFORMANCE.md): the partials and the
    # value shards are ~20 B per pair of pages already touched; released
    # before the ranked-row build, it reuses them instead of faulting in
    # fresh ones.
    del shards
    columns = merged_run_sums(partials)
    del partials
    index = NeighborSimilarityIndex.from_packed_columns(
        *columns, parents1, parents2
    )
    _telemetry_current().metrics.counter(
        "similarity.neighbor_pairs_scored"
    ).inc(len(index))
    return index
