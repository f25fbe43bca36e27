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

**Packed hot path.**  The builders run entirely on interned ids: blocks
are encoded once into sorted ``array('i')`` id columns, shard partials
accumulate under packed ``int64`` pair keys and return flat key/sum
columns (raw buffers across process boundaries), and value pairs are
sharded by :class:`~repro.engine.partitioner.PackedPairHasher` — which
reproduces the string-stable :func:`value_pair_key` shard assignment
bit-for-bit.  On NumPy the shard partials merge through
:func:`~repro.ids.arrays.merged_run_sums` (one value sort of the key
columns, then one scatter-add per shard, in shard order) and the merged
``(keys ascending, totals)`` columns *are* the finished index
(``from_packed_columns`` adopts them, ``build_neighbor_index`` reads
them back through ``packed_columns()``);
the stdlib arms fold into a dict that ``from_packed_sums`` sorts once
into the same columns.  The string-keyed forms (:func:`_value_partial`,
:func:`merge_pair_sums`) remain as the executable specification the
parity tests build on.
"""

from __future__ import annotations

from array import array
from functools import partial

from ..blocking.base import Block, BlockCollection
from ..blocking.packed import PackedBlockCollection
from ..core.neighbors import NeighborSimilarityIndex
from ..core.similarity import Pair, ValueSimilarityIndex, block_token_weight
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
from .shm import attach

PairSums = dict[Pair, float]

#: A shard partial / merged total over packed ``int64`` pair keys.
PackedSums = dict[int, float]

#: Flat per-shard output columns: parallel (packed keys, partial sums).
PackedColumns = tuple[array, array]

#: Separator of the two URIs inside a value-pair shard key.  Any fixed
#: byte works: the key only feeds CRC32, never an ordering comparison.
_PAIR_KEY_SEPARATOR = "\x1f"


def value_pair_key(pair: Pair) -> str:
    """The shard key of one value pair (stable across runs/processes)."""
    return pair[0] + _PAIR_KEY_SEPARATOR + pair[1]


def merge_pair_sums(accumulated: PairSums, partial_sums: PairSums) -> PairSums:
    """Fold one shard's partial sums into the running total (associative)."""
    for pair, value in partial_sums.items():
        accumulated[pair] = accumulated.get(pair, 0.0) + value
    return accumulated


def merge_packed_columns(
    accumulated: PackedSums, columns: PackedColumns
) -> PackedSums:
    """Fold one shard's packed partial columns into the running total.

    The packed analogue of :func:`merge_pair_sums`: per pair, each
    shard's subtotal is added in shard order, so the final float of
    every pair is the identical left-to-right sum.
    """
    keys, values = columns
    for key, value in zip(keys, values):
        accumulated[key] = accumulated.get(key, 0.0) + value
    return accumulated


def _value_partial(blocks: list[Block]) -> PairSums:
    """valueSim contributions of one block shard (string-keyed reference).

    Entities are scanned in sorted order so the shard's output — dict
    order included — does not depend on the interpreter's set-hash seed.
    Kept as the executable specification of the per-shard scan order;
    the live builder runs :func:`_value_partial_packed`.
    """
    sums: PairSums = {}
    for block in blocks:
        weight = block_token_weight(len(block.entities1), len(block.entities2))
        for uri1 in sorted(block.entities1):
            for uri2 in sorted(block.entities2):
                pair = (uri1, uri2)
                sums[pair] = sums.get(pair, 0.0) + weight
    return sums


def _value_partial_packed(
    blocks: list[tuple[float, array, array]]
) -> PackedColumns:
    """valueSim contributions of one encoded block shard.

    Each block arrives as ``(token weight, sorted id1s, sorted id2s)``;
    because ids are assigned in sorted-URI order, scanning the id
    columns ascending reproduces :func:`_value_partial`'s sorted-URI
    scan — same first-seen pair order, same per-pair accumulation order.
    """
    sums: PackedSums = {}
    for weight, ids1, ids2 in blocks:
        for id1 in ids1:
            base = id1 << PAIR_ID_BITS
            for id2 in ids2:
                key = base | id2
                sums[key] = sums.get(key, 0.0) + weight
    return array("q", sums.keys()), array("d", sums.values())


def _encoded_block_shards(
    token_blocks: BlockCollection,
    interner1: EntityInterner,
    interner2: EntityInterner,
    n_partitions: int,
) -> list[list[tuple[float, array, array]]]:
    """Hash-by-block-key shards of id-encoded blocks.

    The same layout as :func:`~repro.engine.partitioner.partition_blocks`
    — blocks sorted by key, sharded by ``stable_hash(block key)`` — with
    each block encoded once into its token weight plus two sorted
    ``array('i')`` id columns, so workers receive compact buffers
    instead of URI-string sets.
    """
    ids1 = interner1.ids_by_uri()
    ids2 = interner2.ids_by_uri()
    shards: list[list[tuple[float, array, array]]] = [
        [] for _ in range(n_partitions)
    ]
    for block in sorted(token_blocks, key=lambda block: block.key):
        shards[stable_hash(block.key) % n_partitions].append(
            (
                block_token_weight(len(block.entities1), len(block.entities2)),
                array("i", sorted(ids1[uri] for uri in block.entities1)),
                array("i", sorted(ids2[uri] for uri in block.entities2)),
            )
        )
    return shards


def _packed_collection_shards(
    packed_blocks: PackedBlockCollection, n_partitions: int
) -> list[list[tuple[float, array, array]]]:
    """:func:`_encoded_block_shards` read straight off the CSR columns.

    A :class:`~repro.blocking.packed.PackedBlockCollection` already
    holds its keys sorted and each row's member ids sorted ascending in
    the member-interner space, so the shards come out identical to
    re-encoding the string view — without touching a URI string.
    """
    shards: list[list[tuple[float, array, array]]] = [
        [] for _ in range(n_partitions)
    ]
    for row, key in enumerate(packed_blocks.block_keys):
        ids1 = packed_blocks.row_ids(row, 1)
        ids2 = packed_blocks.row_ids(row, 2)
        shards[stable_hash(key) % n_partitions].append(
            (block_token_weight(len(ids1), len(ids2)), ids1, ids2)
        )
    return shards


def _cumulative_starts(counts):
    """Exclusive prefix sums of a NumPy count column (CSR starts)."""
    numpy = numpy_module()
    starts = numpy.zeros(len(counts), dtype=numpy.int64)
    if len(counts) > 1:
        numpy.cumsum(counts[:-1], out=starts[1:])
    return starts


def _value_partial_vectorized(shard) -> tuple:
    """:func:`_value_partial_packed` vectorized over flat id columns.

    ``shard`` is ``(weights, ids1 flat, ids1 counts, ids2 flat, ids2
    counts)``; the ragged expansion emits pairs in exactly the sorted
    nested-loop scan order and the unbuffered per-key summation adds
    them in that order, so the per-shard subtotals are bit-identical.
    Returns ``(unique packed keys ascending, subtotals)``.
    """
    weights, ids1_flat, ids1_counts, ids2_flat, ids2_counts = shard
    keys, values = ragged_cross_products(
        ids1_flat,
        _cumulative_starts(ids1_counts),
        ids1_counts,
        ids2_flat,
        _cumulative_starts(ids2_counts),
        ids2_counts,
        weights,
    )
    return sequential_unique_sums(keys, values)


def _encoded_block_columns(
    encoded_shards: list[list[tuple[float, array, array]]],
) -> list[tuple]:
    """Per-shard flat NumPy columns of the id-encoded blocks.

    A pure layout change over the :func:`_encoded_block_shards` /
    :func:`_packed_collection_shards` output — the homes of the
    sort/shard/encode placement rule — flattening each shard into
    parallel ``(weights, ids1 flat, ids1 counts, ids2 flat, ids2
    counts)`` columns for the vectorized worker.
    """
    numpy = numpy_module()

    def _flat(shard: list[tuple[float, array, array]], side: int):
        if not shard:
            return numpy.empty(0, dtype=numpy.int32)
        return numpy.concatenate(
            [numpy.frombuffer(block[side], dtype=numpy.int32) for block in shard]
        )

    return [
        (
            numpy.asarray([weight for weight, _, _ in shard], numpy.float64),
            _flat(shard, 1),
            numpy.asarray([len(ids1) for _, ids1, _ in shard], numpy.int64),
            _flat(shard, 2),
            numpy.asarray([len(ids2) for _, _, ids2 in shard], numpy.int64),
        )
        for shard in encoded_shards
    ]


#: Column typecodes of one vectorized encoded-block shard
#: ``(weights, ids1 flat, ids1 counts, ids2 flat, ids2 counts)``.
_VALUE_SHARD_TYPECODES = ("d", "i", "q", "i", "q")

#: Column typecodes of one flattened stdlib encoded-block shard
#: ``(weights, counts1, ids1 flat, counts2, ids2 flat)``.
_VALUE_SHARD_TYPECODES_PACKED = ("d", "q", "i", "q", "i")


def _flattened_block_columns(
    encoded_shards: list[list[tuple[float, array, array]]],
) -> list[tuple[array, array, array, array, array]]:
    """Per-shard flat ``array`` columns of the id-encoded blocks.

    The stdlib analogue of :func:`_encoded_block_columns`, laid out for
    shared-memory publication: ``(weights, counts1, ids1 flat, counts2,
    ids2 flat)`` per shard, blocks in shard order — the information of
    the per-block tuples with no per-block objects to pickle.
    """
    out = []
    for shard in encoded_shards:
        weights = array("d")
        counts1 = array("q")
        ids1 = array("i")
        counts2 = array("q")
        ids2 = array("i")
        for weight, block_ids1, block_ids2 in shard:
            weights.append(weight)
            counts1.append(len(block_ids1))
            ids1.extend(block_ids1)
            counts2.append(len(block_ids2))
            ids2.extend(block_ids2)
        out.append((weights, counts1, ids1, counts2, ids2))
    return out


def _value_partial_packed_shm(shard) -> PackedColumns:
    """:func:`_value_partial_packed` over shared-memory block columns.

    ``shard`` is five :class:`~repro.engine.shm.SharedSlice` handles in
    :data:`_VALUE_SHARD_TYPECODES_PACKED` order; the blocks are
    reassembled as zero-copy views and scanned in the identical
    block/id order, so the partial columns are bit-identical.
    """
    with attach(shard[0].segment) as reader:
        weights, counts1, ids1, counts2, ids2 = (
            reader.view(handle) for handle in shard
        )
        blocks: list[tuple[float, array, array]] = []
        at1 = at2 = 0
        for i in range(len(weights)):
            n1, n2 = counts1[i], counts2[i]
            blocks.append(
                (weights[i], ids1[at1 : at1 + n1], ids2[at2 : at2 + n2])
            )
            at1 += n1
            at2 += n2
        result = _value_partial_packed(blocks)
        blocks.clear()
    return result


def _value_partial_vectorized_shm(shard) -> tuple:
    """:func:`_value_partial_vectorized` over shared-memory columns."""
    with attach(shard[0].segment) as reader:
        result = _value_partial_vectorized(
            tuple(reader.numpy(handle) for handle in shard)
        )
    return result


def build_value_index(
    token_blocks: BlockCollection, engine: Executor | None = None
) -> ValueSimilarityIndex:
    """The :class:`ValueSimilarityIndex` of ``token_blocks``, partitioned.

    Interns both sides' URIs, shards the id-encoded blocks by key
    (hash-by-block-key), accumulates per-shard packed pair columns,
    merges them in shard order.  Vectorized when NumPy is available;
    both paths are bit-identical.
    """
    engine = engine or SerialExecutor()
    n_partitions = partition_count(len(token_blocks))
    if isinstance(token_blocks, PackedBlockCollection):
        # The collection's member interners are exactly the interners
        # this builder would construct (sorted member URIs per side),
        # and its CSR rows are already sorted ids — reuse both instead
        # of re-interning and re-encoding every block.
        interner1, interner2 = token_blocks.interners()
        encoded = _packed_collection_shards(token_blocks, n_partitions)
    else:
        interner1 = EntityInterner(
            uri for block in token_blocks for uri in block.entities1
        )
        interner2 = EntityInterner(
            uri for block in token_blocks for uri in block.entities2
        )
        encoded = _encoded_block_shards(
            token_blocks, interner1, interner2, n_partitions
        )
    arena = getattr(engine, "shared_arena", None)
    vectorized = numpy_enabled()
    if vectorized:
        shards = published = _encoded_block_columns(encoded)
        typecodes = _VALUE_SHARD_TYPECODES
        worker = _value_partial_vectorized
        shm_worker = _value_partial_vectorized_shm
    else:
        shards = encoded
        published = [] if arena is None else _flattened_block_columns(encoded)
        typecodes = _VALUE_SHARD_TYPECODES_PACKED
        worker = _value_partial_packed
        shm_worker = _value_partial_packed_shm
    if arena is not None and published:
        with arena.publish(
            [
                (typecode, column)
                for shard in published
                for typecode, column in zip(typecodes, shard)
            ]
        ) as segment:
            partials = engine.map_partitions(
                shm_worker,
                [
                    tuple(segment.slices[5 * i : 5 * i + 5])
                    for i in range(len(published))
                ],
            )
    else:
        partials = engine.map_partitions(worker, shards)
    if vectorized:
        columns = merged_run_sums(partials)
        del partials  # see build_neighbor_index
        index = ValueSimilarityIndex.from_packed_columns(
            *columns, interner1, interner2
        )
    else:
        index = ValueSimilarityIndex.from_packed_sums(
            engine.reduce(merge_packed_columns, partials, {}),
            interner1,
            interner2,
        )
    _telemetry_current().metrics.counter(
        "similarity.value_pairs_scored"
    ).inc(len(index))
    return index


def _packed_reverse_index(
    top_neighbors: dict[str, set[str]],
    parents: EntityInterner,
    value_entities: EntityInterner,
) -> dict[int, array]:
    """value-pair neighbor id -> sorted parent ids having it as top neighbor.

    Neighbors absent from the value index can never receive a value-pair
    contribution, so they are dropped here — exactly the pairs the
    string-keyed reverse index would have missed on lookup.
    """
    ids = parents.ids_by_uri()
    reverse: dict[int, list[int]] = {}
    for uri, neighbor_set in top_neighbors.items():
        parent = ids[uri]
        for neighbor in neighbor_set:
            neighbor_id = value_entities.get(neighbor)
            if neighbor_id is not None:
                reverse.setdefault(neighbor_id, []).append(parent)
    return {
        neighbor_id: array("i", sorted(parent_ids))
        for neighbor_id, parent_ids in reverse.items()
    }


def _neighbor_partial_packed(
    columns: PackedColumns,
    reverse1: dict[int, array],
    reverse2: dict[int, array],
) -> PackedColumns:
    """neighborNSim contributions of one shard of packed value pairs.

    Parent ids are pre-sorted (and sorted parent-id order is sorted
    parent-URI order), so per output pair the contribution order equals
    the string-keyed propagation's.
    """
    value_keys, value_sims = columns
    sums: PackedSums = {}
    shift, mask = PAIR_ID_BITS, PAIR_ID_MASK
    for key, sim in zip(value_keys, value_sims):
        parents1 = reverse1.get(key >> shift)
        if not parents1:
            continue
        parents2 = reverse2.get(key & mask)
        if not parents2:
            continue
        for entity1 in parents1:
            base = entity1 << shift
            for entity2 in parents2:
                pair = base | entity2
                sums[pair] = sums.get(pair, 0.0) + sim
    return array("q", sums.keys()), array("d", sums.values())


def _neighbor_partial_packed_shm(
    shard,
    reverse1: dict[int, array],
    reverse2: dict[int, array],
) -> PackedColumns:
    """:func:`_neighbor_partial_packed` over shared-memory value columns."""
    with attach(shard[0].segment) as reader:
        result = _neighbor_partial_packed(
            (reader.view(shard[0]), reader.view(shard[1])),
            reverse1,
            reverse2,
        )
    return result


def _neighbor_partial_vectorized_shm(shard, reverse1, reverse2) -> tuple:
    """:func:`_neighbor_partial_vectorized` over shared-memory columns."""
    with attach(shard[0].segment) as reader:
        result = _neighbor_partial_vectorized(
            (reader.numpy(shard[0]), reader.numpy(shard[1])),
            reverse1,
            reverse2,
        )
    return result


def _dense_reverse_columns(
    top_neighbors: dict[str, set[str]],
    parents: EntityInterner,
    value_entities: EntityInterner,
) -> tuple:
    """:func:`_packed_reverse_index` as dense CSR NumPy columns.

    ``(starts, counts, flat sorted parent ids)`` indexed by value id —
    O(1) gatherable by the vectorized worker.
    """
    numpy = numpy_module()
    reverse = _packed_reverse_index(top_neighbors, parents, value_entities)
    n_value_ids = len(value_entities)
    counts = numpy.zeros(n_value_ids, dtype=numpy.int64)
    for value_id, parent_ids in reverse.items():
        counts[value_id] = len(parent_ids)
    starts = _cumulative_starts(counts)
    flat = numpy.zeros(int(counts.sum()), dtype=numpy.int64)
    for value_id, parent_ids in reverse.items():
        start = starts[value_id]
        flat[start : start + len(parent_ids)] = parent_ids
    return starts, counts, flat


def _neighbor_partial_vectorized(columns, reverse1, reverse2) -> tuple:
    """:func:`_neighbor_partial_packed` vectorized over one shard.

    ``columns`` are the shard's ``(packed value keys, sims)`` NumPy
    columns in scan order; ``reverse1``/``reverse2`` the dense CSR
    reverse indices.  The ragged expansion emits, per value pair, the
    sorted parents1 × parents2 products in nested-loop order; the
    unbuffered summation then matches the dict accumulation float for
    float.  Returns ``(unique packed keys ascending, subtotals)``.
    """
    value_keys, value_sims = columns
    starts1, counts1, flat1 = reverse1
    starts2, counts2, flat2 = reverse2
    vids1 = value_keys >> PAIR_ID_BITS
    vids2 = value_keys & PAIR_ID_MASK
    fan1 = counts1[vids1]
    fan2 = counts2[vids2]
    keep = (fan1 > 0) & (fan2 > 0)
    keys, values = ragged_cross_products(
        flat1,
        starts1[vids1[keep]],
        fan1[keep],
        flat2,
        starts2[vids2[keep]],
        fan2[keep],
        value_sims[keep],
    )
    return sequential_unique_sums(keys, values)


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
    neighbors, against read-only id-level reverse indices.  Vectorized
    when NumPy is available; both paths are bit-identical.
    """
    engine = engine or SerialExecutor()
    value1, value2 = value_index.interners()
    parents1 = EntityInterner(top_neighbors1)
    parents2 = EntityInterner(top_neighbors2)
    keys, sims = value_index.packed_columns()
    n_partitions = partition_count(len(keys))
    sort_stable = value1.is_sorted and value2.is_sorted
    # Hashes a packed key to ``stable_hash(value_pair_key(decoded pair))``
    # — the string-stable shard assignment, without building key strings.
    hasher = PackedPairHasher(value1, value2, _PAIR_KEY_SEPARATOR)
    vectorized = numpy_enabled() and sort_stable
    if vectorized:
        numpy = numpy_module()
        shards = _vectorized_value_shards(
            numpy.asarray(keys), numpy.asarray(sims), n_partitions, hasher
        )
        reverse_index = _dense_reverse_columns
        worker = _neighbor_partial_vectorized
        shm_worker = _neighbor_partial_vectorized_shm
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
        reverse_index = _packed_reverse_index
        worker = _neighbor_partial_packed
        shm_worker = _neighbor_partial_packed_shm
    reverse = {
        "reverse1": reverse_index(top_neighbors1, parents1, value1),
        "reverse2": reverse_index(top_neighbors2, parents2, value2),
    }
    arena = getattr(engine, "shared_arena", None)
    if arena is not None and shards:
        with arena.publish(
            [
                (typecode, column)
                for shard in shards
                for typecode, column in zip("qd", shard)
            ]
        ) as segment:
            partials = engine.map_partitions(
                partial(shm_worker, **reverse),
                [
                    (segment.slices[2 * i], segment.slices[2 * i + 1])
                    for i in range(len(shards))
                ],
            )
    else:
        partials = engine.map_partitions(partial(worker, **reverse), shards)
    if vectorized:
        columns = merged_run_sums(partials)
        # Bytes are seconds (docs/PERFORMANCE.md): the partials and the
        # value shards are ~20 B per pair of pages already touched;
        # released here, the ranked-row build reuses them instead of
        # faulting in fresh ones.
        del partials, shards
        index = NeighborSimilarityIndex.from_packed_columns(
            *columns, parents1, parents2
        )
    else:
        index = NeighborSimilarityIndex.from_packed_sums(
            engine.reduce(merge_packed_columns, partials, {}),
            parents1,
            parents2,
        )
    _telemetry_current().metrics.counter(
        "similarity.neighbor_pairs_scored"
    ).inc(len(index))
    return index
