"""Row-owned construction of the value and neighbor similarity indices.

Both indices are one sparse triple product ``A · V · Bᵀ``, computed
row-wise (Gustavson): ``valueSim`` with ``A`` / ``B`` = entity × block
membership and ``V`` = the diagonal of token weights; ``neighborNSim``
with ``A`` / ``B`` = parent × top neighbor and ``V`` = the value index
itself.  A task owns a contiguous range of side-1 output rows and
produces those rows whole (:func:`_row_sums`), so results are born
ascending and the driver concatenates them — nothing is sorted,
deduplicated or merged.  Operands travel as plain columns through
:meth:`Executor.map_columns <repro.engine.executor.Executor.map_columns>`;
a run of rows expands with ragged gathers, in the scan order of the
nested loops they vectorize.

Determinism: every entry of ``V`` — a block, a value pair — carries the
shard ``stable_hash(its string key) % partition_count(len(V))``, and a
pair's similarity is the fold :func:`~repro.ids.arrays.shard_ordered_sums`
commits to: per shard, its contributions added from ``0.0`` in scan
order (block key / value pair ascending), the subtotals then added in
ascending shard order (scalar form: ``tests/oracles.py::shard_merged_sum``).
A row's floats are a function of that row's inputs alone — no task
boundary, run length, executor or worker count can move one, and the
incremental subsystem lands on the floats of a cold run by calling
these builders on a post-delta state.  The shard axis stays *inside*
the row fold because the harness pins ``Match.score`` digests taken at
this order (docs/PERFORMANCE.md, "The determinism contract").

Memory: one constant, :data:`~repro.ids.arrays.RUN_SIZE`, bounds every
transient of a build.  A task folds its rows in runs of at most that
many cells, contributions and slab slots (:func:`_row_runs`), and the
column passes that prepare the operands — the value pairs' shard column
(:func:`~repro.engine.partitioner.packed_pair_shards`) and the row work
the runs are cut by (:func:`_row_work`) — walk their columns in pieces
sized from it, so what a build holds beyond its operands and results is
one run or one piece, not a multiple of the pair count.

Under the conference H3 the neighbor index holds only the parent pairs
that are also value pairs, and the kernel drops the rest *before* the
fold: each run marks its rows' value pairs in a bitmap
(:func:`_value_pair_cells`) and keeps only the contributions to marked
cells.  The expansion is the full product's, row for row; a cell keeps
all of its contributions or none, and its float depends on those alone
— their scan order and their shards — so every kept cell is the full
product's float, bit for bit, and the full product is never folded.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right

import numpy

from ..blocking.base import BlockCollection
from ..blocking.packed import PackedBlockCollection
from ..core.neighbors import (
    NeighborSimilarityIndex,
    top_neighbor_csr,
    transposed_csr,
)
from ..core.similarity import ValueSimilarityIndex, block_token_weight
from ..ids import EntityInterner, PAIR_ID_BITS, PAIR_ID_MASK, arrays
from ..ids.arrays import pieces, ragged_indices, shard_ordered_sums
from ..obs.runtime import current as _telemetry_current
from .executor import Executor, SerialExecutor
from .partitioner import (
    chunk_evenly,
    packed_pair_shards,
    partition_count,
    stable_hash,
)

#: Separator of the two URIs inside a value-pair shard key.  Any fixed
#: byte works: the key only feeds CRC32, never an ordering comparison.
_PAIR_KEY_SEPARATOR = "\x1f"


def _contributions(
    lo, hi, width, origin, row_ids, row_starts, span_starts, members,
    starts2, ids2, shards, weights, images1, images2, masked,
) -> tuple:
    """Every contribution to the output rows ``lo .. hi``, in scan order:
    ``(cells, shards, weights)``, cell ``(row - lo) * width + column``.

    ``(row_starts, row_ids)`` is ``A`` as CSR: per output row the
    ascending ids of its ``V`` rows — of ``row_ids`` the task's own
    slice, which begins at offset ``origin``.  ``span_starts`` delimits
    each ``V`` row's entries, which carry a ``B`` row (``members``), a
    shard and a weight; ``(starts2, ids2)`` is ``B`` as CSR: per ``B``
    row its ascending output columns.  Contributions come ``V`` row,
    entry, column ascending — per pair the scan order of the
    string-keyed specification.  When ``masked``, the contributions to
    cells :func:`_value_pair_cells` does not mark are dropped; a marked
    cell keeps all of its own.
    """
    ids = row_ids[row_starts[lo] - origin : row_starts[hi] - origin]
    v_rows, entries = ragged_indices(
        span_starts[ids], span_starts[ids + 1] - span_starts[ids]
    )
    b_rows = members[entries]
    owners, columns = ragged_indices(
        starts2[b_rows], starts2[b_rows + 1] - starts2[b_rows]
    )
    cells = numpy.repeat(
        numpy.arange(hi - lo) * width, numpy.diff(row_starts[lo : hi + 1])
    )[v_rows][owners]
    cells += ids2[columns]
    if masked:
        kept = _value_pair_cells(
            lo, hi, width, span_starts, members, images1, images2
        )[cells]
        cells, owners = cells[kept], owners[kept]
    entries = entries[owners]
    return cells, shards[entries], weights[entries]


def _value_pair_cells(lo, hi, width, span_starts, members, images1, images2):
    """The cells of the output rows ``lo .. hi`` whose two entities form
    a ``V`` pair, as a ``(hi - lo) * width`` bitmap: each row's own ``V``
    row (``images1``: output row -> ``V`` row), its entries' second
    entities as output columns (``images2``); ``-1`` is no image."""
    values = images1[lo:hi]
    rows = numpy.flatnonzero(values >= 0)
    values = values[rows]
    owners, entries = ragged_indices(
        span_starts[values], span_starts[values + 1] - span_starts[values]
    )
    columns = images2[members[entries]]
    found = columns >= 0
    mask = numpy.zeros((hi - lo) * width, dtype=bool)
    mask[rows[owners[found]] * width + columns[found]] = True
    return mask


def _row_runs(work, lo, hi, width, n_shards) -> list[tuple[int, int]]:
    """Cut the rows ``lo .. hi`` into runs, at least one row each, of at
    most :data:`~repro.ids.arrays.RUN_SIZE` cells, contributions and
    slab slots — a slab holds ``n_shards`` slots per *touched* cell,
    and no more cells are touched than there are cells or contributions
    (``work``: the contributions before each row, cumulative)."""
    runs = []
    while lo < hi:
        # per limit, the last row whose cells, whose contributions fit
        whole, slab = (
            (
                lo + limit // max(width, 1),
                bisect_right(work, work[lo] + limit, lo, hi + 1) - 1,
            )
            for limit in (arrays.RUN_SIZE, arrays.RUN_SIZE // n_shards)
        )
        runs.append((lo, max(lo + 1, min(*whole, max(slab)))))
        lo = runs[-1][1]
    return runs


def _joined(parts) -> tuple:
    """``(keys, sums)`` columns of consecutive row ranges, end to end."""
    keys, sums = zip((array("q"), array("d")), *parts)
    return numpy.concatenate(keys), numpy.concatenate(sums)


def _row_sums(task, row_ids, work, row_starts, *shared) -> tuple:
    """A task's output rows of ``A · V · Bᵀ``, whole (engine worker):
    their ``(packed keys ascending, totals)`` columns, folded run after
    run.  ``task`` is ``(first row, past-the-last row, width,
    n_shards, masked)``, ``row_ids`` the task's slice of ``A``'s ids,
    ``work`` is :func:`_row_work`; the rest as in :func:`_contributions`."""
    lo, hi, width, n_shards, masked = task
    operands = tuple(map(numpy.asarray, (row_ids, row_starts, *shared)))
    origin = row_starts[lo]
    return _joined(
        [
            shard_ordered_sums(
                *_contributions(start, stop, width, origin, *operands, masked),
                n_shards, start, stop - start, width,
            )
            for start, stop in _row_runs(work, lo, hi, width, n_shards)
        ]
    )


def _row_work(row_starts, row_ids, span_starts, members, starts2):
    """Contributions before each output row, cumulative (``n_rows + 1``):
    prefix sums over ``B``'s row lengths by entry, read at the ``V``
    rows' offsets, then over those rows' totals by ``A``'s entries, read
    at ``A``'s row offsets."""
    row_starts, row_ids, span_starts, members, starts2 = map(
        numpy.asarray, (row_starts, row_ids, span_starts, members, starts2)
    )
    fans = _prefix_sums_at(numpy.diff(starts2), members, span_starts)
    return _prefix_sums_at(numpy.diff(fans), row_ids, row_starts)


def _prefix_sums_at(totals, column, offsets):
    """``cumsum([0, *totals[column]])`` read at the ascending ``offsets``
    into ``column``, without the whole-column sums: the column is summed
    in :func:`~repro.ids.arrays.pieces`, each piece's prefix sums carried
    on from the pieces before it and read at the offsets it reaches."""
    read = numpy.zeros(len(offsets), dtype=numpy.int64)
    carried = 0
    for piece in pieces(len(column)):
        sums = totals[column[piece]]
        numpy.cumsum(sums, out=sums)
        sums += carried
        first, stop = numpy.searchsorted(
            offsets, (piece.start, piece.stop), "right"
        )
        read[first:stop] = sums[offsets[first:stop] - piece.start - 1]
        carried = int(sums[-1])
    return read


def _product_index(
    index_type, counter: str, engine, interners, n_shards, masked,
    row_starts, row_ids, *shared,
):
    """The index ``A · V · Bᵀ`` over the operands of
    :func:`_contributions`: one task per contiguous range of rows — as
    many as :func:`partition_count` of the row count — each given its
    range and its own ids of ``A``; the results, end to end, are the
    pair columns."""
    telemetry = _telemetry_current()
    width, n_rows = len(interners[1]), len(row_starts) - 1
    with telemetry.tracer.span("similarity.kernel", category="similarity"):
        tasks = [
            (
                array("q", (rows.start, rows.stop, width, n_shards, masked)),
                row_ids[row_starts[rows.start] : row_starts[rows.stop]],
            )
            for rows in chunk_evenly(range(n_rows), partition_count(n_rows))
        ]
        work = _row_work(row_starts, row_ids, *shared[:3])
        columns = _joined(
            engine.map_columns(_row_sums, tasks, (work, row_starts, *shared))
        )
    index = index_type.from_packed_columns(*columns, *interners)
    telemetry.metrics.counter(counter).inc(len(index))
    return index


def build_value_index(
    token_blocks: BlockCollection, engine: Executor | None = None
) -> ValueSimilarityIndex:
    """The :class:`ValueSimilarityIndex` of ``token_blocks``, row-owned.

    Transposes the side-1 membership once (member id → ascending block
    rows, i.e. block-key order) and lets every row gather its blocks'
    side-2 members, each block weighted by its token weight and sharded
    by ``stable_hash(block key)``.
    """
    engine = engine or SerialExecutor()
    # Taken from the collection as handed in: the shard count fixes the
    # float fold, and packing drops one-sided blocks.
    n_shards = partition_count(len(token_blocks))
    if not isinstance(token_blocks, PackedBlockCollection):
        token_blocks = PackedBlockCollection.from_collection(
            token_blocks.drop_empty()
        )
    keys = token_blocks.block_keys
    interners = token_blocks.interners()  # the sorted member URIs per side
    weights = (
        block_token_weight(*token_blocks.row_sizes(row))
        for row in range(len(keys))
    )
    return _product_index(
        ValueSimilarityIndex,
        "similarity.value_pairs_scored",
        engine,
        interners,
        n_shards,
        False,
        *transposed_csr(*token_blocks.csr(1), len(interners[0])),
        array("q", range(len(keys) + 1)),  # V is diagonal: one entry per
        array("i", range(len(keys))),  # block, naming its own row of B
        *token_blocks.csr(2),
        array("i", (stable_hash(key) % n_shards for key in keys)),
        array("d", weights),
        array("q"),  # unmasked: no cell images
        array("q"),
    )


def build_neighbor_index(
    value_index: ValueSimilarityIndex,
    top_neighbors1: dict[str, set[str]],
    top_neighbors2: dict[str, set[str]],
    engine: Executor | None = None,
    *,
    cooccurring: bool = False,
) -> NeighborSimilarityIndex:
    """The :class:`NeighborSimilarityIndex`, propagated row by row.

    Every parent gathers, top neighbor by top neighbor, that neighbor's
    row of the value index — the ascending key column read as a CSR by
    its side-1 id — and hands each value pair on to the side-2 parents
    listing its second entity.  A value pair's shard is the stable hash
    of its *string* key, a function of the pair alone
    (:func:`~repro.engine.partitioner.packed_pair_shards`).

    ``cooccurring`` keeps only the parent pairs that are also value
    pairs — the conference H3's index, byte for byte
    :func:`~repro.core.candidates.cooccurring_neighbor_index` of the
    full one — by folding only their contributions.
    """
    engine = engine or SerialExecutor()
    value1, value2 = value_index.interners()
    keys, sims = value_index.packed_columns()
    keys = numpy.asarray(keys)
    n_shards = partition_count(len(keys))
    parents1 = EntityInterner(top_neighbors1)
    parents2 = EntityInterner(top_neighbors2)
    # ``stable_hash(uri1 + separator + uri2)`` per packed key — the
    # string-stable shard assignment, without building key strings.
    shards = packed_pair_shards(
        keys, value1, value2, _PAIR_KEY_SEPARATOR, n_shards
    )
    # each key's side-2 id, cast as it is computed (a buffered ufunc)
    members = numpy.empty(len(keys), dtype=numpy.int32)
    numpy.bitwise_and(keys, PAIR_ID_MASK, out=members, casting="unsafe")
    # The ascending key column, read as a CSR by its side-1 id.
    span_starts = numpy.searchsorted(
        keys, numpy.arange(len(value1) + 1, dtype=numpy.int64) << PAIR_ID_BITS
    )
    return _product_index(
        NeighborSimilarityIndex,
        "similarity.neighbor_pairs_scored",
        engine,
        (parents1, parents2),
        n_shards,
        cooccurring,
        *top_neighbor_csr(top_neighbors1, parents1, value1),
        span_starts,
        members,
        *transposed_csr(
            *top_neighbor_csr(top_neighbors2, parents2, value2), len(value2)
        ),
        shards,
        sims,
        parents1.images_in(value1) if cooccurring else array("q"),
        value2.images_in(parents2) if cooccurring else array("q"),
    )
