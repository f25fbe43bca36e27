"""Bulk kernels over packed pair-key columns (NumPy).

The hot bulk operations of the packed similarity core — the
shard-ordered slab fold of the row-owned similarity kernels, ragged
span expansion, order-preserving duplicate-key summation, the CSR
ranked rows cut at a depth, H4's rank count, the neighbor pairs'
co-occurrence filter, the
online resolver's span gather, exact top-k and co-occurrence, CRC32 by
combination and the digest's canonical columns — run vectorized, one
implementation each.  Every fold here keeps the
floating-point accumulation order of the string-keyed specification in
``tests/oracles.py`` (``np.bincount`` adds weights one element at a
time, front to back, which *is* the scan order), and the golden digests
pin that order.  Every column's ids are interner ids, which are URI order,
so an integer tie-break here is the URI tie-break.
"""

from __future__ import annotations

import sys
import zlib
from array import array

import numpy as _np

#: Bound on each part of a bulk pass's working set.  The similarity
#: kernels cut a task's rows into runs of at most this many cells,
#: contributions and slab slots (a run is at least one row); the passes
#: around them — the value pairs' shards, the kernels' row work, H4's
#: rank count and side-1 ranking — walk their columns in pieces sized
#: from it (:func:`pieces`; a ranking group is at least one row).  Not a
#: knob: build time is flat from 2¹⁷ to 2²⁰ on every benchmark scale,
#: and the transient bytes, which this fixes whatever the KB, are not
#: (docs/PERFORMANCE.md).
RUN_SIZE = 1 << 18


def pieces(length: int, share: int = 1) -> list[slice]:
    """``range(length)`` cut into consecutive slices of ``RUN_SIZE //
    share`` positions (at least one; the last may be shorter): the
    pieces of a pass whose per-position transients take ``share`` times
    a unit pass's bytes."""
    size = max(1, RUN_SIZE // share)
    return [slice(lo, min(lo + size, length)) for lo in range(0, length, size)]


def array_copy(typecode: str, column) -> array:
    """An ``array`` copy of any buffer-protocol column (NumPy array,
    ``memoryview`` or ``array``) holding that element type."""
    out = array(typecode)
    out.frombytes(memoryview(column).cast("B"))
    return out


def packed_keys_valid(keys, n_entities1: int, n_entities2: int) -> bool:
    """Whether a packed pair-key column is strictly ascending with every
    id inside its interner — the invariant bisect lookups and the
    ranked-row build rest on.  One vectorized pass."""
    if len(keys) == 0:
        return True
    column = _np.asarray(keys)
    return bool(
        column[0] >= 0
        and (column[-1] >> 32) < n_entities1
        and (column[1:] > column[:-1]).all()
        and ((column & 0xFFFFFFFF) < n_entities2).all()
    )


def _uri_ranks(ids, interner) -> tuple[list[str], array]:
    """Of the entity ids occurring in ``ids``: their URIs ascending, and
    the ``id -> rank among them`` table (0 for an id that never occurs)."""
    uris = interner.uris()
    used = _np.zeros(len(uris), dtype=bool)
    used[ids] = True
    referenced = _np.flatnonzero(used).tolist()
    ranks = array("q", bytes(8 * len(uris)))
    for rank, entity_id in enumerate(referenced):
        ranks[entity_id] = rank
    return [uris[entity_id] for entity_id in referenced], ranks


def canonical_pair_columns(keys, sims, interner1, interner2):
    """An ascending packed pair column, re-expressed free of its
    interners: the bytes the digest hashes.

    Returns ``(uris1, uris2, keys, sims)``: per side the URIs *occurring
    in a pair*, ascending; the ``int64`` keys re-packed over each URI's
    rank in its list, still ascending (ids are URI order); the
    ``float64`` similarities beside them; both columns little-endian — a
    function of the ``{(uri1, uri2): sim}`` map alone.  Raises
    ``ValueError`` on a non-finite similarity.
    """
    keys = _np.asarray(keys, dtype=_np.int64)
    sims = _np.asarray(sims, dtype=_np.float64)
    if not _np.isfinite(sims).all():
        raise ValueError("similarity column holds a non-finite value")
    ids1, ids2 = pair_ids(keys)
    uris1, ranks1 = _uri_ranks(ids1, interner1)
    uris2, ranks2 = _uri_ranks(ids2, interner2)
    keys = (_np.asarray(ranks1)[ids1] << 32) | _np.asarray(ranks2)[ids2]
    if sys.byteorder == "big":
        keys, sims = array_copy("q", keys), array_copy("d", sims)
        keys.byteswap()
        sims.byteswap()
    return uris1, uris2, keys, sims


def sequential_unique_sums(keys, weights):
    """Per-key totals of a contribution column, in element order.

    Returns ``(unique keys ascending, per-key sums)``.  Equivalent to
    ``for k, w in zip(keys, weights): sums[k] = sums.get(k, 0.0) + w``
    — including the float addition order per key: ``np.bincount`` walks
    the column once, front to back, adding each weight to its key's
    slot, so repeated keys accumulate in element order whatever order
    the sort behind ``np.unique`` visited them in.
    """
    unique, inverse = _np.unique(keys, return_inverse=True)
    sums = _np.bincount(inverse, weights=weights)
    # bincount types the sums of an *empty* column int64
    return unique, sums.astype(_np.float64, copy=False)


def merged_sums(columns):
    """Per-key totals of several ``(keys, sums)`` column pairs, each
    key's sums added in the order the pairs come in:
    :func:`sequential_unique_sums` over their concatenation."""
    keys, sums = zip(*columns)
    return sequential_unique_sums(_np.concatenate(keys), _np.concatenate(sums))


def shard_ordered_sums(
    cells, shards, weights, n_shards, first_row, n_rows, width
):
    """Per-cell totals of a contribution column, folded shard by shard.

    Contribution ``i`` adds ``weights[i]`` to cell ``cells[i]`` of a
    row-major ``n_rows x width`` slab, inside shard ``shards[i]``.  Per
    cell and shard the weights add up from ``0.0`` in element order; a
    cell's total is its subtotals added in ascending shard order (per
    pair: ``tests/oracles.py::shard_merged_sum``).  Returns ``(packed
    keys ascending, totals)`` of the touched cells, ``(r, c)`` packed as
    ``first_row + r << 32 | c``.

    A bitmap of the touched cells gives each a slot (``cumsum``),
    **one** ``bincount`` over ``shard * support + slot`` fills
    ``n_shards`` slabs in element order, and the slabs add up in shard
    order — a ``(cell, shard)`` nobody touched holds ``+0.0``, and
    ``x + 0.0 == x``.
    """
    touched = _np.zeros(n_rows * width, dtype=bool)
    touched[cells] = True
    slots = _np.cumsum(touched)
    support = int(slots[-1]) if len(slots) else 0
    index = slots[cells]
    index += shards * support - 1
    slabs = _np.bincount(index, weights, minlength=n_shards * support)
    slabs = slabs.reshape(n_shards, support)
    # bincount types the sums of an *empty* column int64
    totals = slabs[0].astype(_np.float64)
    for slab in slabs[1:]:
        totals += slab
    rows, columns = _np.divmod(_np.flatnonzero(touched), width)
    return (rows + first_row << 32) | columns, totals


def ragged_indices(starts, counts):
    """The positions ``starts[i] .. starts[i] + counts[i]`` of every
    span, concatenated in span order, beside the span ``i`` each
    belongs to: ``(owners, positions)``.  Gathering a per-span column
    by ``owners`` repeats it ``counts`` times, at a third of the price
    of ``np.repeat``."""
    ends = _np.cumsum(counts, dtype=_np.int64)
    owners = _np.repeat(_np.arange(len(counts)), counts)
    positions = (starts - (ends - counts))[owners]
    positions += _np.arange(len(owners))
    return owners, positions


def pair_ids(keys):
    """The ``(id1, id2)`` columns of a packed pair-key column."""
    keys = _np.asarray(keys, dtype=_np.int64)
    return keys >> 32, keys & 0xFFFFFFFF


def side_pairs(keys, sims, side):
    """``(this side's ids, the other side's ids, sims)`` of an ascending
    packed pair column, in its order — what :func:`ranked_side` ranks."""
    ids = pair_ids(keys)
    return ids[side - 1], ids[2 - side], _np.asarray(sims, dtype=_np.float64)


def row_groups(keys, sims, n, rows=None):
    """Side 1's rows of an ascending packed pair column (only ``rows``
    when given: ascending, distinct ids), cut into groups of consecutive
    rows of at most ``RUN_SIZE // 4`` pairs (a pair's gather and rank
    take about four times a unit pass's bytes), a group being at least
    one row — each side-1 row is one run of the key column.

    Yields, per group, ``(first id, id count, pairs)``: ``pairs`` is
    what :func:`ranked_side` ranks over ``id count`` ids — the group's
    pairs gathered run by run, their side-1 ids counted from the
    group's first — and :func:`joined_rows` places the ranked groups.
    """
    keys = _np.asarray(keys, dtype=_np.int64)
    sims = _np.asarray(sims, dtype=_np.float64)
    rows = _np.arange(n, dtype=_np.int64) if rows is None else rows
    rows = _np.asarray(rows, dtype=_np.int64)
    starts = _np.searchsorted(keys, rows << 32)
    counts = _np.searchsorted(keys, (rows + 1) << 32) - starts
    ends = _np.cumsum(counts)  # pairs through each row
    size = max(1, RUN_SIZE // 4)
    lo = 0
    while lo < len(rows):
        before = ends[lo] - counts[lo]
        hi = max(lo + 1, int(_np.searchsorted(ends, before + size, "right")))
        stop = starts[hi - 1] + counts[hi - 1]
        if stop - starts[lo] == ends[hi - 1] - before:  # one run: a view
            positions = slice(starts[lo], stop)
        else:
            _, positions = ragged_indices(starts[lo:hi], counts[lo:hi])
        first = int(rows[lo])
        ids1, ids2 = pair_ids(keys[positions])
        ids1 -= first
        count = int(rows[hi - 1]) - first + 1
        yield first, count, (ids1, ids2, sims[positions])
        lo = hi


def joined_rows(groups, n):
    """One side's ranked rows over ``n`` ids from :func:`ranked_side`'s
    results on :func:`row_groups`' groups, ``(first id, result)`` in
    ascending id order: the groups' cut rows end to end, each row's
    offset and true length in its place (a row no group holds is
    empty).  Returns what :func:`ranked_side` returns."""
    counts = _np.zeros(n, dtype=_np.int64)
    lengths = _np.zeros(n, dtype=_np.int64)
    cols, sims, kept = array("i"), array("d"), 0
    for first, ranked in groups:
        starts, group_cols, group_sims, group_lengths, group_kept = ranked
        stop = first + len(group_lengths)
        counts[first:stop] = _np.diff(_np.asarray(starts))
        lengths[first:stop] = group_lengths
        cols += group_cols
        sims += group_sims
        kept += group_kept
    starts = _np.zeros(n + 1, dtype=_np.int64)
    _np.cumsum(counts, out=starts[1:])
    return array_copy("q", starts), cols, sims, array_copy("q", lengths), kept


def in_top_k(keys, sims, side, ids1, ids2, k):
    """Per query pair ``(ids1[i], ids2[i])``: whether its ``side`` row
    lists the other entity among its first ``k`` in ``(-sim, other
    id)`` order — :func:`ranked_side`'s order — counted, not ranked.

    A pair is listed when it is in the ascending packed column ``keys``
    and fewer than ``k`` pairs of its row beat it: a greater similarity,
    or an equal one (``-0.0 == +0.0``) with a smaller other id.  A
    negative id (a URI the index's interner lacks) is in no row.  Every
    pair of the column meets its row's query in one masked pass over
    the key column: as many passes as the busiest row has queries (H4's
    matches are one-to-one, so one), each walking the column in
    :func:`pieces` and adding up each row's count of pairs ahead.
    Returns a ``bool`` array.
    """
    keys = _np.asarray(keys, dtype=_np.int64)
    sims = _np.asarray(sims, dtype=_np.float64)
    ids1 = _np.asarray(ids1, dtype=_np.int64)
    ids2 = _np.asarray(ids2, dtype=_np.int64)
    listed = _np.zeros(len(ids1), dtype=bool)
    query = (ids1 << 32) | ids2
    at = _np.searchsorted(keys, query)
    found = (ids1 >= 0) & (ids2 >= 0) & (at < len(keys))
    found[found] = keys[at[found]] == query[found]
    pending = _np.flatnonzero(found)
    if k < 1 or not len(pending):
        return listed
    rows, others = (ids1, ids2) if side == 1 else (ids2, ids1)
    n = int(rows[pending].max()) + 1
    while len(pending):
        _, firsts = _np.unique(rows[pending], return_index=True)
        now = pending[firsts]
        pending = _np.delete(pending, firsts)
        # per row, the query's similarity and other id (row n: none)
        bars = _np.full(n + 1, _np.inf)  # no finite similarity beats it
        bars[rows[now]] = sims[at[now]]
        bar_others = _np.zeros(n + 1, dtype=_np.int64)
        bar_others[rows[now]] = others[now]
        ahead = _np.zeros(n + 1, dtype=_np.int64)
        for piece in pieces(len(keys)):
            piece_keys, piece_sims = keys[piece], sims[piece]
            pair_rows = (
                piece_keys >> 32 if side == 1 else piece_keys & 0xFFFFFFFF
            )
            _np.minimum(pair_rows, n, out=pair_rows)  # row n: no query's
            pair_bars = bars[pair_rows]
            ahead += _np.bincount(
                pair_rows[piece_sims > pair_bars], minlength=n + 1
            )
            tied = _np.flatnonzero(piece_sims == pair_bars)
            tied_rows, tied_keys = pair_rows[tied], piece_keys[tied]
            tied_others = (
                tied_keys & 0xFFFFFFFF if side == 1 else tied_keys >> 32
            )
            ahead += _np.bincount(
                tied_rows[tied_others < bar_others[tied_rows]], minlength=n + 1
            )
        listed[now] = ahead[rows[now]] < k
    return listed


def ranked_side(rows, other, sims, n, depth=None):
    """One side's CSR ranked rows of a pair column, cut at ``depth``.

    ``rows`` / ``other`` are each pair's id on this side and on the
    other, ``sims`` its similarity, all in the ascending ``(id1, id2)``
    order of a packed key column; ``n`` is this side's id count.
    Returns ``(starts, cols, sims, lengths, kept)``: the rows as
    ``array`` s (typecodes ``q``, ``i``, ``d``), each ordered by
    ``(-sim, other)`` — since ids are URI order, the per-entity
    ``sort(key=(-sim, uri))`` list — and cut to its first ``depth``
    entries (whole when ``None``); every row's true length (``q``); and
    how many pairs entered the exact rank.

    **The exact rank.**  The counterpart-id tie-break is never sorted
    on: within one row of the key column the pairs already stand in
    ``other`` order, so a *stable* argsort by ``-sim`` keeps it, and
    one integer sort of ``row << 32 | rank`` groups the rows.

    **The depth cut** keeps the rank off whole rows.  A coarse key —
    the top 31 bits of a descending, order-preserving integer image of
    each float (``-0.0`` folded onto ``+0.0``, so equal floats share
    it) — packs under the row as ``row << 31 | coarse``, and one integer
    sort gives each row longer than ``depth`` its ``depth``-th packed
    value as a bar.  Only pairs at or below their row's bar enter the
    exact rank.  The coarse key never ranks a better pair after a worse
    one, so a pair above the bar trails ``depth`` strictly better pairs
    and is in no top ``depth``: the kept pairs hold every row's exact
    top ``depth``, boundary ties included.
    """
    rows = _np.asarray(rows, dtype=_np.int64)
    other = _np.asarray(other)
    sims = _np.asarray(sims, dtype=_np.float64)
    lengths = _np.bincount(rows, minlength=n)
    if depth is not None and len(rows) and lengths.max() > depth:
        kept = _top_depth_pairs(rows, sims, lengths, depth)
        rows, other, sims = rows[kept], other[kept], sims[kept]
    by_sim = _np.argsort(-sims, kind="stable")
    rank = _np.empty(len(sims), dtype=_np.int64)
    rank[by_sim] = _np.arange(len(sims), dtype=_np.int64)
    grouped = _np.sort((rows << 32) | rank)
    order = by_sim[grouped & 0xFFFFFFFF]
    counts = lengths
    if depth is not None:
        counts = _np.minimum(lengths, depth)
        grouped >>= 32
        kept_counts = _np.bincount(grouped, minlength=n)
        firsts = _np.cumsum(kept_counts) - kept_counts
        order = order[_np.arange(len(order)) - firsts[grouped] < depth]
    starts = _np.zeros(n + 1, dtype=_np.int64)
    _np.cumsum(counts, out=starts[1:])
    return (
        array_copy("q", starts),
        array_copy("i", other[order].astype(_np.int32)),
        array_copy("d", sims[order]),
        array_copy("q", lengths),
        len(sims),
    )


#: Which ``int32`` of a ``float64`` holds its sign, exponent and top
#: mantissa bits.
_HIGH_WORD = 1 if sys.byteorder == "little" else 0


def _top_depth_pairs(rows, sims, lengths, depth):
    """The positions :func:`ranked_side`'s depth cut keeps: the pairs
    whose ``row << 31 | coarse`` key is at or below their row's bar."""
    # The top 31 bits of a double's order-preserving 64-bit image are
    # those of its high word's 32-bit image: read the high words only.
    high = (sims + 0.0).view(_np.int32)[_HIGH_WORD::2]  # -0.0 + 0.0 is +0.0
    # flip a negative float's magnitude bits: the integer ascends with it
    coarse = high >> 31
    coarse &= 0x7FFFFFFF
    coarse ^= high
    # the top 31 bits of its descending image, shifted into [0, 2**31)
    _np.invert(coarse, out=coarse)
    coarse >>= 1
    coarse += 1 << 30
    packed = rows << 31
    packed |= coarse
    ordered = _np.sort(packed)
    long_rows = _np.flatnonzero(lengths > depth)
    bars = _np.full(len(lengths), _np.iinfo(_np.int64).max, dtype=_np.int64)
    bars[long_rows] = ordered[
        (_np.cumsum(lengths) - lengths)[long_rows] + depth - 1
    ]
    return _np.flatnonzero(packed <= bars[rows])


def pairs_translated_into(keys, sims, images1, images2, within):
    """The ``(keys, sims)`` of an ascending packed column whose pairs,
    ids mapped through ``images1`` / ``images2``, are keys of the
    ascending packed column ``within``.  The image tables ascend (ids
    are URI order on both sides), so the mapped keys do too, and each
    key of ``within`` is searched among them.  An id without an image
    maps to ``-1`` and packs a negative key: the running maximum keeps
    the column ascending, and a left search finds a key before its copies.
    """
    keys = _np.asarray(keys, dtype=_np.int64)
    mapped = _np.asarray(images1, dtype=_np.int64)[keys >> 32]
    mapped <<= 32
    mapped |= _np.asarray(images2, dtype=_np.int64)[keys & 0xFFFFFFFF]
    _np.maximum.accumulate(mapped, out=mapped)
    within = _np.asarray(within, dtype=_np.int64)
    at = _np.searchsorted(mapped, within)
    found = at < len(mapped)
    found[found] = mapped[at[found]] == within[found]
    kept = at[found]
    return keys[kept], _np.asarray(sims, dtype=_np.float64)[kept]


def gathered_candidate_sums(
    ids_flat, span_starts, span_stops, span_values, span_bases=None
):
    """Per-key totals over selected slices of a flat id column.

    The online resolver's gather: span ``i`` selects the CSR row
    ``ids_flat[span_starts[i] : span_stops[i]]`` (a probed block row, or
    the top-neighbor parents of one value candidate) and adds
    ``span_values[i]`` to every id in it, OR-ed with ``span_bases[i]``
    when given — multiples of ``2**32``: the batch resolver packs
    ``record_index << 32`` there, so one call scores a whole batch and
    the keys come out grouped by record.  Returns ``(keys ascending,
    per-key sums)``.

    Per key the values add up from ``0.0`` in the nested-loop order
    ``for span: for id in row`` (the gather produces exactly that
    element order and :func:`sequential_unique_sums` folds it), and a
    key only ever receives its own record's spans — so every sum is
    bit-identical whatever else shares the batch.
    """
    starts = _np.asarray(span_starts, dtype=_np.int64)
    owners, positions = ragged_indices(
        starts, _np.asarray(span_stops, dtype=_np.int64) - starts
    )
    keys = _np.asarray(ids_flat)[positions].astype(_np.int64)
    if span_bases is not None:
        keys |= _np.asarray(span_bases, dtype=_np.int64)[owners]
    values = _np.asarray(span_values, dtype=_np.float64)
    return sequential_unique_sums(keys, values[owners])


def group_bounds(keys, n_groups):
    """Where each group of an ascending ``group << 32 | id`` key column
    starts (what :func:`gathered_candidate_sums` returns with
    ``span_bases``): ``n_groups + 1`` offsets, group ``g`` owning
    positions ``bounds[g] : bounds[g + 1]``, a plain list."""
    firsts = _np.arange(n_groups + 1, dtype=_np.int64) << 32
    return _np.searchsorted(_np.asarray(keys), firsts).tolist()


def top_ranked(ids, sums, k):
    """The positions of the ``k`` best entries by ``(-sum, id)``, best
    first — since ids are URI order, the first ``k`` of
    ``sorted(key=(-score, uri))``, exactly.

    A partition finds the ``k``-th largest sum; every entry at or above
    it (ties at the boundary included) enters one ``lexsort``, so the
    boundary ties break on the id and nothing below the bar is sorted.
    """
    ids = _np.asarray(ids)
    sums = _np.asarray(sums, dtype=_np.float64)
    if len(sums) <= k:
        return _np.lexsort((ids, -sums))
    bar = -_np.partition(-sums, k - 1)[k - 1]
    kept = _np.flatnonzero(sums >= bar)
    return kept[_np.lexsort((ids[kept], -sums[kept]))[:k]]


def positions_within(ids, images, within):
    """The positions of ``ids`` whose image ``images[id]`` occurs in the
    ascending column ``within`` (an image of ``-1`` occurs nowhere):
    one binary search per id."""
    mapped = _np.asarray(images)[_np.asarray(ids)]
    within = _np.asarray(within)
    if not len(within):
        return _np.flatnonzero(mapped[:0])
    at = _np.searchsorted(within, mapped)
    _np.minimum(at, len(within) - 1, out=at)
    return _np.flatnonzero(within[at] == mapped)


# ----------------------------------------------------------------------
# Vectorized CRC32 (zlib-compatible) by combination of cached CRCs
# ----------------------------------------------------------------------
def crc32_shift_tables(lengths):
    """Per distinct byte length ``L``, the lookup table of ``Z_L``.

    ``zlib.crc32(a + b) == Z_L(zlib.crc32(a)) ^ zlib.crc32(b)`` with
    ``L = len(b)``: running a CRC over ``L`` more bytes is affine in its
    start value and ``Z_L`` is the linear part — what ``L`` zero bytes
    do to each start bit, so 32 ``zlib.crc32`` calls per length span it.
    Returns a flat ``uint32`` column of ``(4, 256)`` blocks (``Z_L`` of
    every value of each start byte) and, per input length, the offset
    of its block.
    """
    distinct, rows = _np.unique(
        _np.asarray(lengths, dtype=_np.int64), return_inverse=True
    )
    byte_values = _np.arange(256, dtype=_np.uint32)
    tables = _np.zeros((len(distinct), 4, 256), dtype=_np.uint32)
    for table, length in zip(tables, distinct.tolist()):
        zeros = bytes(length)
        origin = zlib.crc32(zeros, 0)
        for bit in range(32):
            image = _np.uint32(zlib.crc32(zeros, 1 << bit) ^ origin)
            table[bit >> 3] ^= ((byte_values >> (bit & 7)) & 1) * image
    return tables.reshape(-1), rows.astype(_np.int64) * 1024


def crc32_combined(prefix_crcs, suffix_crcs, suffix_rows, tables):
    """``zlib.crc32(prefix + suffix)`` per row from the parts' own CRCs.

    ``prefix_crcs`` / ``suffix_crcs`` are ``uint32`` columns of
    ``zlib.crc32(prefix)`` / ``zlib.crc32(suffix)``; ``tables`` and
    ``suffix_rows`` come from :func:`crc32_shift_tables` over the suffix
    lengths.  Four gathers and four XORs per row, no byte is read — and
    the result *is* the zlib CRC of the concatenation, by identity.
    """
    return (
        tables[suffix_rows + (prefix_crcs & 0xFF)]
        ^ tables[suffix_rows + 256 + ((prefix_crcs >> 8) & 0xFF)]
        ^ tables[suffix_rows + 512 + ((prefix_crcs >> 16) & 0xFF)]
        ^ tables[suffix_rows + 768 + (prefix_crcs >> 24)]
        ^ suffix_crcs
    )
