"""Bulk kernels over packed pair-key columns (NumPy).

The hot bulk operations of the packed similarity core — the
shard-ordered slab fold of the row-owned similarity kernels, ragged
span expansion, order-preserving duplicate-key summation, the CSR
ranked-row argsort, the neighbor pairs' co-occurrence filter, the
online resolver's span gather and per-group ranking, CRC32 by
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
    ids1, ids2 = keys >> 32, keys & 0xFFFFFFFF
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


def ranked_csr(keys, sims, n_entities1, n_entities2):
    """Both sides' CSR ranked rows of an **ascending** packed pair column.

    Returns ``(starts1, cols1, sims1, starts2, cols2, sims2)`` as
    ``array`` s (typecodes ``q``, ``i``, ``d``), where side 1 rows sort
    by ``(id1, -sim, id2)`` and side 2 rows by ``(id2, -sim, id1)`` —
    since ids are URI order, the per-entity ``sort(key=(-sim, uri))``
    lists.

    The counterpart-id tie-break is never sorted on: in a column
    ascending by ``(id1, id2)`` two pairs sharing an entity on either
    side already stand in counterpart-id order, so a *stable* sort by
    ``-sim`` keeps it: one stable argsort ranks every pair by ``(-sim,
    position)``, and each side is then one integer sort of the unique
    keys ``id << 32 | rank``.
    """
    # the sort temporaries die with the call, before the copies
    rows = _ranked_rows(
        _np.asarray(keys, dtype=_np.int64),
        _np.asarray(sims, dtype=_np.float64),
        n_entities1,
        n_entities2,
    )
    return tuple(map(array_copy, "qidqid", rows))


def _ranked_rows(keys, sims, n_entities1, n_entities2):
    """:func:`ranked_csr` as NumPy columns."""
    id1 = keys >> 32
    id2 = keys & 0xFFFFFFFF
    by_sim = _np.argsort(-sims, kind="stable")
    rank = _np.empty(len(keys), dtype=_np.int64)
    rank[by_sim] = _np.arange(len(keys), dtype=_np.int64)
    order1 = by_sim[_np.sort((id1 << 32) | rank) & 0xFFFFFFFF]
    order2 = by_sim[_np.sort((id2 << 32) | rank) & 0xFFFFFFFF]
    starts1 = _np.zeros(n_entities1 + 1, dtype=_np.int64)
    _np.cumsum(_np.bincount(id1, minlength=n_entities1), out=starts1[1:])
    starts2 = _np.zeros(n_entities2 + 1, dtype=_np.int64)
    _np.cumsum(_np.bincount(id2, minlength=n_entities2), out=starts2[1:])
    return (
        starts1,
        id2[order1].astype(_np.int32),
        sims[order1],
        starts2,
        id1[order2].astype(_np.int32),
        sims[order2],
    )


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


def ranked_groups(keys, sums, n_groups, limit=None):
    """Rank gathered totals within their groups: ``(group, -sum, id)``.

    ``keys`` are ascending ``group << 32 | id`` with ``sums`` beside them
    (what :func:`gathered_candidate_sums` returns), every group below
    ``n_groups``.  Returns plain lists ``(bounds, ids, sums, ranked)``:
    group ``g`` owns positions ``bounds[g] : bounds[g + 1]`` of ``ids`` /
    ``sums`` (ascending id), and ``ranked[g]`` lists those positions by
    sum descending, ties to the smaller id (the smaller URI: ids are URI
    order), cut to the first ``limit`` when given.  One ``lexsort`` for
    every group.
    """
    keys = _np.asarray(keys, dtype=_np.int64)
    sums = _np.asarray(sums, dtype=_np.float64)
    groups, ids = keys >> 32, keys & 0xFFFFFFFF
    order = _np.lexsort((ids, -sums, groups)).tolist()
    sizes = _np.bincount(groups, minlength=n_groups)
    bounds = [0, *_np.cumsum(sizes).tolist()]
    ranked = [
        order[lo : hi if limit is None else min(hi, lo + limit)]
        for lo, hi in zip(bounds, bounds[1:])
    ]
    return bounds, ids.tolist(), sums.tolist(), ranked


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
