"""Bulk kernels over packed pair-key columns (NumPy-gated).

The packed similarity core is pure stdlib; when NumPy is importable the
hot bulk operations — ragged cross-product expansion, order-preserving
duplicate-key summation, and the CSR ranked-row argsort — run
vectorized instead.  **Both paths are bit-identical**: every kernel
here reproduces the exact floating-point accumulation order of its
pure-Python counterpart (`np.bincount` adds weights one element at a
time, front to back, which *is* the scan order),
so golden digests do not depend on whether NumPy is present.

Set ``REPRO_DISABLE_NUMPY=1`` to force the stdlib fallback (the parity
tests run both paths and assert equality).
"""

from __future__ import annotations

import os
from array import array

try:  # pragma: no cover - exercised implicitly by every test run
    import numpy as _np
except ImportError:  # pragma: no cover - the stdlib-only environment
    _np = None


def numpy_enabled() -> bool:
    """True when the vectorized kernels should run (NumPy importable
    and not disabled via ``REPRO_DISABLE_NUMPY=1``)."""
    return _np is not None and os.environ.get("REPRO_DISABLE_NUMPY") != "1"


def numpy_module():
    """The :mod:`numpy` module (caller must check :func:`numpy_enabled`)."""
    return _np


def array_copy(typecode: str, column) -> array:
    """An ``array`` copy of any buffer-protocol column (NumPy array,
    ``memoryview`` or ``array``) holding that element type."""
    out = array(typecode)
    out.frombytes(memoryview(column).cast("B"))
    return out


def packed_keys_valid(keys, n_entities1: int, n_entities2: int) -> bool:
    """Whether a packed pair-key column is strictly ascending with every
    id inside its interner — the invariant bisect lookups and the
    ranked-row build rest on.  One vectorized pass (one Python pass
    without NumPy)."""
    if len(keys) == 0:
        return True
    if numpy_enabled():
        column = _np.asarray(keys)
        return bool(
            column[0] >= 0
            and (column[-1] >> 32) < n_entities1
            and (column[1:] > column[:-1]).all()
            and ((column & 0xFFFFFFFF) < n_entities2).all()
        )
    previous = -1
    for key in keys:
        if key <= previous or (key & 0xFFFFFFFF) >= n_entities2:
            return False
        previous = key
    return (previous >> 32) < n_entities1


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


def ragged_cross_products(
    a_flat, a_starts, a_counts, b_flat, b_starts, b_counts, values
):
    """Packed keys and repeated values of row-wise cross products.

    For each row ``i`` the kernel emits, in exactly the nested-loop
    order ``for a in A_i: for b in B_i``, the packed key
    ``a << 32 | b`` over ``A_i = a_flat[a_starts[i] : +a_counts[i]]``
    and ``B_i`` likewise, paired with ``values[i]`` repeated
    ``|A_i| * |B_i|`` times.  Rows are emitted in input order, so the
    concatenated output preserves the scan order of the equivalent
    Python loops.
    """
    reps = a_counts.astype(_np.int64) * b_counts
    total = int(reps.sum())
    if total == 0:
        return (
            _np.empty(0, dtype=_np.int64),
            _np.empty(0, dtype=_np.float64),
        )
    row_offsets = _np.zeros(len(reps), dtype=_np.int64)
    _np.cumsum(reps[:-1], out=row_offsets[1:])
    within = _np.arange(total, dtype=_np.int64) - _np.repeat(row_offsets, reps)
    b_width = _np.repeat(b_counts.astype(_np.int64), reps)
    idx_a = _np.repeat(a_starts.astype(_np.int64), reps) + within // b_width
    idx_b = _np.repeat(b_starts.astype(_np.int64), reps) + within % b_width
    keys = (a_flat[idx_a].astype(_np.int64) << 32) | b_flat[idx_b]
    return keys, _np.repeat(values, reps)


def ranked_csr(keys, sims, n_entities1, n_entities2):
    """Both sides' CSR ranked rows of an **ascending** packed pair column.

    Returns ``(starts1, cols1, sims1, starts2, cols2, sims2)`` as NumPy
    arrays, where side 1 rows sort by ``(id1, -sim, id2)`` and side 2
    rows by ``(id2, -sim, id1)`` — identical to the per-entity
    ``sort(key=(-sim, uri))`` of the dict-backed construction whenever
    id order equals URI order (sorted interners).

    The counterpart-id tie-break is never sorted on: in a column
    ascending by ``(id1, id2)`` two pairs sharing an entity on either
    side already stand in counterpart-id order, so one *stable* sort by
    ``-sim`` ranks every pair by ``(-sim, position)``, and each side is
    then one integer sort of the unique keys ``id << 32 | rank``.
    """
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


def gathered_candidate_sums(
    ids_flat, span_starts, span_stops, span_values, span_bases=None
):
    """Per-candidate totals over selected slices of a flat id column.

    The online-resolution kernel: each span ``i`` selects the slice
    ``ids_flat[span_starts[i] : span_stops[i]]`` (one probed block row)
    and contributes ``span_values[i]`` (the block's token weight) to
    every id in it.  Elements are emitted in exactly the nested-loop
    order ``for span: for id in slice`` and summed per key by
    :func:`sequential_unique_sums`, so the float accumulation order —
    and with it every sum — is bit-identical to the pure-Python
    ``for lo, hi, w in spans: for j in range(lo, hi): acc[ids[j]] += w``
    fallback.  Returns ``(unique keys ascending, per-key sums)``.

    With ``span_bases`` given, each gathered id is OR-ed with its
    span's ``int64`` base before summing; the batch variant packs
    ``record_index << 32`` there, so one call scores a whole batch of
    records and the ascending unique keys come out grouped by record.
    Per key the contribution order is unchanged (a key only receives
    elements of its own record's spans, in the same relative order as a
    single-record call), so batch scores equal sequential scores
    bit-for-bit.
    """
    counts = span_stops.astype(_np.int64) - span_starts
    total = int(counts.sum())
    if total == 0:
        return (
            _np.empty(0, dtype=_np.int64),
            _np.empty(0, dtype=_np.float64),
        )
    offsets = _np.zeros(len(counts), dtype=_np.int64)
    _np.cumsum(counts[:-1], out=offsets[1:])
    within = _np.arange(total, dtype=_np.int64) - _np.repeat(offsets, counts)
    idx = _np.repeat(span_starts.astype(_np.int64), counts) + within
    keys = ids_flat[idx].astype(_np.int64)
    if span_bases is not None:
        keys |= _np.repeat(span_bases.astype(_np.int64), counts)
    return sequential_unique_sums(keys, _np.repeat(span_values, counts))


# ----------------------------------------------------------------------
# Vectorized CRC32 (zlib-compatible) over per-row byte strings
# ----------------------------------------------------------------------
_CRC_TABLE = None


def _crc_table():
    global _CRC_TABLE
    if _CRC_TABLE is None:
        table = _np.empty(256, dtype=_np.uint32)
        for index in range(256):
            crc = _np.uint32(index)
            for _ in range(8):
                crc = (crc >> _np.uint32(1)) ^ (
                    _np.uint32(0xEDB88320) if crc & _np.uint32(1) else _np.uint32(0)
                )
            table[index] = crc
        _CRC_TABLE = table
    return _CRC_TABLE


def byte_table(encoded: list[bytes]):
    """A zero-padded ``(n, maxlen) uint8`` matrix plus row lengths.

    The bulk-gatherable form of a list of byte strings, for
    :func:`crc32_rows`.
    """
    lengths = _np.fromiter(
        (len(row) for row in encoded), dtype=_np.int64, count=len(encoded)
    )
    width = max(1, int(lengths.max()) if len(encoded) else 1)
    matrix = _np.frombuffer(
        _np.array(encoded, dtype=f"S{width}").tobytes(), dtype=_np.uint8
    ).reshape(len(encoded), width)
    return matrix, lengths


def crc32_rows(prefix_crcs, suffix_bytes, suffix_lengths):
    """``zlib.crc32(suffix, prefix)`` for every row, vectorized.

    ``prefix_crcs`` are zlib-style running CRCs (already final-XORed,
    as :func:`zlib.crc32` returns them); ``suffix_bytes`` is a
    zero-padded byte matrix with true row lengths in
    ``suffix_lengths``.  Matches :func:`zlib.crc32` bit-for-bit (the
    test suite asserts so exhaustively on random strings).
    """
    table = _crc_table()
    state = prefix_crcs.astype(_np.uint32) ^ _np.uint32(0xFFFFFFFF)
    for position in range(suffix_bytes.shape[1]):
        active = position < suffix_lengths
        advanced = table[
            (state ^ suffix_bytes[:, position]) & _np.uint32(0xFF)
        ] ^ (state >> _np.uint32(8))
        state = _np.where(active, advanced, state)
    return state ^ _np.uint32(0xFFFFFFFF)
