"""The interning layer: round-trips, determinism, packed keys.

Property tests (hypothesis) for :class:`repro.ids.EntityInterner` and
the packed-pair encode/decode, plus exact checks of the vectorized
kernels' contracts (zlib-compatible CRC, order-preserving summation).
"""

import zlib
from array import array
from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.ids import (
    MAX_ENTITY_ID,
    PAIR_ID_BITS,
    PAIR_ID_MASK,
    EntityInterner,
    pack_pair,
    unpack_pair,
)
from repro.ids import arrays

uri_sets = st.sets(st.text(min_size=1, max_size=30), min_size=0, max_size=40)
entity_ids = st.integers(min_value=0, max_value=MAX_ENTITY_ID)


class TestEntityInterner:
    @given(uri_sets)
    def test_round_trip_every_uri(self, uris):
        interner = EntityInterner(uris)
        assert len(interner) == len(uris)
        for uri in uris:
            assert interner.uri_of(interner.id_of(uri)) == uri

    @given(st.lists(st.text(min_size=1, max_size=30), max_size=40))
    def test_ids_independent_of_input_order_and_duplicates(self, uris):
        forward = EntityInterner(uris)
        backward = EntityInterner(reversed(uris + uris))
        assert forward.uris() == backward.uris()
        assert forward.ids_by_uri() == backward.ids_by_uri()

    @given(uri_sets)
    def test_id_order_is_uri_order(self, uris):
        interner = EntityInterner(uris)
        assert interner.uris() == sorted(uris)
        assert EntityInterner.from_uri_list(sorted(uris)).uris() == sorted(uris)

    def test_unknown_uri(self):
        interner = EntityInterner(["a"])
        assert interner.get("missing") is None
        with pytest.raises(KeyError):
            interner.id_of("missing")

    def test_membership_and_iteration(self):
        interner = EntityInterner(["y", "x"])
        assert "x" in interner and "z" not in interner
        assert list(interner) == ["x", "y"]

    @given(uri_sets, uri_sets)
    def test_images_in_map_ids_through_uris(self, uris, targets):
        """Per id, the target's id of the same URI (``-1`` where the
        target lacks it), ascending where defined."""
        source, target = EntityInterner(uris), EntityInterner(targets)
        images = source.images_in(target)
        assert images.typecode == "q"
        assert list(images) == [
            target.id_of(uri) if uri in target else -1 for uri in source
        ]
        defined = [image for image in images if image >= 0]
        assert defined == sorted(defined)


class TestPackedPairKeys:
    @given(entity_ids, entity_ids)
    def test_pack_unpack_round_trip(self, id1, id2):
        assert unpack_pair(pack_pair(id1, id2)) == (id1, id2)

    @given(entity_ids, entity_ids)
    def test_packed_key_fits_signed_int64(self, id1, id2):
        key = pack_pair(id1, id2)
        assert 0 <= key < 2**63

    @given(st.tuples(entity_ids, entity_ids), st.tuples(entity_ids, entity_ids))
    def test_packing_is_injective_and_order_preserving(self, pair_a, pair_b):
        key_a = pack_pair(*pair_a)
        key_b = pack_pair(*pair_b)
        assert (key_a == key_b) == (pair_a == pair_b)
        # ascending packed keys == ascending (id1, id2) tuples
        assert (key_a < key_b) == (pair_a < pair_b)

    def test_mask_and_bits_are_consistent(self):
        assert PAIR_ID_MASK == (1 << PAIR_ID_BITS) - 1
        assert MAX_ENTITY_ID == (1 << (PAIR_ID_BITS - 1)) - 1

    def test_interner_refuses_ids_beyond_packing_range(self, monkeypatch):
        """Either constructor refuses more URIs than a packed key can
        address (the bound lowered to 3 ids per KB)."""
        from repro.ids import interner as interner_module

        monkeypatch.setattr(interner_module, "MAX_ENTITY_ID", 2)
        assert len(EntityInterner.from_uri_list(["a", "b", "c"])) == 3
        with pytest.raises(OverflowError):
            EntityInterner(["a", "b", "c", "d"])
        with pytest.raises(OverflowError):
            EntityInterner.from_uri_list(["a", "b", "c", "d"])


class TestVectorizedKernels:
    @given(
        st.lists(
            st.tuples(st.binary(min_size=0, max_size=24), st.integers(0, 2**32 - 1)),
            min_size=1,
            max_size=30,
        )
    )
    @example([(b"", 0), (b"", 0xFFFFFFFF), (b"\x00", 1), (b"a\x00b\x00\x00", 7)])
    @example([(bytes(length), 0xDEADBEEF) for length in range(48)])
    def test_crc32_rows_matches_zlib(self, rows):
        """The combination kernel continues any running CRC over any
        suffix exactly as zlib does — empty suffixes, embedded and
        trailing NULs, 48 distinct lengths in one call."""
        import numpy

        from repro.ids.arrays import crc32_combined, crc32_shift_tables

        suffixes = [suffix for suffix, _ in rows]
        tables, table_rows = crc32_shift_tables([len(s) for s in suffixes])
        hashes = crc32_combined(
            numpy.array([prefix for _, prefix in rows], dtype=numpy.uint32),
            numpy.array([zlib.crc32(s) for s in suffixes], dtype=numpy.uint32),
            table_rows,
            tables,
        )
        assert hashes.dtype == numpy.uint32
        for position, (suffix, prefix) in enumerate(rows):
            assert int(hashes[position]) == zlib.crc32(suffix, prefix)

    @given(
        st.lists(st.text(max_size=12), min_size=1, max_size=12, unique=True),
        st.lists(st.text(max_size=12), min_size=1, max_size=12, unique=True),
        st.data(),
    )
    def test_packed_pair_shards_equal_the_string_key_shard(
        self, uris1, uris2, data
    ):
        self.assert_shards_agree(
            uris1,
            uris2,
            data.draw(
                st.lists(
                    st.tuples(
                        st.integers(0, len(uris1) - 1),
                        st.integers(0, len(uris2) - 1),
                    ),
                    max_size=40,
                )
            ),
        )

    def test_packed_pair_shards_over_many_lengths_and_encodings(self):
        """≥ 40 distinct suffix byte lengths in one column, the empty
        URI, embedded / trailing NULs and 2–4-byte UTF-8 sequences."""
        uris2 = ["", "\x00", "a\x00b", "tail\x00\x00", "é", "日本語", "🙂x"]
        uris2 += ["http://kb2/é" + "x" * n for n in range(45)]
        uris1 = ["", "urn:\x00:1", "ü" * 9] + [f"http://kb1/e{n}" for n in range(5)]
        assert len({len(uri.encode()) for uri in uris2}) >= 40
        self.assert_shards_agree(
            uris1,
            uris2,
            [(i, j) for i in range(len(uris1)) for j in range(len(uris2))],
        )

    @staticmethod
    def assert_shards_agree(uris1, uris2, id_pairs):
        """The shard of every packed key is, by definition, the stable
        hash of the pair's string key modulo the shard count — with the
        key column walked one, three or every key at a time, and equal
        to the whole-column form."""
        import numpy
        from oracles import packed_pair_shards_whole

        from repro.engine.partitioner import packed_pair_shards, stable_hash

        separator = "\x1f"
        interner1 = EntityInterner(uris1)
        interner2 = EntityInterner(uris2)
        uris1, uris2 = interner1.uris(), interner2.uris()
        keys = numpy.array(
            [pack_pair(id1, id2) for id1, id2 in id_pairs], dtype=numpy.int64
        )
        hashes = [
            stable_hash(uris1[id1] + separator + uris2[id2])
            for id1, id2 in id_pairs
        ]
        for n_shards in (1, 7, 16, 2**31 - 1):
            expected = [value % n_shards for value in hashes]
            # pieces of RUN_SIZE // 4 keys: one, three, every key
            for run_size in (1, 12, 1 << 40):
                with mock.patch.object(arrays, "RUN_SIZE", run_size):
                    shards = packed_pair_shards(
                        keys, interner1, interner2, separator, n_shards
                    )
                assert shards.dtype == numpy.int32
                assert shards.tolist() == expected, (n_shards, run_size)
            whole = packed_pair_shards_whole(
                keys, interner1, interner2, separator, n_shards
            )
            assert whole.tolist() == expected

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 20),
                st.floats(
                    min_value=1e-6, max_value=1e6, allow_nan=False
                ),
            ),
            max_size=200,
        )
    )
    def test_sequential_unique_sums_matches_dict_fold(self, contributions):
        import numpy

        from repro.ids.arrays import sequential_unique_sums

        reference: dict[int, float] = {}
        for key, weight in contributions:
            reference[key] = reference.get(key, 0.0) + weight
        keys = numpy.array([k for k, _ in contributions], dtype=numpy.int64)
        weights = numpy.array(
            [w for _, w in contributions], dtype=numpy.float64
        )
        unique, sums = sequential_unique_sums(keys, weights)
        assert {int(k): float(v) for k, v in zip(unique, sums)} == reference

    #: One contribution ``(shard, cell, weight)``: weights from subnormal
    #: to 1e300 (so an addition order that differed would show).
    _contribution = st.tuples(
        st.integers(0, 15),
        st.integers(0, 14),
        st.one_of(
            st.sampled_from([5e-324, 2.2250738585072014e-308, 0.1, 1e300]),
            st.floats(min_value=5e-324, max_value=1e300, allow_nan=False),
        ),
    )

    @given(st.lists(_contribution, max_size=60))
    @example([])
    @example([(shard, 7, 0.1 * (shard + 1)) for shard in range(16)])
    @example([(shard, shard % 15, 1e300) for shard in range(12)])
    @example([(3, 1, 1e300), (3, 2, 5e-324), (9, 2, 5e-324), (0, 1, 0.1)] * 3)
    def test_shard_ordered_sums_equals_the_per_shard_fold(self, contributions):
        """The slab fold vs ``sequential_unique_sums`` per shard followed
        by the shard-order fold, float ``==``: no contribution at all
        (dtypes kept), a cell in every shard, cells in exactly one shard,
        repeats inside one ``(cell, shard)``."""
        import numpy

        from repro.ids.arrays import sequential_unique_sums, shard_ordered_sums

        folded: dict[int, float] = {}
        for shard in range(16):
            mine = [(c, w) for s, c, w in contributions if s == shard]
            cells, subtotals = sequential_unique_sums(
                numpy.array([c for c, _ in mine], dtype=numpy.int64),
                numpy.array([w for _, w in mine], dtype=numpy.float64),
            )
            for cell, subtotal in zip(cells.tolist(), subtotals.tolist()):
                folded[cell] = folded.get(cell, 0.0) + subtotal
        # a 3 x 5 slab whose first row is output row 7
        expected = {
            ((7 + cell // 5) << 32) | cell % 5: total
            for cell, total in sorted(folded.items())
        }
        shards, cells, weights = (
            [c[position] for c in contributions] for position in range(3)
        )
        keys, sums = shard_ordered_sums(
            numpy.array(cells, dtype=numpy.int64),
            numpy.array(shards, dtype=numpy.int32),
            numpy.array(weights, dtype=numpy.float64),
            16, 7, 3, 5,
        )
        assert keys.dtype == numpy.int64 and sums.dtype == numpy.float64
        assert keys.tolist() == list(expected)
        assert sums.tolist() == list(expected.values())  # float ==


def _as_lists(columns):
    """Every output column of a kernel as a plain list."""
    return [list(column) for column in columns]


class TestResolverPrimitives:
    """The online resolver's primitives equal a dict-fold / sort / set
    reference, float for float."""

    #: weights from subnormal to 1e300, plus a few that tie
    _value = st.one_of(
        st.sampled_from([5e-324, 0.1, 0.5, 1.0, 1e300]),
        st.floats(min_value=5e-324, max_value=1e300, allow_nan=False),
    )

    @given(
        st.lists(st.integers(0, 20), max_size=30),
        st.lists(
            st.tuples(st.integers(0, 30), st.integers(0, 30), _value),
            max_size=12,
        ),
        st.one_of(st.none(), st.lists(st.integers(0, 3), max_size=12)),
        st.one_of(st.integers(0, 400), st.just(1 << 20)),
    )
    @example([], [], None, 0)
    @example([3, 1, 3], [(0, 0, 0.1), (2, 2, 0.5), (3, 3, 1.0)], None, 0)
    # each arm, with and without bases: the dense slab holds 4 (10)
    # slots for 6 (7) gathered ids, the sort arm's would hold 2**20
    @example([3, 1, 3], [(0, 3, 0.1), (0, 3, 0.5)], None, 0)
    @example([3, 1, 3], [(0, 3, 0.1), (0, 3, 0.5)], None, 1 << 20)
    @example(
        [4, 4, 2], [(0, 3, 0.1), (1, 3, 1e300), (0, 2, 5e-324)], [0, 0, 1], 0
    )
    @example(
        [4, 4, 2],
        [(0, 3, 0.1), (1, 3, 1e300), (0, 2, 5e-324)],
        [0, 0, 1],
        1 << 20,
    )
    def test_gathered_candidate_sums(self, ids, raw_spans, groups, spare):
        """Empty and zero-length spans, repeated ids inside one span,
        ``span_bases`` (non-decreasing multiples of ``2**32``), and id
        spaces ``spare`` wider than the largest id: the dense fold runs
        exactly when its ``groups x width`` slab is at most 16 slots per
        gathered id, and either arm gives the dict fold's keys and
        float bytes."""
        import numpy

        from repro.ids.arrays import gathered_candidate_sums

        spans = [
            (min(a, b, len(ids)), min(max(a, b), len(ids)), value)
            for a, b, value in raw_spans
        ]
        bases = None
        if groups is not None:
            groups = sorted((groups + [0] * len(spans))[: len(spans)])
            bases = [group << 32 for group in groups]
        reference: dict[int, float] = {}
        for at, (start, stop, value) in enumerate(spans):
            for position in range(start, stop):
                key = (bases[at] if bases else 0) | ids[position]
                reference[key] = reference.get(key, 0.0) + value
        starts, stops, values = ([s[i] for s in spans] for i in range(3))
        width = max(ids, default=-1) + 1 + spare
        gathered_ids = sum(stop - start for start, stop, _ in spans)
        slab = max(groups) + 1 if gathered_ids and groups else 1
        dense = 0 < slab * width <= 16 * gathered_ids
        sort = mock.patch.object(
            arrays, "sequential_unique_sums", wraps=arrays.sequential_unique_sums
        )
        with sort as sorted_arm:
            got_keys, got_sums = gathered_candidate_sums(
                array("i", ids), starts, stops, values, bases, width=width
            )
        assert sorted_arm.called is not dense
        assert got_keys.dtype == numpy.int64
        keys = sorted(reference)
        assert list(got_keys) == keys
        assert got_sums.tobytes() == array(
            "d", [reference[k] for k in keys]
        ).tobytes()

    @given(
        st.dictionaries(
            st.integers(0, 40),
            st.sampled_from([0.25, 0.5, 1.0, 2.0]),  # ties galore
            max_size=30,
        ),
        st.integers(1, 8),
    )
    @example({}, 1)  # empty input
    @example({7: 0.5, 2: 1.0, 4: 0.25}, 3)  # k == n
    @example({7: 0.5, 2: 1.0, 4: 0.25}, 8)  # k > n
    @example({9: 0.5, 3: 2.0, 5: 2.0, 1: 0.25}, 1)  # k = 1, tied at top
    @example({id_: 1.0 for id_ in (8, 3, 12, 0, 5)}, 2)  # all equal
    # ties straddling the boundary: 4 entries at the k-th value, k = 3
    @example({1: 2.0, 9: 0.5, 4: 0.5, 6: 0.5, 2: 0.5, 0: 0.25}, 3)
    def test_top_ranked(self, cells, k):
        """The positions of the first ``k`` of ``sorted(key=(-sum,
        id))``, ids in any order: ties at the k-th value break on the
        id, whatever the partition visited first."""
        from repro.ids.arrays import top_ranked

        ids, sums = list(cells), list(cells.values())
        expected = sorted(range(len(ids)), key=lambda j: (-sums[j], ids[j]))
        got = top_ranked(array("q", ids), array("d", sums), k)
        assert list(got) == expected[:k]

    @given(
        st.sets(st.integers(0, 15), max_size=10),
        st.lists(st.integers(-1, 15), min_size=12, max_size=12),
        st.sets(st.integers(0, 15), max_size=10),
    )
    @example(set(), [-1] * 12, set())
    @example({0, 3, 11}, [-1] * 12, {0, 3, 11})  # no id has an image
    def test_positions_within(self, ids, images, within):
        """The positions of the ids whose image is in ``within``."""
        from repro.ids.arrays import positions_within

        ids = sorted(i for i in ids if i < len(images))
        expected = [j for j, i in enumerate(ids) if images[i] in within]
        got = positions_within(
            array("q", ids), array("q", images), array("q", sorted(within))
        )
        assert list(got) == expected

    @given(st.lists(st.integers(0, 4), max_size=20), st.integers(5, 7))
    def test_group_bounds(self, groups, n_groups):
        from repro.ids.arrays import group_bounds

        keys = sorted((group << 32) | at for at, group in enumerate(groups))
        expected = [sum(1 for g in groups if g < b) for b in range(n_groups + 1)]
        assert group_bounds(array("q", keys), n_groups) == expected

    @given(
        st.lists(
            st.dictionaries(st.integers(0, 9), _value, max_size=6),
            min_size=1,
            max_size=4,
        )
    )
    def test_merged_sums(self, rows):
        """Each key's sums add up from ``0.0`` in row order: the dict
        merge ``acc[key] = acc.get(key, 0.0) + sum``."""
        from repro.ids.arrays import merged_sums

        reference: dict[int, float] = {}
        for row in rows:
            for key in sorted(row):
                reference[key] = reference.get(key, 0.0) + row[key]
        columns = [
            (array("q", sorted(row)), array("d", [row[k] for k in sorted(row)]))
            for row in rows
        ]
        keys = sorted(reference)
        assert _as_lists(merged_sums(columns)) == [
            keys,
            [reference[key] for key in keys],
        ]


class TestRankCount:
    """``in_top_k`` against a sort of each decoded row."""

    #: Few distinct scores, both zeros: rows are full of ties.
    _sims = st.sampled_from([-0.0, 0.0, 0.25, 0.5, 0.5000000000000001, 1.0])
    _pairs = st.dictionaries(
        st.tuples(st.integers(0, 5), st.integers(0, 5)), _sims, max_size=24
    )
    _queries = st.lists(
        st.tuples(st.integers(-1, 6), st.integers(-1, 6)), max_size=12
    )

    @given(_pairs, _queries, st.integers(0, 7))
    # a tie at the k-th similarity: the smaller other id is listed
    @example(
        {(0, 1): 1.0, (0, 2): 0.5, (0, 3): 0.5, (0, 4): 0.5, (1, 3): 0.5},
        [(0, 2), (0, 3), (0, 4), (1, 3)],
        2,
    )
    # -0.0 ties +0.0: the smaller other id wins, whatever its sign
    @example(
        {(0, 1): -0.0, (0, 2): 0.0, (1, 1): 0.0, (2, 1): -0.0},
        [(0, 1), (0, 2), (1, 1), (2, 1)],
        1,
    )
    # an absent pair and ids no interner holds are listed nowhere
    @example({(0, 1): 1.0}, [(0, 2), (1, 1), (-1, 1), (0, -1), (6, 6)], 3)
    # k at and above the row length
    @example({(2, 0): 0.25, (2, 1): 0.5, (3, 1): 1.0}, [(2, 0), (2, 1)], 2)
    @example({(2, 0): 0.25, (2, 1): 0.5, (3, 1): 1.0}, [(2, 0), (3, 1)], 7)
    # a one-pair row, queried twice
    @example({(4, 5): 0.5}, [(4, 5), (4, 5)], 1)
    # with the key column walked three pairs at a time, row 0 straddles
    # the piece edge and two pairs tying the query's bar sit before it
    @example(
        {(0, 0): 0.5, (0, 1): 0.5, (0, 2): 0.25, (0, 3): 0.5, (1, 0): 0.5},
        [(0, 3), (1, 0)],
        2,
    )
    @example(
        {(0, 0): 0.5, (0, 1): 0.5, (0, 2): 0.25, (0, 3): 0.5, (1, 0): 0.5},
        [(0, 3), (1, 0)],
        3,
    )
    # empty columns
    @example({}, [(0, 0), (-1, -1)], 1)
    @example({}, [], 1)
    def test_in_top_k_is_a_sorted_row_prefix(self, pairs, queries, k):
        """Per query and side: ``pair in sorted(row, key=(-sim, other
        id))[:k]`` — present, and fewer than ``k`` of its row beat it —
        with the key column walked one, three or every pair at a time,
        as the whole-column pass finds."""
        from oracles import in_top_k_whole

        from repro.ids.arrays import in_top_k

        keys = sorted(pairs)
        packed = array("q", [(id1 << 32) | id2 for id1, id2 in keys])
        sims = array("d", [pairs[pair] for pair in keys])
        ids1 = array("q", [id1 for id1, _ in queries])
        ids2 = array("q", [id2 for _, id2 in queries])
        for side in (1, 2):
            rows: dict[int, list] = {}
            for (id1, id2), sim in pairs.items():
                own, other = (id1, id2) if side == 1 else (id2, id1)
                rows.setdefault(own, []).append((-sim, other))
            expected = []
            for id1, id2 in queries:
                own, other = (id1, id2) if side == 1 else (id2, id1)
                top = [o for _, o in sorted(rows.get(own, []))[:k]]
                expected.append((id1, id2) in pairs and other in top)
            for run_size in (1, 3, 1 << 40):
                with mock.patch.object(arrays, "RUN_SIZE", run_size):
                    got = in_top_k(packed, sims, side, ids1, ids2, k)
                assert got.dtype == bool
                assert got.tolist() == expected, (side, run_size)
            whole = in_top_k_whole(packed, sims, side, ids1, ids2, k)
            assert whole.tolist() == expected, side
