"""Unit tests for the deterministic partition layouts.

``hash_partitions`` is the reference shard layout of the parity tests'
string-keyed accumulations (``tests/oracles.py``); the engine itself
only chunks and hashes keys.
"""

import pytest

from repro.engine import chunk_evenly, partition_count, stable_hash

from oracles import hash_partitions


class TestStableHash:
    def test_deterministic_value(self):
        # CRC32 is specified; the value must never drift between runs.
        assert stable_hash("token") == stable_hash("token")
        assert stable_hash("token") == 0x5F37A13B

    def test_differs_by_key(self):
        assert stable_hash("a") != stable_hash("b")


class TestPartitionCount:
    def test_small_data_single_partition(self):
        assert partition_count(0) == 1
        assert partition_count(1) == 1
        assert partition_count(63) == 1

    def test_grows_with_data(self):
        assert partition_count(64) == 1
        assert partition_count(640) == 10

    def test_capped(self):
        assert partition_count(10**9) == 16

    def test_independent_of_worker_count(self):
        # The layout depends on data size only; this is what guarantees
        # bit-identical results across executors and worker counts.
        assert partition_count(1000) == partition_count(1000)


class TestHashPartitions:
    def test_covers_every_item_once(self):
        items = [f"k{i}" for i in range(100)]
        shards = hash_partitions(items, 7, key=lambda item: item)
        flattened = [item for shard in shards for item in shard]
        assert sorted(flattened) == sorted(items)

    def test_same_key_same_shard(self):
        shards1 = hash_partitions(["x", "y", "z"], 5, key=lambda item: item)
        shards2 = hash_partitions(["z", "x", "y"], 5, key=lambda item: item)
        placement1 = {item: i for i, shard in enumerate(shards1) for item in shard}
        placement2 = {item: i for i, shard in enumerate(shards2) for item in shard}
        assert placement1 == placement2

    def test_roughly_balanced(self):
        items = [f"key-{i}" for i in range(2000)]
        shards = hash_partitions(items, 8, key=lambda item: item)
        sizes = [len(shard) for shard in shards]
        assert min(sizes) > 0
        assert max(sizes) < 2 * (len(items) / len(shards))

    def test_rejects_zero_partitions(self):
        with pytest.raises(ValueError):
            hash_partitions([], 0, key=str)


class TestChunkEvenly:
    def test_preserves_order(self):
        chunks = chunk_evenly(list(range(10)), 3)
        assert [item for chunk in chunks for item in chunk] == list(range(10))

    def test_sizes_differ_by_at_most_one(self):
        chunks = chunk_evenly(list(range(11)), 4)
        sizes = {len(chunk) for chunk in chunks}
        assert sizes <= {2, 3}

    def test_more_chunks_than_items(self):
        chunks = chunk_evenly([1, 2], 5)
        assert chunks == [[1], [2]]

    def test_empty_sequence(self):
        assert chunk_evenly([], 3) == []
