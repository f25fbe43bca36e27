"""Unit tests for the executor abstraction (serial/thread/process)."""

import os
from array import array

import pytest

from repro.engine import (
    EXECUTOR_NAMES,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    auto_workers,
    create_executor,
)


def _square(values):
    return [v * v for v in values]


def _shards(*partitions):
    """``map_columns`` shards of one ``int64`` column each."""
    return [(array("q", partition),) for partition in partitions]


ALL_EXECUTORS = [
    pytest.param(lambda: SerialExecutor(), id="serial"),
    pytest.param(lambda: ThreadExecutor(3), id="thread"),
    pytest.param(lambda: ProcessExecutor(2), id="process"),
]


class TestMapPartitions:
    """``map_columns``, the one dispatch, over one column per partition."""

    @pytest.mark.parametrize("make", ALL_EXECUTORS)
    def test_results_in_partition_order(self, make):
        shards = _shards([1, 2], [3], [4, 5, 6], [])
        with make() as executor:
            assert executor.map_columns(_square, shards) == [
                [1, 4],
                [9],
                [16, 25, 36],
                [],
            ]

    @pytest.mark.parametrize("make", ALL_EXECUTORS)
    def test_empty_partition_list(self, make):
        with make() as executor:
            assert executor.map_columns(_square, []) == []


class TestLifecycle:
    def test_close_is_idempotent(self):
        executor = ThreadExecutor(2)
        executor.map_columns(_square, _shards([1], [2]))
        executor.close()
        executor.close()

    def test_pool_reusable_across_calls(self):
        with ProcessExecutor(2) as executor:
            first = executor.map_columns(_square, _shards([1], [2]))
            second = executor.map_columns(_square, _shards([3], [4]))
        assert first == [[1], [4]]
        assert second == [[9], [16]]

    def test_single_partition_avoids_pool(self):
        executor = ThreadExecutor(4)
        assert executor.map_columns(_square, _shards([2])) == [[4]]
        assert executor._pool is None  # not spun up for one partition
        executor.close()


class TestCreateExecutor:
    def test_known_names(self):
        for name in EXECUTOR_NAMES:
            executor = create_executor(name, workers=2)
            assert executor.name == name
            executor.close()

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown executor"):
            create_executor("spark")

    def test_serial_always_one_worker(self):
        assert create_executor("serial").workers == 1

    def test_auto_workers_at_least_one(self):
        assert auto_workers() >= 1
        assert create_executor("thread").workers == auto_workers()

    def test_auto_workers_counts_usable_cpus(self, monkeypatch):
        # A process pinned to 3 CPUs of a larger machine starts 3 workers.
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: {0, 5, 9}, raising=False
        )
        assert create_executor("thread").workers == 3

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            ThreadExecutor(0)
