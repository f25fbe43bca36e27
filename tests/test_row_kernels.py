"""The row-owned similarity kernels against the per-pair oracle.

``build_value_index`` / ``build_neighbor_index`` hand contiguous ranges
of output rows to tasks, which produce them whole, in runs cut by a
module constant, folding each pair's contributions shard by shard.
These properties hold them, float ``==``, to
``oracles.value_sims_by_uri`` / ``neighbor_sims_by_uri`` — the scalar
statement of that fold (``shard_merged_sum``) over each pair's
contributions in scan order — and show that no cut of the row range
into tasks, and no run length, can move a byte of the ``(keys, sims)``
columns — and that the co-occurring neighbor build, which folds only the
cells that are value pairs, is the full build filtered, byte for byte.
"""

from unittest import mock

import numpy
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from oracles import (
    cooccurring_neighbor_index,
    decoded_pairs,
    index_of_pairs,
    neighbor_sims_by_uri,
    row_work_whole,
    value_sims_by_uri,
)

from repro.blocking.base import Block, BlockCollection
from repro.core.similarity import ValueSimilarityIndex
from repro.engine import (
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    similarity,
)
from repro.engine.partitioner import partition_count
from repro.engine.similarity import build_neighbor_index, build_value_index
from repro.ids import arrays

_RELAXED = settings(
    suppress_health_check=[HealthCheck.function_scoped_fixture]
)


def fine_partition_count(n_items: int) -> int:
    """One shard per two items (sixteen at most), so that inputs small
    enough to generate spread over every shard."""
    return partition_count(n_items, min_partition_size=2)


@pytest.fixture
def fine_shards(monkeypatch):
    monkeypatch.setattr(similarity, "partition_count", fine_partition_count)


def uri(side: int, position: int) -> str:
    return f"urn:kb{side}:e{position}"


def column_bytes(index) -> tuple[bytes, bytes]:
    keys, sims = index.packed_columns()
    return bytes(memoryview(keys).cast("B")), bytes(memoryview(sims).cast("B"))


def assert_no_cut_moves_a_byte(build) -> None:
    """``build()`` with the row range handed out as one task, as one
    task per row and under every single cut, and with the run-size
    constant at one slot (one row per slab) and at 2**40 (a task's rows
    in one slab), yields the columns of the plain build byte for byte."""
    expected = column_bytes(build())
    real_chunks = similarity.chunk_evenly
    n_rows = []

    def recorded(rows, n_chunks):
        n_rows.append(len(rows))
        return real_chunks(rows, n_chunks)

    with mock.patch.object(similarity, "chunk_evenly", recorded):
        build()
    (n,) = n_rows
    layouts = [[range(n)], [range(row, row + 1) for row in range(n)]]
    layouts.extend([range(cut), range(cut, n)] for cut in range(1, n))
    for layout in layouts:
        with mock.patch.object(
            similarity, "chunk_evenly", lambda rows, n_chunks: layout
        ):
            assert column_bytes(build()) == expected, layout
            for run_size in (1, 1 << 40):
                with mock.patch.object(arrays, "RUN_SIZE", run_size):
                    assert column_bytes(build()) == expected, (layout, run_size)


def assert_column_types(index) -> None:
    keys, sims = index.packed_columns()
    assert (keys.dtype, sims.dtype) == ("int64", "float64")


# ----------------------------------------------------------------------
# valueSim
# ----------------------------------------------------------------------
#: Blocks over six entities per side; an empty side makes a one-sided
#: block, which counts towards the shard count and contributes nothing.
raw_blocks = st.lists(
    st.tuples(
        st.sets(st.integers(0, 5), max_size=4),
        st.sets(st.integers(0, 5), max_size=4),
    ),
    max_size=40,
)


@_RELAXED
@given(raw=raw_blocks)
@example(raw=[])
@example(raw=[({0, 1}, set()), (set(), {2}), (set(), set())])  # one-sided only
def test_value_rows_equal_the_per_pair_oracle(numpy_arm, fine_shards, raw):
    blocks = BlockCollection("BT")
    for position, (side1, side2) in enumerate(raw):
        blocks.add(
            Block(
                f"t{position}",
                {uri(1, i) for i in side1},
                {uri(2, j) for j in side2},
            )
        )
    index = build_value_index(blocks)
    assert decoded_pairs(index) == value_sims_by_uri(
        blocks, fine_partition_count(len(blocks))
    )
    assert_column_types(index)
    assert_no_cut_moves_a_byte(lambda: build_value_index(blocks))


# ----------------------------------------------------------------------
# neighborNSim
# ----------------------------------------------------------------------
#: Value similarities from the smallest subnormal to 1e300, so that an
#: addition order that differed would show.
value_sims = st.one_of(
    st.sampled_from([5e-324, 2.2250738585072014e-308, 0.1, 0.5, 1.0, 1e300]),
    st.floats(min_value=5e-324, max_value=1e300, allow_nan=False),
)
value_pairs = st.dictionaries(
    st.tuples(st.integers(0, 7), st.integers(0, 7)), value_sims, max_size=40
)
#: Up to five parents per side, each listing neighbors 0..9: 8 and 9
#: never occur in the value index, so a parent may list absent
#: neighbors only, and an empty draw leaves a side without parents.
top_neighbor_maps = st.dictionaries(
    st.integers(0, 4), st.sets(st.integers(0, 9), min_size=1, max_size=6)
)


@_RELAXED
@given(pairs=value_pairs, tops1=top_neighbor_maps, tops2=top_neighbor_maps)
@example(pairs={}, tops1={0: {1}}, tops2={0: {1}})  # an empty value index
@example(  # parents 0 and 2 list absent neighbors only: rows without a cell
    pairs={(0, 0): 5e-324, (1, 0): 1e300, (1, 1): 0.1},
    tops1={0: {8, 9}, 1: {0, 1}, 2: {9}},
    tops2={0: {0, 1, 8}, 1: {0}},
)
def test_neighbor_rows_equal_the_per_pair_oracle(
    numpy_arm, fine_shards, pairs, tops1, tops2
):
    sims = {(uri(1, a), uri(2, b)): sim for (a, b), sim in pairs.items()}
    value_index = index_of_pairs(sims, ValueSimilarityIndex)
    neighbors1 = {
        f"urn:p1:{p}": {uri(1, n) for n in listed} for p, listed in tops1.items()
    }
    neighbors2 = {
        f"urn:p2:{p}": {uri(2, n) for n in listed} for p, listed in tops2.items()
    }
    expected = neighbor_sims_by_uri(
        sims, neighbors1, neighbors2, fine_partition_count(len(sims))
    )

    def build():
        return build_neighbor_index(value_index, neighbors1, neighbors2)

    index = build()
    assert decoded_pairs(index) == expected
    assert_column_types(index)
    assert_no_cut_moves_a_byte(build)


# ----------------------------------------------------------------------
# Row work: the run cuts' contribution counts
# ----------------------------------------------------------------------
def csr(rows) -> tuple[list[int], list[int]]:
    """``(starts, flat)`` of a list of rows."""
    starts = [0]
    for row in rows:
        starts.append(starts[-1] + len(row))
    return starts, [item for row in rows for item in row]


@given(st.data())
@example(None)  # one V row of six entries, over two A rows
def test_row_work_equals_the_whole_column_sums(data):
    """``_row_work`` — prefix sums taken over pieces of each column,
    carried from piece to piece — equals the whole-column prefix sums,
    with the pieces one, three or every entry long: piece edges fall
    inside a ``V`` row's entries and inside an ``A`` row."""
    if data is None:
        b_rows, v_rows = [[0], [0, 1, 2]], [[1, 0, 1, 1, 0, 1]]
        a_rows = [[0], [0, 0]]
    else:
        b_rows = data.draw(
            st.lists(
                st.lists(st.integers(0, 9), max_size=5), min_size=1, max_size=5
            )
        )
        members = st.lists(st.integers(0, len(b_rows) - 1), max_size=6)
        v_rows = data.draw(st.lists(members, min_size=1, max_size=5))
        ids = st.lists(st.integers(0, len(v_rows) - 1), max_size=4)
        a_rows = data.draw(st.lists(ids, max_size=5))
    starts2, _ = csr(b_rows)
    span_starts, members = csr(v_rows)
    row_starts, row_ids = csr(a_rows)
    operands = [
        numpy.array(column, dtype=numpy.int64)
        for column in (row_starts, row_ids, span_starts, members, starts2)
    ]
    expected = row_work_whole(*operands).tolist()
    assert expected[-1] == sum(
        len(b_rows[member]) for row in a_rows for v in row for member in v_rows[v]
    )
    for run_size in (1, 3, 1 << 40):
        with mock.patch.object(arrays, "RUN_SIZE", run_size):
            work = similarity._row_work(*operands)
        assert work.tolist() == expected, run_size


# ----------------------------------------------------------------------
# neighborNSim of the co-occurring pairs only
# ----------------------------------------------------------------------
#: Parents are entities 0..9 of their own KB: 8 and 9 never occur in the
#: value index (over 0..7), and a value entity no draw lists is one
#: without a parent.
parent_maps = st.dictionaries(
    st.integers(0, 9), st.sets(st.integers(0, 9), min_size=1, max_size=6)
)


@pytest.fixture(params=[1, 1 << 40], ids=["run=1", "run=2**40"])
def every_engine(request, monkeypatch):
    """Serial, thread and process engines, with the run size at one slot
    (one row per run) and at 2**40 (a task's rows in one run) — set
    before the process pool forks, so that its workers cut at it too."""
    monkeypatch.setattr(arrays, "RUN_SIZE", request.param)
    with ThreadExecutor(2) as thread, ProcessExecutor(2) as process:
        yield {"serial": SerialExecutor(), "thread": thread, "process": process}


@_RELAXED
@given(pairs=value_pairs, tops1=parent_maps, tops2=parent_maps)
@example(pairs={}, tops1={0: {1}}, tops2={0: {1}})  # an empty value index
@example(  # parent 1's value row names no parent of KB2: no cell kept
    pairs={(1, 0): 0.5, (0, 2): 1e300, (2, 2): 5e-324},
    tops1={0: {2}, 1: {0, 2}, 8: {2, 9}},
    tops2={2: {0, 2}, 9: {2}},
)
def test_cooccurring_build_is_the_filtered_full_build(
    numpy_arm, fine_shards, every_engine, pairs, tops1, tops2
):
    """``build_neighbor_index(..., cooccurring=True)`` equals
    ``cooccurring_neighbor_index`` of the full build: the same keys and
    the same float bytes, on every engine."""
    sims = {(uri(1, a), uri(2, b)): sim for (a, b), sim in pairs.items()}
    value_index = index_of_pairs(sims, ValueSimilarityIndex)
    neighbors1 = {
        uri(1, p): {uri(1, n) for n in listed} for p, listed in tops1.items()
    }
    neighbors2 = {
        uri(2, p): {uri(2, n) for n in listed} for p, listed in tops2.items()
    }
    expected = cooccurring_neighbor_index(
        value_index, build_neighbor_index(value_index, neighbors1, neighbors2)
    )
    expected_keys, expected_sims = map(numpy.asarray, expected.packed_columns())

    def build(engine):
        return build_neighbor_index(
            value_index, neighbors1, neighbors2, engine, cooccurring=True
        )

    built = {name: build(engine) for name, engine in every_engine.items()}
    for name, index in built.items():
        keys, sims = index.packed_columns()
        assert [i.uris() for i in index.interners()] == [
            i.uris() for i in expected.interners()
        ], name
        assert keys.tolist() == expected_keys.tolist(), name
        assert sims.tobytes() == expected_sims.tobytes(), name
