"""Executor parity: thread/process runs must equal serial runs exactly.

The engine's determinism contract (partition layout from data size only,
merges in partition order, sorted scan orders) promises *bit-identical*
results across executors — same match pairs with the same floating-point
scores, and the same block collections in the same iteration order.
These are property-style tests over the four generated benchmark
profiles plus hand-built KBs.
"""

import pytest
from oracles import (
    blocking_context,
    decoded_pairs,
    pair_similarity,
    shard_merged_sum,
    value_sims_by_uri,
)

from repro import MinoanER, MinoanERConfig
from repro.blocking import (
    name_blocking,
    names_from_attributes,
    purge_blocks,
    token_blocking,
)
from repro.core.neighbors import top_neighbors
from repro.core.statistics import top_relations
from repro.datasets import PROFILE_ORDER, generate_benchmark
from repro.engine import (
    SerialExecutor,
    ThreadExecutor,
    build_neighbor_index,
    build_value_index,
    partition_count,
)
from repro.kb import Tokenizer

PARITY_SCALE = 0.08


@pytest.fixture(scope="module", params=PROFILE_ORDER)
def dataset(request):
    return generate_benchmark(request.param, scale=PARITY_SCALE)


def run_match(dataset, engine_name, workers=None):
    config = MinoanERConfig(engine=engine_name, workers=workers)
    return MinoanER(config).match(dataset.kb1, dataset.kb2)


def signature(result):
    """Everything observable about a run, in order, scores included."""
    return {
        "matches": [
            (m.uri1, m.uri2, m.heuristic, m.score) for m in result.matches
        ],
        "pre_h4": [
            (m.uri1, m.uri2, m.heuristic, m.score)
            for m in result.pre_h4_matches
        ],
        "token_keys": result.token_blocks.keys(),
        "token_blocks": {
            b.key: (frozenset(b.entities1), frozenset(b.entities2))
            for b in result.token_blocks
        },
        "name_keys": result.name_blocks.keys(),
        "name_blocks": {
            b.key: (frozenset(b.entities1), frozenset(b.entities2))
            for b in result.name_blocks
        },
        "purging": result.purging_report,
    }


class TestPipelineParity:
    def test_thread_matches_serial(self, dataset):
        serial = run_match(dataset, "serial")
        threaded = run_match(dataset, "thread", workers=4)
        assert signature(threaded) == signature(serial)

    # an escaped view of a shared-memory column must fail, not warn
    @pytest.mark.filterwarnings(
        "error::pytest.PytestUnraisableExceptionWarning"
    )
    def test_process_four_workers_matches_serial(self, dataset):
        serial = run_match(dataset, "serial")
        processed = run_match(dataset, "process", workers=4)
        assert signature(processed) == signature(serial)

    def test_serial_runs_are_reproducible(self, dataset):
        assert signature(run_match(dataset, "serial")) == signature(
            run_match(dataset, "serial")
        )


class TestBlockCollectionParity:
    """The blocking stages (entities keyed into a placement table, blocks
    assembled from it, in the driver under any executor) against the
    serial string-keyed builders."""

    def test_engine_blocking_matches_legacy_content(self, dataset):
        legacy, legacy_report = purge_blocks(
            token_blocking(dataset.kb1, dataset.kb2, Tokenizer())
        )
        ctx = blocking_context(dataset.kb1, dataset.kb2)
        blocks = ctx.get("token_blocks")
        assert ctx.get("purging_report") == legacy_report
        assert set(blocks.keys()) == set(legacy.keys())
        for block in legacy:
            other = blocks[block.key]
            assert other.entities1 == block.entities1
            assert other.entities2 == block.entities2

    def test_engine_block_keys_sorted(self, dataset):
        blocks = blocking_context(dataset.kb1, dataset.kb2).get("token_blocks")
        assert blocks.keys() == sorted(blocks.keys())

    def test_name_blocking_parity_across_executors(self, dataset):
        ctx = blocking_context(dataset.kb1, dataset.kb2)
        blocks = ctx.get("name_blocks")
        reference = name_blocking(
            dataset.kb1,
            dataset.kb2,
            names_from_attributes(ctx.get("name_attributes1")),
            names_from_attributes(ctx.get("name_attributes2")),
        )
        assert blocks.keys() == sorted(reference.keys())
        for block in reference:
            assert blocks[block.key].entities1 == block.entities1
            assert blocks[block.key].entities2 == block.entities2


class TestIndexParity:
    """The thread engine's indices equal the serial engine's, and the
    value index equals the per-pair oracle (``oracles.value_sims_by_uri``
    over ``shard_merged_sum``) — float ``==``: a row's floats depend on
    that row's inputs alone, whatever executor folds it.
    """

    def test_value_index_matches_serial_constructor(self, dataset):
        blocks = blocking_context(dataset.kb1, dataset.kb2).get("token_blocks")
        serial = build_value_index(blocks, SerialExecutor())
        with ThreadExecutor(4) as executor:
            engine_built = build_value_index(blocks, executor)
        assert decoded_pairs(engine_built) == decoded_pairs(serial)
        assert decoded_pairs(serial) == value_sims_by_uri(
            blocks, partition_count(len(blocks))
        )

    def test_neighbor_index_matches_serial_constructor(self, dataset):
        blocks = blocking_context(dataset.kb1, dataset.kb2).get("token_blocks")
        value_index = build_value_index(blocks)
        neighbors1 = top_neighbors(dataset.kb1, top_relations(dataset.kb1, 3))
        neighbors2 = top_neighbors(dataset.kb2, top_relations(dataset.kb2, 3))
        serial = build_neighbor_index(
            value_index, neighbors1, neighbors2, SerialExecutor()
        )
        with ThreadExecutor(4) as executor:
            engine_built = build_neighbor_index(
                value_index, neighbors1, neighbors2, executor
            )
        assert decoded_pairs(engine_built) == decoded_pairs(serial)

    def test_plain_collection_with_one_sided_blocks(self):
        """``build_value_index`` packs a plain collection itself and
        drops its one-sided blocks — but the shard count, which fixes
        the float fold, is the count of the collection *as handed in*."""
        from repro.blocking import PackedBlockCollection
        from repro.blocking.base import Block, BlockCollection
        from repro.core.similarity import block_token_weight

        def collection(n_one_sided):
            blocks = BlockCollection("BT")
            for i in range(192):
                # ("a0", "b0") is in every block, under 12 distinct
                # inexact weights: its sum feels every regrouping
                side1 = {"a0"} | {f"a{j}" for j in range(1, 1 + i % 4)}
                side2 = {"b0"} | {f"b{j}" for j in range(1, 1 + i % 3)}
                blocks.add(Block(f"t{i:03d}", side1, side2))
            for i in range(n_one_sided):
                blocks.add(Block(f"u{i:03d}", {f"a{i % 5}"}, set()))
            return blocks

        def oracle(blocks, n_shards):
            return shard_merged_sum(
                sorted(
                    (b.key, block_token_weight(len(b.entities1), len(b.entities2)))
                    for b in blocks.drop_empty()
                ),
                n_shards,
            )

        # 8 one-sided blocks leave the count at 3 shards: the plain
        # build, the packed-input build and the oracle agree float ==
        blocks = collection(8)
        two_sided = blocks.drop_empty()
        assert partition_count(len(blocks)) == partition_count(len(two_sided)) == 3
        built = build_value_index(blocks)
        packed = build_value_index(PackedBlockCollection.from_collection(two_sided))
        assert decoded_pairs(built) == decoded_pairs(packed)
        assert pair_similarity(built, "a0", "b0") == oracle(blocks, 3)
        reference = value_sims_by_uri(two_sided, 3)
        assert decoded_pairs(built) == reference

        # 70 more move it to 4: the float follows the handed-in count
        blocks = collection(70)
        assert partition_count(len(blocks)) == 4
        built = build_value_index(blocks)
        assert pair_similarity(built, "a0", "b0") == oracle(blocks, 4)
        assert oracle(blocks, 4) != oracle(blocks, 3)  # the fold is felt
        assert decoded_pairs(built) == value_sims_by_uri(blocks, 4)
        assert set(decoded_pairs(built)) == set(reference)


class TestStageTimings:
    def test_stage_seconds_recorded_per_stage(self, dataset):
        result = run_match(dataset, "serial")
        assert set(result.stage_seconds) == {
            "name_blocking",
            "token_blocking",
            "value_index",
            "neighbor_index",
            "matching",
        }
        assert all(value >= 0.0 for value in result.stage_seconds.values())
        assert sum(result.stage_seconds.values()) <= result.seconds

    def test_seconds_fold_into_groups(self, dataset):
        result = run_match(dataset, "serial")
        grouped = result.seconds_by_group()
        assert set(grouped) == {"blocking", "indexing", "heuristics"}
        assert sum(grouped.values()) == pytest.approx(
            sum(result.stage_seconds.values())
        )

    def test_timing_summary_mentions_every_group(self, dataset):
        summary = run_match(dataset, "serial").timing_summary()
        for group in ("blocking", "indexing", "heuristics"):
            assert group in summary
