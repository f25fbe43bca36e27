"""Unit and property tests for Block Purging."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blocking import Block, BlockCollection, cardinality_threshold, purge_blocks


def collection_with_sizes(sizes):
    """A collection with one block per (n1, n2) size pair."""
    blocks = BlockCollection("p")
    for index, (n1, n2) in enumerate(sizes):
        blocks.add(
            Block(
                f"k{index}",
                {f"a{index}_{i}" for i in range(n1)},
                {f"b{index}_{i}" for i in range(n2)},
            )
        )
    return blocks


def stopword_scenario():
    """Many small content blocks plus a few giant stop-word blocks.

    Content blocks must hold the majority of entity-block assignments, as
    in real token distributions, for the stop-word cut to be valid.
    """
    sizes = [(2, 2)] * 300 + [(3, 3)] * 100 + [(5, 4)] * 40
    sizes += [(150, 160), (155, 150), (148, 152)]
    return collection_with_sizes(sizes)


class TestThreshold:
    def test_stop_blocks_detected(self):
        blocks = stopword_scenario()
        threshold = cardinality_threshold(blocks)
        assert 20 <= threshold < 148 * 152

    def test_uniform_distribution_untouched(self):
        blocks = collection_with_sizes([(2, 2)] * 50)
        assert cardinality_threshold(blocks) == 4

    def test_empty_collection(self):
        assert cardinality_threshold(BlockCollection()) == 0

    def test_single_level(self):
        blocks = collection_with_sizes([(3, 3)] * 5)
        assert cardinality_threshold(blocks) == 9


class TestPurge:
    def test_removes_only_oversized(self):
        blocks = stopword_scenario()
        purged, report = purge_blocks(blocks)
        assert report.purged_blocks == 3
        assert purged.total_comparisons() < blocks.total_comparisons()

    def test_report_counters(self):
        blocks = stopword_scenario()
        purged, report = purge_blocks(blocks)
        assert report.blocks_before == len(blocks)
        assert report.blocks_after == len(purged)
        assert report.comparisons_after == purged.total_comparisons()
        assert 0.0 < report.comparison_reduction < 1.0

    def test_reduction_zero_when_nothing_purged(self):
        blocks = collection_with_sizes([(2, 2)] * 5)
        _, report = purge_blocks(blocks)
        assert report.comparison_reduction == 0.0

    def test_reduction_on_empty(self):
        _, report = purge_blocks(BlockCollection())
        assert report.comparison_reduction == 0.0

    sizes = st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=8),
            st.integers(min_value=1, max_value=8),
        ),
        min_size=1,
        max_size=30,
    )

    @given(sizes)
    @settings(max_examples=40, deadline=None)
    def test_purging_never_adds_comparisons(self, sizes):
        blocks = collection_with_sizes(sizes)
        purged, _ = purge_blocks(blocks)
        assert purged.total_comparisons() <= blocks.total_comparisons()

    @given(sizes)
    @settings(max_examples=40, deadline=None)
    def test_purged_is_subset(self, sizes):
        blocks = collection_with_sizes(sizes)
        purged, _ = purge_blocks(blocks)
        original_keys = set(blocks.keys())
        assert set(purged.keys()) <= original_keys

    @given(sizes)
    @settings(max_examples=40, deadline=None)
    def test_kept_blocks_within_threshold(self, sizes):
        blocks = collection_with_sizes(sizes)
        purged, report = purge_blocks(blocks)
        for block in purged:
            assert block.cardinality() <= report.max_cardinality
