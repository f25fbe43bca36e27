"""Whole-pipeline observability guarantees.

Three contracts, checked end to end:

1. **Exactness** — merged counters are identical across the serial,
   thread and process executors.  Worker-local registries merge in
   partition order, so cross-process telemetry is not sampled or
   approximate.  The engine dispatches only the similarity kernel, cut
   by the data alone, so ``engine.dispatches`` and
   ``engine.partition_tasks`` do not follow the worker count either,
   and every executor ships the same shards, so neither does
   ``engine.bytes_shipped``.
2. **Invisibility** — telemetry never changes results: stage artifact
   digests are bit-identical with tracing on and off, and a disabled
   run leaves nothing behind in the null singletons.
3. **Reconciliation** — ``MatchResult.stage_seconds`` is *derived from*
   the stage spans, so an exported trace's per-stage totals equal the
   reported timings exactly, and the exported trace validates.
"""

import pytest

from repro.core import MinoanER, MinoanERConfig
from repro.datasets import generate_benchmark
from repro.incremental import IncrementalMatcher
from repro.obs import (
    NULL_METRICS,
    NULL_TRACER,
    Telemetry,
    activate,
    chrome_trace,
    validate_chrome_trace,
)
from repro.pipeline import MatchSession, context_digests

SCALE = 0.08


@pytest.fixture(scope="module")
def dataset():
    return generate_benchmark("restaurant", scale=SCALE, seed=11)


def run_instrumented(dataset, engine_name, workers=None):
    """One full match under a fresh telemetry; returns both."""
    telemetry = Telemetry.create()
    config = MinoanERConfig(
        engine=engine_name,
        workers=None if engine_name == "serial" else workers,
    )
    with activate(telemetry):
        result = MinoanER(config).match(dataset.kb1, dataset.kb2)
    return result, telemetry


def match_signature(result):
    return [(m.uri1, m.uri2, m.heuristic, m.score) for m in result.matches]


def non_engine_counters(telemetry):
    return {
        name: value
        for name, value in telemetry.metrics.counters().items()
        if not name.startswith("engine.")
    }


# ----------------------------------------------------------------------
# 1. Cross-executor exactness
# ----------------------------------------------------------------------
class TestCounterParity:
    def test_all_counters_identical_at_one_worker(self, dataset):
        runs = {
            name: run_instrumented(dataset, name, workers=1)
            for name in ("serial", "thread", "process")
        }
        serial_result, serial_telemetry = runs["serial"]
        expected = serial_telemetry.metrics.counters()
        assert expected["engine.bytes_shipped"]  # shards were counted
        for name, (result, telemetry) in runs.items():
            assert telemetry.metrics.counters() == expected, name
            assert match_signature(result) == match_signature(
                serial_result
            ), name

    def test_all_counters_identical_thread_vs_process(self, dataset):
        _, thread_telemetry = run_instrumented(dataset, "thread", workers=2)
        _, process_telemetry = run_instrumented(
            dataset, "process", workers=2
        )
        assert (
            thread_telemetry.metrics.counters()
            == process_telemetry.metrics.counters()
        )

    def test_dispatch_counters_independent_of_executor(self):
        # yago_imdb 0.3 leaves H3 ~380 entities: enough for more than
        # one task, so a cut that followed the worker count would show.
        data = generate_benchmark("yago_imdb", scale=0.3, seed=11)
        counts = {}
        for name, workers in (("serial", None), ("thread", 3), ("process", 2)):
            _, telemetry = run_instrumented(data, name, workers)
            counters = telemetry.metrics.counters()
            counts[name] = (
                counters["engine.dispatches"],
                counters["engine.partition_tasks"],
            )
        assert counts["serial"][0] == 2  # the value and neighbor kernels
        assert counts["thread"] == counts["serial"]
        assert counts["process"] == counts["serial"]

    def test_data_counters_independent_of_worker_count(self, dataset):
        _, one = run_instrumented(dataset, "thread", workers=1)
        _, four = run_instrumented(dataset, "thread", workers=4)
        assert non_engine_counters(one) == non_engine_counters(four)

    def test_process_run_absorbs_worker_spans(self, dataset):
        _, telemetry = run_instrumented(dataset, "process", workers=2)
        records = telemetry.tracer.records()
        tasks = [r for r in records if r.category == "task"]
        dispatches = {
            r.span_id: r for r in records if r.category == "engine"
        }
        assert tasks and dispatches
        for task in tasks:
            assert task.parent_id in dispatches
        span_ids = [r.span_id for r in records]
        assert len(span_ids) == len(set(span_ids))


# ----------------------------------------------------------------------
# 2. Telemetry never changes results
# ----------------------------------------------------------------------
class TestInvisibility:
    def test_stage_digests_identical_with_and_without_telemetry(
        self, dataset
    ):
        def run(telemetry):
            session = MatchSession(dataset.kb1, dataset.kb2, MinoanERConfig())
            with activate(telemetry):
                return context_digests(session.run_context())

        assert run(None) == run(Telemetry.create())

    def test_disabled_run_leaves_no_artifacts(self, dataset):
        null_spans = len(NULL_TRACER)
        result = MinoanER().match(dataset.kb1, dataset.kb2)
        assert result.matches
        assert len(NULL_TRACER) == null_spans == 0
        assert NULL_METRICS.counters() == {}

    def test_match_scores_identical_with_and_without_telemetry(
        self, dataset
    ):
        plain = MinoanER().match(dataset.kb1, dataset.kb2)
        traced, _ = run_instrumented(dataset, "serial")
        assert match_signature(plain) == match_signature(traced)


# ----------------------------------------------------------------------
# 3. Spans reconcile with reported timings, traces validate
# ----------------------------------------------------------------------
class TestReconciliation:
    def test_stage_seconds_equal_stage_span_totals(self, dataset):
        result, telemetry = run_instrumented(dataset, "process", workers=2)
        stage_spans = {}
        for record in telemetry.tracer.records():
            if record.category == "stage":
                stage_spans[record.name] = (
                    stage_spans.get(record.name, 0.0) + record.seconds
                )
        assert stage_spans == result.stage_seconds  # bit-identical

    def test_run_span_is_result_seconds(self, dataset):
        result, telemetry = run_instrumented(dataset, "serial")
        (run_record,) = [
            r for r in telemetry.tracer.records() if r.category == "run"
        ]
        assert run_record.seconds == result.seconds
        assert run_record.args["kind"] == "session"  # a one-shot session

    def test_exported_trace_validates(self, dataset):
        _, telemetry = run_instrumented(dataset, "process", workers=2)
        assert validate_chrome_trace(chrome_trace(telemetry)) == []


# ----------------------------------------------------------------------
# Session & incremental surfaces
# ----------------------------------------------------------------------
class TestSessionTelemetry:
    def test_session_counts_cache_hits(self, dataset):
        telemetry = Telemetry.create()
        session = MatchSession(
            dataset.kb1, dataset.kb2, telemetry=telemetry
        )
        first = session.match()
        misses = telemetry.metrics.counters()["session.cache_misses"]
        assert misses > 0
        second = session.match()
        counters = telemetry.metrics.counters()
        assert counters["session.cache_hits"] > 0
        assert counters["session.cache_misses"] == misses  # all cached
        assert match_signature(first) == match_signature(second)

    def test_store_spans_split_save_and_load(self, dataset, tmp_path):
        """A trace says where a save and a load spent their time."""
        telemetry = Telemetry.create()
        with activate(telemetry):
            session = MatchSession(dataset.kb1, dataset.kb2)
            MatchSession.load(session.save(tmp_path / "snap"), mode="mmap")
        records = telemetry.tracer.records()
        names = {record.span_id: record.name for record in records}
        children: dict[str, dict[str, float]] = {}
        for record in records:
            if record.category == "store" and record.parent_id in names:
                children.setdefault(names[record.parent_id], {})[
                    record.name
                ] = record.seconds
        assert set(children["store.save"]) == {"store.digest", "store.write"}
        assert set(children["store.load"]) == {
            "store.load.kb",
            "store.load.placements",
            "store.load.indices",
        }
        totals = telemetry.tracer.seconds_by_name()
        for parent, parts in children.items():
            assert 0.0 < sum(parts.values()) <= totals[parent]

    def test_similarity_spans_split_kernel_and_ranked_rows(self, dataset):
        """A trace says what an index stage spent producing the pair
        columns — the row tasks dispatch under the kernel span, through
        the executor — and where rows were ranked: each ranked-rows
        build is one span under the stage that first read the rows,
        naming the side, the depth it ranked to and how many rows.  A
        default run ranks side 1 of two indices, the value index and the
        co-occurring neighbor index, both first read by matching, to the
        config's K, over only the rows H2 and H3 read; H4 ranks no
        side-2 row, and no read goes deeper."""
        result, telemetry = run_instrumented(dataset, "process", workers=2)
        records = telemetry.tracer.records()
        by_id = {record.span_id: record for record in records}
        stages: dict[str, list[str]] = {}
        for record in records:
            if record.category == "similarity":
                stage = by_id[record.parent_id].name
                stages.setdefault(record.name, []).append(stage)
                assert 0.0 < record.seconds <= result.stage_seconds[stage]
        assert sorted(stages.pop("similarity.kernel")) == [
            "neighbor_index",
            "value_index",
        ]
        assert stages == {"similarity.ranked_rows": ["matching"] * 2}
        k = MinoanERConfig().top_k_candidates
        ranked = [r.args for r in records if r.name == "similarity.ranked_rows"]
        assert [(args["side"], args["depth"]) for args in ranked] == [(1, k)] * 2
        # of the 9 KB1 entities H1 matches 7: H2 walks the other 2 rows
        # and matches both, so H3 reads none
        assert [args["rows"] for args in ranked] == [2, 0]
        # two rows fit one group; no row, no group
        assert [args["groups"] for args in ranked] == [1, 0]
        counters = telemetry.metrics.counters()
        assert "similarity.whole_side_fallbacks" not in counters
        pairs = (
            counters["similarity.value_pairs_scored"]
            + counters["similarity.neighbor_pairs_scored"]
        )
        assert 0 < counters["similarity.ranked_pairs_kept"] <= 2 * pairs
        dispatches = [r for r in records if r.name == "dispatch:_row_sums"]
        assert len(dispatches) == 2
        for dispatch in dispatches:
            assert by_id[dispatch.parent_id].name == "similarity.kernel"

    def test_incremental_counters_mirror_delta_accounting(self, dataset):
        telemetry = Telemetry.create()
        matcher = IncrementalMatcher(
            MatchSession(dataset.kb1, dataset.kb2), telemetry=telemetry
        )
        matcher.match()
        recompute_base = sum(matcher.stage_recomputes.values())
        delta_base = sum(matcher.delta_updates.values())
        from repro.kb.entity import EntityDescription

        extra = EntityDescription("http://obs.example/new")
        extra.add_literal("name", "Obs Example Venue")
        matcher.add_entities("kb1", [extra])
        result = matcher.match()
        assert result.matches
        counters = telemetry.metrics.counters()
        assert counters.get("incremental.stage_recomputes", 0) == sum(
            matcher.stage_recomputes.values()
        )
        assert counters.get("incremental.delta_updates", 0) == sum(
            matcher.delta_updates.values()
        )
        assert (
            sum(matcher.stage_recomputes.values())
            + sum(matcher.delta_updates.values())
            > recompute_base + delta_base
        )
