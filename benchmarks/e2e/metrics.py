"""Every workload and metric the harness reports, declared once.

``BENCHMARK.json`` carries the contract's share of this table (the
end-to-end metrics every workload reports, and the per-layer names);
``test_harness.py`` checks the two agree.  The workload-specific
end-to-end metrics and the "should move" column cannot live in
``BENCHMARK.json`` (its keys are fixed), so they live here and in the
README.
"""

from __future__ import annotations

from dataclasses import dataclass

BATCH = ("batch_rexa", "batch_yago")
SERVE = ("serve_resolve", "serve_delta")
ALL = BATCH + SERVE

#: name -> why the workload exists (one line; mirrored in BENCHMARK.json).
WORKLOADS = {
    "batch_rexa": (
        "cold match on rexa_dblp 0.7: the value index carries its largest "
        "share here (~25%), so a value-index or blocking change shows"
    ),
    "batch_yago": (
        "cold match on yago_imdb 1.0: token-poor, relation-rich, neighbor "
        "index ~80%; a value-index change must predict no movement here"
    ),
    "serve_resolve": (
        "read-only /resolve traffic of never-seen records against the daemon: "
        "all time is in serve (HTTP, JSON, cache) and core.resolve"
    ),
    "serve_delta": (
        "POST /delta writes beside /resolve reads, then kill -9 and WAL "
        "recovery: exercises incremental, WAL, publish and store"
    ),
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    #: Workloads that measure it (the others report 0 for a per-layer
    #: metric: the layer is not exercised there).
    workloads: tuple[str, ...]
    #: Share of the parent's median by which it may worsen (end-to-end only).
    bound: float | None = None
    #: Which end-to-end metric this one should move, and where.
    moves: str = ""


#: Reported by every workload's untraced run; the driver gates on these.
#: ``op_ms`` is the typical time of the workload's headline operation:
#: the median cold match (batch_*), the median keep-alive /resolve, the
#: mean POST /delta round trip over the run's fixed set of batches.  The
#: match and the delta are processor-bound and reported in calibrated
#: milliseconds (``common.CALIBRATION_REF_S``); their times as measured
#: are ``batch_wall_s`` and ``delta_apply_p50_s`` below.
END_TO_END = (
    Metric("setup_s", "s", "lower", ALL, 0.25),
    Metric("op_ms", "ms", "lower", ALL, 0.25),
    Metric("peak_rss_mb", "MB", "lower", ALL, 0.15),
)

#: End-to-end metrics only some workloads have; untraced runs print them
#: and ``compare.py`` applies their bounds.
WORKLOAD_E2E = (
    Metric("batch_wall_s", "s", "lower", BATCH, 0.10),
    Metric("match_f1", "ratio", "higher", BATCH, 0.0),
    Metric("fail_ratio", "ratio", "lower", ALL, 0.0),
    Metric("warm_start_s", "s", "lower", ("serve_resolve",), 0.15),
    Metric("resolve_p50_ms", "ms", "lower", ("serve_resolve",), 0.10),
    Metric("resolve_p95_ms", "ms", "lower", ("serve_resolve",), 0.15),
    Metric("resolve_fresh_p50_ms", "ms", "lower", ("serve_resolve",), 0.10),
    Metric("resolve_batch_rps", "records/s", "higher", ("serve_resolve",), 0.10),
    Metric("delta_apply_p50_s", "s", "lower", ("serve_delta",), 0.10),
    Metric("delta_vs_cold_ratio", "ratio", "lower", ("serve_delta",), 0.10),
    Metric("read_during_delta_p50_ms", "ms", "lower", ("serve_delta",), 0.20),
    Metric("recovery_s", "s", "lower", ("serve_delta",), 0.15),
    Metric("snapshot_s", "s", "lower", ("serve_delta",), 0.15),
)

_R = ("serve_resolve",)
_D = ("serve_delta",)

#: Reported by every workload's traced run (layer = module under src/repro).
PER_LAYER = (
    Metric("kb.tokenize_s", "s", "lower", BATCH,
           moves="batch_wall_s on both batch workloads (< 8%)"),
    Metric("kb.tokens", "count", "lower", BATCH,
           moves="batch_wall_s on both batch workloads (< 8%)"),
    Metric("blocking.name_s", "s", "lower", BATCH,
           moves="batch_wall_s on batch_rexa; none on serve"),
    Metric("blocking.token_s", "s", "lower", BATCH,
           moves="batch_wall_s on batch_rexa; none on serve"),
    Metric("blocking.token_blocks", "count", "lower", BATCH,
           moves="batch_wall_s on batch_rexa; none on serve"),
    Metric("blocking.purged_keys", "count", "higher", BATCH,
           moves="batch_wall_s on batch_rexa; none on serve"),
    Metric("similarity.value_index_s", "s", "lower", BATCH,
           moves="batch_wall_s on batch_rexa (~25%); no change on batch_yago (~4%)"),
    Metric("similarity.value_pairs", "count", "lower", BATCH,
           moves="batch_wall_s on batch_rexa (~25%); no change on batch_yago (~4%)"),
    Metric("similarity.neighbor_index_s", "s", "lower", BATCH,
           moves="batch_wall_s on both, most on batch_yago (~80%)"),
    Metric("similarity.neighbor_pairs", "count", "lower", BATCH,
           moves="batch_wall_s on both, most on batch_yago (~80%)"),
    Metric("heuristics.candidates_s", "s", "lower", BATCH,
           moves="batch_wall_s (9-15%) and delta_apply_p50_s (matching always re-runs)"),
    Metric("heuristics.matching_s", "s", "lower", BATCH,
           moves="batch_wall_s (9-15%) and delta_apply_p50_s (matching always re-runs)"),
    Metric("heuristics.pairs_matched", "count", "higher", BATCH,
           moves="batch_wall_s (9-15%) and delta_apply_p50_s"),
    Metric("heuristics.pairs_discarded", "count", "lower", BATCH,
           moves="batch_wall_s (9-15%) and delta_apply_p50_s"),
    Metric("pipeline.overhead_s", "s", "lower", BATCH, moves="batch_wall_s"),
    Metric("pipeline.match_f1", "ratio", "higher", BATCH,
           moves="match_f1 (deterministic; a change here is a behaviour change)"),
    Metric("engine.process_wall_s", "s", "lower", BATCH,
           moves="none of the serial end-to-end metrics (informational on 2 cores)"),
    Metric("engine.bytes_shipped", "B", "lower", BATCH,
           moves="none of the serial end-to-end metrics"),
    Metric("engine.dispatches", "count", "lower", BATCH,
           moves="none of the serial end-to-end metrics"),
    Metric("engine.partition_tasks", "count", "lower", BATCH,
           moves="none of the serial end-to-end metrics"),
    Metric("store.save_s", "s", "lower", _R,
           moves="setup_s, snapshot_s, warm_start_s, recovery_s"),
    Metric("store.digest_s", "s", "lower", _R,
           moves="setup_s, snapshot_s (most of save at the seed)"),
    Metric("store.snapshot_mb", "MB", "lower", _R,
           moves="warm_start_s, recovery_s, snapshot_s"),
    Metric("store.load_copy_s", "s", "lower", _R,
           moves="warm_start_s, recovery_s"),
    Metric("store.load_mmap_s", "s", "lower", _R,
           moves="warm_start_s once the daemon boots with --mmap"),
    Metric("resolve.inproc_p50_ms", "ms", "lower", _R,
           moves="resolve_fresh_p50_ms, resolve_batch_rps, serve.max_rate_rps; "
                 "resolve_p50_ms only once transport < kernel"),
    Metric("resolve.inproc_p99_ms", "ms", "lower", _R,
           moves="resolve_p95_ms once transport < kernel"),
    Metric("resolve.inproc_heavy_p50_ms", "ms", "lower", _R,
           moves="resolve_p95_ms (records probing the largest token blocks)"),
    Metric("resolve.batch_us_per_record", "us", "lower", _R,
           moves="resolve_batch_rps"),
    Metric("resolve.matched_ratio", "ratio", "higher", _R,
           moves="none (behaviour: share of query records that matched)"),
    Metric("resolve.top1_accuracy", "ratio", "higher", _R,
           moves="none (behaviour: matched records whose match is the expected one)"),
    Metric("kb.tokenize_record_us", "us", "lower", _R,
           moves="resolve_fresh_p50_ms, resolve_batch_rps (small)"),
    Metric("serve.json_decode_us", "us", "lower", _R,
           moves="resolve_fresh_p50_ms, resolve_batch_rps (small)"),
    Metric("serve.json_encode_us", "us", "lower", _R,
           moves="resolve_fresh_p50_ms, resolve_batch_rps (small)"),
    Metric("serve.handler_mean_ms", "ms", "lower", _R,
           moves="splits resolve_p50_ms into handler vs transport"),
    Metric("serve.http_overhead_ms", "ms", "lower", _R,
           moves="resolve_p50_ms, resolve_p95_ms, serve.max_rate_rps (~42 of 44 ms at the seed)"),
    Metric("serve.healthz_p50_ms", "ms", "lower", _R,
           moves="resolve_p50_ms (transport floor of a keep-alive round trip)"),
    Metric("serve.resolve_p90_ms", "ms", "lower", _R,
           moves="tail behind resolve_p95_ms"),
    Metric("serve.resolve_hit_p50_ms", "ms", "lower", _R,
           moves="resolve_p50_ms on repeated records (ProbeCache hit path)"),
    Metric("serve.probe_cache_hit_ratio", "ratio", "higher", _R,
           moves="serve.resolve_hit_p50_ms"),
    Metric("serve.max_rate_rps", "req/s", "higher", _R,
           moves="the open-loop result itself (0 when no ladder rate qualifies)"),
    Metric("serve.open_p95_ms.r50", "ms", "lower", _R, moves="serve.max_rate_rps"),
    Metric("serve.open_p95_ms.r150", "ms", "lower", _R, moves="serve.max_rate_rps"),
    Metric("serve.open_p95_ms.r300", "ms", "lower", _R, moves="serve.max_rate_rps"),
    Metric("serve.open_lateness_p95_ms", "ms", "lower", _R,
           moves="none (how late the generator itself ran)"),
    Metric("serve.open_backlog_end", "count", "lower", _R, moves="serve.max_rate_rps"),
    Metric("incremental.blocking_s", "s", "lower", _D,
           moves="delta_apply_p50_s, delta_vs_cold_ratio, recovery_s; no change on batch"),
    Metric("incremental.value_index_s", "s", "lower", _D,
           moves="delta_apply_p50_s, delta_vs_cold_ratio, recovery_s; no change on batch"),
    Metric("incremental.neighbor_index_s", "s", "lower", _D,
           moves="delta_apply_p50_s, delta_vs_cold_ratio, recovery_s; no change on batch"),
    Metric("incremental.matching_s", "s", "lower", _D,
           moves="delta_apply_p50_s, delta_vs_cold_ratio, recovery_s"),
    Metric("incremental.delta_updates", "count", "higher", _D,
           moves="delta_apply_p50_s (stages patched in place)"),
    Metric("incremental.stage_recomputes", "count", "lower", _D,
           moves="delta_apply_p50_s (stages that fell back to a full recompute)"),
    Metric("serve.publish_s", "s", "lower", _D,
           moves="delta_apply_p50_s, read_during_delta_p50_ms"),
    Metric("serve.wal_append_ms", "ms", "lower", _D,
           moves="delta_apply_p50_s (invisible until a delta is < 100 ms)"),
    Metric("serve.wal_bytes_per_delta", "B", "lower", _D,
           moves="recovery_s (small)"),
    Metric("serve.read_quiet_p50_ms", "ms", "lower", _D,
           moves="context for read_during_delta_p50_ms"),
    Metric("serve.read_during_delta_p90_ms", "ms", "lower", _D,
           moves="tail behind read_during_delta_p50_ms"),
    Metric("serve.read_stall_max_ms", "ms", "lower", _D,
           moves="longest reader stall while the writer held the interpreter lock"),
    Metric("serve.wal_replayed", "count", "higher", _D,
           moves="recovery_s (must equal the batches posted)"),
    Metric("serve.post_snapshot_recovery_ok", "bool", "higher", _D,
           moves="none (known defect: 0 at the seed, reported not gated)"),
    Metric("serve.sigterm_drain_ok", "bool", "higher", _R,
           moves="none (1 when SIGTERM drained the daemon within 10 s)"),
    Metric("obs.trace_overhead_ratio", "ratio", "lower", ALL,
           moves="none (the cost of the traced run itself)"),
)


def benchmark_json(command: list[str], paths: list[str], run_seconds: int) -> dict:
    """The ``BENCHMARK.json`` this table implies (used by the agreement test)."""
    return {
        "command": command,
        "paths": paths,
        "run_seconds": run_seconds,
        "workloads": [
            {"name": name, "why": why} for name, why in WORKLOADS.items()
        ],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }
