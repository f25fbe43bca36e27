"""``serve_resolve``: read-only ``/resolve`` traffic against the daemon.

Set-up is a cold match and ``save``; the daemon then runs as a
subprocess on that snapshot.  Every record sent is a never-seen
``query_stream`` record at pinned ``k``, and no record is repeated
within the probe cache's reach, so the untraced phases measure the miss
path:

(a) closed loop on one keep-alive connection,
(b) closed loop with a connection per request,
(c) ``/resolve_batch`` calls of 64 disjoint records.

The traced pass re-runs (a) briefly with spans on every other request,
re-sends its records (the probe-cache hit path), walks the open-loop
rate ladder, and times the layers underneath in-process: ``store``
(save, digests, load), ``core.resolve``, the tokenizer and the JSON
codec on the same wire payloads.
"""

from __future__ import annotations

import json
import random
from contextlib import nullcontext

import stats
from common import (
    BATCH_SIZE,
    DIRTINESS,
    K,
    QUERY_POOL,
    Run,
    clock,
    expected_reply,
    never_seen,
    resolve_batch_bodies,
    resolve_body,
    scrape_metrics,
)
from daemon import HOST, DaemonProcess
from loadgen import closed_loop, open_loop

from repro import MinoanER
from repro.datasets import query_stream
from repro.kb.entity import EntityDescription
from repro.pipeline import MatchSession, context_digests
from repro.serve.json_codec import entity_from_dict

#: Replies of phase (a) compared byte for byte with in-process resolve.
EQUALITY_CHECKS = 200
#: The open-loop ladder: a rate qualifies when p95 measured from each
#: request's due time stays within the limit and no backlog is left.
LADDER_RATES = (50, 150, 300)
LADDER_LIMIT_MS = 25.0
#: Heavy records carry 12 of the 40 largest token-block keys.
HEAVY_KEYS, HEAVY_PER_RECORD = 40, 12


def serve_resolve(run: Run) -> None:
    snapshot = run.workdir / "snapshot"
    with run.recorder.span("setup"):
        began = clock()
        data = run.corpus()
        session = MatchSession(data.kb1, data.kb2)
        result = session.match()
        with run.recorder.span("store.save"):
            save_began = clock()
            session.save(snapshot)
            save_s = clock() - save_began
        queries = query_stream(data, QUERY_POOL, DIRTINESS, run.seed)
        bodies = [resolve_body(query.record) for query in queries]
        run.metrics["setup_s"] = clock() - began
    with run.recorder.span("serve.boot"):
        daemon = DaemonProcess.start(
            snapshot, src=run.src, log=run.workdir / "daemon.log"
        )
    try:
        run.metrics["warm_start_s"] = daemon.start_s
        if run.trace:
            run.metrics["store.save_s"] = save_s
            replies = traced_traffic(run, daemon.port, bodies)
            store_layers(run, session, snapshot)
            resolve_layers(run, session, result, queries, bodies)
        else:
            replies = untraced_traffic(run, daemon.port, queries, bodies)
        run.metrics["peak_rss_mb"] = daemon.vm_hwm_mb()
    finally:
        drained = daemon.stop()
    run.metrics["serve.sigterm_drain_ok"] = float(drained)
    # The daemon's first answers equal in-process resolve, byte for byte.
    wrong = sum(
        1
        for query, reply in zip(queries, replies)
        if reply != expected_reply(session, query.record)
    )
    run.ops(len(replies), wrong, "HTTP reply equals MatchSession.resolve")


def untraced_traffic(run: Run, port: int, queries, bodies) -> list[bytes]:
    seconds = run.seconds
    keepalive = closed_loop(
        HOST, port, bodies,
        seconds=0.55 * seconds,
        min_requests=run.pick(220, 12),
        max_seconds=max(3 * seconds, 15.0),
        keep_replies=run.pick(EQUALITY_CHECKS, 10),
        check=never_seen,
    )  # fmt: skip
    sent = len(keepalive.samples)
    run.ops(sent, keepalive.failed, "keep-alive /resolve")
    run.median("resolve_p50_ms", keepalive.latencies, 1e3)
    # Not calibrated: at the seed this is the 40 ms delayed-ACK timer.
    run.headline(keepalive.latencies)
    run.tail_ms("resolve_p95_ms", keepalive.latencies, 0.95)

    fresh = closed_loop(
        HOST, port, bodies,
        first=sent,
        seconds=0.25 * seconds,
        min_requests=run.pick(220, 10),
        fresh=True,
        check=never_seen,
    )  # fmt: skip
    run.ops(len(fresh.samples), fresh.failed, "connection-per-request /resolve")
    run.median("resolve_fresh_p50_ms", fresh.latencies, 1e3)
    sent += len(fresh.samples)

    calls = run.pick(20, 3)
    batched = closed_loop(
        HOST, port, resolve_batch_bodies(queries, sent, calls),
        path="/resolve_batch",
        min_requests=calls,
        check=lambda reply: len(json.loads(reply)["results"]) == BATCH_SIZE,
    )  # fmt: skip
    run.ops(calls, batched.failed, "/resolve_batch calls")
    if batched.latencies:
        run.metrics["resolve_batch_rps"] = BATCH_SIZE / stats.median(batched.latencies)
        run.samples["resolve_batch_rps"] = len(batched.latencies)
    return keepalive.replies


# ----------------------------------------------------------------------
# Traced pass
# ----------------------------------------------------------------------
def traced_traffic(run: Run, port: int, bodies) -> list[bytes]:
    recorder = run.recorder
    with recorder.span("phase:healthz"):
        healthz = closed_loop(
            HOST, port, [None],
            method="GET", path="/healthz", min_requests=run.pick(30, 5),
        )  # fmt: skip
    run.ops(len(healthz.samples), healthz.failed, "keep-alive /healthz")
    run.median("serve.healthz_p50_ms", healthz.latencies, 1e3)

    # (a) again, shorter, with a span around every other request: the
    # two halves give the overhead of recording.
    before = scrape_metrics(port)
    with recorder.span("phase:keepalive"):
        keepalive = closed_loop(
            HOST, port, bodies,
            seconds=0.2 * run.seconds,
            min_requests=run.pick(110, 12),
            keep_replies=run.pick(EQUALITY_CHECKS, 10),
            check=never_seen,
            scope=lambda i: (
                recorder.span("POST /resolve", request_id=f"resolve-{i}")
                if i % 2 == 0
                else nullcontext()
            ),
        )  # fmt: skip
    after = scrape_metrics(port)
    sent = len(keepalive.samples)
    run.ops(sent, keepalive.failed, "keep-alive /resolve")
    latencies = keepalive.latencies
    run.tail_ms("serve.resolve_p90_ms", latencies, 0.90)
    handled = gained(after, before, "repro_serve_latency_seconds_resolve_count")
    if handled and latencies:
        busy = gained(after, before, "repro_serve_latency_seconds_resolve_sum")
        run.metrics["serve.handler_mean_ms"] = busy / handled * 1e3
        run.metrics["serve.http_overhead_ms"] = (
            sum(latencies) / len(latencies) - busy / handled
        ) * 1e3
    run.overhead_ratio(
        [end - start for start, end, ok in keepalive.samples[0::2] if ok],
        [end - start for start, end, ok in keepalive.samples[1::2] if ok],
    )

    # (d) the same records again: the probe-cache hit path.
    hits = min(sent, run.pick(40, 5))
    with recorder.span("phase:cache-hit"):
        repeated = closed_loop(HOST, port, bodies[:hits], min_requests=hits)
    cached = scrape_metrics(port)
    run.ops(hits, repeated.failed, "repeated /resolve")
    run.median("serve.resolve_hit_p50_ms", repeated.latencies, 1e3)
    new_hits = gained(cached, after, "repro_serve_probe_cache_hits")
    new_misses = gained(cached, after, "repro_serve_probe_cache_misses")
    if new_hits + new_misses:
        run.metrics["serve.probe_cache_hit_ratio"] = new_hits / (new_hits + new_misses)

    with recorder.span("phase:open-loop"):
        rate_ladder(run, port, bodies, first=sent)
    return keepalive.replies


def gained(after: dict, before: dict, name: str) -> float:
    """How much a ``/metrics`` value grew between two scrapes."""
    return after.get(name, 0.0) - before.get(name, 0.0)


def rate_ladder(run: Run, port: int, bodies, first: int) -> None:
    """(e) open loop over two keep-alive connections, rates ascending.

    Stops at the first rate that does not qualify — a higher rate cannot
    — so the steps above it are not run and report 0.
    """
    step_s = run.pick(max(0.22 * run.seconds, 4.4), 0.3)
    best = 0.0
    lateness: list[float] = []
    backlog = 0
    for rate in LADDER_RATES:
        with run.recorder.span(f"open-loop:r{rate}"):
            step = open_loop(
                HOST, port, bodies,
                first=first, rate=rate, seconds=step_s, connections=2,
            )  # fmt: skip
        first += len(step.due)
        run.ops(len(step.due), step.failed, f"open-loop /resolve at {rate}/s")
        lateness += step.lateness
        backlog = step.backlog_end
        p95 = run.tail_ms(f"serve.open_p95_ms.r{rate}", step.latencies_from_due, 0.95)
        qualifies = (
            p95 is not None
            and p95 <= LADDER_LIMIT_MS
            and not step.failed
            and not step.backlog_end
        )
        if not qualifies:
            break
        best = float(rate)
    run.metrics["serve.max_rate_rps"] = best
    run.metrics["serve.open_backlog_end"] = float(backlog)
    run.tail_ms("serve.open_lateness_p95_ms", lateness, 0.95)


def store_layers(run: Run, session: MatchSession, snapshot) -> None:
    """``store``: what of ``save`` is digests, how big it is, how fast it loads."""
    with run.recorder.span("store.context_digests"):
        began = clock()
        context_digests(session.run_context())
        run.metrics["store.digest_s"] = clock() - began
    run.metrics["store.snapshot_mb"] = sum(
        path.stat().st_size for path in snapshot.rglob("*") if path.is_file()
    ) / (1024.0 * 1024.0)
    for mode in ("copy", "mmap"):
        with run.recorder.span(f"store.load:{mode}"):
            began = clock()
            MatchSession.load(snapshot, mode=mode)
            run.metrics[f"store.load_{mode}_s"] = clock() - began


def heavy_records(result, queries, seed: int, count: int) -> list[EntityDescription]:
    """Query records padded with keys of the largest token blocks.

    One frequent token makes a record's candidate gather arbitrarily
    large; these are the records a resolve-kernel bound is for.
    """
    largest = sorted(
        result.token_blocks, key=lambda block: (-block.cardinality(), block.key)
    )[:HEAVY_KEYS]
    keys = [block.key for block in largest]
    rng = random.Random(seed)
    records = []
    for index, query in enumerate(queries[:count]):
        record = EntityDescription(f"urn:heavy:{index}", query.record.pairs)
        record.add_literal(
            "padding", " ".join(rng.sample(keys, min(HEAVY_PER_RECORD, len(keys))))
        )
        records.append(record)
    return records


def resolve_layers(run: Run, session: MatchSession, result, queries, bodies) -> None:
    """``core.resolve``, the tokenizer and the JSON codec, in-process.

    Uses records beyond the ones the equality check resolves, so every
    call here misses the session's own probe cache.
    """
    count = run.pick(1000, 40)
    offset = EQUALITY_CHECKS
    chosen = queries[offset : offset + count]
    recorder = run.recorder

    with recorder.span("core.resolve"):
        seconds, results = [], []
        for query in chosen:
            began = clock()
            results.append(session.resolve(query.record, K))
            seconds.append(clock() - began)
    run.median("resolve.inproc_p50_ms", seconds, 1e3)
    run.tail_ms("resolve.inproc_p99_ms", seconds, 0.99)
    matched = [
        (query, found.match) for query, found in zip(chosen, results) if found.match
    ]
    run.metrics["resolve.matched_ratio"] = len(matched) / len(chosen)
    if matched:
        run.metrics["resolve.top1_accuracy"] = sum(
            1 for query, match in matched if match.uri2 == query.expected
        ) / len(matched)

    with recorder.span("core.resolve:heavy"):
        seconds = []
        for record in heavy_records(result, chosen, run.seed, run.pick(300, 10)):
            began = clock()
            session.resolve(record, K)
            seconds.append(clock() - began)
    run.median("resolve.inproc_heavy_p50_ms", seconds, 1e3)

    with recorder.span("core.resolve_batch"):
        seconds = []
        start = offset + count
        for call in range(run.pick(10, 2)):
            records = [
                query.record
                for query in queries[start + call * BATCH_SIZE :][:BATCH_SIZE]
            ]
            began = clock()
            session.resolve_batch(records, K)
            seconds.append(clock() - began)
    run.median("resolve.batch_us_per_record", seconds, 1e6 / BATCH_SIZE)

    tokenizer = MinoanER().build_tokenizer()
    with recorder.span("kb.tokenize_record"):
        began = clock()
        for query in chosen:
            tokenizer.tokens(query.record)
        run.metrics["kb.tokenize_record_us"] = (clock() - began) / len(chosen) * 1e6
    wire = bodies[offset : offset + count]
    with recorder.span("serve.json_decode"):
        began = clock()
        for body in wire:
            entity_from_dict(json.loads(body)["record"])
        run.metrics["serve.json_decode_us"] = (clock() - began) / len(wire) * 1e6
    payloads = [found.as_dict() for found in results]
    with recorder.span("serve.json_encode"):
        began = clock()
        for payload in payloads:
            json.dumps(payload, separators=(",", ":")).encode("utf-8")
        run.metrics["serve.json_encode_us"] = (clock() - began) / len(payloads) * 1e6
