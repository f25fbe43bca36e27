"""``serve_delta``: ``POST /delta`` writes beside ``/resolve`` reads, then a crash.

A writer posts a fixed, seeded sequence of delta batches (alternating
"add 2 held-out records to kb1" and "remove 2 kb2 URIs") while a reader
runs closed-loop ``/resolve`` of never-seen records on its own
keep-alive connection — two connections, one per core.  The daemon is
then ``SIGKILL``ed and restarted from the *original* snapshot plus the
write-ahead log, which replays every batch; the recovered daemon is
checked against a cold batch run on the final KB state and asked for a
snapshot.

The traced pass posts six batches over HTTP and applies the same six
to an in-process ``ResolutionDaemon`` for the
per-stage seconds, times ``ServingState.from_matcher`` and
``WriteAheadLog.log_delta`` on their own, and ends with the
known-defect probe (restart from a live snapshot with later deltas in
the log).
"""

from __future__ import annotations

import random
import threading
import time
from contextlib import nullcontext
from pathlib import Path

import stats
from common import (
    CORPUS_SEED,
    DIRTINESS,
    QUERY_POOL,
    Run,
    calibration_s,
    clock,
    get_json,
    post_json,
    resolve_body,
)
from daemon import HOST, DaemonBootError, DaemonProcess
from loadgen import Client, closed_loop

from repro import MinoanER
from repro.datasets import query_stream
from repro.incremental import IncrementalMatcher
from repro.pipeline import MatchSession, artifact_digest
from repro.serve import ResolutionDaemon, ServingState, WriteAheadLog, parse_delta
from repro.serve.json_codec import entity_to_dict

#: Entities per delta batch.
DELTA_SIZE = 2
#: Pause before each delta, so the reader also sees a quiet daemon.
DELTA_GAP_S = 0.3
#: Batches the traced pass applies in-process for the stage breakdown.
INPROC_DELTAS = 6

#: stage_seconds key(s) of a delta's context -> per-layer metric.
STAGE_METRICS = {
    "incremental.blocking_s": ("name_blocking", "token_blocking"),
    "incremental.value_index_s": ("value_index",),
    "incremental.neighbor_index_s": ("neighbor_index",),
    "incremental.matching_s": ("candidates", "matching"),
}


def delta_batches(data, seed: int, count: int):
    """The delta sequence and the kb1 it starts from: ``(kb1_initial, batches)``.

    The batches themselves are fixed with the KB pair: a delta's cost
    depends on the entities it touches, and a median over a handful of
    freshly drawn ones swings by more than the bound.  The run's seed
    decides the order in which the adds, and the removes, are posted.
    """
    picks = random.Random(CORPUS_SEED)
    held_out = picks.sample(sorted(data.kb1.uris()), (count + 1) // 2 * DELTA_SIZE)
    removed = picks.sample(sorted(data.kb2.uris()), count // 2 * DELTA_SIZE)
    kb1_initial = data.kb1.copy()
    entities = [entity_to_dict(kb1_initial.remove(uri)) for uri in held_out]
    adds = [
        [{"op": "add", "kb": "kb1", "entities": entities[i : i + DELTA_SIZE]}]
        for i in range(0, len(entities), DELTA_SIZE)
    ]
    removes = [
        [{"op": "remove", "kb": "kb2", "uris": removed[i : i + DELTA_SIZE]}]
        for i in range(0, len(removed), DELTA_SIZE)
    ]
    order = random.Random(seed)
    order.shuffle(adds)
    order.shuffle(removes)
    batches = [
        (adds if index % 2 == 0 else removes)[index // 2] for index in range(count)
    ]
    return kb1_initial, batches


def final_digest(data, kb1_initial, batches) -> str:
    """``matches`` digest of a cold batch run on the KB state after ``batches``."""
    kb1, kb2 = kb1_initial.copy(), data.kb2.copy()
    for (op,) in batches:
        if op["op"] == "add":
            for entity in op["entities"]:
                kb1.add(data.kb1.get(entity["uri"]))
        else:
            for uri in op["uris"]:
                kb2.remove(uri)
    return artifact_digest(MinoanER().match(kb1, kb2).matches)


def serve_delta(run: Run) -> None:
    snapshot = run.workdir / "snapshot"
    if run.trace:
        posted = run.pick(INPROC_DELTAS, 2)
        sequence = max(posted + 1, run.pick(INPROC_DELTAS, 2))
    else:
        posted = run.pick(max(4, round(0.4 * run.seconds)), 2)
        sequence = posted
    with run.recorder.span("setup"):
        began = clock()
        data = run.corpus()
        kb1_initial, batches = delta_batches(data, run.seed, sequence)
        session = MatchSession(kb1_initial, data.kb2)
        session.match()
        session.save(snapshot)
        cold = []
        for _ in range(run.pick(5, 2)):
            cold_began = clock()
            MinoanER().match(kb1_initial, data.kb2)
            cold.append(clock() - cold_began)
        queries = query_stream(data, QUERY_POOL, DIRTINESS, run.seed)
        bodies = [resolve_body(query.record) for query in queries]
        run.metrics["setup_s"] = clock() - began
    if run.trace:
        delta_layers(run, snapshot, batches[:posted])

    def boot(source: Path) -> DaemonProcess:
        return DaemonProcess.start(
            source,
            src=run.src,
            log=run.workdir / "daemon.log",
            wal_dir=run.workdir / "wal",
            snapshot_dir=run.workdir / "snapshots",
        )

    daemon = boot(snapshot)
    try:
        last = deltas_beside_reads(run, daemon.port, batches[:posted], bodies, cold)
        peak = daemon.vm_hwm_mb()
        daemon.kill()
        # Recovery: the ORIGINAL snapshot plus the log of every batch.
        with run.recorder.span("serve.recovery"):
            daemon = boot(snapshot)
        run.metrics["recovery_s"] = daemon.start_s
        served = get_json(daemon.port, "/stats")
        replayed = served.get("robustness", {}).get("wal_replayed")
        run.metrics["serve.wal_replayed"] = float(replayed or 0)
        run.check(replayed == posted, f"wal_replayed is {replayed}, posted {posted}")
        run.check(
            served.get("matches_digest") == last.get("matches_digest"),
            "recovered daemon serves another matches digest",
        )
        run.check(
            last.get("matches_digest")
            == final_digest(data, kb1_initial, batches[:posted]),
            "last delta's matches differ from a cold batch run on the final KBs",
        )
        writer = Client(HOST, daemon.port, timeout=120.0)
        try:
            with run.recorder.span("serve.snapshot"):
                elapsed, status, saved = post_json(writer, "/snapshot", {})
            run.ops(1, int(status != 200), "POST /snapshot")
            run.metrics["snapshot_s"] = elapsed
            if run.trace:
                _, status, _ = post_json(writer, "/delta", {"ops": batches[posted]})
                run.ops(1, int(status != 200), "POST /delta after the snapshot")
        finally:
            writer.close()
        run.metrics["peak_rss_mb"] = max(peak, daemon.vm_hwm_mb())
        if run.trace:
            # Known defect, reported not gated: a daemon restarted from a
            # live snapshot refuses to boot when the log holds later deltas.
            daemon.kill()
            try:
                daemon = boot(Path(saved["snapshot"]))
                run.metrics["serve.post_snapshot_recovery_ok"] = 1.0
            except DaemonBootError:
                run.metrics["serve.post_snapshot_recovery_ok"] = 0.0
    finally:
        daemon.stop()


def deltas_beside_reads(run: Run, port: int, batches, bodies, cold) -> dict:
    """Post the batches while a reader resolves on its own connection.

    Returns the last delta's reply (it carries the final matches digest).
    """
    gap_s = run.pick(DELTA_GAP_S, 0.1)
    stop = threading.Event()
    reads = []
    parent = run.recorder.current()

    def reader() -> None:
        run.recorder.adopt(parent)
        with run.recorder.span("serve.reader"):
            reads.append(
                closed_loop(HOST, port, bodies, stop=stop, max_seconds=600.0)
            )

    thread = threading.Thread(target=reader, name="reader")
    writer = Client(HOST, port, timeout=120.0)
    applied: list[tuple[float, float]] = []
    calibrations: list[float] = []
    recorded: list[bool] = []
    last: dict = {}
    thread.start()
    try:
        writer.connect()
        for index, ops in enumerate(batches):
            time.sleep(gap_s)
            calibration = calibration_s()
            # Spans on batches 0, 3, 4, 7...: each half holds adds and
            # removes, and the two halves give the overhead of recording.
            record = index % 4 in (0, 3)
            scope = (
                run.recorder.span("POST /delta", request_id=f"delta-{index}")
                if record
                else nullcontext()
            )
            began = clock()
            with scope:
                elapsed, status, payload = post_json(writer, "/delta", {"ops": ops})
            run.ops(1, int(status != 200), "POST /delta")
            if status == 200:
                applied.append((began, began + elapsed))
                calibrations.append(calibration)
                recorded.append(record)
                last = payload
        time.sleep(gap_s)
    finally:
        stop.set()
        thread.join()
        writer.close()
    loop = reads[0]
    run.ops(len(loop.samples), loop.failed, "reader /resolve")
    durations = [end - began for began, end in applied]
    run.median("delta_apply_p50_s", durations)
    # The mean: the batches are one fixed set of unlike operations (an add
    # costs 3-4 removes), so their total is steadier than their median.
    run.headline(durations, calibrations, mean=True)
    if "delta_apply_p50_s" in run.metrics:
        run.metrics["delta_vs_cold_ratio"] = run.metrics[
            "delta_apply_p50_s"
        ] / stats.median(cold)
    during, quiet = [], []
    for start, end, ok in loop.samples:
        if ok:
            busy = any(began <= start <= done for began, done in applied)
            (during if busy else quiet).append(end - start)
    run.median("read_during_delta_p50_ms", during, 1e3)
    if run.trace:
        run.median("serve.read_quiet_p50_ms", quiet, 1e3)
        run.tail_ms("serve.read_during_delta_p90_ms", during, 0.90)
        if during or quiet:
            run.metrics["serve.read_stall_max_ms"] = max(during + quiet) * 1e3
        run.overhead_ratio(
            [d for d, on in zip(durations, recorded) if on],
            [d for d, on in zip(durations, recorded) if not on],
        )
    return last


def delta_layers(run: Run, snapshot: Path, batches) -> None:
    """``incremental``, publish and WAL, timed in-process on the same batches."""
    recorder = run.recorder
    matcher = IncrementalMatcher.from_snapshot(snapshot)
    daemon = ResolutionDaemon(matcher, wal_dir=run.workdir / "wal-inproc")
    stages: dict[str, list[float]] = {name: [] for name in STAGE_METRICS}
    try:
        for index, ops in enumerate(batches):
            with recorder.span("serve.apply_delta", request_id=f"inproc-{index}"):
                daemon.apply_delta(parse_delta({"ops": ops}), raw_ops=ops)
            seconds = matcher.last_context.stage_seconds
            for name, keys in STAGE_METRICS.items():
                stages[name].append(sum(seconds.get(key, 0.0) for key in keys))
        publishes = []
        for generation in range(3):
            with recorder.span("serve.publish"):
                began = clock()
                ServingState.from_matcher(
                    matcher, generation=generation + 1, delta_count=0
                )
                publishes.append(clock() - began)
    finally:
        if daemon.wal is not None:
            daemon.wal.close()
    for name, values in stages.items():
        run.median(name, values)
    run.median("serve.publish_s", publishes)
    counters = matcher.counters()
    run.metrics["incremental.delta_updates"] = float(
        sum(counters["delta_updated"].values())
    )
    run.metrics["incremental.stage_recomputes"] = float(
        sum(counters["recomputed"].values())
    )

    log = WriteAheadLog(run.workdir / "wal-probe" / "delta.wal")
    try:
        size = log.path.stat().st_size
        appends = []
        for generation, ops in enumerate(batches, start=2):
            with recorder.span("serve.wal_append"):
                began = clock()
                log.log_delta(ops, generation)
                appends.append(clock() - began)
        run.median("serve.wal_append_ms", appends, 1e3)
        run.metrics["serve.wal_bytes_per_delta"] = (
            log.path.stat().st_size - size
        ) / len(batches)
    finally:
        log.close()
