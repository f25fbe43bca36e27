"""The resolution daemon: one writer, many readers, swap-on-publish.

:class:`ResolutionDaemon` owns an :class:`IncrementalMatcher` (loaded
from a ``repro-snapshot/1`` directory) and a :class:`StateBox` holding
the published :class:`ServingState`.  The request flow:

- **Reads** (``/match``, ``/candidates``, ``/best``, ``/resolve``,
  ``/resolve_batch``, ``/stats``, ``/healthz``, ``/metrics``) pin the
  published state with one atomic reference load and answer entirely
  from it — no lock, no matcher.
- **Writes** (``/delta``) and **admin** (``/snapshot``, ``/reload``)
  serialize on the writer lock.  A delta applies the batch, re-matches
  — the matcher builds *new* index objects and never mutates the ones a
  published state holds — and publishes the next generation.  Readers
  mid-request keep the old state; readers arriving after the swap see
  the new one; nobody sees a mix.

The routes below answer the requests that :mod:`repro.serve.http`
frames.  Its server runs one non-daemon thread per connection:
``server_close()`` (the SIGTERM epilogue) hangs up the keep-alive
connections parked between requests and joins the threads still
answering one, so in-flight requests get their reply and an idle client
cannot hold the daemon open.
"""

from __future__ import annotations

import json
import logging
import signal
import threading
from pathlib import Path
from typing import Any

from ..incremental import IncrementalMatcher
from ..kb.io_json import EntityFormatError
from ..obs import Telemetry, prometheus_text
from ..store import SnapshotError
from ..testing.failpoints import failpoint
from . import handlers
from .http import FramingError, Reply, Request, ServeHTTPServer
from .json_codec import (
    DeltaFormatError,
    DeltaOp,
    delta_to_payload,
    parse_delta,
    validate_against_membership,
)
from .state import ServingState, StateBox
from .wal import WAL_NAME, WalError, WriteAheadLog

log = logging.getLogger("repro.serve")

#: Span-record retention of the daemon's telemetry: enough to inspect
#: recent traffic, bounded so an unbounded request stream cannot grow
#: memory (see docs/OBSERVABILITY.md).
MAX_SPAN_RECORDS = 4096

#: Request body cap: a delta batch measured in tens of MiB is a bulk
#: load, which belongs in the batch CLI, not an HTTP POST.
MAX_BODY_BYTES = 64 * 1024 * 1024

#: The encoder of replies.  Compact separators: batch resolve responses
#: run to ~100KB, and the whitespace is pure encode/transfer/decode
#: overhead.  ``json.dumps`` with any argument builds a new encoder per
#: call; refusals keep its default separators, and with no argument it
#: reuses one encoder too.
_ENCODER = json.JSONEncoder(separators=(",", ":"))


class ResolutionDaemon:
    """The serving core (HTTP-agnostic; the routes drive it)."""

    def __init__(
        self,
        matcher: IncrementalMatcher,
        *,
        snapshot_source: str | Path | None = None,
        snapshot_dir: str | Path | None = None,
        auto_snapshot_every: int = 0,
        telemetry: Telemetry | None = None,
        load_mode: str = "copy",
        wal_dir: str | Path | None = None,
    ) -> None:
        if auto_snapshot_every < 0:
            raise ValueError("auto_snapshot_every must be >= 0")
        self.telemetry = telemetry or Telemetry.create(
            max_span_records=MAX_SPAN_RECORDS
        )
        # The matcher's own runs (bootstrap re-match, delta matches)
        # record into the daemon's telemetry: one registry to scrape.
        matcher.telemetry = self.telemetry
        self._matcher = matcher
        if matcher.last_context is None:
            with self._span("bootstrap_match", category="run"):
                matcher.match()
        #: The write-ahead delta log, when durability is enabled via
        #: ``wal_dir``.  Opening it recovers any batches the previous
        #: process acknowledged (or had in flight) after its last
        #: snapshot — see :mod:`repro.serve.wal`; they are replayed at
        #: the end of construction.
        self.wal: WriteAheadLog | None = None
        if wal_dir is not None:
            self.wal = WriteAheadLog(Path(wal_dir) / WAL_NAME)
        # Boot at the generation the log starts from (1 without a log,
        # or the snapshotted generation after a live ``POST /snapshot``),
        # so each record's absolute ``expected_generation`` lines up.
        boot_state = ServingState.from_matcher(
            matcher,
            generation=self.wal.base_generation if self.wal else 1,
            delta_count=0,
        )
        if (
            self.wal is not None
            and self.wal.base_digest is not None
            and self.wal.base_digest != boot_state.matches_digest
        ):
            self.wal.close()
            raise WalError(
                f"{self.wal.path}: the log continues generation "
                f"{self.wal.base_generation} of another state (matches "
                f"digest {self.wal.base_digest[:12]}…, booted "
                f"{boot_state.matches_digest[:12]}…); boot from the "
                "snapshot that reset it"
            )
        self._box = StateBox(boot_state)
        self._writer_lock = threading.RLock()
        self.snapshot_source = (
            Path(snapshot_source) if snapshot_source is not None else None
        )
        if snapshot_dir is not None:
            self._snapshot_dir = Path(snapshot_dir)
        elif self.snapshot_source is not None:
            self._snapshot_dir = self.snapshot_source.parent
        else:
            self._snapshot_dir = Path(".")
        #: Snapshot load mode (``copy`` or ``mmap``) used at boot and
        #: reused by every ``reload()``.
        self.load_mode = load_mode
        self.auto_snapshot_every = auto_snapshot_every
        #: Delta requests applied since the last snapshot (the
        #: ``--auto-snapshot-every`` counter — deterministic, unlike a
        #: wall-clock period).
        self.deltas_since_snapshot = 0
        #: Whether published state is newer than the last snapshot.
        self.dirty = False
        self.last_snapshot_path: Path | None = None
        if self.wal is not None:
            self._replay_wal()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_snapshot(
        cls,
        path: str | Path,
        *,
        engine: str | None = None,
        workers: int | None = None,
        snapshot_dir: str | Path | None = None,
        auto_snapshot_every: int = 0,
        telemetry: Telemetry | None = None,
        mode: str = "copy",
        wal_dir: str | Path | None = None,
    ) -> "ResolutionDaemon":
        """A daemon warm-started from a ``repro-snapshot/1`` directory.

        ``mode="mmap"`` maps the snapshot's columns instead of copying
        them — near-instant boot; see :meth:`Snapshot.load`.
        ``wal_dir`` enables the write-ahead delta log (and replays any
        unsnapshotted batches found there before serving).
        """
        matcher = IncrementalMatcher.from_snapshot(
            path, engine=engine, workers=workers, mode=mode
        )
        return cls(
            matcher,
            snapshot_source=path,
            snapshot_dir=snapshot_dir,
            auto_snapshot_every=auto_snapshot_every,
            telemetry=telemetry,
            load_mode=mode,
            wal_dir=wal_dir,
        )

    def _span(self, name: str, category: str = "request", args=None):
        return self.telemetry.tracer.span(name, category=category, args=args)

    # ------------------------------------------------------------------
    # Read side
    # ------------------------------------------------------------------
    def state(self) -> ServingState:
        """Pin the published state (the one atomic read)."""
        return self._box.current()

    def metrics_text(self) -> str:
        """The ``GET /metrics`` Prometheus exposition."""
        return prometheus_text(self.telemetry)

    # ------------------------------------------------------------------
    # Write side (single writer; every path below takes the lock)
    # ------------------------------------------------------------------
    def apply_delta(
        self,
        ops: tuple[DeltaOp, ...],
        raw_ops: list[dict] | None = None,
    ) -> dict[str, Any]:
        """Apply one all-or-nothing delta batch and publish the result.

        With a WAL enabled, the validated batch is durably logged (in
        the wire grammar — ``raw_ops`` when the HTTP handler already has
        it, re-encoded otherwise) *before* the matcher mutates anything,
        and the new generation's digest is logged after it publishes.
        """
        with self._writer_lock:
            state = self._box.current()
            # All-or-nothing: walk the batch over simulated membership
            # before the matcher mutates anything.
            validate_against_membership(ops, state.uris1, state.uris2)
            if self.wal is not None:
                self.wal.log_delta(
                    raw_ops if raw_ops is not None else delta_to_payload(ops),
                    state.generation + 1,
                )
            # A SIGKILL here (the armed-failpoint case) loses nothing:
            # the delta is on disk and boot replays it.
            failpoint("serve.apply_delta")
            payload = self._apply_validated(ops, state)
            if self.wal is not None:
                self.wal.log_commit(
                    payload["generation"], payload["matches_digest"]
                )
            if (
                self.auto_snapshot_every
                and self.deltas_since_snapshot >= self.auto_snapshot_every
            ):
                payload["snapshot"] = str(self.save_snapshot())
            return payload

    def _apply_validated(
        self, ops: tuple[DeltaOp, ...], state: ServingState
    ) -> dict[str, Any]:
        """Apply a membership-validated batch against ``state``.

        The shared core of live applies and WAL replay — no logging, no
        auto-snapshot, so replay can never re-log what it is replaying.
        Caller holds the writer lock and passes the pinned state.
        """
        added = removed = 0
        for op in ops:
            if op.op == "add":
                added += self._matcher.add_entities(op.kb, op.entities)
            else:
                removed += self._matcher.remove_entities(op.kb, op.uris)
        result = self._matcher.match()  # records into self.telemetry
        new_state = ServingState.from_matcher(
            self._matcher,
            generation=state.generation + 1,
            delta_count=state.delta_count + len(ops),
        )
        self._box.publish(new_state)
        self.dirty = True
        self.deltas_since_snapshot += 1
        self.telemetry.metrics.counter("serve.delta_applied").inc()
        return {
            "generation": new_state.generation,
            "ops": len(ops),
            "added": added,
            "removed": removed,
            "matches": len(result.matches),
            "matches_digest": new_state.matches_digest,
        }

    def _replay_wal(self) -> None:
        """Re-apply every recovered WAL batch against the boot state.

        Each ``delta`` record was validated and durably logged by the
        previous process after its last snapshot, so replaying them in
        order reconverges deterministically; ``commit`` records pin the
        generation digests the original run produced, turning "should
        be deterministic" into a checked invariant.  Divergence raises
        :class:`WalError` — refusing to serve is strictly better than
        serving silently different matches.
        """
        assert self.wal is not None
        if self.wal.torn_dropped:
            self.telemetry.metrics.counter("serve.wal_torn_dropped").inc(
                self.wal.torn_dropped
            )
            log.warning(
                "%s: dropped a torn trailing record", self.wal.path
            )
        replayed = 0
        last_payload: dict[str, Any] | None = None
        for index, record in enumerate(self.wal.recovered):
            kind = record.get("type")
            if kind == "delta":
                ops = parse_delta({"ops": record.get("ops")})
                with self._writer_lock:
                    state = self._box.current()
                    validate_against_membership(
                        ops, state.uris1, state.uris2
                    )
                    last_payload = self._apply_validated(ops, state)
                expected = record.get("expected_generation")
                if expected is not None and expected != last_payload["generation"]:
                    raise WalError(
                        f"{self.wal.path}: record {index + 1} replayed to "
                        f"generation {last_payload['generation']}, log "
                        f"expected {expected}"
                    )
                replayed += 1
            elif kind == "commit":
                if last_payload is None or record.get("generation") != (
                    last_payload["generation"]
                ):
                    raise WalError(
                        f"{self.wal.path}: record {index + 1} commits "
                        f"generation {record.get('generation')!r} out of "
                        "order"
                    )
                if record.get("matches_digest") != last_payload["matches_digest"]:
                    raise WalError(
                        f"{self.wal.path}: replay of generation "
                        f"{last_payload['generation']} diverged from the "
                        "logged matches digest"
                    )
            else:
                raise WalError(
                    f"{self.wal.path}: record {index + 1} has unknown "
                    f"type {kind!r}"
                )
        if replayed:
            self.telemetry.metrics.counter("serve.wal_replayed").inc(
                replayed
            )
            log.info(
                "replayed %d WAL delta batch(es); now at generation %d",
                replayed,
                self._box.current().generation,
            )

    def save_snapshot(self, path: str | Path | None = None) -> Path:
        """Persist the current state to a digest-pinned directory.

        The default directory name carries the generation and the first
        12 hex digits of the matches digest —
        ``snap-g<generation>-<digest12>`` under the daemon's snapshot
        directory — so distinct states can never silently overwrite
        each other.
        """
        with self._writer_lock:
            state = self._box.current()
            if path is None:
                path = self._snapshot_dir / (
                    f"snap-g{state.generation}-{state.matches_digest[:12]}"
                )
            target = self._matcher.save(Path(path))
            self.dirty = False
            self.deltas_since_snapshot = 0
            self.last_snapshot_path = Path(target)
            if self.wal is not None:
                # The snapshot now owns everything the log held.
                self.wal.reset(state.generation, state.matches_digest)
            self.telemetry.metrics.counter("serve.snapshots_saved").inc()
            log.info("snapshot saved to %s", target)
            return Path(target)

    def reload(self, path: str | Path | None = None) -> dict[str, Any]:
        """Replace the matcher and published state from a snapshot.

        ``path`` defaults to the most recent ``save_snapshot`` target,
        falling back to the directory the daemon started from.  The
        generation keeps advancing (a reload is a publish like any
        other), so readers still observe a strictly monotone sequence.
        """
        with self._writer_lock:
            if path is None:
                path = self.last_snapshot_path or self.snapshot_source
            if path is None:
                raise DeltaFormatError(
                    "no snapshot path: pass one, or save a snapshot first"
                )
            matcher = IncrementalMatcher.from_snapshot(
                path,
                engine=self._matcher.config.engine,
                workers=self._matcher.config.workers,
                mode=self.load_mode,
            )
            matcher.telemetry = self.telemetry
            with self._span("reload_match", category="run"):
                matcher.match()
            state = self._box.current()
            new_state = ServingState.from_matcher(
                matcher, generation=state.generation + 1, delta_count=0
            )
            self._matcher = matcher
            self._box.publish(new_state)
            self.dirty = False
            self.deltas_since_snapshot = 0
            if self.wal is not None:
                # Logged batches predate the reloaded snapshot; replaying
                # them against it would be wrong, so the log restarts.
                self.wal.reset(
                    new_state.generation, new_state.matches_digest
                )
            self.telemetry.metrics.counter("serve.reloads").inc()
            log.info("reloaded from %s (generation %d)", path, new_state.generation)
            return {
                "generation": new_state.generation,
                "snapshot": str(path),
                "matches": len(new_state.matches),
                "matches_digest": new_state.matches_digest,
            }

    def drain_save(self) -> Path | None:
        """The SIGTERM epilogue: snapshot unsaved state, if configured."""
        if self.dirty and self.auto_snapshot_every:
            return self.save_snapshot()
        return None

    def robustness_stats(self) -> dict[str, Any]:
        """Fault-tolerance counters for the ``/stats`` payload.

        Engine recovery counters accumulate in the daemon's telemetry
        because the matcher's executors run under it; zeros mean no
        faults were survived (the healthy steady state).
        """
        counters = self.telemetry.metrics.counters()
        return {
            "worker_retries": counters.get("engine.worker_retries", 0),
            "pool_rebuilds": counters.get("engine.pool_rebuilds", 0),
            "degraded_dispatches": counters.get(
                "engine.degraded_dispatches", 0
            ),
            "wal_enabled": self.wal is not None,
            "wal_replayed": counters.get("serve.wal_replayed", 0),
            "wal_torn_dropped": counters.get("serve.wal_torn_dropped", 0),
        }


# ----------------------------------------------------------------------
# Routes (the framing is serve/http.py)
# ----------------------------------------------------------------------
class _Routes:
    """Routes requests into the daemon; one instance per server, shared
    by every connection thread."""

    def __init__(self, daemon: ResolutionDaemon) -> None:
        self.daemon = daemon
        # Per endpoint, its ``serve.requests.<endpoint>`` counter and
        # ``serve.latency_seconds.<endpoint>`` histogram, looked up in
        # the daemon's registry once, when first used (so an endpoint
        # nobody called, or that never answered, shows in no scrape).
        self._requests: dict[str, Any] = {}
        self._latencies: dict[str, Any] = {}

    def respond(self, request: Request) -> Reply:
        daemon = self.daemon
        metrics = daemon.telemetry.metrics
        method = request.method
        try:
            endpoint, uri, query = handlers.route(method, request.target)
        except handlers.RequestError as error:
            metrics.counter("serve.requests").inc()
            return self.refuse(error.status, str(error))
        metrics.counter("serve.requests").inc()
        requests = self._requests.get(endpoint)
        if requests is None:
            requests = self._requests[endpoint] = metrics.counter(
                f"serve.requests.{endpoint}"
            )
        requests.inc()
        with daemon._span(
            f"http:{endpoint}", args={"method": method}
        ) as span:
            try:
                status, payload = self._dispatch(endpoint, uri, query, request)
            except (handlers.RequestError, FramingError) as error:
                span.set(status=error.status)
                return self.refuse(error.status, str(error))
            except (DeltaFormatError, EntityFormatError) as error:
                span.set(status=400)
                return self.refuse(400, str(error))
            except Exception:  # noqa: BLE001 - the 500 boundary
                log.exception(
                    "unhandled error on %s %s", method, request.target
                )
                span.set(status=500)
                return self.refuse(500, "internal error (see daemon log)")
            span.set(status=status)
        latency = self._latencies.get(endpoint)
        if latency is None:
            latency = self._latencies[endpoint] = metrics.histogram(
                f"serve.latency_seconds.{endpoint}"
            )
        latency.observe(span.seconds)
        if endpoint == "metrics":
            return Reply(
                status, payload.encode("utf-8"), "text/plain; version=0.0.4"
            )
        body = _ENCODER.encode(payload).encode("utf-8")
        return Reply(status, body, "application/json")

    def refuse(self, status: int, message: str) -> Reply:
        """The JSON error reply, counted in ``serve.errors``.

        An error can precede reading the request body (bad route, bad
        or oversized Content-Length); left on a kept-alive connection
        it would be parsed as the next request, so the reply closes it.
        """
        self.daemon.telemetry.metrics.counter("serve.errors").inc()
        body = json.dumps({"error": message, "status": status}).encode("utf-8")
        return Reply(status, body, "application/json", close=True)

    def _dispatch(
        self, endpoint: str, uri: str | None, query: dict, request: Request
    ) -> tuple[int, Any]:
        daemon = self.daemon
        # Read endpoints pin ONE state here and never look again.
        if endpoint == "healthz":
            return 200, handlers.handle_healthz(daemon.state())
        if endpoint == "stats":
            payload = handlers.handle_stats(daemon.state())
            payload["robustness"] = daemon.robustness_stats()
            return 200, payload
        if endpoint == "metrics":
            return 200, daemon.metrics_text()
        if endpoint == "match":
            return 200, handlers.handle_match(daemon.state(), uri)
        if endpoint == "candidates":
            k = handlers.parse_k(query)
            return 200, handlers.handle_candidates(daemon.state(), uri, k)
        if endpoint == "best":
            return 200, handlers.handle_best(daemon.state(), uri)
        if endpoint == "resolve":
            body = _read_json_body(request)
            if not isinstance(body, dict):
                raise handlers.RequestError(400, "body must be a JSON object")
            payload = handlers.handle_resolve(daemon.state(), body)
            self._count_resolved((payload,))
            return 200, payload
        if endpoint == "resolve_batch":
            body = _read_json_body(request)
            if not isinstance(body, dict):
                raise handlers.RequestError(400, "body must be a JSON object")
            payload = handlers.handle_resolve_batch(daemon.state(), body)
            self._count_resolved(payload["results"])
            return 200, payload
        if endpoint == "delta":
            body = _read_json_body(request)
            ops = parse_delta(body)
            # Hand the WAL the exact wire-format ops we just validated —
            # no re-encoding on the hot write path.
            return 200, daemon.apply_delta(ops, raw_ops=body["ops"])
        if endpoint == "snapshot":
            body = _read_json_body(request, optional=True) or {}
            path = daemon.save_snapshot(body.get("path"))
            state = daemon.state()
            return 200, {
                "snapshot": str(path),
                "generation": state.generation,
                "matches_digest": state.matches_digest,
            }
        if endpoint == "reload":
            body = _read_json_body(request, optional=True) or {}
            try:
                return 200, daemon.reload(body.get("path"))
            except SnapshotError as error:  # the old generation serves on
                raise handlers.RequestError(400, str(error)) from None
        raise handlers.RequestError(404, f"no such endpoint: {endpoint}")

    def _count_resolved(self, results) -> None:
        """Per-record resolve counters (records, known/unknown split)."""
        metrics = self.daemon.telemetry.metrics
        known = matched = 0
        for result in results:
            known += result["known"]
            matched += result["match"] is not None
        metrics.counter("serve.resolve_records").inc(len(results))
        if known:
            metrics.counter("serve.resolve_known").inc(known)
        if len(results) - known:
            metrics.counter("serve.resolve_unknown").inc(len(results) - known)
        if matched:
            metrics.counter("serve.resolve_matched").inc(matched)


def _read_json_body(request: Request, optional: bool = False) -> Any:
    """The request's JSON body; the framing has checked that
    ``Content-Length`` is a non-negative integer."""
    length = request.content_length or 0
    if length == 0:
        if optional:
            return None
        raise handlers.RequestError(400, "request body required")
    if length > MAX_BODY_BYTES:
        raise handlers.RequestError(413, f"body exceeds {MAX_BODY_BYTES} bytes")
    raw = request.read_body()
    try:
        return json.loads(raw)
    except ValueError as error:  # not JSON, or not UTF-8
        raise handlers.RequestError(400, f"invalid JSON body: {error}")


def build_server(
    daemon: ResolutionDaemon,
    host: str = "127.0.0.1",
    port: int = 8750,
) -> ServeHTTPServer:
    """An HTTP server bound to ``host:port`` and wired to ``daemon``.

    ``port=0`` binds an ephemeral port (tests); read the actual one
    from ``server.server_address``.
    """
    return ServeHTTPServer((host, port), _Routes(daemon))


def install_signal_handlers(server: ServeHTTPServer) -> None:
    """SIGTERM/SIGINT → ``server.shutdown()`` from a side thread.

    ``shutdown()`` blocks until ``serve_forever`` exits, so it must not
    run on the signal-handling (main) thread itself.
    """

    def _initiate(signum: int, frame: Any) -> None:
        log.info("signal %d: draining and shutting down", signum)
        threading.Thread(
            target=server.shutdown, name="serve-shutdown", daemon=True
        ).start()

    signal.signal(signal.SIGTERM, _initiate)
    signal.signal(signal.SIGINT, _initiate)


def run(daemon: ResolutionDaemon, server: ServeHTTPServer) -> None:
    """Serve until shutdown, then drain in-flight requests and save.

    The epilogue order is the graceful-SIGTERM contract: stop accepting
    (``serve_forever`` returned), hang up idle keep-alive connections
    and join every request thread (``server_close`` — non-daemon
    threads), then write the final auto-snapshot if unsaved deltas
    remain.
    """
    host, port = server.server_address[:2]
    log.info("serving on http://%s:%d (generation %d)",
             host, port, daemon.state().generation)
    try:
        server.serve_forever()
    finally:
        server.server_close()
        saved = daemon.drain_save()
        if saved is not None:
            log.info("final snapshot saved to %s", saved)
        if daemon.wal is not None:
            daemon.wal.close()
