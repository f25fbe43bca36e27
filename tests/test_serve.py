"""Tests for the resolution daemon (repro.serve).

Covers the JSON delta codec, routing, the immutable ServingState /
StateBox pair, every HTTP endpoint through a live threaded server, the
swap-on-publish isolation guarantee under concurrent reads, and digest
parity between the serve→delta→snapshot cycle and the CLI
``--apply-delta --save-session`` path.
"""

import http.client
import json
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

import pytest

from repro.blocking import PackedBlockCollection
from repro.cli import main as cli_main
from repro.incremental import IncrementalMatcher
from repro.kb.entity import Literal
from repro.pipeline import MatchSession
from repro.serve import (
    DeltaFormatError,
    ResolutionDaemon,
    ServeClient,
    ServeClientError,
    ServingState,
    StateBox,
    build_server,
    parse_delta,
)
from repro.serve import handlers as serve_handlers
from repro.serve.handlers import RequestError, parse_k, route
from repro.serve.json_codec import (
    entity_from_dict,
    validate_against_membership,
)
from repro.store import Snapshot

from test_pipeline import make_pair
from test_snapshot_store import (
    _edited_manifest,
    _redeclared,
    _rewrite_column,
    _with_candidates_stage,
)


#: ``/metrics`` after ``test_metrics_text_for_a_request_sequence``'s
#: requests, latency sums masked.
_SEQUENCE_METRICS = (
    "# TYPE repro_incremental_stage_recomputes counter\n"
    "repro_incremental_stage_recomputes 0\n"
    "# TYPE repro_serve_errors counter\n"
    "repro_serve_errors 3\n"
    "# TYPE repro_serve_requests counter\n"
    "repro_serve_requests 13\n"
    "# TYPE repro_serve_requests_best counter\n"
    "repro_serve_requests_best 1\n"
    "# TYPE repro_serve_requests_candidates counter\n"
    "repro_serve_requests_candidates 1\n"
    "# TYPE repro_serve_requests_healthz counter\n"
    "repro_serve_requests_healthz 2\n"
    "# TYPE repro_serve_requests_match counter\n"
    "repro_serve_requests_match 1\n"
    "# TYPE repro_serve_requests_metrics counter\n"
    "repro_serve_requests_metrics 1\n"
    "# TYPE repro_serve_requests_resolve counter\n"
    "repro_serve_requests_resolve 4\n"
    "# TYPE repro_serve_requests_resolve_batch counter\n"
    "repro_serve_requests_resolve_batch 1\n"
    "# TYPE repro_serve_requests_stats counter\n"
    "repro_serve_requests_stats 1\n"
    "# TYPE repro_serve_resolve_known counter\n"
    "repro_serve_resolve_known 2\n"
    "# TYPE repro_serve_resolve_matched counter\n"
    "repro_serve_resolve_matched 3\n"
    "# TYPE repro_serve_resolve_records counter\n"
    "repro_serve_resolve_records 4\n"
    "# TYPE repro_serve_resolve_unknown counter\n"
    "repro_serve_resolve_unknown 2\n"
    "# TYPE repro_session_cache_hits counter\n"
    "repro_session_cache_hits 5\n"
    "# TYPE repro_serve_latency_seconds_best summary\n"
    "repro_serve_latency_seconds_best_count 1\n"
    "repro_serve_latency_seconds_best_sum <s>\n"
    "# TYPE repro_serve_latency_seconds_candidates summary\n"
    "repro_serve_latency_seconds_candidates_count 1\n"
    "repro_serve_latency_seconds_candidates_sum <s>\n"
    "# TYPE repro_serve_latency_seconds_healthz summary\n"
    "repro_serve_latency_seconds_healthz_count 2\n"
    "repro_serve_latency_seconds_healthz_sum <s>\n"
    "# TYPE repro_serve_latency_seconds_match summary\n"
    "repro_serve_latency_seconds_match_count 1\n"
    "repro_serve_latency_seconds_match_sum <s>\n"
    "# TYPE repro_serve_latency_seconds_resolve summary\n"
    "repro_serve_latency_seconds_resolve_count 2\n"
    "repro_serve_latency_seconds_resolve_sum <s>\n"
    "# TYPE repro_serve_latency_seconds_resolve_batch summary\n"
    "repro_serve_latency_seconds_resolve_batch_count 1\n"
    "repro_serve_latency_seconds_resolve_batch_sum <s>\n"
    "# TYPE repro_serve_latency_seconds_stats summary\n"
    "repro_serve_latency_seconds_stats_count 1\n"
    "repro_serve_latency_seconds_stats_sum <s>\n"
)


# ----------------------------------------------------------------------
# Fixtures
# ----------------------------------------------------------------------
@pytest.fixture()
def snapshot_dir(tmp_path):
    """A saved repro-snapshot/1 directory for the make_pair KBs."""
    kb1, kb2 = make_pair()
    session = MatchSession(kb1, kb2)
    session.match()
    return session.save(tmp_path / "seed")


@pytest.fixture()
def served(snapshot_dir, tmp_path):
    """A live daemon + client on an ephemeral port."""
    daemon = ResolutionDaemon.from_snapshot(
        snapshot_dir, snapshot_dir=tmp_path / "snaps"
    )
    server = build_server(daemon, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    client = ServeClient(f"http://127.0.0.1:{server.server_address[1]}")
    try:
        yield daemon, client
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


# ----------------------------------------------------------------------
# Delta codec
# ----------------------------------------------------------------------
class TestDeltaCodec:
    def test_parse_round_trip(self):
        ops = parse_delta(
            {
                "ops": [
                    {
                        "op": "add",
                        "kb": "kb1",
                        "entities": [
                            {
                                "uri": "n1",
                                "pairs": [
                                    ["name", {"lit": "x"}],
                                    ["rel", {"ref": "n2"}],
                                ],
                            }
                        ],
                    },
                    {"op": "remove", "kb": "KB2", "uris": ["gone"]},
                ]
            }
        )
        assert [op.op for op in ops] == ["add", "remove"]
        assert ops[0].kb == "kb1" and ops[1].kb == "kb2"
        assert ops[0].entities[0].uri == "n1"
        assert ops[1].uris == ("gone",)
        assert ops[0].count == 1 and ops[1].count == 1

    def test_entity_decode_matches_io_json_conventions(self):
        entity = entity_from_dict(
            {"uri": "e", "pairs": [["a", {"lit": "text"}]]}
        )
        pairs = list(entity)
        assert pairs == [("a", Literal("text"))]

    @pytest.mark.parametrize(
        "payload",
        [
            "not a dict",
            {},
            {"ops": []},
            {"ops": ["not a dict"]},
            {"ops": [{"op": "upsert", "kb": "kb1", "uris": ["x"]}]},
            {"ops": [{"op": "add", "kb": "kb9", "entities": [{"uri": "x"}]}]},
            {"ops": [{"op": "add", "kb": "kb1", "entities": []}]},
            {"ops": [{"op": "add", "kb": "kb1", "entities": [{"pairs": []}]}]},
            {"ops": [{"op": "remove", "kb": "kb1", "uris": []}]},
            {"ops": [{"op": "remove", "kb": "kb1", "uris": [3]}]},
            {
                "ops": [
                    {
                        "op": "add",
                        "kb": "kb1",
                        "entities": [{"uri": "x", "pairs": [["a", {}]]}],
                    }
                ]
            },
            *(
                {"ops": [{"op": "add", "kb": "kb1", "entities": [record]}]}
                for record in (
                    {"uri": ""},
                    {"uri": "x", "pairs": [["a", {"lit": 5}]]},
                    {"uri": "x", "pairs": [["a", {"lit": ""}]]},
                    {"uri": "x", "pairs": [["a", {"ref": ["y"]}]]},
                    {"uri": "x", "pairs": [["", {"lit": "y"}]]},
                )
            ),
        ],
    )
    def test_malformed_payloads_rejected(self, payload):
        with pytest.raises(DeltaFormatError):
            parse_delta(payload)

    def test_membership_simulation_is_order_aware(self):
        # Removing then re-adding the same URI is legal in order...
        ops = parse_delta(
            {
                "ops": [
                    {"op": "remove", "kb": "kb1", "uris": ["a"]},
                    {"op": "add", "kb": "kb1", "entities": [{"uri": "a"}]},
                ]
            }
        )
        validate_against_membership(ops, frozenset({"a"}), frozenset())
        # ...but adding an existing URI, or removing a missing one, is not.
        with pytest.raises(DeltaFormatError, match="already present"):
            validate_against_membership(
                parse_delta(
                    {
                        "ops": [
                            {
                                "op": "add",
                                "kb": "kb1",
                                "entities": [{"uri": "a"}],
                            }
                        ]
                    }
                ),
                frozenset({"a"}),
                frozenset(),
            )
        with pytest.raises(DeltaFormatError, match="missing"):
            validate_against_membership(
                parse_delta(
                    {"ops": [{"op": "remove", "kb": "kb2", "uris": ["z"]}]}
                ),
                frozenset(),
                frozenset(),
            )


# ----------------------------------------------------------------------
# Routing
# ----------------------------------------------------------------------
class TestRouting:
    def test_fixed_and_prefix_routes(self):
        assert route("GET", "/healthz") == ("healthz", None, {})
        assert route("GET", "/match/a%2Fb")[:2] == ("match", "a/b")
        endpoint, uri, query = route("GET", "/candidates/x?k=5")
        assert (endpoint, uri) == ("candidates", "x")
        assert parse_k(query) == 5
        assert route("POST", "/delta")[0] == "delta"

    def test_unknown_and_wrong_method(self):
        with pytest.raises(RequestError) as not_found:
            route("GET", "/nope")
        assert not_found.value.status == 404
        with pytest.raises(RequestError) as wrong_get:
            route("GET", "/delta")
        assert wrong_get.value.status == 405
        with pytest.raises(RequestError) as wrong_post:
            route("POST", "/candidates/x")
        assert wrong_post.value.status == 405
        with pytest.raises(RequestError) as bare_prefix:
            route("GET", "/match/")
        assert bare_prefix.value.status == 404

    def test_parse_k_validation(self):
        assert parse_k({}) is None
        with pytest.raises(RequestError):
            parse_k({"k": ["zero"]})
        with pytest.raises(RequestError):
            parse_k({"k": ["0"]})


# ----------------------------------------------------------------------
# ServingState / StateBox
# ----------------------------------------------------------------------
class TestServingState:
    def make_state(self, generation=1):
        kb1, kb2 = make_pair()
        matcher = IncrementalMatcher(MatchSession(kb1, kb2))
        matcher.match()
        return ServingState.from_matcher(
            matcher, generation=generation, delta_count=0
        )

    def test_probe_caches_per_state(self):
        state = self.make_state()
        probe = state.probe("a1", 2)
        assert state.probe("a1", 2) == probe
        assert probe.match is not None and probe.match.uri2 == "b1"
        assert state.probe("ghost").known is False

    def test_decisions_cover_both_sides(self):
        state = self.make_state()
        assert state.decision_of("b1").uri1 == "a1"
        assert state.decision_of("a1").uri2 == "b1"
        assert state.decision_of("ghost") is None

    def test_stats_payload_is_json_ready(self):
        state = self.make_state()
        payload = state.stats()
        json.dumps(payload)
        assert payload["matches"] == len(state.matches)
        assert sum(payload["by_heuristic"].values()) == payload["matches"]

    def test_box_requires_monotone_generations(self):
        state1 = self.make_state(1)
        box = StateBox(state1)
        assert box.current() is state1
        state3 = self.make_state(3)
        assert box.publish(state3) is state1
        assert box.current() is state3
        with pytest.raises(ValueError, match="generation"):
            box.publish(self.make_state(2))

    def test_from_matcher_requires_completed_match(self):
        kb1, kb2 = make_pair()
        matcher = IncrementalMatcher.__new__(IncrementalMatcher)
        matcher.last_context = None
        with pytest.raises(RuntimeError, match="match"):
            ServingState.from_matcher(matcher, generation=1, delta_count=0)


# ----------------------------------------------------------------------
# Endpoints over a live server
# ----------------------------------------------------------------------
class TestEndpoints:
    def test_read_endpoints(self, served):
        _, client = served
        assert client.healthz() == {"status": "ok", "generation": 1}
        stats = client.stats()
        assert stats["generation"] == 1 and stats["matches"] == 3

        matched = client.match("a0")
        assert matched["matched"] and matched["match"]["uri2"] == "b0"
        # A KB2 URI answers with the decision that claimed it.
        assert client.match("b0")["match"]["uri1"] == "a0"
        assert client.match("ghost") == {
            "uri": "ghost",
            "generation": 1,
            "known": False,
            "matched": False,
            "match": None,
        }

        candidates = client.candidates("a1", k=1)
        assert candidates["k"] == 1 and len(candidates["value"]) == 1
        assert candidates["value"][0][0] == "b1"
        assert client.best("a1")["best"][0] == "b1"
        assert client.best("ghost")["best"] is None

    def test_metrics_exposition(self, served):
        _, client = served
        client.healthz()
        text = client.metrics()
        assert "repro_serve_requests" in text
        assert "repro_serve_requests_healthz" in text
        assert "repro_serve_latency_seconds_healthz_count" in text

    def test_metrics_text_for_a_request_sequence(self, served):
        """A fixed request sequence scrapes to this exact text, latency
        sums aside: a ``serve.requests.<endpoint>`` counter registers on
        an endpoint's first request, its latency histogram on its first
        answer (a refused ``/resolve`` counts, and times nothing), and
        the resolve counters add up known, unknown and matched records.
        """
        import re

        _, client = served
        client.healthz()
        client.healthz()
        client.stats()
        client.match("a0")
        client.candidates("a1", k=1)
        client.best("a1")
        client.resolve(
            {"uri": "new", "pairs": [["info", {"lit": "zanzibar festival"}]]}
        )
        client.resolve({"uri": "a0", "pairs": []})
        client.resolve_batch(
            [
                {"uri": "n1", "pairs": [["name", {"lit": "x"}]]},
                {"uri": "a1", "pairs": []},
            ]
        )
        for path, body in (("/nope", None), ("/resolve", {}), ("/resolve", [1])):
            with pytest.raises(ServeClientError):
                client._json("GET" if body is None else "POST", path, body)
        text = re.sub(r"_sum \S+", "_sum <s>", client.metrics())
        assert text == _SEQUENCE_METRICS

    def test_delta_then_snapshot_then_reload(self, served, tmp_path):
        daemon, client = served
        applied = client.apply_delta(
            {
                "ops": [
                    {"op": "remove", "kb": "kb1", "uris": ["a0"]},
                    {
                        "op": "add",
                        "kb": "kb2",
                        "entities": [
                            {
                                "uri": "b9",
                                "pairs": [["name", {"lit": "ninth"}]],
                            }
                        ],
                    },
                ]
            }
        )
        assert applied["generation"] == 2
        assert applied["added"] == 1 and applied["removed"] == 1
        assert client.match("a0")["known"] is False

        saved = client.snapshot()
        assert saved["generation"] == 2
        assert saved["matches_digest"] == applied["matches_digest"]
        assert "snap-g2-" in saved["snapshot"]
        assert daemon.dirty is False

        reloaded = client.reload()
        assert reloaded["generation"] == 3
        assert reloaded["matches_digest"] == applied["matches_digest"]
        assert client.stats()["delta_count"] == 0

    def test_delta_resolve_and_snapshot_never_build_the_token_view(
        self, served, monkeypatch
    ):
        """A delta, its publish and a ``/resolve`` read the token blocks'
        columns only; a snapshot digests every block collection from its
        columns, so it decodes no view at all."""
        daemon, client = served
        read = []
        decode = PackedBlockCollection.__dict__["_blocks"].func
        monkeypatch.setattr(
            PackedBlockCollection,
            "_blocks",
            property(lambda blocks: read.append(blocks.name) or decode(blocks)),
        )
        client.apply_delta(
            {"ops": [{"op": "remove", "kb": "kb1", "uris": ["a0"]}]}
        )
        resolved = client.resolve(
            {"uri": "q", "pairs": [["info", {"lit": "zanzibar shared"}]]}
        )
        assert resolved["value"]  # the record did probe the blocks
        assert "BT" not in read
        read.clear()
        client.snapshot()
        assert read == []

    @pytest.mark.parametrize(
        "broken",
        [
            "missing",
            "corrupt",
            "malformed",
            "misdeclared",
            "bad-manifest",
            "unknown-heuristic",
            "older-digest-schema",
            "older-stage-graph",
        ],
    )
    def test_reload_of_a_non_snapshot_is_400(
        self, served, snapshot_dir, tmp_path, broken
    ):
        """A path that holds no loadable snapshot is the client's error:
        400 with the reason, and the old generation keeps serving."""
        daemon, client = served
        target = tmp_path / "bad"
        if broken != "missing":
            shutil.copytree(snapshot_dir, target)
        if broken == "corrupt":
            column = target / "value_sims.bin"
            column.write_bytes(b"\xff" + column.read_bytes()[1:])
        if broken == "malformed":
            with Snapshot.load(target) as snapshot:
                kept = snapshot.array("tokens_kept", "i32")
            kept[0] = -1
            _rewrite_column(target, "tokens_kept", kept)
        if broken == "misdeclared":
            _redeclared(target, "value_keys", "f64")
        if broken == "bad-manifest":
            _edited_manifest(target, lambda m: m["json"].update(graph_stages=5))
        if broken == "unknown-heuristic":
            _edited_manifest(
                target, lambda m: m["json"]["config"].update(heuristics=["h9"])
            )
        if broken == "older-digest-schema":
            _edited_manifest(target, lambda m: m["json"].update(digest_schema=2))
        if broken == "older-stage-graph":
            _with_candidates_stage(target)
        with pytest.raises(ServeClientError) as refused:
            client.reload(str(target))
        assert refused.value.status == 400
        if broken == "older-stage-graph":
            assert "Rebuild it with" in str(refused.value)
        assert client.stats()["generation"] == 1
        assert client.match("a1")["matched"] is True
        assert daemon.telemetry.metrics.counters().get("serve.reloads", 0) == 0

    def test_error_responses_are_json_and_counted(self, served):
        daemon, client = served
        with pytest.raises(ServeClientError) as bad_delta:
            client.apply_delta({"ops": [{"op": "remove", "kb": "kb1", "uris": ["nope"]}]})
        assert bad_delta.value.status == 400
        with pytest.raises(ServeClientError) as not_found:
            client._json("GET", "/nothing")
        assert not_found.value.status == 404
        with pytest.raises(ServeClientError) as bad_k:
            client.candidates("a1", k=-1)
        assert bad_k.value.status == 400
        counters = daemon.telemetry.metrics.counters()
        assert counters["serve.errors"] >= 3

    def test_failed_delta_applies_nothing(self, served):
        _, client = served
        before = client.stats()
        # Second op is invalid; the first must not land either.
        with pytest.raises(ServeClientError):
            client.apply_delta(
                {
                    "ops": [
                        {"op": "remove", "kb": "kb1", "uris": ["a0"]},
                        {"op": "remove", "kb": "kb1", "uris": ["nope"]},
                    ]
                }
            )
        assert client.stats() == before
        assert client.match("a0")["known"] is True

    def test_auto_snapshot_every(self, snapshot_dir, tmp_path):
        daemon = ResolutionDaemon.from_snapshot(
            snapshot_dir,
            snapshot_dir=tmp_path / "auto",
            auto_snapshot_every=2,
        )
        from repro.serve.json_codec import DeltaOp

        first = daemon.apply_delta(
            (DeltaOp(op="remove", kb="kb1", uris=("a0",)),)
        )
        assert "snapshot" not in first and daemon.dirty
        second = daemon.apply_delta(
            (DeltaOp(op="remove", kb="kb2", uris=("b0",)),)
        )
        assert "snapshot" in second and not daemon.dirty
        assert daemon.last_snapshot_path is not None
        # drain_save only re-saves when dirty again.
        assert daemon.drain_save() is None
        daemon.apply_delta((DeltaOp(op="remove", kb="kb1", uris=("a1",)),))
        assert daemon.drain_save() is not None


# ----------------------------------------------------------------------
# Request hardening: hostile Content-Length headers and body caps
# ----------------------------------------------------------------------
class TestRequestHardening:
    def raw_post(self, client, content_length, body=b""):
        """POST /delta with a hand-rolled Content-Length header."""
        import http.client

        host, _, port = client.base_url.rpartition(":")
        conn = http.client.HTTPConnection(
            host.split("//")[1], int(port), timeout=10
        )
        try:
            conn.putrequest("POST", "/delta", skip_host=False)
            if content_length is not None:
                conn.putheader("Content-Length", content_length)
            conn.endheaders()
            if body:
                conn.send(body)
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        finally:
            conn.close()

    def test_reply_and_refusal_bytes(self, served):
        """Replies are compact JSON; a refusal keeps ``json.dumps``'s
        default separators, byte for byte."""
        _, client = served
        host, _, port = client.base_url.rpartition(":")
        conn = http.client.HTTPConnection(
            host.split("//")[1], int(port), timeout=10
        )
        try:
            conn.request("GET", "/healthz")
            response = conn.getresponse()
            assert response.status == 200
            assert response.read() == b'{"status":"ok","generation":1}'
            conn.request("GET", "/nowhere")
            response = conn.getresponse()
            assert response.status == 404
            assert response.read() == (
                b'{"error": "no such endpoint: GET /nowhere", "status": 404}'
            )
        finally:
            conn.close()

    @pytest.mark.parametrize("bogus", ["banana", "-5", "1e3", ""])
    def test_malformed_content_length_is_400_not_500(self, served, bogus):
        _, client = served
        status, payload = self.raw_post(client, bogus)
        assert status == 400
        assert "Content-Length" in payload["error"]

    def test_missing_body_is_400(self, served):
        _, client = served
        status, payload = self.raw_post(client, None)
        assert status == 400
        assert "required" in payload["error"]

    def test_oversized_body_is_413(self, served):
        """The cap is decided on the header, before any body is read: a
        Content-Length past 64 MiB is refused with no body sent, and the
        daemon serves on."""
        _, client = served
        status, payload = self.raw_post(client, str(64 * 1024 * 1024 + 1))
        assert status == 413
        assert "exceeds" in payload["error"]
        assert client.healthz()["status"] == "ok"

    @pytest.mark.parametrize(
        "bad",
        [
            {"uri": "n2", "pairs": [["name", {"lit": 5}]]},
            {"uri": "n2", "pairs": [["name", {"ref": None}]]},
            {"uri": "n2", "pairs": [["name", {"lit": ""}]]},
            {"uri": "n2", "pairs": [["", {"lit": "two"}]]},
            {"uri": "", "pairs": [["name", {"lit": "two"}]]},
        ],
        ids=["int-lit", "null-ref", "empty-lit", "empty-attribute", "empty-uri"],
    )
    def test_non_string_record_is_400_and_leaves_no_trace(
        self, snapshot_dir, tmp_path, bad
    ):
        """A record field that is not a non-empty string is refused
        before the WAL logs the batch or the matcher sees its first op:
        the generation, /stats and the log stay put, the next delta
        publishes without it, and a reboot replays the log cleanly."""
        from repro.serve import WAL_NAME

        wal_dir = tmp_path / "wal"
        daemon = ResolutionDaemon.from_snapshot(snapshot_dir, wal_dir=wal_dir)
        server = build_server(daemon, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        client = ServeClient(f"http://127.0.0.1:{server.server_address[1]}")
        good = {"uri": "n1", "pairs": [["name", {"lit": "one"}]]}
        try:
            before = client.stats()
            logged = (wal_dir / WAL_NAME).read_bytes()
            with pytest.raises(ServeClientError) as refused:
                client.apply_delta(
                    {
                        "ops": [
                            {"op": "add", "kb": "kb1", "entities": [good]},
                            {"op": "add", "kb": "kb1", "entities": [bad]},
                        ]
                    }
                )
            assert refused.value.status == 400
            assert client.stats() == before
            assert (wal_dir / WAL_NAME).read_bytes() == logged
            with pytest.raises(ServeClientError) as unresolved:
                client.resolve(bad)
            assert unresolved.value.status == 400
            applied = client.apply_delta(
                {"ops": [{"op": "remove", "kb": "kb1", "uris": ["a0"]}]}
            )
            assert applied["generation"] == 2
            assert "n1" not in daemon.state().uris1
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
            daemon.wal.close()
        rebooted = ResolutionDaemon.from_snapshot(snapshot_dir, wal_dir=wal_dir)
        try:
            assert rebooted.state().generation == 2
            assert (
                rebooted.state().matches_digest
                == daemon.state().matches_digest
            )
        finally:
            rebooted.wal.close()


# ----------------------------------------------------------------------
# Wire path: Nagle off, one send per response, keep-alive, drain
# ----------------------------------------------------------------------
class _CountingSocket:
    """An accepted socket that records the size of every send."""

    def __init__(self, sock):
        self._sock = sock
        self.sends = []

    def send(self, data, *flags):
        self.sends.append(len(data))
        return self._sock.send(data, *flags)

    def sendall(self, data, *flags):
        self.sends.append(len(data))
        return self._sock.sendall(data, *flags)

    def __getattr__(self, name):
        return getattr(self._sock, name)


def wait_until(condition, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "condition not met in time"
        time.sleep(0.005)


@pytest.fixture()
def wire(snapshot_dir):
    """A live server that records (and wraps) every accepted socket."""
    daemon = ResolutionDaemon.from_snapshot(snapshot_dir)
    server = build_server(daemon, port=0)
    accepted = []
    get_request = server.get_request

    def recording_get_request():
        sock, address = get_request()
        accepted.append(_CountingSocket(sock))
        return accepted[-1], address

    server.get_request = recording_get_request
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield daemon, server, accepted
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def raw_connection(server):
    return http.client.HTTPConnection(
        "127.0.0.1", server.server_address[1], timeout=10
    )


def raw_post(conn, path, payload):
    conn.request(
        "POST",
        path,
        body=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    response = conn.getresponse()
    return response, response.read()


def hang_up_server_side(accepted):
    """Close the newest accepted connection from the daemon's end."""
    sock = accepted[-1]
    sock.shutdown(socket.SHUT_RDWR)
    wait_until(lambda: sock.fileno() == -1)  # its thread closed it


class TestWirePath:
    #: A never-seen record sharing value tokens with b1 and b2.
    RECORD = {
        "uri": "urn:q:wire",
        "pairs": [
            ["name", {"lit": "first label"}],
            ["info", {"lit": "zanzibar festival shared"}],
        ],
    }

    def test_accepted_connection_has_nagle_off(self, wire):
        _, server, accepted = wire
        conn = raw_connection(server)
        try:
            conn.request("GET", "/healthz")
            conn.getresponse().read()
            assert accepted[0].getsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY
            ) == 1
        finally:
            conn.close()
        assert not hasattr(type(server), "disable_nagle_algorithm")

    def test_each_response_is_one_send(self, wire):
        _, server, accepted = wire
        conn = raw_connection(server)
        try:
            response, body = raw_post(
                conn, "/resolve", {"record": self.RECORD}
            )
            assert response.status == 200
            (sock,) = accepted
            assert len(sock.sends) == 1 and sock.sends[0] > len(body)

            records = [
                dict(self.RECORD, uri=f"urn:q:wire:{index}")
                for index in range(500)
            ]
            response, body = raw_post(
                conn, "/resolve_batch", {"records": records}
            )
            assert response.status == 200 and len(body) > 100_000
            assert len(sock.sends) == 2 and sock.sends[1] > len(body)

            # An error reply and a stdlib-generated one, too.
            conn.request("GET", "/nothing")
            assert conn.getresponse().read()
            assert len(sock.sends) == 3
        finally:
            conn.close()
        conn = raw_connection(server)
        try:
            conn.request("PUT", "/healthz")
            response = conn.getresponse()
            assert response.status == 501 and response.read()
            assert len(accepted[-1].sends) == 1
        finally:
            conn.close()

    def test_response_head_is_the_stdlib_one(self, wire):
        _, server, _ = wire
        conn = raw_connection(server)
        try:
            conn.request("GET", "/healthz")
            response = conn.getresponse()
            body = response.read()
            assert (response.version, response.status, response.reason) == (
                11, 200, "OK",
            )
            assert [name for name, _ in response.getheaders()] == [
                "Server", "Date", "Content-Type", "Content-Length",
            ]
            assert response.getheader("Content-Length") == str(len(body))
            assert json.loads(body) == {"status": "ok", "generation": 1}
        finally:
            conn.close()

    def test_keep_alive_requests_do_not_wait_on_delayed_ack(self, wire):
        """The defect was bimodal: 0.2 ms, or >= 40 ms on every request."""
        _, server, _ = wire
        conn = raw_connection(server)
        try:
            conn.connect()
            # http.client turns Nagle off; the server must not rely on it.
            conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 0)
            seconds = []
            for _ in range(50):
                began = time.perf_counter()
                conn.request("GET", "/healthz")
                conn.getresponse().read()
                seconds.append(time.perf_counter() - began)
        finally:
            conn.close()
        assert statistics.median(seconds) < 0.010

    def test_unread_body_never_becomes_the_next_request(self, wire):
        _, server, accepted = wire
        conn = raw_connection(server)
        try:
            response, _ = raw_post(conn, "/nothing", {"ops": []})
            assert response.status == 404
            assert response.getheader("Connection") == "close"
            conn.request("GET", "/healthz")  # http.client reconnects
            assert conn.getresponse().status == 200
            assert len(accepted) == 2
        finally:
            conn.close()

    def test_expect_100_continue_is_answered_before_the_body(self, wire):
        _, server, _ = wire
        body = json.dumps({"record": self.RECORD}).encode("utf-8")
        with socket.create_connection(server.server_address, timeout=5) as sock:
            sock.sendall(
                b"POST /resolve HTTP/1.1\r\nHost: x\r\n"
                b"Content-Type: application/json\r\n"
                b"Expect: 100-continue\r\nConnection: close\r\n"
                b"Content-Length: %d\r\n\r\n" % len(body)
            )
            assert sock.recv(64) == b"HTTP/1.1 100 Continue\r\n\r\n"
            sock.sendall(body)
            reply = b"".join(iter(lambda: sock.recv(65536), b""))
            assert reply.startswith(b"HTTP/1.1 200 OK")


class TestDrain:
    def test_close_hangs_up_idle_connections_and_finishes_requests(
        self, snapshot_dir, monkeypatch
    ):
        entered = threading.Event()
        handle_stats = serve_handlers.handle_stats

        def slow_stats(state):
            entered.set()
            time.sleep(0.5)
            return handle_stats(state)

        monkeypatch.setattr(serve_handlers, "handle_stats", slow_stats)
        daemon = ResolutionDaemon.from_snapshot(snapshot_dir)
        server = build_server(daemon, port=0)
        serving = threading.Thread(target=server.serve_forever, daemon=True)
        serving.start()
        idle = raw_connection(server)
        busy = raw_connection(server)
        replies = []

        def in_flight():
            busy.request("GET", "/stats")
            response = busy.getresponse()
            replies.append((response.status, response.read()))

        def close():
            server.shutdown()
            server.server_close()

        requester = threading.Thread(target=in_flight)
        closer = threading.Thread(target=close, daemon=True)
        try:
            idle.request("GET", "/healthz")
            assert idle.getresponse().read()  # idle, and kept alive
            requester.start()
            assert entered.wait(5)
            began = time.monotonic()
            closer.start()
            closer.join(timeout=5)
            assert not closer.is_alive(), "an idle connection held the drain"
            assert time.monotonic() - began < 3
            requester.join(timeout=5)
            assert not requester.is_alive()
            ((status, body),) = replies
            assert status == 200 and json.loads(body)["generation"] == 1
            # The drained daemon hung up; nothing answers on either now.
            with pytest.raises((ConnectionError, http.client.HTTPException)):
                idle.request("GET", "/healthz")
                idle.getresponse()
        finally:
            idle.close()
            busy.close()
            serving.join(timeout=5)

    def test_sigterm_with_idle_connection_exits_promptly(
        self, snapshot_dir
    ):
        env = dict(os.environ, PYTHONUNBUFFERED="1")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.serve",
             "--snapshot", str(snapshot_dir), "--port", "0"],
            env=env, stdout=subprocess.PIPE, text=True,
        )  # fmt: skip
        try:
            for line in process.stdout:
                if "serving on http://127.0.0.1:" in line:
                    break
            port = int(line.split("http://127.0.0.1:")[1].split()[0])
            idle = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
            try:
                idle.request("GET", "/healthz")
                assert idle.getresponse().read()
                process.send_signal(signal.SIGTERM)
                assert process.wait(timeout=5) == 0
            finally:
                idle.close()
        finally:
            if process.poll() is None:
                process.kill()
            process.wait()
            process.stdout.close()


class TestServeClientConnection:
    def test_calls_share_one_connection(self, wire):
        _, server, accepted = wire
        with ServeClient(
            f"http://127.0.0.1:{server.server_address[1]}"
        ) as client:
            for _ in range(5):
                assert client.healthz()["status"] == "ok"
            client.stats()
            client.resolve(TestWirePath.RECORD)
            assert len(accepted) == 1
        wait_until(lambda: accepted[0].fileno() == -1)  # close() hung up
        assert client.healthz()["status"] == "ok"  # and it reopens on use
        assert len(accepted) == 2
        client.close()

    def test_stale_connection_reopened_for_reads_only(self, wire):
        daemon, server, accepted = wire
        client = ServeClient(f"http://127.0.0.1:{server.server_address[1]}")
        try:
            client.healthz()
            hang_up_server_side(accepted)
            assert client.healthz()["status"] == "ok"
            assert len(accepted) == 2

            hang_up_server_side(accepted)
            assert client.resolve(TestWirePath.RECORD)["known"] is False
            assert len(accepted) == 3

            hang_up_server_side(accepted)
            with pytest.raises(ServeClientError) as stale:
                client.apply_delta(
                    {"ops": [{"op": "remove", "kb": "kb1", "uris": ["a0"]}]}
                )
            assert stale.value.status == 0
            # Not resent: no fourth connection, nothing applied.
            assert len(accepted) == 3
            assert daemon.state().generation == 1
            counters = daemon.telemetry.metrics.counters()
            assert "serve.requests.delta" not in counters
            # The next call starts from a clean connection.
            assert client.healthz()["generation"] == 1
        finally:
            client.close()

    def test_rejects_non_http_url(self):
        with pytest.raises(ValueError, match="http://"):
            ServeClient("ftp://127.0.0.1:1")


# ----------------------------------------------------------------------
# Isolation: concurrent readers during delta publish
# ----------------------------------------------------------------------
class TestIsolation:
    def test_pinned_state_survives_delta(self, served):
        daemon, client = served
        pinned = daemon.state()
        before = pinned.probe("a1", 2)
        client.apply_delta(
            {"ops": [{"op": "remove", "kb": "kb1", "uris": ["a1"]}]}
        )
        # The old generation is frozen: same rows, same decision.
        after = pinned.probe("a1", 2)
        assert after == before and after.known
        # The new generation disagrees — proof the worlds are separate.
        current = daemon.state()
        assert current.generation == pinned.generation + 1
        assert current.probe("a1", 2).known is False

    def test_concurrent_reads_never_mix_generations(self, served):
        daemon, client = served
        uri, k = "a1", 2
        expected = {1: client.candidates(uri, k=k)}
        stop = threading.Event()
        observed: list[dict] = []
        failures: list[str] = []

        def hammer():
            reader = ServeClient(client.base_url)
            while not stop.is_set():
                observed.append(reader.candidates(uri, k=k))

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        try:
            # Two publishes while the readers hammer: remove a1's best
            # candidate, then a1 itself — each changes the payload.
            client.apply_delta(
                {"ops": [{"op": "remove", "kb": "kb2", "uris": ["b1"]}]}
            )
            expected[2] = client.candidates(uri, k=k)
            client.apply_delta(
                {"ops": [{"op": "remove", "kb": "kb1", "uris": ["a1"]}]}
            )
            expected[3] = client.candidates(uri, k=k)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=10)

        assert expected[1] != expected[2] != expected[3]
        assert len(observed) > 0
        for payload in observed:
            generation = payload["generation"]
            if generation not in expected:
                failures.append(f"impossible generation {generation}")
            elif payload != expected[generation]:
                failures.append(
                    f"generation {generation} payload mixed: {payload} "
                    f"!= {expected[generation]}"
                )
        assert not failures, failures[:3]
        # The writer really did publish while readers were in flight.
        generations = {payload["generation"] for payload in observed}
        assert 1 in generations


# ----------------------------------------------------------------------
# Digest parity with the batch CLI path
# ----------------------------------------------------------------------
class TestDigestParity:
    def write_delta_files(self, tmp_path):
        add_file = tmp_path / "more.nt"
        add_file.write_text(
            '<n1> <info> "zanzibar festival shared" .\n'
            '<n1> <name> "completely new" .\n',
            encoding="utf-8",
        )
        remove_file = tmp_path / "gone.txt"
        remove_file.write_text("a0\n", encoding="utf-8")
        return add_file, remove_file

    def delta_payload(self):
        return {
            "ops": [
                {
                    "op": "add",
                    "kb": "kb2",
                    "entities": [
                        {
                            "uri": "n1",
                            "pairs": [
                                ["info", {"lit": "zanzibar festival shared"}],
                                ["name", {"lit": "completely new"}],
                            ],
                        }
                    ],
                },
                {"op": "remove", "kb": "kb1", "uris": ["a0"]},
            ]
        }

    def test_serve_cycle_matches_cli_apply_delta(
        self, snapshot_dir, tmp_path
    ):
        add_file, remove_file = self.write_delta_files(tmp_path)

        # Batch path: the CLI's --load-session --apply-delta --save-session.
        cli_out = tmp_path / "cli-session"
        exit_code = cli_main(
            [
                "--quiet",
                "match",
                "--load-session",
                str(snapshot_dir),
                "--apply-delta",
                f"add:kb2:{add_file}",
                "--apply-delta",
                f"remove:kb1:{remove_file}",
                "--save-session",
                str(cli_out),
                "--output",
                str(tmp_path / "links.nt"),
            ]
        )
        assert exit_code == 0

        # Serve path: same snapshot, same ops through POST /delta, then
        # POST /snapshot (via the daemon core; HTTP adds nothing here —
        # TestEndpoints covers the transport).
        daemon = ResolutionDaemon.from_snapshot(
            snapshot_dir, snapshot_dir=tmp_path / "snaps"
        )
        daemon.apply_delta(parse_delta(self.delta_payload()))
        serve_out = daemon.save_snapshot(tmp_path / "serve-session")

        cli_digests = Snapshot.load(cli_out).json("digests")
        serve_digests = Snapshot.load(serve_out).json("digests")
        assert serve_digests == cli_digests

        # And a daemon reloaded from its own snapshot republishes the
        # exact same decisions.
        reloaded = ResolutionDaemon.from_snapshot(serve_out)
        assert (
            reloaded.state().matches_digest
            == daemon.state().matches_digest
            == serve_digests["matches"]
        )


# ----------------------------------------------------------------------
# MatchSession.probe (the standalone satellite)
# ----------------------------------------------------------------------
class TestSessionProbe:
    def test_probe_matches_serving_state(self):
        kb1, kb2 = make_pair()
        session = MatchSession(kb1, kb2)
        probe = session.probe("a1", 2)
        matcher = IncrementalMatcher(MatchSession(*make_pair()))
        matcher.match()
        state = ServingState.from_matcher(matcher, generation=1, delta_count=0)
        assert probe == state.probe("a1", 2)

    def test_probe_is_cached_and_does_not_rerun_stages(self):
        kb1, kb2 = make_pair()
        session = MatchSession(kb1, kb2)
        session.match()
        runs_before = dict(session.stage_runs)
        first = session.probe("a1")
        resolver = session._reads()
        assert session.probe("a1") == first
        assert session._reads() is resolver  # built once, then reused
        assert session.stage_runs == runs_before

    def test_probe_rejects_bad_k(self):
        kb1, kb2 = make_pair()
        session = MatchSession(kb1, kb2)
        with pytest.raises(ValueError, match="k must be"):
            session.probe("a1", 0)

    def test_invalidate_refreshes_probe_results(self):
        kb1, kb2 = make_pair()
        session = MatchSession(kb1, kb2)
        assert session.probe("a0").known
        kb1.remove("a0")
        session.invalidate("kb1")
        assert session.probe("a0").known is False
