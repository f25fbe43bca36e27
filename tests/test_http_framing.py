"""The daemon's own HTTP/1.1 framing (repro.serve.http), over raw sockets.

Every exchange writes its bytes, half-closes the socket and reads to
end-of-stream under a socket timeout, so a request the daemon would
wait on forever fails the test instead of hanging it.  Replies are
parsed by hand: status line, header names in order, ``Content-Length``
body.

The generated tests hold two properties: a valid request — any header
case or order, any extra headers, pipelined with others — gets the
canonical reply; a truncated, oversized or garbled one gets a JSON 4xx
or 5xx (never a 500) and a closed connection, or just the close, and
the daemon answers ``/healthz`` afterwards.
"""

import json
import socket
import threading
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.pipeline import MatchSession
from repro.serve import ResolutionDaemon, build_server
from repro.serve import http as serve_http
from repro.serve.http import MAX_HEADERS, MAX_LINE, SERVER

from test_pipeline import make_pair

#: A never-seen record sharing value tokens with b1 and b2.
RECORD = {
    "uri": "urn:q:framing",
    "pairs": [
        ["name", {"lit": "first label"}],
        ["info", {"lit": "zanzibar festival shared"}],
    ],
}
RESOLVE_BODY = json.dumps({"record": RECORD, "k": 2}).encode()
#: (method, target, body) of the valid requests the generated tests send.
ENDPOINTS = [
    ("GET", "/healthz", b""),
    ("GET", "/match/a1", b""),
    ("GET", "/candidates/a1?k=2", b""),
    ("POST", "/resolve", RESOLVE_BODY),
]
HEAD_NAMES = ["Server", "Date", "Content-Type", "Content-Length"]


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    kb1, kb2 = make_pair()
    session = MatchSession(kb1, kb2)
    session.match()
    snapshot = session.save(tmp_path_factory.mktemp("framing") / "seed")
    daemon = ResolutionDaemon.from_snapshot(snapshot)
    server = build_server(daemon, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield daemon, server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


@pytest.fixture(scope="module")
def daemon(served):
    return served[0]


@pytest.fixture(scope="module")
def server(served):
    return served[1]


def exchange(server, data: bytes, timeout: float = 5.0) -> bytes:
    """Send ``data``, half-close, and read until the daemon closes.

    A reset after the daemon refused a request it did not read to the
    end is its close (the kernel resets a socket closed with unread
    input); what arrived before it is the reply.
    """
    received = []
    with socket.create_connection(server.server_address, timeout=timeout) as sock:
        try:
            sock.sendall(data)
            sock.shutdown(socket.SHUT_WR)
        except OSError:
            pass  # refused and closed before the whole request was sent
        try:
            while chunk := sock.recv(65536):
                received.append(chunk)
        except ConnectionResetError:
            pass
        except socket.timeout:
            pytest.fail(f"no end of stream within {timeout} s: the daemon hung")
    return b"".join(received)


def parse_replies(data: bytes) -> list[tuple[int, list[tuple[str, str]], bytes]]:
    """``(status, headers, body)`` per reply in ``data``; a partial reply
    fails the test."""
    replies = []
    while data:
        head, blank, data = data.partition(b"\r\n\r\n")
        assert blank, f"reply head not terminated: {head[:200]!r}"
        status_line, *lines = head.decode("latin-1").split("\r\n")
        version, status, _ = status_line.split(" ", 2)
        assert version == "HTTP/1.1"
        headers = [tuple(line.split(": ", 1)) for line in lines]
        length = int(dict(headers)["Content-Length"])
        assert len(data) >= length, "reply body cut short"
        replies.append((int(status), headers, data[:length]))
        data = data[length:]
    return replies


def request_bytes(
    method: str,
    target: str,
    body: bytes = b"",
    headers: list[tuple[str, str]] | None = None,
    version: str = "HTTP/1.1",
) -> bytes:
    if headers is None:
        headers = [("Host", "x")]
        if body:
            headers += [
                ("Content-Type", "application/json"),
                ("Content-Length", str(len(body))),
            ]
    head = f"{method} {target} {version}\r\n" + "".join(
        f"{name}: {value}\r\n" for name, value in headers
    )
    return head.encode("latin-1") + b"\r\n" + body


def only_reply(server, data: bytes):
    (reply,) = parse_replies(exchange(server, data))
    return reply


def assert_refused(reply, status: int, words: str) -> None:
    """A framing refusal: the JSON error shape, closing the connection."""
    got, headers, body = reply
    assert got == status
    assert [name for name, _ in headers] == HEAD_NAMES + ["Connection"]
    assert dict(headers)["Connection"] == "close"
    assert dict(headers)["Content-Type"] == "application/json"
    payload = json.loads(body)
    assert payload["status"] == status and words in payload["error"]


@pytest.fixture(scope="module")
def canonical(server):
    """Each endpoint's reply to its plain request: ``(status, body)``."""
    replies = {}
    for method, target, body in ENDPOINTS:
        status, headers, reply_body = only_reply(
            server, request_bytes(method, target, body)
        )
        assert status == 200
        assert [name for name, _ in headers] == HEAD_NAMES
        assert dict(headers)["Server"] == SERVER
        replies[target] = reply_body
    return replies


# ----------------------------------------------------------------------
# Generated requests
# ----------------------------------------------------------------------
CASES = st.sampled_from([str, str.lower, str.upper, str.swapcase])
EXTRA_NAMES = st.from_regex(r"\AX-[A-Za-z0-9-]{1,12}\Z")
VALUES = st.text(
    st.characters(min_codepoint=0x21, max_codepoint=0x7E), max_size=30
)


@st.composite
def valid_requests(draw, last: bool = False):
    """One valid request of :data:`ENDPOINTS`: header names in any case
    and order, extra headers, leading or trailing spaces in values."""
    method, target, body = draw(st.sampled_from(ENDPOINTS))
    headers = [("Host", "x"), ("Accept", "*/*")]
    if body:
        headers += [
            ("Content-Type", "application/json"),
            ("Content-Length", str(len(body))),
        ]
    headers += draw(st.lists(st.tuples(EXTRA_NAMES, VALUES), max_size=4))
    if last and draw(st.booleans()):
        headers.append(("Connection", "close"))
    headers = [
        (draw(CASES)(name), draw(st.sampled_from(["", " "])) + value)
        for name, value in draw(st.permutations(headers))
    ]
    return target, request_bytes(method, target, body, headers)


@st.composite
def pipelines(draw):
    """One to three valid requests written back to back; only the last
    may ask to close."""
    count = draw(st.integers(1, 3))
    return [draw(valid_requests(last=i == count - 1)) for i in range(count)]


@given(pipelines())
def test_valid_requests_get_the_canonical_reply(server, canonical, pipeline):
    replies = parse_replies(exchange(server, b"".join(data for _, data in pipeline)))
    assert len(replies) == len(pipeline)
    for (target, _), (status, headers, body) in zip(pipeline, replies):
        assert status == 200
        assert [name for name, _ in headers] == HEAD_NAMES
        assert body == canonical[target]


@st.composite
def garbled_requests(draw):
    """A valid request cut short, stretched past a bound, or with bytes
    replaced, inserted or deleted."""
    _, data = draw(valid_requests())
    at = draw(st.integers(0, len(data)))
    how = draw(
        st.sampled_from(
            ["truncate", "replace", "insert", "delete", "long line", "headers"]
        )
    )
    if how == "truncate":
        return data[:at]
    if how == "replace":
        at = min(at, len(data) - 1)
        return data[:at] + bytes([draw(st.integers(0, 255))]) + data[at + 1:]
    if how == "insert":
        return data[:at] + draw(st.binary(min_size=1, max_size=8)) + data[at:]
    if how == "delete":
        return data[:at] + data[at + draw(st.integers(1, 16)):]
    if how == "long line":
        return data[:at] + b"a" * (MAX_LINE + 1) + data[at:]
    line = data.index(b"\r\n") + 2
    return data[:line] + b"X-Many: 1\r\n" * (MAX_HEADERS + 1) + data[line:]


@given(garbled_requests())
def test_garbled_requests_are_refused_or_closed_cleanly(server, data):
    for status, headers, body in parse_replies(exchange(server, data)):
        assert status != 500
        if status >= 400:
            assert dict(headers)["Connection"] == "close"
            assert json.loads(body)["status"] == status
    status, _, body = only_reply(server, request_bytes("GET", "/healthz"))
    assert status == 200 and json.loads(body)["status"] == "ok"


# ----------------------------------------------------------------------
# Each refusal, by name
# ----------------------------------------------------------------------
def test_request_line_over_the_bound_is_414(server):
    target = "/" + "a" * MAX_LINE
    assert_refused(
        only_reply(server, request_bytes("GET", target)), 414, "request line"
    )


def test_header_line_over_the_bound_is_431(server):
    headers = [("Host", "x"), ("X-Long", "a" * MAX_LINE)]
    reply = only_reply(server, request_bytes("GET", "/healthz", headers=headers))
    assert_refused(reply, 431, "header line")


def test_more_than_100_headers_is_431(server):
    headers = [(f"X-H{i}", "1") for i in range(MAX_HEADERS)]
    status, _, _ = only_reply(
        server, request_bytes("GET", "/healthz", headers=headers)
    )
    assert status == 200
    headers.append(("X-One-Too-Many", "1"))
    reply = only_reply(server, request_bytes("GET", "/healthz", headers=headers))
    assert_refused(reply, 431, f"more than {MAX_HEADERS}")


@pytest.mark.parametrize("version", ["HTTP/2.0", "HTTP/3.1"])
def test_http2_and_later_is_505(server, version):
    reply = only_reply(server, request_bytes("GET", "/healthz", version=version))
    assert_refused(reply, 505, "not supported")


@pytest.mark.parametrize(
    "line", [b"GET /healthz\r\n", b"GET /healthz HTTP/1.1 x\r\n", b"GET / FTP/1.1\r\n"]
)
def test_malformed_request_line_is_400(server, line):
    assert_refused(only_reply(server, line + b"\r\n"), 400, "bad")


def test_chunked_post_is_501_and_closes(server, daemon):
    """A chunked body cannot be delimited: refused, and the connection
    closes before the chunks would be read as a request."""
    errors = daemon.telemetry.metrics.counters().get("serve.errors", 0)
    head = [("Host", "x"), ("Transfer-Encoding", "chunked")]
    data = request_bytes("POST", "/resolve", headers=head)
    chunked = b"%x\r\n%s\r\n0\r\n\r\n" % (len(RESOLVE_BODY), RESOLVE_BODY)
    reply = only_reply(server, data + chunked)
    assert_refused(reply, 501, "Transfer-Encoding")
    assert daemon.telemetry.metrics.counters()["serve.errors"] == errors + 1


def test_unknown_method_is_a_json_501(server):
    reply = only_reply(server, request_bytes("PUT", "/healthz"))
    assert_refused(reply, 501, "unsupported method")


def test_conflicting_content_length_is_400(server):
    body = RESOLVE_BODY
    same = [("Content-Length", str(len(body)))] * 2
    status, _, reply_body = only_reply(
        server, request_bytes("POST", "/resolve", body, headers=same)
    )
    assert status == 200
    differ = [("Content-Length", str(len(body))), ("content-length", "2")]
    reply = only_reply(
        server, request_bytes("POST", "/resolve", body, headers=differ)
    )
    assert_refused(reply, 400, "conflicting Content-Length")


def test_obs_fold_is_400(server):
    data = b"GET /healthz HTTP/1.1\r\nHost: x\r\nX-Folded: a\r\n b\r\n\r\n"
    assert_refused(only_reply(server, data), 400, "folding")


def test_header_without_a_name_is_400(server):
    for line in (b"no colon here", b": empty name", b"X Spaced: 1"):
        data = b"GET /healthz HTTP/1.1\r\n" + line + b"\r\n\r\n"
        assert_refused(only_reply(server, data), 400, "malformed header")


def test_body_cut_short_is_400(server):
    data = request_bytes("POST", "/resolve", RESOLVE_BODY)
    reply = only_reply(server, data[:-5])
    assert_refused(reply, 400, f"ended after {len(RESOLVE_BODY) - 5}")


def test_http10_closes_after_the_reply(server, canonical):
    """An HTTP/1.0 request closes its connection after the reply (no
    second reply to a second request), unless it asks to keep it."""
    plain = request_bytes("GET", "/healthz", version="HTTP/1.0")
    replies = parse_replies(exchange(server, plain + plain))
    assert [(status, body) for status, _, body in replies] == [
        (200, canonical["/healthz"])
    ]
    kept = request_bytes(
        "GET", "/healthz", headers=[("Connection", "keep-alive")],
        version="HTTP/1.0",
    )  # fmt: skip
    assert len(parse_replies(exchange(server, kept + plain))) == 2


def test_connection_close_ends_the_stream(server):
    closing = request_bytes("GET", "/healthz", headers=[("Connection", "close")])
    plain = request_bytes("GET", "/healthz")
    assert len(parse_replies(exchange(server, closing + plain))) == 1


def test_pipelined_requests_are_answered_in_order(server, canonical):
    """Two requests in one write get two replies, in order, and neither
    closes the connection."""
    resolve = request_bytes("POST", "/resolve", RESOLVE_BODY)
    health = request_bytes("GET", "/healthz")
    replies = parse_replies(exchange(server, resolve + health))
    assert [body for _, _, body in replies] == [
        canonical["/resolve"],
        canonical["/healthz"],
    ]
    for _, headers, _ in replies:
        assert [name for name, _ in headers] == HEAD_NAMES


def test_expect_100_is_not_sent_for_a_request_refused_before_its_body(server):
    """``100 Continue`` goes out when the body is read: a request routed
    nowhere gets its refusal instead, and the connection closes."""
    head = [
        ("Host", "x"),
        ("Expect", "100-continue"),
        ("Content-Length", str(len(RESOLVE_BODY))),
    ]
    with socket.create_connection(server.server_address, timeout=5) as sock:
        sock.sendall(request_bytes("POST", "/nowhere", headers=head))
        data = b"".join(iter(lambda: sock.recv(65536), b""))
    (reply,) = parse_replies(data)
    assert reply[0] == 404 and dict(reply[1])["Connection"] == "close"


def test_a_body_the_route_never_reads_closes_the_connection(server, canonical):
    """A GET with a body is answered, and the connection closes: the
    unread body is never parsed as the next request."""
    head = [("Host", "x"), ("Content-Length", "5")]
    data = request_bytes("GET", "/healthz", b"GET /", headers=head)
    status, headers, body = only_reply(
        server, data + request_bytes("GET", "/healthz")
    )
    assert status == 200 and body == canonical["/healthz"]
    assert dict(headers)["Connection"] == "close"


def test_framing_refusals_are_counted_as_errors(server, daemon):
    counters = daemon.telemetry.metrics.counters
    before = counters().get("serve.errors", 0), counters().get("serve.requests", 0)
    only_reply(server, request_bytes("GET", "/healthz", version="HTTP/2.0"))
    only_reply(server, b"GET /healthz HTTP/1.1\r\nX: a\r\n b\r\n\r\n")
    assert counters()["serve.errors"] == before[0] + 2
    # A refused request was never routed.
    assert counters().get("serve.requests", 0) == before[1]


# ----------------------------------------------------------------------
# Read deadlines: a stalled client never holds a thread for long
# ----------------------------------------------------------------------
def read_to_end(sock, timeout: float = 5.0) -> bytes:
    """Everything ``sock`` receives until the daemon closes it."""
    sock.settimeout(timeout)
    received = []
    try:
        while chunk := sock.recv(65536):
            received.append(chunk)
    except ConnectionResetError:
        pass
    except socket.timeout:
        pytest.fail(f"no end of stream within {timeout} s: the daemon hung")
    return b"".join(received)


def threads_settle_at(count: int, timeout: float = 5.0) -> bool:
    """Whether the process's thread count comes down to ``count``."""
    deadline = time.monotonic() + timeout
    while threading.active_count() > count and time.monotonic() < deadline:
        time.sleep(0.01)
    return threading.active_count() == count


@pytest.mark.parametrize(
    "deadline, stalled, words",
    [
        ("HEAD_TIMEOUT", b"GET /healthz HTTP/1.1\r\nHost: x\r\n", "head timed"),
        (
            "IDLE_TIMEOUT",
            b"POST /resolve HTTP/1.1\r\nContent-Length: 100\r\n\r\n{",
            "request timed out",
        ),
    ],
    ids=["head", "body"],
)
def test_a_stalled_request_gets_a_408_and_frees_its_thread(
    server, daemon, canonical, monkeypatch, deadline, stalled, words
):
    """Two clients stall mid-request: each gets the JSON 408, counted in
    ``serve.errors``, and a close once the deadline passes, while a
    third connection is answered meanwhile; their threads end."""
    monkeypatch.setattr(serve_http, deadline, 0.4)
    counters = daemon.telemetry.metrics.counters
    errors = counters().get("serve.errors", 0)
    baseline = threading.active_count()
    stalls = [
        socket.create_connection(server.server_address, timeout=5)
        for _ in range(2)
    ]
    try:
        for sock in stalls:
            sock.sendall(stalled)
        status, _, body = only_reply(server, request_bytes("GET", "/healthz"))
        assert status == 200 and body == canonical["/healthz"]
        for sock in stalls:
            (reply,) = parse_replies(read_to_end(sock))
            assert_refused(reply, 408, words)
    finally:
        for sock in stalls:
            sock.close()
    assert counters()["serve.errors"] == errors + 2
    assert threads_settle_at(baseline)


def test_an_idle_keep_alive_connection_is_closed_without_a_reply(
    server, canonical, monkeypatch
):
    """A kept-alive connection that sends nothing more is closed after
    the idle timeout, with no reply beyond its request's, and its thread
    ends."""
    monkeypatch.setattr(serve_http, "IDLE_TIMEOUT", 0.4)
    baseline = threading.active_count()
    with socket.create_connection(server.server_address, timeout=5) as sock:
        sock.sendall(request_bytes("GET", "/healthz"))
        started = time.monotonic()
        ((status, headers, body),) = parse_replies(read_to_end(sock))
        assert time.monotonic() - started >= 0.4
    assert status == 200 and body == canonical["/healthz"]
    assert "Connection" not in dict(headers)
    assert threads_settle_at(baseline)


def test_read_deadlines_leave_room_for_every_kept_alive_pause():
    """The idle timeout is far above the pauses kept-alive clients leave
    (a delta writer's 0.3 s, a load generator's 30 and 120 s
    timeouts); a head is given seconds, not the idle time."""
    assert serve_http.IDLE_TIMEOUT >= 2 * 120
    assert 1 <= serve_http.HEAD_TIMEOUT < serve_http.IDLE_TIMEOUT
