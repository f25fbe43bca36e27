"""The daemon's HTTP/1.1 framing: a bounded request parser, one-block replies.

The daemon speaks a small, fixed part of HTTP/1.1 — ``GET`` and
``POST``, ``Content-Length`` bodies, keep-alive — so it frames requests
itself.  A request head is read line by line into a plain dict keyed by
lower-cased header name, and a reply is formatted once and leaves in
one ``sendall``.  What a route sees is a :class:`Request`; what it
returns is a :class:`Reply`.

Requests are read with the bounds of Python's own HTTP modules, and
everything outside the subset is refused:

- a request line over :data:`MAX_LINE` bytes: 414;
- a header line over :data:`MAX_LINE` bytes, or more than
  :data:`MAX_HEADERS` header lines: 431;
- a malformed request line or version, an obs-fold (continuation) line,
  a header line without a name, an invalid ``Content-Length`` or two
  that differ: 400;
- a version of 2.0 or above: 505;
- a method other than ``GET`` / ``POST``, or any ``Transfer-Encoding``:
  501;
- a head not whole :data:`HEAD_TIMEOUT` seconds after its first byte,
  or a body that stalls for :data:`IDLE_TIMEOUT` seconds: 408.

Each refusal is answered in the routes' error shape (``refuse``) with
``Connection: close``, and the connection closes: a request the framing
cannot delimit leaves the rest of the stream unreadable.  A client that
hangs up mid-head, or sends nothing for :data:`IDLE_TIMEOUT` seconds
between requests, is closed without a reply.

Keep-alive follows HTTP/1.1: a 1.1 request keeps the connection unless
it sends ``Connection: close``; a 1.0 request closes it unless it sends
``Connection: keep-alive``.  ``Expect: 100-continue`` on a 1.1 request
is answered with ``100 Continue`` when its body is read, so a request
refused before that gets the refusal instead.  A reply to a request
whose body the route never read closes the connection (with
``Connection: close``), so those bytes are never parsed as a request.
"""

from __future__ import annotations

import io
import socket
import socketserver
import struct
import sys
import threading
import time
from email.utils import formatdate
from http import HTTPStatus
from typing import Any, BinaryIO, NamedTuple, Protocol

#: Longest request line or header line, in bytes (as Python's HTTP
#: modules bound them).
MAX_LINE = 65536
#: Seconds a request head may take, from its first byte, before a 408.
HEAD_TIMEOUT = 10.0
#: Seconds a connection may wait for its next request's first byte, or
#: its body's or reply's next one, before it closes: far above any
#: pause a kept-alive client leaves.
IDLE_TIMEOUT = 300.0
#: Most header lines one request may carry.
MAX_HEADERS = 100
#: The methods the routes answer; any other is refused with 501.
METHODS = frozenset({"GET", "POST"})

#: The ``Server`` header of every reply.
SERVER = "repro-serve/1 Python/" + sys.version.split()[0]

_STATUS_LINES = {
    status.value: f"HTTP/1.1 {status.value} {status.phrase}\r\n"
    for status in HTTPStatus
}
_CONTINUE = b"HTTP/1.1 100 Continue\r\n\r\n"
_END = b"\r\n"
_CLOSE_END = b"Connection: close\r\n\r\n"
_BLANK_LINES = (b"\r\n", b"\n")


class FramingError(ValueError):
    """A request the framing refuses with ``status`` before routing it
    (or, for a body cut short, while a route reads it)."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class Reply(NamedTuple):
    """What a route answers: the framing adds the head."""

    status: int
    body: bytes
    content_type: str
    #: Whether the connection closes after this reply (``Connection:
    #: close`` in its head).
    close: bool = False


class Routes(Protocol):
    """What the server answers requests with."""

    def respond(self, request: "Request") -> Reply: ...

    def refuse(self, status: int, message: str) -> Reply: ...


class Request:
    """One request head; the body is read on demand (:meth:`read_body`)."""

    __slots__ = (
        "method",
        "target",
        "headers",
        "keep_alive",
        "content_length",
        "body_read",
        "_rfile",
        "_connection",
        "_expect_continue",
    )

    def __init__(
        self,
        method: str,
        target: str,
        headers: dict[str, str],
        keep_alive: bool,
        content_length: int | None,
        expect_continue: bool,
        rfile: BinaryIO,
        connection: socket.socket,
    ) -> None:
        self.method = method
        self.target = target
        #: Header values by lower-cased name (the first of repeated
        #: ones; only ``Content-Length`` repeats are checked).
        self.headers = headers
        self.keep_alive = keep_alive
        #: The declared body length, ``None`` without the header.
        self.content_length = content_length
        self.body_read = False
        self._rfile = rfile
        self._connection = connection
        self._expect_continue = expect_continue

    def read_body(self) -> bytes:
        """The ``Content-Length`` body (``b""`` without one), after
        ``100 Continue`` when the client waits for it."""
        self.body_read = True
        length = self.content_length or 0
        if not length:
            return b""
        if self._expect_continue:
            # The one write that cannot join the reply: the client holds
            # its body back until it arrives.
            self._connection.sendall(_CONTINUE)
        body = self._rfile.read(length)
        if len(body) < length:
            raise FramingError(
                400, f"request body ended after {len(body)} of {length} bytes"
            )
        return body


def read_request(rfile: BinaryIO, connection: socket.socket) -> Request | None:
    """The next request head on ``rfile``, or ``None`` when the client
    hung up (at a request boundary or inside a head).

    Raises :class:`FramingError` for a head the daemon refuses.
    """
    line = rfile.readline(MAX_LINE + 1)
    if len(line) > MAX_LINE:
        raise FramingError(414, f"request line exceeds {MAX_LINE} bytes")
    words = line.split()
    if not words:
        return None
    if len(words) != 3:
        raise FramingError(400, f"bad request line: {line[:80]!r}")
    method, target, version = words
    http11 = _is_http11(version)
    keep_alive = http11
    method = method.decode("latin-1")
    if method not in METHODS:
        raise FramingError(501, f"unsupported method: {method[:20]!r}")
    headers: dict[str, str] = {}
    count = 0
    while True:
        line = rfile.readline(MAX_LINE + 1)
        if len(line) > MAX_LINE:
            raise FramingError(431, f"header line exceeds {MAX_LINE} bytes")
        if line in _BLANK_LINES:
            break
        if not line:
            return None
        count += 1
        if count > MAX_HEADERS:
            raise FramingError(431, f"more than {MAX_HEADERS} header lines")
        if line[0] in b" \t":
            raise FramingError(400, "obsolete line folding in the header")
        name, colon, value = line.decode("latin-1").partition(":")
        if not colon or not name or " " in name or "\t" in name:
            raise FramingError(400, f"malformed header line: {line[:80]!r}")
        name = name.lower()
        value = value.strip()
        held = headers.setdefault(name, value)
        if held != value and name == "content-length":
            raise FramingError(400, "conflicting Content-Length headers")
    if "transfer-encoding" in headers:
        raise FramingError(
            501, "Transfer-Encoding is not supported; send Content-Length"
        )
    content_length = None
    raw_length = headers.get("content-length")
    if raw_length is not None:
        content_length = _content_length(raw_length)
    tokens = headers.get("connection")
    if tokens is not None:
        tokens = {token.strip() for token in tokens.lower().split(",")}
        if "close" in tokens:
            keep_alive = False
        elif "keep-alive" in tokens:
            keep_alive = True
    target = target.decode("latin-1")
    if target.startswith("//"):
        # Not a network path: one leading slash, as a path means it.
        target = "/" + target.lstrip("/")
    return Request(
        method,
        target,
        headers,
        keep_alive,
        content_length,
        http11 and headers.get("expect", "").lower() == "100-continue",
        rfile,
        connection,
    )


class _Timed(socket.SocketIO):
    """A connection's bytes under a kernel receive timeout: each read
    waits :data:`IDLE_TIMEOUT` seconds, or while ``deadline`` is set
    (``time.monotonic()`` seconds) until then; past it, a 408.  The
    common request arrives in one read, so it costs no extra call."""

    deadline: float | None = None
    _waits: bool = False  # the timeout is a deadline's, not the idle one

    def readinto(self, buffer) -> int:
        if self.deadline is not None:
            _receive_timeout(self._sock, self.deadline - time.monotonic())
        elif self._waits:
            _receive_timeout(self._sock, IDLE_TIMEOUT)
        self._waits = self.deadline is not None
        try:
            return self._sock.recv_into(buffer)
        except BlockingIOError:  # the timeout passed
            what = "request" if self.deadline is None else "request head"
            raise FramingError(408, f"{what} timed out") from None


def _receive_timeout(connection: socket.socket, seconds: float) -> None:
    """Set ``SO_RCVTIMEO`` (at least a microsecond: zero means never)."""
    micros = max(1, round(seconds * 1e6))
    connection.setsockopt(
        socket.SOL_SOCKET,
        socket.SO_RCVTIMEO,
        struct.pack("ll", micros // 1_000_000, micros % 1_000_000),
    )


def _is_http11(version: bytes) -> bool:
    """Whether ``version`` is HTTP/1.1 or a later 1.x (which keeps its
    connection by default); refuses a malformed version (400) or 2.0
    and later (505)."""
    major, dot, minor = version[5:].partition(b".")
    if (
        not version.startswith(b"HTTP/")
        or not dot
        or not major.isdigit()
        or not minor.isdigit()
        or len(major) > 10
        or len(minor) > 10
    ):
        raise FramingError(400, f"bad HTTP version: {version[:20]!r}")
    number = (int(major), int(minor))
    if number >= (2, 0):
        raise FramingError(
            505, f"HTTP version {version[5:].decode()} is not supported"
        )
    return number >= (1, 1)


def _content_length(raw: str) -> int:
    if raw.isascii() and raw.isdigit():
        try:
            return int(raw)
        except ValueError:  # past int()'s digit limit
            pass
    raise FramingError(400, f"invalid Content-Length: {raw!r}")


_date_cache: tuple[int, str] = (0, "")


def _http_date() -> str:
    """The ``Date`` header value, formatted once per second."""
    global _date_cache
    now = int(time.time())
    second, text = _date_cache
    if second != now:
        text = formatdate(now, usegmt=True)
        _date_cache = (now, text)
    return text


def reply_bytes(reply: Reply) -> bytes:
    """``reply``'s head and body as one buffer: status line, ``Server``,
    ``Date``, ``Content-Type``, ``Content-Length`` (and ``Connection:
    close``)."""
    head = (
        f"{_STATUS_LINES[reply.status]}Server: {SERVER}\r\n"
        f"Date: {_http_date()}\r\nContent-Type: {reply.content_type}\r\n"
        f"Content-Length: {len(reply.body)}\r\n"
    )
    end = _CLOSE_END if reply.close else _END
    return head.encode("latin-1") + end + reply.body


class ServeHTTPServer(socketserver.ThreadingTCPServer):
    """Threading server that frames each connection's requests and
    drains its connection threads on close.

    ``daemon_threads = False`` makes ``server_close()`` join every
    connection thread — the "drain" half of graceful shutdown.  A
    keep-alive connection's thread lives as long as the connection, so
    the server tracks the connections parked between requests and
    ``server_close()`` shuts down their read side: those threads see EOF
    and exit, while a thread mid-request finishes, replies, and then
    meets the same EOF.  (A request is "mid" once its head is read; one
    whose first line lands in the instant before is still answered from
    the bytes that had arrived.)
    """

    daemon_threads = False
    allow_reuse_address = True
    #: Accept backlog.  The ``socketserver`` default of 5 overflows under
    #: a burst of connection-per-request clients (``curl``, the CLI),
    #: and an overflowed SYN is only retried a second later.
    request_queue_size = 128

    def __init__(self, address: tuple[str, int], routes: Routes) -> None:
        # Set first: a failed bind makes the base __init__ call
        # server_close().
        self._idle_lock = threading.Lock()
        #: Accepted sockets with no request being read or answered.
        self._idle: set[socket.socket] = set()
        self._draining = False
        self.routes = routes
        super().__init__(address, None)

    def park(self, connection: socket.socket) -> None:
        """``connection`` waits for its next request (or, draining, EOF)."""
        with self._idle_lock:
            if self._draining:
                _hang_up(connection)
            else:
                self._idle.add(connection)

    def unpark(self, connection: socket.socket) -> None:
        """A request arrived on ``connection``, or it is finished with."""
        with self._idle_lock:
            self._idle.discard(connection)

    def finish_request(self, request: Any, client_address: Any) -> None:
        # Runs on the connection's own thread, for the connection's life.
        self.park(request)
        try:
            self._converse(request)
        finally:
            self.unpark(request)

    def _converse(self, connection: socket.socket) -> None:
        """Answer ``connection``'s requests in order until one closes it
        or the client hangs up."""
        # A reply is one segment and must never wait for the ACK of the
        # one before it.
        connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        _receive_timeout(connection, IDLE_TIMEOUT)
        timed = _Timed(connection, "rb")
        rfile = io.BufferedReader(timed)
        routes = self.routes
        try:
            while True:
                if not rfile.peek(1):
                    return  # the client hung up between requests
                timed.deadline = time.monotonic() + HEAD_TIMEOUT
                try:
                    request = read_request(rfile, connection)
                except FramingError as error:
                    self.unpark(connection)
                    reply = routes.refuse(error.status, str(error))
                    connection.sendall(reply_bytes(reply._replace(close=True)))
                    return
                timed.deadline = None
                if request is None:
                    return
                self.unpark(connection)
                reply = routes.respond(request)
                if request.content_length and not request.body_read:
                    reply = reply._replace(close=True)
                connection.sendall(reply_bytes(reply))
                if reply.close or not request.keep_alive:
                    return
                self.park(connection)
        except (ConnectionError, FramingError):
            # The client hung up, or sent nothing for IDLE_TIMEOUT
            # seconds between requests.
            return
        finally:
            rfile.close()

    def server_close(self) -> None:
        with self._idle_lock:
            self._draining = True
            for connection in self._idle:
                _hang_up(connection)
            self._idle.clear()
        super().server_close()


def _hang_up(connection: socket.socket) -> None:
    """End a connection's request stream; a reply in flight still leaves.

    Shutting down the read side wakes the thread blocked reading the
    next request line with EOF, which is how it learns to exit.
    """
    try:
        connection.shutdown(socket.SHUT_RD)
    except OSError:
        pass  # the client closed it first
