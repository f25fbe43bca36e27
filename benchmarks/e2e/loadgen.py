"""Load generator for the daemon workloads.

Raw ``http.client`` connections with ``TCP_NODELAY`` set client-side, so
no delay measured here is the generator's own.  Three traffic shapes:

- :func:`closed_loop` — one keep-alive connection, the next request is
  sent only after the previous reply (a caller that waits);
- :func:`closed_loop` with ``fresh=True`` — a new connection per request
  with ``Connection: close``, timed from ``connect()`` (what the shipped
  ``ServeClient`` and ``curl`` do);
- :func:`open_loop` — requests are *due* on a fixed schedule whatever
  the server does (independent users).  Latency is taken from the due
  time, so the wait a stall imposes on later requests is counted, and
  how late the generator itself sent is reported beside it.

A sample is ``(start, end, ok)`` in ``clock()`` seconds; ``ok`` is false
for a non-200 status, a timeout or a transport error.
"""

from __future__ import annotations

import http.client
import socket
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, ContextManager, Sequence

Sample = tuple[float, float, bool]

TRANSPORT_ERRORS = (OSError, http.client.HTTPException)


class Client:
    """One HTTP/1.1 connection to the daemon (keep-alive unless told not to)."""

    def __init__(self, host: str, port: int, timeout: float = 30.0) -> None:
        self._conn = http.client.HTTPConnection(host, port, timeout=timeout)

    def connect(self) -> None:
        self._conn.connect()
        self._conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def request(
        self,
        method: str,
        path: str,
        body: bytes | None = None,
        close: bool = False,
    ) -> tuple[int, bytes]:
        if self._conn.sock is None:
            self.connect()
        headers = {}
        if body is not None:
            headers["Content-Type"] = "application/json"
        if close:
            headers["Connection"] = "close"
        self._conn.request(method, path, body=body, headers=headers)
        response = self._conn.getresponse()
        return response.status, response.read()

    def close(self) -> None:
        self._conn.close()


@dataclass
class LoopResult:
    """Samples of one closed-loop phase plus the replies kept for checking."""

    samples: list[Sample] = field(default_factory=list)
    replies: list[bytes] = field(default_factory=list)

    @property
    def latencies(self) -> list[float]:
        return [end - start for start, end, ok in self.samples if ok]

    @property
    def failed(self) -> int:
        return sum(1 for sample in self.samples if not sample[2])


def _cycle(items: Sequence, index: int):
    return items[index % len(items)]


def closed_loop(
    host: str,
    port: int,
    bodies: Sequence[bytes | None],
    *,
    method: str = "POST",
    path: str = "/resolve",
    first: int = 0,
    seconds: float = 0.0,
    min_requests: int = 0,
    max_seconds: float = 120.0,
    keep_replies: int = 0,
    check: Callable[[bytes], bool] | None = None,
    stop: threading.Event | None = None,
    fresh: bool = False,
    scope: Callable[[int], ContextManager] | None = None,
) -> LoopResult:
    """Send ``bodies`` (cycled from index ``first``) one at a time.

    The phase ends when ``seconds`` have passed *and* ``min_requests``
    were sent, when ``stop`` is set, or at ``max_seconds`` whatever the
    count.  With ``fresh`` every request opens its own connection and
    the sample starts at ``connect()``.  ``check(reply)`` runs after the
    sample's clock stopped; a false result fails the request.
    ``scope(i)`` is a context manager held around request ``i`` (the
    span hook of traced runs).
    """
    clock = time.perf_counter
    result = LoopResult()
    client = Client(host, port)
    began = clock()
    sent = 0
    try:
        if not fresh:
            client.connect()
        while True:
            elapsed = clock() - began
            if elapsed >= max_seconds:
                break
            if stop is not None:
                if stop.is_set():
                    break
            elif elapsed >= seconds and sent >= min_requests:
                break
            body = _cycle(bodies, first + sent)
            with scope(sent) if scope is not None else nullcontext():
                start = clock()
                try:
                    if fresh:
                        client = Client(host, port)
                        client.connect()
                    status, data = client.request(
                        method, path, body=body, close=fresh
                    )
                except TRANSPORT_ERRORS:
                    status, data = 0, b""
                    client.close()
                end = clock()
            if fresh:
                client.close()
            ok = status == 200 and (check is None or check(data))
            result.samples.append((start, end, ok))
            if len(result.replies) < keep_replies:
                result.replies.append(data)
            sent += 1
    finally:
        client.close()
    return result


# ----------------------------------------------------------------------
# Open loop
# ----------------------------------------------------------------------
@dataclass
class OpenLoopResult:
    """One rate step: every request's due, start and end time."""

    rate: float
    due: list[float] = field(default_factory=list)
    start: list[float] = field(default_factory=list)
    end: list[float] = field(default_factory=list)
    ok: list[bool] = field(default_factory=list)
    #: Requests never sent: not started within ``grace`` of the step end.
    abandoned: int = 0
    #: Requests that were due but had not started when the step ended.
    backlog_end: int = 0

    @property
    def latencies_from_due(self) -> list[float]:
        return [
            end - due
            for due, end, ok in zip(self.due, self.end, self.ok)
            if ok
        ]

    @property
    def lateness(self) -> list[float]:
        return [start - due for due, start in zip(self.due, self.start)]

    @property
    def failed(self) -> int:
        return sum(1 for ok in self.ok if not ok)


class _Schedule:
    """The shared due-time queue: workers take the next index in order."""

    def __init__(self, count: int) -> None:
        self._count = count
        self._next = 0
        self._lock = threading.Lock()

    def take(self) -> int | None:
        with self._lock:
            if self._next >= self._count:
                return None
            self._next += 1
            return self._next - 1


def open_loop_worker(
    schedule: _Schedule,
    send: Callable[[int], bool],
    result: OpenLoopResult,
    *,
    t0: float,
    step_end: float,
    grace: float,
    clock: Callable[[], float],
    sleep: Callable[[float], None],
    lock: threading.Lock,
) -> None:
    """One connection's share of an open-loop step.

    Takes the next scheduled request, waits until it is due (never
    sends early), and sends it.  A request whose turn comes more than
    ``grace`` after the step ended is abandoned, not sent.
    """
    while True:
        index = schedule.take()
        if index is None:
            return
        due = t0 + index / result.rate
        now = clock()
        if now < due:
            sleep(due - now)
            now = clock()
        if now > step_end + grace:
            with lock:
                result.abandoned += 1
                result.backlog_end += 1
            continue
        start = clock()
        ok = send(index)
        end = clock()
        with lock:
            result.due.append(due)
            result.start.append(start)
            result.end.append(end)
            result.ok.append(ok)
            if start > step_end:
                result.backlog_end += 1


def open_loop(
    host: str,
    port: int,
    bodies: Sequence[bytes],
    *,
    first: int = 0,
    rate: float,
    seconds: float,
    connections: int,
    path: str = "/resolve",
    grace: float = 2.0,
) -> OpenLoopResult:
    """Offer ``rate`` requests/s for ``seconds`` over keep-alive connections."""
    result = OpenLoopResult(rate=rate)
    schedule = _Schedule(int(rate * seconds))
    lock = threading.Lock()
    clients = [Client(host, port) for _ in range(connections)]
    for client in clients:
        client.connect()

    def sender(client: Client) -> Callable[[int], bool]:
        def send(index: int) -> bool:
            try:
                status, _ = client.request(
                    "POST", path, body=_cycle(bodies, first + index)
                )
                return status == 200
            except TRANSPORT_ERRORS:
                client.close()
                return False

        return send

    t0 = time.perf_counter()
    threads = [
        threading.Thread(
            target=open_loop_worker,
            args=(schedule, sender(client), result),
            kwargs=dict(
                t0=t0,
                step_end=t0 + seconds,
                grace=grace,
                clock=time.perf_counter,
                sleep=time.sleep,
                lock=lock,
            ),
        )
        for client in clients
    ]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        for client in clients:
            client.close()
    return result
