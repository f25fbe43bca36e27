"""A minimal stdlib client for the resolution daemon.

Used by the isolation tests, the serving benchmark and the CI smoke
job; equally usable interactively::

    from repro.serve.client import ServeClient

    client = ServeClient("http://127.0.0.1:8750")
    client.healthz()                      # {'status': 'ok', 'generation': 1}
    client.candidates("http://ex/e1", k=5)
    client.resolve({"uri": "urn:q:1", "pairs": [["name", {"lit": "bob"}]]})
    client.apply_delta({"ops": [
        {"op": "remove", "kb": "kb1", "uris": ["http://ex/e1"]},
    ]})
    client.snapshot()

Entity URIs are percent-quoted into the path (``quote(uri, safe="")``),
matching the daemon's routing.  A client holds **one** persistent
keep-alive connection (opened on first use; ``http.client`` sets
``TCP_NODELAY`` on it), so a call costs what its handler costs rather
than a TCP handshake; it carries one request at a time — give each
thread its own client, and ``close()`` it (or use it as a context
manager) when done.

Every failure mode raises :class:`ServeClientError`: non-2xx responses
carry the HTTP status and the decoded ``error`` message, while
connection-level failures — DNS, refused connections, and read/connect
timeouts — carry status ``0`` (no ``http.client`` or socket exception
ever escapes).  A reused connection the daemon has since closed is
re-opened once, transparently, for read requests (every ``GET``,
``/resolve``, ``/resolve_batch``); ``/delta``, ``/snapshot`` and
``/reload`` are never resent — the daemon may have applied them — and
surface as status ``0``.  Each request method accepts a ``timeout=``
override for that one call; the constructor's timeout is the default.
"""

from __future__ import annotations

import http.client
import json
import threading
from typing import Any
from urllib.parse import quote, urlencode, urlsplit

#: POST endpoints that only read daemon state, so resending one after a
#: stale connection cannot apply anything twice.
_READ_ONLY_POSTS = frozenset({"/resolve", "/resolve_batch"})


class ServeClientError(RuntimeError):
    """A non-2xx daemon response (or no response at all).

    ``status`` is the HTTP status code, or ``0`` when the failure
    happened below HTTP (unreachable daemon, timeout, torn response).
    """

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status


class ServeClient:
    """Typed wrappers over the daemon's endpoints, one method each."""

    def __init__(self, base_url: str, timeout: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        url = urlsplit(self.base_url)
        if url.scheme != "http" or not url.hostname:
            raise ValueError(f"not an http:// daemon URL: {base_url!r}")
        self._path_prefix = url.path
        self._conn = http.client.HTTPConnection(url.hostname, url.port or 80)
        self._lock = threading.Lock()  # one request on the wire at a time

    def close(self) -> None:
        """Close the connection (the next call would open a new one)."""
        with self._lock:
            self._conn.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _request(
        self,
        method: str,
        path: str,
        payload: Any | None = None,
        timeout: float | None = None,
    ) -> tuple[int, str, str]:
        body = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
            headers["Content-Type"] = "application/json"
        if timeout is None:
            timeout = self.timeout
        exchange = (method, self._path_prefix + path, body, headers, timeout)
        with self._lock:
            # A reused connection may have been closed by the daemon
            # while it sat idle; only a request that applies nothing may
            # be sent a second time to find out.
            resend = self._conn.sock is not None and (
                method == "GET" or path in _READ_ONLY_POSTS
            )
            try:
                try:
                    status, raw, content_type = self._exchange(*exchange)
                except ConnectionError:
                    # Reset, broken pipe, or EOF before a status line.
                    if not resend:
                        raise
                    self._conn.close()
                    status, raw, content_type = self._exchange(*exchange)
            except (OSError, http.client.HTTPException) as error:
                self._conn.close()
                # Most to least specific: a mid-read timeout is a bare
                # TimeoutError, a torn response an HTTPException, the
                # rest stray socket errors.
                if isinstance(error, TimeoutError):
                    message = f"request timed out after {timeout}s: {error}"
                elif isinstance(error, http.client.HTTPException):
                    message = f"malformed daemon response: {error!r}"
                else:
                    message = f"connection failed: {error}"
                raise ServeClientError(0, message) from None
        text = raw.decode("utf-8", errors="replace")
        if not 200 <= status < 300:
            try:
                message = json.loads(text).get("error", text)
            except (json.JSONDecodeError, AttributeError):
                message = text
            raise ServeClientError(status, message)
        return status, text, content_type

    def _exchange(
        self,
        method: str,
        url: str,
        body: bytes | None,
        headers: dict[str, str],
        timeout: float,
    ) -> tuple[int, bytes, str]:
        """One request and its whole reply on the persistent connection."""
        conn = self._conn
        if conn.sock is None:
            conn.timeout = timeout  # applied by connect()
            try:
                conn.connect()  # sets TCP_NODELAY
            except OSError as error:
                raise ServeClientError(
                    0, f"daemon unreachable: {error}"
                ) from None
        conn.sock.settimeout(timeout)
        conn.request(method, url, body, headers)
        response = conn.getresponse()
        return (
            response.status,
            response.read(),
            response.headers.get("Content-Type", ""),
        )

    def _json(
        self,
        method: str,
        path: str,
        payload: Any | None = None,
        timeout: float | None = None,
    ) -> Any:
        _, body, _ = self._request(method, path, payload, timeout)
        return json.loads(body)

    @staticmethod
    def _entity_path(prefix: str, uri: str) -> str:
        return f"{prefix}/{quote(uri, safe='')}"

    # ------------------------------------------------------------------
    # Read endpoints
    # ------------------------------------------------------------------
    def healthz(self, timeout: float | None = None) -> dict[str, Any]:
        return self._json("GET", "/healthz", timeout=timeout)

    def stats(self, timeout: float | None = None) -> dict[str, Any]:
        return self._json("GET", "/stats", timeout=timeout)

    def metrics(self, timeout: float | None = None) -> str:
        """The raw Prometheus text exposition."""
        _, body, _ = self._request("GET", "/metrics", timeout=timeout)
        return body

    def match(self, uri: str, timeout: float | None = None) -> dict[str, Any]:
        return self._json(
            "GET", self._entity_path("/match", uri), timeout=timeout
        )

    def candidates(
        self, uri: str, k: int | None = None, timeout: float | None = None
    ) -> dict[str, Any]:
        path = self._entity_path("/candidates", uri)
        if k is not None:
            path += "?" + urlencode({"k": k})
        return self._json("GET", path, timeout=timeout)

    def best(self, uri: str, timeout: float | None = None) -> dict[str, Any]:
        return self._json(
            "GET", self._entity_path("/best", uri), timeout=timeout
        )

    def resolve(
        self,
        record: dict[str, Any],
        k: int | None = None,
        timeout: float | None = None,
    ) -> dict[str, Any]:
        """Online-resolve one raw record (delta wire format: uri+pairs)."""
        body: dict[str, Any] = {"record": record}
        if k is not None:
            body["k"] = k
        return self._json("POST", "/resolve", body, timeout=timeout)

    def resolve_batch(
        self,
        records: list[dict[str, Any]],
        k: int | None = None,
        timeout: float | None = None,
    ) -> dict[str, Any]:
        """Online-resolve a batch of records in one request."""
        body: dict[str, Any] = {"records": records}
        if k is not None:
            body["k"] = k
        return self._json("POST", "/resolve_batch", body, timeout=timeout)

    # ------------------------------------------------------------------
    # Write / admin endpoints
    # ------------------------------------------------------------------
    def apply_delta(
        self, payload: dict[str, Any], timeout: float | None = None
    ) -> dict[str, Any]:
        """POST a delta batch (see :mod:`repro.serve.json_codec`)."""
        return self._json("POST", "/delta", payload, timeout=timeout)

    def snapshot(
        self, path: str | None = None, timeout: float | None = None
    ) -> dict[str, Any]:
        body = {"path": path} if path is not None else None
        return self._json("POST", "/snapshot", body, timeout=timeout)

    def reload(
        self, path: str | None = None, timeout: float | None = None
    ) -> dict[str, Any]:
        body = {"path": path} if path is not None else None
        return self._json("POST", "/reload", body, timeout=timeout)

    def __repr__(self) -> str:
        return f"ServeClient({self.base_url!r})"
