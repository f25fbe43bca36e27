"""Endpoint routing and payload builders (pure, state-in → dict-out).

Every read handler takes the :class:`~repro.serve.state.ServingState`
the request pinned and returns a JSON-ready payload; nothing here
touches the daemon, the matcher, or any lock.  That is the isolation
model made syntactic: a handler *cannot* observe two generations,
because it only ever receives one.

Routing is table-free string matching on purpose — six endpoints do not
need a framework, and the absence of one is what keeps the daemon
dependency-free.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any
from urllib.parse import parse_qs, unquote, urlsplit

from ..core.resolve import match_dict

if TYPE_CHECKING:  # pragma: no cover - types only
    from .state import ServingState


class RequestError(ValueError):
    """A client error with its HTTP status attached."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


#: (method, endpoint name) per fixed path; entity endpoints are prefixes.
_FIXED_GET = {"/healthz": "healthz", "/stats": "stats", "/metrics": "metrics"}
_PREFIX_GET = {"/match/": "match", "/candidates/": "candidates", "/best/": "best"}
_FIXED_POST = {
    "/delta": "delta",
    "/snapshot": "snapshot",
    "/reload": "reload",
    "/resolve": "resolve",
    "/resolve_batch": "resolve_batch",
}


def route(method: str, target: str) -> tuple[str, str | None, dict[str, list[str]]]:
    """Resolve a request line to ``(endpoint, uri, query)``.

    ``uri`` is the percent-decoded entity URI for the per-entity
    endpoints (clients quote it with ``urllib.parse.quote(uri,
    safe="")``), else ``None``.  Raises :class:`RequestError` (404/405)
    for anything off the map, 400 for a target that does not parse.
    """
    try:
        split = urlsplit(target)
    except ValueError as error:  # an absolute-form target, mangled
        raise RequestError(400, f"bad request target: {error}") from None
    path, query = split.path, parse_qs(split.query)
    if method == "GET":
        if path in _FIXED_GET:
            return _FIXED_GET[path], None, query
        for prefix, endpoint in _PREFIX_GET.items():
            if path.startswith(prefix) and len(path) > len(prefix):
                return endpoint, unquote(path[len(prefix):]), query
        if path in _FIXED_POST:
            raise RequestError(405, f"{path} requires POST")
    elif method == "POST":
        if path in _FIXED_POST:
            return _FIXED_POST[path], None, query
        if path in _FIXED_GET or any(
            path.startswith(prefix) for prefix in _PREFIX_GET
        ):
            raise RequestError(405, f"{path} requires GET")
    raise RequestError(404, f"no such endpoint: {method} {path}")


def parse_k(query: dict[str, list[str]]) -> int | None:
    """The ``?k=`` candidate-list bound, validated (None = config's K)."""
    raw = query.get("k")
    if not raw:
        return None
    try:
        k = int(raw[0])
    except ValueError:
        raise RequestError(400, f"k must be an integer, got {raw[0]!r}")
    if k < 1:
        raise RequestError(400, f"k must be >= 1, got {k}")
    return k


# ----------------------------------------------------------------------
# Read-endpoint payloads (one pinned state each)
# ----------------------------------------------------------------------
def handle_match(state: "ServingState", uri: str) -> dict[str, Any]:
    """``GET /match/<uri>``: membership + the standing decision.

    Looks the URI up on *both* sides, so a KB2 entity answers with the
    decision that claimed it.
    """
    decision = state.decision_of(uri)
    return {
        "uri": uri,
        "generation": state.generation,
        "known": uri in state.uris1 or uri in state.uris2,
        "matched": decision is not None,
        "match": match_dict(decision),
    }


def handle_candidates(
    state: "ServingState", uri: str, k: int | None
) -> dict[str, Any]:
    """``GET /candidates/<uri>?k=``: the ranked evidence rows."""
    try:
        probe = state.probe(uri, k)
    except ValueError as error:
        raise RequestError(400, str(error))
    payload = probe.as_dict()
    payload["generation"] = state.generation
    payload["k"] = k if k is not None else state.config.top_k_candidates
    return payload


def handle_best(state: "ServingState", uri: str) -> dict[str, Any]:
    """``GET /best/<uri>``: the value index's best counterpart (vmax)."""
    best = state.value_index.candidates_of_entity1(uri, 1)
    return {
        "uri": uri,
        "generation": state.generation,
        "known": uri in state.uris1,
        "best": list(best[0]) if best else None,
    }


def handle_resolve(
    state: "ServingState", body: dict[str, Any]
) -> dict[str, Any]:
    """``POST /resolve``: online resolution of one raw record.

    Body: ``{"record": <entity dict>, "k": <optional int>}`` where the
    record uses the delta wire format (``uri`` + ``pairs``).  Entirely
    read-only against the pinned generation — the resolver's tables
    were frozen at publish time.
    """
    from .json_codec import entity_from_dict

    record_dict = body.get("record")
    if not isinstance(record_dict, dict):
        raise RequestError(400, "body must carry a 'record' object")
    record = entity_from_dict(record_dict)
    k = _parse_body_k(body)
    try:
        result = state.resolve(record, k)
    except ValueError as error:
        raise RequestError(400, str(error))
    payload = result.as_dict()
    payload["generation"] = state.generation
    payload["k"] = k if k is not None else state.config.top_k_candidates
    return payload


def handle_resolve_batch(
    state: "ServingState", body: dict[str, Any]
) -> dict[str, Any]:
    """``POST /resolve_batch``: many records, one amortized pass.

    Body: ``{"records": [<entity dict>, ...], "k": <optional int>}``.
    The results list preserves request order and equals per-record
    ``POST /resolve`` calls exactly.
    """
    from .json_codec import entity_from_dict

    record_dicts = body.get("records")
    if not isinstance(record_dicts, list):
        raise RequestError(400, "body must carry a 'records' list")
    records = [entity_from_dict(entry) for entry in record_dicts]
    k = _parse_body_k(body)
    try:
        results = state.resolve_batch(records, k)
    except ValueError as error:
        raise RequestError(400, str(error))
    return {
        "generation": state.generation,
        "k": k if k is not None else state.config.top_k_candidates,
        "results": [result.as_dict() for result in results],
    }


def _parse_body_k(body: dict[str, Any]) -> int | None:
    k = body.get("k")
    if k is None:
        return None
    if not isinstance(k, int) or isinstance(k, bool):
        raise RequestError(400, f"k must be an integer, got {k!r}")
    if k < 1:
        raise RequestError(400, f"k must be >= 1, got {k}")
    return k


def handle_stats(state: "ServingState") -> dict[str, Any]:
    """``GET /stats``: the generation's aggregate view."""
    return state.stats()


def handle_healthz(state: "ServingState") -> dict[str, Any]:
    """``GET /healthz``: liveness plus the published generation."""
    return {"status": "ok", "generation": state.generation}
