"""Deterministic failpoints for fault-injection tests.

A *failpoint* is a named site in production code that calls
:func:`failpoint` on every evaluation.  There are six:
``store.write_column``, ``store.commit_manifest``, ``store.commit_swap``,
``wal.append``, ``serve.apply_delta`` and ``engine.worker``.  The call is inert unless the
``REPRO_FAILPOINTS`` environment variable arms the site, which keeps the
hooks cheap enough to ship: one env lookup on the fast path, no locks,
no imports beyond the stdlib.

Spec grammar (comma-separated ``name=mode`` pairs)::

    REPRO_FAILPOINTS="store.write_column=once:OSError,engine.worker=crash@2"

Modes:

``off``
    Site explicitly disarmed (overrides an earlier pair for the name).
``once:ExcName``
    Raise ``ExcName`` (a builtin exception class) on the first
    evaluation only; later evaluations pass.
``ExcName@N``
    Raise on exactly the Nth evaluation (1-based).
``ExcName``
    Raise on every evaluation.
``crash``
    ``SIGKILL`` the current process on every evaluation — the real
    kill -9, not an exception anything can catch.
``crash@N``
    ``SIGKILL`` on exactly the Nth evaluation.

Evaluation counting is per-process by default.  Set
``REPRO_FAILPOINTS_STATE=<dir>`` to make counters *global across
processes*: every evaluation appends one byte to ``<dir>/<name>.hits``
with ``O_APPEND`` and reads back its own end offset, so concurrent pool
workers observe a single deterministic hit sequence — ``crash@2`` kills
whichever worker performs the second evaluation anywhere in the process
tree, exactly once.
"""

from __future__ import annotations

import builtins
import os
import signal
from dataclasses import dataclass
from pathlib import Path

ENV_SPEC = "REPRO_FAILPOINTS"
ENV_STATE = "REPRO_FAILPOINTS_STATE"


class FailpointSpecError(ValueError):
    """Raised for an unparseable ``REPRO_FAILPOINTS`` value."""


@dataclass(frozen=True)
class _Failpoint:
    """One armed site: what to do and on which evaluation."""

    action: str  # "raise" | "crash"
    exception: type[BaseException] | None  # for "raise"
    at: int | None  # None = every evaluation, N = only the Nth

    def fire(self, name: str, hit: int) -> None:
        if self.at is not None and hit != self.at:
            return
        if self.action == "crash":
            os.kill(os.getpid(), signal.SIGKILL)
        assert self.exception is not None
        raise self.exception(f"failpoint {name} (hit {hit})")


def _resolve_exception(name: str, spec: str) -> type[BaseException]:
    candidate = getattr(builtins, name, None)
    if not (
        isinstance(candidate, type) and issubclass(candidate, Exception)
    ):
        raise FailpointSpecError(
            f"failpoint spec {spec!r}: {name!r} is not a builtin "
            "exception class"
        )
    return candidate


def _parse_count(text: str, spec: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise FailpointSpecError(
            f"failpoint spec {spec!r}: {text!r} is not an integer"
        ) from None
    if value < 1:
        raise FailpointSpecError(
            f"failpoint spec {spec!r}: hit index must be >= 1"
        )
    return value


def _parse_mode(mode: str, spec: str) -> _Failpoint | None:
    if mode == "off":
        return None
    if mode == "crash":
        return _Failpoint(action="crash", exception=None, at=None)
    if mode.startswith("crash@"):
        at = _parse_count(mode[len("crash@"):], spec)
        return _Failpoint(action="crash", exception=None, at=at)
    if mode.startswith("once:"):
        exc = _resolve_exception(mode[len("once:"):], spec)
        return _Failpoint(action="raise", exception=exc, at=1)
    if "@" in mode:
        exc_name, _, count = mode.partition("@")
        exc = _resolve_exception(exc_name, spec)
        return _Failpoint(
            action="raise", exception=exc, at=_parse_count(count, spec)
        )
    exc = _resolve_exception(mode, spec)
    return _Failpoint(action="raise", exception=exc, at=None)


def parse_failpoints(spec: str) -> dict[str, _Failpoint]:
    """Parse a ``REPRO_FAILPOINTS`` value into armed sites.

    Later pairs for the same name win, so ``a=crash,a=off`` disarms
    ``a`` — handy for scoping a broad spec down in one test.
    """
    armed: dict[str, _Failpoint] = {}
    for pair in spec.split(","):
        pair = pair.strip()
        if not pair:
            continue
        name, separator, mode = pair.partition("=")
        name = name.strip()
        mode = mode.strip()
        if not separator or not name or not mode:
            raise FailpointSpecError(
                f"failpoint spec {pair!r}: expected name=mode"
            )
        point = _parse_mode(mode, pair)
        if point is None:
            armed.pop(name, None)
        else:
            armed[name] = point
    return armed


# Parsed-spec cache, keyed by the exact env values that produced it, and
# the per-process hit counters.  Both reset whenever the env changes so
# monkeypatched tests always see fresh state.
_cache: tuple[str, str | None, dict[str, _Failpoint]] | None = None
_counts: dict[str, int] = {}


def reset_failpoints() -> None:
    """Drop the parsed-spec cache and all in-process hit counters."""
    global _cache
    _cache = None
    _counts.clear()


def failpoints_active() -> bool:
    """True when ``REPRO_FAILPOINTS`` arms at least one site."""
    return bool(os.environ.get(ENV_SPEC))


def _next_hit(name: str, state_dir: str | None) -> int:
    if state_dir is None:
        _counts[name] = _counts.get(name, 0) + 1
        return _counts[name]
    # Cross-process counter: O_APPEND writes serialize in the kernel and
    # atomically move this fd's offset to the end of *our* write, so the
    # read-back offset is this evaluation's global 1-based hit index —
    # exact even when pool workers race.
    path = Path(state_dir) / f"{name}.hits"
    path.parent.mkdir(parents=True, exist_ok=True)
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        os.write(fd, b"x")
        return os.lseek(fd, 0, os.SEEK_CUR)
    finally:
        os.close(fd)


def failpoint(name: str) -> None:
    """Evaluate the failpoint ``name``; no-op unless armed via env."""
    spec = os.environ.get(ENV_SPEC)
    if not spec:
        return
    state_dir = os.environ.get(ENV_STATE) or None
    global _cache
    if _cache is None or _cache[0] != spec or _cache[1] != state_dir:
        _cache = (spec, state_dir, parse_failpoints(spec))
        _counts.clear()
    point = _cache[2].get(name)
    if point is None:
        return
    point.fire(name, _next_hit(name, state_dir))
