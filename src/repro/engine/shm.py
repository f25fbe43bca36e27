"""Shared-memory dispatch: publish columns once, ship tiny handles.

The process executor's classic cost is pickling every partition's data
into the pool — PR 5 shrank those pickles to flat array columns; this
module deletes them.  The driver packs a dispatch's columns into **one**
:mod:`multiprocessing.shared_memory` segment (one copy, 8-byte aligned)
and ships each worker only :class:`SharedSlice` handles — a segment
name plus byte ranges.  Workers attach by name and read the columns in
place as typed :class:`memoryview` s; nothing but the handles and the
results crosses the pickle boundary.

Who does what: :meth:`Executor.map_columns
<repro.engine.executor.Executor.map_columns>` is the only publisher and
its task wrapper the only caller of :func:`opened`; kernels receive the
views as ordinary buffer arguments and never see a handle.  A view (or a
NumPy array wrapped around one) pins the mapping, so every one must be
dead before the segment closes — which is why the kernel runs as a
*callee* of the frame that holds the attachment: its locals die when it
returns, and the frames of a kernel that raised are cleared first.

Lifetime rules (the no-leak contract):

- A segment lives exactly as long as its dispatch: the driver publishes
  under a context manager and closes + unlinks on exit, success or
  exception.
- The :class:`SharedArena` tracks every live segment; closing the arena
  (the process executor does this in ``close()``) force-unlinks any
  survivor, and a ``weakref.finalize`` backstop runs the same cleanup at
  interpreter shutdown.
- Workers only ever *attach* — they never unlink.  The stdlib resource
  tracker (shared across the fork with the driver) deduplicates the
  per-process registrations and unlinks any name that survives a crash
  or SIGKILL of the whole tree, so ``/dev/shm`` cannot accumulate
  segments even when no cleanup code ran.

``REPRO_DISABLE_SHM=1`` disables the layer (the executor passes the
buffers themselves, pickled by a process pool); platforms without POSIX
shared memory disable it automatically.
"""

from __future__ import annotations

import os
import traceback
import weakref
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterator, Sequence

try:  # pragma: no cover - present on every supported platform
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover - exotic builds
    _shared_memory = None  # type: ignore[assignment]

#: Supported column typecodes and their element sizes.
ITEM_SIZES = {"i": 4, "q": 8, "d": 8}

_ALIGNMENT = 8


def shm_available() -> bool:
    """Whether shared-memory dispatch can be used at all."""
    return (
        _shared_memory is not None
        and os.environ.get("REPRO_DISABLE_SHM") != "1"
    )


def ensure_resource_tracker() -> None:
    """Start the stdlib resource tracker in this process (idempotent).

    Called before a process pool forks so every worker inherits the
    driver's tracker: attach-time registrations then dedupe in one
    registry and the driver's unlink clears them, which is what makes
    the tracker a pure crash backstop instead of a second (warning)
    owner.
    """
    if _shared_memory is None:  # pragma: no cover - exotic builds
        return
    try:
        from multiprocessing import resource_tracker

        resource_tracker.ensure_running()
    except Exception:  # pragma: no cover - tracker is best-effort
        pass


@dataclass(frozen=True)
class SharedSlice:
    """One typed column inside a published segment.

    The picklable handle workers receive instead of the column itself:
    segment name, element typecode and the byte range to view.  A few
    dozen bytes regardless of the column's size.
    """

    segment: str
    typecode: str
    start: int
    nbytes: int

    @property
    def count(self) -> int:
        return self.nbytes // ITEM_SIZES[self.typecode]


class SegmentReader:
    """Worker-side zero-copy access to one attached segment.

    Hands out typed views over the mapped buffer and tracks them so
    :meth:`release` can drop every export before the segment closes.
    Use :func:`attach` rather than constructing directly.
    """

    def __init__(self, shm: Any) -> None:
        self._shm = shm
        self._views: list[memoryview] = []

    def view(self, sl: SharedSlice) -> memoryview:
        """The slice as a typed memoryview over the shared buffer."""
        raw = self._shm.buf[sl.start : sl.start + sl.nbytes]
        view = raw.cast(sl.typecode)
        self._views.append(raw)
        self._views.append(view)
        return view

    def release(self) -> None:
        views, self._views = self._views, []
        for view in views:
            view.release()


class _Attachment:
    """Context manager around one worker-side attachment."""

    def __init__(self, name: str) -> None:
        self._name = name
        self._shm = None

    def __enter__(self) -> SegmentReader:
        self._shm = _shared_memory.SharedMemory(name=self._name)
        self._reader = SegmentReader(self._shm)
        return self._reader

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        if tb is not None:
            # The frames of whatever raised inside the block still hold
            # their views (and arrays over them); drop those locals, or
            # the mapping could not close while the exception travels.
            traceback.clear_frames(tb)
        self._reader.release()
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover - an escaped view
            # keeps the map alive until collected; the name is still
            # unlinked by the driver, so nothing leaks past the worker.
            pass


def attach(name: str) -> _Attachment:
    """Attach to a published segment by name (worker side, read-only).

    Workers never unlink: the driver owns the segment's lifetime, and
    the fork-shared resource tracker deduplicates the registrations.
    """
    return _Attachment(name)


@contextmanager
def opened(handles: Sequence[SharedSlice]) -> Iterator[list[memoryview]]:
    """The columns behind ``handles`` (one segment), as typed views.

    The views are valid inside the block only.  Pass them to a function
    and let it return — do not keep one, or an array over one, in the
    calling frame (see the module docstring).
    """
    with attach(handles[0].segment) as reader:
        yield [reader.view(handle) for handle in handles]


class PublishedSegment:
    """One shared segment holding several packed columns (driver side).

    Created via :meth:`SharedArena.publish`; use as a context manager so
    the segment is closed **and unlinked** when the dispatch finishes,
    success or exception.
    """

    def __init__(self, columns: Sequence[tuple[str, Any]], arena=None) -> None:
        offsets = []
        total = 0
        sizes = []
        for typecode, column in columns:
            if typecode not in ITEM_SIZES:
                raise ValueError(f"unsupported column typecode {typecode!r}")
            raw = memoryview(column).cast("B")
            sizes.append((raw, len(raw)))
            offsets.append(total)
            total += (len(raw) + _ALIGNMENT - 1) // _ALIGNMENT * _ALIGNMENT
        self._shm = _shared_memory.SharedMemory(
            create=True, size=max(total, 1)
        )
        # From here the OS object exists but no registry knows it yet
        # (the arena registers only after __init__ returns), so any
        # failure during the copy must unlink it right here — otherwise
        # the segment would leak until interpreter shutdown.
        try:
            from ..testing.failpoints import failpoint

            failpoint("shm.publish")
            self.name = self._shm.name
            self.nbytes = total
            self.slices: list[SharedSlice] = []
            buf = self._shm.buf
            for (typecode, _), (raw, nbytes), start in zip(
                columns, sizes, offsets
            ):
                if nbytes:
                    buf[start : start + nbytes] = raw
                raw.release()
                self.slices.append(
                    SharedSlice(self.name, typecode, start, nbytes)
                )
        except BaseException:
            try:
                self._shm.close()
            except BufferError:  # pragma: no cover - defensive
                pass
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
            raise
        self._arena = arena
        self._closed = False
        self._owner_pid = os.getpid()

    def close(self) -> None:
        """Close and unlink the segment (idempotent, owner process only).

        Forked pool workers inherit the driver's handles (and its
        ``weakref.finalize`` backstop); the pid guard keeps a worker's
        exit from unlinking a segment the driver still serves.
        """
        if self._closed or os.getpid() != self._owner_pid:
            return
        self._closed = True
        if self._arena is not None:
            self._arena._live.pop(self.name, None)
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover - defensive
            pass
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass

    def __enter__(self) -> "PublishedSegment":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def _close_all(live: dict) -> None:
    for segment in list(live.values()):
        segment.close()


class SharedArena:
    """Driver-owned registry of published segments.

    One arena per process executor: stages publish a dispatch's columns
    through it, and closing the arena (executor ``close()``, interpreter
    shutdown via ``weakref.finalize``) unlinks anything still live, so a
    crashed dispatch cannot strand a segment.
    """

    def __init__(self) -> None:
        if not shm_available():
            raise RuntimeError("shared memory is not available")
        self._live: dict[str, PublishedSegment] = {}
        self._finalizer = weakref.finalize(self, _close_all, self._live)

    def publish(
        self, columns: Sequence[tuple[str, Any]]
    ) -> PublishedSegment:
        """Pack ``(typecode, buffer)`` columns into one shared segment.

        One aligned copy into the segment; returns the handle whose
        ``slices`` line up with ``columns``.  Close it (or use ``with``)
        as soon as the dispatch completes.
        """
        segment = PublishedSegment(columns, arena=self)
        self._live[segment.name] = segment
        return segment

    @property
    def live_segments(self) -> int:
        return len(self._live)

    def close(self) -> None:
        """Close and unlink every live segment (idempotent)."""
        _close_all(self._live)

    def __enter__(self) -> "SharedArena":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
