"""Pluggable executors: the parallel substrate of the pipeline.

The paper specifies every MinoanER stage as a Spark map/reduce job; this
module provides the laptop-scale analogue for the one piece of work the
pipeline dispatches: the row kernel behind both similarity indices
(:mod:`repro.engine.similarity`).  An :class:`Executor` runs a function
over a list of column *shards* (:meth:`Executor.map_columns`) and returns
the per-shard results in shard order; the caller concatenates them.

Three implementations share that interface:

- :class:`SerialExecutor` — runs partitions one after another in the
  calling thread (the default; no concurrency, no surprises);
- :class:`ThreadExecutor` — a thread pool (cheap to ship data to, but
  pure-Python stages contend on the GIL);
- :class:`ProcessExecutor` — a process pool (true parallelism; partition
  functions and their arguments must be picklable).

Determinism contract: ``map_columns`` returns results in shard order for
every executor.  Combined with a shard layout that depends only on the
data (see :mod:`repro.engine.partitioner`), the kernel computes
bit-identical results — including floating-point accumulations — no
matter which executor ran it or with how many workers.

Telemetry: when a :class:`~repro.obs.runtime.Telemetry` bundle is active
(see :mod:`repro.obs`), every dispatch opens an ``engine``-category span
and counts ``engine.*`` metrics — partitions dispatched, bytes shipped
to and returned from workers (pickled size, measured identically for
every executor so the numbers are comparable).  Each partition runs
under fresh worker-local telemetry whose span records and metric
snapshot ship back with the result; the driver merges the snapshots in
partition order and re-parents the worker spans under the dispatch span,
so the merged telemetry of a run is exact and executor-independent.
Subclasses implement :meth:`_map`; the base class owns the
instrumentation, and disabled mode short-circuits straight to ``_map``.

Transport: :meth:`Executor.map_columns` is also the one place that
decides whether columns reach a kernel as they are or through
:mod:`repro.engine.shm`.
"""

from __future__ import annotations

import os
import pickle
import time
from abc import ABC, abstractmethod
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from functools import partial
from typing import Any, Callable, Sequence, TypeVar

from ..obs.runtime import Telemetry, current, run_traced_partition
from ..testing.failpoints import failpoint
from .shm import SharedArena, ensure_resource_tracker, opened, shm_available

P = TypeVar("P")
R = TypeVar("R")

EXECUTOR_NAMES = ("serial", "thread", "process")


def auto_workers() -> int:
    """Worker count matching the machine (at least 1)."""
    return max(1, os.cpu_count() or 1)


class _CountingSink:
    """A write sink that counts bytes instead of keeping them."""

    __slots__ = ("nbytes",)

    def __init__(self) -> None:
        self.nbytes = 0

    def write(self, data: bytes) -> int:
        size = len(data)
        self.nbytes += size
        return size


def _pickled_size(value: Any) -> int:
    """The pickle byte size of ``value`` (0 when unpicklable).

    Used for the ``engine.bytes_shipped``/``engine.bytes_returned``
    counters: the same measure for every executor, whether or not the
    bytes actually cross a process boundary, so the numbers compare.
    Pickles into a size-counting sink, so measuring never materializes
    a second copy of the payload.  Only pickling failures map to size
    0 — anything else (``KeyboardInterrupt`` included) propagates.
    """
    sink = _CountingSink()
    try:
        pickle.Pickler(sink, protocol=pickle.HIGHEST_PROTOCOL).dump(value)
    except (pickle.PicklingError, TypeError, AttributeError, ValueError):
        return 0
    return sink.nbytes


def _fn_label(fn: Callable) -> str:
    """A short human label for a partition function (partials unwrapped)."""
    target = fn
    while isinstance(target, partial):
        target = target.func
    return getattr(target, "__name__", type(target).__name__)


def _on_columns(shard: tuple, fn: Callable[..., R], shared: tuple) -> R:
    """One ``map_columns`` task over the buffers themselves."""
    return fn(*shard, *shared)


def _on_handles(shard: tuple, fn: Callable[..., R], shared: tuple) -> R:
    """One ``map_columns`` task over shared-memory handles.

    ``fn`` runs as a callee so that every view it derives from the
    columns is dead when the attachment closes.
    """
    with opened(shard + shared) as columns:
        return fn(*columns)


class Executor(ABC):
    """Runs a function over column shards; results come in shard order."""

    name: str = "abstract"

    #: The shared-memory arena ``map_columns`` publishes into (``None``:
    #: columns travel as buffers).  Only the process executor has one.
    shared_arena: SharedArena | None = None

    def __init__(self, workers: int | None = None) -> None:
        if workers is not None and workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers if workers is not None else auto_workers()

    @abstractmethod
    def _map(self, fn: Callable[[P], R], partitions: Sequence[P]) -> list[R]:
        """Apply ``fn`` to every partition, results in partition order."""

    def map_columns(
        self,
        fn: Callable[..., R],
        shards: Sequence[Sequence[Any]],
        typecodes: str,
        shared: Sequence[Any] = (),
        shared_typecodes: str = "",
    ) -> list[R]:
        """``fn(*shard columns, *shared columns)`` per shard, in order.

        Every shard is a tuple of flat columns (any buffer: ``array``,
        NumPy array, ``memoryview``) with the element ``typecodes``
        given; ``shared`` columns are read by every task.  With a
        :attr:`shared_arena` all of them are published into one segment
        for the length of the dispatch and tasks receive handles, which
        the task wrapper reopens as typed ``memoryview`` s; without one
        the buffers themselves are the task.  ``fn`` cannot tell the
        difference and must not return (or keep) a view of its inputs.

        With ambient telemetry active, the dispatch is traced and every
        task's worker-local telemetry is merged back exactly (see the
        module docstring); otherwise this is ``_map`` directly.
        """
        shared = tuple(shared)
        label = _fn_label(fn)
        arena = self.shared_arena
        if arena is None:
            task = partial(_on_columns, fn=fn, shared=shared)
            return self._dispatch(task, shards, label)
        columns = [
            (typecode, column)
            for shard in shards
            for typecode, column in zip(typecodes, shard)
        ]
        columns.extend(zip(shared_typecodes, shared))
        width = len(typecodes)
        with arena.publish(columns) as segment:
            handles = segment.slices
            split = width * len(shards)
            task = partial(_on_handles, fn=fn, shared=tuple(handles[split:]))
            return self._dispatch(
                task,
                [
                    tuple(handles[at : at + width])
                    for at in range(0, split, width)
                ],
                label,
            )

    def _dispatch(
        self, fn: Callable[[P], R], partitions: Sequence[P], label: str
    ) -> list[R]:
        telemetry = current()
        if not telemetry.enabled:
            return self._map(fn, partitions)
        return self._map_instrumented(fn, partitions, telemetry, label)

    def _map_instrumented(
        self,
        fn: Callable[[P], R],
        partitions: Sequence[P],
        telemetry: Telemetry,
        label: str,
    ) -> list[R]:
        metrics = telemetry.metrics
        tracer = telemetry.tracer
        with tracer.span(
            f"dispatch:{label}",
            category="engine",
            args={"executor": self.name, "partitions": len(partitions)},
        ) as span:
            metrics.counter("engine.dispatches").inc()
            metrics.counter("engine.partition_tasks").inc(len(partitions))
            shipped = sum(
                _pickled_size(partition) for partition in partitions
            )
            metrics.counter("engine.bytes_shipped").inc(shipped)
            wrapped = partial(run_traced_partition, fn=fn, label=label)
            outputs = self._map(wrapped, partitions)
            results: list[R] = []
            returned = 0
            for result, snapshot, records in outputs:
                metrics.merge(snapshot)
                tracer.absorb(records, parent_id=span.span_id)
                returned += _pickled_size(result)
                results.append(result)
            metrics.counter("engine.bytes_returned").inc(returned)
            span.set(bytes_shipped=shipped, bytes_returned=returned)
        return results

    def close(self) -> None:
        """Release pooled workers (idempotent; a no-op for serial)."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"{type(self).__name__}(workers={self.workers})"


class SerialExecutor(Executor):
    """Runs every partition in the calling thread, one after another."""

    name = "serial"

    def __init__(self, workers: int | None = None) -> None:
        super().__init__(1)

    def _map(self, fn: Callable[[P], R], partitions: Sequence[P]) -> list[R]:
        return [fn(partition) for partition in partitions]


class _PooledExecutor(Executor):
    """Shared lazily-created-pool behaviour of thread/process executors."""

    def _make_pool(self):  # pragma: no cover - overridden
        raise NotImplementedError

    def __init__(self, workers: int | None = None) -> None:
        super().__init__(workers)
        self._pool = None

    def _map(self, fn: Callable[[P], R], partitions: Sequence[P]) -> list[R]:
        if len(partitions) <= 1 or self.workers == 1:
            return [fn(partition) for partition in partitions]
        if self._pool is None:
            self._pool = self._make_pool()
        return list(self._pool.map(fn, partitions))

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None


class ThreadExecutor(_PooledExecutor):
    """A thread pool; shares memory with the driver (no pickling)."""

    name = "thread"

    def _make_pool(self):
        return ThreadPoolExecutor(max_workers=self.workers)


def _worker_entry(fn: Callable[[P], R], partition: P) -> R:
    """Pool-side task wrapper: the ``engine.worker`` failpoint site.

    Runs in the worker process (it must stay module-level picklable).
    The failpoint is evaluated here — not on the driver's inline or
    degraded paths — so an armed ``crash`` spec kills pool workers,
    never the driver.
    """
    failpoint("engine.worker")
    return fn(partition)


#: Failed rounds a dispatch retries before it degrades to inline.
_MAX_RETRIES = 2
#: Retry backoff: base doubles per consecutive failure, capped.
_BACKOFF_BASE_SECONDS = 0.05
_BACKOFF_CAP_SECONDS = 1.0


class ProcessExecutor(_PooledExecutor):
    """A process pool; partition functions and data must be picklable.

    Owns a lazily created :class:`~repro.engine.shm.SharedArena`, so
    :meth:`map_columns` publishes a dispatch's columns into shared
    memory once and ships workers tiny
    :class:`~repro.engine.shm.SharedSlice` handles instead of pickled
    data (see :mod:`repro.engine.shm`).  ``close()`` unlinks any segment
    still live.

    Dispatches are fault-tolerant.  A crashed worker (``SIGKILL``, OOM
    kill — surfacing as :class:`BrokenProcessPool`) discards the broken
    pool, rebuilds it, and — after a capped exponential backoff —
    resubmits only the partitions that never finished.  After
    ``_MAX_RETRIES`` consecutive failed rounds the dispatch degrades to
    running the remaining partitions inline in the calling process
    (bit-identical by the executor parity contract).  Genuine worker exceptions (a bug
    in the partition function) propagate immediately and are never
    retried.  Shared-memory segments published for the dispatch stay
    alive across pool rebuilds — retried and degraded partitions
    re-attach to (or read in-process) the same segment, which
    ``map_columns`` unlinks when the dispatch ends, success or failure.

    Counters (ambient telemetry): ``engine.worker_retries`` (partition
    resubmissions), ``engine.pool_rebuilds``, and
    ``engine.degraded_dispatches`` — all surfaced in the daemon's
    ``/stats``.
    """

    name = "process"

    def __init__(self, workers: int | None = None) -> None:
        super().__init__(workers)
        self._arena = None

    def _discard_pool(self) -> None:
        """Drop a broken pool without waiting on its corpses."""
        pool, self._pool = self._pool, None
        if pool is not None:
            try:
                pool.shutdown(wait=False, cancel_futures=True)
            except Exception:  # pragma: no cover - shutdown races
                pass

    def _run_batch(
        self,
        task: Callable[[P], R],
        partitions: Sequence[P],
        pending: list[int],
    ) -> tuple[dict[int, R], list[int]]:
        """Submit ``pending`` partition indices once.

        Returns ``(completed, unfinished)`` where ``unfinished`` holds
        the indices lost to a pool crash, ascending.  A non-crash
        exception from a task propagates — that is a bug in the partition
        function, not a fault to retry.
        """
        if self._pool is None:
            self._pool = self._make_pool()
        try:
            futures = {
                self._pool.submit(task, partitions[index]): index
                for index in pending
            }
        except (BrokenProcessPool, RuntimeError):
            # The pool broke before (or while) accepting work; nothing
            # was completed this round.
            return {}, list(pending)
        completed: dict[int, R] = {}
        unfinished: list[int] = []
        for future, index in futures.items():
            try:
                completed[index] = future.result()
            except BrokenProcessPool:
                unfinished.append(index)
        return completed, unfinished

    def _map(self, fn: Callable[[P], R], partitions: Sequence[P]) -> list[R]:
        if len(partitions) <= 1 or self.workers == 1:
            return [fn(partition) for partition in partitions]
        task = partial(_worker_entry, fn)
        metrics = current().metrics
        results: dict[int, R] = {}
        pending = list(range(len(partitions)))
        failed_rounds = 0
        while pending:
            completed, unfinished = self._run_batch(
                task, partitions, pending
            )
            results.update(completed)
            if not unfinished:
                break
            failed_rounds += 1
            metrics.counter("engine.pool_rebuilds").inc()
            self._discard_pool()
            if failed_rounds > _MAX_RETRIES:
                # Last resort: the driver runs the stragglers itself.
                # Inline execution calls ``fn`` directly (no failpoint
                # wrapper) and is bit-identical by the parity contract.
                metrics.counter("engine.degraded_dispatches").inc()
                for index in unfinished:
                    results[index] = fn(partitions[index])
                break
            metrics.counter("engine.worker_retries").inc(len(unfinished))
            time.sleep(
                min(
                    _BACKOFF_BASE_SECONDS * 2 ** (failed_rounds - 1),
                    _BACKOFF_CAP_SECONDS,
                )
            )
            pending = unfinished
        return [results[index] for index in range(len(partitions))]

    def _make_pool(self):
        # Start the stdlib resource tracker before the pool forks:
        # workers then inherit the one tracker, so their shared-memory
        # attach registrations land in the same registry the driver's
        # unlink clears — a per-worker tracker would warn about (and
        # try to re-unlink) segments the driver already removed.
        ensure_resource_tracker()
        return ProcessPoolExecutor(max_workers=self.workers)

    @property
    def shared_arena(self):
        """The executor's shared-memory arena (``None`` if unavailable:
        the platform lacks POSIX shared memory, or ``REPRO_DISABLE_SHM=1``
        disables the layer)."""
        if not shm_available():
            return None
        if self._arena is None:
            self._arena = SharedArena()
        return self._arena

    def close(self) -> None:
        super().close()
        if self._arena is not None:
            self._arena.close()
            self._arena = None


def create_executor(name: str = "serial", workers: int | None = None) -> Executor:
    """Instantiate an executor by name (``serial``/``thread``/``process``).

    ``workers=None`` auto-detects the machine's CPU count (serial always
    uses exactly one worker).
    """
    if name == "serial":
        return SerialExecutor()
    if name == "thread":
        return ThreadExecutor(workers)
    if name == "process":
        return ProcessExecutor(workers)
    raise ValueError(f"unknown executor {name!r}; known: {EXECUTOR_NAMES}")
