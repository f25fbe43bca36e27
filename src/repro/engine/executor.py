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

Transport: :meth:`Executor.map_columns` registers a dispatch's kernel
and shared columns under a fresh token for the length of the dispatch,
and every task carries only that token and its own shard.  A task finds
the kernel and the shared columns by its token, in the calling process
and in a pool worker alike: the process executor starts one pool per dispatch
whose initializer installs them in each worker (inherited under
``fork``, pickled once per worker otherwise).
"""

from __future__ import annotations

import itertools
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

P = TypeVar("P")
R = TypeVar("R")

EXECUTOR_NAMES = ("serial", "thread", "process")


def auto_workers() -> int:
    """Worker count matching the CPUs this process may run on (at least 1)."""
    if hasattr(os, "sched_getaffinity"):
        return max(1, len(os.sched_getaffinity(0)))
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


#: The kernel and shared columns of every dispatch in flight, by token.
_DISPATCHES: dict[int, tuple[Callable, tuple]] = {}
_TOKENS = itertools.count()


def _install(token: int, fn: Callable, shared: tuple) -> None:
    """Make a dispatch's kernel and shared columns findable by token
    (the process pool's initializer, and the calling process's entry)."""
    _DISPATCHES[token] = (fn, shared)


def _on_columns(token: int, shard: tuple) -> Any:
    """One ``map_columns`` task: the dispatch's kernel over its shard
    and the shared columns."""
    fn, shared = _DISPATCHES[token]
    return fn(*shard, *shared)


class Executor(ABC):
    """Runs a function over column shards; results come in shard order."""

    name: str = "abstract"

    def __init__(self, workers: int | None = None) -> None:
        if workers is not None and workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers if workers is not None else auto_workers()

    @abstractmethod
    def _map(
        self, fn: Callable[[P], R], partitions: Sequence[P], token: int
    ) -> list[R]:
        """Apply ``fn`` to every partition, results in partition order;
        ``token`` names the dispatch's entry in :data:`_DISPATCHES`."""

    def map_columns(
        self,
        fn: Callable[..., R],
        shards: Sequence[Sequence[Any]],
        shared: Sequence[Any] = (),
    ) -> list[R]:
        """``fn(*shard columns, *shared columns)`` per shard, in order.

        Every shard is a tuple of flat columns (any buffer: ``array``,
        NumPy array, ``memoryview``); ``shared`` columns are read by
        every task, and reach each worker once, not once per task.
        ``fn`` must be picklable by reference (a module-level function
        or a ``partial`` of one) for the process executor.

        With ambient telemetry active, the dispatch is traced and every
        task's worker-local telemetry is merged back exactly (see the
        module docstring); otherwise this is ``_map`` directly.
        """
        token = next(_TOKENS)
        _install(token, fn, tuple(shared))
        task = partial(_on_columns, token)
        try:
            telemetry = current()
            if not telemetry.enabled:
                return self._map(task, shards, token)
            return self._map_instrumented(
                task, shards, token, telemetry, _fn_label(fn)
            )
        finally:
            del _DISPATCHES[token]

    def _map_instrumented(
        self,
        fn: Callable[[P], R],
        partitions: Sequence[P],
        token: int,
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
            outputs = self._map(wrapped, partitions, token)
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
        """Release pooled workers (idempotent; only the thread executor
        keeps a pool between dispatches)."""

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

    def _map(
        self, fn: Callable[[P], R], partitions: Sequence[P], token: int
    ) -> list[R]:
        return [fn(partition) for partition in partitions]


class ThreadExecutor(Executor):
    """A lazily created thread pool; shares memory with the calling
    process (no pickling)."""

    name = "thread"

    def __init__(self, workers: int | None = None) -> None:
        super().__init__(workers)
        self._pool = None

    def _map(
        self, fn: Callable[[P], R], partitions: Sequence[P], token: int
    ) -> list[R]:
        if len(partitions) <= 1 or self.workers == 1:
            return [fn(partition) for partition in partitions]
        if self._pool is None:
            self._pool = ThreadPoolExecutor(max_workers=self.workers)
        return list(self._pool.map(fn, partitions))

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None


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


def _run_batch(
    pool: ProcessPoolExecutor,
    task: Callable[[P], R],
    partitions: Sequence[P],
    pending: list[int],
) -> tuple[dict[int, R], list[int]]:
    """Submit ``pending`` partition indices once.

    Returns ``(completed, unfinished)`` where ``unfinished`` holds the
    indices lost to a pool crash, ascending.  A non-crash exception from
    a task propagates — that is a bug in the partition function, not a
    fault to retry.
    """
    try:
        futures = {
            pool.submit(task, partitions[index]): index for index in pending
        }
    except (BrokenProcessPool, RuntimeError):
        # The pool broke before (or while) accepting work; nothing was
        # completed this round.
        return {}, list(pending)
    completed: dict[int, R] = {}
    unfinished: list[int] = []
    for future, index in futures.items():
        try:
            completed[index] = future.result()
        except BrokenProcessPool:
            unfinished.append(index)
    return completed, unfinished


class ProcessExecutor(Executor):
    """A process pool per dispatch; kernels and columns must be picklable.

    Every dispatch that has more than one task starts its own pool,
    whose initializer installs the dispatch's kernel and shared columns
    in each worker once; a task ships only its token and its shard.  The
    pool is shut down, its workers joined, when the dispatch ends.

    Dispatches are fault-tolerant.  A crashed worker (``SIGKILL``, OOM
    kill — surfacing as :class:`BrokenProcessPool`) ends the round: the
    broken pool is shut down and — after a capped exponential backoff —
    a new one runs only the partitions that never finished.  After
    ``_MAX_RETRIES`` consecutive failed rounds the dispatch degrades to
    running the remaining partitions inline in the calling process
    (bit-identical by the executor parity contract), where the token
    finds the same kernel and columns.  Genuine worker exceptions (a bug
    in the partition function) propagate immediately and are never
    retried.

    Counters (ambient telemetry): ``engine.worker_retries`` (partition
    resubmissions), ``engine.pool_rebuilds``, and
    ``engine.degraded_dispatches`` — all surfaced in the daemon's
    ``/stats``.
    """

    name = "process"

    def _map(
        self, fn: Callable[[P], R], partitions: Sequence[P], token: int
    ) -> list[R]:
        if len(partitions) <= 1 or self.workers == 1:
            return [fn(partition) for partition in partitions]
        task = partial(_worker_entry, fn)
        metrics = current().metrics
        results: dict[int, R] = {}
        pending = list(range(len(partitions)))
        failed_rounds = 0
        while pending:
            pool = ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=_install,
                initargs=(token, *_DISPATCHES[token]),
            )
            try:
                completed, unfinished = _run_batch(
                    pool, task, partitions, pending
                )
            finally:
                pool.shutdown(cancel_futures=True)
            results.update(completed)
            if not unfinished:
                break
            failed_rounds += 1
            metrics.counter("engine.pool_rebuilds").inc()
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


def create_executor(name: str = "serial", workers: int | None = None) -> Executor:
    """Instantiate an executor by name (``serial``/``thread``/``process``).

    ``workers=None`` auto-detects the CPUs this process may run on
    (serial always uses exactly one worker).
    """
    if name == "serial":
        return SerialExecutor()
    if name == "thread":
        return ThreadExecutor(workers)
    if name == "process":
        return ProcessExecutor(workers)
    raise ValueError(f"unknown executor {name!r}; known: {EXECUTOR_NAMES}")
