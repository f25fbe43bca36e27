"""Counters, gauges and histograms with exact cross-process merging.

A :class:`MetricsRegistry` hands out named instruments on first use
(``registry.counter("blocking.blocks_built").inc(n)``) and can render
itself as a picklable :meth:`snapshot` that another registry
:meth:`merge`\\ s in — the mechanism engine workers use to ship their
locally accumulated metrics back to the driver.  Merging is exact:
counters add, histograms combine their count/total/min/max moments, and
gauges keep the last written value — so the merged totals of a run are
identical no matter how many workers (or processes) contributed.

Instrument names are dot-namespaced by subsystem (``blocking.*``,
``similarity.*``, ``matching.*``, ``session.*``, ``incremental.*``,
``snapshot.*``, ``engine.*``); ``docs/OBSERVABILITY.md`` lists every
name the pipeline emits.  Every counter but the worker-crash counters
is a pure function of the data and configuration, whatever the executor
and its worker count.

:data:`NULL_METRICS` is the disabled twin: every instrument accessor
returns a shared do-nothing instrument, so instrumented code pays one
attribute call and one no-op method call when telemetry is off.
"""

from __future__ import annotations

import math
from typing import Any, Iterable


class Counter:
    """A monotonically increasing sum (int or float)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: int | float = 0

    def inc(self, amount: int | float = 1) -> None:
        self.value += amount


class Gauge:
    """A point-in-time value; merging keeps the last one written."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: int | float | None = None

    def set(self, value: int | float) -> None:
        self.value = value


class Histogram:
    """Count/total/min/max moments of an observed distribution.

    Deliberately bucket-free: the moments merge exactly across workers
    (no bucket-boundary drift), which is what the cross-executor parity
    guarantee needs; percentile questions belong in the trace.
    """

    __slots__ = ("count", "total", "minimum", "maximum")

    def __init__(self) -> None:
        self.count = 0
        self.total: int | float = 0
        self.minimum = math.inf
        self.maximum = -math.inf

    def observe(self, value: int | float) -> None:
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


class _NullInstrument:
    """Accepts every instrument method and does nothing."""

    __slots__ = ()

    def inc(self, amount: int | float = 1) -> None:
        pass

    def set(self, value: int | float) -> None:
        pass

    def observe(self, value: int | float) -> None:
        pass


#: The shared do-nothing instrument disabled registries hand out.
NULL_INSTRUMENT = _NullInstrument()


class MetricsRegistry:
    """Named instruments plus exact snapshot/merge across processes."""

    enabled = True

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    # Instrument access (created on first use)
    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter()
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge()
        return instrument

    def histogram(self, name: str) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram()
        return instrument

    # ------------------------------------------------------------------
    # Cross-process transport
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, dict[str, Any]]:
        """A picklable plain-dict image of every instrument."""
        return {
            "counters": {
                name: counter.value
                for name, counter in self._counters.items()
            },
            "gauges": {
                name: gauge.value for name, gauge in self._gauges.items()
            },
            "histograms": {
                name: (hist.count, hist.total, hist.minimum, hist.maximum)
                for name, hist in self._histograms.items()
            },
        }

    def merge(self, snapshot: dict[str, dict[str, Any]] | None) -> None:
        """Fold one :meth:`snapshot` into this registry, exactly."""
        if not snapshot:
            return
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, value in snapshot.get("gauges", {}).items():
            if value is not None:
                self.gauge(name).set(value)
        for name, moments in snapshot.get("histograms", {}).items():
            count, total, minimum, maximum = moments
            hist = self.histogram(name)
            hist.count += count
            hist.total += total
            if minimum < hist.minimum:
                hist.minimum = minimum
            if maximum > hist.maximum:
                hist.maximum = maximum

    # ------------------------------------------------------------------
    # Read-side views
    # ------------------------------------------------------------------
    def counters(self) -> dict[str, int | float]:
        """counter name -> value, sorted by name."""
        return {
            name: self._counters[name].value
            for name in sorted(self._counters)
        }

    def as_dict(self) -> dict[str, Any]:
        """A JSON-ready rendering of every instrument (sorted names)."""
        return {
            "counters": self.counters(),
            "gauges": {
                name: self._gauges[name].value
                for name in sorted(self._gauges)
            },
            "histograms": {
                name: {
                    "count": hist.count,
                    "total": hist.total,
                    "min": None if hist.count == 0 else hist.minimum,
                    "max": None if hist.count == 0 else hist.maximum,
                    "mean": hist.mean,
                }
                for name, hist in sorted(self._histograms.items())
            },
        }

    def names(self) -> Iterable[str]:
        """Every instrument name currently registered."""
        return sorted(
            set(self._counters) | set(self._gauges) | set(self._histograms)
        )

    def __len__(self) -> int:
        return (
            len(self._counters) + len(self._gauges) + len(self._histograms)
        )

    def __repr__(self) -> str:
        return f"MetricsRegistry({len(self)} instruments)"


class NullMetrics:
    """The disabled registry: shared no-op instruments, empty views."""

    enabled = False

    def counter(self, name: str) -> _NullInstrument:
        return NULL_INSTRUMENT

    def gauge(self, name: str) -> _NullInstrument:
        return NULL_INSTRUMENT

    def histogram(self, name: str) -> _NullInstrument:
        return NULL_INSTRUMENT

    def snapshot(self) -> dict[str, dict[str, Any]]:
        return {}

    def merge(self, snapshot: dict[str, dict[str, Any]] | None) -> None:
        pass

    def counters(self) -> dict[str, int | float]:
        return {}

    def as_dict(self) -> dict[str, Any]:
        return {"counters": {}, "gauges": {}, "histograms": {}}

    def names(self) -> Iterable[str]:
        return ()

    def __len__(self) -> int:
        return 0

    def __repr__(self) -> str:
        return "NullMetrics()"


#: The shared disabled registry (safe: it holds no state).
NULL_METRICS = NullMetrics()
