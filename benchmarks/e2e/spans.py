"""The benchmark's own span recorder (traced runs only).

Spans are recorded from the harness, around each call into a layer of
the program; nothing under ``src/`` is instrumented.  A span keeps
``{name, start_ns, end_ns, parent, request_id}``; spans of one request
share ``request_id``.  Everything stays in memory until :meth:`dump`.

A span's *self time* is its duration minus the part of its interval
that its direct children cover (children on other threads may overlap
each other, so coverage is the union of their intervals, clipped to the
parent).
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator


class SpanRecorder:
    """In-memory span store; a disabled recorder records nothing."""

    def __init__(
        self,
        enabled: bool = True,
        clock: Callable[[], int] = time.perf_counter_ns,
    ) -> None:
        self.enabled = enabled
        self._clock = clock
        self._lock = threading.Lock()
        self._stack = threading.local()
        self.records: list[dict] = []

    @contextmanager
    def span(
        self, name: str, request_id: str | None = None
    ) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        stack = self._stack.__dict__.setdefault("ids", [])
        record = {
            "name": name,
            "start_ns": self._clock(),
            "end_ns": None,
            "parent": stack[-1] if stack else None,
            "request_id": request_id,
        }
        with self._lock:
            record["id"] = len(self.records)
            self.records.append(record)
        stack.append(record["id"])
        try:
            yield
        finally:
            stack.pop()
            record["end_ns"] = self._clock()

    def adopt(self, parent_id: int | None) -> None:
        """Make ``parent_id`` the parent of spans this thread opens next.

        A worker thread starts with an empty stack; the thread that
        spawned it passes :meth:`current` so its spans nest under the
        phase that caused them.
        """
        self._stack.__dict__["ids"] = [] if parent_id is None else [parent_id]

    def current(self) -> int | None:
        stack = self._stack.__dict__.get("ids")
        return stack[-1] if stack else None

    def self_ns(self) -> dict[int, int]:
        """Self time of every finished span, by span id."""
        children: dict[int, list[tuple[int, int]]] = {}
        for record in self.records:
            if record["parent"] is not None and record["end_ns"] is not None:
                children.setdefault(record["parent"], []).append(
                    (record["start_ns"], record["end_ns"])
                )
        out: dict[int, int] = {}
        for record in self.records:
            if record["end_ns"] is None:
                continue
            start, end = record["start_ns"], record["end_ns"]
            covered, reach = 0, start
            for child_start, child_end in sorted(children.get(record["id"], ())):
                child_start = max(child_start, reach)
                child_end = min(child_end, end)
                if child_end > child_start:
                    covered += child_end - child_start
                    reach = child_end
            out[record["id"]] = (end - start) - covered
        return out

    def self_seconds_by_name(self) -> dict[str, float]:
        """Total self time per span name, in seconds."""
        self_ns = self.self_ns()
        totals: dict[str, float] = {}
        for record in self.records:
            if record["id"] in self_ns:
                totals[record["name"]] = (
                    totals.get(record["name"], 0.0) + self_ns[record["id"]] / 1e9
                )
        return totals

    def dump(self, path: Path) -> None:
        """Write every span, with its self time, as one JSON document."""
        self_ns = self.self_ns()
        spans = [
            {**record, "self_ns": self_ns.get(record["id"])}
            for record in self.records
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps({"schema": "repro-e2e-spans/1", "spans": spans}),
            encoding="utf-8",
        )
