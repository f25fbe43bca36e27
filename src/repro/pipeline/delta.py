"""Artifact overlays for delta runs: snapshot, patch, roll back.

A :class:`DeltaContext` layers writable artifact storage over a finished
base :class:`~repro.pipeline.context.PipelineContext`.  Reads fall
through to the base; writes land in the overlay only, with provenance
recording which delta pass produced them (``delta:<stage>`` by
convention).  :meth:`~DeltaContext.snapshot` marks a point in the
overlay's history and :meth:`~DeltaContext.rollback` restores it, so a
session can try a delta, inspect the patched artifacts, and discard them
without ever touching the batch run's results.

The overlay stores *artifact references*: rolling back forgets which
values were overlaid, it does not deep-restore objects a stage mutated
in place.  The incremental subsystem therefore always overlays freshly
materialized artifacts (new block collections, rebuilt index objects)
rather than mutating base artifacts.
"""

from __future__ import annotations

from typing import Any

from .context import Artifact, PipelineContext


class DeltaContext(PipelineContext):
    """A pipeline context whose writes overlay a completed base context."""

    def __init__(self, base: PipelineContext) -> None:
        self._base = base
        # A linear undo log: (key, previous overlay artifact or None).
        self._journal: list[tuple[str, Artifact | None]] = []
        super().__init__(base.kb1, base.kb2, base.config)
        # __post_init__ seeded kb1/kb2 into the overlay; the base already
        # carries them, so the overlay starts clean and journal-free.
        self._artifacts.clear()
        self._journal.clear()

    # ------------------------------------------------------------------
    # Overlay reads/writes
    # ------------------------------------------------------------------
    def put(
        self, key: str, value: Any, producer: str, cached: bool = False
    ) -> None:
        self._journal.append((key, self._artifacts.get(key)))
        super().put(key, value, producer, cached)

    def _lookup(self, key: str) -> Artifact | None:
        artifact = self._artifacts.get(key)
        if artifact is not None:
            return artifact
        return self._base._artifacts.get(key)

    def get(self, key: str) -> Any:
        artifact = self._lookup(key)
        if artifact is None:
            return super().get(key)  # raises with the merged key list
        return artifact.value

    def get_or(self, key: str, default: Any = None) -> Any:
        artifact = self._lookup(key)
        return default if artifact is None else artifact.value

    def has(self, key: str) -> bool:
        return key in self._artifacts or key in self._base._artifacts

    def provenance(self, key: str) -> Artifact:
        artifact = self._lookup(key)
        if artifact is None:
            return super().provenance(key)  # raises with the merged list
        return artifact

    def keys(self) -> list[str]:
        merged = list(self._base._artifacts)
        merged.extend(k for k in self._artifacts if k not in self._base._artifacts)
        return merged

    def overlay_keys(self) -> list[str]:
        """Keys written since the base run (publication order)."""
        return list(self._artifacts)

    def __iter__(self):
        for key in self.keys():
            yield self._lookup(key)

    # ------------------------------------------------------------------
    # Snapshot / rollback
    # ------------------------------------------------------------------
    def snapshot(self) -> int:
        """An opaque marker for the current overlay state."""
        return len(self._journal)

    def rollback(self, marker: int) -> int:
        """Undo every overlay write made after ``marker``.

        Returns the number of writes undone.  Rolling back to marker 0
        restores the pristine base view.
        """
        if not 0 <= marker <= len(self._journal):
            raise ValueError(f"unknown snapshot marker: {marker!r}")
        undone = 0
        while len(self._journal) > marker:
            key, previous = self._journal.pop()
            if previous is None:
                self._artifacts.pop(key, None)
            else:
                self._artifacts[key] = previous
            undone += 1
        return undone
