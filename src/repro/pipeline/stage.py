"""The stage protocol and the validated stage graph.

A :class:`Stage` is one pluggable unit of the pipeline: it declares the
artifact keys it consumes (``requires``) and produces (``provides``), the
configuration fields its output depends on (``config_fields`` — the
memoization contract :class:`~repro.pipeline.session.MatchSession` keys
its cache by), and a ``run(ctx, engine)`` that reads and writes the
:class:`~repro.pipeline.context.PipelineContext` through the execution
engine.

A :class:`StageGraph` is an ordered, validated collection of stages:
construction topologically sorts them by their artifact dependencies
(stable with respect to the given order) and rejects duplicate producers
and unsatisfiable requirements.  It runs nothing itself: every run of a
graph is a :meth:`~repro.pipeline.session.MatchSession.run_context`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Iterator, Sequence

from .context import INPUT_PRODUCER, PipelineContext

if TYPE_CHECKING:  # pragma: no cover - types only
    from ..engine.executor import Executor

#: Artifacts every context carries before any stage runs.
SEED_KEYS = ("kb1", "kb2")


class Stage(ABC):
    """One pluggable pipeline unit (see the module docstring)."""

    #: Unique stage name; also the key of its timing entry.
    name: str = "abstract"
    #: Timing group for coarse reports (defaults to the stage name).
    group: str = ""
    #: Artifact keys this stage reads (beyond the seeded kb1/kb2).
    requires: tuple[str, ...] = ()
    #: Artifact keys this stage publishes.
    provides: tuple[str, ...] = ()
    #: Config fields the output depends on (the memoization contract).
    config_fields: tuple[str, ...] = ()

    @abstractmethod
    def run(self, ctx: PipelineContext, engine: "Executor") -> None:
        """Compute this stage's artifacts and ``ctx.put`` them."""

    @property
    def timing_group(self) -> str:
        return self.group or self.name

    def describe(self) -> dict[str, object]:
        """One row of ``--list-stages`` style introspection."""
        return {
            "stage": self.name,
            "group": self.timing_group,
            "requires": ", ".join(self.requires) or "-",
            "provides": ", ".join(self.provides),
            "config": ", ".join(self.config_fields) or "-",
        }

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


class StageGraphError(ValueError):
    """The stage set does not form a runnable graph."""


class StageGraph:
    """An ordered, dependency-validated sequence of stages.

    Stages may be passed in any order; construction performs a stable
    topological sort (a stage runs after every producer of its required
    artifacts, ties broken by the given order) and raises
    :class:`StageGraphError` on duplicate names, duplicate producers, or
    requirements nothing produces.
    """

    def __init__(self, stages: Sequence[Stage]) -> None:
        self._stages = self._ordered(list(stages))

    @staticmethod
    def _ordered(stages: list[Stage]) -> tuple[Stage, ...]:
        names = [stage.name for stage in stages]
        if len(set(names)) != len(names):
            duplicate = next(n for n in names if names.count(n) > 1)
            raise StageGraphError(f"duplicate stage name {duplicate!r}")
        producers: dict[str, Stage] = {}
        for stage in stages:
            for key in stage.provides:
                if key in producers:
                    raise StageGraphError(
                        f"artifact {key!r} provided by both "
                        f"{producers[key].name!r} and {stage.name!r}"
                    )
                producers[key] = stage

        available = set(SEED_KEYS)
        remaining = list(stages)
        ordered: list[Stage] = []
        while remaining:
            placed = None
            for stage in remaining:
                if all(key in available for key in stage.requires):
                    placed = stage
                    break
            if placed is None:
                missing = {
                    f"{stage.name} requires {key!r}"
                    for stage in remaining
                    for key in stage.requires
                    if key not in available and key not in producers
                }
                if missing:
                    raise StageGraphError(
                        "unsatisfiable requirements: " + "; ".join(sorted(missing))
                    )
                raise StageGraphError(
                    "dependency cycle among stages: "
                    + ", ".join(stage.name for stage in remaining)
                )
            remaining.remove(placed)
            ordered.append(placed)
            available.update(placed.provides)
        return tuple(ordered)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def names(self) -> list[str]:
        return [stage.name for stage in self._stages]

    def stage(self, name: str) -> Stage:
        for stage in self._stages:
            if stage.name == name:
                return stage
        raise KeyError(name)

    def describe(self) -> list[dict[str, object]]:
        """Introspection rows, one per stage in execution order."""
        return [stage.describe() for stage in self._stages]

    def __iter__(self) -> Iterator[Stage]:
        return iter(self._stages)

    def __len__(self) -> int:
        return len(self._stages)


def render_stage_list(graph: StageGraph) -> str:
    """A human-readable stage table (the CLI's ``--list-stages``)."""
    from ..evaluation.report import render_records

    return render_records(graph.describe(), title="Pipeline stages")


__all__ = [
    "SEED_KEYS",
    "Stage",
    "StageGraph",
    "StageGraphError",
    "render_stage_list",
    "INPUT_PRODUCER",
]
