"""Fluent construction of customized pipelines.

The builder composes a :class:`~repro.pipeline.stage.StageGraph` from
registered blocking schemes, index stages, the matching stage, and any
extra user stages.  Which heuristics the matching stage runs, and in
what order, is the config's ``heuristics`` field — registered names
only::

    matcher = (
        MinoanER.builder()
        .with_config(theta=0.5, heuristics=("h1", "h2", "h5", "h4"))
        .with_blocking("name", "token")
        .build()
    )
    result = matcher.match(kb1, kb2)

``build()`` returns a normal :class:`~repro.core.pipeline.MinoanER`
whose ``match()`` runs the composed graph; ``session(kb1, kb2)`` returns
a :class:`~repro.pipeline.session.MatchSession` over the same graph for
artifact-reusing repeated runs.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING

from .registry import BLOCKING_SCHEMES
from .stage import Stage, StageGraph
from .stages import MatchingStage, NeighborIndexStage, ValueIndexStage

if TYPE_CHECKING:  # pragma: no cover - types only
    from ..core.config import MinoanERConfig
    from ..core.pipeline import MinoanER
    from .session import MatchSession


class PipelineBuilder:
    """Accumulates pipeline customizations, then builds graph/matcher."""

    def __init__(self, config: "MinoanERConfig | None" = None) -> None:
        if config is None:
            from ..core.config import MinoanERConfig

            config = MinoanERConfig()
        self._config = config
        self._blocking: tuple[Stage | str, ...] = ("name", "token")
        self._extra_stages: list[Stage] = []
        self._removed: set[str] = set()

    @property
    def config(self) -> "MinoanERConfig":
        return self._config

    # ------------------------------------------------------------------
    # Fluent configuration
    # ------------------------------------------------------------------
    def with_config(self, **overrides) -> "PipelineBuilder":
        """Replace config fields (validated by MinoanERConfig)."""
        self._config = replace(self._config, **overrides)
        return self

    def with_blocking(self, *schemes: Stage | str) -> "PipelineBuilder":
        """The blocking stages to run: registered names or Stage instances."""
        if not schemes:
            raise ValueError("with_blocking needs at least one scheme")
        self._blocking = schemes
        return self

    def with_stage(self, stage: Stage) -> "PipelineBuilder":
        """Add a custom stage; it is ordered by its declared requires."""
        self._extra_stages.append(stage)
        return self

    def without_stage(self, name: str) -> "PipelineBuilder":
        """Drop a stage by name (validation re-checks the remaining graph)."""
        self._removed.add(name)
        return self

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def build_graph(self) -> StageGraph:
        stages: list[Stage] = []
        for scheme in self._blocking:
            stages.append(
                BLOCKING_SCHEMES.create(scheme)
                if isinstance(scheme, str)
                else scheme
            )
        stages.extend((ValueIndexStage(), NeighborIndexStage()))
        stages.append(MatchingStage(self._config))
        stages.extend(self._extra_stages)
        kept = [stage for stage in stages if stage.name not in self._removed]
        return StageGraph(kept)

    def build(self) -> "MinoanER":
        from ..core.pipeline import MinoanER

        return MinoanER(self._config, graph=self.build_graph())

    def session(self, kb1, kb2) -> "MatchSession":
        from .session import MatchSession

        return MatchSession(kb1, kb2, self._config, graph=self.build_graph())
