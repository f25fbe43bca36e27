"""The typed artifact store stages read from and write to.

A :class:`PipelineContext` is the blackboard of one pipeline run: every
stage consumes artifacts by key (``"token_blocks"``, ``"value_index"``,
...) and publishes its own, with provenance (which stage produced what,
and whether it was restored from a session cache) and per-stage timing
recorded alongside.  The two input KBs and the configuration are seeded
as artifacts under ``kb1``/``kb2`` so stage declarations can name them
like any other dependency.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from ..core.config import MinoanERConfig
    from ..kb.knowledge_base import KnowledgeBase

#: Provenance label of the seeded inputs (kb1, kb2).
INPUT_PRODUCER = "input"


@dataclass(frozen=True)
class Artifact:
    """One stored artifact with its provenance."""

    key: str
    value: Any
    producer: str
    #: True when the value was restored from a session cache instead of
    #: being recomputed by ``producer`` during this run.
    cached: bool = False


class MissingArtifactError(KeyError):
    """A stage asked for an artifact no prior stage produced."""

    def __init__(self, key: str, available: list[str]) -> None:
        super().__init__(key)
        self.key = key
        self.available = available

    def __str__(self) -> str:
        return (
            f"no artifact {self.key!r} in the pipeline context; "
            f"available: {', '.join(self.available) or '(none)'}"
        )


@dataclass
class PipelineContext:
    """Artifact store + run bookkeeping of one pipeline execution."""

    kb1: "KnowledgeBase"
    kb2: "KnowledgeBase"
    config: "MinoanERConfig"
    #: Wall-clock per executed stage, in execution order.
    stage_seconds: dict[str, float] = field(default_factory=dict)
    #: Timing group per executed stage (blocking/indexing/heuristics/...).
    stage_groups: dict[str, str] = field(default_factory=dict)
    #: How often each stage actually ran (0 for cache restores).
    stage_runs: dict[str, int] = field(default_factory=dict)
    _artifacts: dict[str, Artifact] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.put("kb1", self.kb1, producer=INPUT_PRODUCER)
        self.put("kb2", self.kb2, producer=INPUT_PRODUCER)

    # ------------------------------------------------------------------
    # Artifact access
    # ------------------------------------------------------------------
    def put(
        self, key: str, value: Any, producer: str, cached: bool = False
    ) -> None:
        """Publish an artifact (later stages overwrite earlier ones)."""
        self._artifacts[key] = Artifact(key, value, producer, cached)

    def get(self, key: str) -> Any:
        """The artifact value, or :class:`MissingArtifactError`."""
        artifact = self._artifacts.get(key)
        if artifact is None:
            raise MissingArtifactError(key, self.keys())
        return artifact.value

    def get_or(self, key: str, default: Any = None) -> Any:
        """The artifact value, or ``default`` when absent."""
        artifact = self._artifacts.get(key)
        return default if artifact is None else artifact.value

    def has(self, key: str) -> bool:
        return key in self._artifacts

    def provenance(self, key: str) -> Artifact:
        """The full artifact record (value + producer + cached flag)."""
        artifact = self._artifacts.get(key)
        if artifact is None:
            raise MissingArtifactError(key, self.keys())
        return artifact

    def keys(self) -> list[str]:
        """All artifact keys, in publication order."""
        return list(self._artifacts)

    def __iter__(self) -> Iterator[Artifact]:
        return iter(self._artifacts.values())

    # ------------------------------------------------------------------
    # Run bookkeeping (written by MatchSession.run_context)
    # ------------------------------------------------------------------
    def record_stage(
        self, name: str, group: str, seconds: float, ran: bool
    ) -> None:
        """Account one stage execution (or cache restore)."""
        self.stage_seconds[name] = self.stage_seconds.get(name, 0.0) + seconds
        self.stage_groups[name] = group
        self.stage_runs[name] = self.stage_runs.get(name, 0) + (1 if ran else 0)
