"""The composable stage-graph API of the MinoanER pipeline.

MinoanER is a composition of independent map/reduce stages; this package
makes that composition a first-class, pluggable object:

- :class:`Stage` / :class:`StageGraph` — units with declared artifact
  inputs/outputs over a typed :class:`PipelineContext` artifact store
  (provenance + per-stage timing included);
- :data:`BLOCKING_SCHEMES` / :data:`HEURISTICS` — named registries the
  built-ins (``name``/``token`` blocking, ``h1``-``h4``) register
  themselves into and user code extends;
- :class:`PipelineBuilder` — fluent composition
  (``MinoanER.builder().with_config(heuristics=("h1", "h5")).build()``;
  the config's ``heuristics`` field is the one heuristic switch);
- :class:`MatchSession` — repeated matching of one KB pair with
  config-keyed artifact memoization (ablations and grid searches only
  re-run the stages whose declared config fields changed).
"""

from .builder import PipelineBuilder
from .context import Artifact, MissingArtifactError, PipelineContext
from .digest import artifact_digest, context_digests
from .registry import BLOCKING_SCHEMES, HEURISTICS, Registry, RegistryError
from .session import MatchSession, StaleSessionError
from .stage import Stage, StageGraph, StageGraphError, render_stage_list
from .stages import (
    H1NameHeuristic,
    H2ValueHeuristic,
    H3RankAggregationHeuristic,
    H4ReciprocityHeuristic,
    Heuristic,
    MatchingStage,
    NameBlockingStage,
    NeighborIndexStage,
    TokenBlockingStage,
    ValueIndexStage,
)

__all__ = [
    "Artifact",
    "BLOCKING_SCHEMES",
    "StaleSessionError",
    "artifact_digest",
    "context_digests",
    "H1NameHeuristic",
    "H2ValueHeuristic",
    "H3RankAggregationHeuristic",
    "H4ReciprocityHeuristic",
    "HEURISTICS",
    "Heuristic",
    "MatchSession",
    "MatchingStage",
    "MissingArtifactError",
    "NameBlockingStage",
    "NeighborIndexStage",
    "PipelineBuilder",
    "PipelineContext",
    "Registry",
    "RegistryError",
    "Stage",
    "StageGraph",
    "StageGraphError",
    "TokenBlockingStage",
    "ValueIndexStage",
    "render_stage_list",
]
