"""repro: a from-scratch reproduction of MinoanER (ICDE 2018).

Schema-agnostic, non-iterative entity resolution on Web data: name/token
blocking with Block Purging, statistics-driven name and relation
discovery, block-derived value and neighbor similarities, and four
threshold-free heuristics (H1 names, H2 values, H3 rank aggregation,
H4 reciprocity).

Quickstart::

    from repro import KnowledgeBase, EntityDescription, MinoanER

    kb1, kb2 = KnowledgeBase("A"), KnowledgeBase("B")
    ...  # add EntityDescriptions
    result = MinoanER().match(kb1, kb2)
    print(result.pairs())
"""

from .core.config import PAPER_DEFAULTS, MinoanERConfig
from .core.pipeline import MatchResult, MinoanER
from .engine import (
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    auto_workers,
    create_executor,
)
from .pipeline import (
    BLOCKING_SCHEMES,
    HEURISTICS,
    Heuristic,
    MatchSession,
    PipelineBuilder,
    PipelineContext,
    Stage,
    StageGraph,
)
from .store import Snapshot, SnapshotError, load_session, verify_snapshot
from .datasets.generator import GeneratedDataset
from .datasets.ground_truth import GroundTruth
from .datasets.profiles import PROFILE_ORDER, generate_benchmark
from .evaluation.metrics import MatchingQuality, evaluate_matching
from .kb.entity import EntityDescription, Literal, UriRef
from .kb.knowledge_base import KnowledgeBase
from .kb.tokenizer import Tokenizer

__version__ = "1.0.0"

__all__ = [
    "BLOCKING_SCHEMES",
    "EntityDescription",
    "GeneratedDataset",
    "GroundTruth",
    "HEURISTICS",
    "Heuristic",
    "KnowledgeBase",
    "Literal",
    "MatchResult",
    "MatchSession",
    "MatchingQuality",
    "MinoanER",
    "MinoanERConfig",
    "PAPER_DEFAULTS",
    "PROFILE_ORDER",
    "PipelineBuilder",
    "PipelineContext",
    "ProcessExecutor",
    "SerialExecutor",
    "Snapshot",
    "SnapshotError",
    "Stage",
    "StageGraph",
    "ThreadExecutor",
    "Tokenizer",
    "UriRef",
    "auto_workers",
    "create_executor",
    "evaluate_matching",
    "generate_benchmark",
    "load_session",
    "verify_snapshot",
    "__version__",
]
