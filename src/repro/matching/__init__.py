"""Baseline matchers the paper compares against, plus shared clustering.

BSL is the paper's own value-only baseline (same blocks as MinoanER, grid-
searched representation and threshold).  SiGMa, PARIS, RiMOM-IM and LINDA
are simplified reimplementations of the published systems' decision rules;
each module's docstring says what it preserves and what it simplifies.
"""

from .bsl import (
    DEFAULT_THRESHOLDS,
    NGRAM_SIZES,
    SIMILARITIES,
    WEIGHTINGS,
    BslBaseline,
    BslConfiguration,
    BslResult,
)
from .clustering import sweep_thresholds, unique_mapping_clustering
from .linda import LindaMatcher, LindaResult
from .paris import ParisMatcher, ParisResult
from .rimom import RimomMatcher, RimomResult
from .sigma import SigmaMatcher, SigmaResult

__all__ = [
    "BslBaseline",
    "BslConfiguration",
    "BslResult",
    "DEFAULT_THRESHOLDS",
    "LindaMatcher",
    "LindaResult",
    "NGRAM_SIZES",
    "ParisMatcher",
    "ParisResult",
    "RimomMatcher",
    "RimomResult",
    "SIMILARITIES",
    "SigmaMatcher",
    "SigmaResult",
    "WEIGHTINGS",
    "sweep_thresholds",
    "unique_mapping_clustering",
]
