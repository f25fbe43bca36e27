"""Incremental matching: entity deltas with batch-parity guarantees.

The entry point is :class:`IncrementalMatcher`, which wraps a
:class:`~repro.pipeline.session.MatchSession` and keeps its blocking,
similarity and candidate evidence consistent under ``add_entities`` /
``remove_entities`` — with ``match()`` output bit-identical to a cold
batch run on the final KB state (see :mod:`.matcher` for what a delta
maintains and what it rebuilds through the batch kernels).
"""

from .blocks import DeltaBlockIndex
from .matcher import REQUIRED_STAGES, IncrementalMatcher

__all__ = ["DeltaBlockIndex", "IncrementalMatcher", "REQUIRED_STAGES"]
