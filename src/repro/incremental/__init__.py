"""Incremental matching: entity deltas with batch-parity guarantees.

The entry point is :class:`IncrementalMatcher`: a
:class:`~repro.pipeline.session.MatchSession` whose blocking artifacts
are maintained under ``add_entities`` / ``remove_entities`` while the
session's own stage graph rebuilds everything downstream — with
``match()`` output bit-identical to a cold batch run on the final KB
state (see :mod:`.matcher` for what a delta maintains and what the
graph rebuilds).
"""

from .matcher import REQUIRED_STAGES, IncrementalMatcher

__all__ = ["IncrementalMatcher", "REQUIRED_STAGES"]
