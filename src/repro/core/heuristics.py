"""The four threshold-free matching heuristics H1-H4.

Each heuristic is a pure function over prepared evidence (block
collections, similarity indices, candidate lists) that emits or filters
matches.  The pipeline applies them in order; entities matched by an
earlier heuristic are not re-examined by later ones, and H4 finally prunes
non-reciprocal pairs:  ``M = (H1 ∨ H2 ∨ H3) ∧ H4``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from ..blocking.base import BlockCollection
from ..blocking.name_blocking import unique_match_blocks
from .candidates import CandidateIndex
from .rank_aggregation import top_aggregate_candidate
from .similarity import ValueSimilarityIndex


@dataclass(frozen=True)
class Match:
    """A matched pair with the heuristic that produced it and its score.

    ``score`` is heuristic-specific: valueSim for H2, the aggregate rank
    score for H3, and 1.0 for name matches (H1 is evidence of identity,
    not of degree).
    """

    uri1: str
    uri2: str
    heuristic: str
    score: float = 1.0

    def pair(self) -> tuple[str, str]:
        return (self.uri1, self.uri2)


class MatchedRegistry:
    """Tracks which entities of each KB are already matched."""

    def __init__(self) -> None:
        self.matched1: set[str] = set()
        self.matched2: set[str] = set()

    def mark(self, uri1: str, uri2: str) -> None:
        self.matched1.add(uri1)
        self.matched2.add(uri2)

    def is_free(self, uri1: str, uri2: str) -> bool:
        return uri1 not in self.matched1 and uri2 not in self.matched2


def h1_name_matches(
    name_blocks: BlockCollection, registry: MatchedRegistry
) -> list[Match]:
    """H1: two entities match if they, and only they, share a name.

    Every name block containing exactly one entity from each KB yields a
    match.  Blocks are processed in sorted key order so that an entity with
    several unique names resolves deterministically; an entity already
    matched (by an earlier block) is skipped.
    """
    matches: list[Match] = []
    for block in sorted(unique_match_blocks(name_blocks), key=lambda b: b.key):
        (uri1,) = block.entities1
        (uri2,) = block.entities2
        if registry.is_free(uri1, uri2):
            registry.mark(uri1, uri2)
            matches.append(Match(uri1, uri2, "H1"))
    return matches


def h2_value_matches(
    entity1_uris: Iterable[str],
    value_index: ValueSimilarityIndex,
    registry: MatchedRegistry,
) -> list[Match]:
    """H2: match an entity to its best co-occurring candidate if vmax >= 1.

    The iteration side should be the smaller KB, as in the paper; matched
    entities (either side) are skipped.  The threshold "1" is not a tuned
    parameter: one token unique in both KBs contributes exactly 1.0 to
    valueSim, so the rule reads "they share a token nobody else has, or
    several reasonably infrequent ones".  The walk reads the value rows
    as ranked when it starts (``best_candidate``); any ranking gives the
    same matches.
    """
    matches: list[Match] = []
    for uri1 in entity1_uris:
        if uri1 in registry.matched1:
            continue
        best = value_index.best_candidate(uri1, registry.matched2)
        if best is None:
            continue
        uri2, vmax = best
        if vmax >= 1.0:
            registry.mark(uri1, uri2)
            matches.append(Match(uri1, uri2, "H2", vmax))
    return matches


def h3_rank_aggregation_matches(
    entity1_uris: Iterable[str],
    candidate_index: CandidateIndex,
    theta: float,
    registry: MatchedRegistry,
) -> list[Match]:
    """H3: match each remaining entity to its top rank-aggregate candidate.

    Candidates already matched by H1/H2 are removed from both evidence
    lists before aggregation ("all candidates matched ... are not examined
    by the remaining heuristics").  An entity with no remaining candidate
    stays unmatched.
    """
    matches: list[Match] = []
    for uri1 in entity1_uris:
        if uri1 in registry.matched1:
            continue
        lists = candidate_index.of_entity1(uri1)
        value_ranked = [c for c in lists.value if c not in registry.matched2]
        neighbor_ranked = [
            c for c in lists.neighbor if c not in registry.matched2
        ]
        best = top_aggregate_candidate(value_ranked, neighbor_ranked, theta)
        if best is None:
            continue
        uri2, score = best
        registry.mark(uri1, uri2)
        matches.append(Match(uri1, uri2, "H3", score))
    return matches


def h4_reciprocity_filter(
    matches: Iterable[Match], candidate_index: CandidateIndex
) -> tuple[list[Match], list[Match]]:
    """H4: keep a pair only when both sides list each other as candidates.

    Returns (kept, discarded).  The test uses the *unfiltered* top-K value
    and neighbor candidate lists of both entities — reciprocity is about
    what each entity would ever consider, not about what happens to remain
    unmatched.  The lists are never built: per pair and index side, a
    rank count says whether the other entity is in the first ``K``.
    """
    matches = list(matches)
    reciprocal = candidate_index.reciprocal(
        [match.uri1 for match in matches], [match.uri2 for match in matches]
    )
    kept = [match for match, ok in zip(matches, reciprocal) if ok]
    discarded = [match for match, ok in zip(matches, reciprocal) if not ok]
    return kept, discarded
