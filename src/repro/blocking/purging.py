"""Block Purging: discard oversized blocks (stop-word keys).

Following the meta-blocking line of work [6], purging bounds the number of
comparisons by removing blocks whose keys are too frequent to carry
matching evidence (e.g. stop-words).  The criterion implemented here is a
*suffix-gain* rule over the distinct block cardinalities:

Scan cardinality levels from the largest downwards.  A level is purged
while its cost — comparisons contributed per entity-block assignment —
is at least :data:`DEFAULT_GAIN_FACTOR` times the average cost of all
smaller blocks.  Stop-word blocks contribute quadratic comparisons for
linear assignments, so their cost is orders of magnitude above the body
of the distribution; content blocks are not.  The scan stops at the
first level that fails the test, so purging removes exactly the
oversized tail.

This keeps the published behaviour the paper relies on (comparisons drop
by orders of magnitude with no significant recall impact) with one
interpretable constant where the reference implementation has a
smoothing constant: a deviation in mechanism, not in outcome, which
``benchmarks/test_table2_blocks.py`` and
``benchmarks/test_ablation_purging.py`` measure.  The threshold is
always automatic; no caller tunes it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .base import BlockCollection

#: Cost multiple above which a cardinality level is purged.  The
#: multiple is deliberately generous: stop-word blocks cost orders of
#: magnitude more comparisons per assignment than content blocks, while
#: merely popular keys (large namesake families) sit within a factor of
#: ten of the body and must survive.
DEFAULT_GAIN_FACTOR = 8.0


@dataclass(frozen=True)
class PurgingReport:
    """What purging did: threshold picked and before/after counters."""

    max_cardinality: int
    blocks_before: int
    blocks_after: int
    comparisons_before: int
    comparisons_after: int

    @property
    def purged_blocks(self) -> int:
        return self.blocks_before - self.blocks_after

    @property
    def comparison_reduction(self) -> float:
        """Fraction of comparisons removed (0 when nothing to purge)."""
        if self.comparisons_before == 0:
            return 0.0
        removed = self.comparisons_before - self.comparisons_after
        return removed / self.comparisons_before


#: A valid cut may remove at most this share of entity-block assignments.
#: Stop-word keys are few but near-universal, so in token-poor KBs they
#: can reach half of all assignments; the bound only exists to rule out
#: degenerate cuts that would purge the body of the distribution.
MAX_PURGED_ASSIGNMENTS = 0.5


def cardinality_threshold(blocks: BlockCollection) -> int:
    """The maximum allowed block cardinality under the suffix-gain rule.

    Candidate cuts are cardinality boundaries; a cut's quality is the
    ratio between the *suffix* cost (comparisons-per-assignment of all
    blocks above the cut) and the *prefix* cost (the same quantity for
    blocks at or below it).  Judging the oversized tail as a whole keeps
    the decision stable when several near-equal stop-word blocks top the
    distribution.  Because the ratio decreases monotonically in the cut
    point, the rule picks the **highest** cut still reaching
    :data:`DEFAULT_GAIN_FACTOR` — the most conservative purge that
    removes a tail costing that many times more per assignment than
    everything it keeps.  No qualifying cut means nothing is stop-word-like.

    Returns the largest distinct cardinality that should be kept; blocks
    strictly larger are stop-word-like.  With fewer than two levels there
    is nothing to purge.
    """
    return cardinality_threshold_from_sizes(
        (len(b.entities1), len(b.entities2)) for b in blocks
    )


def cardinality_threshold_from_sizes(
    side_sizes: "Iterable[tuple[int, int]]",
) -> int:
    """:func:`cardinality_threshold` over bare ``(|b1|, |b2|)`` size pairs.

    A placement table holds per-key side sizes without materializing
    :class:`~repro.blocking.base.Block` objects; sharing the threshold
    arithmetic here keeps its purging decisions exactly equal to
    :func:`purge_blocks` over the materialized collection.
    """
    # Aggregate comparisons/assignments per distinct cardinality level.
    per_level: dict[int, tuple[int, int]] = {}
    for n_entities1, n_entities2 in side_sizes:
        cardinality = n_entities1 * n_entities2
        comparisons, assignments = per_level.get(cardinality, (0, 0))
        per_level[cardinality] = (
            comparisons + cardinality,
            assignments + n_entities1 + n_entities2,
        )
    if not per_level:
        return 0
    levels = sorted(per_level)
    if len(levels) == 1:
        return levels[0]

    total_comparisons = sum(c for c, _ in per_level.values())
    total_assignments = sum(a for _, a in per_level.values())

    threshold = levels[-1]  # keep everything unless a tail qualifies
    prefix_comparisons = 0
    prefix_assignments = 0
    for level in levels[:-1]:  # a cut above the last level keeps all
        comparisons, assignments = per_level[level]
        prefix_comparisons += comparisons
        prefix_assignments += assignments
        suffix_comparisons = total_comparisons - prefix_comparisons
        suffix_assignments = total_assignments - prefix_assignments
        if suffix_assignments <= 0 or prefix_assignments <= 0:
            continue
        if suffix_assignments > MAX_PURGED_ASSIGNMENTS * total_assignments:
            continue  # would purge the body, not the stop-word tail
        prefix_cost = prefix_comparisons / prefix_assignments
        suffix_cost = suffix_comparisons / suffix_assignments
        if suffix_cost >= DEFAULT_GAIN_FACTOR * prefix_cost:
            threshold = level  # highest qualifying cut wins
    return threshold


def purge_decision_from_sizes(
    side_sizes: "dict[str, tuple[int, int]]",
) -> tuple[set[str], PurgingReport]:
    """:func:`purge_blocks` over ``key -> (|b1|, |b2|)`` maintained sizes.

    Returns the keys that survive and the same :class:`PurgingReport` a
    batch :func:`purge_blocks` over the materialized collection emits.
    The token-blocking stage decides from its placement table's sizes
    with this (a cold run and a delta alike), so the keep rule and the
    report arithmetic live in exactly one place.
    """
    limit = cardinality_threshold_from_sizes(side_sizes.values())
    kept = {
        key
        for key, (n_entities1, n_entities2) in side_sizes.items()
        if n_entities1 * n_entities2 <= limit
    }
    report = PurgingReport(
        max_cardinality=limit,
        blocks_before=len(side_sizes),
        blocks_after=len(kept),
        comparisons_before=sum(n1 * n2 for n1, n2 in side_sizes.values()),
        comparisons_after=sum(
            n1 * n2 for key, (n1, n2) in side_sizes.items() if key in kept
        ),
    )
    return kept, report


def purge_blocks(
    blocks: BlockCollection, name: str | None = None
) -> tuple[BlockCollection, PurgingReport]:
    """Remove blocks larger than :func:`cardinality_threshold`.

    Returns the purged collection and a :class:`PurgingReport`.
    """
    limit = cardinality_threshold(blocks)
    kept = BlockCollection(name or blocks.name)
    for block in blocks:
        if block.cardinality() <= limit:
            kept.add(block)
    report = PurgingReport(
        max_cardinality=limit,
        blocks_before=len(blocks),
        blocks_after=len(kept),
        comparisons_before=blocks.total_comparisons(),
        comparisons_after=kept.total_comparisons(),
    )
    return kept, report
