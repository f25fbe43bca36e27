"""The four threshold-free matching heuristics H1-H4.

Each heuristic is a pure function over prepared evidence (block
collections, similarity indices) that emits or filters matches.  The
pipeline applies them in order; entities matched by an earlier heuristic
are not re-examined by later ones, and H4 finally prunes non-reciprocal
pairs:  ``M = (H1 ∨ H2 ∨ H3) ∧ H4``.

H2 and H3 are written once, over ranked rows of KB2 ids
(:func:`h2_candidate`, :func:`h3_candidate`): the batch heuristics below
and the online resolver (:mod:`repro.core.resolve`) decide with them, and
decode a URI only for the match they emit.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Callable, Collection, Iterable, Iterator, Sequence

from ..blocking.base import BlockCollection
from ..blocking.name_blocking import unique_match_blocks
from ..ids import EntityInterner
from .rank_aggregation import top_aggregate_candidate
from .similarity import PackedSimilarityIndex, ValueSimilarityIndex


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
    """Tracks which entities of each KB are already matched.

    The URI view every producer shares: the built-in H2 and H3 derive
    their taken-id sets from it when they start and mark it for every
    match, so a custom producer listed before or after them sees the
    same sets.
    """

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


def h2_candidate(
    row: Iterable[tuple[int, float]], taken: Collection[int] = ()
) -> tuple[int, float] | None:
    """H2's rung over one ranked value row of ``(KB2 id, similarity)``:
    the first id not ``taken``, with its similarity, when that is >= 1.0.

    The threshold "1" is not a tuned parameter: one token unique in both
    KBs contributes exactly 1.0 to valueSim, so the rule reads "they
    share a token nobody else has, or several reasonably infrequent
    ones".  The row is read only up to its first free id.
    """
    for id2, sim in row:
        if id2 not in taken:
            return (id2, sim) if sim >= 1.0 else None
    return None


def h3_candidate(
    value_ids: Iterable[int],
    neighbor_ids: Iterable[int],
    theta: float,
    taken: Collection[int] = (),
) -> tuple[int, float] | None:
    """H3's rung: the top rank-aggregate candidate of an entity's top-K
    value and neighbor lists, ids in one URI-ordered KB2 space
    (:func:`kb2_space`), with the ``taken`` ids removed from both lists
    before aggregation — so aggregate ties go to the smaller URI."""
    return top_aggregate_candidate(
        [id2 for id2 in value_ids if id2 not in taken],
        [id2 for id2 in neighbor_ids if id2 not in taken],
        theta,
    )


def kb2_space(
    value2: EntityInterner, neighbor2: EntityInterner, cooccurring: bool
) -> tuple[EntityInterner, Sequence[int], Sequence[int]]:
    """H3's one URI-ordered KB2 id space over the value candidates'
    interner and the neighbor candidates': ``(space, value images,
    neighbor images)``, each image mapping an id of its interner to the
    space's.  Under the conference H3 (``cooccurring``) every neighbor
    candidate is a value candidate too, so the space is the value
    interner and no KB2 URI is sorted; otherwise it is their union."""
    if cooccurring:
        return value2, range(len(value2)), neighbor2.images_in(value2)
    space = EntityInterner(chain(value2, neighbor2))
    return space, value2.images_in(space), neighbor2.images_in(space)


def _value_row(
    value_index: ValueSimilarityIndex, uri1: str, k: int
) -> Iterator[tuple[int, float]]:
    """``uri1``'s ranked value row, its first ``k`` read as the index
    ranked them and the rest, whole, only if a reader walks past them."""
    ids, sims = value_index.csr_row(1, uri1, k)
    yield from zip(ids, sims)
    if len(ids) == k:
        ids, sims = value_index.csr_row(1, uri1)
        yield from zip(ids[k:], sims[k:])


def _rung_matches(
    heuristic: str,
    entity1_uris: Iterable[str],
    registry: MatchedRegistry,
    space: EntityInterner,
    pick: Callable[[str, set[int]], tuple[int, float] | None],
) -> list[Match]:
    """One rung over every entity ``registry`` has not matched:
    ``pick(uri1, taken)`` decides it over the ids of ``space`` taken so
    far — derived from ``registry`` once, then marked in both."""
    uris2 = space.uris()
    ids = space.ids_by_uri()
    taken = {ids[uri] for uri in registry.matched2 if uri in ids}
    matches: list[Match] = []
    for uri1 in entity1_uris:
        if uri1 in registry.matched1:
            continue
        best = pick(uri1, taken)
        if best is not None:
            id2, score = best
            taken.add(id2)
            registry.mark(uri1, uris2[id2])
            matches.append(Match(uri1, uris2[id2], heuristic, score))
    return matches


def h2_value_matches(
    entity1_uris: Iterable[str],
    value_index: ValueSimilarityIndex,
    registry: MatchedRegistry,
    k: int,
) -> list[Match]:
    """H2: match an entity to its best co-occurring candidate if vmax >= 1
    (:func:`h2_candidate`).  The iteration side should be the smaller KB,
    as in the paper; matched entities (either side) are skipped.  A row
    is read to ``k`` as ranked when the walk starts, and whole only past
    ``k`` taken candidates; any ranking gives the same matches."""
    return _rung_matches(
        "H2",
        entity1_uris,
        registry,
        value_index.interners()[1],
        lambda uri1, taken: h2_candidate(
            _value_row(value_index, uri1, k), taken
        ),
    )


def h3_rank_aggregation_matches(
    entity1_uris: Iterable[str],
    value_index: ValueSimilarityIndex,
    neighbor_index: PackedSimilarityIndex,
    registry: MatchedRegistry,
    *,
    k: int,
    theta: float,
    cooccurring: bool,
) -> list[Match]:
    """H3: match each remaining entity to its top rank-aggregate candidate
    (:func:`h3_candidate`) over the first ``k`` of its value and neighbor
    rows.  Candidates already matched by H1/H2 are removed from both
    evidence lists before aggregation ("all candidates matched ... are
    not examined by the remaining heuristics"); an entity with no
    remaining candidate stays unmatched.  ``cooccurring`` says the
    neighbor index holds only value pairs (the conference H3)."""
    space, value_images, neighbor_images = kb2_space(
        value_index.interners()[1], neighbor_index.interners()[1], cooccurring
    )

    def pick(uri1: str, taken: set[int]) -> tuple[int, float] | None:
        value_ids, _ = value_index.csr_row(1, uri1, k)
        neighbor_ids, _ = neighbor_index.csr_row(1, uri1, k)
        return h3_candidate(
            map(value_images.__getitem__, value_ids),
            map(neighbor_images.__getitem__, neighbor_ids),
            theta,
            taken,
        )

    return _rung_matches("H3", entity1_uris, registry, space, pick)


def h4_reciprocity_filter(
    matches: Iterable[Match],
    value_index: ValueSimilarityIndex,
    neighbor_index: PackedSimilarityIndex,
    k: int,
) -> tuple[list[Match], list[Match]]:
    """H4: keep a pair only when both sides list each other as candidates.

    Returns (kept, discarded).  The test uses the *unfiltered* top-``k``
    value and neighbor candidate lists of both entities — reciprocity is
    about what each entity would ever consider, not about what happens to
    remain unmatched: ``(value ∨ neighbor on side 1) ∧ (value ∨ neighbor
    on side 2)``.  The lists are never built: per pair and index side, a
    rank count says whether the other entity is in the first ``k``
    (:meth:`~repro.core.similarity.PackedSimilarityIndex.listed`).
    """
    matches = list(matches)
    uris1 = [match.uri1 for match in matches]
    uris2 = [match.uri2 for match in matches]
    side1, side2 = (
        value_index.listed(side, uris1, uris2, k)
        | neighbor_index.listed(side, uris1, uris2, k)
        for side in (1, 2)
    )
    reciprocal = (side1 & side2).tolist()
    kept = [match for match, ok in zip(matches, reciprocal) if ok]
    discarded = [match for match, ok in zip(matches, reciprocal) if not ok]
    return kept, discarded
