"""Online resolution of never-seen records (the read-side query path).

The batch pipeline answers "how do these two KBs align"; the single
most common *serving* question is the other way around: *"here is a
record you have never seen — who does it match?"*.  An
:class:`OnlineResolver` answers it in one pass over the already-loaded
evidence, without touching the incremental matcher or mutating any
published state:

1. **Tokenize** the record with the pipeline's own
   :class:`~repro.kb.tokenizer.Tokenizer`.
2. **Probe the packed token blocks**: each token is one lookup in the
   resolver's span table, built once per generation from the
   :class:`~repro.blocking.packed.PackedBlockCollection` columns, and
   selects one CSR row of side-2 candidate ids with its block's weight.
3. **Score value similarity**: every selected block contributes its
   :func:`~repro.core.similarity.block_token_weight` to each id in its
   row, by :func:`~repro.ids.arrays.gathered_candidate_sums`.  A single
   resolve gathers its rows alone, with no record keys; a batch's sums
   are one call per group of records of bounded gather, keyed by record
   index and candidate id.  A candidate's sum adds its record's spans
   in the same element order either way, so every score is the same
   float alone and in any batch.
4. **Score neighbor similarity** by propagating the record's outgoing
   top-relation links through the value index — the one-row analogue
   of :func:`~repro.engine.similarity.build_neighbor_index`'s
   propagation, gathered by the same primitive over a reverse
   top-neighbor CSR.
5. **Apply H1–H4 online**, mirroring the batch heuristics for a record
   that is *queried*, not inserted (see below).  Both paths decide in
   one :meth:`OnlineResolver._decide`, which builds H3's neighbor list
   only when the H3 rung runs or H4 looks for a match outside the value
   list.

Candidates stay id columns from gather to decision: each record's
value and neighbor evidence is an ``(ids ascending, sums)`` pair, its
top k comes from :func:`~repro.ids.arrays.top_ranked` (exact, ties to
the smaller id = the smaller URI), co-occurrence and H4's scores are
binary searches of those ids, and only the at most k rows returned are
decoded to URIs.

Records whose URI already exists in KB1 answer with
:meth:`OnlineResolver.probe` — the precomputed rows and the standing
decision, byte-identical to ``GET /candidates``, which is what the
golden parity tests pin.

**Query semantics.**  A resolved record is a question, not a delta: it
does not join the blocks (weights use the existing block sizes, so the
record's scores are commensurable with the precomputed side-1 scores),
and standing matches do not pre-empt it (a clean copy of an
already-matched entity still resolves to its counterpart).  The ladder
walks the config's ``heuristics``: the listed H1–H3 in their listed
order (the first that fires decides), then H4 if listed.  Custom
heuristic names have no online form and are skipped.  Each rung is read
accordingly:

- **H1** fires when a normalized name of the record is carried by *no*
  KB1 entity and *exactly one* KB2 entity — the block that would exist
  after insertion would hold one entity per side.
- **H2** fires when the record's best value candidate scores >= 1.0
  (the paper's threshold-free "they share a token nobody else has").
- **H3** aggregates the record's top-k value and neighbor candidate
  ranks exactly like the batch heuristic (same θ weighting, same
  co-occurrence restriction, ties to the smaller URI).
- **H4** keeps the tentative match only if it is reciprocal *as if the
  record were inserted*: the chosen KB2 entity must appear in the
  record's candidate lists, and the record's score against it must be
  good enough to enter that entity's top-k value or (restricted)
  neighbor list.

The resolver reads the run's artifacts only: its derived tables (the
token-span table, H1's name-key maps, the top-neighbor fan-out)
build once, in the constructor, from the published name placements and
top-neighbor sets — no KB entity is re-keyed or walked.  Afterwards a
read writes nothing but two memos of pure functions, each bounded in
bytes, whose entries are immutable (tuples of floats, read-only
arrays), and, once per generation, side 2's ranking into each index
(under the index's ranking lock), so the resolver is safe to share
across reader threads.
"""

from __future__ import annotations

import sys
from bisect import bisect_left
from dataclasses import dataclass
from threading import Lock
from typing import TYPE_CHECKING, Any, Iterable, Mapping, Sequence

from ..blocking.base import BlockCollection
from ..blocking.name_blocking import name_keys, names_from_attributes
from ..blocking.packed import PackedBlockCollection
from ..ids import EntityInterner, arrays
from ..ids.arrays import (
    gathered_candidate_sums,
    group_bounds,
    merged_sums,
    pair_ids,
    positions_within,
    top_ranked,
)
from ..kb.tokenizer import Tokenizer
from .heuristics import Match, h2_candidate, h3_candidate, kb2_space
from .neighbors import top_neighbor_csr, transposed_csr
from .similarity import block_token_weight

if TYPE_CHECKING:  # pragma: no cover - types only
    from ..blocking.placements import PlacementTable
    from ..kb.entity import EntityDescription
    from ..pipeline.context import PipelineContext
    from .config import MinoanERConfig
    from .neighbors import NeighborSimilarityIndex
    from .similarity import ValueSimilarityIndex

#: Bit width of the record index in batch-scoring composite keys
#: (candidate ids occupy the low 32 bits, like packed pair keys).
_BATCH_SHIFT = 32


#: Byte budget of each per-resolver memo.  A target's fan-out columns
#: run to tens of kilobytes, so a cap in entries would not bound them;
#: a serving stream's link sets stay far under it (the benchmark's
#: query pool fills 6.7 MB), and it matters only for adversarial floods
#: of never-repeating targets or target sets.
_MEMO_BYTES = 64 << 20


def standing_decisions(matches: Iterable[Match], side: int) -> dict[str, Match]:
    """Each entity's standing decision on ``side``: the first decision
    emitted for it, mirroring the greedy matching order."""
    decisions: dict[str, Match] = {}
    for match in matches:
        decisions.setdefault(match.uri1 if side == 1 else match.uri2, match)
    return decisions


def match_dict(match: Match | None) -> dict[str, Any] | None:
    """A decision's wire rendering (``None`` stays ``None``)."""
    if match is None:
        return None
    return {
        "uri1": match.uri1,
        "uri2": match.uri2,
        "heuristic": match.heuristic,
        "score": match.score,
    }


@dataclass(frozen=True)
class ResolveResult:
    """One entity's resolution: ranked evidence plus the decision.

    The one result of the read path: :meth:`OnlineResolver.probe`
    decodes it from a KB1 entity's precomputed rows, and
    :meth:`OnlineResolver.resolve_batch` scores it for a never-seen
    record — so a known record's resolve *is* its probe, and
    :meth:`as_dict` is byte-identical on both (the parity tests digest
    them).
    """

    #: The resolved record's (or probed entity's) URI.
    uri: str
    #: Whether the URI exists in KB1 (then the precomputed evidence
    #: answered, not the online scorer).
    known: bool
    #: Ranked (E2 uri, value similarity) rows, best first, top-k.
    value: tuple[tuple[str, float], ...]
    #: Ranked (E2 uri, neighbor similarity) rows, best first, top-k: a
    #: known entity's rows of the published neighbor index (under the
    #: conference H3 only candidates it shares a value pair with), a
    #: never-seen record's every scored candidate.
    neighbor: tuple[tuple[str, float], ...]
    #: The best value counterpart (H2's vmax): the first value row.
    best: tuple[str, float] | None
    #: The resolution decision (a standing one for known URIs, an
    #: online H1–H4 one otherwise); ``None`` when nothing matched.
    match: Match | None

    def as_dict(self) -> dict[str, Any]:
        """A JSON-ready rendering (what ``POST /resolve`` and
        ``GET /candidates`` emit)."""
        return {
            "uri": self.uri,
            "known": self.known,
            "value": [[uri2, sim] for uri2, sim in self.value],
            "neighbor": [[uri2, sim] for uri2, sim in self.neighbor],
            "best": list(self.best) if self.best is not None else None,
            "match": match_dict(self.match),
        }


class OnlineResolver:
    """Scores one raw record against a loaded generation of evidence.

    The constructor builds every derived table, copying what it needs
    out of the name placements (a matcher mutates them on its next
    delta), and ranks nothing: a side-1 row no ranking covers is ranked
    alone when read, and the first H4 bar read ranks side 2 of both
    indices.  The resolver never mutates the indices or the blocks it
    reads — it is safe to attach to an immutable published state.
    """

    def __init__(
        self,
        *,
        config: "MinoanERConfig",
        known1: frozenset[str],
        decisions1: Mapping[str, Match],
        token_blocks: BlockCollection,
        value_index: "ValueSimilarityIndex",
        neighbor_index: "NeighborSimilarityIndex",
        top_neighbors2: dict[str, set[str]],
        top_relations1: Sequence[str] = (),
        name_attributes1: Sequence[str] | None = None,
        name_placements: "PlacementTable | None" = None,
    ) -> None:
        # KB1 membership and standing decisions as of the run (a serving
        # state passes its publish-time ones, so a later delta to the
        # live KB cannot leak into an older generation).
        self._known1 = known1
        self._decisions1 = decisions1
        self._config = config
        self._value_index = value_index
        self._neighbor_index = neighbor_index
        self._wanted1 = frozenset(top_relations1)
        self._tokenizer = Tokenizer()
        # The online ladder, once: the known producers in config order,
        # and whether H4 filters their decision.
        self._producers = tuple(
            name for name in config.heuristics if name in ("h1", "h2", "h3")
        )
        self._reciprocal = "h4" in config.heuristics

        # Value evidence: the packed blocks' side-2 CSR, and per block
        # key with side-2 members its row's span and token weight; block
        # ids are URI order, so an id doubles as the URI tie-break of
        # the value ranking.
        if not isinstance(token_blocks, PackedBlockCollection):
            token_blocks = PackedBlockCollection.from_collection(
                token_blocks.drop_empty()
            )
        starts1, starts2 = (token_blocks.csr(side)[0].tolist() for side in (1, 2))
        self._ids2 = token_blocks.csr(2)[1]
        self._spans = {
            key: (lo, hi, block_token_weight(stop1 - start1, hi - lo))
            for key, start1, stop1, lo, hi in zip(
                token_blocks.block_keys,
                starts1,
                starts1[1:],
                starts2,
                starts2[1:],
            )
            if hi > lo
        }
        self._candidates2 = token_blocks.interners()[1]
        self._uris2 = self._candidates2.uris()

        # H1: the name keys some KB1 entity carries, and each KB2 key's
        # sole carrier (``None`` = shared, never an H1 block).
        self._names: tuple | None = None
        if name_placements is not None:
            self._names = (
                names_from_attributes(name_attributes1),
                frozenset(name_placements.key_members(1)),
                {
                    key: next(iter(uris)) if len(uris) == 1 else None
                    for key, uris in name_placements.key_members(2).items()
                },
            )

        # Neighbor evidence: per value-side-2 id, the ascending ids of
        # the KB2 parents listing it as a top neighbor — the transposed
        # fan-out the neighbor kernel propagates over (parent ids are
        # URI order, so integer order doubles as the URI tie-break).
        # H3 decides in one KB2 id space over value candidates and
        # parents: under the conference H3 the value candidates' own,
        # and a parent's image there (``-1`` for none) is also the map
        # co-occurrence searches through.
        parents = EntityInterner(top_neighbors2)
        value2 = value_index.interners()[1]
        self._parents = parents
        self._parent_uris = parents.uris()
        self._parent_starts, self._parent_ids = transposed_csr(
            *top_neighbor_csr(top_neighbors2, parents, value2), len(value2)
        )
        self._space, self._value_images, self._parent_images = kb2_space(
            self._candidates2, parents, config.restrict_h3_to_cooccurring
        )
        self._no_neighbors = _published(
            gathered_candidate_sums(
                self._parent_ids, (), (), (), width=len(parents)
            )
        )

        # target URI, or sorted target tuple -> read-only (parent ids
        # ascending, sums) columns; (uri2, k) -> H4 bars.  The evidence
        # is immutable for this resolver's lifetime, so entries never go
        # stale; the byte budget only bounds memory on adversarial floods.
        self._neighbor_memo = _Memo()
        self._h4_memo = _Memo()

    @classmethod
    def from_context(
        cls,
        ctx: "PipelineContext",
        known1: frozenset[str],
        decisions1: Mapping[str, Match] | None = None,
    ) -> "OnlineResolver":
        """A resolver over one finished run's artifact store.

        The single construction path shared by :class:`MatchSession`
        and :meth:`ServingState.from_matcher` — both hand over the same
        artifacts a snapshot would persist.  ``decisions1`` defaults to
        the standing decisions of the run's matches.  A context lacking
        ``top_neighbors2``, or carrying name attributes without the
        ``name_placements`` they keyed, raises
        :class:`~repro.pipeline.context.MissingArtifactError`; one
        without name blocking resolves without H1.
        """
        if decisions1 is None:
            decisions1 = standing_decisions(ctx.get_or("matches", ()), 1)
        has_names = ctx.has("name_attributes1")
        return cls(
            config=ctx.config,
            known1=known1,
            decisions1=decisions1,
            token_blocks=ctx.get("token_blocks"),
            value_index=ctx.get("value_index"),
            neighbor_index=ctx.get("neighbor_index"),
            top_neighbors2=ctx.get("top_neighbors2"),
            top_relations1=ctx.get_or("top_relations1", ()),
            name_attributes1=ctx.get_or("name_attributes1"),
            name_placements=ctx.get("name_placements") if has_names else None,
        )

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def probe(self, uri: str, k: int | None = None) -> ResolveResult:
        """One KB1 entity's precomputed evidence and standing decision.

        A pure decode of the packed CSR rows — what ``GET /candidates``
        serves, and the answer :meth:`resolve_batch` gives a record
        whose URI is in KB1.  ``known`` says whether ``uri`` is.
        """
        k = self.validated_k(k)
        value = tuple(self._value_index.candidates_of_entity1(uri, k))
        return ResolveResult(
            uri=uri,
            known=uri in self._known1,
            value=value,
            neighbor=tuple(self._neighbor_index.candidates_of_entity1(uri, k)),
            best=value[0] if value else None,
            match=self._decisions1.get(uri),
        )

    def resolve(
        self, record: "EntityDescription", k: int | None = None
    ) -> ResolveResult:
        """Rank this record's KB2 candidates and decide its match.

        Its spans gather alone, with no record keys: a candidate's sum
        receives the same additions in the same order as in any batch.
        """
        k = self.validated_k(k)
        if record.uri in self._known1:
            return self.probe(record.uri, k)
        spans = self._probe_spans(record)
        starts, stops, weights = zip(*spans) if spans else ((), (), ())
        ids, sums = gathered_candidate_sums(
            self._ids2, starts, stops, weights, width=len(self._uris2)
        )
        return self._decide(record, k, ids, sums)

    def resolve_batch(
        self, records: Sequence["EntityDescription"], k: int | None = None
    ) -> list[ResolveResult]:
        """Resolve many records, amortizing probes and candidate sums.

        Records whose URI is in KB1 answer with :meth:`probe`.  The rest
        share their token -> block-row lookups and are scored in
        consecutive groups, a group being at least one record and its
        spans selecting at most ``RUN_SIZE // 16`` ids (a gathered id's
        positions, keys, sums and sort take about 70 bytes, so a group
        holds some 4 B per unit of the run size): one
        :func:`gathered_candidate_sums` call per group,
        keyed ``record index << 32 | candidate id``, and each record
        decides over its slice of those columns.  A candidate's sum
        receives the same additions in the same order whatever else is
        in the batch, so a record resolves bit-identically alone, in
        any batch and in any group.
        """
        k = self.validated_k(k)
        results: list[ResolveResult | None] = [None] * len(records)
        budget = max(1, arrays.RUN_SIZE // 16)
        group: list[tuple[int, "EntityDescription", list]] = []
        selected = 0
        for position, record in enumerate(records):
            if record.uri in self._known1:
                results[position] = self.probe(record.uri, k)
                continue
            spans = self._probe_spans(record)
            ids = sum(stop - start for start, stop, _ in spans)
            if group and selected + ids > budget:
                self._decide_group(group, k, results)
                group, selected = [], 0
            group.append((position, record, spans))
            selected += ids
        if group:
            self._decide_group(group, k, results)
        return results  # type: ignore[return-value]

    def _decide_group(
        self,
        group: Sequence[tuple[int, "EntityDescription", list]],
        k: int,
        results: list,
    ) -> None:
        """Score a group of ``(position, record, spans)`` in one
        :func:`gathered_candidate_sums` call and decide each record
        into ``results[position]``."""
        starts: list[int] = []
        stops: list[int] = []
        weights: list[float] = []
        bases: list[int] = []
        for index, (_, _, spans) in enumerate(group):
            if spans:
                # One C-level transpose per record, no per-span tuples
                # (a batch carries tens of thousands of spans).
                span_starts, span_stops, span_weights = zip(*spans)
                starts.extend(span_starts)
                stops.extend(span_stops)
                weights.extend(span_weights)
                bases.extend([index << _BATCH_SHIFT] * len(spans))
        keys, sums = gathered_candidate_sums(
            self._ids2, starts, stops, weights, bases, width=len(self._uris2)
        )
        bounds = group_bounds(keys, len(group))
        _, ids = pair_ids(keys)
        for index, (position, record, _) in enumerate(group):
            lo, hi = bounds[index], bounds[index + 1]
            results[position] = self._decide(record, k, ids[lo:hi], sums[lo:hi])

    def validated_k(self, k: int | None) -> int:
        """``k``, defaulted to the config's ``top_k_candidates``; raises
        ``ValueError`` below 1."""
        if k is None:
            k = self._config.top_k_candidates
        if k < 1:
            raise ValueError("k must be >= 1")
        return k

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _probe_spans(
        self, record: "EntityDescription"
    ) -> list[tuple[int, int, float]]:
        """The record's block rows as ``(start, stop, weight)`` spans.

        Tokens probe in sorted order (the scan order every candidate's
        sum follows); each distinct token selects at most one block row,
        by one lookup in the span table.
        """
        spans = map(self._spans.get, sorted(self._tokenizer.token_set(record)))
        return [span for span in spans if span is not None]

    def _decide(
        self, record: "EntityDescription", k: int, value_ids, value_sums
    ) -> ResolveResult:
        """The online H1–H4 ladder over one record's value evidence: its
        candidates' ascending ids and their sums.  H2 and H3 are the
        batch rungs with nothing taken; only the returned rows and the
        match are decoded.  H3's neighbor list is built only when read:
        by the H3 rung, or by H4 for a match outside the value list."""
        neighbor_ids, neighbor_sums = self._neighbor_scores(record)
        config = self._config
        value_top = _top(value_ids, value_sums, k)
        neighbor_top = _top(neighbor_ids, neighbor_sums, k)
        # H3's value list in its KB2 id space: the top-k value ids.
        value_space = [self._value_images[i] for i in value_top[0]]
        h3_list = lambda: self._h3_neighbors(  # noqa: E731
            value_ids, neighbor_ids, neighbor_sums, neighbor_top[0], k
        )
        neighbor_space = None

        match: Match | None = None
        for name in self._producers:
            if name == "h1":
                if self._names is not None:
                    match = self._h1_online(record)
            elif name == "h2":
                best = h2_candidate(zip(*value_top))
                if best is not None:
                    uri2 = self._uris2[best[0]]
                    match = Match(record.uri, uri2, "H2", best[1])
            else:
                neighbor_space = h3_list()
                best = h3_candidate(value_space, neighbor_space, config.theta)
                if best is not None:
                    uri2 = self._space.uri_of(best[0])
                    match = Match(record.uri, uri2, "H3", best[1])
            if match is not None:
                break
        if match is not None and self._reciprocal:
            uri2 = match.uri2
            # the record's side of H4 is literal: uri2 is in its lists
            at = self._space.get(uri2)
            listed = at in value_space or at in (
                h3_list() if neighbor_space is None else neighbor_space
            )
            if not listed or not self._h4_reciprocal(
                uri2,
                _score_of(value_ids, value_sums, self._candidates2.get(uri2)),
                _score_of(neighbor_ids, neighbor_sums, self._parents.get(uri2)),
                k,
            ):
                match = None

        value_rows = _decoded(self._uris2, *value_top)
        return ResolveResult(
            uri=record.uri,
            known=False,
            value=value_rows,
            neighbor=_decoded(self._parent_uris, *neighbor_top),
            best=value_rows[0] if value_rows else None,
            match=match,
        )

    def _h3_neighbors(
        self, value_ids, neighbor_ids, neighbor_sums, top_ids, k: int
    ) -> list[int]:
        """H3's neighbor list in its KB2 id space: the top-k neighbor
        ids ``top_ids`` — under the conference H3 the top k of those
        with a value score too."""
        if self._config.restrict_h3_to_cooccurring:
            shared = positions_within(neighbor_ids, self._parent_images, value_ids)
            top_ids, _ = _top(neighbor_ids[shared], neighbor_sums[shared], k)
        return [self._parent_images[i] for i in top_ids]

    def _neighbor_scores(self, record: "EntityDescription") -> tuple:
        """The record's neighbor-similarity sums: read-only ``(parent
        ids ascending, sums)`` columns.

        The one-row analogue of the batch propagation: each of the
        record's outgoing top-relation targets contributes its value
        row, fanned out to the KB2 entities listing the counterpart as
        a top neighbor.  Columns are memoized per target — and per
        target *set* for multi-link records — so a serving stream's
        repeated link structures never re-propagate.  Multi-target sums
        merge the per-target columns in sorted-target order
        (:func:`merged_sums`), each parent's per-target sums adding up
        from ``0.0`` in that order, so the floats are the same in any
        batch.  The columns are shared memo entries, published
        read-only: writing to one raises.
        """
        targets = sorted(
            {
                target
                for relation, target in record.relation_pairs()
                if relation in self._wanted1
            }
        )
        if not targets:
            return self._no_neighbors
        if len(targets) == 1:
            return self._target_contribution(targets[0])
        # Multi-target records memoize under the target tuple: a query
        # stream's variants of one source entity share their link set,
        # so the merge happens once per distinct set.
        key = tuple(targets)
        memo = self._neighbor_memo
        entry = memo.get(key)
        if entry is None:
            entry = _published(
                merged_sums(map(self._target_contribution, targets))
            )
            memo.keep(key, entry)
        return entry

    def _target_contribution(self, target: str) -> tuple:
        """One target's fan-out: read-only ``(KB2 parent ids ascending,
        summed value sims)`` columns, memoized.

        Each ``(vid, sim)`` of the target's ranked value row adds
        ``sim`` to the parents of ``vid`` in the transposed top-neighbor
        CSR — a :func:`gathered_candidate_sums` over that CSR, in row
        order.
        """
        memo = self._neighbor_memo
        entry = memo.get(target)
        if entry is None:
            vids, sims = self._value_index.csr_row(1, target)
            starts = self._parent_starts
            entry = _published(
                gathered_candidate_sums(
                    self._parent_ids,
                    starts[vids],
                    starts[1:][vids],
                    sims,
                    width=len(self._parent_uris),
                )
            )
            memo.keep(target, entry)
        return entry

    def _h1_online(self, record: "EntityDescription") -> Match | None:
        """H1 for a query record: a name nobody in KB1 carries, and
        exactly one KB2 entity does.  Name keys scan in sorted order so
        a record with several unique names resolves deterministically,
        mirroring the batch heuristic's sorted-block walk."""
        extractor, names1, names2 = self._names
        for key in sorted(name_keys(record, extractor)):
            if key in names1:
                continue
            sole = names2.get(key)
            if sole is not None:
                return Match(record.uri, sole, "H1")
        return None

    def _h4_reciprocal(
        self, uri2: str, value_score: float, neighbor_score: float, k: int
    ) -> bool:
        """Would the pair pass H4's KB2 side if the record were
        inserted?  That side is counterfactual: the record enters
        ``uri2``'s top-k value list when its score ties or beats the
        current k-th row, and its (co-occurrence-restricted) neighbor
        list likewise.
        """
        value_bar, neighbor_bar = self._h4_bars(uri2, k)
        if value_score > 0.0 and (
            value_bar is None or value_score >= value_bar
        ):
            return True
        if neighbor_score > 0.0 and (
            value_score > 0.0 or not self._config.restrict_h3_to_cooccurring
        ):
            if neighbor_bar is None or neighbor_score >= neighbor_bar:
                return True
        return False

    def _h4_bars(
        self, uri2: str, k: int
    ) -> tuple[float | None, float | None]:
        """``uri2``'s entry bars for H4: the k-th value score and the
        k-th (co-occurrence-restricted) neighbor score, or ``None``
        where the list is shorter than ``k`` (any score enters) — read
        off the rows the batch candidate lists are cut from.  Evidence
        is immutable per resolver, so the bars memoize — serving
        streams keep deciding against the same few matched entities.
        The first miss ranks side 2 of both indices to the config's K,
        once: the only read of side 2 a generation serves."""
        key = (uri2, k)
        memo = self._h4_memo
        entry = memo.get(key)
        if entry is None:
            for index in (self._value_index, self._neighbor_index):
                index.rank(2, self._config.top_k_candidates)
            _, value_sims = self._value_index.csr_row(2, uri2, k)
            _, neighbor_sims = self._neighbor_index.csr_row(2, uri2, k)
            entry = (
                value_sims[-1] if len(value_sims) == k else None,
                neighbor_sims[-1] if len(neighbor_sims) == k else None,
            )
            memo.keep(key, entry)
        return entry

    def __repr__(self) -> str:
        return (
            f"OnlineResolver({len(self._known1)} known, "
            f"{len(self._uris2)} candidates)"
        )


class _Memo(dict):
    """A resolver memo of pure, immutable entries that stops taking
    them once they hold :data:`_MEMO_BYTES`: each entry's key and value
    counted as the objects they are made of (an array with its header,
    so an empty entry counts too).  A refused entry is recomputed on
    every read, to the same value."""

    def __init__(self) -> None:
        super().__init__()
        self.bytes = 0
        self._lock = Lock()

    def keep(self, key, entry) -> None:
        """Hold ``entry`` under ``key`` if the budget has room."""
        size = _held_bytes(key) + _held_bytes(entry)
        with self._lock:
            if key not in self and self.bytes + size <= _MEMO_BYTES:
                self[key] = entry
                self.bytes += size


def _held_bytes(value) -> int:
    """``value``'s size, a tuple's items included (one level)."""
    if isinstance(value, tuple):
        return sys.getsizeof(value) + sum(map(sys.getsizeof, value))
    return sys.getsizeof(value)


def _published(columns: tuple) -> tuple:
    """``columns`` made read-only: a shared memo entry."""
    for column in columns:
        column.flags.writeable = False
    return columns


def _top(ids, sums, k: int) -> tuple[list[int], list[float]]:
    """The top ``k`` ``(ids, sums)`` of ``(ids, sums)`` columns by
    ``(-sum, id)``, as lists."""
    top = top_ranked(ids, sums, k)
    return ids[top].tolist(), sums[top].tolist()


def _decoded(uris: list[str], ids, sums) -> tuple[tuple[str, float], ...]:
    """``(uri, sum)`` rows of ``ids`` and ``sums``."""
    return tuple(zip(map(uris.__getitem__, ids), sums))


def _score_of(ids, sums, entity_id: int | None) -> float:
    """The sum beside ``entity_id`` in ascending ``ids`` (``0.0`` when
    absent): one binary search."""
    if entity_id is None:
        return 0.0
    at = bisect_left(ids, entity_id)
    if at < len(ids) and ids[at] == entity_id:
        return float(sums[at])
    return 0.0
