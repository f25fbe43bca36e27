"""Online resolution of never-seen records (the read-side query path).

The batch pipeline answers "how do these two KBs align"; the single
most common *serving* question is the other way around: *"here is a
record you have never seen — who does it match?"*.  An
:class:`OnlineResolver` answers it in one pass over the already-loaded
evidence, without touching the incremental matcher or mutating any
published state:

1. **Tokenize** the record with the pipeline's own
   :class:`~repro.kb.tokenizer.Tokenizer` (same ``min_token_length`` /
   ``include_uri_localnames`` settings).
2. **Probe the packed token blocks**: each token binary-searches the
   sorted :meth:`~repro.blocking.packed.PackedBlockCollection.block_keys`
   column — no string-keyed dict walk — and selects one CSR row of
   side-2 candidate ids.
3. **Score value similarity** for just this record: every selected
   block contributes its :func:`~repro.core.similarity.block_token_weight`
   to each id in its row.  The per-candidate sums run through the
   vectorized :func:`~repro.ids.arrays.gathered_candidate_sums` kernel
   when NumPy is enabled, with a bit-identical pure-Python fallback
   (same element order, hence the same float accumulation).
4. **Score neighbor similarity** by propagating the record's outgoing
   top-relation links through the value index — the one-row analogue
   of :class:`~repro.core.neighbors.NeighborSimilarityIndex`'s
   propagation.
5. **Apply H1–H4 online**, mirroring the batch heuristics for a record
   that is *queried*, not inserted (see below).

Records whose URI already exists in KB1 delegate to the precomputed
probe rows and the standing decision — byte-identical to
:meth:`MatchSession.probe`/``GET /candidates``, which is what the
golden parity tests pin.

**Query semantics.**  A resolved record is a question, not a delta: it
does not join the blocks (weights use the existing block sizes, so the
record's scores are commensurable with the precomputed side-1 scores),
and standing matches do not pre-empt it (a clean copy of an
already-matched entity still resolves to its counterpart).  The H1–H4
ladder is read accordingly:

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

All derived tables (packed-block columns, name-key maps, the reverse
top-neighbor index) build lazily on first use and are immutable
afterwards; a racing double-build produces identical tables, so the
resolver is safe to share across reader threads.
"""

from __future__ import annotations

import heapq
import operator
from bisect import bisect_left
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable, Sequence

from ..blocking.base import BlockCollection
from ..blocking.name_blocking import name_keys, names_from_attributes
from ..blocking.packed import PackedBlockCollection
from ..ids.arrays import (
    gathered_candidate_sums,
    numpy_enabled,
    numpy_module,
)
from ..kb.tokenizer import Tokenizer
from .candidates import (
    counterpart_translation,
    kept_neighbor_offsets,
    probe_rows,
)
from .heuristics import Match
from .neighbors import top_neighbors
from .rank_aggregation import top_aggregate_candidate
from .similarity import block_token_weight

if TYPE_CHECKING:  # pragma: no cover - types only
    from ..kb.entity import EntityDescription
    from ..kb.knowledge_base import KnowledgeBase
    from ..pipeline.context import PipelineContext
    from .config import MinoanERConfig
    from .neighbors import NeighborSimilarityIndex
    from .similarity import ValueSimilarityIndex

#: Bit width of the record index in batch-scoring composite keys
#: (candidate ids occupy the low 32 bits, like packed pair keys).
_BATCH_SHIFT = 32


#: Bound of the per-resolver target-contribution memo (rows are small;
#: the cap only matters for adversarial never-repeating target floods).
_NEIGHBOR_MEMO_LIMIT = 65536


def _top_ranked(
    k: int, items: Iterable[tuple[str, float]]
) -> list[tuple[str, float]]:
    """Top-k by (score descending, URI ascending), the shared ranking
    order.  Decorated ``(-score, uri, score)`` triples compare at C
    level (uri breaks every tie, so the third field never compares);
    ``heapq.nsmallest`` is documented equivalent to ``sorted(...)[:k]``,
    keeping selection identical to a full sort."""
    decorated = [(-score, uri, score) for uri, score in items]
    return [
        (uri, score)
        for _, uri, score in heapq.nsmallest(k, decorated)
    ]


@dataclass(frozen=True)
class ResolveResult:
    """One record's online resolution: ranked evidence plus the decision.

    Field-for-field the schema of
    :class:`~repro.core.candidates.ProbeResult` — for a record whose URI
    is already in KB1, :meth:`as_dict` is byte-identical to the probe
    path's payload (the parity tests digest both).
    """

    #: The resolved record's URI.
    uri: str
    #: Whether the URI already exists in KB1 (then the precomputed
    #: evidence answered, not the online scorer).
    known: bool
    #: Ranked (E2 uri, value similarity) rows, best first, top-k.
    value: tuple[tuple[str, float], ...]
    #: Ranked (E2 uri, neighbor similarity) rows, best first, top-k.
    neighbor: tuple[tuple[str, float], ...]
    #: The best value counterpart (H2's vmax), unrestricted by k.
    best: tuple[str, float] | None
    #: The resolution decision (a standing one for known URIs, an
    #: online H1–H4 one otherwise); ``None`` when nothing matched.
    match: Match | None

    def as_dict(self) -> dict[str, Any]:
        """A JSON-ready rendering (what ``POST /resolve`` emits)."""
        return {
            "uri": self.uri,
            "known": self.known,
            "value": [[uri2, sim] for uri2, sim in self.value],
            "neighbor": [[uri2, sim] for uri2, sim in self.neighbor],
            "best": list(self.best) if self.best is not None else None,
            "match": None
            if self.match is None
            else {
                "uri1": self.match.uri1,
                "uri2": self.match.uri2,
                "heuristic": self.match.heuristic,
                "score": self.match.score,
            },
        }


def resolve_cache_key(record: "EntityDescription", k: int | None) -> tuple:
    """A hashable LRU key covering the record's full content.

    Unlike probes, two resolve calls for the same URI may carry
    different pairs, so the key includes them (``Literal``/``UriRef``
    are frozen dataclasses, hence hashable).
    """
    return ("resolve", record.uri, k, record.pairs)


@dataclass(frozen=True)
class _ResolverTables:
    """The immutable derived state one resolver builds once (lazily)."""

    #: Sorted block-key column (binary-search target).
    block_keys: tuple[str, ...]
    #: The packed collection the keys index (for ``row_sizes``).
    blocks: PackedBlockCollection
    #: Side-2 CSR columns of the blocks.
    starts2: Sequence[int]
    ids2: Sequence[int]
    #: ``ids2`` as an int32 ndarray (``None`` without NumPy).
    ids2_np: Any
    #: Block-side-2 id -> candidate URI decode table.
    uris2: list[str]
    #: id -> lexicographic rank of ``uris2[id]`` (``None`` without
    #: NumPy); substitutes integer compares for URI-string tie-breaks
    #: in the vectorized batch ranking.
    uri_rank2: Any
    #: Normalized name keys carried by at least one KB1 entity.
    names1: frozenset[str] | None
    #: Normalized name key -> sole KB2 carrier (``None`` = ambiguous).
    names2: dict[str, str | None] | None
    #: The record-side top relations (KB1's importance ranking).
    wanted1: frozenset[str]
    #: Value-side-2 id -> KB2 parents listing it as a top neighbor.
    reverse2: dict[int, tuple[str, ...]]
    #: Sorted distinct parents of ``reverse2`` (id == lexicographic
    #: rank, so integer order doubles as the URI tie-break).
    parent_uris: list[str]
    #: ``reverse2`` as CSR over parent ids (``None`` without NumPy):
    #: ``rev_parents[rev_starts[vid]:rev_starts[vid + 1]]`` lists the
    #: parents of value id ``vid``, in ``reverse2`` tuple order so the
    #: vectorized fan-out accumulates in the same sequence as the
    #: dict walk.
    rev_starts: Any
    rev_parents: Any
    #: Neighbor-index side-1 id -> value-index side-1 id (H4's
    #: co-occurrence test on a KB2 entity's rows).
    translation2: Sequence[int]


class OnlineResolver:
    """Scores one raw record against a loaded generation of evidence.

    Construction is cheap (references only); the derived tables build
    on first :meth:`resolve` (or an explicit :meth:`warm`).  The
    resolver never mutates the indices, the blocks, or the KBs it
    reads — it is safe to attach to an immutable published state.
    """

    def __init__(
        self,
        *,
        kb1: "KnowledgeBase",
        kb2: "KnowledgeBase",
        config: "MinoanERConfig",
        token_blocks: BlockCollection,
        value_index: "ValueSimilarityIndex",
        neighbor_index: "NeighborSimilarityIndex",
        matches: Iterable[Match] = (),
        top_relations1: Sequence[str] = (),
        top_relations2: Sequence[str] = (),
        name_attributes1: Sequence[str] | None = None,
        name_attributes2: Sequence[str] | None = None,
        top_neighbors2: dict[str, set[str]] | None = None,
        known1: frozenset[str] | None = None,
    ) -> None:
        self._kb1 = kb1
        self._kb2 = kb2
        # Known-URI checks consult this frozen membership set when given
        # (serving states pass their publish-time snapshot, so a later
        # delta to the live KB cannot leak into an older generation);
        # session use falls back to the live KB.
        self._known1 = known1 if known1 is not None else kb1
        self._config = config
        self._token_blocks = token_blocks
        self._value_index = value_index
        self._neighbor_index = neighbor_index
        decisions: dict[str, Match] = {}
        for match in matches:
            decisions.setdefault(match.uri1, match)
        self._decisions1 = decisions
        self._top_relations1 = tuple(top_relations1)
        self._top_relations2 = tuple(top_relations2)
        self._name_attributes1 = (
            tuple(name_attributes1) if name_attributes1 is not None else None
        )
        self._name_attributes2 = (
            tuple(name_attributes2) if name_attributes2 is not None else None
        )
        self._top_neighbors2 = top_neighbors2
        self._tokenizer = Tokenizer(
            min_length=config.min_token_length,
            include_uri_localnames=config.include_uri_localnames,
        )
        self._tables: _ResolverTables | None = None
        # target URI -> (contribution row, ranked triples).  The
        # evidence is immutable for this resolver's lifetime, so rows
        # never go stale; the cap only bounds memory on adversarial
        # target sets.
        self._neighbor_memo: dict[
            str | tuple[str, ...],
            tuple[dict[str, float], list[str], list[float]],
        ] = {}
        self._h4_memo: dict[tuple[str, int], tuple[float | None, float | None]] = {}

    @classmethod
    def from_context(
        cls,
        ctx: "PipelineContext",
        kb1: "KnowledgeBase",
        kb2: "KnowledgeBase",
        known1: frozenset[str] | None = None,
    ) -> "OnlineResolver":
        """A resolver over one finished run's artifact store.

        The single construction path shared by
        :meth:`MatchSession.resolve` and
        :meth:`ServingState.from_matcher` — both hand over the same
        artifacts a snapshot would persist.
        """
        return cls(
            kb1=kb1,
            kb2=kb2,
            config=ctx.config,
            token_blocks=ctx.get("token_blocks"),
            value_index=ctx.get("value_index"),
            neighbor_index=ctx.get("neighbor_index"),
            matches=ctx.get_or("matches", ()),
            top_relations1=ctx.get_or("top_relations1", ()),
            top_relations2=ctx.get_or("top_relations2", ()),
            name_attributes1=ctx.get_or("name_attributes1"),
            name_attributes2=ctx.get_or("name_attributes2"),
            top_neighbors2=ctx.get_or("top_neighbors2"),
            known1=known1,
        )

    # ------------------------------------------------------------------
    # Lazy derived tables
    # ------------------------------------------------------------------
    def warm(self) -> None:
        """Build the derived tables now (first resolve pays otherwise)."""
        self._ensure_tables()

    def _ensure_tables(self) -> _ResolverTables:
        tables = self._tables
        if tables is None:
            # A benign race: concurrent first resolves may build twice,
            # but the tables are a pure function of immutable inputs,
            # so whichever assignment wins is equivalent.
            tables = self._build_tables()
            self._tables = tables
        return tables

    def _build_tables(self) -> _ResolverTables:
        blocks = self._token_blocks
        if not isinstance(blocks, PackedBlockCollection):
            blocks = PackedBlockCollection.from_collection(blocks.drop_empty())
        starts2, ids2 = blocks.csr(2)
        ids2_np = None
        if numpy_enabled():
            numpy = numpy_module()
            ids2_np = numpy.frombuffer(ids2, dtype=numpy.int32)

        names1 = names2 = None
        if (
            self._name_attributes1 is not None
            and self._name_attributes2 is not None
        ):
            extractor1 = names_from_attributes(self._name_attributes1)
            names1 = frozenset().union(
                *(name_keys(entity, extractor1) for entity in self._kb1)
            )
            names2 = {}
            extractor2 = names_from_attributes(self._name_attributes2)
            for entity in self._kb2:
                for key in name_keys(entity, extractor2):
                    # a name two entities share is never an H1 block
                    names2[key] = None if key in names2 else entity.uri

        top_nbrs2 = self._top_neighbors2
        if top_nbrs2 is None:  # a custom neighbor stage published none
            top_nbrs2 = top_neighbors(
                self._kb2,
                list(self._top_relations2),
                self._config.include_incoming_edges,
            )
        value2 = self._value_index.interners()[1]
        reverse2: dict[int, list[str]] = {}
        # Sorted iteration keeps the accumulation order a pure function
        # of the map's content, whatever produced it (live KB walk or a
        # restored snapshot).
        for uri2 in sorted(top_nbrs2):
            for neighbor in top_nbrs2[uri2]:
                neighbor_id = value2.get(neighbor)
                if neighbor_id is not None:
                    reverse2.setdefault(neighbor_id, []).append(uri2)

        parent_uris = sorted(
            {parent for parents in reverse2.values() for parent in parents}
        )
        rev_starts = rev_parents = None
        if ids2_np is not None:
            parent_rank = {uri: pid for pid, uri in enumerate(parent_uris)}
            nvals = len(value2.uris())
            rev_starts = numpy.zeros(nvals + 1, dtype=numpy.int64)
            for vid, parents in reverse2.items():
                rev_starts[vid + 1] = len(parents)
            numpy.cumsum(rev_starts, out=rev_starts)
            rev_parents = numpy.empty(int(rev_starts[-1]), dtype=numpy.int64)
            for vid, parents in reverse2.items():
                lo = int(rev_starts[vid])
                for offset, parent in enumerate(parents):
                    rev_parents[lo + offset] = parent_rank[parent]

        uris2 = blocks.interners()[1].uris()
        uri_rank2 = None
        if ids2_np is not None:
            by_uri = sorted(range(len(uris2)), key=uris2.__getitem__)
            uri_rank2 = numpy.empty(len(uris2), dtype=numpy.int64)
            uri_rank2[
                numpy.fromiter(by_uri, numpy.int64, len(by_uri))
            ] = numpy.arange(len(by_uri), dtype=numpy.int64)

        return _ResolverTables(
            block_keys=blocks.block_keys,
            blocks=blocks,
            starts2=starts2,
            ids2=ids2,
            ids2_np=ids2_np,
            uris2=uris2,
            uri_rank2=uri_rank2,
            names1=names1,
            names2=names2,
            wanted1=frozenset(self._top_relations1),
            reverse2={
                vid: tuple(parents) for vid, parents in reverse2.items()
            },
            parent_uris=parent_uris,
            rev_starts=rev_starts,
            rev_parents=rev_parents,
            translation2=counterpart_translation(
                self._value_index, self._neighbor_index, 2
            ),
        )

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def resolve(
        self, record: "EntityDescription", k: int | None = None
    ) -> ResolveResult:
        """Rank this record's KB2 candidates and decide its match."""
        k = self._validated_k(k)
        if record.uri in self._known1:
            return self._resolve_known(record.uri, k)
        tables = self._ensure_tables()
        spans = self._probe_spans(record, tables, {})
        scores = self._score_spans_single(spans, tables)
        return self._finish(record, k, scores, tables)

    def resolve_batch(
        self, records: Sequence["EntityDescription"], k: int | None = None
    ) -> list[ResolveResult]:
        """Resolve many records, amortizing probes and candidate sums.

        Tokenization results and token -> block-row lookups are shared
        across the batch, and (on the NumPy path) every record's
        candidate sums run in one composite-key kernel pass.  The
        results equal per-record :meth:`resolve` calls in order and in
        every score, bit for bit.
        """
        k = self._validated_k(k)
        results: list[ResolveResult | None] = [None] * len(records)
        tables = self._ensure_tables()
        span_memo: dict[str, tuple[int, int, float] | None] = {}
        pending: list[tuple[int, "EntityDescription"]] = []
        pending_spans: list[list[tuple[int, int, float]]] = []
        for position, record in enumerate(records):
            if record.uri in self._known1:
                results[position] = self._resolve_known(record.uri, k)
            else:
                pending.append((position, record))
                pending_spans.append(
                    self._probe_spans(record, tables, span_memo)
                )
        if pending:
            if tables.ids2_np is not None:
                self._finish_batch(pending, pending_spans, k, tables, results)
            else:
                for (position, record), spans in zip(pending, pending_spans):
                    results[position] = self._finish(
                        record,
                        k,
                        self._score_spans_single(spans, tables),
                        tables,
                    )
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _validated_k(self, k: int | None) -> int:
        if k is None:
            k = self._config.top_k_candidates
        if k < 1:
            raise ValueError("k must be >= 1")
        return k

    def _resolve_known(self, uri: str, k: int) -> ResolveResult:
        value_rows, neighbor_rows, best = probe_rows(
            self._value_index, self._neighbor_index, uri, k
        )
        return ResolveResult(
            uri=uri,
            known=True,
            value=value_rows,
            neighbor=neighbor_rows,
            best=best,
            match=self._decisions1.get(uri),
        )

    def _probe_spans(
        self,
        record: "EntityDescription",
        tables: _ResolverTables,
        memo: dict[str, tuple[int, int, float] | None],
    ) -> list[tuple[int, int, float]]:
        """The record's block rows as ``(start, stop, weight)`` spans.

        Tokens probe in sorted order (a deterministic scan order shared
        by both scoring paths); each distinct token resolves to at most
        one block row via binary search over the sorted key column.
        """
        keys = tables.block_keys
        n_keys = len(keys)
        starts2 = tables.starts2
        spans: list[tuple[int, int, float]] = []
        for token in sorted(self._tokenizer.token_set(record)):
            span = memo.get(token, _UNSEEN)
            if span is _UNSEEN:
                span = None
                row = bisect_left(keys, token)
                if row < n_keys and keys[row] == token:
                    lo, hi = starts2[row], starts2[row + 1]
                    if hi > lo:
                        span = (
                            lo,
                            hi,
                            block_token_weight(*tables.blocks.row_sizes(row)),
                        )
                memo[token] = span
            if span is not None:
                spans.append(span)
        return spans

    def _score_spans_single(
        self,
        spans: list[tuple[int, int, float]],
        tables: _ResolverTables,
    ) -> list[tuple[int, float]]:
        """Per-candidate value sums of one record, ``(id, sum)`` pairs.

        NumPy path and stdlib path emit contributions in the identical
        element order (span order, ascending id within a span), so the
        per-candidate float sums are bit-identical; the returned pairs
        are ordered by ascending candidate id on both paths.
        """
        if tables.ids2_np is not None and spans:
            numpy = numpy_module()
            lo = numpy.fromiter(
                (span[0] for span in spans), numpy.int64, len(spans)
            )
            hi = numpy.fromiter(
                (span[1] for span in spans), numpy.int64, len(spans)
            )
            weights = numpy.fromiter(
                (span[2] for span in spans), numpy.float64, len(spans)
            )
            ids, sums = gathered_candidate_sums(
                tables.ids2_np, lo, hi, weights
            )
            return list(zip(ids.tolist(), sums.tolist()))
        acc: dict[int, float] = {}
        ids2 = tables.ids2
        for lo, hi, weight in spans:
            for j in range(lo, hi):
                candidate = ids2[j]
                acc[candidate] = acc.get(candidate, 0.0) + weight
        return sorted(acc.items())

    def _finish_batch(
        self,
        pending: list[tuple[int, "EntityDescription"]],
        pending_spans: list[list[tuple[int, int, float]]],
        k: int,
        tables: _ResolverTables,
        results: list["ResolveResult | None"],
    ) -> None:
        """Score and rank every pending record in two vectorized passes.

        One composite-key :func:`gathered_candidate_sums` call computes
        all candidate sums, then one ``lexsort`` over ``(record, -sum,
        uri rank)`` ranks them all at once.  ``uri_rank2`` substitutes
        each candidate's lexicographic URI rank for its URI string, so
        the tie-break equals the single-record ``(-score, uri)`` key
        exactly — batch results stay bit-identical to per-record
        :meth:`resolve` calls.
        """
        numpy = numpy_module()
        # Struct-of-arrays flattening: per record, one C-level
        # ``zip(*spans)`` transpose plus list extends — no per-span
        # Python tuple traffic (a batch carries tens of thousands of
        # spans).
        lo_flat: list[int] = []
        hi_flat: list[int] = []
        weight_flat: list[float] = []
        base_flat: list[int] = []
        for index, spans in enumerate(pending_spans):
            if not spans:
                continue
            base = index << _BATCH_SHIFT
            span_lo, span_hi, span_weight = zip(*spans)
            lo_flat.extend(span_lo)
            hi_flat.extend(span_hi)
            weight_flat.extend(span_weight)
            base_flat.extend([base] * len(span_lo))
        if not lo_flat:
            for position, record in pending:
                results[position] = self._decide(record, k, {}, [], tables)
            return
        lo = numpy.array(lo_flat, dtype=numpy.int64)
        hi = numpy.array(hi_flat, dtype=numpy.int64)
        weights = numpy.array(weight_flat, dtype=numpy.float64)
        bases = numpy.array(base_flat, dtype=numpy.int64)
        keys, sums = gathered_candidate_sums(
            tables.ids2_np, lo, hi, weights, bases
        )
        # Ascending composite keys come out grouped by record index,
        # ascending candidate id within each group, so one stable
        # lexsort ranks every record's slice in place.
        records_column = keys >> _BATCH_SHIFT
        ids_column = keys & ((1 << _BATCH_SHIFT) - 1)
        order = numpy.lexsort(
            (tables.uri_rank2[ids_column], -sums, records_column)
        )
        bounds = numpy.concatenate(
            (
                numpy.zeros(1, dtype=numpy.int64),
                numpy.cumsum(
                    numpy.bincount(records_column, minlength=len(pending))
                ),
            )
        ).tolist()
        ids_list = ids_column.tolist()
        sums_list = sums.tolist()
        ranked = order.tolist()
        uris2 = tables.uris2
        for index, (position, record) in enumerate(pending):
            start, stop = bounds[index], bounds[index + 1]
            value_scores = dict(
                zip(
                    map(uris2.__getitem__, ids_list[start:stop]),
                    sums_list[start:stop],
                )
            )
            value_top = [
                (uris2[ids_list[j]], sums_list[j])
                for j in ranked[start : min(stop, start + k)]
            ]
            results[position] = self._decide(
                record, k, value_scores, value_top, tables
            )

    def _finish(
        self,
        record: "EntityDescription",
        k: int,
        scores: list[tuple[int, float]],
        tables: _ResolverTables,
    ) -> ResolveResult:
        """Rank the scored candidates and run the online H1–H4 ladder.

        Ranking uses top-k selection (``heapq.nsmallest``, documented
        equivalent to ``sorted(...)[:k]`` — same order, same
        tie-breaks) instead of fully sorting every candidate: a record
        touches hundreds of candidates but only ``k`` are ever
        reported, so selection is the serving hot path's win.
        """
        uris2 = tables.uris2
        value_items = [
            (uris2[candidate], total) for candidate, total in scores
        ]
        value_top = _top_ranked(k, value_items)
        return self._decide(record, k, dict(value_items), value_top, tables)

    def _decide(
        self,
        record: "EntityDescription",
        k: int,
        value_scores: dict[str, float],
        value_top: list[tuple[str, float]],
        tables: _ResolverTables,
    ) -> ResolveResult:
        """The online H1–H4 ladder over ranked value evidence."""
        neighbor_acc, nbr_uris, nbr_scores = self._neighbor_scores(
            record, tables
        )
        config = self._config
        # The memoized row arrives fully ranked: top-k is a slice, and
        # the co-occurrence filter — "scan in rank order, keep
        # co-occurring, stop at k" — is the same as top-k over the
        # value/neighbor intersection, since filtering a ranked list
        # preserves its order.
        neighbor_top = list(zip(nbr_uris[:k], nbr_scores[:k]))
        if config.restrict_h3_to_cooccurring:
            shared = value_scores.keys() & neighbor_acc.keys()
            cooccurring = [(-neighbor_acc[uri2], uri2) for uri2 in shared]
            neighbor_uris = [
                uri2 for _, uri2 in heapq.nsmallest(k, cooccurring)
            ]
        else:
            neighbor_uris = [uri2 for uri2, _ in neighbor_top]

        value_uris = [uri2 for uri2, _ in value_top]

        match: Match | None = None
        if config.enable_h1_names and tables.names1 is not None:
            match = self._h1_online(record, tables)
        if match is None and config.enable_h2_values and value_top:
            uri2, vmax = value_top[0]
            if vmax >= 1.0:
                match = Match(record.uri, uri2, "H2", vmax)
        if match is None and config.enable_h3_rank_aggregation:
            best = top_aggregate_candidate(
                value_uris, neighbor_uris, config.theta
            )
            if best is not None:
                match = Match(record.uri, best[0], "H3", best[1])
        if match is not None and config.enable_h4_reciprocity:
            if not self._h4_reciprocal(
                match.uri2,
                value_uris,
                neighbor_uris,
                value_scores.get(match.uri2, 0.0),
                neighbor_acc.get(match.uri2, 0.0),
                k,
            ):
                match = None

        return ResolveResult(
            uri=record.uri,
            known=False,
            value=tuple(value_top),
            neighbor=tuple(neighbor_top),
            best=value_top[0] if value_top else None,
            match=match,
        )

    def _neighbor_scores(
        self, record: "EntityDescription", tables: _ResolverTables
    ) -> tuple[dict[str, float], list[str], list[float]]:
        """The record's neighbor-similarity sums, plus a ranked view.

        The one-row analogue of the batch propagation: each of the
        record's outgoing top-relation targets contributes its value
        row, fanned out to the KB2 entities listing the counterpart as
        a top neighbor.  Rows are accumulated, ranked (parallel
        ``uris``/``scores`` lists, best score first, URI breaking
        ties) and memoized per target — and per target *set* for
        multi-link records — so a serving stream's repeated link
        structures never re-propagate or re-rank.  Multi-target sums
        merge per-target rows in sorted-target order with rows walked
        in URI order, keeping float accumulation identical across
        kernel paths and resolve entry points.  Callers must treat the
        returned containers as read-only: they are shared memo
        entries.
        """
        targets = sorted(
            {
                target
                for relation, target in record.relation_pairs()
                if relation in tables.wanted1
            }
        )
        if not targets:
            return {}, [], []
        if len(targets) == 1:
            return self._target_contribution(targets[0], tables)
        # Multi-target records memoize under the target tuple: a query
        # stream's variants of one source entity share their link set,
        # so the merge + sort happens once per distinct set.
        key = tuple(targets)
        memo = self._neighbor_memo
        entry = memo.get(key)
        if entry is None:
            acc: dict[str, float] = {}
            for target in targets:
                row, _uris, _scores = self._target_contribution(
                    target, tables
                )
                for parent, sim in row.items():
                    acc[parent] = acc.get(parent, 0.0) + sim
            ranked = sorted(
                zip(map(operator.neg, acc.values()), acc, acc.values())
            )
            entry = (
                acc,
                [uri for _, uri, _ in ranked],
                [score for _, _, score in ranked],
            )
            if len(memo) < _NEIGHBOR_MEMO_LIMIT:
                memo[key] = entry
        return entry

    def _target_contribution(
        self, target: str, tables: _ResolverTables
    ) -> tuple[dict[str, float], list[str], list[float]]:
        """One target's fan-out row (KB2 parent -> summed value sims)
        and its ranking (parallel uri/score lists), memoized together.

        With NumPy the fan-out runs as a CSR gather: the target's value
        row repeats over per-value parent spans, ``bincount`` folds the
        weights per parent (same addition sequence as the dict walk, so
        sums are bit-identical), and ``lexsort`` on (-sum, parent id)
        reproduces the (-score, URI) order because parent ids are
        assigned in sorted-URI order.  Row dicts are keyed in ascending
        URI order on both paths so downstream merges accumulate
        identically.
        """
        memo = self._neighbor_memo
        entry = memo.get(target)
        if entry is None:
            parent_uris = tables.parent_uris
            if tables.rev_starts is not None:
                numpy = numpy_module()
                pairs = self._value_index.ranked_ids(1, target)
                if pairs:
                    vids = numpy.fromiter(
                        (vid for vid, _ in pairs), numpy.int64, len(pairs)
                    )
                    sims = numpy.fromiter(
                        (sim for _, sim in pairs), numpy.float64, len(pairs)
                    )
                    lo = tables.rev_starts[vids]
                    counts = tables.rev_starts[vids + 1] - lo
                    total = int(counts.sum())
                else:
                    total = 0
                if total:
                    ends = numpy.cumsum(counts)
                    flat = numpy.arange(total, dtype=numpy.int64)
                    flat += numpy.repeat(lo - (ends - counts), counts)
                    pids = tables.rev_parents[flat]
                    dense = numpy.bincount(
                        pids,
                        weights=numpy.repeat(sims, counts),
                        minlength=len(parent_uris),
                    )
                    touched = numpy.unique(pids)
                    sums = dense[touched]
                    order = numpy.lexsort((touched, -sums))
                    touched_list = touched.tolist()
                    sums_list = sums.tolist()
                    row = dict(
                        zip(
                            map(parent_uris.__getitem__, touched_list),
                            sums_list,
                        )
                    )
                    order_list = order.tolist()
                    ranked_uris = [
                        parent_uris[touched_list[j]] for j in order_list
                    ]
                    ranked_scores = [sums_list[j] for j in order_list]
                else:
                    row, ranked_uris, ranked_scores = {}, [], []
            else:
                unordered: dict[str, float] = {}
                reverse2 = tables.reverse2
                for value2_id, sim in self._value_index.ranked_ids(1, target):
                    for parent in reverse2.get(value2_id, ()):
                        unordered[parent] = unordered.get(parent, 0.0) + sim
                # Re-key in URI order to match the NumPy path's row
                # iteration order (merges accumulate identically).
                row = dict(sorted(unordered.items()))
                ranked = sorted(
                    zip(map(operator.neg, row.values()), row, row.values())
                )
                ranked_uris = [uri for _, uri, _ in ranked]
                ranked_scores = [score for _, _, score in ranked]
            entry = (row, ranked_uris, ranked_scores)
            if len(memo) < _NEIGHBOR_MEMO_LIMIT:
                memo[target] = entry
        return entry

    def _h1_online(
        self, record: "EntityDescription", tables: _ResolverTables
    ) -> Match | None:
        """H1 for a query record: a name nobody in KB1 carries, and
        exactly one KB2 entity does.  Name keys scan in sorted order so
        a record with several unique names resolves deterministically,
        mirroring the batch heuristic's sorted-block walk."""
        extractor = names_from_attributes(self._name_attributes1)
        names1, names2 = tables.names1, tables.names2
        for key in sorted(name_keys(record, extractor)):
            if key in names1:
                continue
            sole = names2.get(key)
            if sole is not None:
                return Match(record.uri, sole, "H1")
        return None

    def _h4_reciprocal(
        self,
        uri2: str,
        value_uris: list[str],
        neighbor_uris: list[str],
        value_score: float,
        neighbor_score: float,
        k: int,
    ) -> bool:
        """Would the pair survive H4 if the record were inserted?

        The record's side is literal (is ``uri2`` in its lists); the
        KB2 side is counterfactual: the record enters ``uri2``'s top-k
        value list when its score ties or beats the current k-th row,
        and its (co-occurrence-restricted) neighbor list likewise.
        """
        if uri2 not in value_uris and uri2 not in neighbor_uris:
            return False
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
        where the list is shorter than ``k`` (any score enters).
        Evidence is immutable per resolver, so the bars memoize —
        serving streams keep deciding against the same few matched
        entities."""
        key = (uri2, k)
        memo = self._h4_memo
        entry = memo.get(key)
        if entry is None:
            value_ids, value_sims = self._value_index.csr_row(2, uri2)
            neighbor_ids, neighbor_sims = self._neighbor_index.csr_row(2, uri2)
            value_bar = value_sims[k - 1] if len(value_sims) >= k else None
            kept = kept_neighbor_offsets(
                value_ids,
                neighbor_ids,
                self._ensure_tables().translation2,
                k,
                self._config.restrict_h3_to_cooccurring,
            )
            neighbor_bar = neighbor_sims[kept[-1]] if len(kept) >= k else None
            entry = (value_bar, neighbor_bar)
            if len(memo) < _NEIGHBOR_MEMO_LIMIT:
                memo[key] = entry
        return entry

    def __repr__(self) -> str:
        built = "warm" if self._tables is not None else "cold"
        return (
            f"OnlineResolver({len(self._kb1)}+{len(self._kb2)} entities, "
            f"{built})"
        )


#: Distinguishes "memoized as absent" from "never looked up".
_UNSEEN = object()
