"""Incremental matching with batch-parity guarantees.

An :class:`IncrementalMatcher` wraps a :class:`~repro.pipeline.session.
MatchSession` and accepts entity deltas — ``add_entities`` /
``remove_entities`` on either KB.  A delta keeps what is O(delta) and
exact by construction *maintained*, and *rebuilds* the rest through the
batch kernels:

- **maintained** — tokenizing / name-keying only the added entities,
  the per-side block placements (:class:`DeltaBlockIndex`), the purging
  decision (taken from maintained side sizes), the name blocks, the
  top-relation check and the top-neighbor sets of the entities a delta
  touches.  All discrete (set/integer) state, so incremental upkeep
  equals a cold computation.
- **rebuilt** — the value and neighbor similarity indices, by the very
  :func:`~repro.engine.similarity.build_value_index` /
  :func:`~repro.engine.similarity.build_neighbor_index` calls a cold
  run makes, over the maintained blocks and top-neighbor sets.  The
  paper's ``valueSim`` weighs a shared token by its block's side sizes,
  so one added or removed entity re-weights every pair of each of its
  token blocks and ``neighborNSim`` fans that out again: on the
  benchmark profiles a 2-entity delta moves 30–60 % of all pairs, and
  replaying those one by one lost to the vectorized builders on every
  delta measured (``docs/PERFORMANCE.md``).

**The parity contract.**  After any sequence of deltas, ``match()``
returns exactly what a cold batch ``match()`` on the final KB state
returns — bit-identical matches, scores, block collections and index
floats.  For the indices this holds by construction (same code path,
same inputs); the matching heuristics are deterministic functions of
the prepared artifacts and the KB iteration order, which the mutable
:class:`~repro.kb.knowledge_base.KnowledgeBase` preserves under deltas
(removals keep relative order, re-adds append).

A refresh never mutates a published artifact: every delta overlays
*new* block collections and index objects, so whoever holds the
previous ones (a serving generation, a saved context) keeps a frozen
view.  Rebuilt stages count in :attr:`stage_recomputes`, maintained
ones in :attr:`delta_updates`; when a delta moves the discovered name
attributes that side's name keys are re-extracted wholesale (counted
as a recompute).  Delta work dispatches through the same partitioned
execution engine as the batch stages.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Iterable

from ..blocking.name_blocking import names_from_attributes, normalize_name
from ..blocking.packed import PackedBlockCollection
from ..blocking.purging import PurgingReport, purge_decision_from_sizes
from ..core.statistics import top_name_attributes, top_relations
from ..core.neighbors import top_neighbors
from ..engine.executor import create_executor
from ..engine.partitioner import hash_partitions, partition_count
from ..engine.similarity import build_neighbor_index, build_value_index
from ..kb.graph import inverse
from ..kb.tokenizer import Tokenizer
from ..obs.runtime import Telemetry, activate, current as current_telemetry
from ..pipeline.context import PipelineContext
from ..pipeline.delta import DeltaContext
from .blocks import DeltaBlockIndex

if TYPE_CHECKING:  # pragma: no cover - types only
    from ..core.pipeline import MatchResult
    from ..kb.entity import EntityDescription
    from ..pipeline.session import MatchSession

#: Stages the incremental matcher maintains; the session's graph must be
#: exactly these (name_blocking optional — token-only compositions work).
REQUIRED_STAGES = (
    "token_blocking",
    "value_index",
    "neighbor_index",
    "candidates",
    "matching",
)


def _token_key_rows(
    entities: list["EntityDescription"], tokenizer: Tokenizer
) -> list[tuple[str, frozenset[str]]]:
    """(uri, token keys) of one entity partition (engine worker)."""
    return [(e.uri, frozenset(tokenizer.token_set(e))) for e in entities]


def _name_key_rows(
    entities: list["EntityDescription"], extractor
) -> list[tuple[str, frozenset[str]]]:
    """(uri, normalized name keys) of one entity partition (engine worker)."""
    rows = []
    for entity in entities:
        keys = frozenset(
            key
            for key in (normalize_name(raw) for raw in extractor(entity))
            if key
        )
        rows.append((entity.uri, keys))
    return rows


def _merge_rows(rows: list, partial_rows: list) -> list:
    rows.extend(partial_rows)
    return rows


class IncrementalMatcher:
    """Delta-updatable matching over a completed :class:`MatchSession`."""

    def __init__(
        self,
        session: "MatchSession",
        telemetry: "Telemetry | None" = None,
    ) -> None:
        self._init_state(session)
        self.telemetry = telemetry
        with activate(self.telemetry):
            self._bootstrap()

    def _init_state(self, session: "MatchSession") -> None:
        """Validate the session's graph and set up every maintained field
        (shared by the cold :meth:`__init__` and the warm
        :meth:`from_snapshot` paths; neither artifact bootstrap nor
        restore happens here)."""
        from ..pipeline.stage import declares_delta_hook

        names = session.graph.names()
        custom = set(names) - set(REQUIRED_STAGES) - {"name_blocking"}
        # Custom stages overriding Stage.apply_delta opt in to the
        # rerun-on-refresh fallback; the rest keep the strict check.
        hooked = {
            name
            for name in custom
            if declares_delta_hook(session.graph.stage(name))
        }
        unsupported = custom - hooked
        missing = [name for name in REQUIRED_STAGES if name not in names]
        if unsupported or missing:
            problems = []
            if unsupported:
                problems.append(
                    "it cannot maintain deltas for custom stage(s) "
                    + ", ".join(repr(name) for name in sorted(unsupported))
                )
            if missing:
                problems.append(
                    "the graph lacks required stage(s) "
                    + ", ".join(repr(name) for name in sorted(missing))
                )
            raise ValueError(
                "IncrementalMatcher supports the default stage composition "
                "only: " + "; ".join(problems) + ". A custom stage may "
                "declare a delta hook (the escape hatch: override "
                "Stage.apply_delta) to opt in to rerun-on-refresh; "
                "otherwise run custom compositions through "
                "MatchSession.match() instead."
            )
        #: Hook-declaring custom stages, in graph order — re-run by
        #: every :meth:`match` alongside candidates/matching.
        self._delta_hook_stages = tuple(
            name for name in names if name in hooked
        )
        self.session = session
        self.config = session.config
        self.graph = session.graph
        self.kbs = (session.kb1, session.kb2)
        self._has_names = "name_blocking" in names
        #: Full stage-equivalent recomputations (bootstrap counts as one
        #: cold run); the parity harness asserts delta refreshes stay
        #: strictly below a cold run's stage count.
        self.stage_recomputes: dict[str, int] = {}
        #: Artifacts brought up to date from maintained state, without
        #: re-deriving any untouched entity's keys, by stage name.
        self.delta_updates: dict[str, int] = {}
        #: Applied deltas, oldest first: (op, kb side, uris).
        self.delta_log: list[tuple[str, int, tuple[str, ...]]] = []
        self.last_context: PipelineContext | None = None

        self._tokenizer = Tokenizer(
            min_length=self.config.min_token_length,
            include_uri_localnames=self.config.include_uri_localnames,
        )
        self._tokens = DeltaBlockIndex("BT")
        self._names = DeltaBlockIndex("BN")
        self._name_attrs: list[list[str]] = [[], []]
        self._top_rels: list[list[str]] = [[], []]
        self._top_nbrs: list[dict[str, set[str]]] = [{}, {}]
        self._refs: list[dict[str, set[str]]] = [{}, {}]
        self._tn_dirty: list[set[str]] = [set(), set()]
        self._pending = False
        self._stage_seconds: dict[str, tuple[float, bool]] = {}
        #: Optional pinned telemetry (see :class:`MatchSession`): when
        #: set, every bootstrap/refresh/match runs under it.
        self.telemetry: "Telemetry | None" = None

    # ------------------------------------------------------------------
    # Warm restart (snapshot store)
    # ------------------------------------------------------------------
    @classmethod
    def from_snapshot(
        cls,
        path,
        *,
        engine: str | None = None,
        workers: int | None = None,
        telemetry: "Telemetry | None" = None,
        mode: str = "copy",
    ) -> "IncrementalMatcher":
        """A matcher warm-restarted from a ``repro-snapshot/1`` directory.

        Loads the saved placements, indices and top-neighbor sets
        instead of running :meth:`_bootstrap`'s cold pass, so no entity
        is re-tokenized and no index is re-accumulated.  Deltas applied
        afterwards behave exactly as they would on the matcher that was
        saved — bit-identical to a cold batch run on the final KB state.
        ``engine``/``workers`` override the stored execution-engine
        fields; ``mode="mmap"`` maps column files instead of copying
        them (see :meth:`repro.store.Snapshot.load`).
        """
        from ..store import load_state

        state = load_state(path, engine=engine, workers=workers, mode=mode)
        matcher = cls.__new__(cls)
        matcher._init_state(state.session)
        matcher.telemetry = telemetry
        matcher._restore(state)
        return matcher

    def save(self, path):
        """Snapshot the matcher's current (post-delta) state.

        Pending deltas are refreshed (via :meth:`match`) first, so the
        snapshot always describes a consistent, decision-complete state;
        a later :meth:`from_snapshot` + batch run on the same KBs is
        bit-identical.  Returns the snapshot directory path.
        """
        from ..store import validate_snapshotable_graph, write_session_snapshot

        validate_snapshotable_graph(self.graph)
        if self.last_context is None or self._pending:
            self.match()
        ctx = self.last_context
        kb1, kb2 = self.kbs
        token_rows = tuple(
            [(uri, self._tokens.entity_keys(side, uri)) for uri in kb.uris()]
            for side, kb in ((1, kb1), (2, kb2))
        )
        name_rows = None
        if self._has_names:
            name_rows = tuple(
                [(uri, self._names.entity_keys(side, uri)) for uri in kb.uris()]
                for side, kb in ((1, kb1), (2, kb2))
            )
        return write_session_snapshot(
            path,
            kb1=kb1,
            kb2=kb2,
            config=self.config,
            graph_names=list(self.graph.names()),
            ctx=ctx,
            token_rows=token_rows,
            name_rows=name_rows,
            top_neighbors=(self._top_nbrs[0], self._top_nbrs[1]),
        )

    def _restore(self, state) -> None:
        """Adopt a :class:`~repro.store.RestoredState` in place of the
        cold bootstrap (fields mirror :meth:`_bootstrap`'s, loaded
        instead of computed; recompute counters stay at zero — nothing
        was recomputed)."""
        self._tokens = state.tokens
        if self._has_names:
            self._names = state.names
            self._name_blocks = state.artifacts["name_blocks"]
            self._name_attrs = [
                list(state.artifacts["name_attributes1"]),
                list(state.artifacts["name_attributes2"]),
            ]
        self._top_rels = [
            list(state.artifacts["top_relations1"]),
            list(state.artifacts["top_relations2"]),
        ]
        self._top_nbrs = [
            dict(state.top_neighbors[0]),
            dict(state.top_neighbors[1]),
        ]
        for side in (1, 2):
            self._index_references(side)
        self._purging_report = state.artifacts["purging_report"]
        self._token_blocks = state.artifacts["token_blocks"]
        self._value_index = state.artifacts["value_index"]
        self._neighbor_index = state.artifacts["neighbor_index"]
        base = PipelineContext(self.kbs[0], self.kbs[1], self.config)
        self._publish_artifacts(base, producer="snapshot")
        self._base_ctx = base

    # ------------------------------------------------------------------
    # Bootstrap (one cold pass over the current KB state)
    # ------------------------------------------------------------------
    def _engine(self):
        return create_executor(self.config.engine, self.config.workers)

    def _keys_via_engine(self, entities, worker, engine):
        """Re-key ``entities`` through the partitioned engine."""
        shards = hash_partitions(
            list(entities),
            partition_count(len(entities)),
            key=lambda entity: entity.uri,
        )
        return engine.run(worker, shards, _merge_rows, [])

    def _count(self, counters: dict[str, int], stage: str) -> None:
        counters[stage] = counters.get(stage, 0) + 1
        kind = (
            "stage_recomputes"
            if counters is self.stage_recomputes
            else "delta_updates"
        )
        current_telemetry().metrics.counter(f"incremental.{kind}").inc()

    def _bootstrap(self) -> None:
        config = self.config
        with current_telemetry().tracer.span(
            "bootstrap", category="run", args={"kind": "incremental"}
        ), self._engine() as engine:
            token_worker = partial(_token_key_rows, tokenizer=self._tokenizer)
            for side in (1, 2):
                kb = self.kbs[side - 1]
                self._tokens.load_side(
                    side, self._keys_via_engine(kb, token_worker, engine)
                )
                if self._has_names:
                    attrs = top_name_attributes(kb, config.name_attributes)
                    self._name_attrs[side - 1] = attrs
                    self._names.load_side(
                        side,
                        self._keys_via_engine(
                            kb,
                            partial(
                                _name_key_rows,
                                extractor=names_from_attributes(attrs),
                            ),
                            engine,
                        ),
                    )
                self._top_rels[side - 1] = top_relations(
                    kb, config.top_n_relations, config.include_incoming_edges
                )
                self._top_nbrs[side - 1] = top_neighbors(
                    kb,
                    self._top_rels[side - 1],
                    config.include_incoming_edges,
                )
                self._index_references(side)

            self._assemble_token_blocks()
            self._value_index = build_value_index(self._token_blocks, engine)
            self._neighbor_index = build_neighbor_index(
                self._value_index,
                self._top_nbrs[0],
                self._top_nbrs[1],
                engine,
            )
            if self._has_names:
                self._name_blocks = self._names.assemble()
                self._count(self.stage_recomputes, "name_blocking")
            for stage in ("token_blocking", "value_index", "neighbor_index"):
                self._count(self.stage_recomputes, stage)

        base = PipelineContext(self.kbs[0], self.kbs[1], config)
        self._publish_artifacts(base, producer="bootstrap")
        self._base_ctx = base

    def _index_references(self, side: int) -> None:
        """(Re)build one side's ``target -> {subjects}`` reference index
        (the incoming direction of per-entity top-neighbor upkeep)."""
        refs: dict[str, set[str]] = {}
        for entity in self.kbs[side - 1]:
            for _, target in entity.relation_pairs():
                refs.setdefault(target, set()).add(entity.uri)
        self._refs[side - 1] = refs

    def _assemble_token_blocks(self) -> None:
        """Purge decision + the kept token blocks, from maintained sizes.

        Assembled once, in the columnar form the cold token-blocking
        stage produces: the value-index builder reads its CSR rows and
        member interners directly, and the online resolver's tables
        (built at every publish) need no re-encoding of a string view.
        """
        kept, self._purging_report = self._purge_decision()
        self._token_blocks = PackedBlockCollection.from_collection(
            self._tokens.assemble(keep=kept)
        )

    def _publish_artifacts(self, ctx: PipelineContext, producer: str) -> None:
        if self._has_names:
            ctx.put("name_blocks", self._name_blocks, producer=producer)
            ctx.put("name_attributes1", list(self._name_attrs[0]), producer=producer)
            ctx.put("name_attributes2", list(self._name_attrs[1]), producer=producer)
        ctx.put("token_blocks", self._token_blocks, producer=producer)
        ctx.put("purging_report", self._purging_report, producer=producer)
        ctx.put("value_index", self._value_index, producer=producer)
        ctx.put("neighbor_index", self._neighbor_index, producer=producer)
        ctx.put("top_relations1", list(self._top_rels[0]), producer=producer)
        ctx.put("top_relations2", list(self._top_rels[1]), producer=producer)

    # ------------------------------------------------------------------
    # Deltas
    # ------------------------------------------------------------------
    def _side_of(self, kb_id) -> int:
        if kb_id in (1, 2):
            return kb_id
        if isinstance(kb_id, str):
            lowered = kb_id.lower()
            if lowered in ("1", "kb1"):
                return 1
            if lowered in ("2", "kb2"):
                return 2
            names = [kb.name for kb in self.kbs]
            if kb_id in names and names.count(kb_id) == 1:
                return names.index(kb_id) + 1
        raise ValueError(
            f"unknown KB {kb_id!r}; use 1/2, 'kb1'/'kb2' or a unique KB name"
        )

    def add_entities(
        self, kb_id, entities: Iterable["EntityDescription"]
    ) -> int:
        """Insert descriptions into one KB; evidence refreshes lazily.

        URIs must be new to that KB.  Returns the number added.
        """
        side = self._side_of(kb_id)
        kb = self.kbs[side - 1]
        batch = list(entities)
        uris = [entity.uri for entity in batch]
        seen: set[str] = set()
        duplicates = []
        for uri in uris:
            if uri in kb or uri in seen:
                duplicates.append(uri)
            seen.add(uri)
        if duplicates:
            raise ValueError(
                f"duplicate entity URIs for KB{side}: {sorted(set(duplicates))}"
            )
        if not batch:
            return 0
        with self._engine() as engine:
            token_rows = self._keys_via_engine(
                batch, partial(_token_key_rows, tokenizer=self._tokenizer), engine
            )
            name_rows = (
                self._keys_via_engine(
                    batch,
                    partial(
                        _name_key_rows,
                        extractor=names_from_attributes(
                            self._name_attrs[side - 1]
                        ),
                    ),
                    engine,
                )
                if self._has_names
                else []
            )
        token_keys = dict(token_rows)
        name_keys = dict(name_rows)
        refs = self._refs[side - 1]
        dirty = self._tn_dirty[side - 1]
        for entity in batch:
            kb.add(entity)
        for entity in batch:
            uri = entity.uri
            self._tokens.add_entity(side, uri, token_keys[uri])
            if self._has_names:
                self._names.add_entity(side, uri, name_keys[uri])
            for _, target in entity.relation_pairs():
                refs.setdefault(target, set()).add(uri)
                if target in kb:
                    dirty.add(target)
            dirty.add(uri)
            dirty.update(s for s in refs.get(uri, ()) if s in kb)
        self.delta_log.append(("add", side, tuple(uris)))
        self._pending = True
        return len(batch)

    def remove_entities(self, kb_id, uris: Iterable[str]) -> int:
        """Withdraw descriptions from one KB; evidence refreshes lazily.

        Every URI must exist in that KB.  Returns the number removed.
        """
        side = self._side_of(kb_id)
        kb = self.kbs[side - 1]
        batch = list(uris)
        seen: set[str] = set()
        rejected = []
        for uri in batch:
            if uri not in kb or uri in seen:  # absent, or repeated in-batch
                rejected.append(uri)
            seen.add(uri)
        if rejected:
            # Validate the whole batch before mutating anything: a
            # mid-loop failure would leave KB and indices half-updated
            # with the delta unlogged — silent parity corruption.
            raise KeyError(
                f"missing or duplicated for KB{side}: {sorted(set(rejected))}"
            )
        refs = self._refs[side - 1]
        dirty = self._tn_dirty[side - 1]
        for uri in batch:
            entity = kb.remove(uri)
            self._tokens.remove_entity(side, uri)
            if self._has_names:
                self._names.remove_entity(side, uri)
            for _, target in entity.relation_pairs():
                holders = refs.get(target)
                if holders is not None:
                    holders.discard(uri)
                    if not holders:
                        del refs[target]
                if target in kb:
                    dirty.add(target)
            dirty.add(uri)
            dirty.update(s for s in refs.get(uri, ()) if s in kb)
        self.delta_log.append(("remove", side, tuple(batch)))
        self._pending = True
        return len(batch)

    # ------------------------------------------------------------------
    # Refresh: propagate pending deltas through the evidence
    # ------------------------------------------------------------------
    def _purge_decision(self) -> tuple[set[str], PurgingReport | None]:
        """The surviving token keys (and report) for the current state.

        Exactly :func:`~repro.blocking.purging.purge_blocks` over the
        assembled collection, computed from maintained side sizes.
        """
        config = self.config
        shared = self._tokens.shared_counts()
        if not config.purge_token_blocks:
            return set(shared), None
        return purge_decision_from_sizes(
            shared,
            gain_factor=config.purging_gain_factor,
            max_cardinality=config.purging_max_cardinality,
        )

    @staticmethod
    def _delta_span(stage: str):
        return current_telemetry().tracer.span(
            stage, category="stage", args={"delta": True}
        )

    def _refreshed(self, stage: str, seconds: float, recomputed: bool) -> None:
        """Book one refreshed stage: its counter (rebuilt vs maintained)
        and the span-derived wall seconds :meth:`match` reports."""
        self._count(
            self.stage_recomputes if recomputed else self.delta_updates, stage
        )
        self._stage_seconds[stage] = (seconds, recomputed)

    def refresh(self, engine=None) -> bool:
        """Propagate pending deltas through every maintained artifact.

        Returns True when anything had to be refreshed.  Called
        automatically by :meth:`match`, which shares one executor across
        the refresh and the decision stages; standalone calls create
        (and close) their own.
        """
        if not self._pending:
            return False
        self._stage_seconds = {}
        if engine is None:
            with self._engine() as owned:
                return self.refresh(owned)
        with activate(self.telemetry):
            if self._has_names:
                with self._delta_span("name_blocking") as span:
                    rekeyed = self._refresh_names(engine)
                self._refreshed("name_blocking", span.seconds, rekeyed)
            with self._delta_span("token_blocking") as span:
                self._assemble_token_blocks()
            self._refreshed("token_blocking", span.seconds, False)
            # Both indices go through the batch builders — the code path
            # of a cold run, so parity needs no argument (module docstring).
            with self._delta_span("value_index") as span:
                self._value_index = build_value_index(self._token_blocks, engine)
            self._refreshed("value_index", span.seconds, True)
            with self._delta_span("neighbor_index") as span:
                self._refresh_top_neighbors()
                self._neighbor_index = build_neighbor_index(
                    self._value_index,
                    self._top_nbrs[0],
                    self._top_nbrs[1],
                    engine,
                )
            self._refreshed("neighbor_index", span.seconds, True)
        self._pending = False
        self._tn_dirty = [set(), set()]
        return True

    def _refresh_names(self, engine) -> bool:
        """Reassemble the name blocks; returns whether a side had to be
        re-keyed wholesale because its discovered name attributes moved."""
        rekeyed = False
        for side in (1, 2):
            kb = self.kbs[side - 1]
            attrs = top_name_attributes(kb, self.config.name_attributes)
            if attrs == self._name_attrs[side - 1]:
                continue
            # The discovered name attributes moved: every name key of
            # this side is suspect, so re-extract the whole side.
            self._name_attrs[side - 1] = attrs
            self._names.load_side(
                side,
                self._keys_via_engine(
                    kb,
                    partial(
                        _name_key_rows,
                        extractor=names_from_attributes(attrs),
                    ),
                    engine,
                ),
            )
            rekeyed = True
        self._name_blocks = self._names.assemble()
        return rekeyed

    def _refresh_top_neighbors(self) -> None:
        """Bring both sides' top-neighbor sets up to date.

        Only the entities a delta touched (``_tn_dirty``: the added or
        removed entity, its relation targets and its referrers) are
        re-derived — unless the relation importance ranking moved, in
        which case every set of that side is suspect and the side is
        recomputed wholesale.
        """
        config = self.config
        for side in (1, 2):
            kb = self.kbs[side - 1]
            rels = top_relations(
                kb, config.top_n_relations, config.include_incoming_edges
            )
            if rels != self._top_rels[side - 1]:
                self._top_rels[side - 1] = rels
                self._top_nbrs[side - 1] = top_neighbors(
                    kb, rels, config.include_incoming_edges
                )
                continue
            neighbors = self._top_nbrs[side - 1]
            for uri in sorted(self._tn_dirty[side - 1]):
                found = self._entity_top_neighbors(side, uri)
                if found:
                    neighbors[uri] = found
                else:
                    neighbors.pop(uri, None)

    def _entity_top_neighbors(self, side: int, uri: str) -> set[str]:
        """The top-neighbor set of one entity under the current rankings.

        Mirrors :func:`~repro.core.neighbors.top_neighbors` for a single
        entity, using the maintained reverse-reference index for the
        incoming direction.
        """
        kb = self.kbs[side - 1]
        entity = kb.get(uri)
        if entity is None:
            return set()
        wanted = set(self._top_rels[side - 1])
        found: set[str] = set()
        for relation, target in entity.relation_pairs():
            if relation in wanted and target in kb:
                found.add(target)
        if self.config.include_incoming_edges:
            for subject in self._refs[side - 1].get(uri, ()):
                if subject not in kb:
                    continue
                for relation, target in kb[subject].relation_pairs():
                    if target == uri and inverse(relation) in wanted:
                        found.add(subject)
                        break
        return found

    # ------------------------------------------------------------------
    # Matching
    # ------------------------------------------------------------------
    def match(self) -> "MatchResult":
        """Matches for the current KB state (bit-identical to a cold run).

        Refreshes pending deltas, overlays the refreshed artifacts on the
        bootstrap context through a :class:`DeltaContext`, and re-runs
        the decision stages (candidates + matching) — H1-H3 are
        order-dependent greedy passes over the whole KB, so they have no
        delta form.  Custom stages that declared the
        delta hook (:meth:`~repro.pipeline.stage.Stage.apply_delta`)
        are re-run too, in graph order — the fallback contract that
        keeps their artifacts consistent without a patch strategy.
        """
        from ..core.pipeline import MatchResult

        rerun = set(self._delta_hook_stages) | {"candidates", "matching"}
        rerun_order = [
            name for name in self.graph.names() if name in rerun
        ]
        with activate(self.telemetry) as telemetry:
            tracer = telemetry.tracer
            with tracer.span(
                "run", category="run", args={"kind": "incremental"}
            ) as run_span, self._engine() as engine:
                self.refresh(engine)
                refresh_sections = self._stage_seconds
                self._stage_seconds = {}  # consumed: a no-delta match reports nothing
                ctx = DeltaContext(self._base_ctx)
                self._publish_artifacts(ctx, producer="delta")
                for stage, (seconds, ran) in refresh_sections.items():
                    ctx.record_stage(
                        stage, self.graph.stage(stage).timing_group, seconds, ran=ran
                    )
                for name in rerun_order:
                    stage = self.graph.stage(name)
                    with tracer.span(
                        name,
                        category="stage",
                        args={"group": stage.timing_group},
                    ) as span:
                        stage.run(ctx, engine)
                    ctx.record_stage(
                        name,
                        stage.timing_group,
                        span.seconds,
                        ran=True,
                    )
                    self._count(self.stage_recomputes, name)
        self.last_context = ctx
        return MatchResult.from_context(ctx, run_span.seconds)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def counters(self) -> dict[str, dict[str, int]]:
        """Copies of the recompute/delta-update counters."""
        return {
            "recomputed": dict(self.stage_recomputes),
            "delta_updated": dict(self.delta_updates),
        }

    def __repr__(self) -> str:
        return (
            f"IncrementalMatcher({self.kbs[0].name!r}, {self.kbs[1].name!r}, "
            f"deltas={len(self.delta_log)})"
        )
