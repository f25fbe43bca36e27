"""Incremental matching with batch-parity guarantees.

An :class:`IncrementalMatcher` is a :class:`~repro.pipeline.session.
MatchSession` whose blocking artifacts are *maintained*.  It accepts
entity deltas — ``add_entities`` / ``remove_entities`` on either KB —
and owns exactly the state that is O(delta) and exact by construction:

- the two :class:`DeltaBlockIndex` placement tables (token keys and
  name keys of every entity, purged and one-sided keys included), so a
  delta tokenizes / name-keys only the entities it adds;
- the purging decision, taken from the tables' side sizes;
- the check that the discovered name attributes still hold — when a
  delta moves them, that side's name keys are re-extracted wholesale
  and the name-blocking stage is left to run.

Everything else belongs to the session's stage graph and runs through
the one code path a cold run uses.  On a pending delta the matcher
reassembles ``token_blocks`` / ``purging_report`` (and ``name_blocks``
/ ``name_attributes1/2``) from its tables, calls
``session.invalidate("kb1")``, seeds the blocking stages' cache entries
with those artifacts and runs the session: the two similarity indices,
the candidates, the decisions *and any custom stage of the graph*
re-run because nothing cached survives a KB change — not because the
matcher lists them.  (Why rebuild the indices rather than patch pairs:
``valueSim`` weighs a token by its block's side sizes, so a 2-entity
delta moves 30–60 % of all pairs on the benchmark profiles —
``docs/PERFORMANCE.md``.)

**The parity contract.**  After any sequence of deltas, ``match()``
returns exactly what a cold batch ``match()`` on the final KB state
returns — bit-identical matches, scores, block collections and index
floats.  From the value index on this holds by construction (same
stages, same inputs); the maintained state is discrete (sets and
integers), so its upkeep equals a cold computation; and the mutable
:class:`~repro.kb.knowledge_base.KnowledgeBase` preserves the iteration
order the greedy heuristics depend on (removals keep relative order,
re-adds append).

A delta never mutates a published artifact — reassembled blocks and
rebuilt indices are new objects, so a serving generation or a saved
context keeps a frozen view — and the matcher keeps no superseded
generation alive.  Stages the session ran count in
:attr:`stage_recomputes` (``session.stage_runs``), blocking stages
seeded from the tables in :attr:`delta_updates`.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Any, Iterable

from ..blocking.name_blocking import names_from_attributes
from ..blocking.packed import PackedBlockCollection
from ..blocking.purging import purge_decision_from_sizes
from ..core.statistics import top_name_attributes
from ..engine.blocking import (
    entity_key_rows,
    name_keys,
    placement_rows,
    token_keys,
)
from ..engine.executor import create_executor
from ..kb.tokenizer import Tokenizer
from ..obs.runtime import Telemetry, activate, current as current_telemetry
from ..pipeline.stages import NameBlockingStage, TokenBlockingStage
from .blocks import DeltaBlockIndex

if TYPE_CHECKING:  # pragma: no cover - types only
    from ..core.pipeline import MatchResult
    from ..kb.entity import EntityDescription
    from ..pipeline.context import PipelineContext
    from ..pipeline.session import MatchSession
    from ..pipeline.stage import StageGraph

#: Stages the session's graph must have for the matcher to maintain its
#: blocking (``name_blocking`` is optional — token-only compositions
#: work; every other stage is the graph's own business).
REQUIRED_STAGES = ("token_blocking",)


def _maintains_names(graph: "StageGraph") -> bool:
    """Whether ``graph`` has name blocking for the matcher to maintain.

    Raises when the placement tables could not stand in for the graph's
    blocking: ``token_blocks`` (and ``name_blocks``, when present) must
    come from the built-in stage whose keys the tables reproduce.
    """
    producers = {key: stage for stage in graph for key in stage.provides}
    problems = []
    for key, builtin in (
        ("token_blocks", TokenBlockingStage),
        ("name_blocks", NameBlockingStage),
    ):
        stage = producers.get(key)
        if stage is None:
            if builtin.name in REQUIRED_STAGES:
                problems.append(
                    f"the graph lacks required stage {builtin.name!r}"
                )
        elif type(stage) is not builtin:
            problems.append(
                f"{key!r} is produced by stage {stage.name!r} "
                f"({type(stage).__name__}), not by the built-in "
                f"{builtin.name!r} stage"
            )
    if problems:
        raise ValueError(
            "IncrementalMatcher maintains the placements of the built-in "
            "blocking stages only: " + "; ".join(problems) + ". Run other "
            "blocking compositions through MatchSession.match() instead."
        )
    return "name_blocks" in producers


class IncrementalMatcher:
    """Delta-updatable matching over a :class:`MatchSession`."""

    def __init__(
        self,
        session: "MatchSession",
        telemetry: "Telemetry | None" = None,
    ) -> None:
        self._adopt(session, telemetry)

    def _adopt(
        self,
        session: "MatchSession",
        telemetry: "Telemetry | None",
        tables: "tuple[DeltaBlockIndex, DeltaBlockIndex | None] | None" = None,
    ) -> None:
        """The one adoption path: validate the session's graph, run it,
        and take the placement tables — the ``(tokens, names)`` a
        snapshot restored, or every entity keyed once."""
        has_names = _maintains_names(session.graph)
        self.session = session
        self.config = session.config
        self.graph = session.graph
        self.kbs = (session.kb1, session.kb2)
        #: Optional pinned telemetry (see :class:`MatchSession`): when
        #: set, every run of this matcher records into it.
        self.telemetry = telemetry
        #: Blocking stages whose artifacts a delta reassembled from the
        #: placement tables instead of re-keying any untouched entity.
        self.delta_updates: dict[str, int] = {}
        #: Applied deltas, oldest first: (op, kb side, uris).
        self.delta_log: list[tuple[str, int, tuple[str, ...]]] = []
        #: The artifact store of the last :meth:`match`.
        self.last_context: "PipelineContext | None" = None
        self._tokenizer = Tokenizer(
            min_length=self.config.min_token_length,
            include_uri_localnames=self.config.include_uri_localnames,
        )
        self._pending = False
        with activate(telemetry):
            # The cold pass on a fresh session; a pure cache restore on
            # one that already matched or was seeded from a snapshot.
            ctx = self._run()
            self._name_attrs: list[list[str]] | None = (
                [ctx.get("name_attributes1"), ctx.get("name_attributes2")]
                if has_names
                else None
            )
            if tables is None:
                with self._engine() as engine:
                    token_rows, name_rows = placement_rows(
                        self.kbs, self._tokenizer, self._name_attrs, engine
                    )
                tables = (
                    DeltaBlockIndex.from_rows("BT", token_rows),
                    DeltaBlockIndex.from_rows("BN", name_rows)
                    if has_names
                    else None,
                )
        self._tokens, self._names = tables

    @property
    def stage_recomputes(self) -> dict[str, int]:
        """How often each stage actually computed: the session's own
        ``stage_runs`` (so runs the session made before it was wrapped
        count too; a warm-restarted session starts at zero)."""
        return self.session.stage_runs

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

        Adopts the loaded session (its stage cache seeded with every
        saved artifact) and the saved placement tables, so no entity is
        re-tokenized and no stage runs — not here, and not in the first
        :meth:`match`.  Deltas applied afterwards behave
        exactly as they would on the matcher that was saved —
        bit-identical to a cold batch run on the final KB state.
        ``engine``/``workers`` override the stored execution-engine
        fields; ``mode="mmap"`` maps column files instead of copying
        them (see :meth:`repro.store.Snapshot.load`).
        """
        from ..store import load_state

        state = load_state(path, engine=engine, workers=workers, mode=mode)
        matcher = cls.__new__(cls)
        matcher._adopt(state.session, telemetry, (state.tokens, state.names))
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
        uris = (self.kbs[0].uris(), self.kbs[1].uris())
        return write_session_snapshot(
            path,
            self.last_context,
            list(self.graph.names()),
            self._tokens.rows(uris),
            None if self._names is None else self._names.rows(uris),
        )

    # ------------------------------------------------------------------
    # Deltas
    # ------------------------------------------------------------------
    def _engine(self):
        return create_executor(self.config.engine, self.config.workers)

    def _name_keys(self, side: int):
        """The name keyer of ``side`` under its current name attributes."""
        return partial(
            name_keys,
            extractor=names_from_attributes(self._name_attrs[side - 1]),
        )

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
            token_rows = entity_key_rows(
                batch, partial(token_keys, tokenizer=self._tokenizer), engine
            )
            name_rows = (
                entity_key_rows(batch, self._name_keys(side), engine)
                if self._names is not None
                else []
            )
        for entity in batch:
            kb.add(entity)
        for uri, keys in token_rows:
            self._tokens.add_entity(side, uri, keys)
        for uri, keys in name_rows:
            self._names.add_entity(side, uri, keys)
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
            # mid-loop failure would leave KB and tables half-updated
            # with the delta unlogged — silent parity corruption.
            raise KeyError(
                f"missing or duplicated for KB{side}: {sorted(set(rejected))}"
            )
        for uri in batch:
            kb.remove(uri)
            self._tokens.remove_entity(side, uri)
            if self._names is not None:
                self._names.remove_entity(side, uri)
        self.delta_log.append(("remove", side, tuple(batch)))
        self._pending = True
        return len(batch)

    # ------------------------------------------------------------------
    # Refresh: hand the reassembled blocking artifacts to the session
    # ------------------------------------------------------------------
    def _token_artifacts(self) -> dict[str, Any]:
        """The purge decision and the kept token blocks, from the
        maintained side sizes — exactly
        :func:`~repro.blocking.purging.purge_blocks` over the assembled
        collection, in the columnar form the cold stage produces."""
        config = self.config
        shared = self._tokens.shared_counts()
        if config.purge_token_blocks:
            kept, report = purge_decision_from_sizes(
                shared,
                gain_factor=config.purging_gain_factor,
                max_cardinality=config.purging_max_cardinality,
            )
        else:
            kept, report = set(shared), None
        blocks = PackedBlockCollection.from_collection(
            self._tokens.assemble(keep=kept)
        )
        return {"token_blocks": blocks, "purging_report": report}

    def _name_artifacts(self, engine) -> dict[str, Any]:
        """The name blocks and attributes — or nothing when a delta moved
        a side's discovered name attributes: every name key of that side
        is then suspect, so the side is re-keyed wholesale for later
        deltas and the stage itself is left to run."""
        moved = False
        for side, kb in enumerate(self.kbs, start=1):
            attributes = top_name_attributes(kb, self.config.name_attributes)
            if attributes != self._name_attrs[side - 1]:
                self._name_attrs[side - 1] = attributes
                self._names.load_side(
                    side, entity_key_rows(kb, self._name_keys(side), engine)
                )
                moved = True
        if moved:
            return {}
        return {
            "name_blocks": self._names.assemble(),
            "name_attributes1": self._name_attrs[0],
            "name_attributes2": self._name_attrs[1],
        }

    def _run(self) -> "PipelineContext":
        """Run (or cache-restore) the session's graph, mirroring the
        stages that computed into ``incremental.stage_recomputes``."""
        ctx = self.session.run_context()
        current_telemetry().metrics.counter("incremental.stage_recomputes").inc(
            sum(ctx.stage_runs.values())
        )
        return ctx

    def refresh(self, engine=None) -> bool:
        """Propagate pending deltas: reassemble the blocking artifacts,
        seed them into the invalidated session and run it.

        Returns True when anything was pending (:attr:`last_context` is
        then current).  Called by :meth:`match`; ``engine`` serves a
        wholesale name re-key and defaults to one built from the config.
        """
        if not self._pending:
            return False
        if engine is None:
            with self._engine() as owned:
                return self.refresh(owned)
        with activate(self.telemetry) as telemetry:
            span = partial(
                telemetry.tracer.span, category="stage", args={"delta": True}
            )
            seeds: dict[str, Any] = {}
            seconds: dict[str, float] = {}
            if self._names is not None:
                with span("name_blocking") as timed:
                    seeds.update(self._name_artifacts(engine))
                seconds["name_blocking"] = timed.seconds
            with span("token_blocking") as timed:
                seeds.update(self._token_artifacts())
            seconds["token_blocking"] = timed.seconds
            self.session.invalidate("kb1")  # accepts the new KB versions
            self.session.seed_cache(seeds)
            self._pending = False
            ctx = self._run()
            for stage, elapsed in seconds.items():
                # The blocking keys carry the assembly (beside the restore).
                ctx.record_stage(
                    stage, self.graph.stage(stage).timing_group, elapsed, ran=False
                )
                if not ctx.stage_runs[stage]:
                    self.delta_updates[stage] = (
                        self.delta_updates.get(stage, 0) + 1
                    )
                    telemetry.metrics.counter("incremental.delta_updates").inc()
        self.last_context = ctx
        return True

    # ------------------------------------------------------------------
    # Matching
    # ------------------------------------------------------------------
    def match(self) -> "MatchResult":
        """Matches for the current KB state (bit-identical to a cold run).

        A pending delta re-runs every stage downstream of blocking
        (H1–H3 are order-dependent greedy passes over the whole KB, so
        they have no delta form); with nothing pending the whole graph
        restores from the session's cache.
        """
        from ..core.pipeline import MatchResult

        with activate(self.telemetry) as telemetry:
            with telemetry.tracer.span(
                "run", category="run", args={"kind": "incremental"}
            ) as run_span:
                if not self.refresh():
                    self.last_context = self._run()
        return MatchResult.from_context(self.last_context, run_span.seconds)

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
