"""Incremental matching with batch-parity guarantees.

An :class:`IncrementalMatcher` is a :class:`~repro.pipeline.session.
MatchSession` whose blocking artifacts are *maintained*.  It accepts
entity deltas — ``add_entities`` / ``remove_entities`` on either KB —
and owns exactly the state that is O(delta) and exact by construction:

- the two :class:`~repro.blocking.placements.PlacementTable` s (token
  keys and name keys of every entity, purged and one-sided keys
  included) — the very tables the cold blocking stages published, so
  no entity is keyed twice and a delta keys only the entities it adds;
- the purging decision, taken from the tables' side sizes;
- the check that the discovered name attributes still hold — when a
  delta moves them, the name-blocking stage is left to run and the
  matcher adopts the table it publishes.

Everything else belongs to the session's stage graph and runs through
the one code path a cold run uses — literally: a cold
``MinoanER.match`` is a one-shot session, and every stage of every run
executes in ``MatchSession.run_context``.  On a pending delta the matcher
reassembles ``token_blocks`` / ``purging_report`` (and ``name_blocks``
/ ``name_attributes1/2``) from its tables through the stages' own
``artifacts`` — the assembly a cold run uses — calls
``session.invalidate("kb1")``, seeds the blocking stages' cache entries
with those artifacts and runs the session: the two similarity indices,
the decisions *and any custom stage of the graph* re-run because
nothing cached survives a KB change — not because the matcher lists
them.  (Why rebuild the indices rather than patch pairs:
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

A delta mutates no artifact but the two placement tables the matcher
owns (see :class:`IncrementalMatcher`) — reassembled blocks and rebuilt
indices are new objects, so a serving generation keeps a frozen view —
and the matcher keeps no superseded generation alive.  Stages the session ran count in
:attr:`stage_recomputes` (``session.stage_runs``), blocking stages
seeded from the tables in :attr:`delta_updates`.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Any, Iterable

from ..blocking.placements import entity_key_rows
from ..core.statistics import top_name_attributes
from ..obs.runtime import Telemetry, activate, current as current_telemetry
from ..pipeline.stages import (
    NameBlockingStage,
    NeighborIndexStage,
    TokenBlockingStage,
)

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


def _validate_blocking(graph: "StageGraph") -> None:
    """Raise when the placement tables could not stand in for the
    graph's blocking: ``token_blocks`` (and ``name_blocks``, when
    present) must come from the built-in stage that publishes them.
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


class IncrementalMatcher:
    """Delta-updatable matching over a :class:`MatchSession`.

    **Table ownership.**  The matcher adopts the placement tables its
    session's context published (``token_placements`` /
    ``name_placements``) and from then on owns and mutates them: a delta
    places and withdraws entities in them, and a refresh seeds them back
    into the session beside the blocks assembled from them.  A
    :class:`~repro.serve.ServingState` holds the assembled blocks and the
    indices, which a delta never mutates; its resolver reads the name
    table once, at publish, and keeps a copy of the keys H1 needs — so
    the tables themselves need no copy.
    """

    def __init__(
        self,
        session: "MatchSession",
        telemetry: "Telemetry | None" = None,
    ) -> None:
        """Validate the session's graph, run it (the cold pass on a fresh
        session; a pure cache restore on one that matched or was seeded
        from a snapshot) and adopt its placement tables."""
        _validate_blocking(session.graph)
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
        #: How many delta batches were applied (a count: a long-lived
        #: daemon must not keep every batch's URIs alive).
        self.deltas_applied = 0
        #: The artifact store of the last :meth:`match`.
        self.last_context: "PipelineContext | None" = None
        self._token_keyer = TokenBlockingStage.keyer()
        self._pending = False
        with activate(telemetry):
            self._adopt_tables(self._run())

    def _adopt_tables(self, ctx: "PipelineContext") -> None:
        """Take the placement tables (and the name attributes they were
        keyed under, with the KB versions they hold for) that ``ctx``'s
        blocking stages published; a token-only graph publishes no name
        table.  The neighbor stage keeps ``ctx``'s top relations and
        neighbors too, so a delta re-derives only the touched side's."""
        self._tokens = ctx.get("token_placements")
        self._names = ctx.get_or("name_placements")
        self._name_attrs = (
            ctx.get_or("name_attributes1"),
            ctx.get_or("name_attributes2"),
        )
        self._name_versions = tuple(kb.version for kb in self.kbs)
        for stage in self.graph:
            if isinstance(stage, NeighborIndexStage):
                stage.hold(ctx)

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
        from ..store import load_session

        return cls(
            load_session(path, engine=engine, workers=workers, mode=mode),
            telemetry,
        )

    def save(self, path):
        """Snapshot the matcher's current (post-delta) state.

        Pending deltas are refreshed (via :meth:`match`) first, so the
        snapshot always describes a consistent, decision-complete state;
        a later :meth:`from_snapshot` + batch run on the same KBs is
        bit-identical.  Returns the snapshot directory path.
        """
        from ..store import validate_snapshotable_graph, write_session_snapshot

        validate_snapshotable_graph(self.graph, self.config)
        if self.last_context is None or self._pending:
            self.match()
        return write_session_snapshot(
            path, self.last_context, list(self.graph.names())
        )

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
        raise ValueError(
            f"unknown KB {kb_id!r}; use 1, 2, '1', '2', 'kb1' or 'kb2'"
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
        token_rows = entity_key_rows(batch, self._token_keyer)
        name_rows = (
            entity_key_rows(
                batch, NameBlockingStage.keyer(self._name_attrs[side - 1])
            )
            if self._names is not None
            else []
        )
        for entity in batch:
            kb.add(entity)
        for uri, keys in token_rows:
            self._tokens.add_entity(side, uri, keys)
        for uri, keys in name_rows:
            self._names.add_entity(side, uri, keys)
        self.deltas_applied += 1
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
        self.deltas_applied += 1
        self._pending = True
        return len(batch)

    # ------------------------------------------------------------------
    # Refresh: hand the reassembled blocking artifacts to the session
    # ------------------------------------------------------------------
    def _name_artifacts(self) -> dict[str, Any]:
        """The name-blocking artifacts from the maintained table — or
        nothing when a delta moved a side's discovered name attributes:
        every name key of that side is then suspect, so the stage itself
        is left to run and its fresh table is adopted afterwards.  Only
        a side whose KB version moved is re-derived."""
        attributes = tuple(
            held
            if kb.version == version
            else top_name_attributes(kb, self.config.name_attributes)
            for kb, version, held in zip(
                self.kbs, self._name_versions, self._name_attrs
            )
        )
        if attributes != self._name_attrs:
            return {}
        return NameBlockingStage.artifacts(self._names, *attributes)

    def _run(self) -> "PipelineContext":
        """Run (or cache-restore) the session's graph, mirroring the
        stages that computed into ``incremental.stage_recomputes``."""
        ctx = self.session.run_context()
        current_telemetry().metrics.counter("incremental.stage_recomputes").inc(
            sum(ctx.stage_runs.values())
        )
        return ctx

    def refresh(self) -> bool:
        """Propagate pending deltas: reassemble the blocking artifacts,
        seed them into the invalidated session and run it.

        Returns True when anything was pending (:attr:`last_context` is
        then current).  Called by :meth:`match`.
        """
        if not self._pending:
            return False
        with activate(self.telemetry) as telemetry:
            span = partial(
                telemetry.tracer.span, category="stage", args={"delta": True}
            )
            seeds: dict[str, Any] = {}
            seconds: dict[str, float] = {}
            if self._names is not None:
                with span("name_blocking") as timed:
                    seeds.update(self._name_artifacts())
                seconds["name_blocking"] = timed.seconds
            with span("token_blocking") as timed:
                seeds.update(
                    TokenBlockingStage.artifacts(self._tokens, self.config)
                )
            seconds["token_blocking"] = timed.seconds
            self.session.invalidate("kb1")  # accepts the new KB versions
            self.session.seed_cache(seeds)
            self._pending = False
            ctx = self._run()
            self._adopt_tables(ctx)
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
            f"deltas={self.deltas_applied})"
        )
