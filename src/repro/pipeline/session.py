"""Reusable match sessions with config-keyed artifact memoization.

A :class:`MatchSession` pins a KB pair and caches every stage's output
artifacts across ``match()`` calls.  The cache key of a stage is the
chain of (stage name, the values of the config fields the stage declares
in ``config_fields``, and the cache keys of the stages that produced its
required artifacts) — so changing one config field re-runs exactly the
stages that declare it plus everything downstream, while upstream
artifacts are restored from cache.  Ablation
benches and grid searches over matching parameters therefore pay for
blocking and indexing once.

The execution-engine fields (``engine``/``workers``) are deliberately
excluded from cache keys: executors are bit-identical by contract, so a
cached artifact is valid under any executor.

Example::

    session = MatchSession(kb1, kb2)
    full = session.match()                          # runs all stages
    no_h3 = session.match(heuristics=("h1", "h2", "h4"))  # matching only
    sweep = [session.match(theta=t) for t in thetas]  # matching stage only
    session.stage_runs["token_blocking"]            # -> 1
"""

from __future__ import annotations

from dataclasses import fields, replace
from typing import TYPE_CHECKING, Any

from ..engine.executor import create_executor
from ..obs.runtime import Telemetry, activate, current as current_telemetry
from .builder import PipelineBuilder
from .context import PipelineContext
from .stage import Stage, StageGraph, StageGraphError

if TYPE_CHECKING:  # pragma: no cover - types only
    from pathlib import Path

    from ..core.config import MinoanERConfig
    from ..core.pipeline import MatchResult
    from ..core.resolve import OnlineResolver
    from ..kb.knowledge_base import KnowledgeBase

#: Cache-key sentinel for the seeded inputs (fixed per session).
_INPUT_SIGNATURE = ("input",)


class StaleSessionError(RuntimeError):
    """The session's KBs were mutated after artifacts were cached.

    Cache keys are built from stage names and config fields — by
    construction they cannot see KB deltas, so a mutated-KB ``match()``
    would silently return pre-delta artifacts.  Callers must either
    route deltas through :class:`repro.incremental.IncrementalMatcher`
    (which keeps artifacts exactly consistent) or explicitly call
    :meth:`MatchSession.invalidate` to drop the affected cache entries.
    """

def _isolated(value):
    """A shallow copy for container artifacts crossing the cache boundary.

    List artifacts (matches, attribute/relation rankings) are routinely
    sorted/cleared by consumers; copying on store and on restore keeps
    the cache — and every returned ``MatchResult`` — safe from such
    mutations.  Heavy index/block objects pass by reference: they are
    treated as immutable evidence by contract (their internal caches
    only memoize pure lookups).
    """
    return value.copy() if isinstance(value, list) else value




class MatchSession:
    """Repeated matching of one KB pair with artifact reuse."""

    def __init__(
        self,
        kb1: "KnowledgeBase",
        kb2: "KnowledgeBase",
        config: "MinoanERConfig | None" = None,
        graph: StageGraph | None = None,
        telemetry: "Telemetry | None" = None,
    ) -> None:
        if config is None:
            from ..core.config import MinoanERConfig

            config = MinoanERConfig()
        self.kb1 = kb1
        self.kb2 = kb2
        self.config = config
        self.graph = graph or PipelineBuilder(config).build_graph()
        #: Optional pinned telemetry: activated around every run of this
        #: session, so callers that cannot wrap ``match()`` in
        #: ``repro.obs.activate`` themselves (CLI, services) still get a
        #: complete trace.  ``None`` defers to the ambient telemetry.
        self.telemetry = telemetry
        #: stage name -> times the stage actually computed (cache misses).
        self.stage_runs: dict[str, int] = {}
        self._cache: dict[tuple, dict[str, Any]] = {}
        self._config_fields = {f.name for f in fields(config)}
        self._kb_versions = (kb1.version, kb2.version)
        self._resolver: "OnlineResolver | None" = None

    # ------------------------------------------------------------------
    # Cache keys
    # ------------------------------------------------------------------
    def _stage_signature(
        self,
        stage: Stage,
        config: "MinoanERConfig",
        producer_signatures: dict[str, tuple],
    ) -> tuple:
        unknown = [
            name for name in stage.config_fields
            if name not in self._config_fields
        ]
        if unknown:
            raise ValueError(
                f"stage {stage.name!r} declares unknown config fields: "
                + ", ".join(unknown)
            )
        return (
            stage.name,
            tuple(
                (name, getattr(config, name)) for name in stage.config_fields
            ),
            tuple(
                producer_signatures.get(key, _INPUT_SIGNATURE)
                for key in stage.requires
            ),
        )

    # ------------------------------------------------------------------
    # Matching
    # ------------------------------------------------------------------
    def match(
        self, config: "MinoanERConfig | None" = None, **overrides
    ) -> "MatchResult":
        """Run the graph under ``config`` (default: the session's).

        Keyword overrides are config-field replacements, e.g.
        ``session.match(heuristics=("h1", "h2", "h4"), theta=0.4)``.
        """
        from ..core.pipeline import MatchResult

        with activate(self.telemetry):
            with current_telemetry().tracer.span(
                "run", category="run", args={"kind": "session"}
            ) as span:
                ctx = self.run_context(config, **overrides)
        return MatchResult.from_context(ctx, span.seconds)

    def run_context(
        self, config: "MinoanERConfig | None" = None, **overrides
    ) -> PipelineContext:
        """:meth:`match`'s engine room, returning the full artifact store.

        The only code that runs a stage: every stage runs (or is restored
        from the cache) inside a ``stage``-category span, whose seconds
        ``ctx.record_stage`` receives, and a stage that leaves one of its
        declared ``provides`` unset raises :class:`StageGraphError`.
        Returns the finished :class:`PipelineContext` — what digesting
        and snapshotting need, where :meth:`match` only keeps the result
        view.
        """
        current = (self.kb1.version, self.kb2.version)
        if current != self._kb_versions:
            raise StaleSessionError(
                f"KBs mutated since this session cached artifacts "
                f"(versions {self._kb_versions} -> {current}); call "
                "invalidate('kb1'/'kb2') to drop stale artifacts, or use "
                "repro.incremental.IncrementalMatcher for delta updates"
            )
        run_config = config if config is not None else self.config
        if overrides:
            run_config = replace(run_config, **overrides)

        with activate(self.telemetry) as telemetry:
            tracer = telemetry.tracer
            metrics = telemetry.metrics
            ctx = PipelineContext(self.kb1, self.kb2, run_config)
            producer_signatures: dict[str, tuple] = {}
            # The executor is only built on the first cache miss: a fully
            # cached replay must not pay worker-pool startup.
            engine = None
            try:
                for stage in self.graph:
                    signature = self._stage_signature(
                        stage, run_config, producer_signatures
                    )
                    for key in stage.provides:
                        producer_signatures[key] = signature
                    cached = self._cache.get(signature)
                    with tracer.span(
                        stage.name,
                        category="stage",
                        args={
                            "group": stage.timing_group,
                            "cached": cached is not None,
                        },
                    ) as span:
                        if cached is not None:
                            metrics.counter("session.cache_hits").inc()
                            for key, value in cached.items():
                                ctx.put(
                                    key,
                                    _isolated(value),
                                    producer=stage.name,
                                    cached=True,
                                )
                            ran = False
                        else:
                            metrics.counter("session.cache_misses").inc()
                            if engine is None:
                                engine = create_executor(
                                    run_config.engine, run_config.workers
                                )
                            stage.run(ctx, engine)
                            for key in stage.provides:
                                if not ctx.has(key):
                                    raise StageGraphError(
                                        f"stage {stage.name!r} declared "
                                        f"{key!r} but did not produce it"
                                    )
                            self._cache[signature] = {
                                key: _isolated(ctx.get(key))
                                for key in stage.provides
                            }
                            self.stage_runs[stage.name] = (
                                self.stage_runs.get(stage.name, 0) + 1
                            )
                            ran = True
                    ctx.record_stage(
                        stage.name,
                        stage.timing_group,
                        span.seconds,
                        ran=ran,
                    )
            finally:
                if engine is not None:
                    engine.close()
        return ctx

    # ------------------------------------------------------------------
    # Reads: probes of KB1 entities, resolves of never-seen records
    # ------------------------------------------------------------------
    def probe(self, uri: str, k: int | None = None):
        """Read-only resolution view of one E1 entity.

        Returns a :class:`~repro.core.resolve.ResolveResult`: the
        entity's top-``k`` value and neighbor candidates decoded
        straight from the packed CSR rows, its best value counterpart,
        and its standing match decision under the session's own config.
        The first read runs (or cache-restores) the pipeline; every
        later one is a pure decode that mutates no stage cache, so reads
        compose freely with ``match()`` calls.  ``k`` defaults to the
        config's ``top_k_candidates``.
        """
        return self._reads().probe(uri, k)

    def resolve(self, record, k: int | None = None):
        """Resolve one raw record against this session's indices.

        Returns a :class:`~repro.core.resolve.ResolveResult`: the
        record is tokenized, probed against the packed token blocks,
        scored (value + neighbor) and pushed through the online H1–H4
        ladder — all read-only.  A record whose URI already exists in
        KB1 answers with :meth:`probe`'s rows and standing decision.
        """
        return self._reads().resolve(record, k)

    def resolve_batch(self, records, k: int | None = None):
        """Resolve many records at once (amortized probes and scoring);
        equal to ``[self.resolve(r, k) for r in records]``."""
        return self._reads().resolve_batch(records, k)

    def _reads(self) -> "OnlineResolver":
        """The session's :class:`~repro.core.resolve.OnlineResolver`,
        built over the finished context on first use and dropped by
        :meth:`clear` and :meth:`invalidate`.  A read writes only the
        resolver's two byte-bounded memos and, once, side 2's ranking;
        nothing the resolver holds refers back to the session."""
        if self._resolver is None:
            from ..core.resolve import OnlineResolver

            self._resolver = OnlineResolver.from_context(
                self.run_context(), frozenset(self.kb1.uris())
            )
        return self._resolver

    # ------------------------------------------------------------------
    # Persistence (the columnar snapshot store)
    # ------------------------------------------------------------------
    def save(self, path) -> "Path":
        """Snapshot this session's KBs, config and stage artifacts.

        Runs the pipeline under the session config first (free when the
        artifacts are already cached), then writes a ``repro-snapshot/1``
        directory (see :mod:`repro.store`): KB columns, the rows of the
        blocking stages' placement tables (no entity is keyed again), both
        packed similarity indices, top-neighbor sets, decision artifacts
        and the run's ``context_digests``.  Only the default stage
        composition, running built-in heuristics, is snapshotable.
        """
        from ..store import validate_snapshotable_graph, write_session_snapshot

        validate_snapshotable_graph(self.graph, self.config)
        return write_session_snapshot(
            path, self.run_context(), list(self.graph.names())
        )

    @classmethod
    def load(
        cls,
        path,
        *,
        engine: str | None = None,
        workers: int | None = None,
        mode: str = "copy",
    ) -> "MatchSession":
        """Restore a saved session with its stage cache pre-seeded.

        ``match()`` under the saved configuration replays entirely from
        the restored artifacts — bit-identical to the run that was
        saved, without recomputing a single stage.  ``engine``/
        ``workers`` override the stored execution-engine fields (they
        never affect artifact identity); any *other* config change at
        ``match(...)`` time re-runs exactly the stages it taints, as
        usual.  ``mode="mmap"`` maps column files instead of copying
        them (see :meth:`repro.store.Snapshot.load`).
        """
        from ..store import load_session

        return load_session(path, engine=engine, workers=workers, mode=mode)

    def seed_cache(self, artifacts: dict[str, Any]) -> None:
        """Pre-populate the stage cache from artifacts computed elsewhere.

        Every stage whose ``provides`` the dict covers is seeded under
        the signature a cold run would compute, so subsequent
        ``match()`` calls treat the values exactly like previously
        computed ones; a stage the dict does not mention is left to run.
        A snapshot load covers every stage, a delta of the incremental
        matcher the blocking stages only.  Covering some of a stage's
        keys and not others is an error.
        """
        producer_signatures: dict[str, tuple] = {}
        for stage in self.graph:
            signature = self._stage_signature(
                stage, self.config, producer_signatures
            )
            for key in stage.provides:
                producer_signatures[key] = signature
            missing = [key for key in stage.provides if key not in artifacts]
            if len(missing) == len(stage.provides):
                continue
            if missing:
                raise KeyError(
                    f"cannot seed stage {stage.name!r}: missing artifacts "
                    f"{missing}"
                )
            self._cache[signature] = {
                key: _isolated(artifacts[key]) for key in stage.provides
            }

    # ------------------------------------------------------------------
    # Introspection / maintenance
    # ------------------------------------------------------------------
    def runs(self, stage_name: str) -> int:
        """How often a stage actually computed (0 = always cached)."""
        return self.stage_runs.get(stage_name, 0)

    def cached_artifacts(self) -> int:
        """Number of distinct (stage, signature) results held."""
        return len(self._cache)

    def clear(self) -> None:
        """Drop all cached artifacts (counters are kept)."""
        self._cache.clear()
        self._resolver = None
        self._kb_versions = (self.kb1.version, self.kb2.version)

    def invalidate(self, artifact: str) -> int:
        """Drop the cache entries an out-of-band change to ``artifact``
        taints: the stage producing it plus everything downstream.

        ``artifact`` is an artifact key, a stage name, or one of the
        seeded inputs (``kb1``/``kb2`` — these taint every stage).  After
        invalidation the session accepts the KBs' current versions, so a
        deliberate KB mutation becomes usable again:
        ``kb1.add(...); session.invalidate("kb1"); session.match()``.
        Returns the number of cache entries dropped.
        """
        from .stage import SEED_KEYS

        if artifact in SEED_KEYS:
            tainted = set(self.graph.names())
        else:
            producer = None
            for stage in self.graph:
                if stage.name == artifact or artifact in stage.provides:
                    producer = stage
                    break
            if producer is None:
                raise KeyError(
                    f"no stage of this session's graph produces {artifact!r}"
                )
            tainted = {producer.name}
            tainted_keys = set(producer.provides)
            for stage in self.graph:  # graph iterates in execution order
                if stage.name in tainted:
                    continue
                if tainted_keys & set(stage.requires):
                    tainted.add(stage.name)
                    tainted_keys.update(stage.provides)
        stale = [
            signature
            for signature in self._cache
            if signature[0] in tainted
        ]
        for signature in stale:
            del self._cache[signature]
        self._resolver = None
        if tainted >= set(self.graph.names()):
            # Only a full invalidation clears the staleness guard: a
            # narrow one leaves artifacts computed on the old KB state
            # in the cache, and match() must keep refusing to serve them.
            self._kb_versions = (self.kb1.version, self.kb2.version)
        return len(stale)

    def __repr__(self) -> str:
        return (
            f"MatchSession({self.kb1.name!r}, {self.kb2.name!r}, "
            f"cached={self.cached_artifacts()})"
        )
