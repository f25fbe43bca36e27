"""The built-in stages and heuristics of the MinoanER pipeline.

The default stage graph is the paper's composition, expressed as six
pluggable stages over the artifact store:

====================  =========  ==============================================
stage                 group      provides
====================  =========  ==============================================
``name_blocking``     blocking   ``name_blocks``, ``name_attributes1/2``
``token_blocking``    blocking   ``token_blocks``, ``purging_report``
``value_index``       indexing   ``value_index``
``neighbor_index``    indexing   ``neighbor_index``, ``top_relations1/2``,
                                 ``top_neighbors1/2``
``candidates``        indexing   ``candidate_index``
``matching``          heuristics ``matches``, ``pre_h4_matches``,
                                 ``discarded_by_h4``
====================  =========  ==============================================

The two blocking stages register themselves in
:data:`~repro.pipeline.registry.BLOCKING_SCHEMES` under ``name`` /
``token``; the heuristics H1-H4 in
:data:`~repro.pipeline.registry.HEURISTICS` under ``h1``-``h4``.  Every
stage dispatches through the execution engine, so the composed graph
inherits the engine's bit-identical-across-executors contract.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

from ..blocking.name_blocking import names_from_attributes
from ..blocking.purging import purge_decision_from_sizes
from ..core.candidates import CandidateIndex
from ..core.heuristics import (
    Match,
    MatchedRegistry,
    h1_name_matches,
    h4_reciprocity_filter,
)
from ..core.neighbors import top_neighbors
from ..core.statistics import top_name_attributes, top_relations
from ..engine.blocking import (
    assemble_packed_blocks,
    name_blocking_engine,
    packed_token_placements,
    shared_side_sizes,
)
from ..engine.matching import (
    h2_value_matches_engine,
    h3_rank_aggregation_matches_engine,
)
from ..engine.similarity import build_neighbor_index, build_value_index
from ..kb.tokenizer import Tokenizer
from ..obs.runtime import current as current_telemetry
from .context import PipelineContext
from .registry import BLOCKING_SCHEMES, HEURISTICS
from .stage import Stage

if TYPE_CHECKING:  # pragma: no cover - types only
    from ..engine.executor import Executor


# ----------------------------------------------------------------------
# Blocking stages
# ----------------------------------------------------------------------
class NameBlockingStage(Stage):
    """Discover name attributes per KB and build ``BN``."""

    name = "name_blocking"
    group = "blocking"
    provides = ("name_blocks", "name_attributes1", "name_attributes2")
    config_fields = ("name_attributes",)

    def run(self, ctx: PipelineContext, engine: "Executor") -> None:
        k = ctx.config.name_attributes
        names1 = top_name_attributes(ctx.kb1, k)
        names2 = top_name_attributes(ctx.kb2, k)
        blocks = name_blocking_engine(
            ctx.kb1,
            ctx.kb2,
            names_from_attributes(names1),
            names_from_attributes(names2),
            engine,
        )
        current_telemetry().metrics.counter(
            "blocking.name_blocks_built"
        ).inc(len(blocks))
        ctx.put("name_blocks", blocks, producer=self.name)
        ctx.put("name_attributes1", names1, producer=self.name)
        ctx.put("name_attributes2", names2, producer=self.name)


class TokenBlockingStage(Stage):
    """Build ``BT`` and apply Block Purging when configured.

    Runs on the packed (id-column) blocking path: workers emit token ->
    entity-id columns, the purging decision is taken from the side sizes
    alone, and only the surviving blocks are sorted/grouped into a
    :class:`~repro.blocking.packed.PackedBlockCollection` — whose
    string-keyed view (and with it every downstream digest) equals the
    previous string-set construction block-for-block.
    """

    name = "token_blocking"
    group = "blocking"
    provides = ("token_blocks", "purging_report")
    config_fields = (
        "min_token_length",
        "include_uri_localnames",
        "purge_token_blocks",
        "purging_gain_factor",
        "purging_max_cardinality",
    )

    def run(self, ctx: PipelineContext, engine: "Executor") -> None:
        config = ctx.config
        tokenizer = Tokenizer(
            min_length=config.min_token_length,
            include_uri_localnames=config.include_uri_localnames,
        )
        side1, side2, interner1, interner2 = packed_token_placements(
            ctx.kb1, ctx.kb2, tokenizer, engine
        )
        sizes = shared_side_sizes(side1, side2)
        if config.purge_token_blocks:
            kept, report = purge_decision_from_sizes(
                sizes,
                gain_factor=config.purging_gain_factor,
                max_cardinality=config.purging_max_cardinality,
            )
        else:
            kept, report = set(sizes), None
        blocks = assemble_packed_blocks(
            side1, side2, interner1, interner2, keep=kept
        )
        metrics = current_telemetry().metrics
        metrics.counter("blocking.token_blocks_built").inc(len(blocks))
        if report is not None:
            metrics.counter("blocking.purged_keys").inc(report.purged_blocks)
        ctx.put("token_blocks", blocks, producer=self.name)
        ctx.put("purging_report", report, producer=self.name)


# ----------------------------------------------------------------------
# Index stages
# ----------------------------------------------------------------------
class ValueIndexStage(Stage):
    """``valueSim`` accumulated from the token-block statistics."""

    name = "value_index"
    group = "indexing"
    requires = ("token_blocks",)
    provides = ("value_index",)

    def run(self, ctx: PipelineContext, engine: "Executor") -> None:
        index = build_value_index(ctx.get("token_blocks"), engine)
        ctx.put("value_index", index, producer=self.name)


class NeighborIndexStage(Stage):
    """Top relations per KB and the propagated ``neighborNSim`` index.

    The per-entity top-neighbor sets the index is propagated over are
    published too (``top_neighbors1/2``): the online resolver and the
    snapshot store read them instead of walking the KBs again.
    """

    name = "neighbor_index"
    group = "indexing"
    requires = ("value_index",)
    provides = (
        "neighbor_index",
        "top_relations1",
        "top_relations2",
        "top_neighbors1",
        "top_neighbors2",
    )
    config_fields = ("top_n_relations", "include_incoming_edges")

    def run(self, ctx: PipelineContext, engine: "Executor") -> None:
        config = ctx.config
        relations1 = top_relations(
            ctx.kb1, config.top_n_relations, config.include_incoming_edges
        )
        relations2 = top_relations(
            ctx.kb2, config.top_n_relations, config.include_incoming_edges
        )
        neighbors1 = top_neighbors(
            ctx.kb1, relations1, config.include_incoming_edges
        )
        neighbors2 = top_neighbors(
            ctx.kb2, relations2, config.include_incoming_edges
        )
        index = build_neighbor_index(
            ctx.get("value_index"), neighbors1, neighbors2, engine
        )
        ctx.put("neighbor_index", index, producer=self.name)
        ctx.put("top_relations1", relations1, producer=self.name)
        ctx.put("top_relations2", relations2, producer=self.name)
        ctx.put("top_neighbors1", neighbors1, producer=self.name)
        ctx.put("top_neighbors2", neighbors2, producer=self.name)


class CandidateStage(Stage):
    """Top-K value/neighbor candidate lists per entity."""

    name = "candidates"
    group = "indexing"
    requires = ("value_index", "neighbor_index")
    provides = ("candidate_index",)
    config_fields = ("top_k_candidates", "restrict_h3_to_cooccurring")

    def run(self, ctx: PipelineContext, engine: "Executor") -> None:
        config = ctx.config
        index = CandidateIndex(
            ctx.get("value_index"),
            ctx.get("neighbor_index"),
            k=config.top_k_candidates,
            restrict_neighbors_to_cooccurring=config.restrict_h3_to_cooccurring,
        )
        ctx.put("candidate_index", index, producer=self.name)


# ----------------------------------------------------------------------
# Heuristics (the units the matching stage composes)
# ----------------------------------------------------------------------
class Heuristic:
    """One matching unit run by :class:`MatchingStage`.

    ``kind`` is ``"producer"`` (emits matches via :meth:`produce`) or
    ``"filter"`` (prunes the union of produced matches via
    :meth:`filter`).  ``requires`` and ``config_fields`` contribute to
    the matching stage's declared dependencies, exactly like a stage's.
    """

    name: str = "abstract"
    kind: str = "producer"
    requires: tuple[str, ...] = ()
    config_fields: tuple[str, ...] = ()

    def produce(
        self,
        ctx: PipelineContext,
        registry: MatchedRegistry,
        engine: "Executor",
    ) -> list[Match]:
        raise NotImplementedError(f"{self.name} is not a producer")

    def filter(
        self, ctx: PipelineContext, matches: Sequence[Match]
    ) -> tuple[list[Match], list[Match]]:
        """Return (kept, discarded)."""
        raise NotImplementedError(f"{self.name} is not a filter")

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


@HEURISTICS.register("h1")
class H1NameHeuristic(Heuristic):
    """H1: unique shared names are matches."""

    name = "h1"
    requires = ("name_blocks",)

    def produce(self, ctx, registry, engine):
        return h1_name_matches(ctx.get("name_blocks"), registry)


@HEURISTICS.register("h2")
class H2ValueHeuristic(Heuristic):
    """H2: best value-similar candidate with vmax >= 1."""

    name = "h2"
    requires = ("value_index",)

    def produce(self, ctx, registry, engine):
        return h2_value_matches_engine(
            ctx.kb1.uris(), ctx.get("value_index"), registry, engine
        )


@HEURISTICS.register("h3")
class H3RankAggregationHeuristic(Heuristic):
    """H3: rank aggregation over value and neighbor candidate lists."""

    name = "h3"
    requires = ("candidate_index",)
    config_fields = ("theta",)

    def produce(self, ctx, registry, engine):
        return h3_rank_aggregation_matches_engine(
            ctx.kb1.uris(),
            ctx.get("candidate_index"),
            ctx.config.theta,
            registry,
            engine,
        )


@HEURISTICS.register("h4")
class H4ReciprocityHeuristic(Heuristic):
    """H4: keep pairs whose entities list each other as candidates."""

    name = "h4"
    kind = "filter"
    requires = ("candidate_index",)

    def filter(self, ctx, matches):
        return h4_reciprocity_filter(matches, ctx.get("candidate_index"))


#: Heuristic names the config's enable flags control, in pipeline order.
DEFAULT_HEURISTIC_ORDER = ("h1", "h2", "h3", "h4")

#: heuristic name -> the MinoanERConfig flag that toggles it.  The single
#: source of truth: the CLI's ``--disable-stage`` and the session's
#: ``match(h3=False)`` shorthand import this map.
ENABLE_FLAGS = {
    "h1": "enable_h1_names",
    "h2": "enable_h2_values",
    "h3": "enable_h3_rank_aggregation",
    "h4": "enable_h4_reciprocity",
}


class MatchingStage(Stage):
    """Runs the heuristic sequence over the prepared evidence.

    With no explicit heuristics, the active set follows the config's
    ``enable_h*`` flags (the paper's H1-H4) and those flags join the
    stage's ``config_fields`` so sessions re-run it when a toggle
    changes.  The declared ``requires`` then covers the heuristics
    enabled in ``config`` (the builder's, when composed through it), so
    e.g. ``enable_h1_names=False`` lets a graph without name blocking
    validate; enabling a heuristic at match time that was disabled when
    the graph was built works only if its artifacts happen to be present.
    With an explicit sequence — names resolved against
    :data:`~repro.pipeline.registry.HEURISTICS`, or heuristic instances —
    the toggles are ignored and the sequence itself keys the cache.
    """

    name = "matching"
    group = "heuristics"
    provides = ("matches", "pre_h4_matches", "discarded_by_h4")

    def __init__(
        self,
        heuristics: Iterable[Heuristic | str] | None = None,
        config=None,
    ) -> None:
        if heuristics is None:
            self._explicit: tuple[Heuristic, ...] | None = None
            enabled = tuple(
                HEURISTICS.create(name)
                for name in DEFAULT_HEURISTIC_ORDER
                if config is None or getattr(config, ENABLE_FLAGS[name])
            )
            requires: list[str] = []
            for heuristic in enabled:
                for key in heuristic.requires:
                    if key not in requires:
                        requires.append(key)
            self.requires = tuple(requires)
            self.config_fields = ("theta",) + tuple(
                ENABLE_FLAGS[name] for name in DEFAULT_HEURISTIC_ORDER
            )
        else:
            resolved = tuple(
                HEURISTICS.create(h) if isinstance(h, str) else h
                for h in heuristics
            )
            self._explicit = resolved
            requires: list[str] = []
            config_fields: list[str] = []
            for heuristic in resolved:
                for key in heuristic.requires:
                    if key not in requires:
                        requires.append(key)
                for fld in heuristic.config_fields:
                    if fld not in config_fields:
                        config_fields.append(fld)
            self.requires = tuple(requires)
            self.config_fields = tuple(config_fields)

    @property
    def heuristics(self) -> tuple[Heuristic, ...] | None:
        """The explicit heuristic sequence, or None (config-driven)."""
        return self._explicit

    def signature_extra(self) -> tuple:
        if self._explicit is None:
            return ()
        return tuple(h.name for h in self._explicit)

    def active_heuristics(self, ctx: PipelineContext) -> tuple[Heuristic, ...]:
        if self._explicit is not None:
            return self._explicit
        return tuple(
            HEURISTICS.create(name)
            for name in DEFAULT_HEURISTIC_ORDER
            if getattr(ctx.config, ENABLE_FLAGS[name])
        )

    def run(self, ctx: PipelineContext, engine: "Executor") -> None:
        registry = MatchedRegistry()
        collected: list[Match] = []
        active = self.active_heuristics(ctx)
        for heuristic in active:
            if heuristic.kind == "producer":
                collected.extend(heuristic.produce(ctx, registry, engine))
        kept = list(collected)
        discarded: list[Match] = []
        for heuristic in active:
            if heuristic.kind == "filter":
                kept, dropped = heuristic.filter(ctx, kept)
                discarded.extend(dropped)
        metrics = current_telemetry().metrics
        metrics.counter("matching.pairs_matched").inc(len(kept))
        metrics.counter("matching.pairs_discarded").inc(len(discarded))
        ctx.put("matches", kept, producer=self.name)
        ctx.put("pre_h4_matches", collected, producer=self.name)
        ctx.put("discarded_by_h4", discarded, producer=self.name)


BLOCKING_SCHEMES.register("name", NameBlockingStage)
BLOCKING_SCHEMES.register("token", TokenBlockingStage)
