"""The built-in stages and heuristics of the MinoanER pipeline.

The default stage graph is the paper's composition, expressed as five
pluggable stages over the artifact store:

====================  =========  ==============================================
stage                 group      provides
====================  =========  ==============================================
``name_blocking``     blocking   ``name_blocks``, ``name_attributes1/2``,
                                 ``name_placements``
``token_blocking``    blocking   ``token_blocks``, ``purging_report``,
                                 ``token_placements``
``value_index``       indexing   ``value_index``
``neighbor_index``    indexing   ``neighbor_index``, ``top_relations1/2``,
                                 ``top_neighbors1/2``
``matching``          heuristics ``matches``, ``pre_h4_matches``,
                                 ``discarded_by_h4``
====================  =========  ==============================================

The two blocking stages register themselves in
:data:`~repro.pipeline.registry.BLOCKING_SCHEMES` under ``name`` /
``token``; the heuristics H1-H4 in
:data:`~repro.pipeline.registry.HEURISTICS` under ``h1``-``h4``.  The two
index stages dispatch their kernel through the execution engine, which
is bit-identical across executors; every other stage runs in the
calling process.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Any, Sequence

from ..blocking.name_blocking import name_keys, names_from_attributes
from ..blocking.placements import KeysOf, PlacementTable, entity_key_rows
from ..blocking.purging import purge_decision_from_sizes
from ..blocking.token_blocking import token_keys
from ..core.heuristics import (
    Match,
    MatchedRegistry,
    h1_name_matches,
    h2_value_matches,
    h3_rank_aggregation_matches,
    h4_reciprocity_filter,
)
from ..core.neighbors import top_relations_and_neighbors
from ..core.statistics import top_name_attributes
from ..engine.similarity import build_neighbor_index, build_value_index
from ..kb.tokenizer import Tokenizer
from ..obs.runtime import current as current_telemetry
from .context import PipelineContext
from .registry import BLOCKING_SCHEMES, HEURISTICS
from .stage import Stage

if TYPE_CHECKING:  # pragma: no cover - types only
    from ..core.config import MinoanERConfig
    from ..engine.executor import Executor


# ----------------------------------------------------------------------
# Blocking stages
# ----------------------------------------------------------------------
class NameBlockingStage(Stage):
    """Discover name attributes per KB and build ``BN``.

    Keys every entity once (its normalized names under its side's name
    attributes) into the ``name_placements`` table and assembles the
    blocks from it.
    """

    name = "name_blocking"
    group = "blocking"
    provides = (
        "name_blocks",
        "name_attributes1",
        "name_attributes2",
        "name_placements",
    )
    config_fields = ("name_attributes",)

    @staticmethod
    def keyer(attributes: Sequence[str]) -> KeysOf:
        """An entity's name keys under one side's name attributes."""
        return partial(name_keys, extractor=names_from_attributes(attributes))

    @staticmethod
    def artifacts(
        table: PlacementTable,
        attributes1: list[str],
        attributes2: list[str],
    ) -> dict[str, Any]:
        """The stage's artifacts from a name table keyed under the given
        attributes (a cold run's, or one a delta maintained)."""
        return {
            "name_blocks": table.assemble(),
            "name_attributes1": attributes1,
            "name_attributes2": attributes2,
            "name_placements": table,
        }

    def run(self, ctx: PipelineContext, engine: "Executor") -> None:
        k = ctx.config.name_attributes
        names = (top_name_attributes(ctx.kb1, k), top_name_attributes(ctx.kb2, k))
        table = PlacementTable(
            "BN",
            tuple(
                entity_key_rows(kb, self.keyer(attributes))
                for kb, attributes in zip((ctx.kb1, ctx.kb2), names)
            ),
        )
        artifacts = self.artifacts(table, *names)
        current_telemetry().metrics.counter(
            "blocking.name_blocks_built"
        ).inc(len(artifacts["name_blocks"]))
        for key, value in artifacts.items():
            ctx.put(key, value, producer=self.name)


class TokenBlockingStage(Stage):
    """Build ``BT`` and apply Block Purging when configured.

    Keys every entity once (its distinct tokens) into the
    ``token_placements`` table, takes the purging decision from the
    table's side sizes alone, and assembles only the surviving blocks
    into a :class:`~repro.blocking.packed.PackedBlockCollection` — whose
    string-keyed view equals ``purge_blocks(token_blocking(...))`` block
    for block.
    """

    name = "token_blocking"
    group = "blocking"
    provides = ("token_blocks", "purging_report", "token_placements")
    config_fields = ("purge_token_blocks",)

    @staticmethod
    def keyer() -> KeysOf:
        """An entity's token keys."""
        return partial(token_keys, tokenizer=Tokenizer())

    @staticmethod
    def artifacts(table: PlacementTable, config) -> dict[str, Any]:
        """The stage's artifacts from a token table: the purge decision
        from its side sizes, then the kept blocks (a cold run's, or what
        a delta reassembles from a maintained table)."""
        kept = report = None
        if config.purge_token_blocks:
            kept, report = purge_decision_from_sizes(table.shared_counts())
        return {
            "token_blocks": table.assemble(keep=kept),
            "purging_report": report,
            "token_placements": table,
        }

    def run(self, ctx: PipelineContext, engine: "Executor") -> None:
        keyer = self.keyer()
        table = PlacementTable(
            "BT",
            tuple(entity_key_rows(kb, keyer) for kb in (ctx.kb1, ctx.kb2)),
        )
        artifacts = self.artifacts(table, ctx.config)
        report = artifacts["purging_report"]
        metrics = current_telemetry().metrics
        metrics.counter("blocking.token_blocks_built").inc(
            len(artifacts["token_blocks"])
        )
        if report is not None:
            metrics.counter("blocking.purged_keys").inc(report.purged_blocks)
        for key, value in artifacts.items():
            ctx.put(key, value, producer=self.name)


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

    Under the conference H3 (``restrict_h3_to_cooccurring``) the stage
    builds only the neighbor pairs that are also value pairs — every
    pair H3, H4 and the online H4 bars read — so the full product is
    never folded.  The per-entity top-neighbor sets the index is
    propagated over are published too (``top_neighbors1/2``): the online
    resolver and the snapshot store read them instead of walking the
    KBs again.
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
    config_fields = ("top_n_relations", "restrict_h3_to_cooccurring")

    def __init__(self) -> None:
        #: Per side, ``(kb, kb.version, N, relations, neighbors)``: the
        #: top relations and neighbors last derived, with the KB state
        #: they hold for.  A re-run after a delta re-derives only a side
        #: whose KB changed.  (A graph shared by several sessions, as
        #: ``MinoanER.session`` shares one, holds the last pair's until
        #: its next run.)
        self._held: list[tuple | None] = [None, None]

    def run(self, ctx: PipelineContext, engine: "Executor") -> None:
        config = ctx.config
        relations1, neighbors1 = self._top(0, ctx.kb1, config.top_n_relations)
        relations2, neighbors2 = self._top(1, ctx.kb2, config.top_n_relations)
        index = build_neighbor_index(
            ctx.get("value_index"),
            neighbors1,
            neighbors2,
            engine,
            cooccurring=config.restrict_h3_to_cooccurring,
        )
        ctx.put("neighbor_index", index, producer=self.name)
        ctx.put("top_relations1", relations1, producer=self.name)
        ctx.put("top_relations2", relations2, producer=self.name)
        ctx.put("top_neighbors1", neighbors1, producer=self.name)
        ctx.put("top_neighbors2", neighbors2, producer=self.name)

    def _top(self, side: int, kb, n: int) -> tuple[list[str], dict]:
        held = self._held[side]
        if held is None or held[0] is not kb or held[1:3] != (kb.version, n):
            held = (kb, kb.version, n, *top_relations_and_neighbors(kb, n))
            self._held[side] = held
        return list(held[3]), held[4]

    def hold(self, ctx: PipelineContext) -> None:
        """Keep ``ctx``'s top relations and neighbors as derived from
        its KBs' current state — what a run restored from the cache (a
        snapshot load) publishes without running this stage."""
        n = ctx.config.top_n_relations
        for side, kb in enumerate((ctx.kb1, ctx.kb2), start=1):
            self._held[side - 1] = (
                kb,
                kb.version,
                n,
                list(ctx.get(f"top_relations{side}")),
                ctx.get(f"top_neighbors{side}"),
            )


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
        # Rank the rows the walk visits, as deep as H3 reads them: the
        # walk rarely passes a free candidate's first few, and the depth
        # moves no match, so it is not among the stage's config fields.
        depth = ctx.config.top_k_candidates
        walked = [uri for uri in ctx.kb1.uris() if uri not in registry.matched1]
        value_index = ctx.get("value_index")
        value_index.rank(1, depth, walked)
        return h2_value_matches(walked, value_index, registry, depth)


@HEURISTICS.register("h3")
class H3RankAggregationHeuristic(Heuristic):
    """H3: rank aggregation over value and neighbor candidate lists."""

    name = "h3"
    requires = ("value_index", "neighbor_index")
    config_fields = ("theta", "top_k_candidates")

    def produce(self, ctx, registry, engine):
        uris = [uri for uri in ctx.kb1.uris() if uri not in registry.matched1]
        current_telemetry().metrics.counter(
            "matching.candidate_lists_built"
        ).inc(len(uris))
        config = ctx.config
        indices = ctx.get("value_index"), ctx.get("neighbor_index")
        for index in indices:  # the rows about to be read
            index.rank(1, config.top_k_candidates, uris)
        return h3_rank_aggregation_matches(
            uris,
            *indices,
            registry,
            k=config.top_k_candidates,
            theta=config.theta,
            cooccurring=config.restrict_h3_to_cooccurring,
        )


@HEURISTICS.register("h4")
class H4ReciprocityHeuristic(Heuristic):
    """H4: keep pairs whose entities list each other as candidates."""

    name = "h4"
    kind = "filter"
    requires = ("value_index", "neighbor_index")
    config_fields = ("top_k_candidates",)

    def filter(self, ctx, matches):
        return h4_reciprocity_filter(
            matches,
            ctx.get("value_index"),
            ctx.get("neighbor_index"),
            ctx.config.top_k_candidates,
        )


class MatchingStage(Stage):
    """Runs the config's heuristic sequence over the prepared evidence.

    ``config.heuristics`` names registered heuristics in execution
    order; producers run first, in that order, then filters prune the
    union of their matches.  The declared ``requires`` is the union of
    the heuristics listed in the build-time ``config``, so e.g.
    ``heuristics=("h2", "h3", "h4")`` lets a graph without name blocking
    validate; listing a heuristic at match time that the build-time
    config left out works only if its artifacts happen to be present.
    """

    name = "matching"
    group = "heuristics"
    provides = ("matches", "pre_h4_matches", "discarded_by_h4")

    def __init__(self, config: "MinoanERConfig") -> None:
        requires: list[str] = []
        config_fields: list[str] = ["theta", "heuristics"]
        for heuristic in map(HEURISTICS.create, config.heuristics):
            requires += [k for k in heuristic.requires if k not in requires]
            config_fields += [
                f for f in heuristic.config_fields if f not in config_fields
            ]
        self.requires = tuple(requires)
        self.config_fields = tuple(config_fields)

    def run(self, ctx: PipelineContext, engine: "Executor") -> None:
        registry = MatchedRegistry()
        collected: list[Match] = []
        active = tuple(map(HEURISTICS.create, ctx.config.heuristics))
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
