"""The end-to-end MinoanER pipeline.

Given two KBs, :class:`MinoanER` (i) discovers name attributes and
important relations from statistics, (ii) builds the schema-agnostic block
collections ``BN`` and ``BT`` with Block Purging, (iii) derives the value
and neighbor similarity indices from block statistics alone, and (iv) runs
the non-iterative heuristics H1-H4.  No schema knowledge, no similarity
threshold, no convergence loop.

The pipeline is an explicit **stage graph** (:mod:`repro.pipeline`):
six pluggable stages over a typed artifact store, composed by default
exactly as the paper describes.  Every run of it is a
:class:`~repro.pipeline.session.MatchSession` run: ``match()`` is a
one-shot session, ``MinoanER.session()`` keeps one to reuse cached
upstream artifacts across repeated runs, and ``MinoanER.builder()``
composes custom graphs (swapped blocking schemes, user stages).  Which
heuristics run, in what order, is one config field,
``MinoanERConfig.heuristics``.

The two similarity-index stages dispatch their row kernel through a
pluggable execution engine (:mod:`repro.engine`): the default
:class:`SerialExecutor` runs its tasks in the calling thread, while
``thread``/``process`` executors (the :class:`MinoanERConfig`
``engine``/``workers`` fields) spread them across workers — with
identical results, since partition layout and merge order are
independent of the executor.  Every other stage runs in the calling
process.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..blocking.base import BlockCollection
from ..blocking.purging import PurgingReport
from ..kb.knowledge_base import KnowledgeBase
from ..kb.tokenizer import Tokenizer
from ..pipeline.builder import PipelineBuilder
from ..pipeline.context import PipelineContext
from ..pipeline.stage import StageGraph
from .config import MinoanERConfig
from .heuristics import Match

@dataclass
class MatchResult:
    """Everything the pipeline produced, with full provenance.

    ``matches`` holds the final output (after H4 when enabled);
    ``pre_h4_matches`` the union of H1/H2/H3 decisions, and
    ``discarded_by_h4`` what reciprocity pruned.  ``stage_seconds`` maps
    every executed stage (``name_blocking``, ``token_blocking``,
    ``value_index``, ``neighbor_index``, ``matching``, plus any
    registered custom stages) to its wall-clock;
    :meth:`seconds_by_group` folds that into the coarse
    blocking/indexing/heuristics view.

    Since the observability layer (:mod:`repro.obs`), every entry of
    ``stage_seconds`` is derived from that stage's span: with tracing
    enabled, an exported trace's per-stage span totals reconcile with
    this field exactly (same measurement, one timing path).
    """

    matches: list[Match]
    pre_h4_matches: list[Match]
    discarded_by_h4: list[Match]
    name_attributes1: list[str]
    name_attributes2: list[str]
    top_relations1: list[str]
    top_relations2: list[str]
    name_blocks: BlockCollection
    token_blocks: BlockCollection
    purging_report: PurgingReport | None
    seconds: float = 0.0
    stage_seconds: dict[str, float] = field(default_factory=dict)
    stage_groups: dict[str, str] = field(default_factory=dict)

    @classmethod
    def from_context(
        cls, ctx: PipelineContext, seconds: float
    ) -> "MatchResult":
        """Assemble the result from a finished pipeline context.

        Artifacts a custom graph did not produce fall back to empty
        values, so ``match()`` keeps its shape under any composition.
        """
        return cls(
            matches=ctx.get_or("matches", []),
            pre_h4_matches=ctx.get_or("pre_h4_matches", []),
            discarded_by_h4=ctx.get_or("discarded_by_h4", []),
            name_attributes1=ctx.get_or("name_attributes1", []),
            name_attributes2=ctx.get_or("name_attributes2", []),
            top_relations1=ctx.get_or("top_relations1", []),
            top_relations2=ctx.get_or("top_relations2", []),
            name_blocks=ctx.get_or("name_blocks", BlockCollection("BN")),
            token_blocks=ctx.get_or("token_blocks", BlockCollection("BT")),
            purging_report=ctx.get_or("purging_report"),
            seconds=seconds,
            stage_seconds=dict(ctx.stage_seconds),
            stage_groups=dict(ctx.stage_groups),
        )

    def pairs(self) -> set[tuple[str, str]]:
        """The final matched (E1 uri, E2 uri) pairs."""
        return {match.pair() for match in self.matches}

    def as_mapping(self) -> dict[str, str]:
        """E1 uri -> E2 uri of the final matches (first decision wins)."""
        mapping: dict[str, str] = {}
        for match in self.matches:
            mapping.setdefault(match.uri1, match.uri2)
        return mapping

    def by_heuristic(self) -> dict[str, int]:
        """Final match counts per producing heuristic."""
        counts: dict[str, int] = {}
        for match in self.matches:
            counts[match.heuristic] = counts.get(match.heuristic, 0) + 1
        return counts

    def seconds_by_group(self) -> dict[str, float]:
        """Stage wall-clock folded into timing groups, in stage order."""
        grouped: dict[str, float] = {}
        for name, elapsed in self.stage_seconds.items():
            group = self.stage_groups.get(name, name)
            grouped[group] = grouped.get(group, 0.0) + elapsed
        return grouped

    def timing_summary(self) -> str:
        """One-line per-group timing breakdown for reports."""
        return ", ".join(
            f"{group} {elapsed:.2f}s"
            for group, elapsed in self.seconds_by_group().items()
        )


class MinoanER:
    """Schema-agnostic, non-iterative entity matcher (the paper's system).

    Usage::

        matcher = MinoanER()          # paper defaults: K=15, N=3, k=2, θ=0.6
        result = matcher.match(kb1, kb2)
        result.pairs()

        # ablation / custom composition / repeated runs
        matcher = MinoanER(MinoanERConfig(heuristics=("h1", "h3")))
        matcher = MinoanER.builder().with_stage(MyStage()).build()
        session = MinoanER().session(kb1, kb2)

    ``kb1`` is treated as the smaller/primary KB: H2 and H3 iterate over
    its unmatched descriptions, and evaluation in the paper is with respect
    to the first KB's descriptions.  All four benchmark datasets of the
    paper follow this convention.
    """

    def __init__(
        self,
        config: MinoanERConfig | None = None,
        graph: StageGraph | None = None,
    ) -> None:
        self.config = config or MinoanERConfig()
        self.graph = graph or PipelineBuilder(self.config).build_graph()

    @classmethod
    def builder(cls, config: MinoanERConfig | None = None) -> PipelineBuilder:
        """A fluent :class:`PipelineBuilder` (see :mod:`repro.pipeline`)."""
        return PipelineBuilder(config)

    def session(self, kb1: KnowledgeBase, kb2: KnowledgeBase):
        """A :class:`~repro.pipeline.session.MatchSession` over this graph."""
        from ..pipeline.session import MatchSession

        return MatchSession(kb1, kb2, self.config, graph=self.graph)

    # ------------------------------------------------------------------
    # Substrate (public: examples and benches tokenize as a run does)
    # ------------------------------------------------------------------
    def build_tokenizer(self) -> Tokenizer:
        """The tokenizer a run uses."""
        return Tokenizer()

    # ------------------------------------------------------------------
    # End-to-end matching
    # ------------------------------------------------------------------
    def match(self, kb1: KnowledgeBase, kb2: KnowledgeBase) -> MatchResult:
        """Run the full non-iterative matching process on two KBs.

        A one-shot :meth:`session`: the run is a ``run`` span of kind
        ``session`` in the ambient telemetry (see :mod:`repro.obs`), and
        ``MatchResult.seconds`` is that span's wall time.
        """
        return self.session(kb1, kb2).match()
