"""Extending the pipeline: a custom heuristic and a custom stage.

Run with::

    python examples/custom_heuristic.py

MinoanER's pipeline is a composable stage graph (``repro.pipeline``):
blocking schemes and heuristics live in named registries, and user code
plugs new ones in without touching the core.  This example

1. registers an **H5 heuristic** that matches entities sharing a unique
   year token (a domain-specific signal H1-H4 treat as just another
   token),
2. adds a **report stage** that consumes the final matches artifact and
   publishes a per-heuristic summary, and
3. runs both through a :class:`~repro.pipeline.session.MatchSession`,
   showing that a second call re-uses every cached stage.
"""

import re

from repro import HEURISTICS, KnowledgeBase, MinoanER, Stage
from repro.core.heuristics import Match
from repro.pipeline import Heuristic

YEAR = re.compile(r"^(1[89]|20)\d\d$")


@HEURISTICS.register("h5_year")
class UniqueYearHeuristic(Heuristic):
    """Match entities that are the only ones carrying a given year."""

    name = "h5_year"

    @staticmethod
    def _years(kb):
        by_year = {}
        for entity in kb:
            for _, literal in entity.literal_pairs():
                for token in literal.split():
                    if YEAR.match(token):
                        by_year.setdefault(token, set()).add(entity.uri)
        return by_year

    def produce(self, ctx, registry, engine):
        years1 = self._years(ctx.kb1)
        years2 = self._years(ctx.kb2)
        matches = []
        for year in sorted(years1.keys() & years2.keys()):
            if len(years1[year]) == 1 and len(years2[year]) == 1:
                (uri1,), (uri2,) = years1[year], years2[year]
                if registry.is_free(uri1, uri2):
                    registry.mark(uri1, uri2)
                    matches.append(Match(uri1, uri2, "H5"))
        return matches


class SummaryStage(Stage):
    """A downstream stage consuming the ``matches`` artifact."""

    name = "summary"
    requires = ("matches",)
    provides = ("summary",)

    def run(self, ctx, engine):
        counts = {}
        for match in ctx.get("matches"):
            counts[match.heuristic] = counts.get(match.heuristic, 0) + 1
        ctx.put("summary", counts, producer=self.name)


def build_kbs():
    kb1 = KnowledgeBase("Films")
    a1 = kb1.new_entity("http://films.org/m1")
    a1.add_literal("title", "the grand escape")
    a1.add_literal("released", "1963")
    a2 = kb1.new_entity("http://films.org/m2")
    a2.add_literal("title", "midnight harbor")
    a2.add_literal("released", "1977")

    kb2 = KnowledgeBase("Archive")
    b1 = kb2.new_entity("http://archive.org/r1")
    b1.add_literal("label", "der grosse ausbruch")
    b1.add_literal("year", "1963")
    b2 = kb2.new_entity("http://archive.org/r2")
    b2.add_literal("label", "hafen um mitternacht")
    b2.add_literal("year", "1977")
    return kb1, kb2


def main() -> None:
    kb1, kb2 = build_kbs()

    # Translated titles share no tokens, so these tiny KBs carry no name
    # evidence — the config's heuristic list drops H1 and lets the
    # registered H5 claim matches on year evidence before the generic
    # token heuristics (the list order is the execution order).
    builder = (
        MinoanER.builder()
        .with_config(heuristics=("h5_year", "h2", "h3", "h4"))
        .with_stage(SummaryStage())
    )
    session = builder.session(kb1, kb2)
    result = session.match()

    print("Matches:")
    for match in result.matches:
        print(f"  [{match.heuristic}] {match.uri1}  <->  {match.uri2}")
    print(f"Stage graph: {' -> '.join(builder.build_graph().names())}")
    print(f"Stage runs after 1st call: {dict(session.stage_runs)}")

    session.match()  # everything cached: no stage re-runs
    print(f"Stage runs after 2nd call: {dict(session.stage_runs)}")


if __name__ == "__main__":
    main()
