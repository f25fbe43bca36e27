"""Ablation A1 — contribution of each heuristic.

The paper motivates the heuristics individually (§III); this bench
quantifies that motivation by running MinoanER with cumulative heuristic
subsets on every dataset: H1 alone, H1+H2, H1+H2+H3, and the full system
(with H4).  Asserted shape: recall grows monotonically along the
cumulative chain, and H4 never hurts precision.

All variants run through the shared :class:`MatchSession` fixtures, so
blocking and indexing execute once per dataset and only the matching
stage re-runs per variant — asserted via the sessions' stage-run
counters, with the full variant checked match-for-match against a
one-shot ``MinoanER().match()``.
"""

from repro.core import MinoanER, MinoanERConfig
from repro.datasets import PROFILE_ORDER
from repro.evaluation import evaluate_matching, render_records

VARIANTS = (
    ("H1", ("h1",)),
    ("H1+H2", ("h1", "h2")),
    ("H1+H2+H3", ("h1", "h2", "h3")),
    ("full (H1-H4)", ("h1", "h2", "h3", "h4")),
)

#: Stages the variant sweep must never re-run (evidence preparation).
UPSTREAM_STAGES = (
    "name_blocking",
    "token_blocking",
    "value_index",
    "neighbor_index",
)


def compute_ablation(datasets, sessions):
    rows = []
    for name in PROFILE_ORDER:
        data = datasets[name]
        for label, heuristics in VARIANTS:
            config = MinoanERConfig(heuristics=heuristics)
            result = sessions[name].match(config)
            quality = evaluate_matching(result.pairs(), data.ground_truth)
            rows.append(
                {
                    "dataset": name,
                    "variant": label,
                    "precision": round(100 * quality.precision, 2),
                    "recall": round(100 * quality.recall, 2),
                    "f1": round(100 * quality.f1, 2),
                    "matches": len(result.matches),
                }
            )
    return rows


def test_ablation_heuristic_contributions(
    benchmark, datasets, sessions, save_table
):
    rows = benchmark.pedantic(
        compute_ablation, args=(datasets, sessions), rounds=1, iterations=1
    )
    save_table(
        "ablation_heuristics",
        render_records(rows, title="Ablation A1 — heuristic contributions"),
    )

    by_variant = {(r["dataset"], r["variant"]): r for r in rows}
    for name in PROFILE_ORDER:
        h1 = by_variant[(name, "H1")]
        h12 = by_variant[(name, "H1+H2")]
        h123 = by_variant[(name, "H1+H2+H3")]
        full = by_variant[(name, "full (H1-H4)")]
        # recall is monotone along the cumulative chain
        assert h1["recall"] <= h12["recall"] + 1e-9
        assert h12["recall"] <= h123["recall"] + 1e-9
        # H4 is a filter: precision must not drop when it is enabled
        assert full["precision"] >= h123["precision"] - 1e-9
    # neighbor evidence must matter on the heterogeneous profiles
    for name in ("bbc_dbpedia", "yago_imdb"):
        gain = (
            by_variant[(name, "H1+H2+H3")]["recall"]
            - by_variant[(name, "H1+H2")]["recall"]
        )
        assert gain > 3.0


def test_session_skips_upstream_and_matches_one_shot(datasets):
    """Acceptance: a session-driven ablation sweep runs blocking/indexing
    exactly once while its full-variant matches equal a one-shot
    ``MinoanER().match()``, match-for-match (self-contained session so
    the counters are exact regardless of test selection)."""
    from repro.pipeline import MatchSession

    data = datasets["bbc_dbpedia"]
    session = MatchSession(data.kb1, data.kb2)
    results = {
        label: session.match(MinoanERConfig(heuristics=heuristics))
        for label, heuristics in VARIANTS
    }
    for stage in UPSTREAM_STAGES:
        assert session.runs(stage) == 1, (
            f"{stage} re-ran during the sweep: {session.stage_runs}"
        )
    assert session.runs("matching") == len(VARIANTS)

    one_shot = MinoanER().match(data.kb1, data.kb2)
    assert [
        (m.uri1, m.uri2, m.heuristic, m.score)
        for m in results["full (H1-H4)"].matches
    ] == [(m.uri1, m.uri2, m.heuristic, m.score) for m in one_shot.matches]
