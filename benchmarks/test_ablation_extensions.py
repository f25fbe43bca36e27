"""Ablation A4 — extension features beyond the conference paper.

Two extensions from the journal version / the meta-blocking line of work:

- **unrestricted H3 candidates**: the conference paper draws H3
  candidates from token-block co-occurrence only; the journal version
  also admits purely neighbor-derived candidates.  Compared on the two
  heterogeneous datasets where it can matter.
- **meta-blocking**: weight-based comparison pruning (CBS/JS × WEP/CEP)
  as an alternative to Block Purging, measured by retained-comparison
  count and pair recall.
"""

from repro.blocking import (
    BlockingGraph,
    meta_blocking_pairs,
    purge_blocks,
    token_blocking,
)
from repro.core import MinoanERConfig
from repro.datasets import PROFILE_ORDER
from repro.evaluation import evaluate_matching, render_records
from repro.kb import Tokenizer


def compute_h3_variants(datasets, sessions):
    rows = []
    for name in ("bbc_dbpedia", "yago_imdb"):
        data = datasets[name]
        for label, restricted in (("conference", True), ("journal", False)):
            # the toggle is a neighbor-index field: the session reuses
            # blocking and the value index across the variants
            config = MinoanERConfig(restrict_h3_to_cooccurring=restricted)
            result = sessions[name].match(config)
            quality = evaluate_matching(result.pairs(), data.ground_truth)
            rows.append(
                {
                    "dataset": name,
                    "H3 candidates": label,
                    "precision": round(100 * quality.precision, 2),
                    "recall": round(100 * quality.recall, 2),
                    "f1": round(100 * quality.f1, 2),
                }
            )
    return rows


def compute_metablocking(datasets):
    rows = []
    for name in PROFILE_ORDER:
        data = datasets[name]
        blocks = token_blocking(data.kb1, data.kb2, Tokenizer())
        truth = data.ground_truth.pairs()

        purged, _ = purge_blocks(blocks)
        purged_pairs = purged.distinct_pairs()
        rows.append(
            {
                "dataset": name,
                "method": "Block Purging",
                "pairs": len(purged_pairs),
                "recall %": round(100 * len(truth & purged_pairs) / len(truth), 2),
            }
        )
        for weighting in ("cbs", "js"):
            for scheme in ("wep", "cep"):
                kept = meta_blocking_pairs(purged, weighting, scheme)
                rows.append(
                    {
                        "dataset": name,
                        "method": f"meta-blocking {weighting}/{scheme}",
                        "pairs": len(kept),
                        "recall %": round(
                            100 * len(truth & kept) / len(truth), 2
                        ),
                    }
                )
    return rows


def test_ablation_h3_candidate_source(benchmark, datasets, sessions, save_table):
    rows = benchmark.pedantic(
        compute_h3_variants, args=(datasets, sessions), rounds=1, iterations=1
    )
    save_table(
        "ablation_h3_variants",
        render_records(rows, title="Ablation A4a — H3 candidate source"),
    )
    by_key = {(r["dataset"], r["H3 candidates"]): r["f1"] for r in rows}
    for name in ("bbc_dbpedia", "yago_imdb"):
        # the journal variant may only help (it is a superset of evidence)
        assert by_key[(name, "journal")] >= by_key[(name, "conference")] - 2.0
        # both variants shared one blocking + value/neighbor index build
        assert sessions[name].runs("value_index") == 1
        assert sessions[name].runs("matching") == 2


def test_ablation_metablocking(benchmark, datasets, save_table):
    rows = benchmark.pedantic(
        compute_metablocking, args=(datasets,), rounds=1, iterations=1
    )
    save_table(
        "ablation_metablocking",
        render_records(rows, title="Ablation A4b — meta-blocking vs purging"),
    )
    by_key = {(r["dataset"], r["method"]): r for r in rows}
    for name in PROFILE_ORDER:
        purging = by_key[(name, "Block Purging")]
        for weighting in ("cbs", "js"):
            for scheme in ("wep", "cep"):
                meta = by_key[(name, f"meta-blocking {weighting}/{scheme}")]
                # pruning only removes comparisons
                assert meta["pairs"] <= purging["pairs"]
