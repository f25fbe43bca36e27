"""Table II — block statistics.

Regenerates the paper's Table II: number of name blocks |BN| and token
blocks |BT|, their comparison counts ||BN|| / ||BT||, the Cartesian
product, and the blocking precision/recall/F1 of BN ∪ BT.  The asserted
shape follows the paper's observations:

- token blocks suggest far more comparisons than name blocks;
- the union still lies well below the Cartesian product;
- blocking recall stays near-total while precision is very low.
"""

from repro.blocking import (
    name_blocking,
    names_from_attributes,
    purge_blocks,
    token_blocking,
    union_quality,
)
from repro.core import top_name_attributes
from repro.datasets import PROFILE_ORDER
from repro.evaluation import render_records
from repro.kb import Tokenizer


def compute_table2(datasets):
    rows = []
    for name in PROFILE_ORDER:
        data = datasets[name]
        kb1, kb2 = data.kb1, data.kb2
        name_blocks = name_blocking(
            kb1,
            kb2,
            names_from_attributes(top_name_attributes(kb1, 2)),
            names_from_attributes(top_name_attributes(kb2, 2)),
        )
        token_blocks, purge_report = purge_blocks(
            token_blocking(kb1, kb2, Tokenizer())
        )
        quality = union_quality(
            [name_blocks, token_blocks],
            data.ground_truth.as_mapping(),
            len(kb1),
            len(kb2),
        )
        rows.append(
            {
                "dataset": name,
                "|BN|": len(name_blocks),
                "|BT|": len(token_blocks),
                "||BN||": name_blocks.total_comparisons(),
                "||BT||": token_blocks.total_comparisons(),
                "|E1|x|E2|": len(kb1) * len(kb2),
                "purged %": round(100 * purge_report.comparison_reduction, 1),
                "precision %": round(100 * quality.precision, 3),
                "recall %": round(100 * quality.recall, 2),
                "f1 %": round(100 * quality.f1, 3),
            }
        )
    return rows


def test_table2_block_statistics(benchmark, datasets, save_table):
    rows = benchmark.pedantic(
        compute_table2, args=(datasets,), rounds=1, iterations=1
    )
    save_table(
        "table2_blocks",
        render_records(rows, title="Table II — block statistics (scaled)"),
    )

    for row in rows:
        # token comparisons dominate name comparisons (paper: >= 1 order)
        assert row["||BT||"] > row["||BN||"]
        # union below the Cartesian product (the paper's two orders of
        # magnitude need full-scale KBs; these profiles are scaled down)
        assert row["||BT||"] + row["||BN||"] < 0.7 * row["|E1|x|E2|"]
        # purging removes the bulk of the raw comparisons
        assert row["purged %"] > 50.0
        # near-total recall with very low precision
        assert row["recall %"] > 90.0
        assert row["precision %"] < 30.0
