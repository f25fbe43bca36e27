"""Table I — dataset statistics.

Regenerates the paper's Table I for the four synthetic benchmark profiles:
entities, triples, average tokens per description, and distinct
attribute/relation/type counts per KB, plus the ground-truth match count.
Absolute counts are scaled down (the profiles are synthetic, laptop-scale
stand-ins for the paper's KB pairs; see ``repro.datasets.generator``); the
*relations between* them — E2 larger than E1, BBC's DBpedia side
schema-exploded and verbose, YAGO/IMDb token-poor — are asserted.
"""

from repro.datasets import PROFILE_ORDER
from repro.evaluation import render_records
from repro.kb import Tokenizer, dataset_statistics

#: Paper Table I reference (entities/triples at full scale, for context).
PAPER_TABLE1 = {
    "restaurant": {"entities": (339, 2_256), "matches": 89},
    "rexa_dblp": {"entities": (18_492, 2_650_832), "matches": 1_309},
    "bbc_dbpedia": {"entities": (58_793, 256_602), "matches": 22_770},
    "yago_imdb": {"entities": (5_208_100, 5_328_774), "matches": 56_683},
}


def compute_table1(datasets):
    tokenizer = Tokenizer()
    rows = []
    for name in PROFILE_ORDER:
        data = datasets[name]
        stats = dataset_statistics(
            data.kb1, data.kb2, len(data.ground_truth), tokenizer
        )
        for side, kb_stats in (("E1", stats.kb1), ("E2", stats.kb2)):
            row = {"dataset": name, "side": side}
            row.update(kb_stats.as_row())
            row["matches"] = stats.matches if side == "E1" else ""
            rows.append(row)
    return rows


def test_table1_dataset_statistics(benchmark, datasets, save_table):
    rows = benchmark.pedantic(
        compute_table1, args=(datasets,), rounds=1, iterations=1
    )
    save_table(
        "table1_datasets",
        render_records(rows, title="Table I — dataset statistics (scaled)"),
    )

    by_key = {(r["dataset"], r["side"]): r for r in rows}
    for name in PROFILE_ORDER:
        e1, e2 = by_key[(name, "E1")], by_key[(name, "E2")]
        # E1 is never the larger side, as in all four paper datasets
        assert e1["entities"] <= e2["entities"]
    # BBC regime: second side verbose and schema-exploded
    bbc1, bbc2 = by_key[("bbc_dbpedia", "E1")], by_key[("bbc_dbpedia", "E2")]
    assert bbc2["avg tokens"] > 2 * bbc1["avg tokens"]
    assert bbc2["attributes"] > 10 * bbc1["attributes"]
    # YAGO regime: token-poor on both sides
    yago1 = by_key[("yago_imdb", "E1")]
    rexa1 = by_key[("rexa_dblp", "E1")]
    assert yago1["avg tokens"] < rexa1["avg tokens"]
