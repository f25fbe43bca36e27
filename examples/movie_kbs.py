"""Matching token-poor, relation-rich movie KBs (the YAGO-IMDb regime).

Run with::

    python examples/movie_kbs.py [scale]

Generates the YAGO-IMDb-like pair — tiny descriptions, heavy name-token
reuse, namesake persons disambiguated only by the movies that point at
them — and contrasts MinoanER with the value-only BSL baseline.  The gap
between the two is the paper's headline result on this regime.
"""

import sys

from repro import MatchSession, evaluate_matching, generate_benchmark
from repro.evaluation import render_records, run_bsl


def main(scale: float = 0.25) -> None:
    data = generate_benchmark("yago_imdb", scale=scale)

    # A session caches blocking/index artifacts, so the no-H3 ablation
    # below only re-runs the matching stage.
    session = MatchSession(data.kb1, data.kb2)
    result = session.match()
    quality = evaluate_matching(result.pairs(), data.ground_truth)
    print(f"MinoanER by heuristic: {result.by_heuristic()}")
    print(
        "MinoanER:  "
        f"P {100 * quality.precision:.2f}  R {100 * quality.recall:.2f}  "
        f"F1 {100 * quality.f1:.2f}"
    )

    bsl = run_bsl(data, ngram_sizes=(1, 2), thresholds=(0.1, 0.2, 0.3, 0.4))
    print(
        f"BSL ({bsl.detail}):  P {bsl.precision:.2f}  R {bsl.recall:.2f}  "
        f"F1 {bsl.f1:.2f}"
    )
    print()

    # What happens without neighbor evidence?  Disable H3 and compare —
    # the session reuses every prepared index, so this is nearly free.
    no_h3 = session.match(heuristics=("h1", "h2", "h4"))
    no_h3_quality = evaluate_matching(no_h3.pairs(), data.ground_truth)
    rows = [
        {
            "variant": "full MinoanER",
            "recall": round(100 * quality.recall, 2),
            "f1": round(100 * quality.f1, 2),
        },
        {
            "variant": "without H3 (no neighbors)",
            "recall": round(100 * no_h3_quality.recall, 2),
            "f1": round(100 * no_h3_quality.f1, 2),
        },
    ]
    print(render_records(rows, title="Neighbor evidence ablation"))


if __name__ == "__main__":
    main(float(sys.argv[1]) if len(sys.argv) > 1 else 0.25)
