"""Golden end-to-end regression: exact expected output, committed.

``tests/golden/`` holds a committed synthetic KB pair (generated once,
then frozen — the ``.nt`` files are the fixture, not the generator),
the exact H1-H4 match decisions the paper-default pipeline makes on it
(``expected_matches.csv``, scores in shortest-round-trip form) and a
SHA-256 digest of every stage artifact (``digests.json``).  Any change
to blocking, purging, index accumulation or heuristic logic that moves
even one float shows up here, with the first diverging stage named.

The similarity indices are pinned twice: under their name by
``rows_digest`` — the JSON-row form every one of the twelve original
entries was frozen in, byte-identical since, so a change of digest
*format* can never hide a moved float — and under ``<name>.columns`` by
the column digest ``artifact_digest`` / ``context_digests`` return.
``value_index`` is the default run's.  ``neighbor_index`` is the full
neighbor product, which only a ``restrict_h3_to_cooccurring=False`` run
of the same fixture keeps, so the whole kernel stays pinned;
``neighbor_index.cooccurring`` is what the default run publishes, the
product's pairs that are also value pairs.

Legitimate behaviour changes re-freeze the fixture with::

    pytest tests/test_golden_regression.py --update-golden
"""

import csv
import json
from pathlib import Path

import pytest

from repro.core import MinoanERConfig
from repro.kb.io_ntriples import read_ntriples
from repro.pipeline import MatchSession, context_digests
from repro.pipeline.context import PipelineContext
from repro.pipeline.digest import DIGESTED_ARTIFACTS, artifact_digest

from oracles import rows_digest

GOLDEN = Path(__file__).parent / "golden"
DIGESTS_FILE = GOLDEN / "digests.json"
MATCHES_FILE = GOLDEN / "expected_matches.csv"


def run_golden_pipeline(**overrides) -> PipelineContext:
    """The paper-default pipeline (with ``overrides``) over the
    committed KB pair."""
    kb1 = read_ntriples(GOLDEN / "kb1.nt", name="golden1")
    kb2 = read_ntriples(GOLDEN / "kb2.nt", name="golden2")
    return MatchSession(kb1, kb2, MinoanERConfig(**overrides)).run_context()


def match_rows(ctx: PipelineContext) -> list[list[str]]:
    return [
        [m.uri1, m.uri2, m.heuristic, repr(m.score)]
        for m in ctx.get("matches")
    ]


@pytest.fixture(scope="module")
def golden_context():
    return run_golden_pipeline()


@pytest.fixture(scope="module")
def full_neighbor_index():
    """The full neighbor product: the unrestricted run publishes it."""
    return run_golden_pipeline(restrict_h3_to_cooccurring=False).get(
        "neighbor_index"
    )


def test_fixture_exercises_every_heuristic(golden_context):
    """The fixture stays meaningful: all four heuristics decide something."""
    produced = {m.heuristic for m in golden_context.get("matches")}
    assert produced == {"H1", "H2", "H3"}
    assert golden_context.get("discarded_by_h4")  # H4 pruned at least one


def test_matches_equal_golden(golden_context, update_golden):
    rows = match_rows(golden_context)
    if update_golden:
        with open(MATCHES_FILE, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["uri1", "uri2", "heuristic", "score"])
            writer.writerows(rows)
        pytest.skip("golden matches rewritten")
    with open(MATCHES_FILE, encoding="utf-8", newline="") as handle:
        expected = [row for row in csv.reader(handle)][1:]
    assert rows == expected, (
        "match decisions diverged from the golden fixture; if intended, "
        "re-freeze with --update-golden"
    )


def golden_digests(ctx: PipelineContext, full_neighbors) -> dict[str, str]:
    """``context_digests`` in the layout of ``digests.json`` (see the
    module docstring): index rows under the name, columns beside it."""
    digests = context_digests(ctx)
    for name, index in (
        ("value_index", ctx.get("value_index")),
        ("neighbor_index", full_neighbors),
        ("neighbor_index.cooccurring", ctx.get("neighbor_index")),
    ):
        digests[name] = rows_digest(index)
        digests[f"{name}.columns"] = artifact_digest(index)
    return digests


def test_stage_digests_equal_golden(
    golden_context, full_neighbor_index, update_golden
):
    digests = golden_digests(golden_context, full_neighbor_index)
    if update_golden:
        DIGESTS_FILE.write_text(
            json.dumps(digests, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        pytest.skip("golden digests rewritten")
    expected = json.loads(DIGESTS_FILE.read_text(encoding="utf-8"))
    # Report the first diverging artifact in pipeline order — everything
    # downstream of it diverges transitively.
    for key in DIGESTED_ARTIFACTS:
        for pinned in (
            key,
            f"{key}.columns",
            f"{key}.cooccurring",
            f"{key}.cooccurring.columns",
        ):
            if pinned not in expected:
                continue
            assert digests.get(pinned) == expected[pinned], (
                f"stage artifact {pinned!r} diverged first (pipeline "
                "order); downstream digests follow from it.  If the "
                "change is intended, re-freeze with --update-golden"
            )
    assert digests == expected  # no artifacts appeared or vanished
