"""One heuristic switch: every reader of ``MinoanERConfig.heuristics`` agrees.

For each of the 15 non-empty in-order subsets of ``(h1, h2, h3, h4)``,
on the golden fixture: batch matches and online ``resolve_batch``
decisions come only from the listed heuristics, and a save → load
replays both bit-identically.
"""

from itertools import combinations
from pathlib import Path

import pytest

from repro.core import MinoanERConfig
from repro.datasets import query_stream
from repro.datasets.io import load_dataset
from repro.pipeline import MatchSession, context_digests

GOLDEN = Path(__file__).parent / "golden"

BUILTINS = ("h1", "h2", "h3", "h4")

#: Every non-empty subset of the ladder, in ladder order.
SUBSETS = [
    subset
    for size in range(1, len(BUILTINS) + 1)
    for subset in combinations(BUILTINS, size)
]


@pytest.fixture(scope="module")
def golden():
    return load_dataset(GOLDEN)


@pytest.fixture(scope="module")
def records(golden):
    return [query.record for query in query_stream(golden, 16, 0.3, 11)]


def decisions(results) -> list:
    return [result.as_dict() for result in results]


def producers(heuristics) -> set[str]:
    """The ``Match.heuristic`` labels the listed producers may emit."""
    return {name.upper() for name in heuristics if name != "h4"}


def assert_replays(saved: MatchSession, live: MatchSession, records) -> None:
    """``saved`` (a loaded snapshot of ``live``) replays without
    recomputing a stage, digest-equal, and resolves identically."""
    assert saved.config == live.config
    assert context_digests(saved.run_context()) == context_digests(
        live.run_context()
    )
    assert saved.stage_runs == {}
    assert decisions(saved.resolve_batch(records)) == decisions(
        live.resolve_batch(records)
    )


@pytest.mark.parametrize("heuristics", SUBSETS, ids="+".join)
def test_every_reader_runs_the_listed_heuristics(
    golden, records, heuristics, tmp_path
):
    session = MatchSession(
        golden.kb1, golden.kb2, MinoanERConfig(heuristics=heuristics)
    )
    result = session.match()
    assert {m.heuristic for m in result.matches} <= producers(heuristics)
    if "h4" not in heuristics:
        assert result.discarded_by_h4 == []
    resolved = session.resolve_batch(records)
    assert {
        r.match.heuristic for r in resolved if r.match is not None
    } <= producers(heuristics)

    loaded = MatchSession.load(session.save(tmp_path / "snap"))
    assert_replays(loaded, session, records)


def test_full_ladder_decides_in_batch_and_online(golden, records):
    """The matrix is not vacuous: on this fixture every producer
    decides in batch, and the online ladder decides too."""
    session = MatchSession(golden.kb1, golden.kb2)
    assert set(session.match().by_heuristic()) == {"H1", "H2", "H3"}
    assert any(r.match is not None for r in session.resolve_batch(records))
