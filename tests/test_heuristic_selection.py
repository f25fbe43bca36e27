"""One heuristic switch: every reader of ``MinoanERConfig.heuristics`` agrees.

For each of the 15 non-empty in-order subsets of ``(h1, h2, h3, h4)``,
on the golden fixture: batch matches and online ``resolve_batch``
decisions come only from the listed heuristics, and a save → load
replays both bit-identically.  A snapshot written before the field
existed (four ``enable_h*`` booleans in its config) loads into the same
list and replays bit-identically too, as does one that still holds the
five retired config fields at their constants.
"""

import json
from itertools import combinations
from pathlib import Path

import pytest

from repro.core import MinoanERConfig
from repro.datasets import query_stream
from repro.datasets.io import load_dataset
from repro.pipeline import MatchSession, context_digests
from repro.store import MANIFEST_NAME

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


#: The config fields that became constants, at the values every run used.
RETIRED_CONSTANTS = {
    "min_token_length": 1,
    "include_uri_localnames": False,
    "include_incoming_edges": True,
    "purging_gain_factor": 8.0,
    "purging_max_cardinality": None,
}


def with_heuristic_flags(config: dict) -> None:
    """A config entry from before the ``heuristics`` list: one boolean
    per heuristic, beside the fields that later became constants."""
    listed = config.pop("heuristics")
    config["enable_h1_names"] = "h1" in listed
    config["enable_h2_values"] = "h2" in listed
    config["enable_h3_rank_aggregation"] = "h3" in listed
    config["enable_h4_reciprocity"] = "h4" in listed
    config.update(RETIRED_CONSTANTS)


def with_retired_constants(config: dict) -> None:
    """A config entry from before five fields became constants."""
    config.update(RETIRED_CONSTANTS)


@pytest.mark.parametrize(
    "heuristics,older",
    [
        (BUILTINS, with_heuristic_flags),
        (("h1", "h3"), with_heuristic_flags),
        (BUILTINS, with_retired_constants),
    ],
    ids=["h1+h2+h3+h4", "h1+h3", "retired-constants"],
)
def test_parent_format_manifest_loads_and_replays(
    golden, records, heuristics, older, tmp_path
):
    session = MatchSession(
        golden.kb1, golden.kb2, MinoanERConfig(heuristics=heuristics)
    )
    path = session.save(tmp_path / "snap")
    manifest_path = path / MANIFEST_NAME
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    older(manifest["json"]["config"])
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")

    assert_replays(MatchSession.load(path), session, records)
