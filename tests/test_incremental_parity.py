"""Batch-vs-incremental parity matrix (the tentpole's headline contract).

For every delta scenario × executor, applying a delta sequence through
:class:`~repro.incremental.IncrementalMatcher` must produce output
**bit-identical** to a cold batch ``match()`` over KBs with the same
final state — same match tuples with the same float scores, same block
collections, same per-stage artifact digests — while recomputing
strictly fewer stage artifacts than the cold run (asserted via the
matcher's stage-run counters).

Scenarios: add-only, remove-only, interleaved, the empty delta, and
duplicate re-add (remove then re-insert the same descriptions).  Delta
sequences are randomized but seed-pinned.
"""

import random

import pytest

from repro.core import MinoanER, MinoanERConfig
from repro.datasets import generate_benchmark
from repro.incremental import IncrementalMatcher
from repro.pipeline import MatchSession, context_digests

EXECUTORS = [("serial", None), ("thread", 3), ("process", 2)]

#: scenario name -> builder of a delta script over (rng, kb1, kb2).
#: Each step is ("add"|"remove", side, entities-or-uris).
def _script_add_only(rng, kb1, kb2, spare1, spare2):
    return [
        ("add", 1, spare1[:4]),
        ("add", 2, spare2[:3]),
        ("add", 1, spare1[4:7]),
    ]


def _script_remove_only(rng, kb1, kb2, spare1, spare2):
    return [
        ("remove", 1, rng.sample(kb1.uris(), 5)),
        ("remove", 2, rng.sample(kb2.uris(), 4)),
    ]


def _script_interleaved(rng, kb1, kb2, spare1, spare2):
    gone1 = rng.sample(kb1.uris(), 4)
    return [
        ("remove", 1, gone1),
        ("add", 2, spare2[:3]),
        ("add", 1, spare1[:2]),
        ("remove", 2, rng.sample(kb2.uris(), 3)),
    ]


def _script_empty(rng, kb1, kb2, spare1, spare2):
    return []


def _script_duplicate_readd(rng, kb1, kb2, spare1, spare2):
    gone = rng.sample(kb1.uris(), 5)
    entities = [kb1[uri] for uri in gone]
    return [
        ("remove", 1, gone),
        ("add", 1, entities),  # same descriptions come back (appended)
        ("remove", 2, rng.sample(kb2.uris(), 2)),
    ]


SCENARIOS = {
    "add_only": _script_add_only,
    "remove_only": _script_remove_only,
    "interleaved": _script_interleaved,
    "empty": _script_empty,
    "duplicate_readd": _script_duplicate_readd,
}


@pytest.fixture(scope="module")
def dataset():
    # yago_imdb exercises all four heuristics and has real graph
    # structure, so neighbor-index deltas carry weight.
    return generate_benchmark("yago_imdb", scale=0.05, seed=3)


def _split_spares(kb, count, rng):
    """Withdraw ``count`` random entities to act as later insertions."""
    uris = rng.sample(kb.uris(), count)
    spares = [kb[uri] for uri in uris]
    for uri in uris:
        kb.remove(uri)
    return spares


def match_signature(result):
    return [(m.uri1, m.uri2, m.heuristic, m.score) for m in result.matches]


def block_signature(blocks):
    return {
        b.key: (frozenset(b.entities1), frozenset(b.entities2)) for b in blocks
    }


@pytest.mark.parametrize("engine_name,workers", EXECUTORS)
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_incremental_equals_cold_batch(dataset, scenario, engine_name, workers):
    rng = random.Random(sum(map(ord, scenario)))  # stable across runs
    kb1, kb2 = dataset.kb1.copy(), dataset.kb2.copy()
    spare1 = _split_spares(kb1, 8, rng)
    spare2 = _split_spares(kb2, 8, rng)
    config = MinoanERConfig(engine=engine_name, workers=workers)

    script = SCENARIOS[scenario](rng, kb1, kb2, spare1, spare2)
    cold1, cold2 = kb1.copy(), kb2.copy()

    matcher = IncrementalMatcher(MinoanER(config).session(kb1, kb2))
    matcher.match()  # initial (bootstrap-equivalent) run
    before = dict(matcher.stage_recomputes)
    for op, side, payload in script:
        if op == "add":
            matcher.add_entities(side, payload)
        else:
            matcher.remove_entities(side, payload)
    incremental = matcher.match()

    # Cold batch over the equivalent final KB state: replay the same
    # delta script on untouched copies, then match from scratch.
    for op, side, payload in script:
        kb = cold1 if side == 1 else cold2
        if op == "add":
            for entity in payload:
                kb.add(entity)
        else:
            for uri in payload:
                kb.remove(uri)
    cold = MinoanER(config).match(cold1.copy(), cold2.copy())

    # -- bit-identical matches (scores included) and block indices
    assert match_signature(incremental) == match_signature(cold)
    assert block_signature(incremental.token_blocks) == block_signature(
        cold.token_blocks
    )
    assert block_signature(incremental.name_blocks) == block_signature(
        cold.name_blocks
    )
    assert incremental.purging_report == cold.purging_report

    # -- every stage artifact digest identical to the cold run's
    ctx = MatchSession(cold1.copy(), cold2.copy(), config).run_context()
    assert context_digests(matcher.last_context) == context_digests(ctx)

    # -- the incremental path recomputed strictly fewer stage artifacts
    recomputed = sum(matcher.stage_recomputes.values()) - sum(before.values())
    assert recomputed < len(list(matcher.graph))
    if not script:
        # an empty delta is a pure cache restore
        assert recomputed == 0
    else:
        # the decision stages re-run (greedy, order-dependent) ...
        assert matcher.stage_recomputes["matching"] - before["matching"] == 1
        # ... and token blocking is structurally never recomputed after
        # the cold pass — placements patch in place, whatever else falls
        # back.  A silent recompute-everything regression fails here.
        assert matcher.stage_recomputes["token_blocking"] == before[
            "token_blocking"
        ]
        assert matcher.delta_updates["token_blocking"] >= 1
        assert matcher.delta_updates.get("value_index", 0) + (
            matcher.stage_recomputes["value_index"]
            - before["value_index"]
        ) >= 1  # the value index was either patched or legitimately rebuilt


def test_parity_across_executors_same_deltas(dataset):
    """One fixed delta sequence, three executors: identical output."""
    signatures = []
    for engine_name, workers in EXECUTORS:
        rng = random.Random(99)
        kb1, kb2 = dataset.kb1.copy(), dataset.kb2.copy()
        config = MinoanERConfig(engine=engine_name, workers=workers)
        matcher = IncrementalMatcher(MinoanER(config).session(kb1, kb2))
        gone = rng.sample(kb1.uris(), 6)
        entities = [kb1[uri] for uri in gone]
        matcher.remove_entities(1, gone)
        matcher.match()
        matcher.add_entities(1, entities[:3])
        matcher.remove_entities(2, rng.sample(kb2.uris(), 4))
        result = matcher.match()
        signatures.append(
            (match_signature(result), context_digests(matcher.last_context))
        )
    assert signatures[0] == signatures[1] == signatures[2]
