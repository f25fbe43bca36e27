"""What a delta refresh maintains, what it rebuilds, and what it costs.

Since the value and neighbor indices are rebuilt through the batch
builders on every delta, their parity with a cold run is by
construction; what can still drift is the state kept *incrementally* —
block placements, the purge decision, name blocks, the top-relation
check, per-entity top-neighbor sets.  The generated sequence below
drives exactly that state through its awkward transitions and compares
every artifact digest with a cold run **after every step**.  The other
tests pin the two properties the rebuild design buys: a published
:class:`~repro.serve.ServingState` is immutable without copy-on-write,
and a delta costs about one cold run, not several.
"""

import importlib
import json
import random
import time

import pytest

from repro.core import MinoanER, MinoanERConfig
from repro.core.statistics import top_relations
from repro.datasets import generate_benchmark, query_stream
from repro.blocking import PlacementTable
from repro.blocking.placements import entity_key_rows
from repro.blocking.purging import purge_decision_from_sizes
from repro.incremental import IncrementalMatcher
from repro.kb.entity import EntityDescription
from repro.pipeline import MatchSession, context_digests
from repro.pipeline.stages import TokenBlockingStage
from repro.serve import ResolutionDaemon, ServingState, parse_delta
from repro.serve import handlers
from repro.serve.json_codec import entity_to_dict

#: The four rebuilt stages of one delta, and the two maintained ones.
REBUILT = {"value_index": 1, "neighbor_index": 1, "matching": 1}
MAINTAINED = {"name_blocking": 1, "token_blocking": 1}


def counter_gain(before: dict, after: dict) -> dict:
    return {
        stage: count - before.get(stage, 0)
        for stage, count in after.items()
        if count != before.get(stage, 0)
    }


def crafted(uri: str, text: str) -> EntityDescription:
    entity = EntityDescription(uri)
    entity.add_literal("label", text)
    return entity


# ----------------------------------------------------------------------
# Generated parity on what stays incremental
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def dataset():
    # bbc_dbpedia: six relations competing for three top slots (the
    # ranking can move) and a purged stop-word tail (the cut can move).
    return generate_benchmark("bbc_dbpedia", scale=0.1, seed=3)


class Replay:
    """One delta sequence applied to the matcher and to cold KB copies."""

    def __init__(self, kb1, kb2, config):
        self.config = config
        self.cold = (kb1.copy(), kb2.copy())
        self.matcher = IncrementalMatcher(MinoanER(config).session(kb1, kb2))
        self.matcher.match()
        self.steps = 0

    def kb(self, side):
        return self.cold[side - 1]

    def name_attributes(self):
        ctx = self.matcher.last_context
        return ctx.get("name_attributes1"), ctx.get("name_attributes2")

    def step(self, *ops):
        """Apply ``(op, side, payload)`` ops as ONE delta, then compare
        every artifact digest with a cold run.  Returns the matcher's
        context for scenario-specific assertions."""
        for op, side, payload in ops:
            if op == "add":
                self.matcher.add_entities(side, payload)
                for entity in payload:
                    self.kb(side).add(entity)
            else:
                self.matcher.remove_entities(side, payload)
                for uri in payload:
                    self.kb(side).remove(uri)
        before = self.matcher.counters()
        names_before = self.name_attributes()
        self.matcher.match()
        after = self.matcher.counters()
        rebuilt = counter_gain(before["recomputed"], after["recomputed"])
        maintained = counter_gain(
            before["delta_updated"], after["delta_updated"]
        )
        # The name stage re-runs (keying both sides afresh) only when
        # the discovered name attributes moved; token placements never
        # are re-keyed.
        rekeyed = rebuilt.pop("name_blocking", 0)
        assert bool(rekeyed) == (self.name_attributes() != names_before)
        assert rebuilt == REBUILT
        assert maintained == (
            {"token_blocking": 1} if rekeyed else MAINTAINED
        )
        ctx = MatchSession(
            self.cold[0].copy(), self.cold[1].copy(), self.config
        ).run_context()
        self.steps += 1
        assert context_digests(self.matcher.last_context) == context_digests(
            ctx
        ), f"step {self.steps}: {ops!r}"
        return self.matcher.last_context


def holders_of_lowest_top_relation(kb, config):
    """Subjects to withdraw until ``kb``'s top-relation ranking moves."""
    ranking = top_relations(kb, config.top_n_relations)
    relation = ranking[-1].lstrip("~")
    trial = kb.copy()
    gone = []
    for uri in sorted(kb.uris()):
        if relation not in kb[uri].relations():
            continue
        trial.remove(uri)
        gone.append(uri)
        moved = top_relations(trial, config.top_n_relations)
        if moved != ranking:
            return gone
    raise AssertionError("the ranking never moved; pick another dataset")


def flooding_batch(kb1, kb2, config):
    """The fewest crafted KB1 entities that push a kept block over the
    purge cut, found by replaying the purge arithmetic on grown sizes."""
    keyer = TokenBlockingStage.keyer()
    sizes = PlacementTable(
        "BT", tuple(entity_key_rows(kb, keyer) for kb in (kb1, kb2))
    ).shared_counts()
    kept, _ = purge_decision_from_sizes(sizes)
    heaviest = sorted(
        kept, key=lambda key: (-sizes[key][0] * sizes[key][1], key)
    )[:6]
    for count in range(1, 40):
        grown = dict(sizes)
        for key in heaviest:
            grown[key] = (sizes[key][0] + count, sizes[key][1])
        still_kept, _ = purge_decision_from_sizes(grown)
        if any(key not in still_kept for key in heaviest):
            return [
                crafted(f"urn:test:flood{i}", " ".join(heaviest))
                for i in range(count)
            ]
    raise AssertionError("no kept block crossed the cut; pick another dataset")


def test_generated_sequence_matches_cold_after_every_step(dataset, numpy_arm):
    rng = random.Random(20240915)
    config = MinoanERConfig()
    kb1, kb2 = dataset.kb1.copy(), dataset.kb2.copy()
    spares = {
        side: [kb.remove(uri) for uri in rng.sample(sorted(kb.uris()), 6)]
        for side, kb in ((1, kb1), (2, kb2))
    }
    run = Replay(kb1, kb2, config)

    def random_step():
        side = rng.choice((1, 2))
        if spares[side] and rng.random() < 0.5:
            count = min(len(spares[side]), rng.randint(1, 3))
            return ("add", side, [spares[side].pop() for _ in range(count)])
        uris = rng.sample(sorted(run.kb(side).uris()), rng.randint(1, 3))
        return ("remove", side, uris)

    run.step(random_step())
    run.step(random_step(), random_step())  # both sides may move at once

    # -- remove one URI, then re-add the same description later: it
    #    comes back appended, not in its old KB position
    returning = run.kb(1)[sorted(run.kb(1).uris())[3]]
    run.step(("remove", 1, [returning.uri]))

    # -- a block that appears with a delta and is emptied by the next
    first = run.step(
        ("add", 1, [crafted("urn:test:only1", "zzqxunique alpha")]),
        ("add", 2, [crafted("urn:test:only2", "zzqxunique beta")]),
    )
    assert "zzqxunique" in first.get("token_blocks")
    emptied = run.step(("remove", 2, ["urn:test:only2"]))
    assert "zzqxunique" not in emptied.get("token_blocks")

    run.step(("add", 1, [returning]))
    assert run.kb(1).uris()[-1] == returning.uri

    # -- a purge decision flips: one more member pushes kept blocks over
    #    the cut (a pure add empties no block, so a vanished key was
    #    purged, not emptied)
    kept_before = set(run.matcher.last_context.get("token_blocks").keys())
    flooded = run.step(("add", 1, flooding_batch(run.kb(1), run.kb(2), config)))
    assert kept_before - set(flooded.get("token_blocks").keys())

    # -- the top-relation ranking of KB2 moves
    ranking_before = run.matcher.last_context.get("top_relations2")
    moved = run.step(
        ("remove", 2, holders_of_lowest_top_relation(run.kb(2), config))
    )
    assert moved.get("top_relations2") != ranking_before

    while run.steps < 12:
        run.step(random_step())


def test_a_delta_rederives_only_the_touched_kbs_name_attributes(
    dataset, monkeypatch
):
    """A delta re-derives the discovered name attributes of the KBs it
    touched only: an untouched KB's are kept with the version they were
    derived at, and a match with nothing pending derives none."""
    matcher_module = importlib.import_module("repro.incremental.matcher")
    matcher = IncrementalMatcher(
        MatchSession(dataset.kb1.copy(), dataset.kb2.copy())
    )
    matcher.match()
    derived = []
    real = matcher_module.top_name_attributes
    monkeypatch.setattr(
        matcher_module,
        "top_name_attributes",
        lambda kb, k: derived.append(kb) or real(kb, k),
    )
    for sides in ((1,), (2,), (1, 2)):
        for side in sides:
            kb = matcher.kbs[side - 1]
            matcher.remove_entities(side, sorted(kb.uris())[:1])
        matcher.match()
        assert derived == [matcher.kbs[side - 1] for side in sides]
        derived.clear()
    matcher.match()
    assert derived == []


def test_a_delta_rederives_only_the_touched_kbs_top_relations_and_neighbors(
    dataset, monkeypatch, tmp_path
):
    """A delta re-derives the top relations and top neighbors of the KBs
    it touched only (both in one pass over a KB's graph), on a matcher
    that matched cold and on one booted from a snapshot (whose load ran
    no stage); every artifact digest still equals a cold run's."""
    stages_module = importlib.import_module("repro.pipeline.stages")
    derived = []
    real = stages_module.top_relations_and_neighbors
    monkeypatch.setattr(
        stages_module,
        "top_relations_and_neighbors",
        lambda kb, n: derived.append(kb) or real(kb, n),
    )
    matcher = IncrementalMatcher(
        MatchSession(dataset.kb1.copy(), dataset.kb2.copy())
    )
    matcher.match()
    assert derived == [matcher.kbs[0], matcher.kbs[1]]
    path = matcher.save(tmp_path / "seed")
    for booted in (matcher, IncrementalMatcher.from_snapshot(path)):
        for sides in ((1,), (2,), (1, 2)):
            derived.clear()
            for side in sides:
                kb = booted.kbs[side - 1]
                booted.remove_entities(side, sorted(kb.uris())[:1])
            booted.match()
            assert derived == [booted.kbs[side - 1] for side in sides]
            cold = MatchSession(
                booted.kbs[0].copy(), booted.kbs[1].copy()
            ).run_context()
            assert context_digests(booted.last_context) == context_digests(
                cold
            )
        derived.clear()
        booted.match()
        assert derived == []


# ----------------------------------------------------------------------
# Published states are immutable because indices are never mutated
# ----------------------------------------------------------------------
def test_state_held_across_two_deltas_answers_byte_identically(dataset):
    kb1, kb2 = dataset.kb1.copy(), dataset.kb2.copy()
    held_out = [kb1.remove(uri) for uri in sorted(kb1.uris())[:2]]
    matcher = IncrementalMatcher(MinoanER().session(kb1, kb2))
    daemon = ResolutionDaemon(matcher)
    pinned = daemon.state()
    # A second state over the SAME evidence objects answers first,
    # filling its own resolver's memos; ``pinned``'s stay empty, so after
    # the deltas it must compute every reply from evidence the deltas may
    # not have touched.
    twin = ServingState.from_matcher(
        matcher, generation=pinned.generation, delta_count=0
    )
    uris = sorted(kb1.uris())[:12]
    bodies = [
        {"record": entity_to_dict(query.record), "k": 5}
        for query in query_stream(dataset, 12, 0.3, seed=5)
    ]
    # Every literal of the KB2 entities the second delta removes, as a
    # name of a never-seen record: H1 decides some of them before it and
    # none after, so the freeze must cover H1's tables too.
    gone = sorted(kb2.uris())[:2]
    name = matcher.last_context.get("name_attributes1")[0]
    texts = [text for uri in gone for _, text in kb2[uri].literal_pairs()]
    bodies += [
        {"record": {"uri": f"urn:h1:{at}", "pairs": [[name, {"lit": text}]]}}
        for at, text in enumerate(texts)
    ]

    def replies(state):
        out = [handlers.handle_candidates(state, uri, 5) for uri in uris]
        out += [handlers.handle_best(state, uri) for uri in uris]
        out += [handlers.handle_resolve(state, body) for body in bodies]
        return json.dumps(out, sort_keys=True).encode("utf-8")

    expected = replies(twin)
    assert b'"heuristic": "H1"' in expected
    daemon.apply_delta(
        parse_delta(
            {
                "ops": [
                    {
                        "op": "add",
                        "kb": "kb1",
                        "entities": [entity_to_dict(e) for e in held_out],
                    }
                ]
            }
        )
    )
    daemon.apply_delta(
        parse_delta(
            {"ops": [{"op": "remove", "kb": "kb2", "uris": gone}]}
        )
    )
    current = daemon.state()
    assert current.generation == pinned.generation + 2
    assert current.value_index is not pinned.value_index
    assert replies(pinned) == expected
    assert replies(current) != expected  # the deltas did change the evidence


# ----------------------------------------------------------------------
# Cost guard: a delta is about one cold run
# ----------------------------------------------------------------------
def best_of(repeats, work):
    best = float("inf")
    for index in range(repeats):
        began = time.perf_counter()
        work(index)
        best = min(best, time.perf_counter() - began)
    return best


def test_small_delta_costs_at_most_two_cold_runs():
    """rexa_dblp 0.2: a 2-entity add and a 2-entity remove each within
    2x a cold match of the same KBs (the per-pair replay this replaced
    read 3.5-4.8x, the rebuild reads about 1x)."""
    data = generate_benchmark("rexa_dblp", scale=0.2, seed=13)
    kb1, kb2 = data.kb1.copy(), data.kb2.copy()
    rng = random.Random(13)
    arriving = [kb1.remove(uri) for uri in rng.sample(sorted(kb1.uris()), 6)]
    leaving = rng.sample(sorted(kb2.uris()), 6)
    cold = best_of(3, lambda _: MinoanER().match(kb1.copy(), kb2.copy()))

    matcher = IncrementalMatcher(MinoanER().session(kb1, kb2))
    matcher.match()

    def delta(apply):
        def work(index):
            before = matcher.counters()
            apply(index)
            matcher.match()
            after = matcher.counters()
            assert (
                counter_gain(before["recomputed"], after["recomputed"])
                == REBUILT
            )
            assert (
                counter_gain(before["delta_updated"], after["delta_updated"])
                == MAINTAINED
            )

        return best_of(3, work)

    add = delta(
        lambda i: matcher.add_entities(1, arriving[2 * i : 2 * i + 2])
    )
    remove = delta(
        lambda i: matcher.remove_entities(2, leaving[2 * i : 2 * i + 2])
    )
    assert add <= 2 * cold, f"add {add:.3f}s vs cold {cold:.3f}s"
    assert remove <= 2 * cold, f"remove {remove:.3f}s vs cold {cold:.3f}s"
