"""Generated delta sequences over exactly the state that stays incremental.

Everything downstream of blocking is rebuilt through the cold stages on
every delta, so what can drift from a cold run is what the matcher keeps
itself — the two placement tables, the purge decision taken from their
sizes, the name-attribute check — plus what rides in the session cache
and the snapshot columns (the top-neighbor sets).  This state machine
drives that state with generated adds and removes on either side
(re-adding removed URIs included), with batches crafted to move the
top-relation ranking, the discovered name attributes and the purge cut,
and with ``save`` → ``from_snapshot`` swapping the matcher under test;
after every ``match`` the artifact digests and the published
top-neighbor sets must equal a cold run on the model KBs, and after every
rule the matcher's placement tables must hold the rows the cold blocking
stages key on the model KBs.

``HYPOTHESIS_PROFILE=dev`` widens the search (see ``docs/TESTING.md``).
"""

import functools
import itertools
import os
import shutil
import tempfile
from pathlib import Path

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule
from oracles import blocking_context

from repro.core import MinoanER, MinoanERConfig
from repro.core.neighbors import top_neighbors
from repro.core.statistics import (
    attribute_importance,
    top_name_attributes,
    top_relations,
)
from repro.datasets import generate_benchmark
from repro.incremental import IncrementalMatcher
from repro.kb.entity import EntityDescription
from repro.pipeline import MatchSession, context_digests

from test_incremental_refresh import (
    crafted,
    flooding_batch,
    holders_of_lowest_top_relation,
)

CONFIG = MinoanERConfig()
SIDES = st.sampled_from((1, 2))
#: Entities withheld per side at the start, to arrive as later adds.
SPARES = 6
#: A side never shrinks below this (the statistics need a population).
FLOOR = 30


@functools.cache
def dataset():
    # The fixture of test_incremental_refresh.py: six relations compete
    # for three top slots, a purged stop-word tail, close name attributes.
    return generate_benchmark("bbc_dbpedia", scale=0.1, seed=3)


def name_moving_batch(kb, fresh_uri):
    """The fewest crafted entities carrying the runner-up attribute that
    change ``kb``'s discovered name attributes, or ``None``."""
    k = CONFIG.name_attributes
    ranking = attribute_importance(kb)
    if len(ranking) <= k:
        return None
    before = top_name_attributes(kb, k)
    trial = kb.copy()
    batch = []
    for _ in range(40):
        entity = EntityDescription(fresh_uri())
        entity.add_literal(ranking[k].predicate, f"zzname {len(trial)}")
        trial.add(entity)
        batch.append(entity)
        if top_name_attributes(trial, k) != before:
            return batch
    return None


class IncrementalMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        data = dataset()
        kbs = (data.kb1.copy(), data.kb2.copy())
        #: side -> descriptions currently outside the KB (withheld at the
        #: start or removed since), newest last.
        self.pool = {
            side: [kb.remove(uri) for uri in sorted(kb.uris())[:SPARES]]
            for side, kb in enumerate(kbs, start=1)
        }
        self.model = (kbs[0].copy(), kbs[1].copy())
        self.matcher = IncrementalMatcher(MinoanER(CONFIG).session(*kbs))
        self.workdir = Path(tempfile.mkdtemp(prefix="repro-stateful-"))
        self.fresh = map("urn:test:crafted{}".format, itertools.count())
        self.saves = itertools.count()

    def teardown(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    # -- the two primitive deltas, applied to matcher and model alike ----
    def _add(self, side, entities, check):
        self.matcher.add_entities(side, entities)
        for entity in entities:
            self.model[side - 1].add(entity)
        if check:
            self.match()

    def _remove(self, side, uris, check):
        self.matcher.remove_entities(side, uris)
        for uri in uris:
            self.pool[side].append(self.model[side - 1].remove(uri))
        if check:
            self.match()

    def _spare(self, side, count):
        return len(self.model[side - 1]) - count >= FLOOR

    # -- rules -----------------------------------------------------------
    @rule(
        side=SIDES,
        count=st.integers(1, 8),
        newest=st.booleans(),
        check=st.booleans(),
    )
    def add(self, side, count, newest, check):
        """Arrivals from the pool: original spares or, ``newest``, the
        descriptions removed last (a re-added URI lands at the end)."""
        pool = self.pool[side]
        if not pool:
            return
        chosen = slice(-count, None) if newest else slice(count)
        batch = pool[chosen]
        del pool[chosen]
        self._add(side, batch, check)

    @rule(
        side=SIDES,
        picks=st.lists(st.integers(0, 10**6), min_size=1, max_size=3),
        check=st.booleans(),
    )
    def remove(self, side, picks, check):
        uris = sorted(self.model[side - 1].uris())
        chosen = list(dict.fromkeys(uris[pick % len(uris)] for pick in picks))
        if self._spare(side, len(chosen)):
            self._remove(side, chosen, check)

    @rule(side=SIDES, check=st.booleans())
    def move_top_relations(self, side, check):
        """Withdraw holders of the lowest top relation until the ranking
        moves: every top-neighbor set of that side is then suspect."""
        try:
            gone = holders_of_lowest_top_relation(self.model[side - 1], CONFIG)
        except AssertionError:  # this state's ranking cannot be moved
            return
        if self._spare(side, len(gone)):
            self._remove(side, gone, check)

    @rule(side=SIDES, check=st.booleans())
    def move_name_attributes(self, side, check):
        batch = name_moving_batch(self.model[side - 1], lambda: next(self.fresh))
        if batch is not None:
            self._add(side, batch, check)

    @rule(check=st.booleans())
    def move_purge_cut(self, check):
        """One more member pushes kept blocks over the purge cut."""
        try:
            flood = flooding_batch(*self.model, CONFIG)
        except AssertionError:  # no kept block is near the cut
            return
        text = flood[0].literals_of("label")[0]
        self._add(1, [crafted(next(self.fresh), text) for _ in flood], check)

    @rule(mode=st.sampled_from(("copy", "mmap")))
    def save_and_reload(self, mode):
        """Swap the matcher under test for its own warm restart."""
        path = self.matcher.save(self.workdir / f"snap{next(self.saves)}")
        self.matcher = IncrementalMatcher.from_snapshot(path, mode=mode)
        self.match()
        assert not self.matcher.counters()["recomputed"]  # a pure restore

    @invariant()
    def tables_equal_cold(self):
        """Token placements follow every delta at once; name placements
        too, unless a pending delta moved the discovered name attributes
        (the refresh then re-runs the stage and adopts its table)."""
        cold = blocking_context(self.model[0], self.model[1], CONFIG)
        uris = tuple(kb.uris() for kb in self.model)
        matcher = self.matcher
        assert matcher._tokens.rows(uris) == cold.get("token_placements").rows(
            uris
        )
        attributes = (cold.get("name_attributes1"), cold.get("name_attributes2"))
        if matcher._name_attrs == attributes:
            assert matcher._names.rows(uris) == cold.get(
                "name_placements"
            ).rows(uris)
        else:
            assert matcher._pending

    @rule()
    def match(self):
        self.matcher.match()
        ctx = self.matcher.last_context
        cold = MatchSession(
            self.model[0].copy(), self.model[1].copy(), CONFIG
        ).run_context()
        assert context_digests(ctx) == context_digests(cold)
        for side, kb in enumerate(self.model, start=1):
            ranking = top_relations(kb, CONFIG.top_n_relations)
            assert ctx.get(f"top_neighbors{side}") == top_neighbors(
                kb, ranking
            )


DEV = os.environ.get("HYPOTHESIS_PROFILE") == "dev"
TestIncrementalMachine = IncrementalMachine.TestCase
TestIncrementalMachine.settings = settings(
    max_examples=40 if DEV else 6,
    stateful_step_count=30 if DEV else 12,
    deadline=None,
)
