"""Immutable published read states and the swap-on-publish box.

The daemon's isolation model in two classes:

- A :class:`ServingState` is one *generation* of resolution evidence —
  the packed similarity indices, the decided matches, and the KB
  membership at publish time — frozen forever once constructed.  Every
  read endpoint resolves entirely against one state object, so a
  response can never mix evidence from two generations.
- A :class:`StateBox` holds the single published reference.  Readers do
  exactly one attribute load (atomic under the GIL) to pin a state for
  the whole request; the writer constructs the next state off to the
  side and swaps it in with one attribute store.  No lock appears
  anywhere on the read path.

The writer's obligation is that published objects are never mutated
afterwards.  :class:`~repro.incremental.IncrementalMatcher` meets it by
construction: a delta refresh builds new block collections and index
objects instead of patching the ones it handed out, so the published
state keeps frozen originals without any copy-on-write step.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Any

from ..core.resolve import OnlineResolver, ResolveResult, standing_decisions
from ..pipeline.digest import artifact_digest

if TYPE_CHECKING:  # pragma: no cover - types only
    from ..core.heuristics import Match
    from ..core.similarity import ValueSimilarityIndex
    from ..incremental.matcher import IncrementalMatcher


class ServingState:
    """One published generation of read-only resolution evidence.

    Constructed by the single writer, then only ever read.  Every read
    is one call to the state's own
    :class:`~repro.core.resolve.OnlineResolver`, which writes only its
    two byte-bounded memos and, once per generation, side 2's ranking.
    Nothing the state holds refers back to it, so a retired generation
    is freed the instant its last reader returns, not at the next
    garbage collection pass.
    """

    __slots__ = (
        "generation",
        "value_index",
        "matches",
        "decisions1",
        "decisions2",
        "uris1",
        "uris2",
        "config",
        "delta_count",
        "matches_digest",
        "resolver",
        "__weakref__",
    )

    def __init__(
        self,
        *,
        generation: int,
        value_index: "ValueSimilarityIndex",
        matches: tuple["Match", ...],
        decisions1: dict[str, "Match"],
        uris1: frozenset[str],
        uris2: frozenset[str],
        config: Any,
        delta_count: int,
        matches_digest: str,
        resolver: OnlineResolver,
    ) -> None:
        self.generation = generation
        self.value_index = value_index
        self.matches = matches
        self.decisions1 = decisions1
        self.decisions2 = standing_decisions(matches, 2)
        self.uris1 = uris1
        self.uris2 = uris2
        self.config = config
        self.delta_count = delta_count
        self.matches_digest = matches_digest
        self.resolver = resolver

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_matcher(
        cls,
        matcher: "IncrementalMatcher",
        *,
        generation: int,
        delta_count: int,
    ) -> "ServingState":
        """Freeze the matcher's current (post-``match()``) evidence.

        The caller must have run :meth:`IncrementalMatcher.match` — the
        state is built from ``last_context``, the same artifact store a
        snapshot would persist, so a state's ``matches_digest`` equals
        the ``matches`` entry of the digests a concurrent
        ``POST /snapshot`` writes.  A publish ranks no index row: the
        generation's reads rank what they read (docs/SERVING.md).
        """
        ctx = matcher.last_context
        if ctx is None:
            raise RuntimeError(
                "matcher has no completed match(); run it before publishing"
            )
        matches = ctx.get("matches")
        kb1, kb2 = matcher.kbs
        uris1 = frozenset(kb1.uris())
        decisions1 = standing_decisions(matches, 1)
        # The state and its resolver share one KB1 membership set and
        # one decisions map, taken now: once published, a state never
        # reads the live KBs or the matcher's tables again, so later
        # deltas cannot leak into this generation.
        resolver = OnlineResolver.from_context(ctx, uris1, decisions1)
        return cls(
            generation=generation,
            value_index=ctx.get("value_index"),
            matches=tuple(matches),
            decisions1=decisions1,
            uris1=uris1,
            uris2=frozenset(kb2.uris()),
            config=matcher.config,
            delta_count=delta_count,
            matches_digest=artifact_digest(matches),
            resolver=resolver,
        )

    # ------------------------------------------------------------------
    # Reads (everything an endpoint needs, no mutation anywhere)
    # ------------------------------------------------------------------
    def probe(self, uri: str, k: int | None = None) -> ResolveResult:
        """This generation's precomputed rows and standing decision for
        one E1 entity (``GET /candidates``)."""
        return self.resolver.probe(uri, k)

    def resolve(self, record: Any, k: int | None = None) -> ResolveResult:
        """Online resolution of one raw record against this generation.

        Read-only: the resolver's tables were frozen at publish time,
        and a read writes only the resolver's memos.
        """
        return self.resolver.resolve(record, k)

    def resolve_batch(
        self, records: list, k: int | None = None
    ) -> list[ResolveResult]:
        """Batch resolution (equals per-record :meth:`resolve` exactly)."""
        return self.resolver.resolve_batch(records, k)

    def decision_of(self, uri: str) -> "Match | None":
        """The standing decision mentioning ``uri`` (either side)."""
        found = self.decisions1.get(uri)
        if found is None:
            found = self.decisions2.get(uri)
        return found

    def stats(self) -> dict[str, Any]:
        """The ``GET /stats`` payload body (JSON-ready)."""
        by_heuristic: dict[str, int] = {}
        for match in self.matches:
            by_heuristic[match.heuristic] = (
                by_heuristic.get(match.heuristic, 0) + 1
            )
        return {
            "generation": self.generation,
            "entities1": len(self.uris1),
            "entities2": len(self.uris2),
            "matches": len(self.matches),
            "by_heuristic": by_heuristic,
            "delta_count": self.delta_count,
            "matches_digest": self.matches_digest,
        }

    def __repr__(self) -> str:
        return (
            f"ServingState(gen={self.generation}, "
            f"matches={len(self.matches)}, deltas={self.delta_count})"
        )


class StateBox:
    """The single published-state reference (swap-on-publish).

    ``current()`` is one attribute read — atomic under the GIL, so a
    reader pins a fully-constructed state or the previous one, never a
    torn mix.  ``publish()`` is restricted to the daemon's writer path
    (which additionally serializes writers with its own lock); the box
    itself also guards the swap so misuse cannot interleave stores.
    """

    __slots__ = ("_state", "_swap_lock")

    def __init__(self, state: ServingState) -> None:
        self._state = state
        self._swap_lock = threading.Lock()

    def current(self) -> ServingState:
        """The currently published state (lock-free read)."""
        return self._state

    def publish(self, state: ServingState) -> ServingState:
        """Swap ``state`` in; returns the state it replaced."""
        with self._swap_lock:
            previous = self._state
            if state.generation <= previous.generation:
                raise ValueError(
                    f"generation must advance: {previous.generation} -> "
                    f"{state.generation}"
                )
            self._state = state
        return previous

    def __repr__(self) -> str:
        return f"StateBox({self._state!r})"
