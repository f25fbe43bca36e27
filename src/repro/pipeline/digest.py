"""Stable content digests of pipeline artifacts.

Every digest is the SHA-256 of a canonical JSON rendering of the
artifact: keys sorted, set-valued members sorted into lists, floats in
their shortest round-trip form (``json`` uses ``repr``, which has been
exact since Python 3.1).  Two artifacts digest equally iff they are
value-identical — floating-point scores included — which is exactly the
equality the golden-regression fixtures and the batch-vs-incremental
parity harness assert.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, is_dataclass
from typing import Any

from ..blocking.base import BlockCollection
from ..core.heuristics import Match
from ..core.neighbors import NeighborSimilarityIndex
from ..core.similarity import ValueSimilarityIndex
from ..ids import PAIR_ID_BITS, PAIR_ID_MASK
from .context import PipelineContext

#: Context artifacts digests are computed for, in pipeline order.  The
#: seeded KBs (inputs, not products) and the candidate index (a lazy
#: view over the two similarity indices, no state of its own) are
#: deliberately absent.
DIGESTED_ARTIFACTS = (
    "name_attributes1",
    "name_attributes2",
    "name_blocks",
    "token_blocks",
    "purging_report",
    "value_index",
    "top_relations1",
    "top_relations2",
    "neighbor_index",
    "pre_h4_matches",
    "discarded_by_h4",
    "matches",
)


def _index_rows(index) -> list[list]:
    """``[uri1, uri2, sim]`` rows of a similarity index, sorted by URIs.

    With sorted interners id order is URI order, so the ascending key
    column already stands in ``sorted(pairs().items())`` order: the rows
    decode straight off the columns.  Unsorted interners (an index
    restored from a snapshot written after in-place deltas) sort the
    decoded view instead.
    """
    interner1, interner2 = index.interners()
    if not (interner1.is_sorted and interner2.is_sorted):
        return [
            [uri1, uri2, sim]
            for (uri1, uri2), sim in sorted(index.pairs().items())
        ]
    uris1, uris2 = interner1.uris(), interner2.uris()
    keys, sims = index.packed_columns()
    return [
        [uris1[key >> PAIR_ID_BITS], uris2[key & PAIR_ID_MASK], sim]
        for key, sim in zip(keys.tolist(), sims.tolist())
    ]


def canonical_value(value: Any) -> Any:
    """A JSON-serializable canonical form of one artifact value."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, BlockCollection):
        return [
            [block.key, sorted(block.entities1), sorted(block.entities2)]
            for block in sorted(value, key=lambda b: b.key)
        ]
    if isinstance(value, (ValueSimilarityIndex, NeighborSimilarityIndex)):
        return _index_rows(value)
    if isinstance(value, Match):
        return [value.uri1, value.uri2, value.heuristic, value.score]
    if is_dataclass(value) and not isinstance(value, type):
        return {
            key: canonical_value(item)
            for key, item in sorted(asdict(value).items())
        }
    if isinstance(value, dict):
        return {
            str(key): canonical_value(item)
            for key, item in sorted(value.items(), key=lambda kv: str(kv[0]))
        }
    if isinstance(value, (set, frozenset)):
        return sorted(str(item) for item in value)
    if isinstance(value, (list, tuple)):
        return [canonical_value(item) for item in value]
    raise TypeError(
        f"no canonical form for artifact value of type {type(value).__name__}"
    )


def artifact_digest(value: Any) -> str:
    """The SHA-256 hex digest of an artifact's canonical JSON form."""
    rendered = json.dumps(
        canonical_value(value),
        sort_keys=True,
        separators=(",", ":"),
        ensure_ascii=True,
        allow_nan=False,
    )
    return hashlib.sha256(rendered.encode("utf-8")).hexdigest()


def context_digests(ctx: PipelineContext) -> dict[str, str]:
    """Digests of every digestable artifact present in ``ctx``."""
    return {
        key: artifact_digest(ctx.get(key))
        for key in DIGESTED_ARTIFACTS
        if ctx.has(key)
    }
