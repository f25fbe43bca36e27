"""Stable content digests of pipeline artifacts.

A digest is the SHA-256 of an artifact's canonical form — for the two
similarity indices their canonical columns (``repro-digest/2``, laid out
in ``docs/PERSISTENCE.md``), for everything else a JSON rendering: keys
sorted, sets as sorted lists, floats in shortest round-trip form
(``json`` uses ``repr``, exact since Python 3.1).  Two artifacts digest
equally iff they are value-identical — floating-point scores included —
which is exactly the equality the golden-regression fixtures and the
batch-vs-incremental parity harness assert.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, is_dataclass
from typing import Any

from ..blocking.base import BlockCollection
from ..blocking.packed import PackedBlockCollection
from ..core.heuristics import Match
from ..core.neighbors import NeighborSimilarityIndex
from ..core.similarity import ValueSimilarityIndex
from ..ids.arrays import canonical_pair_columns
from .context import PipelineContext

#: ``digest_schema`` a save writes and the only one a load reads: the
#: index digests are column digests, and the neighbor columns hold the
#: index the run published (only the co-occurring pairs under the
#: conference H3).  A change to either bumps it.
DIGEST_SCHEMA = 3

#: Context artifacts digests are computed for, in pipeline order.  The
#: seeded KBs (inputs, not products) are deliberately absent.
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


def canonical_value(value: Any) -> Any:
    """A JSON-serializable canonical form of one artifact value."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, PackedBlockCollection):  # the rows below, born sorted
        rows = zip(value.block_keys, value.member_uris(1), value.member_uris(2))
        return [list(row) for row in rows]
    if isinstance(value, BlockCollection):
        return [
            [block.key, sorted(block.entities1), sorted(block.entities2)]
            for block in sorted(value, key=lambda b: b.key)
        ]
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


def _json_digest(canonical: Any) -> str:
    rendered = json.dumps(
        canonical,
        sort_keys=True,
        separators=(",", ":"),
        ensure_ascii=True,
        allow_nan=False,
    )
    return hashlib.sha256(rendered.encode("utf-8")).hexdigest()


def artifact_digest(value: Any) -> str:
    """The SHA-256 hex digest of an artifact's canonical form."""
    if not isinstance(value, (ValueSimilarityIndex, NeighborSimilarityIndex)):
        return _json_digest(canonical_value(value))
    uris1, uris2, keys, sims = canonical_pair_columns(
        *value.packed_columns(), *value.interners()
    )
    hasher = hashlib.sha256(b"repro-digest/2")
    for uris in (uris1, uris2):
        hasher.update(len(uris).to_bytes(8, "little"))
        for encoded in map(str.encode, uris):
            hasher.update(len(encoded).to_bytes(8, "little") + encoded)
    hasher.update(len(keys).to_bytes(8, "little"))
    hasher.update(keys)
    hasher.update(sims)
    return hasher.hexdigest()


def context_digests(ctx: PipelineContext) -> dict[str, str]:
    """Digests of every digestable artifact present in ``ctx``."""
    return {
        key: artifact_digest(ctx.get(key))
        for key in DIGESTED_ARTIFACTS
        if ctx.has(key)
    }
