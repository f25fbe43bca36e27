"""Partitioned keying of entities into blocking placement tables.

Every blocking scheme reduces to one per-entity function — its keys
(:func:`token_keys`, or :func:`~repro.blocking.name_blocking.name_keys`
under a side's name attributes).  :func:`entity_key_rows` applies it to
contiguous runs of entities through the engine and returns ``(uri,
keys)`` rows in KB order — what the blocking stages build their
:class:`~repro.blocking.placements.PlacementTable` from, and what the
incremental matcher places a delta's entities with.  The rows are
discrete sets and the table sorts keys at assembly, so the blocks are
identical under every executor.
"""

from __future__ import annotations

import operator
from functools import partial
from typing import Callable, Iterable, Sequence

from ..blocking.placements import KeyRows
from ..kb.entity import EntityDescription
from ..kb.tokenizer import Tokenizer
from .executor import Executor, SerialExecutor
from .partitioner import chunk_evenly, partition_count

#: Entity -> its block keys under one blocking scheme.
KeysOf = Callable[[EntityDescription], frozenset[str]]


def token_keys(entity: EntityDescription, tokenizer: Tokenizer) -> frozenset[str]:
    """The token-blocking keys of one entity: its distinct tokens."""
    return frozenset(tokenizer.token_set(entity))


def _key_rows(entities: Sequence[EntityDescription], keys_of: KeysOf) -> KeyRows:
    """``(uri, keys)`` of one entity partition (engine worker)."""
    return [(entity.uri, keys_of(entity)) for entity in entities]


def entity_key_rows(
    entities: Iterable[EntityDescription],
    keys_of: KeysOf,
    engine: Executor | None = None,
) -> KeyRows:
    """``(uri, block keys)`` of every entity, in the order given.

    The one place an entity is turned into its blocking keys:
    ``keys_of`` is ``partial(token_keys, tokenizer=...)`` or
    ``partial(name_keys, extractor=...)`` (picklable, so the process
    executor can ship it).
    """
    entities = list(entities)
    chunks = chunk_evenly(entities, partition_count(len(entities)))
    return (engine or SerialExecutor()).run(
        partial(_key_rows, keys_of=keys_of), chunks, operator.iadd, []
    )
