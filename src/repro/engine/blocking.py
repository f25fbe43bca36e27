"""Partitioned construction of the name and token block collections.

Each KB side is hash-partitioned by entity; every partition builds a
local ``key -> {uris}`` sub-collection; the driver merges the
sub-collections by key (set union — associative and order-independent)
and materialises a :class:`~repro.blocking.base.BlockCollection` whose
blocks are inserted in **sorted key order**.  One-sided blocks are
dropped during the merge, exactly as the serial builders do.

Sorted merge order is what makes block iteration — and everything
derived from it: purging reports, meta-blocking graphs, similarity
accumulation — reproducible run-to-run and identical across executors.

**Packed hot path.**  Token blocking also runs natively on id columns
(:func:`packed_token_placements` / :func:`assemble_packed_blocks`):
each KB's URIs are interned once, workers tokenize their entity shard
and emit ``token -> array('i') of entity ids`` (compact buffers across
process boundaries, not URI-string sets), the driver concatenates the
per-shard id columns, and assembly sorts/groups them into the CSR form
of a :class:`~repro.blocking.packed.PackedBlockCollection` — whose
string-keyed view equals the :func:`token_blocking_engine` output
block-for-block.  Purging decisions slot between the two steps, so
stop-word blocks are dropped *before* any Block object materializes.
"""

from __future__ import annotations

import operator
from array import array
from functools import partial
from typing import Callable, Iterable, Sequence

from ..blocking.base import Block, BlockCollection
from ..blocking.name_blocking import (
    NameExtractor,
    name_keys,
    names_from_attributes,
)
from ..blocking.packed import PackedBlockCollection
from ..ids import EntityInterner
from ..kb.entity import EntityDescription
from ..kb.knowledge_base import KnowledgeBase
from ..kb.tokenizer import Tokenizer
from .executor import Executor, SerialExecutor
from .partitioner import (
    chunk_evenly,
    hash_partitions,
    partition_count,
    partition_entities,
)

Placements = dict[str, set[str]]

#: Placement rows of a run of entities: ``(uri, block keys)``.
KeyRows = list[tuple[str, frozenset[str]]]

#: Entity -> its block keys under one blocking scheme.
KeysOf = Callable[[EntityDescription], frozenset[str]]

#: One side's packed placements: token -> entity ids (KB-interner space).
IdPlacements = dict[str, array]


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

    The one place an entity is turned into its blocking keys outside the
    id-column hot path: ``keys_of`` is ``partial(token_keys, tokenizer=
    ...)`` or ``partial(name_keys, extractor=...)`` (picklable, so the
    process executor can ship it).  The snapshot store writes these rows
    and the incremental matcher keeps them as its placement tables.
    """
    entities = list(entities)
    chunks = chunk_evenly(entities, partition_count(len(entities)))
    return (engine or SerialExecutor()).run(
        partial(_key_rows, keys_of=keys_of), chunks, operator.iadd, []
    )


def placement_rows(
    kbs: tuple[KnowledgeBase, KnowledgeBase],
    tokenizer: Tokenizer,
    name_attributes: tuple[Sequence[str], Sequence[str]] | None,
    engine: Executor | None = None,
) -> tuple[tuple[KeyRows, KeyRows], tuple[KeyRows, KeyRows] | None]:
    """Both KBs' full placements, every entity keyed once.

    Token rows per side, and name rows per side under each side's
    discovered name attributes (``None`` for a token-only composition).
    *Full* means purged and one-sided keys included — what maintaining
    the blocks under deltas needs and what a snapshot persists.
    """
    tokens = partial(token_keys, tokenizer=tokenizer)
    token_rows = tuple(entity_key_rows(kb, tokens, engine) for kb in kbs)
    name_rows = None
    if name_attributes is not None:
        name_rows = tuple(
            entity_key_rows(
                kb,
                partial(name_keys, extractor=names_from_attributes(attributes)),
                engine,
            )
            for kb, attributes in zip(kbs, name_attributes)
        )
    return token_rows, name_rows


def _placements(entities: list[EntityDescription], keys_of: KeysOf) -> Placements:
    """key -> {entity uris} of one entity partition."""
    placements: Placements = {}
    for entity in entities:
        for key in keys_of(entity):
            placements.setdefault(key, set()).add(entity.uri)
    return placements


def _merge_placements(partials: list[Placements]) -> Placements:
    """Union the per-partition placements of one KB side by key."""
    merged: Placements = {}
    for partial_placements in partials:
        for key, uris in partial_placements.items():
            existing = merged.get(key)
            if existing is None:
                merged[key] = set(uris)
            else:
                existing.update(uris)
    return merged


def _assemble(side1: Placements, side2: Placements, name: str) -> BlockCollection:
    """Cross-KB blocks over sorted keys; one-sided keys carry no comparison."""
    blocks = BlockCollection(name)
    for key in sorted(side1.keys() & side2.keys()):
        blocks.add(Block(key, set(side1[key]), set(side2[key])))
    return blocks


def _build_side(
    kb: KnowledgeBase, worker: partial, engine: Executor
) -> Placements:
    partitions = partition_entities(kb)
    return _merge_placements(engine.map_partitions(worker, partitions))


def token_blocking_engine(
    kb1: KnowledgeBase,
    kb2: KnowledgeBase,
    tokenizer: Tokenizer | None = None,
    engine: Executor | None = None,
    name: str = "BT",
) -> BlockCollection:
    """Token blocks ``BT`` built via per-partition sub-collections."""
    tokenizer = tokenizer or Tokenizer()
    engine = engine or SerialExecutor()
    worker = partial(_placements, keys_of=partial(token_keys, tokenizer=tokenizer))
    return _assemble(
        _build_side(kb1, worker, engine), _build_side(kb2, worker, engine), name
    )


# ----------------------------------------------------------------------
# Packed (id-column) token blocking
# ----------------------------------------------------------------------
def _token_id_rows(
    rows: list[tuple[int, EntityDescription]], tokenizer: Tokenizer
) -> IdPlacements:
    """token -> entity ids of one ``(id, entity)`` partition."""
    placements: dict[str, list[int]] = {}
    for entity_id, entity in rows:
        for token in tokenizer.token_set(entity):
            placements.setdefault(token, []).append(entity_id)
    return {token: array("i", ids) for token, ids in placements.items()}


def _merge_id_placements(
    merged: IdPlacements, partial_placements: IdPlacements
) -> IdPlacements:
    """Concatenate per-partition id columns by token (ids are disjoint
    across partitions; rows are sorted later, at assembly)."""
    for token, ids in partial_placements.items():
        existing = merged.get(token)
        if existing is None:
            merged[token] = ids
        else:
            existing.extend(ids)
    return merged


def _packed_side(
    kb: KnowledgeBase,
    interner: EntityInterner,
    tokenizer: Tokenizer,
    engine: Executor,
) -> IdPlacements:
    ids_by_uri = interner.ids_by_uri()
    shards = hash_partitions(
        [(ids_by_uri[entity.uri], entity) for entity in kb],
        partition_count(len(kb)),
        key=lambda row: row[1].uri,
    )
    return engine.run(
        partial(_token_id_rows, tokenizer=tokenizer),
        shards,
        _merge_id_placements,
        {},
    )


def packed_token_placements(
    kb1: KnowledgeBase,
    kb2: KnowledgeBase,
    tokenizer: Tokenizer | None = None,
    engine: Executor | None = None,
) -> tuple[IdPlacements, IdPlacements, EntityInterner, EntityInterner]:
    """Both sides' token placements as id columns, plus the KB interners.

    The partition layout (hash-by-entity, data-determined shard count)
    is identical to :func:`token_blocking_engine`'s, so the placements —
    and everything assembled from them — are the same under every
    executor.
    """
    tokenizer = tokenizer or Tokenizer()
    engine = engine or SerialExecutor()
    interner1 = EntityInterner(kb1.uris())
    interner2 = EntityInterner(kb2.uris())
    return (
        _packed_side(kb1, interner1, tokenizer, engine),
        _packed_side(kb2, interner2, tokenizer, engine),
        interner1,
        interner2,
    )


def shared_side_sizes(
    side1: IdPlacements, side2: IdPlacements
) -> dict[str, tuple[int, int]]:
    """``token -> (|b1|, |b2|)`` of every two-sided token.

    The input of :func:`~repro.blocking.purging.purge_decision_from_sizes`,
    computed from the id columns without materializing a single block.
    """
    return {
        token: (len(side1[token]), len(side2[token]))
        for token in side1.keys() & side2.keys()
    }


def assemble_packed_blocks(
    side1: IdPlacements,
    side2: IdPlacements,
    interner1: EntityInterner,
    interner2: EntityInterner,
    keep=None,
    name: str = "BT",
) -> PackedBlockCollection:
    """Sort/group the id placements into a CSR-backed block collection.

    Two-sided tokens only, optionally restricted to ``keep`` (the
    purging survivors); keys sort ascending; each side's membership is
    re-interned over exactly the member URIs (ascending ids, so the
    monotone KB-id -> member-id remap keeps every row sorted).  The
    string-keyed view of the result equals the batch builders' output
    block-for-block.
    """
    keys = side1.keys() & side2.keys()
    if keep is not None:
        keys = keys & set(keep)
    ordered = sorted(keys)

    def _remap(side: IdPlacements, interner: EntityInterner):
        member_ids = sorted({i for key in ordered for i in side[key]})
        uris = interner.uris()
        remap = {kb_id: row for row, kb_id in enumerate(member_ids)}
        member_interner = EntityInterner.from_uri_list(
            uris[kb_id] for kb_id in member_ids
        )
        starts, ids = array("q", (0,)), array("i")
        for key in ordered:
            ids.extend(remap[kb_id] for kb_id in sorted(side[key]))
            starts.append(len(ids))
        return member_interner, starts, ids

    member1, starts1, ids1 = _remap(side1, interner1)
    member2, starts2, ids2 = _remap(side2, interner2)
    return PackedBlockCollection(
        name, ordered, member1, member2, starts1, ids1, starts2, ids2
    )


def token_blocking_packed_engine(
    kb1: KnowledgeBase,
    kb2: KnowledgeBase,
    tokenizer: Tokenizer | None = None,
    engine: Executor | None = None,
    name: str = "BT",
) -> PackedBlockCollection:
    """Token blocks ``BT`` built natively on id columns.

    The packed counterpart of :func:`token_blocking_engine` (which stays
    as the executable reference spec): same blocks, same keys, same
    membership — but workers ship id arrays, and the collection carries
    its CSR columns for the value-index builder and the snapshot store.
    """
    side1, side2, interner1, interner2 = packed_token_placements(
        kb1, kb2, tokenizer, engine
    )
    return assemble_packed_blocks(
        side1, side2, interner1, interner2, name=name
    )


def name_blocking_engine(
    kb1: KnowledgeBase,
    kb2: KnowledgeBase,
    extractor1: NameExtractor,
    extractor2: NameExtractor,
    engine: Executor | None = None,
    name: str = "BN",
) -> BlockCollection:
    """Name blocks ``BN`` built via per-partition sub-collections.

    Extractors must be picklable for :class:`ProcessExecutor` — use
    :func:`repro.blocking.name_blocking.names_from_attributes`, which
    returns a picklable callable.
    """
    engine = engine or SerialExecutor()

    def side(kb: KnowledgeBase, extractor: NameExtractor) -> Placements:
        keys_of = partial(name_keys, extractor=extractor)
        return _build_side(kb, partial(_placements, keys_of=keys_of), engine)

    return _assemble(side(kb1, extractor1), side(kb2, extractor2), name)
