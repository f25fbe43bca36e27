"""Pack/unpack of a bootstrapped pipeline to snapshot columns.

One snapshot (schema ``repro-snapshot/1``) holds everything a warm
restart needs, in the packed representation the live system already
uses:

- both **KBs** — entity URIs in insertion order (H2/H3 scan order is
  part of the contract), deduplicated predicate/value string tables and
  flat per-entity pair columns;
- full **blocking placements** per side (entity -> key ids as CSR over
  one sorted key column): the rows of the placement tables the blocking
  stages published — *full* meaning purged and one-sided keys included,
  which is what delta maintenance needs — plus the surviving (kept) key
  ids and the purging report;
- both **similarity indices** as interner URI columns (ascending) plus
  their two in-memory pair columns as they are (``int64`` packed keys
  strictly ascending, ``float64`` similarities) — the neighbor index as
  the run published it, so only its co-occurring pairs under the
  conference H3; a load wraps the restored columns — mapped pages under
  ``mode="mmap"`` — without boxing them, and rebuilds the ranked CSR
  rows deterministically;
- **top-neighbor sets** per side as CSR over the KB URI columns, the
  discovered name attributes and top relations;
- the **decision artifacts** (matches, pre-H4 matches, H4 discards) and
  the save-time ``context_digests`` as manifest JSON — JSON floats
  round-trip exactly, and the digests make a warm start *provably*
  bit-identical to the cold run that wrote them.

Saving keys no entity: the placement rows are read off the tables in
the context.  Loading rebuilds those tables and reconstructs every
artifact through the same constructors the batch pipeline uses
(``from_packed_columns``, ``PlacementTable.assemble``), so a restored
session's artifacts — its packed token blocks included — digest-equal
the saved ones, and the tables are seeded beside them for the
incremental matcher to adopt.  Every id and offset column is checked
against the table it indexes before it is decoded, so a consistently
rewritten but malformed column fails the load with a
:class:`SnapshotError` naming it.
"""

from __future__ import annotations

import operator
from array import array
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, TypeVar

from ..blocking.placements import KeyRows, PlacementTable
from ..blocking.purging import PurgingReport
from ..core.config import MinoanERConfig
from ..core.heuristics import Match
from ..core.neighbors import NeighborSimilarityIndex
from ..core.similarity import ValueSimilarityIndex
from ..ids import EntityInterner, arrays
from ..ids.arrays import array_copy, packed_keys_valid
from ..kb.entity import EntityDescription, Literal, UriRef
from ..kb.knowledge_base import KnowledgeBase
from ..obs.runtime import current as current_telemetry
from ..pipeline.context import PipelineContext
from ..pipeline.digest import (
    DIGEST_SCHEMA,
    DIGESTED_ARTIFACTS,
    artifact_digest,
    context_digests,
)
from ..pipeline.stages import NameBlockingStage
from .snapshot import Snapshot, SnapshotError, SnapshotWriter

if TYPE_CHECKING:  # pragma: no cover - types only
    from ..pipeline.session import MatchSession

T = TypeVar("T")

#: Stage names a snapshot can describe (the default composition).
SNAPSHOTTABLE_STAGES = frozenset(
    {
        "name_blocking",
        "token_blocking",
        "value_index",
        "neighbor_index",
        "matching",
    }
)

#: Heuristic names a snapshot can carry in its config.
BUILTIN_HEURISTICS = ("h1", "h2", "h3", "h4")


# ----------------------------------------------------------------------
# KBs
# ----------------------------------------------------------------------
def _pack_kb(writer: SnapshotWriter, tag: str, kb: KnowledgeBase) -> None:
    writer.add_json(f"{tag}_name", kb.name)
    writer.add_strings(f"{tag}_uris", kb.uris())
    predicates = sorted({attribute for entity in kb for attribute, _ in entity})
    values = sorted({str(value) for entity in kb for _, value in entity})
    predicate_ids = {name: i for i, name in enumerate(predicates)}
    value_ids = {text: i for i, text in enumerate(values)}
    starts = array("q", (0,))
    pair_predicates = array("i")
    pair_kinds = array("i")
    pair_values = array("i")
    for entity in kb:
        for attribute, value in entity:
            pair_predicates.append(predicate_ids[attribute])
            pair_kinds.append(0 if isinstance(value, Literal) else 1)
            pair_values.append(value_ids[str(value)])
        starts.append(len(pair_predicates))
    writer.add_strings(f"{tag}_predicates", predicates)
    writer.add_strings(f"{tag}_values", values)
    writer.add_array(f"{tag}_starts", starts)
    writer.add_array(f"{tag}_pair_predicates", pair_predicates)
    writer.add_array(f"{tag}_pair_kinds", pair_kinds)
    writer.add_array(f"{tag}_pair_values", pair_values)


def _id_column(
    snapshot: Snapshot, name: str, bound: int, ascending: bool = False
) -> "array | memoryview":
    """``i32`` column ``name``, checked to hold ids in ``range(bound)``
    only — strictly ascending ones when ``ascending``."""
    column = snapshot.array(name, "i32")
    if len(column) and not (0 <= min(column) and max(column) < bound):
        raise SnapshotError(f"column {name!r}: ids outside 0..{bound - 1}")
    if ascending and not all(map(operator.lt, column, column[1:])):
        raise SnapshotError(f"column {name!r}: ids not strictly ascending")
    return column


def _offset_column(
    snapshot: Snapshot, name: str, n_rows: int, n_ids: int
) -> "array | memoryview":
    """``i64`` column ``name``, checked to be the CSR offsets of
    ``n_rows`` rows over ``n_ids`` ids: from 0, never decreasing, ending
    at ``n_ids``."""
    starts = snapshot.array(name, "i64")
    if not (
        len(starts) == n_rows + 1
        and starts[0] == 0
        and starts[-1] == n_ids
        and all(map(operator.le, starts, starts[1:]))
    ):
        raise SnapshotError(
            f"column {name!r}: not the offsets of {n_rows} rows over {n_ids} ids"
        )
    return starts


def _unpack_kb(snapshot: Snapshot, tag: str) -> KnowledgeBase:
    uris = snapshot.strings(f"{tag}_uris")
    predicates = snapshot.strings(f"{tag}_predicates")
    values = snapshot.strings(f"{tag}_values")
    pair_predicates = _id_column(
        snapshot, f"{tag}_pair_predicates", len(predicates)
    )
    pair_kinds = _id_column(snapshot, f"{tag}_pair_kinds", 2)
    pair_values = _id_column(snapshot, f"{tag}_pair_values", len(values))
    if not len(pair_predicates) == len(pair_kinds) == len(pair_values):
        raise SnapshotError(f"{tag}: pair columns differ in length")
    starts = _offset_column(
        snapshot, f"{tag}_starts", len(uris), len(pair_predicates)
    )
    kb = KnowledgeBase(snapshot.json(f"{tag}_name"))
    for row, uri in enumerate(uris):
        pairs = []
        for j in range(starts[row], starts[row + 1]):
            text = values[pair_values[j]]
            value = Literal(text) if pair_kinds[j] == 0 else UriRef(text)
            pairs.append((predicates[pair_predicates[j]], value))
        kb.add(EntityDescription(uri, pairs))
    return kb


# ----------------------------------------------------------------------
# Similarity indices
# ----------------------------------------------------------------------
def _pack_index(writer: SnapshotWriter, tag: str, index) -> None:
    interner1, interner2 = index.interners()
    writer.add_strings(f"{tag}_uris1", interner1.uris())
    writer.add_strings(f"{tag}_uris2", interner2.uris())
    keys, sims = index.packed_columns()
    writer.add_array(f"{tag}_keys", array_copy("q", keys))
    writer.add_array(f"{tag}_sims", array_copy("d", sims))


def _unpack_index(snapshot: Snapshot, tag: str, index_cls):
    """Wrap the snapshot's pair columns as an index, as they are.

    Lookups bisect the key column, so a column a dict load would have
    tolerated (unsorted, ragged, ids beyond the URI tables) is refused,
    as is a URI column that does not strictly ascend (ids are URI order).
    """
    uris1 = snapshot.strings(f"{tag}_uris1")
    uris2 = snapshot.strings(f"{tag}_uris2")
    keys = snapshot.array(f"{tag}_keys", "i64")
    sims = snapshot.array(f"{tag}_sims", "f64")
    if len(sims) != len(keys):
        raise SnapshotError(
            f"{tag}: {len(keys)} pair keys but {len(sims)} similarities"
        )
    if not packed_keys_valid(keys, len(uris1), len(uris2)):
        raise SnapshotError(
            f"{tag}: pair keys are not strictly ascending ids of the URI columns"
        )
    try:
        interner1, interner2 = map(EntityInterner.from_uri_list, (uris1, uris2))
    except ValueError as error:  # a URI column out of order or duplicated
        raise SnapshotError(f"{tag}: {error}") from None
    return index_cls.from_packed_columns(keys, sims, interner1, interner2)


# ----------------------------------------------------------------------
# Blocking placements
# ----------------------------------------------------------------------
def _pack_placements(
    writer: SnapshotWriter, tag: str, rows_pair: tuple[KeyRows, KeyRows]
) -> dict[str, int]:
    keys = sorted(
        {key for rows in rows_pair for _, key_set in rows for key in key_set}
    )
    writer.add_strings(f"{tag}_keys", keys)
    key_ids = {key: i for i, key in enumerate(keys)}
    for side, rows in enumerate(rows_pair, start=1):
        _, starts, ids = arrays.member_csr([key_set for _, key_set in rows], key_ids)
        writer.add_array(f"{tag}_side{side}_starts", array_copy("q", starts))
        writer.add_array(f"{tag}_side{side}_key_ids", array_copy("i", ids))
    return key_ids


def _unpack_placements(
    snapshot: Snapshot, tag: str, uris_pair: tuple[list[str], list[str]]
) -> tuple[list[str], tuple[KeyRows, KeyRows]]:
    keys = snapshot.strings(f"{tag}_keys")
    sides: list[KeyRows] = []
    for side, uris in ((1, uris_pair[0]), (2, uris_pair[1])):
        ids = _id_column(snapshot, f"{tag}_side{side}_key_ids", len(keys))
        starts = _offset_column(
            snapshot, f"{tag}_side{side}_starts", len(uris), len(ids)
        )
        sides.append(
            [
                (
                    uri,
                    frozenset(keys[i] for i in ids[starts[row] : starts[row + 1]]),
                )
                for row, uri in enumerate(uris)
            ]
        )
    return keys, (sides[0], sides[1])


# ----------------------------------------------------------------------
# Top-neighbor sets
# ----------------------------------------------------------------------
def _pack_top_neighbors(
    writer: SnapshotWriter,
    tag: str,
    top_neighbors: dict[str, set[str]],
    uris: list[str],
) -> None:
    ids_by_uri = {uri: i for i, uri in enumerate(uris)}
    parents = sorted(ids_by_uri[uri] for uri in top_neighbors)
    rows = [top_neighbors[uris[parent]] for parent in parents]
    _, starts, targets = arrays.member_csr(rows, ids_by_uri)
    writer.add_array(f"{tag}_parents", array("i", parents))
    writer.add_array(f"{tag}_starts", array_copy("q", starts))
    writer.add_array(f"{tag}_targets", array_copy("i", targets))


def _unpack_top_neighbors(
    snapshot: Snapshot, tag: str, uris: list[str]
) -> dict[str, set[str]]:
    parents = _id_column(snapshot, f"{tag}_parents", len(uris), ascending=True)
    targets = _id_column(snapshot, f"{tag}_targets", len(uris))
    starts = _offset_column(
        snapshot, f"{tag}_starts", len(parents), len(targets)
    )
    return {
        uris[parent]: {
            uris[t] for t in targets[starts[row] : starts[row + 1]]
        }
        for row, parent in enumerate(parents)
    }


# ----------------------------------------------------------------------
# Manifest JSON values: matches, report, config, name lists (JSON
# doubles round-trip exactly)
# ----------------------------------------------------------------------
def _matches_json(matches: list[Match]) -> list[list]:
    return [[m.uri1, m.uri2, m.heuristic, m.score] for m in matches]


def _matches_from_json(rows: Any) -> list[Match]:
    if not isinstance(rows, list) or not all(
        isinstance(row, list) and [*map(type, row)] == [str, str, str, float]
        for row in rows
    ):
        raise TypeError("expected [uri1, uri2, heuristic, score] rows")
    return [Match(*row) for row in rows]


def _decoded(snapshot: Snapshot, name: str, decode: Callable[[Any], T]) -> T:
    """``decode`` of one manifest JSON value: a value of the wrong shape
    is a :class:`SnapshotError` naming the entry, not a raw Python error."""
    try:
        return decode(snapshot.json(name))
    except (TypeError, ValueError) as error:
        raise SnapshotError(
            f"manifest value {name!r} is malformed: {error}"
        ) from error


def _config(fields: Any) -> MinoanERConfig:
    """The manifest's config entry.  Its heuristics must be a list of
    built-in names, the rule a save enforces."""
    if not isinstance(fields, dict):
        raise TypeError("expected an object of config fields")
    heuristics = fields.get("heuristics", [])
    if not isinstance(heuristics, list) or not all(
        name in BUILTIN_HEURISTICS for name in heuristics
    ):
        raise ValueError(
            f"field 'heuristics' must be a list of "
            f"{', '.join(BUILTIN_HEURISTICS)}, got {heuristics!r}"
        )
    return MinoanERConfig(**fields)


def _strings(value: Any) -> list[str]:
    if not isinstance(value, list) or not all(
        isinstance(item, str) for item in value
    ):
        raise TypeError("expected a list of strings")
    return value


# ----------------------------------------------------------------------
# Writing one bootstrapped state
# ----------------------------------------------------------------------
def validate_snapshotable_graph(graph, config: MinoanERConfig) -> None:
    """Check the composition can be described by ``repro-snapshot/1``.

    Raises :class:`SnapshotError` for custom stages or a custom
    heuristic in ``config.heuristics`` (their artifacts have no schema
    slots, and the resolver has no online form of them).  The built-in
    heuristics are snapshotable in any order or subset.
    """
    names = set(graph.names())
    unsupported = sorted(names - SNAPSHOTTABLE_STAGES)
    missing = sorted(SNAPSHOTTABLE_STAGES - {"name_blocking"} - names)
    if unsupported or missing:
        raise SnapshotError(
            "only the default stage composition is snapshotable "
            f"(unsupported: {unsupported}, missing: {missing})"
        )
    custom = [
        name for name in config.heuristics if name not in BUILTIN_HEURISTICS
    ]
    if custom:
        raise SnapshotError(
            f"custom heuristics {custom} are not snapshotable; only "
            f"{', '.join(BUILTIN_HEURISTICS)} are"
        )


def write_session_snapshot(
    path: str | Path, ctx: PipelineContext, graph_names: list[str]
) -> Path:
    """Serialize one finished run (see module docstring): the KBs, config
    and artifacts of ``ctx`` — the top-neighbor sets included, as the
    neighbor-index stage published them — plus the rows of its placement
    tables.

    Crash-atomic: everything stages into a ``<path>.tmp`` sibling and an
    error at any point aborts the staging directory, leaving whatever
    snapshot already lived at ``path`` untouched and loadable.
    """
    kb1, kb2, config = ctx.kb1, ctx.kb2, ctx.config
    uris = (kb1.uris(), kb2.uris())
    names = ctx.get_or("name_placements")
    tracer = current_telemetry().tracer
    with tracer.span("store.save", category="store"):
        with tracer.span("store.digest", category="store"):
            digests = context_digests(ctx)
        writer = SnapshotWriter(path)
        try:
            with tracer.span("store.write", category="store"):
                _pack_kb(writer, "kb1", kb1)
                _pack_kb(writer, "kb2", kb2)

                token_key_ids = _pack_placements(
                    writer, "tokens", ctx.get("token_placements").rows(uris)
                )
                kept = ctx.get("token_blocks").keys()
                writer.add_array(
                    "tokens_kept",
                    array("i", sorted(token_key_ids[key] for key in kept)),
                )
                if names is not None:
                    _pack_placements(writer, "names", names.rows(uris))

                _pack_index(writer, "value", ctx.get("value_index"))
                _pack_index(writer, "neighbor", ctx.get("neighbor_index"))
                for side, kb in ((1, kb1), (2, kb2)):
                    _pack_top_neighbors(
                        writer,
                        f"topnbr_side{side}",
                        ctx.get(f"top_neighbors{side}"),
                        kb.uris(),
                    )

                writer.add_json("config", asdict(config))
                writer.add_json("graph_stages", list(graph_names))
                writer.add_json("has_names", names is not None)
                report = ctx.get_or("purging_report")
                writer.add_json(
                    "purging_report", None if report is None else asdict(report)
                )
                for key in (
                    "name_attributes1",
                    "name_attributes2",
                    "top_relations1",
                    "top_relations2",
                ):
                    if ctx.has(key):
                        writer.add_json(key, list(ctx.get(key)))
                for key in ("matches", "pre_h4_matches", "discarded_by_h4"):
                    writer.add_json(key, _matches_json(ctx.get(key)))
                writer.add_json("digests", digests)
                writer.add_json("digest_schema", DIGEST_SCHEMA)
                return writer.commit()
        except BaseException:
            writer.abort()
            raise


# ----------------------------------------------------------------------
# Loading
# ----------------------------------------------------------------------
@dataclass
class RestoredState:
    """Everything a warm restart rebuilds from one snapshot."""

    session: "MatchSession"
    #: Full stage artifacts, keyed like the pipeline context (the
    #: placement tables included).
    artifacts: dict[str, Any]
    #: The save-time ``context_digests`` (the bit-identity witness).
    digests: dict[str, str]


def load_state(
    path: str | Path,
    *,
    engine: str | None = None,
    workers: int | None = None,
    mode: str = "copy",
) -> RestoredState:
    """Load a snapshot into a cache-seeded session plus delta state.

    ``engine``/``workers`` independently override the stored
    execution-engine fields (they are excluded from artifact identity
    by the executor bit-identity contract); everything else restores as
    saved.  Overriding to the serial engine without naming a worker
    count drops any stored worker count (serial rejects one).

    ``mode="mmap"`` maps column files instead of copying them (see
    :meth:`Snapshot.load`).  The two indices keep their pair columns as
    views of the mapped pages (which pin those maps for as long as the
    index lives); every other artifact is materialized before this
    returns and its map released.  Per-byte digest verification of
    array columns is skipped — the structural checks every id and offset
    column passes on load (:func:`_unpack_index`, :func:`_id_column`,
    :func:`_offset_column`) and the decode-level ``context_digests``
    check still guard a replay.
    """
    with current_telemetry().tracer.span("store.load", category="store"):
        with Snapshot.load(path, mode=mode) as snapshot:  # closed on error
            return _restore(snapshot, engine, workers)


def _check_digest_schema(snapshot: Snapshot) -> None:
    """Refuse any ``digest_schema`` but :data:`DIGEST_SCHEMA`: a snapshot
    is a cache of one cold match, rebuilt rather than migrated."""
    stored = snapshot.manifest["json"].get("digest_schema")
    if type(stored) is not int or stored != DIGEST_SCHEMA:
        held = "no digest_schema" if stored is None else f"digest_schema {stored!r}"
        raise SnapshotError(
            f"snapshot holds {held}; this build reads only digest_schema "
            f"{DIGEST_SCHEMA}. Rebuild it with "
            f"`repro-er match KB1 KB2 --save-session DIR`"
        )


def _restore(snapshot: Snapshot, engine=None, workers=None) -> RestoredState:
    """:func:`load_state` of an open snapshot, which it closes."""
    from ..pipeline.builder import PipelineBuilder

    tracer = current_telemetry().tracer
    _check_digest_schema(snapshot)
    config = _decoded(snapshot, "config", _config)
    if engine is not None or workers is not None:
        new_engine = engine if engine is not None else config.engine
        if workers is not None:
            new_workers = workers
        elif new_engine == "serial":
            new_workers = None  # a stored worker count cannot apply
        else:
            new_workers = config.workers
        config = replace(config, engine=new_engine, workers=new_workers)
    with tracer.span("store.load.kb", category="store"):
        kb1 = _unpack_kb(snapshot, "kb1")
        kb2 = _unpack_kb(snapshot, "kb2")

    stored_stages = _decoded(snapshot, "graph_stages", _strings)
    has_names = bool(snapshot.json("has_names"))
    builder = PipelineBuilder(config)
    if not has_names:
        builder.with_blocking("token")
    graph = builder.build_graph()
    if list(graph.names()) != list(stored_stages):
        raise SnapshotError(
            f"snapshot graph {stored_stages} does not match the "
            f"reconstructed composition {list(graph.names())}. Rebuild it "
            f"with `repro-er match KB1 KB2 --save-session DIR`"
        )

    uris_pair = (kb1.uris(), kb2.uris())
    with tracer.span("store.load.placements", category="store"):
        token_keys, token_rows = _unpack_placements(snapshot, "tokens", uris_pair)
        tokens = PlacementTable("BT", token_rows)
        kept = _id_column(snapshot, "tokens_kept", len(token_keys), ascending=True)
        kept_keys = {token_keys[i] for i in kept}
        if has_names:
            _, name_rows = _unpack_placements(snapshot, "names", uris_pair)
            names = PlacementTable("BN", name_rows)

    with tracer.span("store.load.indices", category="store"):
        value_index = _unpack_index(snapshot, "value", ValueSimilarityIndex)
        neighbor_index = _unpack_index(snapshot, "neighbor", NeighborSimilarityIndex)

    report = _decoded(
        snapshot,
        "purging_report",
        lambda value: None if value is None else PurgingReport(**value),
    )
    artifacts: dict[str, Any] = {
        "token_blocks": tokens.assemble(keep=kept_keys),
        "token_placements": tokens,
        "purging_report": report,
        "value_index": value_index,
        "neighbor_index": neighbor_index,
        "top_relations1": _decoded(snapshot, "top_relations1", _strings),
        "top_relations2": _decoded(snapshot, "top_relations2", _strings),
        "top_neighbors1": _unpack_top_neighbors(
            snapshot, "topnbr_side1", uris_pair[0]
        ),
        "top_neighbors2": _unpack_top_neighbors(
            snapshot, "topnbr_side2", uris_pair[1]
        ),
    }
    if has_names:
        artifacts.update(
            NameBlockingStage.artifacts(
                names,
                _decoded(snapshot, "name_attributes1", _strings),
                _decoded(snapshot, "name_attributes2", _strings),
            )
        )
    for key in ("matches", "pre_h4_matches", "discarded_by_h4"):
        artifacts[key] = _decoded(snapshot, key, _matches_from_json)

    from ..pipeline.session import MatchSession

    session = MatchSession(kb1, kb2, config, graph=graph)
    session.seed_cache(artifacts)
    snapshot.close()  # releases every map no index column still views
    return RestoredState(
        session=session,
        artifacts=artifacts,
        digests=_decoded(snapshot, "digests", dict),
    )


def load_session(
    path: str | Path,
    *,
    engine: str | None = None,
    workers: int | None = None,
    mode: str = "copy",
) -> "MatchSession":
    """Restore a :class:`~repro.pipeline.session.MatchSession` whose
    stage cache is pre-seeded with the saved artifacts — ``match()``
    under the saved configuration replays without recomputing a stage."""
    return load_state(path, engine=engine, workers=workers, mode=mode).session


def verify_snapshot(path: str | Path, mode: str = "copy") -> dict[str, str]:
    """Recompute every restored artifact's digest against the manifest.

    Returns the recomputed digests; raises :class:`SnapshotError` on the
    first divergence.  This is the strong (decode-level) check on top of
    the per-column SHA-256 verification every copy-mode load performs
    (mmap mode verifies columns separately, hashing the maps in place).
    """
    with Snapshot.load(path, mode=mode) as snapshot:
        if mode == "mmap":
            snapshot.verify_columns()
        state = _restore(snapshot)
    recomputed = {
        key: artifact_digest(state.artifacts[key])
        for key in DIGESTED_ARTIFACTS
        if key in state.artifacts
    }
    for key, digest in recomputed.items():
        expected = state.digests.get(key)
        if expected != digest:
            raise SnapshotError(
                f"artifact {key!r} does not digest-match the manifest "
                f"(expected {str(expected)[:12]}..., got {digest[:12]}...)"
            )
    return recomputed
