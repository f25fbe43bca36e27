"""Snapshot store: round-trip bit-identity, rejection of bad snapshots.

The acceptance contract of the columnar snapshot store: a
saved-then-loaded session produces **bit-identical** artifact digests
(``context_digests``) to the cold run that produced it — across all
three executors and both the NumPy and stdlib kernel paths — and
``--load-session`` + deltas matches the batch result on the final KB
state.  Corrupt, tampered or version-mismatched snapshots must fail
loudly at load, never warp artifacts silently.
"""

import json
import math
from array import array
from collections import Counter
from pathlib import Path

import pytest

from repro.blocking import AttributeNameExtractor, PackedBlockCollection
from repro.core import MinoanER, MinoanERConfig
from repro.engine import build_neighbor_index
from repro.ids import EntityInterner
from repro.incremental import IncrementalMatcher
from repro.kb.entity import EntityDescription
from repro.kb.io_ntriples import read_ntriples
from repro.kb.tokenizer import Tokenizer
from repro.pipeline import MatchSession, context_digests
from repro.pipeline.digest import (
    DIGEST_SCHEMA,
    DIGESTED_ARTIFACTS,
    artifact_digest,
)
from repro.store import (
    MANIFEST_NAME,
    Snapshot,
    SnapshotError,
    load_state,
    verify_snapshot,
)
from repro.store.columns import (
    decode_array_column,
    decode_string_column,
    write_array_column,
    write_string_column,
)

GOLDEN = Path(__file__).parent / "golden"

EXECUTORS = [("serial", None), ("thread", 3), ("process", 2)]


def golden_kbs():
    return (
        read_ntriples(GOLDEN / "kb1.nt", name="golden1"),
        read_ntriples(GOLDEN / "kb2.nt", name="golden2"),
    )


def restored_digests(path) -> dict[str, str]:
    state = load_state(path)
    return {
        key: artifact_digest(state.artifacts[key])
        for key in DIGESTED_ARTIFACTS
        if key in state.artifacts
    }


# ----------------------------------------------------------------------
# Round-trip bit-identity (the acceptance criterion)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine_name,workers", EXECUTORS)
def test_roundtrip_digests_equal_cold_run(
    tmp_path, engine_name, workers, numpy_arm
):
    kb1, kb2 = golden_kbs()
    config = MinoanERConfig(engine=engine_name, workers=workers)
    session = MatchSession(kb1, kb2, config)
    cold = context_digests(session.run_context())
    session.save(tmp_path / "snap")

    assert restored_digests(tmp_path / "snap") == cold
    # The manifest's own digest record equals the cold run's too.
    manifest_digests = Snapshot.load(tmp_path / "snap").json("digests")
    assert manifest_digests == cold


def test_loaded_session_replays_without_recomputing(tmp_path):
    kb1, kb2 = golden_kbs()
    session = MatchSession(kb1, kb2)
    cold = session.match()
    session.save(tmp_path / "snap")

    loaded = MatchSession.load(tmp_path / "snap")
    replay = loaded.match()
    assert loaded.stage_runs == {}  # every stage served from the snapshot
    assert [(m.uri1, m.uri2, m.heuristic, m.score) for m in replay.matches] == [
        (m.uri1, m.uri2, m.heuristic, m.score) for m in cold.matches
    ]
    # Downstream-only recomputation still works on the seeded cache.
    ablated = loaded.match(theta=0.4)
    assert loaded.stage_runs.keys() <= {"matching"}
    assert ablated.token_blocks is not None
    # A restore assembles the packed blocks a cold run hands downstream.
    assert isinstance(replay.token_blocks, PackedBlockCollection)
    assert isinstance(replay.name_blocks, PackedBlockCollection)


def test_each_entity_is_keyed_once(tmp_path, monkeypatch):
    """``match()`` + ``save()`` + ``IncrementalMatcher`` adoption
    tokenize and name-key every entity exactly once: the save writes the
    placement tables the blocking stages published, and the matcher
    adopts those very tables."""
    keyed = {"tokens": Counter(), "names": Counter()}
    token_set = Tokenizer.token_set
    extract = AttributeNameExtractor.__call__

    def counting_token_set(self, entity):
        keyed["tokens"][entity.uri] += 1
        return token_set(self, entity)

    def counting_extract(self, entity):
        keyed["names"][entity.uri] += 1
        return extract(self, entity)

    monkeypatch.setattr(Tokenizer, "token_set", counting_token_set)
    monkeypatch.setattr(AttributeNameExtractor, "__call__", counting_extract)
    kb1, kb2 = golden_kbs()
    session = MatchSession(kb1, kb2)
    session.match()
    session.save(tmp_path / "snap")
    matcher = IncrementalMatcher(session)
    once = Counter(kb1.uris() + kb2.uris())
    assert keyed == {"tokens": once, "names": once}
    ctx = session.run_context()
    assert matcher._tokens is ctx.get("token_placements")
    assert matcher._names is ctx.get("name_placements")


def test_verify_snapshot_passes_on_intact_directory(tmp_path):
    kb1, kb2 = golden_kbs()
    MatchSession(kb1, kb2).save(tmp_path / "snap")
    recomputed = verify_snapshot(tmp_path / "snap")
    assert set(recomputed) == set(
        Snapshot.load(tmp_path / "snap").json("digests")
    )


def test_snapshot_bytes_are_deterministic(tmp_path):
    kb1, kb2 = golden_kbs()
    MatchSession(kb1, kb2).save(tmp_path / "one")
    kb1b, kb2b = golden_kbs()
    MatchSession(kb1b, kb2b).save(tmp_path / "two")
    files_one = sorted(p.name for p in (tmp_path / "one").iterdir())
    files_two = sorted(p.name for p in (tmp_path / "two").iterdir())
    assert files_one == files_two
    for name in files_one:
        assert (tmp_path / "one" / name).read_bytes() == (
            tmp_path / "two" / name
        ).read_bytes(), name


# ----------------------------------------------------------------------
# Warm restart + deltas == cold batch on the final KB state
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine_name,workers", EXECUTORS)
def test_warm_restart_delta_matches_batch(tmp_path, engine_name, workers):
    kb1, kb2 = golden_kbs()
    config = MinoanERConfig(engine=engine_name, workers=workers)
    MatchSession(kb1, kb2, config).save(tmp_path / "snap")

    matcher = IncrementalMatcher.from_snapshot(
        tmp_path / "snap", engine=engine_name, workers=workers
    )
    removed = matcher.kbs[0].uris()[:2]
    spare = [matcher.kbs[1][matcher.kbs[1].uris()[0]]]
    matcher.remove_entities(1, removed)
    matcher.remove_entities(2, [spare[0].uri])
    matcher.add_entities(2, spare)  # re-add: appended at the end
    matcher.match()
    warm = context_digests(matcher.last_context)
    # Blocking was never recomputed, and the one delta rebuilt each
    # downstream stage once.
    assert matcher.counters()["recomputed"] == {
        "value_index": 1,
        "neighbor_index": 1,
        "matching": 1,
    }

    cold1, cold2 = golden_kbs()
    for uri in removed:
        cold1.remove(uri)
    readded = cold2.remove(spare[0].uri)
    cold2.add(readded)
    ctx = MatchSession(cold1, cold2, config).run_context()
    assert warm == context_digests(ctx)


@pytest.mark.parametrize("mode", ["copy", "mmap"])
def test_warm_restart_match_recomputes_nothing(tmp_path, mode):
    """``from_snapshot(...).match()`` is a cache restore: no stage runs,
    and the result is the saved run's."""
    kb1, kb2 = golden_kbs()
    session = MatchSession(kb1, kb2)
    saved = session.match()
    session.save(tmp_path / "snap")
    matcher = IncrementalMatcher.from_snapshot(tmp_path / "snap", mode=mode)
    assert matcher.last_context is None
    assert matcher.match().matches == saved.matches
    assert matcher.counters() == {"recomputed": {}, "delta_updated": {}}
    assert set(matcher.last_context.stage_runs.values()) == {0}


@pytest.mark.parametrize("mode", ["copy", "mmap"])
def test_boot_generation_is_released_by_the_first_delta(tmp_path, mode):
    """Once a delta replaced them, nothing in the matcher keeps the
    snapshot generation's indices (under ``mmap``: the mapped column
    files of a directory that may since have been swapped) alive."""
    import gc
    import weakref

    kb1, kb2 = golden_kbs()
    MatchSession(kb1, kb2).save(tmp_path / "snap")
    matcher = IncrementalMatcher.from_snapshot(tmp_path / "snap", mode=mode)
    matcher.match()
    boot = [
        weakref.ref(matcher.last_context.get(key))
        for key in ("value_index", "neighbor_index", "token_blocks")
    ]
    matcher.remove_entities(1, matcher.kbs[0].uris()[:1])
    matcher.match()
    gc.collect()
    assert [ref() for ref in boot] == [None, None, None]


def test_matcher_save_after_deltas_roundtrips(tmp_path):
    kb1, kb2 = golden_kbs()
    matcher = IncrementalMatcher(MinoanER().session(kb1, kb2))
    matcher.match()
    matcher.remove_entities(1, matcher.kbs[0].uris()[:1])
    matcher.save(tmp_path / "snap")  # refreshes the pending delta first
    expected = context_digests(matcher.last_context)

    again = IncrementalMatcher.from_snapshot(tmp_path / "snap")
    again.match()
    assert context_digests(again.last_context) == expected


# ----------------------------------------------------------------------
# Rejection: corruption, tampering, version mismatch
# ----------------------------------------------------------------------
@pytest.fixture()
def saved_snapshot(tmp_path):
    kb1, kb2 = golden_kbs()
    MatchSession(kb1, kb2).save(tmp_path / "snap")
    return tmp_path / "snap"


def test_corrupt_array_column_rejected(saved_snapshot):
    target = saved_snapshot / "value_sims.bin"
    raw = bytearray(target.read_bytes())
    raw[0] ^= 0xFF
    target.write_bytes(bytes(raw))
    with pytest.raises(SnapshotError, match="digest"):
        load_state(saved_snapshot)


def test_corrupt_string_column_rejected(saved_snapshot):
    target = saved_snapshot / "kb1_uris.txt"
    target.write_text(target.read_text(encoding="utf-8") + "x", "utf-8")
    with pytest.raises(SnapshotError, match="digest"):
        load_state(saved_snapshot)


def test_schema_version_mismatch_rejected(saved_snapshot):
    manifest_path = saved_snapshot / MANIFEST_NAME
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    manifest["schema"] = "repro-snapshot/999"
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
    with pytest.raises(SnapshotError, match="schema"):
        load_state(saved_snapshot)


def test_missing_manifest_rejected(tmp_path):
    (tmp_path / "empty").mkdir()
    with pytest.raises(SnapshotError, match="not a snapshot"):
        load_state(tmp_path / "empty")


def test_missing_column_file_rejected(saved_snapshot):
    (saved_snapshot / "neighbor_keys.bin").unlink()
    with pytest.raises(SnapshotError, match="missing"):
        load_state(saved_snapshot)


def test_tampered_manifest_count_rejected(saved_snapshot):
    manifest_path = saved_snapshot / MANIFEST_NAME
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    manifest["columns"]["value_keys"]["count"] += 1
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
    with pytest.raises(SnapshotError):
        load_state(saved_snapshot)


def _edited_manifest(snapshot_dir, edit):
    """Apply ``edit`` to the parsed manifest and write it back."""
    manifest_path = snapshot_dir / MANIFEST_NAME
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    edit(manifest)
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")


#: id -> (manifest edit, what the SnapshotError names)
MALFORMED_MANIFESTS = {
    "columns-a-list": (lambda m: m.update(columns=[]), "'columns'"),
    "json-a-list": (lambda m: m.update(json=[]), "'json'"),
    "column-a-string": (
        lambda m: m["columns"].update(value_keys="value_keys.bin"),
        "column 'value_keys'",
    ),
    "column-without-file": (
        lambda m: m["columns"]["value_keys"].pop("file"),
        "column 'value_keys'",
    ),
    "config-unknown-field": (
        lambda m: m["json"]["config"].update(bogus=1),
        "value 'config'",
    ),
    "config-k-a-string": (
        lambda m: m["json"]["config"].update(top_k_candidates="x"),
        "value 'config'",
    ),
    "config-heuristic-unregistered": (
        lambda m: m["json"]["config"].update(heuristics=["h9"]),
        "'heuristics'",
    ),
    "config-heuristics-a-string": (
        lambda m: m["json"]["config"].update(heuristics="h1"),
        "'heuristics'",
    ),
    "graph-stages-an-int": (
        lambda m: m["json"].update(graph_stages=5),
        "value 'graph_stages'",
    ),
    "top-relations-an-int": (
        lambda m: m["json"].update(top_relations1=7),
        "value 'top_relations1'",
    ),
    "name-attributes-of-ints": (
        lambda m: m["json"].update(name_attributes2=[1]),
        "value 'name_attributes2'",
    ),
    "match-row-short": (
        lambda m: m["json"].update(matches=[[1]]),
        "value 'matches'",
    ),
}


@pytest.mark.parametrize("mode", ["copy", "mmap"])
@pytest.mark.parametrize("case", list(MALFORMED_MANIFESTS))
def test_malformed_manifest_rejected(saved_snapshot, case, mode):
    """A manifest of the wrong shape — a section or a column entry that
    is not an object with typed fields, a JSON value that does not
    decode to its artifact — fails the load with a SnapshotError naming
    the entry: never a raw AttributeError / KeyError / TypeError /
    ValueError, and never a silent load."""
    edit, pattern = MALFORMED_MANIFESTS[case]
    _edited_manifest(saved_snapshot, edit)
    with pytest.raises(SnapshotError, match=pattern):
        load_state(saved_snapshot, mode=mode)


def _rewrite_column(snapshot_dir, name, values):
    """Replace one column *consistently* (file, count, digest), so only
    the structural load-time checks stand between it and an artifact."""
    manifest_path = snapshot_dir / MANIFEST_NAME
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    column = manifest["columns"][name]
    write = write_string_column if column["kind"] == "str" else write_array_column
    column.update(write(snapshot_dir / column["file"], values))
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")


@pytest.mark.parametrize("mode", ["copy", "mmap"])
def test_verify_snapshot_checks_column_digests(saved_snapshot, mode):
    """A fresh manifest verifies against the golden column digests, and
    a single moved similarity fails the artifact check, even with the
    column file's own SHA-256 rewritten to match."""
    recomputed = verify_snapshot(saved_snapshot, mode=mode)
    assert recomputed == Snapshot.load(saved_snapshot).json("digests")
    golden = json.loads((GOLDEN / "digests.json").read_text("utf-8"))
    for key, pinned in (
        ("value_index", "value_index"),
        ("neighbor_index", "neighbor_index.cooccurring"),
    ):
        assert recomputed[key] == golden[pinned + ".columns"]
    sims = load_state(saved_snapshot).artifacts["neighbor_index"]
    sims = array("d", sims.packed_columns()[1])
    sims[len(sims) // 2] = math.nextafter(sims[len(sims) // 2], math.inf)
    _rewrite_column(saved_snapshot, "neighbor_sims", sims)
    with pytest.raises(SnapshotError, match="'neighbor_index' does not"):
        verify_snapshot(saved_snapshot, mode=mode)


def _unsorted_keys(keys, sims):
    keys[0], keys[1] = keys[1], keys[0]
    return "value_keys", keys


def _duplicate_key(keys, sims):
    keys[1] = keys[0]
    return "value_keys", keys


def _ragged_sims(keys, sims):
    return "value_sims", sims[:-1]


def _id1_beyond_uri_table(keys, sims):
    keys[-1] = (1 << 40) | (keys[-1] & 0xFFFFFFFF)
    return "value_keys", keys


def _id2_beyond_uri_table(keys, sims):
    keys[0] |= 0x7FFFFFFF
    return "value_keys", keys


def _negative_key(keys, sims):
    keys[0] = -1
    return "value_keys", keys


def _redeclared(snapshot_dir, name, kind):
    """Declare column ``name`` of ``kind`` in the manifest alone: the
    file and its SHA-256 stay as written."""
    _edited_manifest(
        snapshot_dir, lambda m: m["columns"][name].update(kind=kind)
    )


@pytest.mark.parametrize("mode", ["copy", "mmap"])
@pytest.mark.parametrize(
    "corrupt",
    [
        _unsorted_keys,
        _duplicate_key,
        _ragged_sims,
        _id1_beyond_uri_table,
        _id2_beyond_uri_table,
        _negative_key,
        ("value_keys", "f64"),
        ("value_sims", "i64"),
        ("neighbor_keys", "f64"),
        ("neighbor_sims", "i64"),
    ],
    ids=lambda corrupt: "-declared-".join(corrupt)
    if isinstance(corrupt, tuple) else None,
)
def test_malformed_pair_columns_rejected(
    saved_snapshot, numpy_arm, corrupt, mode
):
    """Index lookups bisect the key column: a snapshot whose pair
    columns are well-formed *bytes* (digests and counts agree) but not
    strictly ascending, ragged, or pointing outside the URI tables must
    fail the load — never come back as an index that answers wrongly.
    Neither may a column the manifest declares the wrong 8-byte kind
    (``(name, kind)``): the SHA-256 covers its bytes, not its kind."""
    if isinstance(corrupt, tuple):
        name, kind = corrupt
        _redeclared(saved_snapshot, name, kind)
        pattern = f"{name!r} is declared {kind!r}, expected"
    else:
        with Snapshot.load(saved_snapshot) as snapshot:
            keys = snapshot.array("value_keys", "i64")
            sims = snapshot.array("value_sims", "f64")
        assert len(keys) > 2
        _rewrite_column(saved_snapshot, *corrupt(keys, sims))
        pattern = "value: "
    with pytest.raises(SnapshotError, match=pattern):
        load_state(saved_snapshot, mode=mode)


def _set_first(value):
    return lambda column: column.__setitem__(0, value)


def _shorten_last(column):
    column[-1] -= 1


def _swap_first_rise(column):
    """Swap the first two neighbours that differ: a column that never
    decreased (offsets, parents, kept ids) now decreases once."""
    at = next(i for i in range(len(column) - 1) if column[i] != column[i + 1])
    column[at], column[at + 1] = column[at + 1], column[at]


@pytest.mark.parametrize("mode", ["copy", "mmap"])
@pytest.mark.parametrize(
    "name,corrupt",
    [
        ("topnbr_side2_targets", _set_first(-1)),
        ("topnbr_side2_targets", _set_first(10**6)),
        ("tokens_kept", _set_first(-1)),
        ("tokens_side1_key_ids", _set_first(-1)),
        ("kb1_pair_values", _set_first(-1)),
        ("tokens_side2_starts", _set_first(1)),
        ("names_side1_starts", _swap_first_rise),
        ("topnbr_side1_starts", _shorten_last),
        ("topnbr_side1_parents", _swap_first_rise),
        ("tokens_kept", _swap_first_rise),
    ],
    ids=[
        "negative-target",
        "target-past-table",
        "negative-kept-key",
        "negative-placement-key",
        "negative-kb-value",
        "offsets-not-from-zero",
        "offsets-decrease",
        "offsets-end-short",
        "parents-unsorted",
        "kept-unsorted",
    ],
)
def test_malformed_id_columns_rejected(saved_snapshot, name, corrupt, mode):
    """Every id and offset column outside the indices is checked against
    the table it indexes: a consistently rewritten column with a
    negative id (which Python indexing would silently read from the
    end), an id past its table, offsets that do not run from 0 up to
    the id column's length, or parents / kept ids out of order fail the
    load naming the column."""
    kind = "i64" if name.endswith("starts") else "i32"
    with Snapshot.load(saved_snapshot) as snapshot:
        column = snapshot.array(name, kind)
    original = column.tolist()
    corrupt(column)
    assert column.tolist() != original
    _rewrite_column(saved_snapshot, name, column)
    with pytest.raises(SnapshotError, match=name):
        load_state(saved_snapshot, mode=mode)


# ----------------------------------------------------------------------
# Snapshots in the forms older builds wrote are refused, not migrated
# ----------------------------------------------------------------------
def _without_digest_schema(snapshot_dir):
    """A manifest from before ``digest_schema`` existed."""
    _edited_manifest(snapshot_dir, lambda m: m["json"].pop("digest_schema"))


def _full_neighbor_columns(snapshot_dir):
    """What builds before ``digest_schema`` 3 wrote under the conference
    H3: the neighbor columns hold the full neighbor product, digested as
    stored, under ``digest_schema`` 2."""
    artifacts = load_state(snapshot_dir).artifacts
    full = build_neighbor_index(
        artifacts["value_index"],
        artifacts["top_neighbors1"],
        artifacts["top_neighbors2"],
    )
    assert len(full) > len(artifacts["neighbor_index"])
    keys, sims = full.packed_columns()
    _rewrite_column(snapshot_dir, "neighbor_keys", array("q", keys))
    _rewrite_column(snapshot_dir, "neighbor_sims", array("d", sims))

    def edit(manifest):
        manifest["json"]["digest_schema"] = 2
        manifest["json"]["digests"]["neighbor_index"] = artifact_digest(full)

    _edited_manifest(snapshot_dir, edit)


def _retired_config_fields(snapshot_dir):
    """A config entry from before the ``heuristics`` list (one
    ``enable_h*`` boolean per heuristic) and before five fields became
    constants, under today's ``digest_schema``: the config check refuses
    it on its own."""

    def edit(manifest):
        config = manifest["json"]["config"]
        del config["heuristics"]
        config.update(
            enable_h1_names=True,
            enable_h2_values=True,
            enable_h3_rank_aggregation=True,
            enable_h4_reciprocity=True,
            min_token_length=1,
            include_uri_localnames=False,
            include_incoming_edges=True,
            purging_gain_factor=8.0,
            purging_max_cardinality=None,
        )

    _edited_manifest(snapshot_dir, edit)


def _uris_out_of_order(snapshot_dir):
    """What builds that appended interner ids in place could write:
    ``value_uris1`` and ``neighbor_uris2`` out of URI order (the first
    URI moved last), their pair keys re-packed over the moved ids and
    re-sorted, every column's SHA-256 consistent."""
    with Snapshot.load(snapshot_dir) as snapshot:
        columns = {
            (tag, side): (
                snapshot.strings(f"{tag}_uris{side}"),
                snapshot.array(f"{tag}_keys", "i64"),
                snapshot.array(f"{tag}_sims", "f64"),
            )
            for tag, side in (("value", 1), ("neighbor", 2))
        }
    for (tag, side), (uris, keys, sims) in columns.items():
        assert len(uris) > 2
        shift = 32 if side == 1 else 0

        def moved(key, n=len(uris), shift=shift):
            old = (key >> shift) & 0xFFFFFFFF
            return key + ((((old - 1) % n) - old) << shift)

        pairs = sorted(zip(map(moved, keys), sims))
        rewritten = {
            f"{tag}_uris{side}": uris[1:] + uris[:1],
            f"{tag}_keys": array("q", (key for key, _ in pairs)),
            f"{tag}_sims": array("d", (sim for _, sim in pairs)),
        }
        for name, values in rewritten.items():
            _rewrite_column(snapshot_dir, name, values)


def _with_candidates_stage(snapshot_dir):
    """What builds before the matching stage read the indices' rows
    itself listed: a ``candidates`` stage between ``neighbor_index`` and
    ``matching``."""

    def spliced(manifest):
        stages = manifest["json"]["graph_stages"]
        stages.insert(stages.index("matching"), "candidates")

    _edited_manifest(snapshot_dir, spliced)


#: What refusing a snapshot of another stage graph says.
REBUILD_GRAPH = (
    r"snapshot graph \[.*'neighbor_index', 'candidates', 'matching'\] does "
    r"not match the reconstructed composition \[.*\]\. Rebuild it with "
    r"`repro-er match KB1 KB2 --save-session DIR`"
)

#: id -> (rewrite of a fresh snapshot into an older build's form, what
#: the SnapshotError says)
OLDER_FORMS = {
    "no-digest-schema": (
        _without_digest_schema,
        f"holds no digest_schema; this build reads only digest_schema "
        f"{DIGEST_SCHEMA}. Rebuild it with `repro-er match KB1 KB2 "
        f"--save-session DIR`",
    ),
    "digest-schema-2-full-neighbors": (
        _full_neighbor_columns,
        f"holds digest_schema 2; this build reads only digest_schema "
        f"{DIGEST_SCHEMA}. Rebuild it",
    ),
    "config-retired-fields": (
        _retired_config_fields,
        "value 'config' is malformed: .*'enable_h1_names'",
    ),
    "uris-out-of-order": (
        _uris_out_of_order,
        "value: URI list is not strictly ascending",
    ),
    "graph-with-candidates-stage": (_with_candidates_stage, REBUILD_GRAPH),
}


@pytest.mark.parametrize("mode", ["copy", "mmap"])
@pytest.mark.parametrize("form", list(OLDER_FORMS))
def test_older_snapshot_refused(saved_snapshot, form, mode):
    """A snapshot is a cache: each form an older build wrote fails the
    load and the verification with a SnapshotError that names what it
    holds, and none comes back as a session."""
    rewrite, pattern = OLDER_FORMS[form]
    rewrite(saved_snapshot)
    with pytest.raises(SnapshotError, match=pattern):
        load_state(saved_snapshot, mode=mode)
    with pytest.raises(SnapshotError, match=pattern):
        verify_snapshot(saved_snapshot, mode=mode)


@pytest.mark.parametrize("mode", ["copy", "mmap"])
def test_loaded_indices_wrap_the_snapshot_columns(saved_snapshot, mode):
    """A load adopts the pair columns as they are — ``array`` copies or
    views of the mapped pages — and a re-save writes the same bytes."""
    state = load_state(saved_snapshot, mode=mode)
    expected = array if mode == "copy" else memoryview
    for tag in ("value", "neighbor"):
        keys, sims = state.artifacts[f"{tag}_index"].packed_columns()
        assert isinstance(keys, expected) and isinstance(sims, expected)
        assert keys.tobytes() == (saved_snapshot / f"{tag}_keys.bin").read_bytes()
        assert sims.tobytes() == (saved_snapshot / f"{tag}_sims.bin").read_bytes()
    resaved = state.session.save(saved_snapshot.parent / "again")
    for name in ("value_keys", "value_sims", "neighbor_keys", "neighbor_sims"):
        assert (resaved / f"{name}.bin").read_bytes() == (
            saved_snapshot / f"{name}.bin"
        ).read_bytes()


def test_custom_heuristic_sequence_not_snapshotable(tmp_path):
    from repro.pipeline import HEURISTICS, H2ValueHeuristic

    HEURISTICS.register("h2_copy", H2ValueHeuristic)
    try:
        kb1, kb2 = golden_kbs()
        builder = MinoanER.builder().with_config(heuristics=("h1", "h2_copy"))
        session = builder.session(kb1, kb2)
        assert session.match().matches  # it runs in batch
        with pytest.raises(SnapshotError, match="h2_copy"):
            session.save(tmp_path / "snap")
    finally:
        HEURISTICS.unregister("h2_copy")


def test_custom_stage_not_snapshotable(tmp_path):
    from repro.pipeline import Stage

    class Odd(Stage):
        name = "odd"
        provides = ("odd",)

        def run(self, ctx, engine):
            ctx.put("odd", 1, producer=self.name)

    kb1, kb2 = golden_kbs()
    session = MinoanER.builder().with_stage(Odd()).session(kb1, kb2)
    with pytest.raises(SnapshotError, match="odd"):
        session.save(tmp_path / "snap")


# ----------------------------------------------------------------------
# Column codec details
# ----------------------------------------------------------------------
def test_array_column_cross_endian_read(tmp_path):
    values = array("q", [1, -2, 3 << 40])
    entry = write_array_column(tmp_path / "col.bin", values)
    raw = (tmp_path / "col.bin").read_bytes()
    import sys

    other = "big" if sys.byteorder == "little" else "little"
    swapped = decode_array_column(raw, entry, other, "col")
    swapped.byteswap()
    assert swapped == values
    assert decode_array_column(raw, entry, sys.byteorder, "col") == values


def test_string_column_escapes_control_characters(tmp_path):
    rows = ["plain", "with\nnewline", "with\rreturn", "back\\slash", ""]
    entry = write_string_column(tmp_path / "col.txt", rows)
    raw = (tmp_path / "col.txt").read_bytes()
    assert decode_string_column(raw, entry, "col") == rows


def test_kb_literals_with_control_characters_roundtrip(tmp_path):
    from repro.kb import KnowledgeBase
    from repro.kb.entity import EntityDescription

    kb1, kb2 = golden_kbs()
    tricky = EntityDescription("urn:tricky")
    tricky.add_literal("urn:note", "line one\nline\rtwo \\ done")
    kb1.add(tricky)
    session = MatchSession(kb1, kb2)
    cold = context_digests(session.run_context())
    session.save(tmp_path / "snap")
    assert restored_digests(tmp_path / "snap") == cold
    state = load_state(tmp_path / "snap")
    assert (
        state.session.kb1["urn:tricky"].literals_of("urn:note")
        == ["line one\nline\rtwo \\ done"]
    )


def test_engine_and_workers_override_independently(tmp_path):
    kb1, kb2 = golden_kbs()
    config = MinoanERConfig(engine="process", workers=3)
    MatchSession(kb1, kb2, config).save(tmp_path / "snap")

    workers_only = MatchSession.load(tmp_path / "snap", workers=5)
    assert workers_only.config.engine == "process"
    assert workers_only.config.workers == 5
    engine_only = MatchSession.load(tmp_path / "snap", engine="thread")
    assert engine_only.config.engine == "thread"
    assert engine_only.config.workers == 3  # stored count survives
    to_serial = MatchSession.load(tmp_path / "snap", engine="serial")
    assert to_serial.config.workers is None  # serial rejects a count
    untouched = MatchSession.load(tmp_path / "snap")
    assert (untouched.config.engine, untouched.config.workers) == ("process", 3)


def test_interner_from_uri_list_preserves_ids():
    """A saved URI column decodes to the interner that wrote it; a list
    out of URI order, or with a duplicate, is no interner at all."""
    written = EntityInterner(["d", "b", "a", "b"])
    restored = EntityInterner.from_uri_list(written.uris())
    assert restored.uris() == written.uris() == ["a", "b", "d"]
    assert restored.ids_by_uri() == written.ids_by_uri()
    for uris in (["b", "a"], ["a", "a"], ["a", "c", "b"]):
        with pytest.raises(ValueError, match="strictly ascending"):
            EntityInterner.from_uri_list(uris)
