"""Zero-copy paths: mmap snapshot loads and shared-memory dispatch.

The acceptance contract of the zero-copy layer is bit-identity with the
copying paths it replaces:

- ``Snapshot.load(..., mode="mmap")`` restores artifacts whose digests
  equal the copy-mode load and the cold run — with array columns served
  as typed memoryviews over the mapped files and corruption still
  detected (deferred to :meth:`Snapshot.verify_columns` for arrays,
  eager for strings);
- shared-memory process dispatch computes the same artifact digests as
  pickled dispatch and leaves no ``/dev/shm`` segment behind, crash or
  not;
- the probe caches hold no reference back to their owners, so retired
  serving generations and dropped sessions free by refcount alone.
"""

import gc
import os
import pickle
import weakref
from array import array
from functools import partial
from pathlib import Path

import numpy
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import MinoanERConfig
from repro.engine import shm_available
from repro.engine.executor import (
    ProcessExecutor,
    SerialExecutor,
    _pickled_size,
)
from repro.engine.shm import SharedArena, attach
from repro.incremental import IncrementalMatcher
from repro.kb.io_ntriples import read_ntriples
from repro.pipeline import MatchSession, context_digests
from repro.pipeline.digest import DIGESTED_ARTIFACTS, artifact_digest
from repro.serve import ResolutionDaemon, ServingState
from repro.store import Snapshot, SnapshotError, load_state, verify_snapshot
from repro.store.snapshot import SnapshotWriter

from test_pipeline import make_pair

GOLDEN = Path(__file__).parent / "golden"


def golden_kbs():
    return (
        read_ntriples(GOLDEN / "kb1.nt", name="golden1"),
        read_ntriples(GOLDEN / "kb2.nt", name="golden2"),
    )


def state_digests(state) -> dict[str, str]:
    return {
        key: artifact_digest(state.artifacts[key])
        for key in DIGESTED_ARTIFACTS
        if key in state.artifacts
    }


def shm_segments() -> set[str]:
    root = Path("/dev/shm")
    if not root.is_dir():  # pragma: no cover - non-Linux
        return set()
    return {p.name for p in root.glob("psm_*")}


# ----------------------------------------------------------------------
# mmap snapshot loads
# ----------------------------------------------------------------------
@pytest.fixture()
def saved_snapshot(tmp_path):
    kb1, kb2 = golden_kbs()
    MatchSession(kb1, kb2).save(tmp_path / "snap")
    return tmp_path / "snap"


def test_mmap_load_digests_equal_copy_load(saved_snapshot):
    copied = state_digests(load_state(saved_snapshot))
    mapped = state_digests(load_state(saved_snapshot, mode="mmap"))
    assert mapped == copied
    assert mapped == Snapshot.load(saved_snapshot).json("digests")


def test_mmap_arrays_are_views_and_strings_verify(tmp_path):
    writer = SnapshotWriter(tmp_path / "snap")
    writer.add_array("ids", array("i", [3, 1, 2]))
    writer.add_array("weights", array("d", [0.5, -1.25]))
    writer.add_array("empty", array("q"))
    writer.add_strings("rows", ["plain", "with\nnewline", ""])
    writer.add_strings("none", [])
    writer.commit()

    with Snapshot.load(tmp_path / "snap", mode="mmap") as snapshot:
        ids = snapshot.array("ids", "i32")
        assert isinstance(ids, memoryview)
        assert ids.tolist() == [3, 1, 2]
        assert snapshot.array("weights", "f64").tolist() == [0.5, -1.25]
        assert snapshot.array("empty", "i64").tolist() == []
        assert snapshot.strings("rows") == ["plain", "with\nnewline", ""]
        assert snapshot.strings("none") == []
        assert snapshot.verify_columns() > 0
        del ids
    with pytest.raises(SnapshotError, match="closed"):
        snapshot.array("ids", "i32")
    snapshot.close()  # idempotent


def test_mmap_defers_array_corruption_to_verify(saved_snapshot):
    target = saved_snapshot / "value_sims.bin"
    raw = bytearray(target.read_bytes())
    raw[0] ^= 0xFF
    target.write_bytes(bytes(raw))
    # The lazy path maps without hashing ...
    with Snapshot.load(saved_snapshot, mode="mmap") as snapshot:
        assert isinstance(snapshot.array("value_sims", "f64"), memoryview)
        # ... and the deferred check still catches the corruption.
        with pytest.raises(SnapshotError, match="digest"):
            snapshot.verify_columns()
    # The full-verification entry point catches it in either mode.
    with pytest.raises(SnapshotError, match="digest"):
        verify_snapshot(saved_snapshot, mode="mmap")
    with pytest.raises(SnapshotError, match="digest"):
        load_state(saved_snapshot)


def test_mmap_string_corruption_fails_eagerly(saved_snapshot):
    target = saved_snapshot / "kb1_uris.txt"
    target.write_text(target.read_text(encoding="utf-8") + "x", "utf-8")
    with Snapshot.load(saved_snapshot, mode="mmap") as snapshot:
        with pytest.raises(SnapshotError, match="digest"):
            snapshot.strings("kb1_uris")


def test_unknown_load_mode_rejected(saved_snapshot):
    with pytest.raises(SnapshotError, match="mode"):
        Snapshot.load(saved_snapshot, mode="lazy")


def test_mmap_loaded_matcher_replays_bit_identically(saved_snapshot):
    cold = IncrementalMatcher.from_snapshot(saved_snapshot)
    cold.match()
    warm = IncrementalMatcher.from_snapshot(saved_snapshot, mode="mmap")
    warm.match()
    assert context_digests(warm.last_context) == context_digests(
        cold.last_context
    )


# ----------------------------------------------------------------------
# Shared-memory dispatch
# ----------------------------------------------------------------------
# An escaped view of a shared segment surfaces when the segment's
# ``SharedMemory.__del__`` fails to close it: make that an error.
@pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning")
@pytest.mark.skipif(not shm_available(), reason="no shared memory")
def test_shm_dispatch_digests_match_serial_and_pickled(monkeypatch):
    before = shm_segments()
    config = MinoanERConfig(engine="serial")

    kb1, kb2 = golden_kbs()
    serial = context_digests(MatchSession(kb1, kb2, config).run_context())

    kb1, kb2 = golden_kbs()
    shm_config = MinoanERConfig(engine="process", workers=2)
    with_shm = context_digests(
        MatchSession(kb1, kb2, shm_config).run_context()
    )

    monkeypatch.setenv("REPRO_DISABLE_SHM", "1")
    kb1, kb2 = golden_kbs()
    without_shm = context_digests(
        MatchSession(kb1, kb2, shm_config).run_context()
    )

    assert with_shm == serial
    assert without_shm == serial
    assert shm_segments() <= before  # no segment outlives its dispatch


@pytest.mark.skipif(not shm_available(), reason="no shared memory")
def test_arena_publish_attach_roundtrip():
    with SharedArena() as arena:
        columns = [
            ("i", array("i", [1, 2, 3])),
            ("q", array("q", [])),
            ("d", array("d", [0.5, -2.0])),
        ]
        with arena.publish(columns) as segment:
            assert arena.live_segments == 1
            assert [sl.count for sl in segment.slices] == [3, 0, 2]
            with attach(segment.name) as reader:
                assert reader.view(segment.slices[0]).tolist() == [1, 2, 3]
                assert reader.view(segment.slices[1]).tolist() == []
                assert reader.view(segment.slices[2]).tolist() == [0.5, -2.0]
        assert arena.live_segments == 0
        with pytest.raises(FileNotFoundError):
            attach(segment.name).__enter__()


@pytest.mark.skipif(not shm_available(), reason="no shared memory")
def test_arena_close_unlinks_stranded_segments():
    arena = SharedArena()
    segment = arena.publish([("i", array("i", [7]))])
    assert arena.live_segments == 1
    arena.close()
    assert arena.live_segments == 0
    with pytest.raises(FileNotFoundError):
        attach(segment.name).__enter__()


@pytest.mark.skipif(not shm_available(), reason="no shared memory")
def test_segment_close_is_owner_only():
    # Forked pool workers inherit the driver's handles; their exit must
    # not unlink a segment the driver still serves.
    with SharedArena() as arena:
        segment = arena.publish([("q", array("q", [1, 2]))])
        segment._owner_pid = os.getpid() + 1  # simulate the fork child
        segment.close()
        with attach(segment.name) as reader:  # still alive
            assert reader.view(segment.slices[0]).tolist() == [1, 2]
        segment._owner_pid = os.getpid()
        segment.close()
    with pytest.raises(FileNotFoundError):
        attach(segment.name).__enter__()


@pytest.mark.skipif(not shm_available(), reason="no shared memory")
def test_failed_publish_leaks_no_segment(monkeypatch):
    # A fault between segment creation and arena registration is the
    # one window no registry covers: PublishedSegment itself must
    # unlink on that path (see shm.publish in engine/shm.py).
    from repro.testing.failpoints import ENV_SPEC, reset_failpoints

    before = shm_segments()
    monkeypatch.setenv(ENV_SPEC, "shm.publish=once:RuntimeError")
    reset_failpoints()
    try:
        with SharedArena() as arena:
            with pytest.raises(RuntimeError, match="shm.publish"):
                arena.publish([("i", array("i", [1, 2, 3]))])
            assert arena.live_segments == 0
            assert shm_segments() <= before
            # The arena itself is still usable after the fault.
            with arena.publish([("i", array("i", [9]))]) as segment:
                with attach(segment.name) as reader:
                    assert reader.view(segment.slices[0]).tolist() == [9]
    finally:
        monkeypatch.delenv(ENV_SPEC)
        reset_failpoints()
    assert shm_segments() <= before


@pytest.mark.skipif(not shm_available(), reason="no shared memory")
def test_disable_flag_turns_arena_off(monkeypatch):
    monkeypatch.setenv("REPRO_DISABLE_SHM", "1")
    assert not shm_available()
    with pytest.raises(RuntimeError, match="shared memory"):
        SharedArena()
    executor = ProcessExecutor(2)
    assert executor.shared_arena is None
    executor.close()


# ----------------------------------------------------------------------
# Executor.map_columns: one kernel, whatever carried the columns
# ----------------------------------------------------------------------
def _echo_columns(*columns, fail=False):
    """A column kernel that reports exactly what it was handed."""
    seen = [(memoryview(c).format, memoryview(c).tolist()) for c in columns]
    if fail:
        # die holding views of every column, as a real kernel would
        held = [memoryview(c)[:] for c in columns]
        held += [numpy.asarray(c) for c in columns]
        raise RuntimeError(f"kernel failed holding {len(held)} views")
    return seen


_VALUES = {
    "i": st.integers(-(2**31), 2**31 - 1),
    "q": st.integers(-(2**63), 2**63 - 1),
    "d": st.floats(allow_nan=False),
}


@st.composite
def _column_dispatches(draw):
    def columns(typecodes):
        return tuple(
            array(t, draw(st.lists(_VALUES[t], max_size=5))) for t in typecodes
        )

    typecodes = draw(st.text("iqd", min_size=1, max_size=3))
    shared_typecodes = draw(st.text("iqd", max_size=3))
    shards = [columns(typecodes) for _ in range(draw(st.integers(0, 4)))]
    return typecodes, shards, shared_typecodes, columns(shared_typecodes)


@pytest.fixture(scope="module")
def process_engine():
    with ProcessExecutor(2) as engine:
        yield engine


@pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning")
@pytest.mark.skipif(not shm_available(), reason="no shared memory")
@given(dispatch=_column_dispatches())
def test_map_columns_handles_equal_buffers(process_engine, dispatch):
    """Published-and-reopened columns reach the kernel exactly as the
    buffers themselves do: same typecodes, same values, in shard order —
    for empty shard lists, zero-length columns and no shared columns —
    and no segment outlives the dispatch."""
    typecodes, shards, shared_typecodes, shared = dispatch
    before = shm_segments()
    expected = [
        [(t, c.tolist()) for t, c in zip(typecodes + shared_typecodes, s + shared)]
        for s in shards
    ]
    for engine in (SerialExecutor(), process_engine):
        assert (
            engine.map_columns(
                _echo_columns, shards, typecodes, shared, shared_typecodes
            )
            == expected
        )
    assert process_engine.shared_arena.live_segments == 0
    assert shm_segments() <= before


@pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning")
@pytest.mark.skipif(not shm_available(), reason="no shared memory")
@pytest.mark.parametrize("n_shards", [1, 3])  # inline in the driver | pooled
def test_map_columns_kernel_failure_detaches_cleanly(process_engine, n_shards):
    """A kernel that raises while holding views must not pin the
    segment: the error propagates, the worker detaches without an
    unraisable ``BufferError``, and the driver unlinks the segment."""
    before = shm_segments()
    shards = [(array("q", [shard, 2]), array("d", [0.5])) for shard in range(n_shards)]
    with pytest.raises(RuntimeError, match="kernel failed holding"):
        process_engine.map_columns(
            partial(_echo_columns, fail=True), shards, "qd", (array("i", [7]),), "i"
        )
    gc.collect()  # a pinned mapping would fail in SharedMemory.__del__ here
    assert process_engine.shared_arena.live_segments == 0
    assert shm_segments() <= before
    # the engine (and its pool) is still usable after the failure
    assert process_engine.map_columns(_echo_columns, shards, "qd") == [
        [("q", [shard, 2]), ("d", [0.5])] for shard in range(n_shards)
    ]


# ----------------------------------------------------------------------
# _pickled_size (the counting sink)
# ----------------------------------------------------------------------
def test_pickled_size_counts_without_materializing():
    payload = [b"x" * 1000] * 4
    expected = len(pickle.dumps(payload, pickle.HIGHEST_PROTOCOL))
    assert _pickled_size(payload) == expected


def test_pickled_size_zero_only_for_pickling_failures():
    assert _pickled_size(lambda: None) == 0  # locals don't pickle

    class Hostile:
        def __reduce__(self):
            raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        _pickled_size(Hostile())  # control-flow exceptions propagate


# ----------------------------------------------------------------------
# Probe caches hold no back-references
# ----------------------------------------------------------------------
def test_retired_serving_state_freed_without_gc():
    kb1, kb2 = make_pair()
    matcher = IncrementalMatcher(MatchSession(kb1, kb2))
    matcher.match()
    state = ServingState.from_matcher(matcher, generation=1, delta_count=0)
    state.probe("a1", 2)  # populate the cache
    ref = weakref.ref(state)
    gc.disable()
    try:
        del state
        # Refcount alone frees the generation: no cycle through the
        # cache keeps it parked for the collector.
        assert ref() is None
    finally:
        gc.enable()


def test_dropped_session_probe_cache_is_cycle_free():
    kb1, kb2 = make_pair()
    session = MatchSession(kb1, kb2)
    probe = session.probe("a1")
    assert session.probe("a1") is probe  # cached
    cache_ref = weakref.ref(session._probe_cache)
    session._drop_probe_state()
    assert len(session._probe_cache) == 0
    del session
    gc.collect()
    assert cache_ref() is None


# ----------------------------------------------------------------------
# Serve boot + reload in mmap mode
# ----------------------------------------------------------------------
def test_daemon_mmap_boot_and_reload(tmp_path):
    kb1, kb2 = make_pair()
    session = MatchSession(kb1, kb2)
    session.match()
    seed = session.save(tmp_path / "seed")

    copy_daemon = ResolutionDaemon.from_snapshot(seed)
    daemon = ResolutionDaemon.from_snapshot(seed, mode="mmap")
    assert daemon.load_mode == "mmap"
    assert (
        daemon.state().matches_digest
        == copy_daemon.state().matches_digest
    )
    reloaded = daemon.reload(seed)  # reuses the boot mode
    assert reloaded["matches_digest"] == copy_daemon.state().matches_digest
