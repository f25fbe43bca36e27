"""Zero-copy paths: mmap snapshot loads and the column transport.

The acceptance contract of the zero-copy layer is bit-identity with the
copying paths it replaces:

- ``Snapshot.load(..., mode="mmap")`` restores artifacts whose digests
  equal the copy-mode load and the cold run — with array columns served
  as typed memoryviews over the mapped files and corruption still
  detected (deferred to :meth:`Snapshot.verify_columns` for arrays,
  eager for strings);
- process dispatch computes the same artifact digests as the serial
  engine, every executor hands a kernel the same columns, and no pool
  worker outlives its dispatch, crash or not;
- nothing a read leaves behind refers back to its owner, so retired
  serving generations and dropped sessions free by refcount alone.
"""

import gc
import multiprocessing
import pickle
import sys
import threading
import weakref
from array import array
from functools import partial
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.core import MinoanERConfig
from repro.datasets import generate_benchmark
from repro.engine import executor as executor_module
from repro.engine.executor import (
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    _pickled_size,
)
from repro.incremental import IncrementalMatcher
from repro.kb.entity import EntityDescription
from repro.kb.io_ntriples import read_ntriples
from repro.obs import Telemetry, activate
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
# Process dispatch: one pool per dispatch, columns installed at start
# ----------------------------------------------------------------------
def test_process_dispatch_digests_match_serial():
    # rexa_dblp 0.2 cuts each index into several row tasks, so every
    # worker count above one really runs a pool.
    data = generate_benchmark("rexa_dblp", 0.2, 13)

    def digests(config):
        kbs = (data.kb1.copy(), data.kb2.copy())
        return context_digests(MatchSession(*kbs, config).run_context())

    serial = digests(MinoanERConfig(engine="serial"))
    for workers in (1, 2, 3):
        telemetry = Telemetry.create()
        with activate(telemetry):
            process = digests(MinoanERConfig(engine="process", workers=workers))
        assert process == serial, workers
        counters = telemetry.metrics.counters()
        assert counters["engine.partition_tasks"] > counters["engine.dispatches"]
    assert multiprocessing.active_children() == []


def _echo_columns(*columns, fail=False):
    """A column kernel that reports exactly what it was handed."""
    seen = [(memoryview(c).format, memoryview(c).tolist()) for c in columns]
    if fail:
        raise RuntimeError(f"kernel failed after reading {len(seen)} columns")
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
    shards = [columns(typecodes) for _ in range(draw(st.integers(0, 4)))]
    return shards, columns(draw(st.text("iqd", max_size=3)))


@pytest.fixture(scope="module")
def every_executor():
    with ThreadExecutor(2) as thread, ProcessExecutor(2) as process:
        yield SerialExecutor(), thread, process


@given(dispatch=_column_dispatches())
@example(dispatch=([], (array("d", [0.5]),)))  # no shards
@example(dispatch=([(array("i"), array("q", [1])), (array("i"), array("q"))], ()))
def test_map_columns_handles_equal_buffers(every_executor, dispatch):
    """Every executor hands the kernel each shard's columns, then the
    shared ones, exactly as they are — same typecodes, same values, in
    shard order — for empty shard lists, zero-length columns and no
    shared columns."""
    shards, shared = dispatch
    expected = [
        [(memoryview(c).format, c.tolist()) for c in shard + shared]
        for shard in shards
    ]
    for engine in every_executor:
        assert engine.map_columns(_echo_columns, shards, shared) == expected


@pytest.mark.parametrize("n_shards", [1, 3])  # inline in the driver | pooled
def test_map_columns_kernel_failure_detaches_cleanly(n_shards):
    """A kernel that raises propagates its error, leaves no worker
    behind and no dispatch registered, and the executor stays usable."""
    shards = [(array("q", [shard, 2]), array("d", [0.5])) for shard in range(n_shards)]
    with ProcessExecutor(2) as engine:
        with pytest.raises(RuntimeError, match="kernel failed"):
            engine.map_columns(
                partial(_echo_columns, fail=True), shards, (array("i", [7]),)
            )
        assert multiprocessing.active_children() == []
        assert executor_module._DISPATCHES == {}
        assert engine.map_columns(_echo_columns, shards) == [
            [("q", [shard, 2]), ("d", [0.5])] for shard in range(n_shards)
        ]


@pytest.mark.parametrize("degraded", [False, True])
def test_process_dispatch_leaves_no_children(monkeypatch, degraded):
    """Whether a pooled dispatch succeeds or falls back inline after
    three crashed rounds, its pool's workers are gone when it returns
    (a raising kernel: :func:`test_map_columns_kernel_failure_detaches_cleanly`)."""
    from repro.testing.failpoints import ENV_SPEC, reset_failpoints

    shards = [(array("q", [shard]),) for shard in range(4)]
    shared = (array("d", [0.25]),)
    if degraded:
        monkeypatch.setenv(ENV_SPEC, "engine.worker=crash")
    reset_failpoints()
    try:
        with ProcessExecutor(2) as engine:
            assert engine.map_columns(_echo_columns, shards, shared) == [
                [("q", [shard]), ("d", [0.25])] for shard in range(4)
            ]
            assert multiprocessing.active_children() == []
    finally:
        monkeypatch.delenv(ENV_SPEC, raising=False)
        reset_failpoints()


def test_concurrent_process_executors_see_their_own_columns():
    """Two process executors dispatching from two threads at once each
    read their own shared columns, never the other's — in their pools'
    workers (three shards) and inline in the calling process (one shard)."""
    barrier = threading.Barrier(2)
    results = {}

    def dispatch(side):
        shards = [(array("q", [side, shard]),) for shard in range(3)]
        shared = (array("q", [side] * (side + 1)),)
        seen = []
        try:
            with ProcessExecutor(2) as engine:
                for _ in range(3):
                    barrier.wait(timeout=60)
                    seen.append(engine.map_columns(_echo_columns, shards, shared))
                    seen.append(engine.map_columns(_echo_columns, shards[:1], shared))
        except BaseException:
            barrier.abort()  # the other thread must not wait for this one
            raise
        results[side] = seen

    threads = [threading.Thread(target=dispatch, args=(side,)) for side in (1, 2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    for side in (1, 2):
        expected = [
            [("q", [side, shard]), ("q", [side] * (side + 1))]
            for shard in range(3)
        ]
        assert results[side] == [expected, expected[:1]] * 3
    assert multiprocessing.active_children() == []


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
# Read owners hold no back-references
# ----------------------------------------------------------------------
def _freed_by_refcount(make_owner) -> bool:
    """Whether dropping the last reference to a reader that has probed
    and resolved frees it and its resolver with the collector off: no
    cycle parks either for the next ``gc`` pass."""
    kb1, _ = make_pair()
    owner = make_owner()
    owner.probe("a1", 2)
    owner.resolve(EntityDescription("urn:q:freed", kb1["a1"].pairs))
    resolver = (
        owner.resolver if isinstance(owner, ServingState) else owner._reads()
    )
    refs = [weakref.ref(owner), weakref.ref(resolver)]
    del resolver
    gc.collect()
    gc.disable()
    try:
        del owner
        return all(ref() is None for ref in refs)
    finally:
        gc.enable()


def test_retired_serving_state_freed_without_gc():
    kb1, kb2 = make_pair()
    matcher = IncrementalMatcher(MatchSession(kb1, kb2))
    matcher.match()
    assert _freed_by_refcount(
        lambda: ServingState.from_matcher(matcher, generation=1, delta_count=0)
    )


def test_dropped_session_freed_without_gc():
    kb1, kb2 = make_pair()
    assert _freed_by_refcount(lambda: MatchSession(kb1, kb2))


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
