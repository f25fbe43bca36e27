"""Chaos tests: the ISSUE-9 fault matrix, driven by deterministic failpoints.

Each scenario injects a real fault — a SIGKILLed pool worker, an
interrupted snapshot write, a daemon SIGKILLed mid-delta — and asserts
the recovery contract: the system comes back with **bit-identical**
digests to an uninterrupted run, never a partial state.
"""

import os
import signal
import subprocess
import sys
from pathlib import Path

from array import array

import pytest

from repro.core import MinoanERConfig
from repro.datasets import generate_benchmark
from repro.engine import ProcessExecutor, SerialExecutor
from repro.obs import Telemetry, activate
from repro.pipeline import MatchSession
from repro.serve import ResolutionDaemon, parse_delta
from repro.store import Snapshot, verify_snapshot
from repro.testing.failpoints import ENV_SPEC, ENV_STATE, reset_failpoints

from test_pipeline import make_pair
from test_serve import snapshot_dir  # noqa: F401  (fixture re-export)


@pytest.fixture(autouse=True)
def _clean_failpoints(monkeypatch):
    monkeypatch.delenv(ENV_SPEC, raising=False)
    monkeypatch.delenv(ENV_STATE, raising=False)
    reset_failpoints()
    yield
    reset_failpoints()


def arm(monkeypatch, spec, state_dir=None):
    monkeypatch.setenv(ENV_SPEC, spec)
    if state_dir is not None:
        monkeypatch.setenv(ENV_STATE, str(state_dir))
    reset_failpoints()


def _square(values):
    return [v * v for v in values]


PARTITIONS = [
    (array("q", values),) for values in ([1, 2], [3], [4, 5], [6], [7, 8], [9])
]


# ----------------------------------------------------------------------
# Worker crashes: retry, then degrade
# ----------------------------------------------------------------------
class TestWorkerCrashRecovery:
    def expected(self):
        return SerialExecutor().map_columns(_square, PARTITIONS)

    def test_sigkilled_worker_is_retried_bit_identically(
        self, monkeypatch, tmp_path
    ):
        # The shared hit counter makes this exact: hit 2 — and only
        # hit 2 — across every pool worker SIGKILLs its process.
        arm(monkeypatch, "engine.worker=crash@2", state_dir=tmp_path)
        telemetry = Telemetry.create()
        with activate(telemetry):
            with ProcessExecutor(2) as executor:
                results = executor.map_columns(_square, PARTITIONS)
        assert results == self.expected()
        counters = telemetry.metrics.counters()
        assert counters["engine.pool_rebuilds"] >= 1
        assert counters["engine.worker_retries"] >= 1
        assert "engine.degraded_dispatches" not in counters

    def test_persistent_crashes_degrade_to_inline(self, monkeypatch):
        # Every worker evaluation crashes: the first round and both
        # retries fail, then the dispatch runs inline.
        arm(monkeypatch, "engine.worker=crash")
        telemetry = Telemetry.create()
        with activate(telemetry):
            with ProcessExecutor(2) as executor:
                results = executor.map_columns(_square, PARTITIONS)
        assert results == self.expected()
        counters = telemetry.metrics.counters()
        assert counters["engine.degraded_dispatches"] == 1
        assert counters["engine.pool_rebuilds"] == 3

    def test_genuine_worker_exception_propagates_unretried(
        self, monkeypatch
    ):
        # A raising failpoint stands in for a partition-function bug:
        # no retry, no degrade — the error surfaces immediately.
        arm(monkeypatch, "engine.worker=ValueError@1")
        telemetry = Telemetry.create()
        with activate(telemetry):
            with ProcessExecutor(2) as executor:
                with pytest.raises(ValueError, match="engine.worker"):
                    executor.map_columns(_square, PARTITIONS)
        assert "engine.pool_rebuilds" not in telemetry.metrics.counters()

    def test_pipeline_digests_survive_worker_crash(
        self, monkeypatch, tmp_path
    ):
        # rexa_dblp 0.2 cuts each index into several row tasks, so the
        # process engine really dispatches to its pool (a one-task
        # dispatch runs inline, and the crash would never fire).
        data = generate_benchmark("rexa_dblp", 0.2, 13)
        clean = MatchSession(data.kb1.copy(), data.kb2.copy())
        clean.match()
        clean_path = clean.save(tmp_path / "clean")

        arm(monkeypatch, "engine.worker=crash@2", state_dir=tmp_path / "fp")
        (tmp_path / "fp").mkdir()
        telemetry = Telemetry.create()
        crashed = MatchSession(
            data.kb1,
            data.kb2,
            MinoanERConfig(engine="process", workers=2),
            telemetry=telemetry,
        )
        crashed.match()
        crashed_path = crashed.save(tmp_path / "crashed")

        assert telemetry.metrics.counters()["engine.pool_rebuilds"] >= 1
        assert (
            Snapshot.load(crashed_path).json("digests")
            == Snapshot.load(clean_path).json("digests")
        )


# ----------------------------------------------------------------------
# Interrupted snapshot writes: the old snapshot must survive intact
# ----------------------------------------------------------------------
class TestAtomicSnapshot:
    def seed(self, tmp_path):
        session = MatchSession(*make_pair())
        session.match()
        path = session.save(tmp_path / "snap")
        return session, path, Snapshot.load(path).json("digests")

    def assert_intact(self, path, digests):
        assert Snapshot.load(path).json("digests") == digests
        assert not (path.parent / (path.name + ".tmp")).exists()
        assert not (path.parent / (path.name + ".old")).exists()

    def test_interrupted_column_write_preserves_old_snapshot(
        self, monkeypatch, tmp_path
    ):
        session, path, digests = self.seed(tmp_path)
        arm(monkeypatch, "store.write_column=once:OSError")
        with pytest.raises(OSError):
            session.save(path)
        self.assert_intact(path, digests)

    def test_interrupted_manifest_commit_preserves_old_snapshot(
        self, monkeypatch, tmp_path
    ):
        session, path, digests = self.seed(tmp_path)
        arm(monkeypatch, "store.commit_manifest=once:OSError")
        with pytest.raises(OSError):
            session.save(path)
        self.assert_intact(path, digests)

    def test_failed_swap_puts_the_old_snapshot_back(
        self, monkeypatch, tmp_path
    ):
        # The error lands after the old snapshot was renamed aside.
        session, path, digests = self.seed(tmp_path)
        arm(monkeypatch, "store.commit_swap=once:OSError")
        with pytest.raises(OSError):
            session.save(path)
        self.assert_intact(path, digests)

    def test_kill9_between_the_swap_renames_keeps_the_old_snapshot(
        self, tmp_path
    ):
        """SIGKILL with the old snapshot at ``.old`` and the new one
        still at ``.tmp``: nothing is at ``path``, and the next loader
        (or writer) must find the old snapshot, not "not a snapshot"."""
        _, path, digests = self.seed(tmp_path)
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
        env[ENV_SPEC] = "store.commit_swap=crash"
        child = subprocess.run(
            [sys.executable, "-c", RESAVE_CHILD, str(path)],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert child.returncode == -signal.SIGKILL, child.stderr
        assert "survived" not in child.stdout
        aside = path.parent / (path.name + ".old")
        staging = path.parent / (path.name + ".tmp")
        assert not path.exists() and aside.is_dir() and staging.is_dir()

        assert verify_snapshot(path) == digests  # the loader restores it
        assert path.is_dir() and not aside.exists()
        # ... and so does a writer that gets there first; its commit then
        # clears the dead writer's staging debris as before.
        os.rename(path, aside)
        MatchSession.load(aside).save(path)
        self.assert_intact(path, digests)

    def test_clean_resave_after_interruption(self, monkeypatch, tmp_path):
        session, path, digests = self.seed(tmp_path)
        arm(monkeypatch, "store.write_column=once:OSError")
        with pytest.raises(OSError):
            session.save(path)
        reset_failpoints()
        monkeypatch.delenv(ENV_SPEC)
        # The aborted attempt left no debris: the next save succeeds
        # and lands the same digests.
        session.save(path)
        self.assert_intact(path, digests)


RESAVE_CHILD = """
import sys
from repro.pipeline import MatchSession

MatchSession.load(sys.argv[1]).save(sys.argv[1])
print("survived the save")  # unreachable when the failpoint fires
"""


# ----------------------------------------------------------------------
# Daemon SIGKILLed mid-delta (the satellite subprocess test)
# ----------------------------------------------------------------------
DELTA_1 = {"ops": [{"op": "remove", "kb": "kb1", "uris": ["a0"]}]}
DELTA_2 = {
    "ops": [
        {
            "op": "add",
            "kb": "kb2",
            "entities": [
                {"uri": "b9", "pairs": [["name", {"lit": "ninth"}]]}
            ],
        }
    ]
}

CHILD_SCRIPT = """
import json, sys
from repro.serve import ResolutionDaemon, parse_delta

snapshot, wal_dir = sys.argv[1], sys.argv[2]
daemon = ResolutionDaemon.from_snapshot(snapshot, wal_dir=wal_dir)
for payload in json.loads(sys.argv[3]):
    daemon.apply_delta(parse_delta(payload), raw_ops=payload["ops"])
print("survived every delta")  # unreachable when the failpoint fires
"""


class TestDaemonKill9:
    def test_kill9_mid_delta_replays_to_identical_digests(
        self, snapshot_dir, tmp_path  # noqa: F811
    ):
        import json as json_module

        wal_dir = tmp_path / "wal"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(
            Path(__file__).resolve().parent.parent / "src"
        )
        # Hit 1 (delta 1) applies cleanly; hit 2 SIGKILLs the daemon
        # after delta 2 hit the WAL but before the matcher applied it.
        env[ENV_SPEC] = "serve.apply_delta=crash@2"
        env.pop(ENV_STATE, None)
        child = subprocess.run(
            [
                sys.executable,
                "-c",
                CHILD_SCRIPT,
                str(snapshot_dir),
                str(wal_dir),
                json_module.dumps([DELTA_1, DELTA_2]),
            ],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert child.returncode == -signal.SIGKILL, child.stderr
        assert "survived" not in child.stdout

        # Recovery: boot from the same snapshot + WAL.  The committed
        # delta 1 and the in-flight delta 2 both replay.
        recovered = ResolutionDaemon.from_snapshot(
            snapshot_dir, wal_dir=wal_dir
        )
        reference = ResolutionDaemon.from_snapshot(snapshot_dir)
        for payload in (DELTA_1, DELTA_2):
            reference.apply_delta(parse_delta(payload))
        assert recovered.state().generation == reference.state().generation
        assert (
            recovered.state().matches_digest
            == reference.state().matches_digest
        )
        assert recovered.robustness_stats()["wal_replayed"] == 2


# ----------------------------------------------------------------------
# Daemon SIGKILLed after a live snapshot: the log must continue from it
# ----------------------------------------------------------------------
DELTA_3 = {"ops": [{"op": "remove", "kb": "kb1", "uris": ["a1"]}]}

POST_SNAPSHOT_CHILD = """
import json, os, signal, sys
from repro.serve import ResolutionDaemon, parse_delta

snapshot, wal_dir, snapshot_dir = sys.argv[1:4]
before, after = json.loads(sys.argv[4])
daemon = ResolutionDaemon.from_snapshot(
    snapshot, wal_dir=wal_dir, snapshot_dir=snapshot_dir
)
for payload in before:
    daemon.apply_delta(parse_delta(payload), raw_ops=payload["ops"])
saved = daemon.save_snapshot()  # what POST /snapshot runs
for payload in after:
    daemon.apply_delta(parse_delta(payload), raw_ops=payload["ops"])
state = daemon.state()
print(json.dumps({
    "snapshot": str(saved),
    "generation": state.generation,
    "matches_digest": state.matches_digest,
}), flush=True)
os.kill(os.getpid(), signal.SIGKILL)
"""


class TestKill9AfterLiveSnapshot:
    def test_reboot_from_live_snapshot_replays_the_later_delta(
        self, snapshot_dir, tmp_path  # noqa: F811
    ):
        import json as json_module

        from repro.serve import WalError

        wal_dir = tmp_path / "wal"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(
            Path(__file__).resolve().parent.parent / "src"
        )
        child = subprocess.run(
            [
                sys.executable,
                "-c",
                POST_SNAPSHOT_CHILD,
                str(snapshot_dir),
                str(wal_dir),
                str(tmp_path / "snaps"),
                json_module.dumps([[DELTA_1, DELTA_2], [DELTA_3]]),
            ],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert child.returncode == -signal.SIGKILL, child.stderr
        killed = json_module.loads(child.stdout.strip().splitlines()[-1])
        assert killed["generation"] == 4
        assert Path(killed["snapshot"]).name.startswith("snap-g3-")

        # The log was reset at generation 3 and holds one later batch
        # logged against generation 4: the reboot must start at 3.
        recovered = ResolutionDaemon.from_snapshot(
            killed["snapshot"], wal_dir=wal_dir
        )
        try:
            state = recovered.state()
            assert state.generation == killed["generation"]
            assert state.matches_digest == killed["matches_digest"]
            assert recovered.robustness_stats()["wal_replayed"] == 1
        finally:
            recovered.wal.close()

        # The same log over the snapshot it does NOT continue is refused
        # (its header pins the digest of the state it was reset at).
        with pytest.raises(WalError, match="another state"):
            ResolutionDaemon.from_snapshot(snapshot_dir, wal_dir=wal_dir)

    def test_reset_header_round_trips_and_rejects_garbage(self, tmp_path):
        from repro.serve import WalError, WriteAheadLog

        path = tmp_path / "delta.wal"
        with WriteAheadLog(path) as wal:
            assert (wal.base_generation, wal.base_digest) == (1, None)
            wal.reset(7, "d" * 64)
            wal.log_delta(DELTA_1["ops"], 8)
        with WriteAheadLog(path) as wal:
            assert (wal.base_generation, wal.base_digest) == (7, "d" * 64)
            assert len(wal.recovered) == 1
        for bad in (b'"base_generation": 0', b'"base_generation": "7"',
                    b'"base_generation": true', b'"base_digest": 5'):
            path.write_bytes(b'{"schema": "repro-wal/1", ' + bad + b"}\n")
            with pytest.raises(WalError, match="malformed header"):
                WriteAheadLog(path)
