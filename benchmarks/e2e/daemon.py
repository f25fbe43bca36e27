"""The resolution daemon as a subprocess of the benchmark.

The daemon runs in its own process so the load generator's interpreter
lock never contends with the server's.  :class:`DaemonProcess` starts
``python -m repro.serve``, times ``Popen`` → first 200 from ``/healthz``,
reads the daemon's memory high-water mark from ``/proc``, and stops it:
``SIGTERM`` first, ``SIGKILL`` if it has not drained after
:data:`DRAIN_SECONDS`.
"""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

from loadgen import TRANSPORT_ERRORS, Client

HOST = "127.0.0.1"
#: How long a SIGTERMed daemon gets to drain before it is killed.
DRAIN_SECONDS = 10.0
BOOT_TIMEOUT = 120.0


class DaemonBootError(RuntimeError):
    """The daemon exited (or never answered) before its first healthz 200."""

    def __init__(self, returncode: int | None, stderr_tail: str) -> None:
        super().__init__(
            f"daemon did not boot (exit code {returncode}): {stderr_tail}"
        )
        self.returncode = returncode


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind((HOST, 0))
        return probe.getsockname()[1]


class DaemonProcess:
    """One running ``python -m repro.serve`` and its measured start time."""

    def __init__(
        self, process: subprocess.Popen, port: int, start_s: float, log: Path
    ) -> None:
        self.process = process
        self.port = port
        #: ``Popen`` → first 200 from ``/healthz``, in seconds.
        self.start_s = start_s
        self.log = log

    @classmethod
    def start(
        cls,
        snapshot: Path,
        *,
        src: Path,
        log: Path,
        wal_dir: Path | None = None,
        snapshot_dir: Path | None = None,
    ) -> "DaemonProcess":
        port = _free_port()
        command = [
            sys.executable, "-m", "repro.serve",
            "--snapshot", str(snapshot),
            "--host", HOST, "--port", str(port),
        ]  # fmt: skip
        if wal_dir is not None:
            command += ["--wal-dir", str(wal_dir)]
        if snapshot_dir is not None:
            command += ["--snapshot-dir", str(snapshot_dir)]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        with open(log, "wb") as sink:
            began = time.perf_counter()
            process = subprocess.Popen(
                command, env=env, stdout=sink, stderr=subprocess.STDOUT
            )
        try:
            while True:
                if process.poll() is not None:
                    raise DaemonBootError(process.returncode, _tail(log))
                if time.perf_counter() - began > BOOT_TIMEOUT:
                    raise DaemonBootError(None, "no healthz 200 in time")
                client = Client(HOST, port, timeout=5.0)
                try:
                    status, _ = client.request("GET", "/healthz")
                    if status == 200:
                        return cls(
                            process, port, time.perf_counter() - began, log
                        )
                except TRANSPORT_ERRORS:
                    time.sleep(0.01)
                finally:
                    client.close()
        except BaseException:
            _reap(process)
            raise

    def vm_hwm_mb(self) -> float:
        """The daemon's peak resident set (``VmHWM``), in MB."""
        for line in Path(f"/proc/{self.process.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM not found in /proc status")

    def stop(self) -> bool:
        """SIGTERM and wait; returns whether the daemon drained by itself.

        Callers close their connections first: an idle keep-alive
        connection keeps a request thread alive and blocks the drain.
        """
        self.process.send_signal(signal.SIGTERM)
        try:
            self.process.wait(DRAIN_SECONDS)
            return True
        except subprocess.TimeoutExpired:
            _reap(self.process)
            return False

    def kill(self) -> None:
        """SIGKILL (the crash the recovery path is measured against)."""
        _reap(self.process)


def _reap(process: subprocess.Popen) -> None:
    if process.poll() is None:
        process.kill()
    process.wait()


def _tail(log: Path, limit: int = 400) -> str:
    try:
        return log.read_text(errors="replace")[-limit:].strip()
    except OSError:
        return ""
