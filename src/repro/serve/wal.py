"""Write-ahead delta log: durable ``POST /delta`` replay (``repro-wal/1``).

The daemon's durability story before this module was "whatever the last
snapshot held": a SIGKILL lost every delta applied since.  The WAL
closes that window with the classic ordering — a validated operation
batch is fsync-appended *before* the matcher applies it, so after a
crash the log holds every acknowledged (and every in-flight) batch and
boot replays them against the snapshot deterministically.

File format — line-oriented, append-only, human-inspectable::

    {"schema": "repro-wal/1", "base_generation": 3, "base_digest": "..."}
    8f3a2c01\t{"expected_generation":2,"ops":[...],"type":"delta"}
    1b77e0d4\t{"generation":2,"matches_digest":"...","type":"commit"}

The first line is the header.  ``base_generation`` is the generation of
the state the log's first record applies to — 1 (omitted) for a log
created at first boot, the snapshotted generation after a
:meth:`~WriteAheadLog.reset` — and ``base_digest`` that state's
``matches_digest``; a daemon boots *at* ``base_generation`` so the
absolute ``expected_generation`` of every record still lines up after
a live snapshot.  Both are optional (absent: generation 1, digest
unchecked), so logs written before the fields existed still open.
Each record line is the CRC-32 of the payload bytes (8 hex digits), a
tab, the compact sorted-key JSON payload, a newline.  Two record types:

``delta``
    One validated op batch in the wire grammar of
    :mod:`repro.serve.json_codec`, plus the generation the writer
    expects the apply to produce.  Appended (flush + fsync) before the
    matcher mutates anything.
``commit``
    Appended after the new generation publishes; pins the generation's
    ``matches_digest`` so replay can *prove* it reconverged instead of
    assuming determinism.

Torn-tail tolerance: a crash mid-append leaves a final line without a
newline (or with a short payload failing its CRC).  Opening the log
drops and physically truncates such a tail — only the **last** record
may be damaged, because every earlier append returned only after its
fsync; damage anywhere else is real corruption and raises
:class:`WalError`.  A trailing ``delta`` without its ``commit`` is
replayed anyway: it was durably logged before the crash, and replaying
it is exactly the at-least-once semantics the digest check verifies.

Truncation (:meth:`WriteAheadLog.reset`) happens after a successful
snapshot — the snapshot now owns the state, so the log restarts empty
via an atomic header-file swap that also records which generation (and
matches digest) the snapshot holds.
"""

from __future__ import annotations

import json
import os
import zlib
from pathlib import Path
from typing import Any

from ..store.snapshot import fsync_dir
from ..testing.failpoints import failpoint

#: The one WAL schema this build writes and accepts.
WAL_SCHEMA = "repro-wal/1"

#: Default log file name inside a ``--wal-dir``.
WAL_NAME = "delta.wal"


class WalError(RuntimeError):
    """The write-ahead log is unreadable or fails its integrity checks."""


def _encode_record(record: dict) -> bytes:
    payload = json.dumps(
        record, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    crc = zlib.crc32(payload) & 0xFFFFFFFF
    return f"{crc:08x}".encode("ascii") + b"\t" + payload + b"\n"


def _decode_line(line: bytes) -> dict:
    """Parse one complete record line; raises ``ValueError`` on damage."""
    crc_hex, separator, payload = line.partition(b"\t")
    if not separator or len(crc_hex) != 8:
        raise ValueError("record framing")
    if int(crc_hex, 16) != (zlib.crc32(payload) & 0xFFFFFFFF):
        raise ValueError("CRC mismatch")
    record = json.loads(payload)
    if not isinstance(record, dict):
        raise ValueError("record is not an object")
    return record


class WriteAheadLog:
    """One append-only delta log file (see module docstring).

    Opening an existing log validates the header, parses every record,
    tolerates (and truncates away) a torn final record, and exposes the
    survivors as :attr:`recovered` for the daemon to replay.  The file
    handle then stays open at the end for appends.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        #: Records recovered from an existing file at open (replay input).
        self.recovered: list[dict] = []
        #: Torn-tail records dropped (and truncated) at open: 0 or 1.
        self.torn_dropped = 0
        #: Generation (and matches digest, when recorded) of the state
        #: the first record applies to — from the header.
        self.base_generation = 1
        self.base_digest: str | None = None
        if not self.path.exists():
            self._write_fresh(1, None)
        self._recover()
        self._handle = open(self.path, "ab")

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def _recover(self) -> None:
        raw = self.path.read_bytes()
        newline = raw.find(b"\n")
        if newline < 0:
            raise WalError(f"{self.path}: missing WAL header")
        try:
            header = json.loads(raw[:newline])
        except json.JSONDecodeError as error:
            raise WalError(f"{self.path}: unreadable header: {error}")
        schema = header.get("schema") if isinstance(header, dict) else None
        if schema != WAL_SCHEMA:
            raise WalError(
                f"{self.path}: schema {schema!r} is not supported; this "
                f"build reads {WAL_SCHEMA!r}"
            )
        base_generation = header.get("base_generation", 1)
        base_digest = header.get("base_digest")
        if (
            type(base_generation) is not int
            or base_generation < 1
            or not isinstance(base_digest, (str, type(None)))
        ):
            raise WalError(f"{self.path}: malformed header {header!r}")
        self.base_generation = base_generation
        self.base_digest = base_digest
        body = raw[newline + 1:]
        offset = newline + 1  # byte offset of the clean prefix's end
        lines = body.split(b"\n")
        torn_tail = lines[-1]  # b"" when the file ends with a newline
        complete = lines[:-1]
        for index, line in enumerate(complete):
            try:
                record = _decode_line(line)
            except (ValueError, json.JSONDecodeError) as error:
                if index == len(complete) - 1 and not torn_tail:
                    # A damaged *final* record is a torn append; an
                    # fsynced earlier record can never be damaged.
                    torn_tail = line
                    break
                raise WalError(
                    f"{self.path}: corrupt record "
                    f"{index + 1}/{len(complete)}: {error}"
                )
            self.recovered.append(record)
            offset += len(line) + 1
        if torn_tail:
            self.torn_dropped = 1
            os.truncate(self.path, offset)

    # ------------------------------------------------------------------
    # Appends
    # ------------------------------------------------------------------
    def append(self, record: dict) -> None:
        """Durably append one record (returns only after the barrier)."""
        failpoint("wal.append")
        self._handle.write(_encode_record(record))
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def log_delta(
        self, ops_payload: list[dict], expected_generation: int
    ) -> None:
        """Log one validated op batch before it is applied."""
        self.append(
            {
                "type": "delta",
                "ops": ops_payload,
                "expected_generation": expected_generation,
            }
        )

    def log_commit(self, generation: int, matches_digest: str) -> None:
        """Pin a published generation's digest after the apply."""
        self.append(
            {
                "type": "commit",
                "generation": generation,
                "matches_digest": matches_digest,
            }
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _write_fresh(
        self, base_generation: int, base_digest: str | None
    ) -> None:
        """Durably replace the log with a header-only file."""
        header: dict[str, Any] = {"schema": WAL_SCHEMA}
        if base_generation != 1:
            header["base_generation"] = base_generation
        if base_digest is not None:
            header["base_digest"] = base_digest
        staging = self.path.parent / (self.path.name + ".tmp")
        with open(staging, "wb") as handle:
            handle.write(json.dumps(header).encode("utf-8") + b"\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(staging, self.path)
        fsync_dir(self.path.parent)

    def reset(
        self, base_generation: int = 1, base_digest: str | None = None
    ) -> None:
        """Truncate to an empty log (after a successful snapshot).

        ``base_generation`` / ``base_digest`` describe the snapshotted
        state: the header keeps them so a restart from that snapshot
        boots at the generation the next record was logged against.
        """
        self._handle.close()
        self._write_fresh(base_generation, base_digest)
        self.base_generation = base_generation
        self.base_digest = base_digest
        self.recovered = []
        self.torn_dropped = 0
        self._handle = open(self.path, "ab")

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"WriteAheadLog({str(self.path)!r}, "
            f"recovered={len(self.recovered)})"
        )
