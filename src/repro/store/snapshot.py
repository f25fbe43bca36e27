"""Versioned snapshot directories: columns + a digest-pinned manifest.

A snapshot is a directory of raw column files (see
:mod:`repro.store.columns`) plus one ``manifest.json`` carrying the
schema tag (``repro-snapshot/1``), the writing platform's byte order,
small JSON-native values (configuration, match lists, digests), and —
per column — the file name, logical kind, element count and SHA-256.

Loading re-verifies every column's digest as it is read, so a snapshot
either round-trips bit-identically or fails with a
:class:`SnapshotError` naming the first corrupt column.  Snapshots
contain no timestamps or machine identifiers: writing the same state
twice produces byte-identical directories.
"""

from __future__ import annotations

import json
import mmap
import os
import shutil
import sys
from array import array
from pathlib import Path
from typing import Any, Iterable

from ..obs.runtime import current as _telemetry_current
from ..testing.failpoints import failpoint
from .columns import (
    ColumnError,
    bytes_sha256,
    decode_array_column,
    decode_string_column,
    view_array_column,
    write_array_column,
    write_string_column,
)

#: The one schema this build writes and accepts.
SNAPSHOT_SCHEMA = "repro-snapshot/1"

MANIFEST_NAME = "manifest.json"

#: Supported load modes: eager digest-checked copies, or lazy read-only
#: maps with deferred digest verification (see :meth:`Snapshot.load`).
LOAD_MODES = ("copy", "mmap")

#: What every manifest column entry declares, with its JSON type.
_COLUMN_FIELDS = (
    ("file", str), ("kind", str), ("count", int), ("sha256", str)
)


class SnapshotError(RuntimeError):
    """A snapshot directory cannot be written or faithfully loaded."""


def _fsync_file(path: Path) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def fsync_dir(path: Path) -> None:
    """fsync a directory so its entries survive a power loss.

    Best-effort: some filesystems refuse directory fsync, which only
    weakens durability, never atomicity — the rename either happened or
    it didn't.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-specific
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform-specific
        pass
    finally:
        os.close(fd)


def _restore_retired(path: Path) -> None:
    """Undo a commit killed between its two renames: with nothing at
    ``path``, the snapshot retired beside it is still the current one."""
    aside = path.with_name(path.name + ".old")
    if aside.exists() and not path.exists():
        os.rename(aside, path)


class SnapshotWriter:
    """Accumulates columns and JSON values, then commits a manifest.

    Writes are crash-atomic.  Columns are staged into a ``<path>.tmp``
    sibling directory; :meth:`commit` writes the manifest last, fsyncs
    every staged file and the staging directory, and renames the staging
    directory into place — the rename is the commit point, so a crash at
    any instant leaves either the previous snapshot (or nothing) at
    ``path``, never a partial directory.  An existing snapshot at the
    target is moved aside (``<path>.old``) and removed only after the new
    directory has landed; the next writer or loader of ``path`` moves it
    back if a crash fell between the two renames.  :meth:`abort` discards
    the staging directory; a crash before commit leaves only
    ``<path>.tmp`` debris, which the next writer to the same path clears.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        _restore_retired(self.path)
        self.staging = self.path.parent / (self.path.name + ".tmp")
        if self.staging.exists():
            shutil.rmtree(self.staging)
        self.staging.mkdir()
        self._columns: dict[str, dict] = {}
        self._json: dict[str, Any] = {}
        self._committed = False

    def _register(self, name: str, entry: dict) -> None:
        if name in self._columns:
            raise SnapshotError(f"duplicate column name {name!r}")
        self._columns[name] = entry

    def add_array(self, name: str, values: array) -> None:
        """Add one ``array('i'|'q'|'d')`` column."""
        try:
            entry = write_array_column(self.staging / f"{name}.bin", values)
        except ColumnError as error:
            raise SnapshotError(f"column {name!r}: {error}") from error
        self._register(name, entry)

    def add_strings(self, name: str, items: Iterable[str]) -> None:
        """Add one string column (newline-joined UTF-8)."""
        try:
            entry = write_string_column(self.staging / f"{name}.txt", items)
        except ColumnError as error:
            raise SnapshotError(f"column {name!r}: {error}") from error
        self._register(name, entry)

    def add_json(self, name: str, value: Any) -> None:
        """Embed one JSON-native value directly in the manifest."""
        if name in self._json:
            raise SnapshotError(f"duplicate manifest value {name!r}")
        self._json[name] = value

    def abort(self) -> None:
        """Discard the staging directory; the target is untouched."""
        if self._committed:
            return
        if self.staging.exists():
            shutil.rmtree(self.staging)
        _restore_retired(self.path)

    def commit(self) -> Path:
        """Durably publish the staged snapshot at ``path``.

        Ordering: manifest written last into staging, every staged file
        fsynced, staging directory fsynced, then one atomic rename into
        place, then the parent directory fsynced.  After the rename a
        loader sees either the complete new snapshot or whatever was
        there before — never a directory missing its manifest or holding
        a half-written column.
        """
        failpoint("store.commit_manifest")
        manifest = {
            "schema": SNAPSHOT_SCHEMA,
            "byteorder": sys.byteorder,
            "columns": {
                name: self._columns[name] for name in sorted(self._columns)
            },
            "json": {name: self._json[name] for name in sorted(self._json)},
        }
        (self.staging / MANIFEST_NAME).write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        for child in self.staging.iterdir():
            _fsync_file(child)
        fsync_dir(self.staging)
        if self.path.exists():
            # A directory rename cannot replace a non-empty directory,
            # so retire the old snapshot via a second atomic rename.
            # Open mmap readers of the old snapshot keep their pages:
            # the files are unlinked, not truncated.
            aside = self.path.parent / (self.path.name + ".old")
            if aside.exists():
                shutil.rmtree(aside)
            os.rename(self.path, aside)
            failpoint("store.commit_swap")
            os.rename(self.staging, self.path)
            shutil.rmtree(aside)
        else:
            os.rename(self.staging, self.path)
        fsync_dir(self.path.parent)
        self._committed = True
        return self.path


class Snapshot:
    """A loaded manifest with digest-verified column access.

    ``mode="copy"`` (the default) reads each column file into process
    memory and verifies its SHA-256 before decoding — one read per
    column, corruption fails the load.

    ``mode="mmap"`` maps each column file read-only and returns array
    columns as cast :class:`memoryview` objects sharing the mapped
    pages: opening is near-O(1) regardless of snapshot size and columns
    larger than RAM page in lazily.  Because an eager hash would fault
    in every page (defeating both properties), per-byte digest
    verification is deferred: call :meth:`verify_columns` to hash the
    mapped buffers in place (no copies) when you want the integrity
    check.  String columns are decoded (materialized) in either mode,
    so they keep eager verification — hashed over the mapped buffer.
    :meth:`close` releases the maps (outstanding views pin their pages
    until garbage collected); a foreign-endian column cannot be viewed
    in place and silently falls back to the copying decode.
    """

    def __init__(
        self, path: Path, manifest: dict, mode: str = "copy"
    ) -> None:
        if mode not in LOAD_MODES:
            raise SnapshotError(
                f"unknown snapshot load mode {mode!r}; expected one of "
                f"{LOAD_MODES}"
            )
        self.path = path
        self.manifest = manifest
        self.mode = mode
        #: name -> (mmap, memoryview) for columns mapped so far.
        self._maps: dict[str, tuple[mmap.mmap, memoryview]] = {}
        self._closed = False

    @classmethod
    def load(cls, path: str | Path, mode: str = "copy") -> "Snapshot":
        """Open a snapshot directory (schema-checked; columns verify on
        read in ``copy`` mode, on :meth:`verify_columns` in ``mmap``
        mode)."""
        root = Path(path)
        _restore_retired(root)
        manifest_path = root / MANIFEST_NAME
        if not manifest_path.is_file():
            raise SnapshotError(f"no {MANIFEST_NAME} in {root} (not a snapshot)")
        try:
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as error:
            raise SnapshotError(f"unreadable manifest in {root}: {error}")
        if not isinstance(manifest, dict):
            raise SnapshotError(f"manifest in {root} is not a JSON object")
        schema = manifest.get("schema")
        if schema != SNAPSHOT_SCHEMA:
            raise SnapshotError(
                f"snapshot schema {schema!r} is not supported; this build "
                f"reads {SNAPSHOT_SCHEMA!r}"
            )
        if manifest.get("byteorder") not in ("little", "big"):
            raise SnapshotError("manifest does not declare a byte order")
        for section in ("columns", "json"):
            if not isinstance(manifest.get(section), dict):
                raise SnapshotError(f"manifest {section!r} is not an object")
        for name, entry in manifest["columns"].items():
            if not isinstance(entry, dict) or not all(
                type(entry.get(key)) is kind for key, kind in _COLUMN_FIELDS
            ):
                raise SnapshotError(
                    f"manifest column {name!r} needs a str 'file', a str "
                    "'kind', an int 'count' and a str 'sha256'"
                )
        return cls(root, manifest, mode=mode)

    # ------------------------------------------------------------------
    # mmap lifetime
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release every mapped column.

        Column views handed out by :meth:`array` that are still
        referenced keep their pages alive until they are garbage
        collected (the map itself closes when the last view dies); no
        new columns can be mapped afterwards.
        """
        if self._closed:
            return
        self._closed = True
        maps, self._maps = self._maps, {}
        for mapped, view in maps.values():
            view.release()
            try:
                mapped.close()
            except BufferError:
                # an exported column view is still alive; the map frees
                # itself once the last view is collected
                pass

    def __enter__(self) -> "Snapshot":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __del__(self) -> None:
        try:
            self.close()
        except Exception:
            pass

    def _mapped_view(self, name: str, path: Path, entry: dict) -> memoryview:
        """A read-only map of the column file (cached per column)."""
        if self._closed:
            raise SnapshotError(f"snapshot {self.path} is closed")
        cached = self._maps.get(name)
        if cached is not None:
            return cached[1]
        size = path.stat().st_size
        with path.open("rb") as handle:
            if size == 0:
                # mmap rejects zero-length maps; an empty column has an
                # empty buffer either way.
                mapped = None
                view = memoryview(b"")
            else:
                mapped = mmap.mmap(
                    handle.fileno(), 0, access=mmap.ACCESS_READ
                )
                view = memoryview(mapped)
        if mapped is not None:
            self._maps[name] = (mapped, view)
        _telemetry_current().metrics.counter("snapshot.bytes_mapped").inc(
            len(view)
        )
        return view

    def verify_columns(self) -> int:
        """Hash every column against the manifest; returns bytes hashed.

        In ``mmap`` mode this is the deferred integrity check: each
        mapped buffer is hashed in place without copying.  In ``copy``
        mode it re-reads and re-checks every file.  Raises
        :class:`SnapshotError` naming the first corrupt column.
        """
        total = 0
        for name, entry in self.manifest["columns"].items():
            path, _ = self._entry(name, entry.get("kind"))
            total += len(self._verified(name, path, entry))
        return total

    # ------------------------------------------------------------------
    # Verified reads
    # ------------------------------------------------------------------
    def _entry(self, name: str, kind: str) -> tuple[Path, dict]:
        entry = self.manifest["columns"].get(name)
        if entry is None:
            raise SnapshotError(f"snapshot has no column {name!r}")
        if entry.get("kind") != kind:
            raise SnapshotError(
                f"column {name!r} is declared {entry.get('kind')!r}, "
                f"expected {kind!r}"
            )
        path = self.path / entry["file"]
        if not path.is_file():
            raise SnapshotError(f"column file {entry['file']!r} is missing")
        return path, entry

    def _verified(
        self, name: str, path: Path, entry: dict
    ) -> "bytes | memoryview":
        """The column's bytes — the map in ``mmap`` mode, else read once
        — checked against the manifest's SHA-256."""
        if self.mode == "mmap":
            raw: bytes | memoryview = self._mapped_view(name, path, entry)
        else:
            raw = path.read_bytes()
            _telemetry_current().metrics.counter("snapshot.bytes_read").inc(
                len(raw)
            )
        actual = bytes_sha256(raw)
        if actual != entry["sha256"]:
            raise SnapshotError(
                f"column {name!r} failed digest verification "
                f"({entry['file']}: expected {entry['sha256'][:12]}..., "
                f"found {actual[:12]}...)"
            )
        return raw

    def array(self, name: str, kind: str) -> "array | memoryview":
        """One array column, which the manifest must declare ``kind``
        (``i32``, ``i64`` or ``f64``): the per-column SHA-256 covers the
        bytes, not the declared kind, and an ``i64`` column read as
        ``f64`` (or the reverse) passes every byte-count check.

        ``copy`` mode returns a digest-verified :class:`array.array`.
        ``mmap`` mode returns a typed :class:`memoryview` over the
        mapped file (digest check deferred to :meth:`verify_columns`);
        a foreign-endian column falls back to a byteswapped copy.
        """
        path, entry = self._entry(name, kind)
        byteorder = self.manifest["byteorder"]
        try:
            if self.mode == "mmap":
                view = self._mapped_view(name, path, entry)
                return view_array_column(view, entry, byteorder, name)
            raw = self._verified(name, path, entry)
            return decode_array_column(raw, entry, byteorder, name)
        except ColumnError as error:
            raise SnapshotError(f"column {name!r}: {error}") from error

    def strings(self, name: str) -> list[str]:
        """One string column, digest-verified.

        Decoding materializes the rows in either mode; ``mmap`` mode
        hashes the mapped buffer in place (no extra copy) before
        decoding, so string columns keep eager verification.
        """
        path, entry = self._entry(name, "str")
        raw = bytes(self._verified(name, path, entry))
        try:
            return decode_string_column(raw, entry, name)
        except ColumnError as error:
            raise SnapshotError(f"column {name!r}: {error}") from error

    def json(self, name: str) -> Any:
        """One manifest-embedded JSON value."""
        values = self.manifest["json"]
        if name not in values:
            raise SnapshotError(f"snapshot manifest has no value {name!r}")
        return values[name]

    def __repr__(self) -> str:
        return (
            f"Snapshot({str(self.path)!r}, "
            f"{len(self.manifest['columns'])} columns)"
        )
