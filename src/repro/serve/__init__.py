"""Matching-as-a-service: the snapshot-backed resolution daemon.

The serving subsystem turns a saved ``repro-snapshot/1`` directory into
a long-running HTTP daemon: concurrent readers resolve entities against
an immutable published :class:`ServingState` (one atomic reference read
per request — swap-on-publish isolation), while the single writer feeds
deltas through :class:`repro.incremental.IncrementalMatcher` and
publishes each new generation atomically.

Start it from the CLI (``repro-er serve --snapshot DIR --port 8750``)
or programmatically::

    from repro.serve import ResolutionDaemon, build_server, run

    daemon = ResolutionDaemon.from_snapshot("snapshot-dir")
    server = build_server(daemon, port=8750)
    run(daemon, server)      # blocks; SIGTERM drains and saves

See ``docs/SERVING.md`` for the endpoint reference and the isolation
model.
"""

from .app import (
    MAX_SPAN_RECORDS,
    ResolutionDaemon,
    build_server,
    install_signal_handlers,
    run,
)
from .client import ServeClient, ServeClientError
from .http import ServeHTTPServer
from .json_codec import DeltaFormatError, DeltaOp, delta_to_payload, parse_delta
from .state import ServingState, StateBox
from .wal import WAL_NAME, WAL_SCHEMA, WalError, WriteAheadLog

__all__ = [
    "MAX_SPAN_RECORDS",
    "ResolutionDaemon",
    "ServeHTTPServer",
    "ServeClient",
    "ServeClientError",
    "ServingState",
    "StateBox",
    "DeltaFormatError",
    "DeltaOp",
    "WAL_NAME",
    "WAL_SCHEMA",
    "WalError",
    "WriteAheadLog",
    "build_server",
    "delta_to_payload",
    "install_signal_handlers",
    "parse_delta",
    "run",
]
