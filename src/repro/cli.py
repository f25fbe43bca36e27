"""Command-line interface for the MinoanER reproduction.

Subcommands::

    repro-er generate <profile> <directory> [--scale S] [--seed N]
        Generate a benchmark-like dataset bundle (N-Triples + CSVs).

    repro-er match <kb1.nt> <kb2.nt> [--output links.nt] [--theta T] ...
        Match two N-Triples KBs with MinoanER and write owl:sameAs links.
        --save-session DIR snapshots the bootstrapped session;
        --load-session DIR warm-starts from such a snapshot (composes
        with --apply-delta for incremental updates).

    repro-er evaluate <links.nt|csv> <ground_truth.csv>
        Score predicted links against a ground-truth CSV.

    repro-er stats <kb.nt>
        Print Table I-style statistics of one KB.

Also runnable as ``python -m repro.cli ...``.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import sys
from pathlib import Path

from .core.config import MinoanERConfig
from .core.pipeline import MinoanER
from .engine.executor import EXECUTOR_NAMES
from .pipeline import BLOCKING_SCHEMES, HEURISTICS, render_stage_list
from .datasets.io import read_ground_truth_csv, save_dataset
from .datasets.profiles import PROFILE_ORDER, generate_benchmark
from .evaluation.metrics import evaluate_matching
from .evaluation.report import render_records
from .kb.io_ntriples import read_ntriples
from .kb.stats import kb_statistics
from .kb.tokenizer import Tokenizer

SAME_AS = "http://www.w3.org/2002/07/owl#sameAs"

log = logging.getLogger("repro.cli")


class _StdoutLogHandler(logging.StreamHandler):
    """A stream handler that resolves ``sys.stdout`` at emit time.

    Progress lines share stdout with the report output, and resolving
    the stream lazily keeps the logger correct when stdout is replaced
    after configuration (tty redirection, test capture).
    """

    def __init__(self) -> None:
        super().__init__(stream=sys.stdout)

    @property
    def stream(self):
        return sys.stdout

    @stream.setter
    def stream(self, value) -> None:  # StreamHandler.__init__ assigns it
        pass


def configure_logging(verbose: bool = False, quiet: bool = False) -> None:
    """Configure the ``repro`` logger for CLI use (idempotent).

    Progress messages go to stdout at INFO; ``--verbose`` lowers the
    threshold to DEBUG and ``--quiet`` raises it to WARNING.  Report
    output (match pairs, evaluation scores) is printed directly and is
    not affected.
    """
    logger = logging.getLogger("repro")
    if not any(
        isinstance(handler, _StdoutLogHandler)
        for handler in logger.handlers
    ):
        handler = _StdoutLogHandler()
        handler.setFormatter(logging.Formatter("%(message)s"))
        logger.addHandler(handler)
    logger.propagate = False
    if quiet:
        logger.setLevel(logging.WARNING)
    elif verbose:
        logger.setLevel(logging.DEBUG)
    else:
        logger.setLevel(logging.INFO)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-er",
        description="Schema-agnostic, non-iterative entity resolution "
        "(MinoanER reproduction)",
    )
    verbosity = parser.add_mutually_exclusive_group()
    verbosity.add_argument(
        "--verbose",
        action="store_true",
        help="show debug-level progress messages",
    )
    verbosity.add_argument(
        "--quiet",
        action="store_true",
        help="suppress progress messages (report output still prints)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser(
        "generate", help="generate a benchmark-like dataset bundle"
    )
    generate.add_argument("profile", choices=PROFILE_ORDER)
    generate.add_argument("directory")
    generate.add_argument("--scale", type=float, default=0.25)
    generate.add_argument("--seed", type=int, default=None)

    match = commands.add_parser("match", help="match two N-Triples KBs")
    match.add_argument("kb1", nargs="?", default=None)
    match.add_argument("kb2", nargs="?", default=None)
    match.add_argument("--output", default=None, help="links file (N-Triples)")
    match.add_argument(
        "--list-stages",
        action="store_true",
        help="print the pipeline stage graph and registered plugins, then exit",
    )
    match.add_argument(
        "--disable-stage",
        action="append",
        default=None,
        metavar="STAGE",
        help="disable a pipeline stage by name (repeatable); "
        f"disableable: {', '.join(sorted(DISABLABLE_STAGES))}",
    )
    match.add_argument(
        "--apply-delta",
        action="append",
        default=None,
        metavar="OP:KB:FILE",
        help="after the initial match, apply an entity delta incrementally "
        "and report the final matches: 'add:kb1:more.nt' (N-Triples of new "
        "entities) or 'remove:kb2:uris.txt' (one URI per line); repeatable, "
        "applied in order",
    )
    match.add_argument(
        "--save-session",
        default=None,
        metavar="DIR",
        help="after matching, snapshot the bootstrapped session (KBs, "
        "blocking placements, packed indices, decisions) to DIR for later "
        "warm starts",
    )
    match.add_argument(
        "--load-session",
        default=None,
        metavar="DIR",
        help="warm-start from a snapshot directory instead of KB files: "
        "the matching configuration comes from the snapshot (only "
        "--engine/--workers apply); composes with --apply-delta for "
        "incremental updates without re-bootstrapping",
    )
    match.add_argument(
        "--mmap",
        action="store_true",
        help="with --load-session, map the snapshot's columns into "
        "memory instead of copying them (near-instant warm start; "
        "column digests are verified lazily as pages are touched)",
    )
    match.add_argument("--theta", type=float, default=0.6)
    match.add_argument("--top-k", type=int, default=15)
    match.add_argument("--top-n-relations", type=int, default=3)
    match.add_argument("--name-attributes", type=int, default=2)
    match.add_argument(
        "--engine",
        choices=EXECUTOR_NAMES,
        default="serial",
        help="execution engine for the pipeline stages",
    )
    match.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker count for parallel engines (default: one per usable CPU)",
    )
    match.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="record a hierarchical span trace of the run and write it "
        "as Chrome trace-event JSON (load it in Perfetto or "
        "chrome://tracing)",
    )
    match.add_argument(
        "--metrics",
        action="store_true",
        help="collect pipeline counters (blocks built, pairs scored, "
        "bytes shipped, ...) and print a summary table after the run",
    )

    evaluate = commands.add_parser(
        "evaluate", help="score predicted links against a ground truth"
    )
    evaluate.add_argument("predictions", help="links.nt or two-column CSV")
    evaluate.add_argument("ground_truth", help="two-column CSV")

    stats = commands.add_parser("stats", help="statistics of one KB")
    stats.add_argument("kb")

    serve = commands.add_parser(
        "serve",
        help="run the snapshot-backed resolution daemon",
        description="Serve matching over HTTP from a repro-snapshot/1 "
        "directory: read endpoints (/match, /candidates, /best, /stats, "
        "/healthz, /metrics) resolve against an immutable published "
        "state; POST /delta applies incremental updates; POST /snapshot "
        "and /reload manage persistence.  See docs/SERVING.md.",
    )
    serve.add_argument(
        "--snapshot",
        required=True,
        metavar="DIR",
        help="repro-snapshot/1 directory to load at startup",
    )
    serve.add_argument(
        "--mmap",
        action="store_true",
        help="map the snapshot's columns into memory instead of copying "
        "them (near-instant boot; /reload reuses the same mode)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8750)
    serve.add_argument(
        "--engine",
        choices=EXECUTOR_NAMES,
        default=None,
        help="override the snapshot's execution engine",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker count for parallel engines",
    )
    serve.add_argument(
        "--auto-snapshot-every",
        type=int,
        default=0,
        metavar="N",
        help="snapshot automatically after every N applied delta "
        "requests, and on graceful shutdown (0 = manual POST /snapshot "
        "only)",
    )
    serve.add_argument(
        "--snapshot-dir",
        default=None,
        metavar="DIR",
        help="directory new snapshots are written under (default: the "
        "loaded snapshot's parent directory)",
    )
    serve.add_argument(
        "--wal-dir",
        default=None,
        metavar="DIR",
        help="enable the write-ahead delta log in DIR: every POST /delta "
        "is durably logged before it is applied, and unsnapshotted "
        "batches found there replay on boot (see docs/PERSISTENCE.md)",
    )

    resolve = commands.add_parser(
        "resolve",
        help="online-resolve raw records against a saved session",
        description="Resolve never-seen records without a daemon: load a "
        "repro-snapshot/1 session, tokenize each record, probe the packed "
        "token blocks and run the online H1-H4 ladder.  Records whose URI "
        "already exists in KB1 answer from the precomputed probe path.  "
        "One JSON object per record is printed, in input order.",
    )
    resolve.add_argument(
        "--session",
        required=True,
        metavar="DIR",
        help="repro-snapshot/1 directory to resolve against",
    )
    resolve.add_argument(
        "--records",
        required=True,
        metavar="FILE",
        help="records to resolve: a JSON array of record objects, or JSON "
        "Lines with one record per line; each record uses the delta wire "
        'format {"uri": ..., "pairs": [["attr", {"lit": ...}], ...]} '
        "('-' reads stdin)",
    )
    resolve.add_argument(
        "--k", type=int, default=None, help="candidate-list bound"
    )
    resolve.add_argument(
        "--mmap",
        action="store_true",
        help="map the snapshot's columns instead of copying them",
    )
    return parser


# ----------------------------------------------------------------------
# Subcommand implementations (each returns a process exit code)
# ----------------------------------------------------------------------
def cmd_generate(args: argparse.Namespace) -> int:
    dataset = generate_benchmark(args.profile, scale=args.scale, seed=args.seed)
    bundle = save_dataset(dataset, args.directory)
    print(
        f"wrote {bundle}: |E1|={len(dataset.kb1)} |E2|={len(dataset.kb2)} "
        f"matches={len(dataset.ground_truth)}"
    )
    return 0


#: Stage/heuristic names ``--disable-stage`` accepts, with the config or
#: graph change each maps to.  Disabling anything else would leave a
#: downstream stage without its required artifacts.
DISABLABLE_STAGES = ("h1", "h2", "h3", "h4", "purging", "name_blocking")


class _UsageError(Exception):
    """A CLI usage problem (reported on stderr, exit code 2)."""


def _apply_disabled(builder, disabled: list[str]) -> None:
    """Translate ``--disable-stage`` names into config and graph edits.

    Heuristic names leave the config's ``heuristics``; ``name_blocking``
    removes H1, which needs the name blocks; ``purging`` is a
    token-blocking config toggle.  When H1 ends up disabled by either
    route, the ``name_blocking`` stage is dropped too — nothing would
    consume its output.
    """
    heuristics = list(builder.config.heuristics)
    for name in disabled:
        if name == "purging":
            builder.with_config(purge_token_blocks=False)
        elif name in DISABLABLE_STAGES:
            target = "h1" if name == "name_blocking" else name
            if target in heuristics:
                heuristics.remove(target)
        else:
            raise _UsageError(
                f"error: cannot disable stage {name!r}; "
                f"disableable: {', '.join(DISABLABLE_STAGES)}"
            )
    if not heuristics:
        raise _UsageError("error: cannot disable every heuristic")
    builder.with_config(heuristics=tuple(heuristics))
    if "h1" not in heuristics:
        builder.with_blocking("token")


def _print_stage_list(builder) -> None:
    print(render_stage_list(builder.build_graph()))
    print()
    print(f"registered blocking schemes: {', '.join(BLOCKING_SCHEMES.names())}")
    print(f"registered heuristics: {', '.join(HEURISTICS.names())}")


def _parse_delta_spec(spec: str) -> tuple[str, str, str]:
    """Split one ``--apply-delta`` value into (op, kb, path)."""
    parts = spec.split(":", 2)
    if len(parts) != 3 or parts[0] not in ("add", "remove") or parts[1] not in (
        "kb1",
        "kb2",
    ):
        raise _UsageError(
            f"error: bad delta spec {spec!r}; expected "
            "'add:<kb1|kb2>:<file.nt>' or 'remove:<kb1|kb2>:<file>'"
        )
    return parts[0], parts[1], parts[2]


def _parse_delta_specs(specs: list[str]) -> list[tuple[str, str, str]]:
    """Parse and validate every ``--apply-delta`` value up front.

    Fails before the (possibly expensive) initial match or snapshot
    load, not after.
    """
    parsed = [_parse_delta_spec(spec) for spec in specs]
    for _, _, path in parsed:
        if not Path(path).is_file():
            raise _UsageError(f"error: delta file not found: {path}")
    return parsed


def _run_deltas(matcher, parsed: list[tuple[str, str, str]], engine: str):
    """Match incrementally: initial run, then each delta, then the final.

    Returns the final :class:`~repro.core.pipeline.MatchResult`.
    """
    initial = matcher.match()
    log.info(
        "initial match: %d pairs in %.2fs [%s]",
        len(initial.matches),
        initial.seconds,
        engine,
    )
    baseline = dict(matcher.stage_recomputes)
    for op, kb_id, path in parsed:
        try:
            if op == "add":
                added = read_ntriples(path, name=Path(path).stem)
                count = matcher.add_entities(kb_id, list(added))
            else:
                with open(path, encoding="utf-8") as handle:
                    uris = [line.strip() for line in handle if line.strip()]
                count = matcher.remove_entities(kb_id, uris)
        except (KeyError, ValueError, OSError) as error:
            # Bad content in a user-supplied delta file (unknown or
            # duplicate URIs, unparsable triples) is a usage error; bugs
            # elsewhere in the run keep their tracebacks.
            raise _UsageError(f"error: delta {op}:{kb_id}:{path}: {error}")
        log.info("delta: %s %d entities on %s (%s)", op, count, kb_id, path)
    final = matcher.match()
    recomputed = {
        stage: count - baseline.get(stage, 0)
        for stage, count in matcher.stage_recomputes.items()
        if count > baseline.get(stage, 0)
    }
    log.info(
        "incremental match: %d pairs in %.2fs "
        "(rebuilt through the batch kernels: %s, delta-updated from "
        "maintained placements: %s)",
        len(final.matches),
        final.seconds,
        recomputed,
        matcher.counters()["delta_updated"],
    )
    return final


def _matched_result(args: argparse.Namespace, builder):
    """Produce the final MatchResult for ``match`` (cold or warm start),
    honouring --apply-delta and --save-session/--load-session."""
    from .incremental import IncrementalMatcher
    from .pipeline import MatchSession
    from .store import SnapshotError

    parsed = _parse_delta_specs(args.apply_delta) if args.apply_delta else None
    mode = "mmap" if args.mmap else "copy"
    if args.load_session:
        if args.kb1 is not None or args.kb2 is not None:
            raise _UsageError(
                "error: --load-session replaces the KB file arguments"
            )
        try:
            if parsed is not None:
                matcher = IncrementalMatcher.from_snapshot(
                    args.load_session,
                    engine=args.engine,
                    workers=args.workers,
                    mode=mode,
                )
                log.info("warm start from %s", args.load_session)
                result = _run_deltas(matcher, parsed, args.engine)
                saver = matcher.save
            else:
                session = MatchSession.load(
                    args.load_session,
                    engine=args.engine,
                    workers=args.workers,
                    mode=mode,
                )
                log.info("warm start from %s", args.load_session)
                result = session.match()
                saver = session.save
        except SnapshotError as error:
            raise _UsageError(f"error: cannot load session: {error}")
    else:
        if args.kb1 is None or args.kb2 is None:
            raise _UsageError(
                "error: match needs two KB files "
                "(or --list-stages / --load-session)"
            )
        kb1 = read_ntriples(args.kb1, name=Path(args.kb1).stem)
        kb2 = read_ntriples(args.kb2, name=Path(args.kb2).stem)
        if parsed is not None:
            matcher = IncrementalMatcher(builder.session(kb1, kb2))
            result = _run_deltas(matcher, parsed, args.engine)
            saver = matcher.save
        else:
            session = builder.session(kb1, kb2)
            result = session.match()
            saver = session.save
    if args.save_session:
        try:
            target = saver(args.save_session)
        except SnapshotError as error:
            raise _UsageError(f"error: cannot save session: {error}")
        log.info("saved session snapshot to %s", target)
    return result


def cmd_match(args: argparse.Namespace) -> int:
    if args.engine == "serial" and args.workers is not None:
        print(
            "error: --workers has no effect with --engine serial; "
            "pass --engine thread or --engine process",
            file=sys.stderr,
        )
        return 2
    config = MinoanERConfig(
        theta=args.theta,
        top_k_candidates=args.top_k,
        top_n_relations=args.top_n_relations,
        name_attributes=args.name_attributes,
        engine=args.engine,
        workers=args.workers,
    )
    builder = MinoanER.builder(config)
    try:
        _apply_disabled(builder, args.disable_stage or [])
    except _UsageError as error:
        print(error, file=sys.stderr)
        return 2
    if args.list_stages:
        _print_stage_list(builder)
        return 0
    from .obs import Telemetry, activate

    telemetry = (
        Telemetry.create() if (args.trace or args.metrics) else None
    )
    try:
        with activate(telemetry):
            result = _matched_result(args, builder)
    except _UsageError as error:
        print(error, file=sys.stderr)
        return 2
    print(
        f"matched {len(result.matches)} pairs in {result.seconds:.2f}s "
        f"[{args.engine}] ({result.by_heuristic()})"
    )
    print(f"stages: {result.timing_summary()}")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            for uri1, uri2 in sorted(result.pairs()):
                handle.write(f"<{uri1}> <{SAME_AS}> <{uri2}> .\n")
        log.info("wrote %s", args.output)
    else:
        for uri1, uri2 in sorted(result.pairs()):
            print(f"{uri1}\t{uri2}")
    if telemetry is not None:
        from .obs import summary_table, write_chrome_trace

        if args.trace:
            target = write_chrome_trace(args.trace, telemetry)
            log.info("wrote trace to %s", target)
        if args.metrics:
            print(summary_table(telemetry))
    return 0


def _read_predictions(path: str) -> set[tuple[str, str]]:
    if path.endswith(".csv"):
        with open(path, encoding="utf-8", newline="") as handle:
            return {
                (row[0], row[1])
                for row in csv.reader(handle)
                if len(row) >= 2 and row[0] != "uri1"
            }
    kb = read_ntriples(path)
    pairs = set()
    for entity in kb:
        for predicate, target in entity.relation_pairs():
            if predicate == SAME_AS:
                pairs.add((entity.uri, target))
    return pairs


def cmd_evaluate(args: argparse.Namespace) -> int:
    predictions = _read_predictions(args.predictions)
    truth = read_ground_truth_csv(args.ground_truth)
    quality = evaluate_matching(predictions, truth)
    print(
        f"precision {100 * quality.precision:.2f}  "
        f"recall {100 * quality.recall:.2f}  "
        f"f1 {100 * quality.f1:.2f}  "
        f"({quality.true_positives}/{quality.emitted} correct, "
        f"{quality.n_matches} in ground truth)"
    )
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    kb = read_ntriples(args.kb, name=Path(args.kb).stem)
    stats = kb_statistics(kb, Tokenizer())
    print(render_records([stats.as_row()]))
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    if args.engine == "serial" and args.workers is not None:
        print(
            "error: --workers has no effect with --engine serial; "
            "pass --engine thread or --engine process",
            file=sys.stderr,
        )
        return 2
    from .serve import (
        ResolutionDaemon,
        build_server,
        install_signal_handlers,
        run,
    )
    from .serve.wal import WalError
    from .store import SnapshotError

    try:
        daemon = ResolutionDaemon.from_snapshot(
            args.snapshot,
            engine=args.engine,
            workers=args.workers,
            snapshot_dir=args.snapshot_dir,
            auto_snapshot_every=args.auto_snapshot_every,
            mode="mmap" if args.mmap else "copy",
            wal_dir=args.wal_dir,
        )
    except WalError as error:
        print(f"error: cannot replay WAL: {error}", file=sys.stderr)
        return 2
    except SnapshotError as error:
        print(f"error: cannot load snapshot: {error}", file=sys.stderr)
        return 2
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    server = build_server(daemon, host=args.host, port=args.port)
    install_signal_handlers(server)
    host, port = server.server_address[:2]
    state = daemon.state()
    log.info(
        "loaded %s: %d + %d entities, %d matches (generation %d)",
        args.snapshot,
        len(state.uris1),
        len(state.uris2),
        len(state.matches),
        state.generation,
    )
    print(f"serving on http://{host}:{port} (SIGTERM drains and saves)")
    run(daemon, server)
    return 0


def _read_records_file(path: str) -> list:
    """Parse ``--records``: a JSON array, or JSON Lines (one per line)."""
    from .kb.io_json import EntityFormatError, entity_from_dict

    if path == "-":
        raw = sys.stdin.read()
    else:
        if not Path(path).is_file():
            raise _UsageError(f"error: records file not found: {path}")
        raw = Path(path).read_text(encoding="utf-8")
    text = raw.strip()
    if not text:
        raise _UsageError(f"error: records file is empty: {path}")
    try:
        if text.startswith("["):
            entries = json.loads(text)
        else:
            entries = [
                json.loads(line)
                for line in text.splitlines()
                if line.strip()
            ]
    except json.JSONDecodeError as error:
        raise _UsageError(f"error: bad JSON in {path}: {error}")
    try:
        return [entity_from_dict(entry) for entry in entries]
    except EntityFormatError as error:
        raise _UsageError(f"error: bad record in {path}: {error}")


def cmd_resolve(args: argparse.Namespace) -> int:
    from .pipeline import MatchSession
    from .store import SnapshotError

    if args.k is not None and args.k < 1:
        print("error: --k must be >= 1", file=sys.stderr)
        return 2
    try:
        records = _read_records_file(args.records)
    except _UsageError as error:
        print(error, file=sys.stderr)
        return 2
    try:
        session = MatchSession.load(
            args.session, mode="mmap" if args.mmap else "copy"
        )
    except SnapshotError as error:
        print(f"error: cannot load session: {error}", file=sys.stderr)
        return 2
    results = session.resolve_batch(records, args.k)
    matched = 0
    for result in results:
        if result.match is not None:
            matched += 1
        print(json.dumps(result.as_dict()))
    # The summary goes to stderr: stdout is a JSONL stream piped into
    # other tools (the repro logger writes progress to stdout, which
    # would corrupt it).
    print(
        f"resolved {len(results)} record(s): {matched} matched, "
        f"{sum(1 for result in results if result.known)} known",
        file=sys.stderr,
    )
    return 0


COMMANDS = {
    "generate": cmd_generate,
    "match": cmd_match,
    "evaluate": cmd_evaluate,
    "stats": cmd_stats,
    "serve": cmd_serve,
    "resolve": cmd_resolve,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    configure_logging(verbose=args.verbose, quiet=args.quiet)
    return COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
