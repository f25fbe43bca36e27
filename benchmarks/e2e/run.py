"""The end-to-end benchmark's one command.

``python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload in this process and prints, as its last line, the
result object the benchmark contract asks for (see ``BENCHMARK.json``).
Without ``--workload`` every workload runs in a child process of its own
and the collected records go to ``benchmarks/results/BENCH_e2e.json``;
``--repeat N`` alternates N full sets and reports quartiles.

The process exits non-zero, printing no result, when the program under
``src/`` cannot be imported, and non-zero when a correctness check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
# The program under test is the source tree of this checkout.
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
import metrics as table  # noqa: E402
import stats  # noqa: E402
from batch import batch  # noqa: E402
from common import DEFAULT_SEED, Run, calibration_s  # noqa: E402
from serve_delta import serve_delta  # noqa: E402
from serve_resolve import serve_resolve  # noqa: E402
from spans import SpanRecorder  # noqa: E402

RUNNERS = {
    "batch_rexa": batch,
    "batch_yago": batch,
    "serve_resolve": serve_resolve,
    "serve_delta": serve_delta,
}
#: Prefix of a run's scratch directory (snapshots, WAL, daemon logs):
#: inside the checkout — the benchmark writes nowhere else — git-ignored,
#: and removed when the run ends.
SCRATCH_PREFIX = ".work-"
RESULTS = ROOT / "benchmarks" / "results"
SCHEMA = "repro-e2e/1"
UNITS = {
    metric.name: metric.unit
    for metric in table.END_TO_END + table.WORKLOAD_E2E + table.PER_LAYER
}


def environment(seed: int) -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    nproc = os.cpu_count() or 1
    load = os.getloadavg()[0]
    if load > nproc:
        print(
            f"warning: 1-min load average {load:.2f} exceeds nproc {nproc}; "
            "timings will be noisy",
            file=sys.stderr,
        )
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": nproc,
        "loadavg_1m": load,
        "seed": seed,
        "calibration_s": calibration_s(),
    }


# ----------------------------------------------------------------------
# One workload, in this process
# ----------------------------------------------------------------------
def stop_child_processes() -> None:
    """Stop every process this run started and wait until each has ended.

    The daemon and the process engine's pool are stopped where they are
    used.  What is left is the stdlib resource tracker the process engine
    starts before it forks: it ends only when this interpreter closes its
    pipe at exit, i.e. *after* the benchmark, so it is stopped and waited
    for here, after any other child still alive is killed and reaped.
    """
    module = sys.modules.get("multiprocessing.resource_tracker")
    tracker = getattr(module, "_resource_tracker", None)
    tracker_pid = getattr(tracker, "_pid", None)
    # Forked pool workers hold the tracker's pipe open: they go first.
    for pid in child_pids():
        if pid != tracker_pid:
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass
    if tracker is not None and tracker._fd is not None:
        os.close(tracker._fd)  # closing the "alive" pipe ends its main loop
        tracker._fd = tracker._pid = None
        if tracker_pid is not None:
            os.waitpid(tracker_pid, 0)


def child_pids() -> list[int]:
    """Direct children of this process that have not been reaped."""
    me = str(os.getpid())
    pids = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            # "pid (comm) state ppid ..."; comm may hold spaces and brackets.
            ppid = (entry / "stat").read_text().rpartition(")")[2].split()[1]
        except OSError:
            continue
        if ppid == me:
            pids.append(int(entry.name))
    return pids


def run_workload(args: argparse.Namespace) -> int:
    env = environment(args.seed)
    workdir = Path(
        tempfile.mkdtemp(prefix=f"{SCRATCH_PREFIX}{args.workload}-", dir=HERE)
    )
    recorder = SpanRecorder(enabled=bool(args.trace))
    run = Run(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        smoke=args.smoke,
        workdir=workdir,
        src=ROOT / "src",
        recorder=recorder,
    )
    try:
        with recorder.span(args.workload):
            RUNNERS[args.workload](run)
    finally:
        stop_child_processes()
        shutil.rmtree(workdir, ignore_errors=True)
    run.metrics["fail_ratio"] = run.failed / max(run.attempted, 1)
    wanted = table.PER_LAYER if run.trace else table.END_TO_END
    # A traced run reports 0 for a layer the workload never enters; an
    # untraced run that lacks an end-to-end metric did not measure.
    missing = (
        [] if run.trace else [m.name for m in wanted if m.name not in run.metrics]
    )
    record = {
        "schema": SCHEMA,
        "workload": run.workload,
        "seed": run.seed,
        "seconds": run.seconds,
        "trace": int(run.trace),
        "smoke": run.smoke,
        "env": env,
        "metrics": {
            name: {"value": value, "unit": UNITS.get(name, "")}
            for name, value in run.metrics.items()
        },
        "samples": run.samples,
        "raw": run.raw,
        "attempted": run.attempted,
        "failed": run.failed,
        "notes": run.notes,
        "correct": run.failed == 0 and not missing,
    }
    print_record(record)
    for name in missing:
        print(f"MISSING end-to-end metric {name}")
    if run.trace:
        recorder.dump(RESULTS / f"BENCH_trace_{run.workload}.json")
        self_s = recorder.self_seconds_by_name()
        print("self time by span (s):")
        for name in sorted(self_s, key=self_s.get, reverse=True)[:12]:
            print(f"  {name:<34} {self_s[name]:12.6f}")
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1), encoding="utf-8")
    # The contract's result object: every end-to-end metric (untraced) or
    # every per-layer metric (traced; 0 for a layer this workload never
    # enters), values as measured.
    print(
        json.dumps(
            {
                "correct": record["correct"],
                "attempted": max(run.attempted, 1),
                "failed": run.failed,
                "metrics": {
                    m.name: {
                        "value": float(run.metrics.get(m.name, 0.0)),
                        "unit": m.unit,
                    }
                    for m in wanted
                },
            }
        )
    )
    return 0 if record["correct"] else 1


def print_record(record: dict) -> None:
    mode = "traced" if record["trace"] else "untraced"
    print(
        f"== {record['workload']} ({mode}, seed {record['seed']}, "
        f"{record['seconds']:g} s, calibration "
        f"{record['env']['calibration_s']:.3f} s)"
    )
    for name, entry in record["metrics"].items():
        count = record["samples"].get(name)
        samples = f"  n={count}" if count is not None else ""
        print(f"  {name:<34} {entry['value']:14.6g} {entry['unit']}{samples}")
    for note in record["notes"]:
        print(f"  note: {note}")
    print(
        f"  attempted {record['attempted']}, failed {record['failed']}, "
        f"correct {record['correct']}"
    )


# ----------------------------------------------------------------------
# Every workload, each in its own child process
# ----------------------------------------------------------------------
def run_all(args: argparse.Namespace) -> int:
    sets: list[dict] = []
    status = 0
    for _ in range(args.repeat):
        records: dict[str, dict] = {}
        for workload in table.WORKLOADS:
            for trace in (0, 1) if args.trace else (0,):
                record, code = run_child(args, workload, trace)
                status = status or code
                if record is not None:
                    records.setdefault(workload, {})[
                        "traced" if trace else "untraced"
                    ] = record
        sets.append(records)
    out = Path(args.out) if args.out else RESULTS / "BENCH_e2e.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(
        json.dumps(
            {
                "schema": SCHEMA,
                "claim": None,
                "seed": args.seed,
                "seconds": args.seconds,
                "smoke": args.smoke,
                "sets": sets,
            },
            indent=1,
        ),
        encoding="utf-8",
    )
    print(f"wrote {out}")
    if args.repeat > 1:
        print_repeatability(sets)
    return status


def run_child(args, workload: str, trace: int) -> tuple[dict | None, int]:
    handle, name = tempfile.mkstemp(
        prefix=f"{SCRATCH_PREFIX}record-", suffix=".json", dir=HERE
    )
    os.close(handle)
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(trace),
        "--out", name,
    ]  # fmt: skip
    if args.smoke:
        command.append("--smoke")
    try:
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        # Everything but the machine-readable last line.
        print("\n".join(child.stdout.splitlines()[:-1]))
        text = Path(name).read_text(encoding="utf-8")
        return (json.loads(text) if text else None), child.returncode
    finally:
        os.unlink(name)


def print_repeatability(sets: list[dict]) -> None:
    """Quartiles of every end-to-end metric over the sets run."""
    print(f"{'workload':<14} {'metric':<26} {'q1':>11} {'median':>11} {'q3':>11} {'spread':>8} {'bound':>6}")
    for workload in table.WORKLOADS:
        for metric in table.END_TO_END + table.WORKLOAD_E2E:
            values = compare.values({"sets": sets}, workload, metric.name)
            if len(values) < 2:
                continue
            q1, q2, q3 = stats.quartiles(values)
            print(
                f"{workload:<14} {metric.name:<26} {q1:11.5g} {q2:11.5g} "
                f"{q3:11.5g} {stats.spread(values):8.3f} {metric.bound:6.2f}"
            )


def default_seconds() -> float:
    return float(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(RUNNERS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="measuring time of one run (default: BENCHMARK.json run_seconds)",
    )  # fmt: skip
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0,
        help="run the traced pass (per-layer metrics and a span file)",
    )  # fmt: skip
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny inputs and counts: checks the harness, measures nothing",
    )  # fmt: skip
    parser.add_argument("--repeat", type=int, default=1, metavar="N")
    parser.add_argument("--out", metavar="FILE")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 0.5 if args.smoke else default_seconds()
    if args.workload:
        return run_workload(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
