"""What the workloads share: the run record, generated inputs, HTTP helpers.

The program under test only ever receives inputs generated here from the
run's seed.
"""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import stats
from daemon import HOST
from loadgen import TRANSPORT_ERRORS, Client
from spans import SpanRecorder

from repro.datasets import generate_benchmark
from repro.pipeline import MatchSession
from repro.serve.json_codec import entity_to_dict

#: Pinned ``k`` of every resolve request.
K = 5
DIRTINESS = 0.3
#: Distinct query records per run.  The daemon's probe cache holds 1024
#: results (LRU), so cycling through four times that never hits it.
QUERY_POOL = 4096
#: Records per ``POST /resolve_batch`` call.
BATCH_SIZE = 64

#: workload -> (generator profile, scale).  The scales are the issue's;
#: the time budget is met by cutting iteration counts, never these.
DATASETS = {
    "batch_rexa": ("rexa_dblp", 0.7),
    "batch_yago": ("yago_imdb", 1.0),
    "serve_resolve": ("rexa_dblp", 0.5),
    "serve_delta": ("rexa_dblp", 0.2),
}
SMOKE_DATASET = ("restaurant", 1.0)
DEFAULT_SEED = 13
#: Generator seed of every workload's KB pair.  A run's ``--seed`` does
#: not re-roll the KB pair: its cost and memory differ by 10-20% between
#: generator seeds, which would drown the bounds.  The run's seed drives
#: what is sampled from the pair and sent against it instead — the
#: entities a batch run leaves out, the query stream, the delta order.
CORPUS_SEED = 13
#: What :func:`calibration_s` reads on the machine the seed baseline was
#: taken on.  A calibrated time is the time measured, scaled by this over
#: the loop's time just before the operation: what the operation would
#: have taken at the reference speed.
CALIBRATION_REF_S = 0.1

clock = time.perf_counter


def calibration_s() -> float:
    """A fixed pure-Python + NumPy loop, to normalise across machines.

    It also normalises across minutes: the sandbox is a few cores of a
    shared host whose speed drifts by 10-50% for minutes at a time, and
    the loop slows down with the program.  The median of three passes, so
    one descheduled pass does not read as a slow machine.
    """
    try:
        import numpy
    except ImportError:  # the program has a stdlib path; so has the loop
        numpy = None
    passes = []
    for _ in range(3):
        began = clock()
        total = 0
        for i in range(400_000):
            total += i * i % 7
        if numpy is not None:
            column = numpy.arange(1_000_000, dtype=numpy.float64)
            for _ in range(8):
                numpy.sort(column[::-1] * 1.0001).sum()
        passes.append(clock() - began)
    return stats.median(passes)


@dataclass
class Run:
    """One workload run: its arguments, and everything it measured."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    smoke: bool
    workdir: Path
    src: Path
    recorder: SpanRecorder
    metrics: dict[str, float] = field(default_factory=dict)
    #: metric name -> number of samples behind it.
    samples: dict[str, int] = field(default_factory=dict)
    #: The headline operation's samples as measured, for the run's record.
    raw: dict[str, list[float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def dataset(self) -> tuple[str, float]:
        return SMOKE_DATASET if self.smoke else DATASETS[self.workload]

    def corpus(self):
        """This workload's KB pair, generated afresh."""
        return generate_benchmark(*self.dataset(), CORPUS_SEED)

    def pick(self, full, smoke):
        return smoke if self.smoke else full

    def ops(self, attempted: int, failed: int, what: str) -> None:
        """Count operations (requests, iterations, checks) into fail_ratio."""
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.notes.append(f"FAILED {what}: {failed} of {attempted}")

    def check(self, ok: bool, what: str) -> None:
        self.ops(1, 0 if ok else 1, what)

    def median(self, name: str, seconds: list[float], scale: float = 1.0) -> float | None:
        """Store ``median(seconds) * scale`` under ``name`` with its count."""
        if not seconds:
            self.notes.append(f"{name} not reported: no samples")
            return None
        value = stats.median(seconds) * scale
        self.metrics[name] = value
        self.samples[name] = len(seconds)
        return value

    def tail_ms(self, name: str, seconds: list[float], fraction: float) -> float | None:
        """Store a tail percentile in ms — or nothing, if the sample is too small."""
        try:
            value = stats.percentile(seconds, fraction) * 1e3
        except stats.UnsupportedPercentile as error:
            self.notes.append(f"{name} not reported: {error}")
            return None
        self.metrics[name] = value
        self.samples[name] = len(seconds)
        return value

    def overhead_ratio(self, traced: list[float], plain: list[float]) -> None:
        """``obs.trace_overhead_ratio``: traced over untraced median of one operation."""
        if traced and plain:
            self.metrics["obs.trace_overhead_ratio"] = stats.median(
                traced
            ) / stats.median(plain)

    def headline(
        self,
        seconds: list[float],
        calibrations: list[float] | None = None,
        mean: bool = False,
    ) -> None:
        """``op_ms``: the typical time of the workload's headline operation.

        The median — or the mean, for operations that are one fixed,
        unlike set whose median is an order statistic between clusters.
        ``calibrations`` holds :func:`calibration_s` taken just before
        each operation; with it the statistic is over calibrated times.
        A processor-bound operation passes it, a timer-bound one must not.
        """
        self.raw["op_s"] = list(seconds)
        if calibrations is not None:
            self.raw["calibration_s"] = list(calibrations)
            seconds = [
                spent * CALIBRATION_REF_S / calibration
                for spent, calibration in zip(seconds, calibrations, strict=True)
            ]
        if mean and seconds:
            self.metrics["op_ms"] = statistics.fmean(seconds) * 1e3
            self.samples["op_ms"] = len(seconds)
        else:
            self.median("op_ms", seconds, 1e3)


# ----------------------------------------------------------------------
# Inputs and HTTP helpers of the daemon workloads
# ----------------------------------------------------------------------
def resolve_body(record) -> bytes:
    return json.dumps(
        {"record": entity_to_dict(record), "k": K}, separators=(",", ":")
    ).encode()


def resolve_batch_bodies(queries, first: int, calls: int) -> list[bytes]:
    """``calls`` bodies of :data:`BATCH_SIZE` disjoint records each."""
    return [
        json.dumps(
            {
                "records": [
                    entity_to_dict(
                        queries[(first + call * BATCH_SIZE + i) % len(queries)].record
                    )
                    for i in range(BATCH_SIZE)
                ],
                "k": K,
            },
            separators=(",", ":"),
        ).encode()
        for call in range(calls)
    ]


def expected_reply(session: MatchSession, record) -> bytes:
    """What ``POST /resolve`` must answer on generation 1 of this snapshot."""
    payload = session.resolve(record, K).as_dict()
    payload["generation"] = 1
    payload["k"] = K
    return json.dumps(payload, separators=(",", ":")).encode()


def never_seen(reply: bytes) -> bool:
    return b'"known":false' in reply


def post_json(client: Client, path: str, payload: dict) -> tuple[float, int, dict]:
    """One timed POST; ``(seconds, status, decoded reply)``."""
    began = clock()
    try:
        status, data = client.request(
            "POST", path, body=json.dumps(payload).encode()
        )
    except TRANSPORT_ERRORS:
        client.close()
        return clock() - began, 0, {}
    elapsed = clock() - began
    return elapsed, status, json.loads(data) if status == 200 else {}


def get_json(port: int, path: str) -> dict:
    client = Client(HOST, port)
    try:
        status, data = client.request("GET", path)
        return json.loads(data) if status == 200 else {}
    finally:
        client.close()


def scrape_metrics(port: int) -> dict[str, float]:
    """``GET /metrics`` as a name -> value map."""
    client = Client(HOST, port)
    try:
        _, data = client.request("GET", "/metrics")
    finally:
        client.close()
    values = {}
    for line in data.decode().splitlines():
        if line and not line.startswith("#"):
            name, _, value = line.rpartition(" ")
            values[name] = float(value)
    return values
