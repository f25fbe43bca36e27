"""Tests of the end-to-end harness itself (collected by the tier-1 run).

They cover what a wrong harness would silently get wrong: the percentile
rule, open-loop accounting from the due time, span self time, the
agreement between ``BENCHMARK.json`` and the metric table, and — as a
smoke pass at tiny scale — that every workload still runs, checks its
outputs and prints the result object the contract asks for.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import metrics as table  # noqa: E402
import stats  # noqa: E402
from loadgen import OpenLoopResult, _Schedule, open_loop_worker  # noqa: E402
from spans import SpanRecorder  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# ----------------------------------------------------------------------
# The percentile rule
# ----------------------------------------------------------------------
def test_percentile_needs_ten_samples_beyond_it():
    values = [float(i) for i in range(1, 201)]
    assert stats.percentile(values, 0.95) == 190.0  # exactly 10 beyond
    with pytest.raises(stats.UnsupportedPercentile):
        stats.percentile(values[:199], 0.95)
    with pytest.raises(stats.UnsupportedPercentile):
        stats.percentile(values, 0.99)


def test_each_tail_has_its_own_sample_floor():
    assert stats.percentile(list(range(100)), 0.90) == 89
    assert stats.percentile(list(range(1000)), 0.99) == 989
    with pytest.raises(stats.UnsupportedPercentile):
        stats.percentile(list(range(99)), 0.90)
    assert stats.median([3.0, 1.0, 2.0, 4.0]) == 2.5


def test_spread_is_interquartile_distance_over_median():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    q1, q2, q3 = stats.quartiles(values)
    assert stats.spread(values) == pytest.approx((q3 - q1) / q2)


# ----------------------------------------------------------------------
# Open loop: latency from the due time, lateness, abandonment
# ----------------------------------------------------------------------
class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds


def drive(rate, count, service_s, step_s, grace):
    """One connection serving a schedule on a fake clock."""
    clock = FakeClock()
    result = OpenLoopResult(rate=rate)

    def send(index: int) -> bool:
        clock.sleep(service_s)
        return True

    open_loop_worker(
        _Schedule(count), send, result,
        t0=0.0, step_end=step_s, grace=grace,
        clock=clock, sleep=clock.sleep, lock=threading.Lock(),
    )  # fmt: skip
    return result


def test_open_loop_keeping_up_is_never_late():
    result = drive(rate=10, count=10, service_s=0.05, step_s=1.0, grace=2.0)
    assert result.lateness == pytest.approx([0.0] * 10)
    assert result.latencies_from_due == pytest.approx([0.05] * 10)
    assert result.backlog_end == 0 and result.abandoned == 0


def test_open_loop_counts_the_wait_a_stall_imposes_on_later_requests():
    # Due every 0.1 s, served in 0.25 s: request i starts at 0.25 i.
    result = drive(rate=10, count=10, service_s=0.25, step_s=1.0, grace=2.0)
    assert result.due == pytest.approx([0.1 * i for i in range(10)])
    assert result.start == pytest.approx([0.25 * i for i in range(10)])
    assert result.lateness[4] == pytest.approx(0.6)
    # From the due time, not from the send: 0.25 * 5 - 0.4.
    assert result.latencies_from_due[4] == pytest.approx(0.85)
    # Requests 5..9 were due within the step but started after it ended.
    assert result.backlog_end == 5 and result.abandoned == 0


def test_open_loop_abandons_requests_not_started_within_the_grace():
    result = drive(rate=10, count=10, service_s=0.25, step_s=1.0, grace=0.6)
    # Starts at 0, 0.25 ... 1.5 are within 1.0 + 0.6; 1.75 and later are not.
    assert len(result.start) == 7 and result.abandoned == 3
    assert result.backlog_end == 5


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
def test_span_self_time_is_duration_minus_child_coverage():
    ticks = iter(range(0, 1000, 10))
    recorder = SpanRecorder(clock=lambda: next(ticks))
    with recorder.span("parent", request_id="r1"):  # 0 ..
        with recorder.span("child", request_id="r1"):  # 10 .. 20
            pass
        with recorder.span("child", request_id="r1"):  # 30 .. 60
            with recorder.span("grandchild"):  # 40 .. 50
                pass
    # .. 70
    by_name = {r["name"]: r for r in recorder.records}
    assert by_name["parent"]["parent"] is None
    assert by_name["grandchild"]["parent"] == recorder.records[2]["id"]
    self_ns = recorder.self_ns()
    assert self_ns[by_name["parent"]["id"]] == 70 - 10 - 30
    assert self_ns[recorder.records[2]["id"]] == 30 - 10
    assert recorder.self_seconds_by_name()["child"] == pytest.approx(30e-9)


def test_overlapping_children_are_covered_once():
    recorder = SpanRecorder(clock=lambda: 0)
    recorder.records = [
        {"id": 0, "name": "p", "start_ns": 0, "end_ns": 100, "parent": None, "request_id": None},
        {"id": 1, "name": "a", "start_ns": 10, "end_ns": 60, "parent": 0, "request_id": None},
        {"id": 2, "name": "b", "start_ns": 40, "end_ns": 120, "parent": 0, "request_id": None},
    ]
    assert recorder.self_ns()[0] == 10  # only 0..10 is uncovered


def test_disabled_recorder_records_nothing():
    recorder = SpanRecorder(enabled=False)
    with recorder.span("anything"):
        pass
    assert recorder.records == []


# ----------------------------------------------------------------------
# BENCHMARK.json agrees with the metric table
# ----------------------------------------------------------------------
def test_benchmark_json_matches_the_metric_table():
    document = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert document == table.benchmark_json(
        document["command"], document["paths"], document["run_seconds"]
    )
    assert document["paths"] == ["benchmarks/e2e"]
    assert document["command"][-1] == "benchmarks/e2e/run.py"
    assert set(table.WORKLOADS) == {
        "batch_rexa", "batch_yago", "serve_resolve", "serve_delta",
    }  # fmt: skip
    assert any(
        m.name == "setup_s" and m.unit == "s" and m.better == "lower"
        for m in table.END_TO_END
    )


def test_names_units_and_bounds_are_within_the_contract():
    everything = table.END_TO_END + table.WORKLOAD_E2E + table.PER_LAYER
    names = [m.name for m in everything] + list(table.WORKLOADS)
    assert len(names) == len(set(names)), "a name is used twice"
    for name in names:
        assert NAME.match(name), name
    for metric in everything:
        assert UNIT.match(metric.unit), metric
        assert metric.better in ("lower", "higher")
        assert set(metric.workloads) <= set(table.WORKLOADS)
    for metric in table.END_TO_END:
        assert metric.workloads == table.ALL and 0 < metric.bound <= 0.25
    for metric in table.PER_LAYER:
        assert metric.bound is None and metric.moves, metric.name
    for why in table.WORKLOADS.values():
        assert len(why) <= 200 and "\n" not in why
    assert 1 <= len(table.PER_LAYER) <= 128


def test_compare_verdicts():
    by_name = {metric.name: metric for metric in table.WORKLOAD_E2E}
    lower = by_name["batch_wall_s"]  # bound 0.10
    assert compare.verdict(lower, [4.0, 4.0, 4.0], [4.2, 4.2, 4.2]) == "same"
    assert compare.verdict(lower, [4.0, 4.0, 4.0], [4.5, 4.5, 4.5]) == "worse"
    assert compare.verdict(lower, [3.0, 4.0, 5.0, 6.0], [4.5] * 4) == "unresolved"
    higher = by_name["resolve_batch_rps"]
    assert compare.verdict(higher, [700.0], [600.0]) == "worse"
    assert compare.verdict(higher, [700.0], [900.0]) == "same"
    exact = by_name["match_f1"]  # bound 0
    assert compare.verdict(exact, [0.97], [0.9699]) == "worse"


# ----------------------------------------------------------------------
# Smoke pass: every workload at tiny scale
# ----------------------------------------------------------------------
#: (workload, trace).  The two batch workloads share their code, and the
#: traced serve_delta pass runs everything the untraced one does, so one
#: form of each keeps the pass inside the tier-1 time budget.
SMOKE_RUNS = (
    ("batch_rexa", 0),
    ("batch_yago", 1),
    ("serve_resolve", 0),
    ("serve_resolve", 1),
    ("serve_delta", 1),
)


def session_members(session: int) -> list[str]:
    """``/proc/<pid>/stat`` of every process, zombies too, in ``session``."""
    members = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                stat = (entry / "stat").read_text()
            except OSError:
                continue
            # "pid (comm) state ppid pgrp session ..."
            if int(stat.rpartition(")")[2].split()[3]) == session:
                members.append(stat)
    return members


def test_smoke_pass_of_all_workloads():
    """All runs start at once: the pass checks behaviour, not timings.

    Each run leads a session of its own, so a process it leaves behind —
    orphaned or not — is found by that session's id once the run exited.
    """
    assert {workload for workload, _ in SMOKE_RUNS} == set(table.WORKLOADS)
    children = {
        (workload, trace): subprocess.Popen(
            [
                sys.executable, str(HERE / "run.py"),
                "--workload", workload, "--smoke", "--trace", str(trace),
            ],  # fmt: skip
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            start_new_session=True,
        )
        for workload, trace in SMOKE_RUNS
    }
    for (workload, trace), child in children.items():
        output, _ = child.communicate(timeout=120)
        assert child.returncode == 0, output
        assert not session_members(child.pid), "a run left a process running"
        result = json.loads(output.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        wanted = table.PER_LAYER if trace else table.END_TO_END
        assert list(result["metrics"]) == [m.name for m in wanted]
        for metric in wanted:
            entry = result["metrics"][metric.name]
            assert entry["unit"] == metric.unit
            if not trace:
                assert entry["value"] > 0, metric.name
        if trace:
            measured = {n for n, e in result["metrics"].items() if e["value"]}
            foreign = {
                m.name for m in table.PER_LAYER if workload not in m.workloads
            }
            assert not measured & foreign, measured & foreign
    assert not list(HERE.glob(".work-*")), "a run left its scratch directory"
