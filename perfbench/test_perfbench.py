"""The benchmark's own tests.

Run from the repository root (about four minutes; the traced runs are
the slow part)::

    python3 -m pytest perfbench -q

They check that every count the benchmark reports, and the fleet's
speed error, repeat exactly from run to run on one seed; that a run in
a directory without the program's sources fails without a result; and
the span and percentile arithmetic.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from bench import (REFERENCE_SLICE_S, Pacer, Spans,  # noqa: E402
                   percentile)

#: Metrics that must repeat bit for bit, per workload.  Timing-driven
#: counts (background ticks and snapshots, backpressure stalls) vary
#: with the host and are left out.
EXACT = {
    "fleet-wide": ["station.calibrations_per_op", "runtime.mixed.groups",
                   "speed_error_cmps"],
    "campaign-mixed": ["station.calibrations_per_op", "runtime.mixed.groups",
                       "station.campaign.windows"],
    "service-storm": ["station.calibrations_per_op", "runtime.mixed.groups",
                      "service.cohorts", "service.storm_ticks"],
}


def _run(workload: str, seed: int, seconds: float, trace: int,
         cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def _record(workload: str, seed: int, trace: int) -> dict:
    path = ROOT / ".perfbench" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text())


@pytest.mark.parametrize("workload", sorted(EXACT))
def test_counts_repeat_exactly(workload):
    seed = 7
    runs = []
    for _ in range(2):
        proc = _run(workload, seed, seconds=2, trace=1)
        assert proc.returncode == 0, proc.stderr
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        assert last["correct"] and last["failed"] == 0, proc.stdout
        runs.append(_record(workload, seed, 1)["metrics"])
    for name in EXACT[workload]:
        assert name in runs[0], name
        assert runs[0][name]["value"] == runs[1][name]["value"], name


def test_refuses_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("campaign-mixed", 1, seconds=1, trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_pacer_uses_the_slices_near_an_interval():
    pacer = Pacer()
    pacer.samples = [(0.0, 0.01), (1.0, 0.01), (5.0, 0.02), (5.2, 0.02),
                     (5.4, 0.03)]
    assert pacer.in_slices(5.0, 5.4) == pytest.approx(0.4 / 0.02)
    # Nothing within the margin: the median of every slice.
    assert pacer.in_slices(20.0, 21.0) == pytest.approx(1.0 / 0.02)
    assert pacer.seconds(5.0, 5.4) == pytest.approx(
        0.4 / 0.02 * REFERENCE_SLICE_S)


def test_pacer_samples_while_entered_only():
    pacer = Pacer()
    with pacer:
        t_end = time.perf_counter() + 0.7
        while time.perf_counter() < t_end:
            pass
    n = len(pacer.samples)
    assert n >= 2
    time.sleep(0.5)
    assert len(pacer.samples) == n


def test_self_time_subtracts_merged_children():
    spans = Spans(True)
    spans.records = [
        {"id": 0, "name": "op", "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "name": "a", "parent": 0, "start": 1.0, "end": 4.0},
        {"id": 2, "name": "b", "parent": 0, "start": 3.0, "end": 6.0},
        {"id": 3, "name": "c", "parent": 0, "start": 8.0, "end": 12.0},
    ]
    self_times = spans.self_times()
    assert self_times["op"] == pytest.approx(10.0 - 5.0 - 2.0)
    assert self_times["a"] == pytest.approx(3.0)


def test_span_nesting_and_disabled_recorder():
    spans = Spans(True)
    with spans.span("op"):
        with spans.span("layer"):
            pass
    assert [r["parent"] for r in spans.records] == [None, 0]
    assert {r["op"] for r in spans.records} == {0}
    off = Spans(False)
    with off.span("op"):
        pass
    assert off.records == []


def test_percentile_needs_ten_samples_beyond():
    assert percentile(list(range(999)), 99.0) is None
    assert percentile(list(range(1000)), 99.0) is not None
    assert percentile(list(range(100)), 90.0) is not None
    assert percentile(list(range(99)), 90.0) is None
