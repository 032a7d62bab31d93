"""Shared pieces of the benchmark: metrics, spans, checks and resources.

Nothing here imports the program under test; the workload modules do,
through its public API only.
"""

from __future__ import annotations

import contextvars
import gc
import multiprocessing
import os
import resource
import signal
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

#: Every workload builds its rigs with the same short §4 campaign: four
#: setpoints instead of the default eight halve the per-rig calibration
#: cost, which keeps one run of the slowest workload inside its time
#: budget while still fitting King's law away from the held speeds.
CAL_SPEEDS_CMPS = (0.0, 25.0, 90.0, 250.0)

#: Recorded points every 20 loop ticks (the program's default cadence).
RECORD_EVERY_N = 20

#: A percentile is reported only with this many samples beyond it.
TAIL_SAMPLES = 10


def workload_rng(seed: int, salt: int) -> np.random.Generator:
    """The generator every input of one workload run is drawn from."""
    return np.random.default_rng([int(seed), int(salt)])


def draw_seeds(rng: np.random.Generator, k: int) -> list[int]:
    """``k`` distinct fleet/client seeds."""
    seeds = rng.choice(2**31 - 1, size=k, replace=False) + 1
    return [int(s) for s in seeds]


def percentile(values, q: float) -> float | None:
    """The ``q``-th percentile, or None when the sample cannot carry it.

    At least :data:`TAIL_SAMPLES` samples must lie beyond the percentile
    (so a p99 needs 1000 samples); below that only the median is honest.
    """
    n = len(values)
    if n == 0 or n * (100.0 - q) / 100.0 < TAIL_SAMPLES:
        return None
    return float(np.percentile(np.asarray(values, dtype=float), q))


def median(values) -> float:
    """Median of a non-empty sample."""
    return float(statistics.median(values))


def timed(fn, *args, **kwargs):
    """``(result, seconds)`` of one call, after a full garbage collection."""
    gc.collect()
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


@dataclass
class Metric:
    """One reported number with its unit and sample count."""

    value: float
    unit: str
    n: int = 1


@dataclass
class Outcome:
    """What one workload run hands back to ``run.py``."""

    end_to_end: dict[str, Metric] = field(default_factory=dict)
    per_layer: dict[str, Metric] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: Workload-level checks (name -> passed), beyond the per-op ones.
    checks: dict[str, bool] = field(default_factory=dict)
    spans: list[dict] = field(default_factory=list)
    #: Peak RSS (KiB) of each worker process seen, by pid.
    worker_peak_kb: dict[int, int] = field(default_factory=dict)

    def op(self, ok: bool) -> None:
        """Count one attempted op and whether its output check passed."""
        self.attempted += 1
        if not ok:
            self.failed += 1

    def sample_workers(self) -> None:
        """Record the peak RSS of every live worker process of this run."""
        for child in multiprocessing.active_children():
            self.worker_peak_kb[child.pid] = max(
                self.worker_peak_kb.get(child.pid, 0),
                _vm_hwm_kb(child.pid))

    def peak_rss_mb(self) -> float:
        """Peak RSS of this process plus every sampled worker, in MB."""
        own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return (own_kb + sum(self.worker_peak_kb.values())) / 1024.0

    def add_common(self, pacer: "Pacer",
                   setups: list[tuple[float, float]],
                   ops: list[tuple[float, float]], samples: int,
                   busy_s: float) -> None:
        """The end-to-end metrics every workload reports.

        ``setups`` and ``ops`` are the ``(start, end)`` times of each
        set-up and each timed op, all taken while ``pacer`` ran;
        ``samples`` rig-samples were simulated in ``busy_s`` seconds.
        """
        e2e = self.end_to_end
        e2e["setup_s"] = Metric(
            median([pacer.seconds(*iv) for iv in setups]), "s", len(setups))
        e2e["setup_wall_s"] = Metric(
            median([t1 - t0 for t0, t1 in setups]), "s", len(setups))
        if ops:  # no timing when every op raised
            n = len(ops)
            e2e["run_s_p50"] = Metric(
                median([t1 - t0 for t0, t1 in ops]), "s", n)
            e2e["run_ref_p50"] = Metric(
                median([pacer.in_slices(*iv) for iv in ops]), "ref", n)
            e2e["run_samples_per_s"] = Metric(samples / busy_s, "1/s", n)
        e2e["peak_rss_mb"] = Metric(self.peak_rss_mb(), "MB")
        e2e["ops_ok_frac"] = Metric(
            (self.attempted - self.failed) / max(self.attempted, 1),
            "ratio", self.attempted)


# -- host pace ----------------------------------------------------------------

#: What one reference slice takes at the host's usual pace; ``setup_s``
#: is set-up time at that pace.
REFERENCE_SLICE_S = 0.006
#: One reference slice is timed every PACE_EVERY_S while a Pacer runs.
PACE_EVERY_S = 0.2
#: An interval's pace is the median slice within this margin of it.
PACE_MARGIN_S = 0.5
_SMALL_A = np.linspace(0.0, 1.0, 24)
_SMALL_B = np.linspace(1.0, 2.0, 24)
_BLOCK = np.linspace(0.0, 1.0, 24 * 2000).reshape(2000, 24)
_RNG = np.random.default_rng(0)


def reference_slice() -> float:
    """CPU seconds one fixed slice of the benchmark's own work takes now
    (about 6 ms on a 2-vCPU Xeon host).

    A host's slow spells hit interpreter loops, small numpy calls,
    random draws and array math by different amounts, and the program
    spends its time in all four, so the slice does a little of each in
    about equal shares.  It never calls the program.  The slice counts
    this thread's CPU time, not wall time, so that the time it waits
    while the program's own workers hold both CPUs does not count as
    a slow host.
    """
    t0 = time.thread_time()
    x = _SMALL_A.copy()
    acc = 0
    for i in range(800):
        x = np.multiply(np.add(x, _SMALL_B), 0.5)
        acc += int(x[i % 24] > 1.0)
    for i in range(20000):
        acc += (i * i) % 7
    for _ in range(500):
        _RNG.standard_normal(64)
    for _ in range(3):
        np.cumsum(np.exp(-_BLOCK) * _BLOCK, axis=0)
    return time.thread_time() - t0


class Pacer:
    """Samples the host's speed all through set-up and the op phase.

    A shared host's CPU speed swings by up to 2x over seconds to
    minutes, and every wall time of the program swings with it.  While
    a Pacer is entered, SIGALRM every :data:`PACE_EVERY_S` times one
    :func:`reference_slice` between two bytecodes of whatever the main
    thread runs (about 3% extra load, part of every workload), so
    even a 15 s op is sampled throughout.  :meth:`in_slices` gives an
    interval's length in slices of the pace around it
    (``run_ref_p50``), which follows the program's speed and not the
    host's; :meth:`seconds` turns that back into seconds at the usual
    pace (``setup_s``).
    """

    def __init__(self) -> None:
        #: (start, seconds) of every timed slice.
        self.samples: list[tuple[float, float]] = []
        self._previous = None
        self._cpus = sorted(os.sched_getaffinity(0))

    def _tick(self, signum, frame) -> None:
        # Slices take turns on every CPU: the program's workers run on
        # all of them, and a slow spell may hit one CPU only.
        os.sched_setaffinity(
            0, {self._cpus[len(self.samples) % len(self._cpus)]})
        try:
            self.samples.append((time.perf_counter(), reference_slice()))
        finally:
            os.sched_setaffinity(0, self._cpus)

    def __enter__(self) -> "Pacer":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PACE_EVERY_S, PACE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def pace(self, t0: float, t1: float) -> float:
        """Median seconds of the reference slices timed near ``t0..t1``
        (of every slice, if none was)."""
        near = [d for t, d in self.samples
                if t0 - PACE_MARGIN_S <= t <= t1 + PACE_MARGIN_S]
        return median(near or [d for _, d in self.samples])

    def in_slices(self, t0: float, t1: float) -> float:
        """The interval ``t0..t1`` in reference slices timed near it."""
        return (t1 - t0) / self.pace(t0, t1)

    def seconds(self, t0: float, t1: float) -> float:
        """The interval ``t0..t1`` in seconds at :data:`REFERENCE_SLICE_S`
        per slice."""
        return self.in_slices(t0, t1) * REFERENCE_SLICE_S


# -- spans --------------------------------------------------------------------

_CURRENT: contextvars.ContextVar[int | None] = contextvars.ContextVar(
    "perfbench_span", default=None)


class Spans:
    """In-memory span recorder kept by the benchmark, not the program.

    Each span records its name, start, end, parent span and the root
    span of its op (``op``), so the spans of one op share an
    identifier.  The current span travels in a context variable, which
    asyncio copies into every task, so concurrent storm clients nest
    their spans correctly.  Disabled, :meth:`span` records nothing.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.records: list[dict] = []

    @contextmanager
    def span(self, name: str, **attrs):
        if not self.enabled:
            yield None
            return
        parent = _CURRENT.get()
        rec = {"id": len(self.records), "name": name, "parent": parent,
               "op": (self.records[parent]["op"] if parent is not None
                      else len(self.records)),
               "start": time.perf_counter(), "end": None, **attrs}
        self.records.append(rec)
        token = _CURRENT.set(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            _CURRENT.reset(token)

    def durations(self, name: str) -> list[float]:
        """Durations of every finished span called ``name``."""
        return [r["end"] - r["start"] for r in self.records
                if r["name"] == name and r["end"] is not None]

    def self_times(self) -> dict[str, float]:
        """Total self time per span name.

        A span's self time is its duration minus the part of its
        interval covered by its children (overlapping children are
        merged first, so concurrent children are not counted twice).
        """
        children: dict[int, list[tuple[float, float]]] = {}
        for r in self.records:
            if r["parent"] is not None:
                children.setdefault(r["parent"], []).append(
                    (r["start"], r["end"]))
        out: dict[str, float] = {}
        for r in self.records:
            covered = 0.0
            cur_lo = cur_hi = None
            for lo, hi in sorted(children.get(r["id"], [])):
                lo, hi = max(lo, r["start"]), min(hi, r["end"])
                if hi <= lo:
                    continue
                if cur_hi is None or lo > cur_hi:
                    if cur_hi is not None:
                        covered += cur_hi - cur_lo
                    cur_lo, cur_hi = lo, hi
                else:
                    cur_hi = max(cur_hi, hi)
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            out[r["name"]] = out.get(r["name"], 0.0) + \
                (r["end"] - r["start"]) - covered
        return out


# -- program-side counters --------------------------------------------------

def cache_counts(session) -> tuple[int, int] | None:
    """Process-wide calibration-cache ``(hits, misses)``, if reported.

    Read through the public ``Session.stats()``; a program that no
    longer reports the cache yields None and the derived per-layer
    metrics are left out instead of failing the run.
    """
    stats = session.stats().get("calibration_cache")
    if not isinstance(stats, dict) or "hits" not in stats \
            or "misses" not in stats:
        return None
    return int(stats["hits"]), int(stats["misses"])


class CacheDelta:
    """Calibration-cache hits and misses accumulated over the op phase."""

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.available = True

    @contextmanager
    def around(self, session):
        before = cache_counts(session)
        yield
        after = cache_counts(session)
        if before is None or after is None:
            self.available = False
            return
        self.hits += after[0] - before[0]
        self.misses += after[1] - before[1]

    def report(self, out: Outcome, ops: int) -> None:
        """Add ``station.calibrations_per_op`` and ``cache_hit_frac``."""
        if not self.available or ops == 0:
            return
        out.per_layer["station.calibrations_per_op"] = Metric(
            self.misses / ops, "count", ops)
        lookups = self.hits + self.misses
        if lookups:
            out.per_layer["station.cache_hit_frac"] = Metric(
                self.hits / lookups, "ratio", lookups)


# -- output checks ------------------------------------------------------------

def same_result(a, b) -> bool:
    """Bit-identity of two ``RunResult`` objects over every traced field."""
    names = ("time_s",) + tuple(type(a).STACKED_FIELDS)
    return all(np.array_equal(np.asarray(getattr(a, n)),
                              np.asarray(getattr(b, n)))
               for n in names)


def sane_result(result, n_monitors: int, n_points: int) -> bool:
    """Shape and finiteness of one run's traces."""
    return (result.n_monitors == n_monitors and len(result) == n_points
            and bool(np.all(np.isfinite(result.measured_mps))))


# -- resources ----------------------------------------------------------------

def _vm_hwm_kb(pid: int) -> int:
    """Peak resident set (VmHWM) of a live process, in KiB (0 if unknown)."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0
