"""Workload ``service-storm``: an open-loop attach storm on one service.

One serial ``FleetService`` (``tick_steps=200``) carries two kinds of
clients:

- eight background clients, one rig each, calibrated in set-up, attach
  a long 60 cm/s hold and consume their snapshots in a closed loop;
  they detach once the storm is over;
- storm clients, one rig each with a cold seed, arrive open loop
  every 2 s for the run's ``--seconds``.  Each attaches its own
  2 s hold (a distinct speed), so each forms its own cohort and the
  storm's cohort, tick and snapshot counts repeat exactly.

Why this workload: it is the only one through service attach, the tick
loop and the stream fan-out.  Attach calibrates the cold rig inline on
the event loop, so every arrival stalls the background streams: the
p99 snapshot gap is several times the p50 gap today.  At one arrival
every 2 s the storm's own calibration and engine work stay well under
the loop's capacity even when the host runs slow (1.5/s saturated it,
and at 1/s the latencies of one run already swung with the host's
speed), and about 2-3% of the background gaps are stalled ones, clear
of the 1% boundary the p99 would otherwise sit on.

Timings follow the open-loop rule: a storm client's ``attach_s`` and
``run_s`` count from the second it was due, so a stalled loop delays
later arrivals too, and the generator's own lateness is reported.

The traced run wraps each attach, each ``ClientSession.result`` and
each ``RunResult.summary`` in spans, and adds a standalone
``Session.calibrate`` of storm-shaped fleets.  The output checks: every
client's stitched snapshots equal its result (for a background client,
the partial result its ``detach`` returns), and every storm client
equals a standalone ``Session.run`` of the same fleet and profile.
"""

from __future__ import annotations

import asyncio
import gc
import time

from repro import FleetService, FleetSpec, MixedEngine, RunResult, \
    Session, hold

from bench import (CAL_SPEEDS_CMPS, RECORD_EVERY_N, CacheDelta, Metric,
                   Outcome, Pacer, Spans, draw_seeds, median, percentile,
                   same_result, sane_result, timed, workload_rng)

SALT = 3
TICK_STEPS = 200
BACKGROUND_CLIENTS = 8
BACKGROUND_CMPS = 60.0
#: Long enough to outlast any storm; background clients detach at its end.
BACKGROUND_HOLD_S = 3600.0
STORM_RATE_HZ = 0.5
STORM_HOLD_S = 2.0
SETUP_REPEATS = 3
#: Storm-shaped fleets calibrated standalone in the traced run.
STANDALONE_CALIBRATIONS = 5


def _spec(seed: int) -> FleetSpec:
    return FleetSpec.homogeneous(1, seed=seed, fast_calibration=True,
                                 calibration_speeds_cmps=CAL_SPEEDS_CMPS)


def _storm_profile(i: int):
    return hold(30.0 + 3.0 * i, STORM_HOLD_S)


class _Storm:
    """One storm phase: background streams plus open-loop arrivals."""

    def __init__(self, service: FleetService, spans: Spans, pacer: Pacer,
                 background: list[int], storm: list[int]) -> None:
        self.service = service
        self.spans = spans
        self.pacer = pacer
        self.background_seeds = background
        self.storm_seeds = storm
        self.gaps: list[tuple[float, float]] = []
        self.late_s: list[float] = []
        self.attach_s: list[float] = []
        #: (due, done) of each finished storm client.
        self.lifetimes: list[tuple[float, float]] = []
        self.storm_results: list[tuple[list, RunResult] | None] = []
        self.background_results: list = []
        self.group_ids: set[int] = set()
        self.samples = 0
        #: (first due time, last storm result) of the finished phase.
        self.window = (0.0, 0.0)

    async def _background(self, client, stop: asyncio.Event):
        windows, last = [], None
        self.group_ids.add(client.group_id)

        async def consume():
            nonlocal last
            async for snap in client.snapshots():
                now = time.perf_counter()
                if last is not None:
                    self.gaps.append((now, now - last))
                last = now
                windows.append(snap.window)

        consumer = asyncio.ensure_future(consume())
        await stop.wait()
        partial = await client.detach()
        await consumer
        self.samples += partial.n_monitors * client.done_steps
        return windows, partial

    async def _storm_client(self, i: int, due: float):
        self.late_s.append(time.perf_counter() - due)
        with self.spans.span("storm_client", index=i):
            with self.spans.span("FleetService.attach"):
                client = await self.service.attach(
                    _storm_profile(i), fleet=_spec(self.storm_seeds[i]),
                    record_every_n=RECORD_EVERY_N)
            self.attach_s.append(time.perf_counter() - due)
            self.group_ids.add(client.group_id)
            windows = [snap.window async for snap in client.snapshots()]
            with self.spans.span("ClientSession.result"):
                result = await client.result()
            self.lifetimes.append((due, time.perf_counter()))
        with self.spans.span("RunResult.summary"):
            result.summary()
        self.samples += result.n_monitors * client.done_steps
        self.storm_results[i] = (windows, result)

    async def run(self) -> float:
        """Run the phase; returns its wall time."""
        stop = asyncio.Event()
        clients = [await self.service.attach(
            hold(BACKGROUND_CMPS, BACKGROUND_HOLD_S), fleet=_spec(seed),
            record_every_n=RECORD_EVERY_N)
            for seed in self.background_seeds]
        background = [asyncio.ensure_future(self._background(c, stop))
                      for c in clients]
        self.storm_results = [None] * len(self.storm_seeds)
        gc.collect()
        t0 = time.perf_counter()
        with self.pacer:
            # Let the background streams settle into their tick rhythm.
            await asyncio.sleep(0.5)
            start = time.perf_counter()
            tasks = []
            for i in range(len(self.storm_seeds)):
                due = start + i / STORM_RATE_HZ
                await asyncio.sleep(max(0.0, due - time.perf_counter()))
                tasks.append(
                    asyncio.ensure_future(self._storm_client(i, due)))
            # A failed client is counted by the output checks, not raised.
            await asyncio.gather(*tasks, return_exceptions=True)
            self.window = (start, time.perf_counter())
        stop.set()
        self.background_results = await asyncio.gather(
            *background, return_exceptions=True)
        return time.perf_counter() - t0

    def storm_gaps(self) -> list[float]:
        """Background snapshot gaps that ended during the storm."""
        lo, hi = self.window
        return [gap for t, gap in self.gaps if lo <= t <= hi]


def _check(phase: _Storm) -> tuple[list[bool], bool]:
    """Output checks: one verdict per storm client, one for the
    background streams."""
    n_points = int(round(STORM_HOLD_S * 1000.0)) // RECORD_EVERY_N
    storm = []
    for i, entry in enumerate(phase.storm_results):
        if entry is None:
            storm.append(False)
            continue
        windows, result = entry
        with Session(fleet=_spec(phase.storm_seeds[i])) as session:
            session.calibrate()
            alone = session.run(_storm_profile(i),
                                record_every_n=RECORD_EVERY_N)
        storm.append(sane_result(result, 1, n_points)
                     and same_result(RunResult.concat_time(windows), result)
                     and same_result(result, alone))
    background = all(
        isinstance(entry, tuple) and entry[0] and same_result(
            RunResult.concat_time(entry[0]), entry[1])
        for entry in phase.background_results)
    return storm, background


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    out = Outcome()
    spans = Spans(trace)
    n_storm = max(1, int(round(seconds * STORM_RATE_HZ)))
    phases = 2 if trace else 1
    seeds = draw_seeds(
        workload_rng(seed, SALT),
        SETUP_REPEATS * BACKGROUND_CLIENTS + phases * n_storm
        + STANDALONE_CALIBRATIONS)
    background = [seeds[k * BACKGROUND_CLIENTS:(k + 1) * BACKGROUND_CLIENTS]
                  for k in range(SETUP_REPEATS)]
    storm_seeds = seeds[SETUP_REPEATS * BACKGROUND_CLIENTS:]

    pacer = Pacer()

    async def main():
        setups, calibrate_s = [], []
        service = None
        for bg_seeds in background:
            if service is not None:
                await service.stop()
            with pacer:
                t0 = time.perf_counter()
                service = FleetService(tick_steps=TICK_STEPS)
                await service.start()
                t1 = time.perf_counter()
                for bg_seed in bg_seeds:
                    with Session(fleet=_spec(bg_seed)) as session:
                        session.calibrate()
                t2 = time.perf_counter()
            calibrate_s.append(t2 - t1)
            setups.append((t0, t2))
        cache = CacheDelta()
        # Any session reports the process-wide calibration cache.
        stats_session = Session(fleet=_spec(background[-1][0]))
        done = []
        try:
            for p in range(phases):
                phase_seeds = storm_seeds[p * n_storm:(p + 1) * n_storm]
                phase = _Storm(service, spans if p == 1 else Spans(False),
                               pacer, background[-1], phase_seeds)
                with cache.around(stats_session):
                    wall = await phase.run()
                done.append((phase, wall))
        finally:
            stats_session.close()
            stats = service.stats()
            await service.stop()
        return setups, calibrate_s, done, stats, cache

    setups, calibrate_s, phases_done, stats, cache = asyncio.run(main())

    phase, wall = phases_done[0]
    storm_ok, background_ok = _check(phase)
    for ok in storm_ok:
        out.op(ok)
    out.checks["background_streams_stitch"] = background_ok
    samples = phase.samples
    out.add_common(pacer, setups, phase.lifetimes, samples, wall)
    e2e = out.end_to_end
    n = len(phase.attach_s)
    e2e["attach_s_p50"] = Metric(median(phase.attach_s), "s", n)
    gaps = phase.storm_gaps()
    if gaps:
        e2e["snapshot_gap_s_p50"] = Metric(median(gaps), "s", len(gaps))
    p99 = percentile(gaps, 99.0)
    if p99 is not None:
        e2e["snapshot_gap_s_p99"] = Metric(p99, "s", len(gaps))

    layer = out.per_layer
    layer["station.calibrate_s"] = Metric(median(calibrate_s), "s",
                                          len(calibrate_s))
    layer["service.cohorts"] = Metric(len(phase.group_ids), "count")
    layer["service.storm_ticks"] = Metric(
        sum(len(w) for w, _ in filter(None, phase.storm_results)), "count",
        n)
    layer["service.ticks"] = Metric(stats["ticks"], "count")
    layer["service.snapshots"] = Metric(stats["snapshots"], "count")
    layer["service.backpressure_stalls"] = Metric(
        stats["backpressure_stalls"], "count")
    layer["service.gen_late_s_p50"] = Metric(median(phase.late_s), "s",
                                             len(phase.late_s))
    if not trace:
        cache.report(out, n)
        return out

    traced, _ = phases_done[1]
    # Calibrations and cache lookups per storm client, over both phases.
    cache.report(out, n + len(traced.attach_s))
    for i, entry in enumerate(traced.storm_results):
        ok = entry is not None and same_result(
            RunResult.concat_time(entry[0]), entry[1])
        out.op(ok)
    # The two phases run one after the other, so they are compared at
    # the pace each ran at.
    traced_ref = [pacer.in_slices(*iv) for iv in traced.lifetimes]
    layer["trace.overhead_frac"] = Metric(
        median(traced_ref) / out.end_to_end["run_ref_p50"].value - 1.0,
        "ratio", len(traced_ref))
    layer["runtime.result.summary_s_p50"] = Metric(
        median(spans.durations("RunResult.summary")), "s",
        len(traced_ref))
    # Storm-shaped work outside the service: standalone calibration,
    # materialization (warm) and one narrow engine run per fleet.
    standalone = storm_seeds[phases * n_storm:]
    calibrate = []
    for s in standalone:
        with Session(fleet=_spec(s)) as session:
            calibrate.append(timed(session.calibrate)[1])
    layer["service.attach_calibrate_s_p50"] = Metric(
        median(calibrate), "s", len(calibrate))
    materialize, engine_s, groups = [], [], 0
    for i, s in enumerate(standalone):
        rigs, dt = timed(_spec(s).materialize)
        materialize.append(dt)
        with MixedEngine(rigs) as engine:
            groups = len(engine.groups)
            engine_s.append(timed(engine.run, _storm_profile(i),
                                  record_every_n=RECORD_EVERY_N)[1])
    layer["station.materialize_s_p50"] = Metric(
        median(materialize), "s", len(materialize))
    layer["runtime.mixed.groups"] = Metric(groups, "count")
    layer["runtime.batch.step_us"] = Metric(
        median(engine_s) / (STORM_HOLD_S * 1000.0) * 1e6, "us",
        len(engine_s))
    out.spans = spans.records
    return out
