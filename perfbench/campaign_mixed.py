"""Workload ``campaign-mixed``: one caller, closed loop, a mixed fleet.

The fleet is 24 rigs (within the 32-entry calibration cache) described
by one scenario-tagged, heterogeneous ``FleetSpec``: eight entries of
three rigs crossing a structural difference (pulsed or continuous
drive) with a per-rig parameter (``overtemperature_k`` 4 or 6 K), each
pair of entries with one configuration tagged with two of the built-in
scenarios baseline, slab_leak, tank_leak and mains_burst.  Set-up
calibrates the fleet through ``Session.calibrate``; each op is one
``run_campaign`` over a 1 s household-demand horizon, followed by
``RunResult.summary``.

Why this workload: the program runs one engine per (config,
scenario) group and advances it window by window between event edges,
so per-step dispatch in the batch engine and the grouping in the mixed
engine do the work while calibration does none (every lookup hits the
cache).  It is the bypass workload for calibration changes and the
exercise workload for turning per-rig parameters into engine arrays,
which would merge the ``overtemperature_k`` groups.

The traced run wraps ``run_campaign`` and ``RunResult.summary`` in
spans and, outside the op, materializes the same fleet and runs it
through ``MixedEngine.run`` over the base demand profile with no events:
``station.campaign.overhead_frac`` is the campaign's time over that run.
"""

from __future__ import annotations

import time

from repro import (FleetSpec, MixedEngine, RigSpec, Session,
                   household_demand, run_campaign)

from bench import (CAL_SPEEDS_CMPS, RECORD_EVERY_N, CacheDelta, Metric,
                   Outcome, Pacer, Spans, draw_seeds, median,
                   same_result, sane_result, timed, workload_rng)

SALT = 2
PER_ENTRY = 3
HORIZON_S = 1.0
SETUP_REPEATS = 2
MIN_OPS = 2
#: (pulsed drive, overtemperature_k, scenario) per fleet entry.
ENTRIES = (
    (True, 4.0, "baseline"), (True, 4.0, "slab_leak"),
    (True, 6.0, "tank_leak"), (True, 6.0, "mains_burst"),
    (False, 4.0, "baseline"), (False, 4.0, "mains_burst"),
    (False, 6.0, "slab_leak"), (False, 6.0, "tank_leak"),
)


def _spec(seed: int) -> FleetSpec:
    return FleetSpec(rigs=tuple(
        RigSpec(count=PER_ENTRY, use_pulsed_drive=pulsed,
                overtemperature_k=overtemp, scenario=scenario,
                fast_calibration=True,
                calibration_speeds_cmps=CAL_SPEEDS_CMPS)
        for pulsed, overtemp, scenario in ENTRIES), seed=seed)


def _campaign_op(spans: Spans, spec: FleetSpec):
    with spans.span("op"):
        with spans.span("run_campaign"):
            report = run_campaign(spec, duration_s=HORIZON_S,
                                  record_every_n=RECORD_EVERY_N)
        with spans.span("RunResult.summary"):
            report.result.summary()
    return report


def _reference(spans: Spans, spec: FleetSpec):
    """The campaign fleet through ``MixedEngine.run`` without events."""
    with spans.span("FleetSpec.materialize"):
        rigs = spec.without_scenarios().materialize()
    with MixedEngine(rigs) as engine:
        with spans.span("MixedEngine.run"):
            engine.run(household_demand(HORIZON_S),
                       record_every_n=RECORD_EVERY_N)
        return len(engine.groups)


def _windows(report) -> int:
    return sum(len(group["windows"]) for group in report.groups)


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    out = Outcome()
    spans = Spans(trace)
    seeds = draw_seeds(workload_rng(seed, SALT), SETUP_REPEATS)
    n_rigs = PER_ENTRY * len(ENTRIES)
    steps = int(round(HORIZON_S * 1000.0))
    n_points = steps // RECORD_EVERY_N

    # Each set-up calibrates a fresh fleet; the last one is measured.
    pacer = Pacer()
    setups, calibrate_s = [], []
    session = None
    for fleet_seed in seeds:
        if session is not None:
            session.close()
        with pacer:
            t0 = time.perf_counter()
            session = Session(fleet=_spec(fleet_seed).without_scenarios())
            session.open()
            _, cal = timed(session.calibrate)
            setups.append((t0, time.perf_counter()))
        calibrate_s.append(cal)
    spec = _spec(seeds[-1])

    cache = CacheDelta()
    first = None
    ops, windows, groups = [], [], []
    untraced = Spans(False)
    t_start = time.perf_counter()
    try:
        with pacer:
            while out.attempted < MIN_OPS \
                    or time.perf_counter() - t_start < seconds:
                traced = trace and out.attempted % 2 == 1
                ok = True
                try:
                    with cache.around(session):
                        report, dt = timed(_campaign_op,
                                           spans if traced else untraced, spec)
                    t1 = time.perf_counter()
                    if traced:
                        groups.append(timed(_reference, spans, spec)[0])
                    else:
                        ops.append((t1 - dt, t1))
                    windows.append(_windows(report))
                    ok = sane_result(report.result, n_rigs, n_points) \
                        and len(report.groups) == len(ENTRIES)
                    if first is None:
                        first = report
                    else:
                        ok = ok and same_result(first.result, report.result) \
                            and windows[-1] == windows[0]
                except Exception as exc:  # counted in ops_ok_frac, not raised
                    print(f"campaign-mixed op failed: {exc!r}")
                    ok = False
                out.op(ok)
    finally:
        session.close()

    out.add_common(pacer, setups, ops, n_rigs * steps * len(ops),
                   sum(t1 - t0 for t0, t1 in ops))
    layer = out.per_layer
    layer["station.calibrate_s"] = Metric(median(calibrate_s), "s",
                                          len(calibrate_s))
    cache.report(out, out.attempted)
    if windows:
        layer["station.campaign.windows"] = Metric(windows[0], "count")
    if not trace or not groups or not ops:
        return out
    campaign = spans.durations("run_campaign")
    mixed = spans.durations("MixedEngine.run")
    # Traced and untraced ops are compared at the pace each ran at.
    root = [pacer.in_slices(r["start"], r["end"]) for r in spans.records
            if r["name"] == "op"]
    n = len(campaign)
    layer["runtime.mixed.groups"] = Metric(groups[0], "count")
    layer["runtime.mixed.run_s"] = Metric(median(mixed), "s", len(mixed))
    layer["runtime.batch.step_us"] = Metric(
        median(mixed) / (groups[0] * steps) * 1e6, "us", len(mixed))
    layer["station.materialize_s_p50"] = Metric(
        median(spans.durations("FleetSpec.materialize")), "s", len(mixed))
    layer["station.campaign.overhead_frac"] = Metric(
        median(campaign) / median(mixed) - 1.0, "ratio", n)
    layer["runtime.result.summary_s_p50"] = Metric(
        median(spans.durations("RunResult.summary")), "s", n)
    layer["trace.overhead_frac"] = Metric(
        median(root) / out.end_to_end["run_ref_p50"].value - 1.0, "ratio",
        n)
    out.spans = spans.records
    return out
