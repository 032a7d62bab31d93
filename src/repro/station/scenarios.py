"""Canned experimental setups.

:func:`vinci_station` reproduces the paper's test site parameters;
:func:`build_calibrated_monitor` is the one-call entry point used by the
examples and every system bench: it builds a die, a platform and a CTA
loop, runs the §4 calibration campaign against the Promag 50, and
returns a ready :class:`~repro.conditioning.monitor.WaterFlowMonitor`.

Seeds are plumbed through :class:`numpy.random.SeedSequence`: the single
``seed`` argument spawns independent child streams for the die, the
calibration bench, and the returned rig, so no two components share (or
collide on) a raw integer seed.

Repeat builds are cheap: the fitted calibration and the sensor's
post-campaign state are memoized in a small LRU keyed by everything that
determines them, so separate builds of one configuration (sessions,
campaigns, service attaches) share one campaign.  A
``repro.runtime.Session`` does not lean on the LRU between runs: it
keeps each rig's (calibration, snapshot) pair from its own calibration
and restores from that, whatever the fleet size.  Builds with a
caller-owned ``housing`` bypass the cache — the assembly carries
mutable state the cache must not alias.

Underneath the LRU sits the optional disk-backed
:class:`repro.store.ArtifactStore` (``store=`` argument, or the
process-wide default from :func:`repro.store.get_default_store` /
``REPRO_STORE``): an LRU miss first consults the store — keyed by the
canonical hash of the sensor config's ``to_dict`` plus the build knobs
— and only runs the §4 campaign when the store misses too, publishing
the artifact for other workers and future processes.  Restoring from
the store is bit-identical to a fresh campaign: the same
(calibration, sensor-state snapshot) pair the LRU holds round-trips
through pickle exactly.
"""

from __future__ import annotations

import copy
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.baselines.promag import Promag50
from repro.observability import get_registry, get_tracer
from repro.conditioning.calibration import FlowCalibration
from repro.conditioning.cta import CTAConfig, CTAController
from repro.conditioning.monitor import MonitorConfig, WaterFlowMonitor
from repro.isif.platform import ISIFPlatform
from repro.sensor.maf import MAFConfig, MAFSensor
from repro.sensor.packaging import SensorHousing
from repro.station.line import LineConfig, WaterLine
from repro.station.rig import TestRig, run_calibration
from repro.store import canonical_key, get_default_store

__all__ = ["CalibratedSetup", "vinci_station", "build_calibrated_monitor",
           "clear_calibration_cache", "calibration_cache_stats",
           "DEFAULT_CALIBRATION_SPEEDS_CMPS"]

#: Default calibration campaign: zero (direction offset + King A) plus a
#: geometric ladder over the paper's 0-250 cm/s range.
DEFAULT_CALIBRATION_SPEEDS_CMPS = [0.0, 10.0, 25.0, 50.0, 90.0, 140.0, 200.0, 250.0]


def _child_seed(sequence: np.random.SeedSequence) -> int:
    """Collapse a spawned SeedSequence into one plain integer seed."""
    return int(sequence.generate_state(1)[0])


def vinci_station(seed: int = 2024) -> WaterLine:
    """The Tuscan test line: DN50, hard Arno-basin water, 15 °C."""
    child = np.random.SeedSequence(seed).spawn(1)[0]
    return WaterLine(LineConfig(seed=_child_seed(child)))


@dataclass
class CalibratedSetup:
    """Everything :func:`build_calibrated_monitor` produced.

    Attributes
    ----------
    monitor:
        Calibrated, ready-to-run monitoring point.
    rig:
        Test rig wrapping the monitor, the line and the reference meter.
    calibration:
        The fitted calibration (also installed in the monitor).
    """

    monitor: WaterFlowMonitor
    rig: TestRig
    calibration: FlowCalibration


#: LRU of (calibration, sensor-state snapshot) keyed by every input that
#: determines the campaign outcome.
_CALIBRATION_CACHE: "OrderedDict[tuple, tuple[FlowCalibration, dict]]" = OrderedDict()
_CALIBRATION_CACHE_MAX = 32
_CACHE_HITS = 0
_CACHE_MISSES = 0


def clear_calibration_cache() -> None:
    """Drop all memoized calibrations (test isolation / memory)."""
    global _CACHE_HITS, _CACHE_MISSES
    _CALIBRATION_CACHE.clear()
    _CACHE_HITS = 0
    _CACHE_MISSES = 0


def calibration_cache_stats() -> dict:
    """Lifetime LRU statistics: size, hits, misses and the hit rate.

    The hit/miss tallies are process-lifetime (reset by
    :func:`clear_calibration_cache`); uncacheable builds (caller-owned
    housing, ``use_cache=False``) count as misses — they paid for a
    full campaign.  A *miss* may still be served from the disk-backed
    artifact store without a campaign — the store keeps its own
    hit/miss tallies (:meth:`repro.store.ArtifactStore.stats`).
    """
    lookups = _CACHE_HITS + _CACHE_MISSES
    return {
        "size": len(_CALIBRATION_CACHE),
        "max_size": _CALIBRATION_CACHE_MAX,
        "hits": _CACHE_HITS,
        "misses": _CACHE_MISSES,
        "hit_rate": _CACHE_HITS / lookups if lookups else 0.0,
    }


def _snapshot_sensor(sensor: MAFSensor) -> dict:
    """Capture every sensor field the calibration campaign mutates."""
    return {
        "t_a": copy.deepcopy(sensor._t_a),
        "t_b": copy.deepcopy(sensor._t_b),
        "t_membrane": copy.deepcopy(sensor._t_membrane),
        "t_reference": copy.deepcopy(sensor._t_reference),
        "failed": sensor._failed,
        "cov_a": sensor.bubbles_a._coverage,
        "cov_b": sensor.bubbles_b._coverage,
        "bub_rng_a": copy.deepcopy(sensor.bubbles_a._rng.bit_generator.state),
        "bub_rng_b": copy.deepcopy(sensor.bubbles_b._rng.bit_generator.state),
        "backside_x": sensor._backside_noise._x,
        "backside_rng": copy.deepcopy(
            sensor._backside_noise._rng.bit_generator.state),
        "foul_a": sensor.fouling_a._thickness_m,
        "foul_b": sensor.fouling_b._thickness_m,
        "r_trim_a": sensor.bridge_a.r_trim_ohm,
        "r_trim_b": sensor.bridge_b.r_trim_ohm,
        "leak_a": sensor.bridge_a.leakage_conductance_s,
        "leak_b": sensor.bridge_b.leakage_conductance_s,
    }


def _restore_sensor(sensor: MAFSensor, snapshot: dict) -> None:
    """Put a freshly built sensor into the snapshotted post-campaign state.

    The fresh sensor was constructed from the same config and seed, so
    its realized tolerances already match; only the mutable state the
    campaign advanced needs to be written back.
    """
    sensor._t_a = copy.deepcopy(snapshot["t_a"])
    sensor._t_b = copy.deepcopy(snapshot["t_b"])
    sensor._t_membrane = copy.deepcopy(snapshot["t_membrane"])
    sensor._t_reference = copy.deepcopy(snapshot["t_reference"])
    sensor._failed = snapshot["failed"]
    sensor.bubbles_a._coverage = snapshot["cov_a"]
    sensor.bubbles_b._coverage = snapshot["cov_b"]
    sensor.bubbles_a._rng.bit_generator.state = copy.deepcopy(
        snapshot["bub_rng_a"])
    sensor.bubbles_b._rng.bit_generator.state = copy.deepcopy(
        snapshot["bub_rng_b"])
    sensor._backside_noise._x = snapshot["backside_x"]
    sensor._backside_noise._rng.bit_generator.state = copy.deepcopy(
        snapshot["backside_rng"])
    sensor.fouling_a._thickness_m = snapshot["foul_a"]
    sensor.fouling_b._thickness_m = snapshot["foul_b"]
    sensor.bridge_a.r_trim_ohm = snapshot["r_trim_a"]
    sensor.bridge_b.r_trim_ohm = snapshot["r_trim_b"]
    sensor.bridge_a.leakage_conductance_s = snapshot["leak_a"]
    sensor.bridge_b.leakage_conductance_s = snapshot["leak_b"]


def build_calibrated_monitor(
    seed: int = 42,
    loop_rate_hz: float = 1000.0,
    overtemperature_k: float = 5.0,
    output_bandwidth_hz: float = 0.1,
    use_pulsed_drive: bool = True,
    bit_true_adc: bool = False,
    calibration_speeds_cmps: list[float] | None = None,
    fast: bool = False,
    sensor_config: MAFConfig | None = None,
    housing: SensorHousing | None = None,
    use_cache: bool = True,
    store=None,
) -> CalibratedSetup:
    """Build, calibrate and wrap a complete monitoring point.

    Parameters
    ----------
    seed:
        Instance seed; spawned into independent child streams (die
        tolerances, calibration bench, runtime rig) via SeedSequence.
    loop_rate_hz / overtemperature_k / output_bandwidth_hz:
        Loop and estimator settings (paper defaults).
    use_pulsed_drive:
        Operate (post-calibration) with the paper's pulsed drive.
    bit_true_adc:
        Use the bit-true ΣΔ + CIC chain (slow; E13 only).
    calibration_speeds_cmps:
        Campaign setpoints; defaults to the 0-250 cm/s ladder.
    fast:
        Shorter settle/average windows — for unit tests, not benches.
    sensor_config / housing:
        Override the die or the assembly under test.
    use_cache:
        Memoize the campaign per distinct configuration (default).
        Builds with a caller-owned ``housing`` always bypass the cache.
    store:
        Disk-backed :class:`repro.store.ArtifactStore` layered under
        the in-process LRU (defaults to the process-wide store from
        :func:`repro.store.get_default_store`, if any).  Cacheable LRU
        misses consult it before recalibrating and publish the fitted
        artifact after a campaign.
    """
    setup, _ = _build(
        seed, loop_rate_hz=loop_rate_hz, overtemperature_k=overtemperature_k,
        output_bandwidth_hz=output_bandwidth_hz,
        use_pulsed_drive=use_pulsed_drive, bit_true_adc=bit_true_adc,
        calibration_speeds_cmps=calibration_speeds_cmps, fast=fast,
        sensor_config=sensor_config, housing=housing, use_cache=use_cache,
        store=store)
    return setup


def _build(seed: int, *, loop_rate_hz: float = 1000.0,
           overtemperature_k: float = 5.0,
           output_bandwidth_hz: float = 0.1,
           use_pulsed_drive: bool = True, bit_true_adc: bool = False,
           calibration_speeds_cmps: list[float] | None = None,
           fast: bool = False, sensor_config: MAFConfig | None = None,
           housing: SensorHousing | None = None, use_cache: bool = True,
           store=None, pair: tuple[FlowCalibration, dict] | None = None,
           ) -> tuple[CalibratedSetup, tuple[FlowCalibration, dict]]:
    """:func:`build_calibrated_monitor`, also returning its
    ``(calibration, sensor snapshot)`` pair.

    With ``pair`` given (the :class:`repro.runtime.Session` restore),
    the LRU, the store and the campaign are all skipped: the fresh
    sensor is put straight into the pair's post-campaign state.
    """
    (die_ss, cal_platform_ss, cal_line_ss, cal_reference_ss,
     run_platform_ss, rig_line_ss, rig_reference_ss) = \
        np.random.SeedSequence(seed).spawn(7)
    sensor_cfg = sensor_config or MAFConfig(seed=_child_seed(die_ss))
    speeds = list(calibration_speeds_cmps or DEFAULT_CALIBRATION_SPEEDS_CMPS)
    cta_cfg = CTAConfig(overtemperature_k=overtemperature_k)
    settle_s = 0.3 if fast else 1.0
    average_s = 0.2 if fast else 0.5

    sensor = MAFSensor(sensor_cfg, housing=housing)
    cacheable = use_cache and housing is None and pair is None
    cache_key = (repr(sensor_cfg), seed, loop_rate_hz, overtemperature_k,
                 output_bandwidth_hz, use_pulsed_drive, bit_true_adc,
                 tuple(speeds), fast)
    cached = _CALIBRATION_CACHE.get(cache_key) if cacheable else None
    global _CACHE_HITS, _CACHE_MISSES
    registry = get_registry()
    if pair is not None:
        calibration, snapshot = pair
    elif cached is not None:
        _CACHE_HITS += 1
        if registry.enabled:
            registry.counter("station.calibration_cache.hits").inc()
        calibration, snapshot = cached
        _CALIBRATION_CACHE.move_to_end(cache_key)
    else:
        _CACHE_MISSES += 1
        if registry.enabled:
            registry.counter("station.calibration_cache.misses").inc()
        disk = (store or get_default_store()) if cacheable else None
        disk_key = canonical_key({
            "sensor": sensor_cfg.to_dict(),
            "seed": seed,
            "loop_rate_hz": loop_rate_hz,
            "overtemperature_k": overtemperature_k,
            "output_bandwidth_hz": output_bandwidth_hz,
            "use_pulsed_drive": use_pulsed_drive,
            "bit_true_adc": bit_true_adc,
            "speeds": speeds,
            "fast": fast,
        }) if disk is not None else None
        artifact = disk.get("calibration", disk_key) if disk is not None else None
        if artifact is not None:
            calibration = artifact["calibration"]
            snapshot = artifact["snapshot"]
        else:
            with get_tracer().span("scenarios.calibration_campaign",
                                   seed=seed):
                cal_platform = ISIFPlatform.for_anemometer(
                    loop_rate_hz=loop_rate_hz, bit_true_adc=bit_true_adc,
                    seed=_child_seed(cal_platform_ss))
                cal_controller = CTAController(sensor, cal_platform, cta_cfg)
                line = WaterLine(LineConfig(seed=_child_seed(cal_line_ss)))
                calibration = run_calibration(
                    cal_controller, speeds, line=line,
                    reference=Promag50(seed=_child_seed(cal_reference_ss)),
                    settle_s=settle_s, average_s=average_s)
            snapshot = _snapshot_sensor(sensor)
            if disk is not None:
                disk.put("calibration", disk_key,
                         {"calibration": calibration, "snapshot": snapshot})
        if cacheable:
            _CALIBRATION_CACHE[cache_key] = (calibration, snapshot)
            while len(_CALIBRATION_CACHE) > _CALIBRATION_CACHE_MAX:
                _CALIBRATION_CACHE.popitem(last=False)

    setup = _assemble(sensor, calibration, snapshot,
                      loop_rate_hz=loop_rate_hz, cta_cfg=cta_cfg,
                      output_bandwidth_hz=output_bandwidth_hz,
                      use_pulsed_drive=use_pulsed_drive,
                      bit_true_adc=bit_true_adc,
                      run_platform_ss=run_platform_ss,
                      rig_line_ss=rig_line_ss,
                      rig_reference_ss=rig_reference_ss)
    return setup, (calibration, snapshot)


def _assemble(sensor: MAFSensor, calibration: FlowCalibration,
              snapshot: dict, *, loop_rate_hz: float,
              cta_cfg: CTAConfig, output_bandwidth_hz: float,
              use_pulsed_drive: bool, bit_true_adc: bool,
              run_platform_ss: np.random.SeedSequence,
              rig_line_ss: np.random.SeedSequence,
              rig_reference_ss: np.random.SeedSequence) -> CalibratedSetup:
    """Put ``sensor`` in its post-campaign state and wrap it into a rig.

    Every build path ends here — an LRU hit, a store hit, a fresh
    campaign (where the restore rewrites the state the campaign left)
    and a Session restore — so they all hand back the same rig.
    """
    _restore_sensor(sensor, snapshot)
    monitor_cfg = MonitorConfig(
        loop_rate_hz=loop_rate_hz,
        cta=cta_cfg,
        output_bandwidth_hz=output_bandwidth_hz,
        use_pulsed_drive=use_pulsed_drive,
    )
    run_platform = ISIFPlatform.for_anemometer(
        loop_rate_hz=loop_rate_hz, bit_true_adc=bit_true_adc,
        seed=_child_seed(run_platform_ss))
    monitor = WaterFlowMonitor(sensor, calibration, monitor_cfg,
                               platform=run_platform)
    rig = TestRig(
        monitor,
        line=WaterLine(LineConfig(seed=_child_seed(rig_line_ss)),
                       turbulence_multiplier=sensor.housing.turbulence_multiplier()),
        reference=Promag50(seed=_child_seed(rig_reference_ss)))
    return CalibratedSetup(monitor=monitor, rig=rig, calibration=calibration)
