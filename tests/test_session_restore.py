"""A Session restores every run from its own calibration, at any N.

``Session.calibrate`` keeps each position's (calibration, sensor
snapshot) pair; ``Session.run`` rebuilds fresh rigs from those pairs
without touching the calibration LRU.  The fleets here are sized past a
shrunken LRU (2 entries, 3 rigs), the regime where a run that went back
to the LRU would re-run every campaign.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.runtime import BatchEngine, FleetSpec, MixedEngine, Session
from repro.station import scenarios
from repro.station.profiles import hold, staircase
from repro.station.scenarios import (calibration_cache_stats,
                                     clear_calibration_cache)

_SPEC = FleetSpec.homogeneous(3, seed=4321, fast_calibration=True,
                              calibration_speeds_cmps=[0.0, 25.0, 90.0, 250.0])
_PROFILE = staircase([0.0, 60.0], dwell_s=0.25)
_EVERY = 10


@pytest.fixture(autouse=True)
def small_lru(monkeypatch):
    """An LRU smaller than the fleet, emptied around every test."""
    clear_calibration_cache()
    monkeypatch.setattr(scenarios, "_CALIBRATION_CACHE_MAX", 2)
    yield
    clear_calibration_cache()


def _fields(result):
    return {name: np.asarray(getattr(result, name))
            for name in ("time_s",) + type(result).STACKED_FIELDS}


def _assert_bit_equal(got, ref):
    a, b = _fields(got), _fields(ref)
    assert sorted(a) == sorted(b)
    for name in b:
        assert a[name].tobytes() == b[name].tobytes(), name


def _first_run(**run_kwargs):
    with Session(fleet=_SPEC) as session:
        session.calibrate()
        return session.run(_PROFILE, record_every_n=_EVERY, **run_kwargs)


def test_repeated_runs_make_no_lru_lookup():
    with Session(fleet=_SPEC) as session:
        session.calibrate()
        after_calibrate = calibration_cache_stats()
        assert after_calibrate["misses"] == 3
        for engine in ("batch", "scalar", "batch"):
            session.run(_PROFILE, record_every_n=_EVERY, engine=engine)
        after_runs = calibration_cache_stats()
        assert after_runs["hits"] == after_calibrate["hits"]
        assert after_runs["misses"] == after_calibrate["misses"]
        timings = session.stats()["timings_s"]
        assert 0.0 < timings["restore_s"] <= timings["run_s"]


@pytest.mark.parametrize("engine", ["batch", "scalar"])
def test_repeated_runs_match_a_fresh_session(engine):
    reference = _first_run(engine=engine)
    with Session(fleet=_SPEC) as session:
        session.calibrate()
        for _ in range(2):
            _assert_bit_equal(
                session.run(_PROFILE, record_every_n=_EVERY, engine=engine),
                reference)


@pytest.mark.parallel
def test_repeated_sharded_runs_match_serial():
    reference = _first_run()
    with Session(fleet=_SPEC) as session:
        session.calibrate()
        for _ in range(2):
            _assert_bit_equal(
                session.run(_PROFILE, record_every_n=_EVERY, workers=2),
                reference)


def test_running_the_handles_elsewhere_leaves_the_session_pristine():
    reference = _first_run()
    with Session(fleet=_SPEC) as session:
        session.calibrate()
        BatchEngine([h.rig for h in session.monitors]).run(
            hold(120.0, 0.4), record_every_n=_EVERY)
        _assert_bit_equal(session.run(_PROFILE, record_every_n=_EVERY),
                          reference)
        _assert_bit_equal(session.run(_PROFILE, record_every_n=_EVERY),
                          reference)


@pytest.mark.durability
def test_checkpointed_session_resumes_bit_identically(tmp_path,
                                                      monkeypatch):
    profile = hold(50.0, 2.5)  # three 1000-step checkpoint windows
    with Session(fleet=_SPEC) as plain:
        plain.calibrate()
        plain.run(profile, record_every_n=_EVERY)
        reference = plain.run(profile, record_every_n=_EVERY)

    real_advance = MixedEngine.advance
    calls = {"n": 0}

    def dying_advance(self, *args, **kwargs):
        if calls["n"] == 1:
            raise KeyboardInterrupt("simulated process death")
        calls["n"] += 1
        return real_advance(self, *args, **kwargs)

    clear_calibration_cache()
    with Session(fleet=_SPEC, checkpoint_dir=tmp_path) as crashed:
        crashed.calibrate()
        monkeypatch.setattr(MixedEngine, "advance", dying_advance)
        with pytest.raises(KeyboardInterrupt):
            crashed.run(profile, record_every_n=_EVERY)
        monkeypatch.setattr(MixedEngine, "advance", real_advance)

    clear_calibration_cache()
    with Session(fleet=_SPEC, checkpoint_dir=tmp_path) as resumed:
        resumed.calibrate()
        before = calibration_cache_stats()
        got = resumed.run(profile, record_every_n=_EVERY, resume=True)
        assert calibration_cache_stats()["misses"] == before["misses"]
    _assert_bit_equal(got, reference)
