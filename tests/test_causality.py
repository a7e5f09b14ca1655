"""Causality: a protection function cannot see the future.  A replay of a
record's first n samples gives, in every trace column, bit for bit the
first n rows of the full record's replay."""

import copy
import functools
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from statorguard import a64s, harness
from statorguard.harness import run_scenario
from statorguard.signalcore import TimeSeries

CAL = {"ratio": 1.233, "beta_ng": 0.155}
# a 64s baseline sealed at used sample 400, so that a 1.2 s record holds
# the seal, the fault and the trip
_ESTIMATOR = {"detector": {"baseline_start": 300, "baseline_window": 100, "persistence": 10}}
_SEAL = 400
# chunks of 128 used samples put several chunk edges in a 64s record
_LOWERED_CHUNK = 128
# short simulated records of either kind, with and without a fault and a
# disturbance (for 64s, a speed ramp); the replay reads no disturbances
_RECORDS = {
    "64g2 fault": {"calibration": CAL, "fault": {"x": 0.0, "rf": 50.0, "t_on": 0.4},
                   "profile": {"duration": 0.8}},
    "64g2 disturbed": {"calibration": CAL, "profile": {"duration": 0.8},
                       "disturbances": [{"kind": "terminal_pt_scale", "magnitude": 0.05,
                                         "t_on": 0.3, "t_off": 0.5}]},
    "64s fault": {"kind": "64s", "estimator": _ESTIMATOR,
                  "profile": {"duration": 1.2, "speed": 1.0},
                  "fault": {"x": 0.3, "rf": 1000.0, "t_on": 0.6}},
    "64s ramp": {"kind": "64s", "estimator": _ESTIMATOR,
                 "profile": {"duration": 1.2, "speed": {"t_start": 0.2, "t_end": 0.9,
                                                        "start": 1.0, "end": 0.0}}},
}
# the shortest replay: the 64s injection phasor's window of 100 samples
_SHORTEST = 100


def _cut(channels, n):
    return {name: TimeSeries(fs=ts.fs, t0=ts.t0, samples=np.asarray(ts.samples)[:n])
            for name, ts in channels.items()}


def _either_side(valid, k):
    """The cuts that end just before and just after the k-th (from 0)
    valid sample of a trace."""
    at = int(np.flatnonzero(valid)[k])
    return [at, at + 1]


@functools.cache
def _full(key, seed):
    """The replay config, channels, onset sample and full replay of a
    record, with the cuts its kernels care about."""
    config = {**copy.deepcopy(_RECORDS[key]), "seed": seed}
    kind, channels, onset = harness.simulate_waveforms(config)
    config.pop("disturbances", None)
    with mock.patch.object(a64s, "_CHUNK", _LOWERED_CHUNK):
        full = run_scenario(config, input_channels=channels)
    if kind == "64g2":
        # either side of the learning window: the first operate energy
        window = harness._read(config).detector.window
        edges = _either_side(full.traces["a64g2"].valid, window)
    else:
        valid = full.traces["a64s"].valid
        edges = [cut for k in (_SEAL, _LOWERED_CHUNK, 2 * _LOWERED_CHUNK)
                 for cut in _either_side(valid, k)]
    return config, channels, onset, full, edges


def _bits(column):
    column = np.asarray(column)
    return column.view(np.int64) if column.dtype == np.float64 else column


@settings(max_examples=60, deadline=None)
@given(key=st.sampled_from(sorted(_RECORDS)), seed=st.integers(0, 1), data=st.data())
def test_a_replayed_prefix_is_the_prefix_of_the_full_replay(key, seed, data):
    config, channels, onset, full, edges = _full(key, seed)
    length = len(next(iter(channels.values())))
    n = data.draw(st.sampled_from(edges) | st.integers(_SHORTEST, length), label="n")
    # a replay refuses a fault label past its end
    if onset is not None and n <= onset:
        config = {k: v for k, v in config.items() if k != "fault"}
    with mock.patch.object(a64s, "_CHUNK", _LOWERED_CHUNK):
        part = run_scenario(config, input_channels=_cut(channels, n))
    assert part.traces.keys() == full.traces.keys()
    for scheme, trace in full.traces.items():
        mine = part.traces[scheme]
        assert mine.valid == trace.valid[:n], scheme
        for name, column in trace.columns().items():
            assert np.array_equal(_bits(mine.columns()[name]), _bits(column)[:n]), (scheme, name)
        first = trace.first_trip_index
        if first is not None and first < n:
            assert mine.first_trip_index == first, scheme
    # the 64s baseline, once the prefix holds the samples it is sealed over
    if "a64s" in full.traces:
        assert part.traces["a64s"].baseline in (None, full.traces["a64s"].baseline)


def test_the_records_trip_and_hold_invalid_frames():
    """The property compares trips: each fault record trips after its
    onset, and the disturbed 64g2 record trips on its PT dropout, whose
    frames are invalid."""
    for key in ("64g2 fault", "64g2 disturbed", "64s fault"):
        _, _, onset, full, _ = _full(key, 0)
        for scheme, trace in full.traces.items():
            assert trace.first_trip_index > (onset or 0), (key, scheme)
    assert not all(_full("64g2 disturbed", 0)[3].traces["a64g2"].valid)
