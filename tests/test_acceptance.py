"""End-to-end acceptance gate.

Each test exercises one headline capability at its stated tolerance and
prints a single ``[acceptance NN] PASS/FAIL - description`` line through
the terminal reporter, so a plain ``pytest -v`` run shows the verdict of
every criterion regardless of output capture.
"""

import math
import time

import numpy as np
import pytest

from statorguard import a64g2
from statorguard.a64g2 import AdaptiveRatioDetector, DetectorConfig, FixedRatioDetector
from statorguard.a64s import HEALTHY_SENTINEL, A64SEstimator
from statorguard.harness import SweepGrid, sweep_security, sweep_sensitivity
from statorguard.plantsim import (
    FaultSpec,
    HarmonicFrames,
    MachineConfig,
    Subharmonic64SConfig,
    constant_speed,
    grounding_resistor_sizing,
    ramp_speed,
    simulate_64g2_scenario,
    simulate_64s_timeseries,
    third_harmonic_solve,
)

import oracles
from oracles import tustin_coeffs


@pytest.fixture()
def announce(request):
    reporter = request.config.pluginmanager.getplugin("terminalreporter")

    def _line(num, ok, desc):
        text = f"[acceptance {num:02d}] {'PASS' if ok else 'FAIL'} - {desc}"
        if reporter is not None:
            reporter.ensure_newline()
            reporter.write_line(text)
        print(text)

    return _line


def test_criterion_01_hard_fault_detection(announce):
    desc = "hard neutral/terminal faults trip within 37 samples of onset"
    ok = False
    detail = ""
    try:
        started = time.perf_counter()
        trips = {}
        for seed, x in ((0, 0.0), (1, 1.0)):
            sim = simulate_64g2_scenario(
                MachineConfig(), FaultSpec(x=x, rf=50.0, t_on=0.27),
                duration=0.9, fs=1000.0, noise_std=0.05, seed=seed)
            trace = AdaptiveRatioDetector().run(sim.frames, sim.fs)
            trips[x] = trace.first_trip_index
        elapsed = time.perf_counter() - started
        detail = f"first trips {trips}, elapsed {elapsed:.2f} s"
        # learning window 12 + 25-sample phasor transition after onset
        ok = all(t is not None and 270 <= t <= 307 for t in trips.values()) \
            and elapsed < 5.0
    finally:
        announce(1, ok, desc)
    assert ok, detail


def test_criterion_02_learning_window_inhibit(announce):
    desc = "operate energy inhibited while learning; 2-sample crossover never trips"
    ok = False
    detail = ""
    try:
        cfg = DetectorConfig()
        rng = np.random.default_rng(0)
        # a record whose residuals are non-zero from the first frame
        learning = HarmonicFrames(v_p3=list(rng.uniform(1.0, 3.0, size=40)),
                                  v_n3=list(rng.uniform(1.0, 3.0, size=40)), valid=[True] * 40)
        operate = FixedRatioDetector(ratio=1.0, cfg=cfg).run(learning, 1000.0).operate
        inhibited = (operate[:cfg.window].tolist() == [0.0] * cfg.window
                     and all(jao > 0.0 for jao in operate[cfg.window:]))
        # residual appears for exactly 2 frames, then a restraint swell
        # ends the crossover before persistence can be met
        v_p3 = [10.0] * 60 + [10.0] * 2 + [100.0] * 78
        v_n3 = [10.0] * 60 + [14.0] * 2 + [100.0] * 78
        frames = HarmonicFrames(v_p3=v_p3, v_n3=v_n3, valid=[True] * 140)
        trace = FixedRatioDetector(ratio=1.0, cfg=cfg).run(frames, 1000.0)
        crossings = sum(
            jao > cfg.sensitivity * jar
            for jao, jar in zip(trace.operate, trace.restraint)
        )
        detail = f"inhibited={inhibited}, crossings={crossings}, tripped={trace.tripped}"
        ok = inhibited and crossings == 2 and not trace.tripped
    finally:
        announce(2, ok, desc)
    assert ok, detail


def test_criterion_03_ratio_filter_worked_example(announce):
    desc = "scalar ratio filter step reproduces the worked example exactly"
    ok = False
    detail = ""
    try:
        ratios, residuals = [], []
        variance = a64g2._kaf_track(1.0, 1.0, 0.0, 1.0, [1.0], [2.0], ratios, residuals)
        (rho_hat,), (residual,) = ratios, residuals
        gain = (rho_hat - 1.0) / residual
        detail = f"P={variance}, K={gain}, rho={rho_hat}, residual={residual}"
        ok = (variance == 0.5 and gain == 0.5 and rho_hat == 1.5
              and residual == 1.0)
    finally:
        announce(3, ok, desc)
    assert ok, detail


def test_criterion_04_ladder_matches_dense_solver(announce):
    desc = "closed-form winding ladder matches dense nodal solves to 1e-9"
    ok = False
    detail = ""
    try:
        started = time.perf_counter()
        rng = np.random.default_rng(42)
        worst = 0.0
        for trial in range(200):
            e3 = float(rng.uniform(1.0, 20.0))
            cs = float(rng.uniform(1e-6, 2e-5))
            ct = float(rng.uniform(0.0, 2e-6))
            rn = float(rng.uniform(100.0, 1000.0))
            ratio = float(rng.uniform(1.0, 4.0))
            alpha = float(rng.uniform(0.05, 0.95))
            m = int(rng.integers(8, 129))
            cfg = MachineConfig(e3=e3, cs=cs, ct=ct, turns_ratio=ratio, rn=rn,
                                segments=m, e3_coeffs=(1.0, 0.0, 0.0),
                                alpha_coeffs=(alpha, 0.0, 0.0))
            fault = None
            fault_node = None
            rf = None
            if trial % 2:
                fault_node = int(rng.integers(0, m + 1))
                rf = float(rng.choice([0.0, rng.uniform(1.0, 5000.0)]))
                fault = FaultSpec(x=fault_node / m, rf=rf)
            v_n, v_p = third_harmonic_solve(cfg, fault)
            o_n, o_p = oracles.dense_ladder_solve(
                e3, cs, ct, cfg.neutral_ground_ohms, m, alpha,
                fault_node=fault_node, rf=rf,
                omega=2.0 * math.pi * 3.0 * cfg.f1)
            for got, want in ((v_n, o_n), (v_p, o_p)):
                worst = max(worst, abs(got - want) / max(abs(want), 1e-3 * e3))
        elapsed = time.perf_counter() - started
        detail = f"worst relative error {worst:.3e}, elapsed {elapsed:.2f} s"
        ok = worst <= 1e-9 and elapsed < 10.0
    finally:
        announce(4, ok, desc)
    assert ok, detail


def test_criterion_05_blind_zone_interior(announce):
    desc = "low-resistance sweep reports one interior blind interval around 0.5"
    ok = False
    detail = ""
    try:
        grid = SweepGrid(rfs=(50.0,), loads=(0.5, 1.0), pfs=(1.0,))
        report = sweep_sensitivity(grid, {
            "seed": 0,
            "machine": {"ct": 0.0, "alpha_coeffs": [0.5, 0.0, 0.0]},
        })
        detail = f"blind zone {report.blind_zone}"
        ok = (
            len(report.blind_zone) == 1
            and report.blind_zone[0][0] <= 0.5 <= report.blind_zone[0][1]
            and 0.30 <= report.blind_zone[0][0]
            and report.blind_zone[0][1] <= 0.70
        )
    finally:
        announce(5, ok, desc)
    assert ok, detail


def _neutral_scale_rows(magnitude_name):
    from statorguard.harness import default_security_catalog

    catalog = [entry for entry in default_security_catalog()
               if entry["name"] == magnitude_name]
    assert len(catalog) == 1
    report = sweep_security(catalog, {"seed": 0})
    return {row["scheme"]: row for row in report.cells}, report


def test_criterion_06_security_contrast(announce):
    desc = "60% neutral scale trips only the fixed scheme; 12.5% trips neither"
    ok = False
    detail = ""
    try:
        heavy, _ = _neutral_scale_rows("neutral_scale_60")
        light, light_report = _neutral_scale_rows("neutral_scale_12p5")
        _, light_again = _neutral_scale_rows("neutral_scale_12p5")
        deterministic = light_report.digest() == light_again.digest()
        detail = (
            f"60%: fixed={heavy['ng64g2']['tripped']}, "
            f"adaptive={heavy['a64g2']['tripped']}; "
            f"12.5%: fixed={light['ng64g2']['tripped']} "
            f"margin={light['ng64g2']['margin']:.3f}, "
            f"adaptive={light['a64g2']['tripped']}; "
            f"deterministic={deterministic}"
        )
        ok = (
            heavy["ng64g2"]["tripped"]
            and not heavy["a64g2"]["tripped"]
            and not light["ng64g2"]["tripped"]
            and not light["a64g2"]["tripped"]
            and light["ng64g2"]["margin"] > 0.8
            and deterministic
        )
    finally:
        announce(6, ok, desc)
    assert ok, detail


def test_criterion_07_security_suite_clean(announce):
    desc = "full disturbance catalog causes zero adaptive misoperations"
    ok = False
    detail = ""
    try:
        report = sweep_security(None, {"seed": 0})
        adaptive_misops = [row for row in report.misoperations
                           if row["scheme"] in ("a64g2", "a64s")]
        detail = f"adaptive misoperations: {adaptive_misops}"
        ok = adaptive_misops == [] and len(report.cells) >= 20
    finally:
        announce(7, ok, desc)
    assert ok, detail


def test_criterion_08_grounding_resistor_sizing(announce):
    desc = "grounding resistor sizing gives 88.4 ohms (within 1% of 88)"
    ok = False
    detail = ""
    try:
        r = grounding_resistor_sizing(2.0, 60.0, 7.5e-6)
        detail = f"sized {r:.4f} ohm"
        ok = abs(r - 88.0) / 88.0 <= 0.01
    finally:
        announce(8, ok, desc)
    assert ok, detail


def test_criterion_09_identifiability(announce):
    desc = "insulation parameters identified to 2% (noiseless) / 5% (1% noise)"
    ok = False
    detail = ""
    try:
        cfg = Subharmonic64SConfig()
        truth = (cfg.rs, cfg.c0, cfg.rs * cfg.c0)
        errors = {}
        times = {}
        for label, noise in (("noiseless", 0.0), ("1%-noise", 0.01)):
            started = time.perf_counter()
            v, i = simulate_64s_timeseries(cfg, [], duration=1.0,
                                           noise_std=noise, seed=0)
            trace = A64SEstimator(cfg).run_timeseries(v, i)
            times[label] = time.perf_counter() - started
            got = trace.final_estimates()
            errors[label] = tuple(abs(g - t) / t for g, t in zip(got, truth))
        detail = f"relative errors {errors}, runtimes {times}"
        ok = (
            max(errors["noiseless"]) <= 0.02
            and max(errors["1%-noise"]) <= 0.05
            and max(times.values()) < 5.0
        )
    finally:
        announce(9, ok, desc)
    assert ok, detail


def test_criterion_10_fault_response_and_replay(announce):
    desc = "faulted resistance tracks the parallel value; offline verdicts match"
    ok = False
    detail = ""
    try:
        cfg = Subharmonic64SConfig()
        onset = 1600
        failures = []
        for cell, (rf, x) in enumerate(
            (rf, x) for rf in (90.0, 500.0, 1000.0) for x in (0.0, 0.25, 0.67, 1.0)
        ):
            events = [FaultSpec(x=x, rf=rf, t_on=onset / 1000.0)]
            runs = {}
            for label, speed in (("online", constant_speed(1.0)), ("offline", None)):
                v, i = simulate_64s_timeseries(
                    cfg, events, duration=2.5, noise_std=0.01, seed=cell,
                    speed_profile=speed)
                runs[label] = A64SEstimator(cfg).run_timeseries(v, i)
            want = cfg.rs * rf / (cfg.rs + rf)
            rs_got = runs["online"].final_estimates()[0]
            latency = (runs["online"].first_trip_index or 10**9) - onset
            if abs(rs_got - want) / want > 0.05:
                failures.append(f"rf={rf} x={x}: rs {rs_got:.1f} vs {want:.1f}")
            if not runs["online"].tripped or not 0 < latency <= 500:
                failures.append(f"rf={rf} x={x}: online latency {latency}")
            if runs["offline"].tripped != runs["online"].tripped:
                failures.append(f"rf={rf} x={x}: offline verdict differs")
        detail = "; ".join(failures) or "all 12 cells tracked, tripped, replayed"
        ok = not failures
    finally:
        announce(10, ok, desc)
    assert ok, detail


def test_criterion_11_discretization_round_trip(announce):
    desc = "bilinear map and parameter extraction invert each other to 1e-12"
    ok = False
    detail = ""
    try:
        n = 2.0
        worst_tau = 0.0
        worst_rs = 0.0
        for tau0 in np.linspace(0.0, 0.1, 41):
            for rs in np.logspace(1.0, 5.0, 41):
                kd, a0 = tustin_coeffs(rs / n**2, float(tau0), 1e-3)
                # smoother bypassed (alpha 1), no memories
                tau_hat, rs_hat, *_ = oracles._extract_step(a0, kd, None, None, 1.0, 1e-3,
                                                            n**2 / 1e-3)
                worst_tau = max(worst_tau,
                                abs(tau_hat - tau0) / max(tau0, 1e-3))
                worst_rs = max(worst_rs, abs(rs_hat - rs) / rs)
        detail = f"worst tau0 error {worst_tau:.3e}, worst rs error {worst_rs:.3e}"
        ok = worst_tau <= 1e-12 and worst_rs <= 1e-12
    finally:
        announce(11, ok, desc)
    assert ok, detail


def _located_position(cfg, x, rf, seed):
    onset = 1450
    v, i = simulate_64s_timeseries(
        cfg, [FaultSpec(x=x, rf=rf, t_on=onset / 1000.0)], duration=2.35,
        noise_std=0.01, seed=seed, speed_profile=constant_speed(1.0))
    trace = A64SEstimator(cfg).run_timeseries(v, i)
    return trace.final_location()


def test_criterion_12_locator_accuracy(announce):
    desc = "located position within 0.05 across the winding; anchors within 0.03"
    ok = False
    detail = ""
    try:
        cfg = Subharmonic64SConfig()
        failures = []
        worst = 0.0
        for seed, (rf, x) in enumerate(
            (rf, round(0.1 * k, 1))
            for rf in (50.0, 90.0, 500.0, 1000.0) for k in range(11)
        ):
            x_hat = _located_position(cfg, x, rf, seed)
            err = abs(x_hat - x)
            worst = max(worst, err)
            if err > 0.05:
                failures.append(f"rf={rf} x={x}: x_hat={x_hat:.3f}")
        for rf, x in ((90.0, 0.028), (90.0, 0.927), (1000.0, 0.25)):
            x_hat = _located_position(cfg, x, rf, seed=777)
            if abs(x_hat - x) > 0.03:
                failures.append(f"anchor rf={rf} x={x}: x_hat={x_hat:.3f}")
        v, i = simulate_64s_timeseries(cfg, [], duration=1.6, noise_std=0.01,
                                       seed=0, speed_profile=constant_speed(1.0))
        healthy = A64SEstimator(cfg).run_timeseries(v, i)
        if healthy.final_location() != HEALTHY_SENTINEL:
            failures.append(f"healthy location {healthy.final_location()}")
        detail = "; ".join(failures) or f"worst grid error {worst:.3f}"
        ok = not failures
    finally:
        announce(12, ok, desc)
    assert ok, detail


def test_criterion_13_low_speed_coincidence(announce):
    desc = "speed dwell at the injection frequency: no trip, estimate recovers"
    ok = False
    detail = ""
    try:
        cfg = Subharmonic64SConfig()
        v, i = simulate_64s_timeseries(
            cfg, [], duration=3.0, noise_std=0.01, seed=0,
            speed_profile=ramp_speed(1.0, 1.5, 1.0, 1.0 / 3.0))
        trace = A64SEstimator(cfg).run_timeseries(v, i)
        late = [
            rs for idx, rs, okf in zip(trace.t_index, trace.rs_hat, trace.valid)
            if okf and idx >= 2000
        ]
        worst = max(abs(rs - cfg.rs) / cfg.rs for rs in late)
        detail = f"tripped={trace.tripped}, worst late rs error {worst:.4f}"
        ok = not trace.tripped and late and worst <= 0.05
    finally:
        announce(13, ok, desc)
    assert ok, detail


def test_criterion_14_covariance_health(announce):
    desc = "1e5 random filter steps keep covariance PD and parameters non-negative"
    ok = False
    detail = ""
    try:
        rng = np.random.default_rng(7)
        phis = rng.normal(0.0, 10.0, size=(100_000, 2))
        targets = rng.normal(0.0, 100.0, size=100_000)
        # theta = 0, P = I, Q = 1e-4, R = 0.25; smoother bypassed (alpha 1)
        a0, kd, p00, p01, p11 = 0.0, 0.0, 1.0, 0.0, 1.0
        memories = (None, None)
        healthy = True
        for (phi0, phi1), target in zip(phis.tolist(), targets.tolist()):
            a0, kd, p00, p01, p11, _ = oracles._theta_step(a0, kd, p00, p01, p11, 1e-4, 0.25,
                                                           target, phi0, phi1)
            # the kernel keeps one off-diagonal term, so the covariance is
            # symmetric by construction
            if not (p00 > 0.0 and p00 * p11 - p01 ** 2 > 0.0):
                healthy = False
                break
            tau0, rs, *memories, _ = oracles._extract_step(a0, kd, *memories, 1.0, 1e-3,
                                                           2.0**2 / 1e-3)
            if tau0 < 0.0 or rs < 0.0:
                healthy = False
                break
        detail = f"healthy={healthy} after {100_000} steps"
        ok = healthy
    finally:
        announce(14, ok, desc)
    assert ok, detail
