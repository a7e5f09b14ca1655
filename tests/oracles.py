"""Independent reference implementations used to cross-check the
package's fast paths.

Everything here is deliberately naive: dense linear-system solves,
brute-force sums, and closed-form batch least squares.  Slow and
obvious beats fast and clever for an oracle.
"""

import csv
import dataclasses
import io
import math
from collections import namedtuple
from pathlib import Path

from typing import Optional, Sequence, Tuple

import numpy as np
import scipy.signal
import scipy.sparse
import scipy.sparse.linalg

from statorguard import plantsim
from statorguard.a64s import HEALTHY_SENTINEL, CalibrationError
from statorguard.plantsim import Subharmonic64SConfig
from statorguard.signalcore import TimeSeries


def synth_waveform(
    tones: Sequence[Tuple[float, float, float]],
    fs: float,
    duration: float,
    noise_std: float = 0.0,
    seed: Optional[int] = None,
    t0: float = 0.0,
) -> TimeSeries:
    """Sum of cosine tones plus white Gaussian noise.

    Args:
        tones: iterable of (freq_hz, amplitude, phase_rad); each tone is
            amplitude*cos(2*pi*freq*t + phase) evaluated at absolute time.
        fs: sample rate, must exceed twice the highest tone frequency.
        duration: length in seconds; the sample count is round(duration*fs).
        noise_std: standard deviation of additive white Gaussian noise.
        seed: RNG seed for the noise; ignored when noise_std == 0.
    """
    if not fs > 0:
        raise ValueError(f"fs must be positive, got {fs}")
    if duration <= 0:
        raise ValueError(f"duration must be positive, got {duration}")
    if noise_std < 0:
        raise ValueError(f"noise_std must be >= 0, got {noise_std}")
    tones = list(tones)
    for f, _, _ in tones:
        if f < 0:
            raise ValueError(f"tone frequency must be >= 0, got {f}")
        if fs <= 2.0 * f:
            raise ValueError(
                f"fs={fs} cannot represent a {f} Hz tone (needs fs > {2 * f})"
            )
    n = int(round(duration * fs))
    if n < 1:
        raise ValueError("duration too short for one sample")
    t = t0 + np.arange(n) / fs
    x = np.zeros(n)
    for f, amp, ph in tones:
        x += amp * np.cos(2.0 * np.pi * f * t + ph)
    if noise_std > 0:
        rng = np.random.default_rng(seed)
        x = x + rng.normal(0.0, noise_std, size=n)
    return TimeSeries(fs=fs, t0=t0, samples=x)


def complex_values(phasors):
    """A PhasorSeries' frames as complex phasors magnitude*exp(j*phase)."""
    return phasors.magnitude * np.exp(1j * phasors.phase)


def subharmonic_transfer(
    cfg: Subharmonic64SConfig, rs_eff: float, omega: float
) -> Tuple[complex, complex]:
    """Injection-circuit transfer functions (H1, H2) at angular frequency
    omega: H1 = I_N/V_s in siemens, H2 = V_N/V_s dimensionless, for
    machine insulation resistance rs_eff (primary ohms).

    H1 = K1*(1 + tau0*s)/(1 + a*tau0*s), H2 = K2/(1 + a*tau0*s) with
    tau0 = rs_eff*c0 and the gains set by the resistive divider among the
    band-pass resistance, grounding resistor, and referred insulation.
    """
    if rs_eff <= 0:
        raise ValueError("rs_eff must be positive")
    n2 = cfg.turns_ratio**2
    denom = n2 * cfg.rn * cfg.rbpf + rs_eff * (cfg.rn + cfg.rbpf)
    k1 = n2 * cfg.rn / denom
    k2 = cfg.rn * rs_eff / denom
    a = n2 * cfg.rn * cfg.rbpf / denom
    tau0 = rs_eff * cfg.c0
    s = 1j * omega
    h1 = k1 * (1.0 + tau0 * s) / (1.0 + a * tau0 * s)
    h2 = k2 / (1.0 + a * tau0 * s)
    return h1, h2


def tustin_coeffs(k3: float, tau0: float, period: float) -> Tuple[float, float]:
    """Bilinear-map coefficients (drive gain, feedback coefficient) of a
    first-order gain/time-constant load sampled at the given period."""
    if period <= 0:
        raise ValueError("period must be positive")
    if tau0 < 0:
        raise ValueError("tau0 must be >= 0")
    denom = period + 2.0 * tau0
    return k3 * period / denom, (period - 2.0 * tau0) / denom


def dense_ladder_solve(e3, cs, ct, r_ground, segments, alpha,
                       fault_node=None, rf=None, omega=2.0 * np.pi * 180.0):
    """Neutral/terminal third-harmonic voltages from a full modified
    nodal analysis solve of the winding ladder.

    Node 0 is the neutral (grounding resistor to earth), node `segments`
    the terminal (lumped terminal-side capacitance), each winding node
    carries cs/segments to ground, and winding segment i is an ideal EMF
    source raising node i by e3*(c_i - c_{i-1}) above node i-1, where
    c(x) is the piecewise-linear cumulative EMF profile with midpoint
    split alpha.  Unknowns are all node voltages plus all source branch
    currents (and a fault branch current when a fault is given), so this
    shares no algebra with the package's closed-form reduction.
    """
    m = int(segments)
    xs = np.arange(m + 1) / m
    c = np.where(xs <= 0.5, 2.0 * xs * alpha,
                 (2.0 * xs - 1.0) + (2.0 - 2.0 * xs) * alpha)
    y = np.zeros(m + 1, dtype=complex)
    y[1:] = 1j * omega * cs / m
    y[m] += 1j * omega * ct
    y[0] += 1.0 / r_ground

    # unknowns: v_0..v_m, J_1..J_m (J_i flows from node i-1 into node i),
    # plus J_f for the fault branch when present
    n_unknown = (m + 1) + m + (1 if fault_node is not None else 0)
    a = scipy.sparse.lil_matrix((n_unknown, n_unknown), dtype=complex)
    b = np.zeros(n_unknown, dtype=complex)
    jcol = lambda i: (m + 1) + (i - 1)

    # KCL at node 0: -J_1 - y_0 v_0 = 0
    a[0, 0] = -y[0]
    a[0, jcol(1)] = -1.0
    # KCL at interior node i: J_i - J_{i+1} - y_i v_i = 0
    for i in range(1, m):
        a[i, i] = -y[i]
        a[i, jcol(i)] = 1.0
        a[i, jcol(i + 1)] = -1.0
    # KCL at terminal node m: J_m - y_m v_m = 0
    a[m, m] = -y[m]
    a[m, jcol(m)] = 1.0
    # source rows: v_i - v_{i-1} = e3*(c_i - c_{i-1})
    for i in range(1, m + 1):
        row = m + i
        a[row, i] = 1.0
        a[row, i - 1] = -1.0
        b[row] = e3 * (c[i] - c[i - 1])
    if fault_node is not None:
        jf = n_unknown - 1
        # fault branch from node k to earth: v_k - rf*J_f = 0
        a[jf, fault_node] = 1.0
        a[jf, jf] = -float(rf)
        a[fault_node, jf] += -1.0

    solution = scipy.sparse.linalg.spsolve(a.tocsr(), b)
    return solution[0], solution[m]


def brute_force_phasor(x, fs, f0, n_window, k):
    """Single-bin DFT phasor of samples x[k-n_window+1 .. k] against the
    cosine convention A*cos(2*pi*f0*t + phi), evaluated longhand."""
    seg = np.asarray(x[k - n_window + 1: k + 1], dtype=float)
    t = (np.arange(k - n_window + 1, k + 1)) / fs
    z = (2.0 / n_window) * np.sum(seg * np.exp(-1j * 2.0 * np.pi * f0 * t))
    return z


def block_recursion_phasor(ts: TimeSeries, f0: float, n_win: int):
    """Magnitude and phase of the sliding single-bin DFT of ts over n_win
    samples, as extract_phasor computed them before it wrote its window
    sums in place: an exact sum every 10 windows, cumulative adds and
    drops between, zeros padded in front, scaled and then masked."""
    n = len(ts)
    t = ts.times()
    y = ts.samples * np.exp(-2j * np.pi * f0 * t)
    sums = np.zeros(n, dtype=complex)
    n_out = n - n_win + 1
    block = 10 * n_win
    out = np.empty(n_out, dtype=complex)
    for s in range(0, n_out, block):
        e = min(s + block, n_out)
        anchor = y[s : s + n_win].sum()
        out[s] = anchor
        if e > s + 1:
            add = np.cumsum(y[s + n_win : e - 1 + n_win])
            drop = np.cumsum(y[s : e - 1])
            out[s + 1 : e] = anchor + add - drop
    sums[n_win - 1 :] = out
    phasor = (2.0 / n_win) * sums
    magnitude = np.abs(phasor)
    phase = np.angle(phasor)
    valid = np.zeros(n, dtype=bool)
    valid[n_win - 1 :] = True
    magnitude[~valid] = 0.0
    phase[~valid] = 0.0
    return magnitude, phase


def per_sample_64g2_waves(cfg, fault, disturbances, load_pu, pf, duration, fs,
                          noise_std, seed):
    """The terminal and neutral waveforms and the in-band speed mask of a
    64G2 scenario, with the ladder solved at every sample (healthy and
    faulted over the whole record) and the two joined by np.where at the
    fault onset, as simulate_64g2_scenario did before it solved per run."""
    n = int(round(duration * fs))
    dt = 1.0 / fs
    t = np.arange(n) * dt
    load_t, pf_t, speed_t, scale_n, scale_p = plantsim._disturbance_trajectories(
        t, load_pu, pf, disturbances)
    v_n_t, v_p_t = plantsim.third_harmonic_solve(cfg, None, load_t, pf_t, speed_t)
    onset = None if fault is None else fault.onset_index(fs, n)
    if onset is not None:
        v_n_f, v_p_f = plantsim.third_harmonic_solve(cfg, fault, load_t, pf_t, speed_t)
        faulted = np.arange(n) >= onset
        v_n_t = np.where(faulted, v_n_f, v_n_t)
        v_p_t = np.where(faulted, v_p_f, v_p_t)
    theta = 2.0 * math.pi * 3.0 * cfg.f1 * np.cumsum(speed_t) * dt
    wave_p = np.abs(v_p_t) * np.cos(theta + np.angle(v_p_t)) * scale_p
    wave_n = np.abs(v_n_t) * np.cos(theta + np.angle(v_n_t)) * scale_n
    if noise_std > 0:
        rng = np.random.default_rng(seed)
        wave_p = wave_p + rng.normal(0.0, noise_std, size=n)
        wave_n = wave_n + rng.normal(0.0, noise_std, size=n)
    return wave_p, wave_n, np.abs(speed_t - 1.0) <= 0.2


def batch_scalar_rls_error(rho0_error, v_sequence, prior_variance, meas_noise):
    """Exact estimation error of a scalar ratio KAF with zero process
    noise after consuming v_sequence: recursive least squares has the
    closed form e(t) = e(0) / (1 + P0 * sum(v^2) / R)."""
    s = float(np.sum(np.square(np.asarray(v_sequence, dtype=float))))
    return rho0_error / (1.0 + prior_variance * s / meas_noise)


def batch_vector_rls_error(theta0_error, phis, prior_cov, meas_noise):
    """Exact error of a vector KAF with zero process noise: the batch
    information-form solution e(t) = (P0^-1 + sum(phi phi^T)/R)^-1 P0^-1 e(0)."""
    phis = np.asarray(phis, dtype=float)
    info = np.linalg.inv(prior_cov) + phis.T @ phis / meas_noise
    return np.linalg.solve(info, np.linalg.inv(prior_cov) @ np.asarray(theta0_error))


def difference_equation_response(kd, a0, i_n):
    """Drive v[t] = -a0*v[t-1] + kd*(i_n[t] + i_n[t-1]) with v[0] = kd*i_n[0]
    (zero pre-history), returning the full v sequence."""
    i_n = np.asarray(i_n, dtype=float)
    v = np.zeros_like(i_n)
    v[0] = kd * i_n[0]
    for t in range(1, len(i_n)):
        v[t] = -a0 * v[t - 1] + kd * (i_n[t] + i_n[t - 1])
    return v


def lfilter_node_voltage(cfg, events, duration, fs):
    """Clean neutral node voltage of the 64S injection circuit, each
    stretch of constant machine conductance run through
    scipy.signal.lfilter as the trapezoid filter b = (h, h)/a0c,
    a = (1, -(1 - h*g)/a0c), its state seeded from the previous stretch's
    last drive sample and node voltage.  A bolted fault clamps the node."""
    n = int(round(duration * fs))
    dt = 1.0 / fs
    t = np.arange(n) * dt
    vs = cfg.vs_rms * math.sqrt(2.0) * np.sin(2.0 * math.pi * cfg.f_inj * t)
    n2 = cfg.turns_ratio**2
    c_ref = n2 * cfg.c0
    g_fixed = 1.0 / cfg.rbpf + 1.0 / cfg.rn
    onsets = [ev.onset_index(fs, n) for ev in events]
    bounds = sorted({0} | {k for k in onsets if k is not None}) + [n]
    v_node = np.empty(n)
    v_prev = drive_prev = 0.0
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if hi <= lo:
            continue
        g_machine = 1.0 / cfg.rs
        for ev, k_on in zip(events, onsets):
            if k_on is not None and k_on <= lo:
                g_machine = math.inf if ev.rf == 0.0 else g_machine + 1.0 / ev.rf
        drive = vs[lo:hi] / cfg.rbpf
        if math.isinf(g_machine):
            v_node[lo:hi] = 0.0
            v_prev = 0.0
        else:
            g_total = g_fixed + g_machine * n2
            h = dt / (2.0 * c_ref)
            a0c = 1.0 + h * g_total
            b = np.array([h, h]) / a0c
            a = np.array([1.0, -(1.0 - h * g_total) / a0c])
            zi = np.array([b[1] * drive_prev - a[1] * v_prev])
            v_node[lo:hi], _ = scipy.signal.lfilter(b, a, drive, zi=zi)
            v_prev = v_node[hi - 1]
        drive_prev = drive[-1]
    return v_node


def windowed_energy(values, window, t):
    """Sum of squares of values[t-window .. t] done longhand."""
    lo = t - window
    return float(sum(float(v) ** 2 for v in values[lo: t + 1]))


def sum_left_to_right(values):
    """values added one at a time, oldest first, with no compensation
    (the builtin sum compensates floats from Python 3.12 on)."""
    total = 0.0
    for v in values:
        total += v
    return total


_RatioFilter = namedtuple("_RatioFilter", "rho_hat variance")


def naive_ratio_run(v_p3, v_n3, valid, window, sensitivity, hold, ratio=None, kaf=None):
    """Either 64G2 ratio scheme frame by frame, longhand: the ratio filter
    is a frozen tuple rebuilt on every update, and the operate and
    restraint energies are summed afresh from the raw residuals and
    neutral magnitudes of the last window+1 valid frames, added left to
    right.

    kaf (process noise, measurement noise, initial variance) selects the
    adaptive scheme, whose filter starts at the first valid frame from
    ratio or, when that is None, from that frame's own ratio.  Without
    it, ratio is the fixed scheme's frozen setting.  Invalid frames
    repeat the last ratio and energies with a zero residual.  The
    restraint column is the record's, summed and checked (finite and
    >= 0, or ValueError) before the scheme runs.  Returns the per-frame
    columns rho_hat, residual, operate, restraint and trip.
    """
    out = {name: [] for name in ("rho_hat", "residual", "operate", "restraint", "trip")}
    vn3s = []
    restraint = 0.0
    for vn, ok in zip(v_n3, valid):
        if ok:
            vn3s.append(vn)
            restraint = sum_left_to_right(v * v for v in vn3s[-(window + 1):])
        out["restraint"].append(restraint)
    for k, restraint in enumerate(out["restraint"]):
        if not 0.0 <= restraint < math.inf:
            raise ValueError(f"restraint must be finite and >= 0, got {restraint!r} "
                             f"at frame {k}")
    filt = None
    residuals = []
    t = streak = 0
    tripped = False
    operate = 0.0
    for vp, vn, ok, jar in zip(v_p3, v_n3, valid, out["restraint"]):
        residual = 0.0
        if ok:
            if kaf is None:
                residual = vn - ratio * vp
            else:
                process_noise, measurement_noise, initial_variance = kaf
                if filt is None:
                    if ratio is not None:
                        filt = _RatioFilter(ratio, initial_variance)
                    else:
                        filt = _RatioFilter(vn / vp if vp > 0 else 0.5, initial_variance)
                variance = (filt.variance * measurement_noise
                            / (measurement_noise + filt.variance * vp**2) + process_noise)
                gain = variance * vp / measurement_noise
                residual = vn - filt.rho_hat * vp
                filt = _RatioFilter(filt.rho_hat + gain * residual, variance)
            t += 1
            residuals.append(residual)
            if t <= window:
                operate = 0.0
            else:
                operate = sum_left_to_right(r * r for r in residuals[-(window + 1):])
            if not tripped:
                if operate > sensitivity * jar:
                    streak += 1
                else:
                    streak = 0
                if streak >= hold:
                    tripped = True
        if filt is not None:
            out["rho_hat"].append(filt.rho_hat)
        else:
            out["rho_hat"].append(ratio or 0.0)
        out["residual"].append(residual)
        out["operate"].append(operate)
        out["trip"].append(tripped)
    return out


def plain_fields(record):
    """A dataclass record's fields as plain values, each array as its
    dtype and its values, so that two records compare with ==."""
    fields = {}
    for field in dataclasses.fields(record):
        value = getattr(record, field.name)
        fields[field.name] = ((value.dtype.str, value.tolist()) if isinstance(value, np.ndarray)
                              else value)
    return fields


def margin_at(operate, floor):
    """operate/floor, infinite where the floor underflowed to 0."""
    try:
        return operate / floor
    except ZeroDivisionError:
        return math.inf


def naive_margin(trace):
    """A ratio-scheme trace's margin as a post-pass over its operate and
    restraint columns: the largest operate/(sensitivity*restraint) over
    the frames whose restraint is positive."""
    worst = 0.0
    for jao, jar in zip(np.asarray(trace.operate).tolist(), np.asarray(trace.restraint).tolist()):
        if jar <= 0.0:
            continue
        worst = max(worst, margin_at(jao, trace.sensitivity * jar))
    return worst


def naive_a64s_run(v_n, i_n, v_n60, valid, fs, turns_ratio, un, r_n, f1, cfg):
    """The full 64S estimation chain written longhand, with the 2-state
    filter in its numpy matrix form (covariance shrink with an outer
    product, explicit re-symmetrization, gain from the updated
    covariance) and the capacitance filter as the textbook scalar update.

    cfg is an A64SEstimatorConfig.  Follows the estimator's rules: an
    invalid sample clears the regression memory and the next valid one
    only primes it; the baseline is the median of the resistance over its
    window of used samples; a trip needs persistence consecutive used
    samples below drop_fraction of it and re-opens the filter covariance
    and the smoothers once.  Returns the per-sample columns and the
    baseline.
    """
    period = 1.0 / fs
    det = cfg.detector
    alpha = 1.0 - np.exp(-cfg.smoothing_rate * period)
    theta = np.zeros(2)
    cov = cfg.theta_initial_variance * np.eye(2)
    c0, c0_var = cfg.c0_initial, cfg.c0_initial_variance
    ratio_mem = gain_mem = None
    tau0 = rs = 0.0
    prev = None
    rs_used = []
    baseline = None
    streak = 0
    tripped = False
    out = {k: [] for k in ("a0_hat", "kd_hat", "tau0_hat", "rs_hat", "c0_hat",
                           "x_hat", "trip", "valid")}
    for vn, cur, v60, ok in zip(v_n, i_n, v_n60, valid):
        x = 2.0
        used = ok and prev is not None
        if not ok:
            prev = None
        elif prev is None:
            prev = (vn, cur)
        else:
            phi = np.array([-prev[0], prev[1] + cur])
            prev = (vn, cur)
            p_phi = cov @ phi
            cov = (cov - np.outer(p_phi, p_phi) / (cfg.theta_measurement_noise + phi @ p_phi)
                   + cfg.theta_process_noise * np.eye(2))
            cov = 0.5 * (cov + cov.T)
            theta = theta + (cov @ phi) / cfg.theta_measurement_noise * (vn - phi @ theta)
            a0, kd = float(theta[0]), float(theta[1])

            if abs(1.0 + a0) >= 1e-12:
                raw = (1.0 - a0) / (1.0 + a0)
                ratio_mem = raw if ratio_mem is None else ratio_mem + alpha * (raw - ratio_mem)
            tau0 = 0.5 * period * max(ratio_mem or 0.0, 0.0)
            raw = (period + 2.0 * tau0) * kd
            gain_mem = raw if gain_mem is None else gain_mem + alpha * (raw - gain_mem)
            rs = turns_ratio**2 / period * max(gain_mem, 0.0)

            c0_var = (c0_var * cfg.c0_measurement_noise
                      / (cfg.c0_measurement_noise + rs**2 * c0_var) + cfg.c0_process_noise)
            c0 = c0 + c0_var * rs / cfg.c0_measurement_noise * (tau0 - rs * c0)

            rs_used.append(rs)
            was = tripped
            if baseline is None:
                if len(rs_used) == det.baseline_start + det.baseline_window:
                    baseline = float(np.median(rs_used[det.baseline_start:]))
            elif not tripped:
                streak = streak + 1 if rs < det.drop_fraction * baseline else 0
                tripped = streak >= det.persistence
            if tripped and not was:
                cov = cfg.theta_initial_variance * np.eye(2)
                ratio_mem = gain_mem = None
            if tripped and 0 < rs < baseline:
                rf = 1.0 / (1.0 / rs - 1.0 / baseline)
                z = complex(r_n + rf, 2.0 * np.pi * f1 * r_n * rf * max(c0, 0.0))
                x = v60 / (un * r_n) * abs(z)
        out["a0_hat"].append(float(theta[0]))
        out["kd_hat"].append(float(theta[1]))
        out["tau0_hat"].append(tau0)
        out["rs_hat"].append(rs)
        out["c0_hat"].append(c0)
        out["x_hat"].append(x)
        out["trip"].append(tripped)
        out["valid"].append(used)
    return out, baseline


# The 64S chain one step at a time: the per-sample kernels that
# A64SEstimator.run fuses into one loop, kept as plain float functions in
# the same operation order, so chaining them reproduces run() bit for bit.

def _theta_step(a0, kd, p00, p01, p11, process_noise, measurement_noise, v_n, phi0, phi1):
    """One 2-state filter step on (a0, kd) with the symmetric covariance
    [[p00, p01], [p01, p11]]; returns (a0, kd, p00, p01, p11, innovation).

    Covariance is propagated first (information-form shrink plus process
    noise), then the gain derives from the updated covariance; this
    reduces to the scalar recursion when one regressor vanishes.
    """
    pp0 = p00 * phi0 + p01 * phi1
    pp1 = p01 * phi0 + p11 * phi1
    denom = measurement_noise + (phi0 * pp0 + phi1 * pp1)
    p00 = p00 - pp0 * pp0 / denom + process_noise
    p01 = p01 - pp0 * pp1 / denom
    p11 = p11 - pp1 * pp1 / denom + process_noise
    innovation = v_n - (phi0 * a0 + phi1 * kd)
    a0 += (p00 * phi0 + p01 * phi1) / measurement_noise * innovation
    kd += (p01 * phi0 + p11 * phi1) / measurement_noise * innovation
    return a0, kd, p00, p01, p11, innovation


def _extract_step(a0, kd, ratio_memory, gain_memory, alpha, period, rs_scale):
    """Smoothed, clamped (time constant, resistance) of (a0, kd); returns
    (tau0, rs, ratio_memory, gain_memory, degenerate).

    The feedback coefficient a0 inverts to the time constant through the
    bilinear map; the drive gain kd then inverts to the machine-side
    resistance (rs_scale is turns_ratio**2 / period).  Both channels are
    low-pass smoothed with factor alpha (1 bypasses smoothing), and a
    memory of None restarts its smoother.  A feedback coefficient at the
    degenerate point -1 freezes the time constant for that step.
    """
    one_plus = 1.0 + a0
    degenerate = abs(one_plus) < 1e-12
    if not degenerate:
        ratio_raw = (1.0 - a0) / one_plus
        if ratio_memory is None:
            ratio_memory = ratio_raw
        else:
            ratio_memory += alpha * (ratio_raw - ratio_memory)
    ratio = ratio_memory or 0.0
    tau0 = 0.5 * period * (0.0 if ratio < 0.0 else ratio)

    gain_raw = (period + 2.0 * tau0) * kd
    if gain_memory is None:
        gain_memory = gain_raw
    else:
        gain_memory += alpha * (gain_raw - gain_memory)
    rs = rs_scale * (0.0 if gain_memory < 0.0 else gain_memory)
    return tau0, rs, ratio_memory, gain_memory, degenerate


def _c0_step(c0_hat, variance, process_noise, measurement_noise, tau0, rs):
    """One scalar capacitance step, regressing the extracted time constant
    on the extracted resistance (tau0 = rs * c0); returns (c0_hat,
    variance)."""
    variance = (variance * measurement_noise / (measurement_noise + rs * rs * variance)
                + process_noise)
    return c0_hat + variance * rs / measurement_noise * (tau0 - rs * c0_hat), variance


class _DropLatch:
    """Baseline learner + persistence trip latch on the resistance
    estimate of each used sample; update returns whether it has tripped.

    Until the baseline window is full the latch is unarmed (baseline
    None) and never trips.  A non-finite estimate (the estimator
    diverged), a baseline that is not positive, or a window that already
    holds a drop, raises CalibrationError; sample names the estimate's
    frame in the message, by default its position among used samples.
    """

    def __init__(self, cfg):
        self.cfg = cfg
        self._seen = 0
        self._window = []
        self.baseline = None
        self._streak = 0
        self.tripped = False

    def update(self, rs_hat, sample=None):
        cfg = self.cfg
        pos = self._seen
        self._seen += 1
        if not math.isfinite(rs_hat):
            raise CalibrationError(f"the estimator diverged: resistance estimate {rs_hat!r} "
                                   f"at sample {pos if sample is None else sample}")
        if self.baseline is None:
            if pos < cfg.baseline_start:
                return False
            self._window.append(rs_hat)
            if len(self._window) >= cfg.baseline_window:
                baseline = float(np.median(self._window))
                # also refuses a NaN median, which would never trip
                if not baseline > 0:
                    raise CalibrationError(f"baseline resistance {baseline!r} is not positive")
                if min(self._window) < cfg.drop_fraction * baseline:
                    raise CalibrationError(
                        "baseline window already contains a resistance drop"
                    )
                self.baseline = baseline
            return False
        if self.tripped:
            return True
        if rs_hat < cfg.drop_fraction * self.baseline:
            self._streak += 1
        else:
            self._streak = 0
        self.tripped = self._streak >= cfg.persistence
        return self.tripped


def locate_fault(
    v_n60: float,
    un: float,
    r_n: float,
    rs_f: float,
    tau0_f: float,
    fault_active: bool = True,
    f1: float = 60.0,
) -> float:
    """Fault position from the fundamental neutral voltage.

    Inverts the divider formed by the fault resistance against the
    grounding resistance shunted by the winding capacitance: the faulted
    winding fraction is proportional to the measured fundamental neutral
    magnitude scaled by the divider's impedance magnitude.  rs_f is the
    fault-path resistance, tau0_f = rs_f times the winding capacitance.
    With no active fault the sentinel 2 is returned.  Computed positions
    above 1.2 indicate inconsistent inputs (see locator_consistent).
    """
    if not fault_active:
        return HEALTHY_SENTINEL
    if un <= 0 or r_n <= 0:
        raise ValueError("un and r_n must be positive")
    if v_n60 < 0 or rs_f < 0 or tau0_f < 0:
        raise ValueError("v_n60, rs_f, tau0_f must be >= 0")
    omega = 2.0 * math.pi * f1
    return (v_n60 / (un * r_n)) * math.hypot(r_n + rs_f, omega * r_n * tau0_f)


def locator_consistent(x: float) -> bool:
    """True when a location output is physically interpretable: either
    the healthy sentinel or a position at most 20% beyond the winding."""
    return x == HEALTHY_SENTINEL or 0.0 <= x <= 1.2


def _locate(circuit, v_n60, rs_hat, c0_hat, baseline, r_n):
    if rs_hat <= 0 or rs_hat >= baseline:
        return HEALTHY_SENTINEL
    # The measured drop is the parallel combination of the healthy
    # insulation and the fault path; undo it to get the fault branch.
    rf_hat = 1.0 / (1.0 / rs_hat - 1.0 / baseline)
    tau0_f = rf_hat * max(c0_hat, 0.0)
    return locate_fault(v_n60, circuit.un, r_n, rf_hat, tau0_f,
                        fault_active=True, f1=circuit.f1)


def stepwise_a64s_run(frames, fs, circuit, cfg):
    """A64SEstimator(circuit, cfg).run(frames, fs) as a chain of the
    per-step kernels above: the same rules (priming after an invalid
    sample, the latch on used samples, the post-trip reset of the filter
    covariance and the smoothers, the locator once tripped) with every
    state passed through the kernels' arguments.  Returns the eight
    per-sample columns and the latch's baseline; raises CalibrationError
    where the latch does."""
    period = 1.0 / fs
    p0 = float(cfg.theta_initial_variance)
    theta = (0.0, 0.0, p0, 0.0, p0)
    gamma = cfg.smoothing_rate
    alpha = 1.0 if math.isinf(gamma) else 1.0 - math.exp(-gamma * period)
    rs_scale = circuit.turns_ratio**2 / period
    memories = (None, None)
    tau0 = rs = 0.0
    c0 = (cfg.c0_initial, cfg.c0_initial_variance)
    latch = _DropLatch(cfg.detector)
    tripped = False
    prev = None
    out = {k: [] for k in ("a0_hat", "kd_hat", "tau0_hat", "rs_hat", "c0_hat",
                           "x_hat", "trip", "valid")}
    samples = zip(frames.v_n.tolist(), frames.i_n.tolist(), frames.v_n60.tolist(),
                  frames.valid.tolist())
    for k, (v_n, i_n, v_n60, valid) in enumerate(samples):
        x_hat = HEALTHY_SENTINEL
        used = valid and prev is not None
        if used:
            *theta, _ = _theta_step(*theta, cfg.theta_process_noise,
                                    cfg.theta_measurement_noise, v_n, -prev[0], prev[1] + i_n)
            tau0, rs, *memories, _ = _extract_step(theta[0], theta[1], *memories,
                                                   alpha, period, rs_scale)
            c0 = _c0_step(*c0, cfg.c0_process_noise, cfg.c0_measurement_noise, tau0, rs)
            was_tripped = tripped
            tripped = latch.update(rs, k)
            if tripped and not was_tripped:
                theta = (theta[0], theta[1], p0, 0.0, p0)
                memories = (None, None)
            if tripped and latch.baseline is not None:
                x_hat = _locate(circuit, v_n60, rs, c0[0], latch.baseline,
                                circuit.r_n_primary)
        prev = (v_n, i_n) if valid else None
        for name, value in zip(out, (theta[0], theta[1], tau0, rs, c0[0], x_hat,
                                     tripped, used)):
            out[name].append(value)
    return out, latch.baseline


def _csv_rows(fh):
    """A csv writerow into fh: rows end with LF, and cells are quoted as
    under a CRLF terminator, so a cell holding a lone CR is quoted too,
    as write_table quotes it."""
    row_text = io.StringIO()
    writer = csv.writer(row_text, lineterminator="\r\n")

    def writerow(row):
        row_text.seek(0)
        row_text.truncate()
        writer.writerow(row)
        fh.write(row_text.getvalue()[:-2] + "\n")
    return writerow


def naive_emit_csv(result, out_dir):
    """The trace CSVs and long.csv of a scenario result, written row by
    row through the csv module from the traces' columns as Python values
    (an array column through ``tolist``): floats by repr, bools as 0/1,
    None as an empty cell; long.csv melts every trace, signals in sorted
    order, values as floats."""
    def cell(value):
        if isinstance(value, bool):
            return int(value)
        return repr(value) if isinstance(value, float) else value

    out = Path(out_dir)
    with open(out / "long.csv", "w", newline="") as long_fh:
        long = _csv_rows(long_fh)
        long(["trace", "signal", "t", "value"])
        for scheme, trace in result.traces.items():
            columns = {name: column.tolist() if isinstance(column, np.ndarray) else column
                       for name, column in trace.columns().items()}
            with open(out / f"trace_{scheme}.csv", "w", newline="") as fh:
                rows = _csv_rows(fh)
                rows(list(columns))
                for i in range(len(columns["t"])):
                    rows([cell(column[i]) for column in columns.values()])
            t = columns.pop("t")
            for name in sorted(columns):
                for ti, value in zip(t, columns[name]):
                    long([scheme, name, repr(ti), "" if value is None else repr(float(value))])
