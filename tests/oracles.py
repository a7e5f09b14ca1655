"""Independent reference implementations used to cross-check the
package's fast paths.

Everything here is deliberately naive: dense linear-system solves,
brute-force sums, and closed-form batch least squares.  Slow and
obvious beats fast and clever for an oracle.
"""

import numpy as np
import scipy.sparse
import scipy.sparse.linalg


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


def windowed_energy(values, window, t):
    """Sum of squares of values[t-window .. t] done longhand."""
    lo = t - window
    return float(sum(float(v) ** 2 for v in values[lo: t + 1]))


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
