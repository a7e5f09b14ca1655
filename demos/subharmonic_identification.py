"""Identify the stator insulation through the 20 Hz injection path.

A bandpass-coupled source drives the neutral grounding circuit below the
rotational band.  Narrowband demodulation of the injected voltage and
current feeds a two-parameter Kalman regression whose coefficients
invert back to insulation resistance, capacitance, and time constant.
The scheme works at standstill and keeps working through a fault, where
the resistance estimate collapses to the parallel combination.
"""

from statorguard.a64s import A64SEstimator
from statorguard.plantsim import (
    FaultSpec,
    Subharmonic64SConfig,
    constant_speed,
    simulate_64s_timeseries,
)


def show(trace, label, truth):
    rs, c0, tau0 = trace.final_estimates()
    print(f"{label}:")
    print(f"  rs   {rs:9.1f} ohm   (truth {truth[0]:.1f})")
    print(f"  c0   {c0 * 1e6:9.3f} uF    (truth {truth[1] * 1e6:.3f})")
    print(f"  tau0 {tau0 * 1e3:9.3f} ms    (truth {truth[2] * 1e3:.3f})")


def main():
    cfg = Subharmonic64SConfig()
    print(f"injection: {cfg.vs_rms} V rms at {cfg.f_inj} Hz through "
          f"{cfg.rbpf} ohm, grounding resistor {cfg.rn} ohm (secondary)\n")

    # machine at rest, healthy insulation
    v, i = simulate_64s_timeseries(cfg, [], duration=2.0, noise_std=0.01, seed=0)
    trace = A64SEstimator(cfg).run_timeseries(v, i)
    show(trace, "standstill, healthy, 1 percent channel noise",
         (cfg.rs, cfg.c0, cfg.rs * cfg.c0))
    print(f"  tripped: {trace.tripped}\n")

    # spinning machine, 500 ohm fault landing at 1.6 s
    rf = 500.0
    parallel = cfg.rs * rf / (cfg.rs + rf)
    v, i = simulate_64s_timeseries(
        cfg, [FaultSpec(x=0.67, rf=rf, t_on=1.6)], duration=3.0,
        noise_std=0.01, seed=1, speed_profile=constant_speed(1.0))
    trace = A64SEstimator(cfg).run_timeseries(v, i)
    show(trace, f"running, {rf:.0f} ohm fault at sample 1600",
         (parallel, cfg.c0, parallel * cfg.c0))
    print(f"  tripped at sample {trace.first_trip_index} "
          f"({trace.first_trip_index - 1600} after onset), "
          f"baseline was {trace.baseline:.0f} ohm")


if __name__ == "__main__":
    main()
