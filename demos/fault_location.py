"""Place a stator ground fault along the winding from the neutral point.

Once the injection scheme has tripped, the fundamental-frequency voltage
that the fault couples into the neutral circuit scales with the fault's
electrical position.  Dividing out the estimated fault-loop impedance
turns that voltage into a per-unit winding position.
"""

from statorguard.a64s import HEALTHY_SENTINEL, A64SEstimator
from statorguard.plantsim import (
    FaultSpec,
    Subharmonic64SConfig,
    constant_speed,
    simulate_64s_timeseries,
)


def locate(cfg, x, rf, seed=0):
    v, i = simulate_64s_timeseries(
        cfg, [FaultSpec(x=x, rf=rf, t_on=1.45)], duration=2.35,
        noise_std=0.01, seed=seed, speed_profile=constant_speed(1.0))
    trace = A64SEstimator(cfg).run_timeseries(v, i)
    return trace.final_location()


def main():
    cfg = Subharmonic64SConfig()

    for rf in (90.0, 1000.0):
        print(f"fault resistance {rf:.0f} ohm:")
        print(f"  {'x true':>7} {'x hat':>7} {'error':>7}")
        for k in range(6):
            x = k / 5.0
            x_hat = locate(cfg, x, rf, seed=k)
            print(f"  {x:7.2f} {x_hat:7.3f} {abs(x_hat - x):7.3f}")
        print()

    # a healthy stream never trips, so the locator reports its sentinel
    v, i = simulate_64s_timeseries(cfg, [], duration=1.6, noise_std=0.01,
                                   seed=0, speed_profile=constant_speed(1.0))
    trace = A64SEstimator(cfg).run_timeseries(v, i)
    print(f"healthy stream: location {trace.final_location():.0f} "
          f"(sentinel {HEALTHY_SENTINEL:.0f} means nothing to locate)")


if __name__ == "__main__":
    main()
