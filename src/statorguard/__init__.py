"""Stator ground-fault protection toolkit for high-impedance-grounded
synchronous generators.

Simulates the third-harmonic voltage ratio and sub-harmonic injection
measurement chains, runs adaptive (Kalman-tracked) and fixed-baseline
detection schemes on them, estimates insulation parameters, locates
ground faults along the winding, and scores scheme reliability across
fault and disturbance sweeps.
"""

from .a64g2 import (
    AdaptiveRatioDetector,
    Calibration64RAT,
    DetectorConfig,
    FixedRatioDetector,
    RatioKafState,
    RatioSchemeState,
    SchemeTrace,
    calibrate_64rat,
    kaf_update,
    operate_restraint,
    ratio_step,
    write_trace_csv,
)
from .a64s import (
    HEALTHY_SENTINEL,
    A64SEstimator,
    A64SEstimatorConfig,
    A64STrace,
    C0KafState,
    CalibrationError,
    DetectionEvent,
    ExtractorState,
    InsulationDetectorConfig,
    SubharmonicFrame,
    ThetaKafState,
    a64s_detect,
    c0_kaf_update,
    extract_params,
    frames_from_timeseries,
    locate_fault,
    locator_consistent,
    regression_step,
    theta_kaf_update,
    tustin_coeffs,
    write_a64s_trace_csv,
)
from .harness import (
    ConfigError,
    ReliabilityReport,
    ScenarioResult,
    SweepGrid,
    calibrate_from_config,
    default_security_catalog,
    emit_report,
    load_config,
    run_scenario,
    simulate_waveforms,
    sweep_security,
    sweep_sensitivity,
)
from .plantsim import (
    DISTURBANCE_KINDS,
    DisturbanceSpec,
    FaultSpec,
    HarmonicFrame,
    MachineConfig,
    Scenario64G2Result,
    Subharmonic64SConfig,
    constant_speed,
    e3_of_operating_point,
    emf_split_fraction,
    frames_from_64g2_waveforms,
    grounding_resistor_sizing,
    neutral_60hz_component,
    ramp_speed,
    simulate_64g2_scenario,
    simulate_64s_timeseries,
    subharmonic_transfer,
    third_harmonic_solve,
)
from .signalcore import (
    PhasorSeries,
    TimeSeries,
    extract_phasor,
    ingest_csv,
    reconstruct_narrowband,
    synth_waveform,
    write_csv,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # signal toolbox
    "TimeSeries", "PhasorSeries", "synth_waveform", "extract_phasor",
    "reconstruct_narrowband", "ingest_csv", "write_csv",
    # plant models
    "MachineConfig", "FaultSpec", "DisturbanceSpec", "Subharmonic64SConfig",
    "HarmonicFrame", "Scenario64G2Result", "DISTURBANCE_KINDS",
    "grounding_resistor_sizing", "third_harmonic_solve", "subharmonic_transfer",
    "neutral_60hz_component", "e3_of_operating_point", "emf_split_fraction",
    "constant_speed", "ramp_speed", "simulate_64s_timeseries",
    "simulate_64g2_scenario", "frames_from_64g2_waveforms",
    # third-harmonic ratio schemes
    "RatioKafState", "DetectorConfig", "Calibration64RAT", "kaf_update",
    "operate_restraint", "RatioSchemeState", "ratio_step", "calibrate_64rat",
    "SchemeTrace", "AdaptiveRatioDetector",
    "FixedRatioDetector", "write_trace_csv",
    # injection scheme
    "HEALTHY_SENTINEL", "CalibrationError", "SubharmonicFrame", "ThetaKafState",
    "C0KafState", "ExtractorState", "InsulationDetectorConfig", "DetectionEvent",
    "tustin_coeffs", "regression_step", "theta_kaf_update", "extract_params",
    "c0_kaf_update", "locate_fault", "locator_consistent", "a64s_detect",
    "frames_from_timeseries", "A64SEstimatorConfig", "A64STrace",
    "A64SEstimator", "write_a64s_trace_csv",
    # orchestration
    "ConfigError", "ScenarioResult", "SweepGrid", "ReliabilityReport",
    "load_config", "run_scenario", "simulate_waveforms", "calibrate_from_config",
    "default_security_catalog", "sweep_sensitivity", "sweep_security",
    "emit_report",
]
