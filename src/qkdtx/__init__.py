"""qkdtx: simulator for a modulator-free, injection-locked QKD transmitter.

Modules
-------
optics      phase-encoded pulse trains and AMZI demodulation
randomness  phase-randomization QRNG and its statistics
linkmodel   lossy channel and single-photon detectors
protocols   DPS and decoy-state BB84 sessions, key rates
harness     experiment configs, loss sweeps, reference comparison
"""

from .optics import (
    AmziConfig,
    ConstellationReport,
    DifferentialPhaseSequence,
    InjectionMode,
    InterferenceRecord,
    InterferenceResult,
    PulseTrain,
    amzi_interfere,
    amzi_intensity,
    constellation_eye,
    dual_basis_demodulate,
    emit_pulse_train,
    fringe_scan,
    fringe_visibility,
    reduce_phase,
    sigma_phi_for_error_rate,
    sigma_phi_for_visibility,
)
from .randomness import (
    RandomnessReport,
    analyze,
    arcsine_cdf,
    byte_autocorrelation,
    byte_histogram,
    entropy_budget_bits,
    extract_bits,
    goodness_of_fit,
    min_entropy,
    quantize,
    sample_interference,
    toeplitz_hash,
)
from .linkmodel import (
    ChannelModel,
    DETECTOR_PRESETS,
    DetectorModel,
    detector_preset,
    transmittance,
)
from .protocols import (
    BB84_DECOY,
    DPS,
    AnalyticExpectations,
    DecoyEstimates,
    ProtocolConfig,
    SessionResult,
    analytic_expectations,
    binary_entropy,
    decoy_estimate,
    skr_bb84,
    skr_dps,
)
from .harness import (
    ComparisonReport,
    ConfigError,
    ExperimentConfig,
    ReferencePoint,
    SweepRow,
    SweepTable,
    compare_to_reference,
    config_from_dict,
    load_config,
    load_reference_points,
    run_session,
    run_sweep,
)

__version__ = "0.1.0"
