"""Simultaneous randomized benchmarking: simulation and addressability analysis."""

__version__ = "0.1.0"

from .cliffords import CliffordGroup, generate_c1, get_group, product_group
from .fitting import DecayFit, fit_correlation_curve, fit_exponential, fit_protocol_curves
from .noise import (
    SAMPLE_A,
    SAMPLE_B,
    Composite,
    CrossTalk,
    Decoherence,
    Depolarizing,
    DeviceParams,
    Ideal,
    NoisyGateSet,
    StaticError,
    decoherence_ptm,
    evolve_to_ptm,
    predict_addressability,
    predict_alphas,
)
from .paulis import (
    depolarizing_ptm,
    project,
    projector_diag,
    ptm_from_kraus,
    ptm_from_unitary,
    tensor,
)
from .protocol import (
    RBConfig,
    SpamModel,
    SurvivalCurve,
    generate_sequence,
    read_curves_csv,
    run_experiment,
    run_protocol,
    simulate_sequence,
    write_curves_csv,
)
from .report import AddressabilityReport, UVal, build_report, delta_alpha, delta_r, gate_error
from .twirl import (
    TwirlOutcome,
    brute_force_twirl,
    gamma_decay_curve,
    twirl_cxc,
    twirl_cxi,
)

__all__ = [name for name in dir() if not name.startswith("_")]
