"""Simulator and analysis toolkit for a spin-orbit-coupled trapped-atom
AC accelerometer.

Layers, bottom up:

- ``trap``: trap parameters, normal modes, closed-form classical paths,
  the differential-path kernel ``h_perp``.
- ``signals``: time-dependent drive accelerations g(t).
- ``pulses``: exact pulse-sequence engine on spin-labeled coherent branches.
- ``response``: analytic and numerically extracted transfer functions.
- ``thermal``: Glauber-P thermal averaging, suppression factors, MC sampler.
- ``sensitivity``: shot-noise sensitivity budget and trap optimization.
- ``cli``: command-line front end emitting deterministic CSV/JSON.
"""

from .constants import HBAR, K_B
from .errors import (
    AmplitudeTooLargeError,
    BracketingError,
    ConfigError,
    CoverageError,
    DivergenceError,
    InfeasibleGeometryError,
    ParameterError,
    ResolutionError,
    SocAccelError,
)
from .trap import (
    NormalModes,
    PhaseSpacePoint,
    TrapConfig,
    classical_trajectory,
    derive_modes,
    h_perp,
)
from .signals import (
    Constant,
    ForceSignal,
    Sinusoid,
    SumSignal,
    Tabulated,
    Zero,
    circular,
    modal_integral,
)
from .pulses import (
    Branch,
    Displace,
    Evolve,
    MeasurementRecord,
    PulseSequence,
    Readout,
    RotateY,
    SpinorCoherentState,
    apply_displacement,
    apply_evolution,
    apply_rotation,
    batch_signal,
    expectation_spin,
    ground_state,
    mode_decompose,
    preset_cp,
    preset_up,
    run_sequence,
)
from .response import (
    ResponseCurve,
    find_peaks,
    find_zeros,
    main_lobe_fwhm,
    numeric_response,
    numeric_response_curve,
    response_cp,
    response_up,
)
from .thermal import (
    SuppressionFactors,
    ThermalParams,
    ThermalReport,
    gamma_factors,
    mean_occupation,
    sample_initial_states,
    thermal_signal,
)
from .sensitivity import (
    RB87,
    ApparatusParams,
    SensitivityReport,
    SpeciesParams,
    TrapOptimum,
    collision_budget,
    optimize_trap,
    sensitivity,
    signal_ceiling,
    thermal_geometry,
)

__version__ = "0.1.0"

__all__ = [
    "HBAR",
    "K_B",
    "SocAccelError",
    "ParameterError",
    "ConfigError",
    "CoverageError",
    "DivergenceError",
    "ResolutionError",
    "AmplitudeTooLargeError",
    "InfeasibleGeometryError",
    "BracketingError",
    "TrapConfig",
    "NormalModes",
    "PhaseSpacePoint",
    "derive_modes",
    "classical_trajectory",
    "h_perp",
    "ForceSignal",
    "Zero",
    "Constant",
    "Sinusoid",
    "SumSignal",
    "Tabulated",
    "circular",
    "modal_integral",
    "Branch",
    "SpinorCoherentState",
    "RotateY",
    "Displace",
    "Evolve",
    "Readout",
    "PulseSequence",
    "MeasurementRecord",
    "ground_state",
    "mode_decompose",
    "apply_rotation",
    "apply_displacement",
    "apply_evolution",
    "expectation_spin",
    "run_sequence",
    "batch_signal",
    "preset_up",
    "preset_cp",
    "ResponseCurve",
    "response_up",
    "response_cp",
    "numeric_response",
    "numeric_response_curve",
    "find_zeros",
    "find_peaks",
    "main_lobe_fwhm",
    "ThermalParams",
    "SuppressionFactors",
    "ThermalReport",
    "mean_occupation",
    "gamma_factors",
    "sample_initial_states",
    "thermal_signal",
    "SpeciesParams",
    "ApparatusParams",
    "SensitivityReport",
    "TrapOptimum",
    "RB87",
    "thermal_geometry",
    "collision_budget",
    "signal_ceiling",
    "sensitivity",
    "optimize_trap",
]
