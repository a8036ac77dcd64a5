"""Thermal averaging over initial motional states.

A thermal cloud is a Gaussian mixture of coherent states (diagonal
P-representation), so the ensemble-averaged interferometer signal follows
from sampling initial mode amplitudes (alpha_plus, alpha_minus) as circular
complex Gaussians with <|alpha_pm|^2> = <n_pm>, drawn from one counter-based
Philox stream, and running the exact pulse engine on all samples in one
array-valued pass.  Because the engine's differential phase is affine in
the initial amplitudes, delta_phi = Re[conj(a+) K+ + conj(a-) K-] + const,
the average obeys the closed form

    <signal> = zero-temperature signal * exp(-<n+>|K+/2|^2 - <n->|K-/2|^2)

whenever the branch overlap does not itself depend on the sample (true at
revival interrogation times), with K+- read from the branch phases of one
walk.  The Monte-Carlo path certifies that identity.  :func:`gamma_factors`
reads the same K+-/2 off the ``up`` and ``cp`` presets.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .constants import HBAR, K_B
from .errors import ParameterError
from .pulses import (
    Branch, PulseSequence, SpinorCoherentState, _coherence_record, _coherence_walk, batch_signal, ground_state,
    preset_cp, preset_up,
)
from .signals import ForceSignal
from .trap import NormalModes, TrapConfig

__all__ = [
    "ThermalParams",
    "SuppressionFactors",
    "ThermalReport",
    "mean_occupation",
    "gamma_factors",
    "sample_initial_states",
    "thermal_signal",
]


def mean_occupation(omega: float, temperature: float) -> float:
    """Bose-Einstein occupation 1 / (exp(hbar omega / kT) - 1).

    Stable in both the classical (kT >> hbar omega, -> kT / hbar omega) and
    deeply quantum (-> exp(-hbar omega / kT)) regimes; T = 0 returns 0.
    """
    if not omega > 0:
        raise ParameterError(f"omega must be > 0, got {omega}")
    if not (math.isfinite(temperature) and temperature >= 0):
        raise ParameterError(f"temperature must be >= 0 and finite, got {temperature}")
    if temperature == 0.0:
        return 0.0
    x = HBAR * omega / (K_B * temperature)
    if not x > 0:
        raise ParameterError(f"hbar omega / kT is {x} for omega {omega:.3e}, T {temperature:.3e}")
    if x > 700.0:
        return math.exp(-x)
    return 1.0 / math.expm1(x)


@dataclass(frozen=True)
class ThermalParams:
    """Mean occupations of the two modes; temperature is None when the
    occupations were specified directly."""

    n_plus: float
    n_minus: float
    temperature: float | None = None

    def __post_init__(self):
        for name in ("n_plus", "n_minus", "temperature"):
            v = getattr(self, name)
            if v is not None and not (math.isfinite(v) and v >= 0):
                raise ParameterError(f"{name} must be >= 0 and finite, got {v}")

    @classmethod
    def from_temperature(cls, modes: NormalModes, temperature: float) -> "ThermalParams":
        return cls(
            n_plus=mean_occupation(modes.omega_plus, temperature),
            n_minus=mean_occupation(modes.omega_minus, temperature),
            temperature=temperature,
        )

    @classmethod
    def from_occupations(cls, n_plus: float, n_minus: float) -> "ThermalParams":
        return cls(n_plus=n_plus, n_minus=n_minus, temperature=None)


@dataclass(frozen=True)
class SuppressionFactors:
    """Per-mode linear phase functionals gamma_pm = K_pm / 2 at occupations n_pm."""

    gamma_plus: complex
    gamma_minus: complex
    n_plus: float = 0.0
    n_minus: float = 0.0

    @property
    def suppression(self) -> float:
        """The signal suppression exp(-n_plus |gamma_plus|^2 - n_minus |gamma_minus|^2)."""
        return math.exp(-self.n_plus * abs(self.gamma_plus) ** 2 - self.n_minus * abs(self.gamma_minus) ** 2)


def _phase_functionals(config: TrapConfig, sequence: PulseSequence, drive, step: float = 1.0):
    """Exact (K+, K-) with differential phase = Re[conj(a+)K+ + conj(a-)K-] + const.

    The phase is affine in the initial amplitudes, so one array walk over five spin-up
    samples gives both: alpha = 0, then ``step`` and ``i step`` along alpha_plus, then
    along alpha_minus.  With D = phi_up - phi_down, the coherence state's branch phases,
    K_j = (D_j - D_0) / step: no angle, no wrap (the weights, real and the same for every
    sample, cancel).  A sequence that never splits the spin gets K = 0; one that leaves
    more than one branch of a spin raises :class:`ParameterError`.
    """
    a_plus, a_minus = np.array([0, step, 1j * step, 0, 0]), np.array([0, 0, 0, step, 1j * step])
    state = SpinorCoherentState(config, (Branch(+1, 1.0 + 0.0j, a_plus, a_minus),))
    branches = _coherence_walk(state, sequence, (drive,)).branches
    ups, downs = ([b for b in branches if b.spin == s] for s in (+1, -1))
    if not ups or not downs:
        return 0j, 0j
    if len(ups) + len(downs) > 2:
        raise ParameterError(f"K+- need one branch of each spin, not {len(ups)} up and {len(downs)} down branches")
    delta = np.broadcast_to(ups[0].phase - downs[0].phase, a_plus.shape)  # a phase no Evolve touched is the scalar 0.0
    k = (delta[1:] - delta[0]) / step
    return complex(k[0], k[1]), complex(k[2], k[3])


def _suppression_factors(config: TrapConfig, sequence: PulseSequence, drive, params: ThermalParams):
    """gamma_pm = K_pm / 2 of ``sequence`` and ``drive``, at the occupations of ``params``."""
    k_plus, k_minus = _phase_functionals(config, sequence, drive)
    return SuppressionFactors(k_plus / 2.0, k_minus / 2.0, params.n_plus, params.n_minus)


_PRESETS = {"up": preset_up, "cp": preset_cp}


def gamma_factors(
    config: TrapConfig,
    kind: str,
    drive: ForceSignal,
    t: float,
    thermal: ThermalParams | None = None,
) -> SuppressionFactors:
    """Per-mode suppression functionals gamma_pm = K_pm / 2 for a sequence kind.

    K_pm are the exact linear phase functionals of the steps of
    ``preset_up((0, 0), t)`` (kind "up") or ``preset_cp((0, 0), t)`` (kind
    "cp"); they do not depend on r0.  Occupations from ``thermal`` (default 0)
    set the suppression exp(-n+|g+|^2 - n-|g-|^2).
    """
    preset = _PRESETS.get(kind.lower())
    if preset is None:
        raise ParameterError(f"kind must be 'up' or 'cp', got {kind!r}")
    return _suppression_factors(config, preset((0.0, 0.0), t), drive, thermal or ThermalParams(0.0, 0.0))


def sample_initial_states(params: ThermalParams, count: int, seed: int) -> np.ndarray:
    """(count, 2) complex samples of the thermal P-distribution, rows (alpha_plus, alpha_minus).

    Each alpha is a circular complex Gaussian with <|alpha|^2> = <n>.  All
    samples come from one counter-based stream, ``Philox(key=seed)``: sample
    i is made from counter block i (four raw 64-bit words, Box-Muller in
    polar form), so samples [a, b) are ``Philox(key=seed).advance(a)``
    followed by ``random_raw(4 * (b - a))``, and the stream is identical no
    matter how samples are partitioned across workers.
    """
    if count < 1:
        raise ParameterError(f"count must be >= 1, got {count}")
    raw = np.random.Philox(key=seed & ((1 << 64) - 1)).random_raw(4 * count)
    return _states_from_raw(params, raw)


def _states_from_raw(params: ThermalParams, raw: np.ndarray) -> np.ndarray:
    """(alpha_plus, alpha_minus) rows from raw 64-bit words, four per sample."""
    # 53-bit uniforms on (0, 1); |alpha|^2 = -n ln u is exponential with mean n
    u = ((raw.reshape(-1, 4) >> np.uint64(11)).astype(float) + 0.5) * 2.0**-53
    alphas = np.sqrt(-np.log(u[:, 0::2])) * np.exp(2j * math.pi * u[:, 1::2])
    return alphas * (math.sqrt(params.n_plus), math.sqrt(params.n_minus))


@dataclass(frozen=True)
class ThermalReport:
    """Monte-Carlo thermal average of the sequence signal vs. the analytic value."""

    mc_mean: float
    mc_stderr: float
    analytic: float
    zero_temperature_signal: float
    suppression: float
    count: int
    seed: int
    n_plus: float
    n_minus: float

    def __iter__(self):
        return iter((self.mc_mean, self.mc_stderr, self.analytic))

    def as_dict(self) -> dict:
        return asdict(self)


def thermal_signal(
    config: TrapConfig,
    sequence: PulseSequence,
    drive: ForceSignal,
    params: ThermalParams,
    count: int,
    seed: int,
) -> ThermalReport:
    """Average the sequence signal over thermal initial conditions.

    Runs the engine once over all ``count`` samples as arrays (:func:`batch_signal`;
    deterministic for a fixed seed) and compares against the analytic prediction
    zero-temperature signal * exp(-n+|K+/2|^2 - n-|K-/2|^2) with K_pm the exact phase
    functionals of this sequence and drive.  The analytic value treats the overlap envelope
    as sample-independent, which is exact at revival interrogation times.  Every walk here
    stops before a trailing recombination rotation, whose result no field reads, with the
    bits of a whole walk (:func:`~socaccel.pulses._coherence_walk`).
    """
    if count < 100:
        raise ParameterError(f"count must be >= 100 for a meaningful average, got {count}")
    zero_t = _coherence_record(_coherence_walk(ground_state(config), sequence, (drive,)))[0]
    suppression = _suppression_factors(config, sequence, drive, params).suppression

    alphas = sample_initial_states(params, count, seed)
    signals = batch_signal(config, alphas[:, 0], alphas[:, 1], sequence, drive)
    mc_mean = float(np.mean(signals))
    mc_stderr = float(np.std(signals, ddof=1) / math.sqrt(count))
    return ThermalReport(
        mc_mean=mc_mean,
        mc_stderr=mc_stderr,
        analytic=zero_t * suppression,
        zero_temperature_signal=zero_t,
        suppression=suppression,
        count=count,
        seed=seed,
        n_plus=params.n_plus,
        n_minus=params.n_minus,
    )
