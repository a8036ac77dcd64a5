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
revival interrogation times).  The Monte-Carlo path certifies that identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import HBAR, K_B
from .errors import ParameterError
from .pulses import (
    Branch,
    PulseSequence,
    SpinorCoherentState,
    _normed_gram_sums,
    _walk,
    batch_signal,
    preset_cp,
    run_sequence,
)
from .signals import ForceSignal, modal_integral
from .trap import NormalModes, TrapConfig, derive_modes

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
    if temperature < 0:
        raise ParameterError(f"temperature must be >= 0, got {temperature}")
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
        for name in ("n_plus", "n_minus"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0):
                raise ParameterError(f"{name} must be >= 0 and finite, got {v}")
        if self.temperature is not None and self.temperature < 0:
            raise ParameterError(f"temperature must be >= 0, got {self.temperature}")

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
    """Per-mode linear phase functionals and the resulting signal suppression.

    suppression = exp(-n_plus |gamma_plus|^2 - n_minus |gamma_minus|^2).
    """

    gamma_plus: complex
    gamma_minus: complex
    n_plus: float = 0.0
    n_minus: float = 0.0
    suppression: float | None = None

    def __post_init__(self):
        expected = math.exp(
            -self.n_plus * abs(self.gamma_plus) ** 2
            - self.n_minus * abs(self.gamma_minus) ** 2
        )
        if self.suppression is None:
            object.__setattr__(self, "suppression", expected)
        elif not math.isclose(self.suppression, expected, rel_tol=1e-9):
            raise ParameterError("suppression inconsistent with occupations and gammas")


# the small step of _phase_functionals: it only picks the 2 pi branch of the
# finite step, so it must keep |K| * _BRANCH_STEP below pi
_BRANCH_STEP = 1e-4


def _phase_functionals(config: TrapConfig, sequence: PulseSequence, drive, step: float = 1.0):
    """Exact (K+, K-) with differential phase = Re[conj(a+)K+ + conj(a-)K-] + const.

    The engine phase is affine in the initial amplitudes, so one array walk
    over nine spin-up samples gives both: alpha = 0, then steps of
    ``_BRANCH_STEP`` and of ``step`` along alpha_plus = 1, alpha_plus = i,
    alpha_minus = 1 and alpha_minus = i.  The phase difference d of sample k
    is -angle(cross_k conj(cross_0)), known only modulo 2 pi; the ``step``
    sample gives the value and the small one its 2 pi branch:

        K = (d_step + 2 pi round((step d_small / _BRANCH_STEP - d_step) / 2 pi)) / step.
    """
    steps = np.array([_BRANCH_STEP, step, 1j * _BRANCH_STEP, 1j * step])
    none = np.zeros(4, dtype=complex)
    branch = Branch(
        spin=+1,
        weight=1.0 + 0.0j,
        alpha_plus=np.concatenate(([0j], steps, none)),
        alpha_minus=np.concatenate(([0j], none, steps)),
    )
    _, coh_state, _ = _walk(SpinorCoherentState(config=config, branches=(branch,)), sequence, (drive,))
    # a sequence that never splits the spin has no cross sum: 0 for every sample, so K = 0
    cross = np.broadcast_to(_normed_gram_sums(coh_state)[2], branch.alpha_plus.shape)
    d_small, d_step = (-np.angle(cross[1:] * np.conj(cross[0]))).reshape(4, 2).T
    turns = np.round((step * d_small / _BRANCH_STEP - d_step) / (2.0 * math.pi))
    k = (d_step + 2.0 * math.pi * turns) / step
    return complex(k[0], k[1]), complex(k[2], k[3])


def gamma_factors(
    config: TrapConfig,
    kind: str,
    drive: ForceSignal,
    t: float,
    thermal: ThermalParams | None = None,
) -> SuppressionFactors:
    """Per-mode suppression functionals gamma_pm for a sequence kind.

    kind "up": the closed forms
        gamma_plus  = (1 / 2 omega_tilde l) integral_0^t (g_x + i g_y) e^{i omega_plus t'} dt'
        gamma_minus = (1 / 2 omega_tilde l) integral_0^t (g_y + i g_x) e^{i omega_minus t'} dt'
    (1 / 2 omega_tilde l = m l / 2 hbar, making the exponents dimensionless).
    These are the leading resonant approximation to the engine's exact
    initial-condition response; they coincide with it for near-resonant
    circularly polarized drives over full revival windows.

    kind "cp": no closed form; gamma_pm = K_pm / 2 where K_pm are the exact
    linear phase functionals of the steps of ``preset_cp((0, 0), t)`` (they
    do not depend on r0).  Occupations from ``thermal`` (default 0) set
    the suppression field exp(-n+|g+|^2 - n-|g-|^2).
    """
    if not t > 0:
        raise ParameterError(f"t must be > 0, got {t}")
    kind = kind.lower()
    modes = derive_modes(config)
    wt, l = modes.omega_tilde, modes.l_osc
    if kind == "up":
        g_plus = modal_integral(drive, modes.omega_plus, 0.0, t) / (2.0 * wt * l)
        g_minus = 1j * modal_integral(drive, modes.omega_minus, 0.0, t, conjugate=True) / (
            2.0 * wt * l
        )
    elif kind == "cp":
        k_plus, k_minus = _phase_functionals(config, preset_cp((0.0, 0.0), t), drive)
        g_plus, g_minus = k_plus / 2.0, k_minus / 2.0
    else:
        raise ParameterError(f"kind must be 'up' or 'cp', got {kind!r}")
    n_plus = thermal.n_plus if thermal is not None else 0.0
    n_minus = thermal.n_minus if thermal is not None else 0.0
    return SuppressionFactors(
        gamma_plus=g_plus, gamma_minus=g_minus, n_plus=n_plus, n_minus=n_minus
    )


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
        return {
            "mc_mean": self.mc_mean,
            "mc_stderr": self.mc_stderr,
            "analytic": self.analytic,
            "zero_temperature_signal": self.zero_temperature_signal,
            "suppression": self.suppression,
            "count": self.count,
            "seed": self.seed,
            "n_plus": self.n_plus,
            "n_minus": self.n_minus,
        }


def thermal_signal(
    config: TrapConfig,
    sequence: PulseSequence,
    drive: ForceSignal,
    params: ThermalParams,
    count: int,
    seed: int,
) -> ThermalReport:
    """Average the sequence signal over thermal initial conditions.

    Runs the engine once over all ``count`` samples as arrays
    (:func:`batch_signal`; deterministic for a fixed seed) and compares
    against the analytic prediction zero-temperature signal *
    exp(-n+|K+/2|^2 - n-|K-/2|^2) with K_pm the exact phase functionals of
    this sequence and drive.  The analytic value treats the overlap envelope
    as sample-independent, which is exact at revival interrogation times.
    """
    if count < 100:
        raise ParameterError(f"count must be >= 100 for a meaningful average, got {count}")
    zero_t = run_sequence(config, None, sequence, drive).signal
    k_plus, k_minus = _phase_functionals(config, sequence, drive)
    suppression = math.exp(
        -params.n_plus * abs(k_plus / 2.0) ** 2 - params.n_minus * abs(k_minus / 2.0) ** 2
    )

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
