"""Single-particle dynamics in a 2D harmonic trap with a synthetic gauge field.

A pseudo-spin-1/2 particle of mass ``m`` sits in an isotropic trap of
frequency ``omega0`` and couples to a uniform synthetic magnetic field through
the Landau-gauge vector potential ``A = m * omega_c * x * yhat``; the sign of
the effective charge is the spin label ``sigma = +/-1``.  In the complex
coordinate ``zeta = x + i y`` the classical equation of motion is

    zeta'' + i * sigma * omega_c * zeta' + omega0**2 * zeta = g(t)

whose undriven solutions are two counter-rotating circular modes at

    omega_pm = omega_tilde +/- omega_c / 2,
    omega_tilde = sqrt(omega0**2 + (omega_c / 2)**2).

This module holds the parameter types, the normal modes, the map between a
center (zeta, zeta') and its mode amplitudes, the closed-form undriven
trajectory and the differential-path kernel ``h_perp``.  Public interfaces
are SI.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import HBAR
from .errors import ParameterError

__all__ = [
    "TrapConfig",
    "NormalModes",
    "PhaseSpacePoint",
    "derive_modes",
    "classical_trajectory",
    "h_perp",
]


@dataclass(frozen=True)
class TrapConfig:
    """Physical parameters of the trap Hamiltonian.

    ``omega_c`` is the synthetic cyclotron frequency (the spin-orbit coupling
    scale); ``omega_c = 0`` is allowed and reproduces spin-independent physics.
    Planck's constant is ``constants.HBAR``; it is not a trap parameter.
    """

    mass: float            # kg
    omega0: float          # rad/s, bare trap frequency
    omega_c: float = 0.0   # rad/s, synthetic cyclotron frequency

    def __post_init__(self) -> None:
        if not (math.isfinite(self.mass) and self.mass > 0):
            raise ParameterError(f"mass must be positive and finite, got {self.mass}")
        if not (math.isfinite(self.omega0) and self.omega0 > 0):
            raise ParameterError(f"omega0 must be positive and finite, got {self.omega0}")
        if not (math.isfinite(self.omega_c) and self.omega_c >= 0):
            raise ParameterError(f"omega_c must be non-negative and finite, got {self.omega_c}")

    @classmethod
    def from_modes(cls, mass: float, omega_tilde: float, epsilon: float = 1.0) -> "TrapConfig":
        """Trap with modes omega_pm = 2 omega_tilde (epsilon, 1) / (1 + epsilon), epsilon >= 1."""
        if not (math.isfinite(epsilon) and epsilon >= 1):
            raise ParameterError(f"epsilon must be finite and >= 1, got {epsilon}")
        omega0 = 2.0 * omega_tilde * math.sqrt(epsilon) / (1.0 + epsilon)
        omega_c = 2.0 * omega_tilde * (epsilon - 1.0) / (1.0 + epsilon)
        return cls(mass=mass, omega0=omega0, omega_c=omega_c)


@dataclass(frozen=True)
class NormalModes:
    """Derived circular-mode structure of a :class:`TrapConfig`."""

    omega_plus: float   # rad/s, fast mode
    omega_minus: float  # rad/s, slow mode
    omega_tilde: float  # rad/s, (omega_plus + omega_minus) / 2
    l_osc: float        # m, sqrt(hbar / (m * omega_tilde))

    @property
    def omega_c(self) -> float:
        return self.omega_plus - self.omega_minus

    @property
    def epsilon(self) -> float:
        """Mode-frequency ratio omega_plus / omega_minus."""
        return self.omega_plus / self.omega_minus


@dataclass(frozen=True)
class PhaseSpacePoint:
    """Classical phase-space point; momenta are kinetic (m * velocity)."""

    x: float   # m
    y: float   # m
    px: float  # kg m/s
    py: float  # kg m/s

    def __post_init__(self) -> None:
        for name in ("x", "y", "px", "py"):
            if not math.isfinite(getattr(self, name)):
                raise ParameterError(f"PhaseSpacePoint.{name} is not finite")


def derive_modes(config: TrapConfig) -> NormalModes:
    """Normal-mode frequencies and oscillator length; l_osc and omega_minus must be finite, > 0."""
    omega_tilde = math.hypot(config.omega0, config.omega_c / 2.0)
    m_omega = config.mass * omega_tilde
    l_osc = math.sqrt(HBAR / m_omega) if m_omega > 0 else math.inf
    omega_plus = omega_tilde + config.omega_c / 2.0
    # omega_tilde - omega_c/2 cancels catastrophically when omega_c >> omega0;
    # dividing keeps the product identity omega_plus * omega_minus = omega0^2
    # at machine precision for any ratio
    try:
        omega_minus = config.omega0 ** 2 / omega_plus
    except OverflowError:  # omega0**2 overflows, though omega_minus <= omega0
        omega_minus = math.inf
    for name, value in (("l_osc", l_osc), ("omega_minus", omega_minus)):
        if not 0 < value < math.inf:
            raise ParameterError(f"{name} is {value} in floating point for {config}")
    return NormalModes(
        omega_plus=omega_plus,
        omega_minus=omega_minus,
        omega_tilde=omega_tilde,
        l_osc=l_osc,
    )


def _check_sigma(sigma: int) -> int:
    if sigma not in (+1, -1):
        raise ParameterError(f"sigma must be +1 or -1, got {sigma}")
    return int(sigma)


def _amplitudes_from_center(modes: NormalModes, sigma: int, zeta, zdot):
    """Mode amplitudes (alpha_plus, alpha_minus) of the spin-sigma center (zeta, zeta')."""
    wp, wm, wt, l = modes.omega_plus, modes.omega_minus, modes.omega_tilde, modes.l_osc
    a_plus = (wm * zeta + 1j * sigma * zdot) / (2.0 * wt * l)
    a_minus = ((wp * zeta - 1j * sigma * zdot) / (2.0 * wt * l)).conjugate()
    return a_plus, a_minus


def _center_from_amplitudes(modes: NormalModes, sigma: int, a_plus, a_minus):
    """Center (zeta, zeta') of the spin-sigma mode amplitudes; inverse of the map above."""
    wp, wm, l = modes.omega_plus, modes.omega_minus, modes.l_osc
    zeta = l * (a_plus + a_minus.conjugate())
    zdot = -1j * sigma * l * (wp * a_plus - wm * a_minus.conjugate())
    return zeta, zdot


def _undriven_center(modes: NormalModes, sigma: int, a_plus, a_minus, t):
    """Center (zeta, zeta') at times t after amplitudes evolve as alpha_pm e^{-i sigma omega_pm t}."""
    t = np.asarray(t, dtype=float)
    a_plus = a_plus * np.exp(-1j * sigma * modes.omega_plus * t)
    a_minus = a_minus * np.exp(-1j * sigma * modes.omega_minus * t)
    return _center_from_amplitudes(modes, sigma, a_plus, a_minus)


def _trajectory_arrays(modes: NormalModes, sigma: int, z0: complex, v0: complex, t):
    """Vectorized closed-form (zeta, zeta_dot) of the undriven motion from (z0, v0) at t = 0."""
    return _undriven_center(modes, sigma, *_amplitudes_from_center(modes, sigma, z0, v0), t)


def classical_trajectory(modes: NormalModes, sigma: int, r0, t: float) -> PhaseSpacePoint:
    """Undriven (g = 0) trajectory released from rest at ``r0``.

    The path is a superposition of the two circular modes with rotation sense
    set by ``sigma``; the sigma = -1 path is the mirror image of the sigma = +1
    path across the axis through the origin and ``r0``.  Velocity vanishes at
    every t = pi * n / omega_tilde.  Momenta in the returned point are kinetic,
    with the mass recovered from HBAR / (omega_tilde * l_osc**2).
    """
    sigma = _check_sigma(sigma)
    if t < 0:
        raise ParameterError(f"t must be >= 0, got {t}")
    z0 = complex(r0[0], r0[1])
    zeta, zeta_dot = _trajectory_arrays(modes, sigma, z0, 0.0, t)
    mass = HBAR / (modes.omega_tilde * modes.l_osc**2)
    return PhaseSpacePoint(
        x=float(zeta.real),
        y=float(zeta.imag),
        px=float(mass * zeta_dot.real),
        py=float(mass * zeta_dot.imag),
    )


def h_perp(modes: NormalModes, t):
    """Differential-path kernel (omega_- sin(omega_+ t) - omega_+ sin(omega_- t)) / (2 omega_tilde).

    Dimensionless.  The perpendicular splitting of the two mirrored classical
    paths released from rest at r0 is 2 * (zhat x r0) * h_perp(t).  Identically
    zero when omega_c = 0.
    """
    t = np.asarray(t, dtype=float)
    wp, wm, wt = modes.omega_plus, modes.omega_minus, modes.omega_tilde
    out = (wm * np.sin(wp * t) - wp * np.sin(wm * t)) / (2.0 * wt)
    return float(out) if out.ndim == 0 else out
