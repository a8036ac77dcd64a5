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

This module holds the parameter types, the closed-form undriven trajectory,
the differential-path kernel ``h_perp``, and a fixed-step RK4 integrator that serves as the oracle for everything
built on top; one RK4 step and one right-hand side serve a single state and
a batch alike.  Public interfaces are SI; the integrator works internally in
dimensionless units (time * omega_tilde, length / l_osc) so state components
stay O(1) across the uK/kHz/um regime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import HBAR, K_B
from .errors import DivergenceError, ParameterError

__all__ = [
    "TrapConfig",
    "NormalModes",
    "PhaseSpacePoint",
    "derive_modes",
    "classical_trajectory",
    "integrate_eom_numeric",
    "h_perp",
]


@dataclass(frozen=True)
class TrapConfig:
    """Physical parameters of the trap Hamiltonian.

    ``omega_c`` is the synthetic cyclotron frequency (the spin-orbit coupling
    scale); ``omega_c = 0`` is allowed and reproduces spin-independent physics.
    """

    mass: float            # kg
    omega0: float          # rad/s, bare trap frequency
    omega_c: float = 0.0   # rad/s, synthetic cyclotron frequency
    hbar: float = HBAR
    k_B: float = K_B

    def __post_init__(self) -> None:
        if not (math.isfinite(self.mass) and self.mass > 0):
            raise ParameterError(f"mass must be positive and finite, got {self.mass}")
        if not (math.isfinite(self.omega0) and self.omega0 > 0):
            raise ParameterError(f"omega0 must be positive and finite, got {self.omega0}")
        if not (math.isfinite(self.omega_c) and self.omega_c >= 0):
            raise ParameterError(f"omega_c must be non-negative and finite, got {self.omega_c}")
        if not (self.hbar > 0 and self.k_B > 0):
            raise ParameterError("hbar and k_B must be positive")

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

    @property
    def position(self) -> np.ndarray:
        return np.array([self.x, self.y])


def derive_modes(config: TrapConfig) -> NormalModes:
    """Normal-mode frequencies and oscillator length for a trap config."""
    omega_tilde = math.hypot(config.omega0, config.omega_c / 2.0)
    l_osc = math.sqrt(config.hbar / (config.mass * omega_tilde))
    omega_plus = omega_tilde + config.omega_c / 2.0
    # omega_tilde - omega_c/2 cancels catastrophically when omega_c >> omega0;
    # dividing keeps the product identity omega_plus * omega_minus = omega0^2
    # at machine precision for any ratio
    omega_minus = config.omega0 ** 2 / omega_plus
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


def _mode_coefficients(modes: NormalModes, sigma: int, z0: complex, v0: complex):
    """Coefficients of the undriven solution for initial (position, velocity).

    For sigma the solution is
        zeta(t) = c_slow * exp(i sigma omega_minus t) + c_fast * exp(-i sigma omega_plus t)
    fixed by zeta(0) = z0 and zeta'(0) = v0.
    """
    wp, wm, wt = modes.omega_plus, modes.omega_minus, modes.omega_tilde
    c_slow = (wp * z0 - 1j * sigma * v0) / (2.0 * wt)
    c_fast = (wm * z0 + 1j * sigma * v0) / (2.0 * wt)
    return c_slow, c_fast


def _trajectory_arrays(modes: NormalModes, sigma: int, z0: complex, v0: complex, t):
    """Vectorized closed-form (zeta, zeta_dot) of the undriven motion."""
    t = np.asarray(t, dtype=float)
    wp, wm = modes.omega_plus, modes.omega_minus
    c_slow, c_fast = _mode_coefficients(modes, sigma, z0, v0)
    e_slow = np.exp(1j * sigma * wm * t)
    e_fast = np.exp(-1j * sigma * wp * t)
    zeta = c_slow * e_slow + c_fast * e_fast
    zeta_dot = 1j * sigma * (wm * c_slow * e_slow - wp * c_fast * e_fast)
    return zeta, zeta_dot


def classical_trajectory(
    modes: NormalModes,
    sigma: int,
    r0,
    t: float,
    hbar: float = HBAR,
) -> PhaseSpacePoint:
    """Undriven (g = 0) trajectory released from rest at ``r0``.

    The path is a superposition of the two circular modes with rotation sense
    set by ``sigma``; the sigma = -1 path is the mirror image of the sigma = +1
    path across the axis through the origin and ``r0``.  Velocity vanishes at
    every t = pi * n / omega_tilde.  Momenta in the returned point are kinetic,
    with the mass recovered from hbar / (omega_tilde * l_osc**2).
    """
    sigma = _check_sigma(sigma)
    if t < 0:
        raise ParameterError(f"t must be >= 0, got {t}")
    z0 = complex(r0[0], r0[1])
    zeta, zeta_dot = _trajectory_arrays(modes, sigma, z0, 0.0, t)
    mass = hbar / (modes.omega_tilde * modes.l_osc**2)
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


def _deriv(state, sigma, wc_ratio, w0_ratio_sq, gx, gy):
    """Dimensionless EOM right-hand side; state = [xi_x, xi_y, u_x, u_y], shape (4,) or (4, N)."""
    ux, uy = state[2], state[3]
    return np.array(
        [
            ux,
            uy,
            sigma * wc_ratio * uy - w0_ratio_sq * state[0] + gx,
            -sigma * wc_ratio * ux - w0_ratio_sq * state[1] + gy,
        ]
    )


def _rk4_step(rhs, x, tau, h):
    """One classical fourth-order Runge-Kutta step of x' = rhs(x, tau)."""
    k1 = rhs(x, tau)
    k2 = rhs(x + (h / 2.0) * k1, tau + h / 2.0)
    k3 = rhs(x + (h / 2.0) * k2, tau + h / 2.0)
    k4 = rhs(x + h * k3, tau + h)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def integrate_eom_numeric(
    config: TrapConfig,
    sigma: int,
    initial: PhaseSpacePoint,
    force,
    dt: float,
    t_final: float,
) -> list[PhaseSpacePoint]:
    """Fixed-step RK4 integration of the spin-sigma classical equations.

    Returns the sampled path [state(0), state(dt), ..., state(t_final)]; if
    ``dt`` does not divide ``t_final`` the last interval is shortened so the
    final sample lands exactly on ``t_final``.  Deterministic for fixed inputs.
    Raises :class:`DivergenceError` if the state stops being finite.
    """
    sigma = _check_sigma(sigma)
    if dt <= 0:
        raise ParameterError(f"dt must be > 0, got {dt}")
    if t_final < 0:
        raise ParameterError(f"t_final must be >= 0, got {t_final}")

    modes = derive_modes(config)
    wt, l = modes.omega_tilde, modes.l_osc
    wc_ratio = config.omega_c / wt
    w0_ratio_sq = (config.omega0 / wt) ** 2
    g_scale = 1.0 / (wt * wt * l)   # acceleration -> dimensionless
    mass = config.mass

    last = [math.nan, None]  # (tau, g): k2 and k3 share a time, as do k4 and the next k1

    def rhs(x, tau: float):
        if tau != last[0]:
            last[:] = tau, force.evaluate(tau / wt)
        g = last[1]
        return _deriv(x, sigma, wc_ratio, w0_ratio_sq, g[0] * g_scale, g[1] * g_scale)

    state = np.array(
        [initial.x / l, initial.y / l, initial.px / (mass * wt * l), initial.py / (mass * wt * l)]
    )
    out = [initial]
    n_full = int(math.floor(t_final / dt + 1e-12))
    taus = [dt * wt] * n_full
    remainder = t_final - n_full * dt
    if remainder > 1e-12 * max(dt, t_final):
        taus.append(remainder * wt)

    tau_now = 0.0
    for h in taus:
        state = _rk4_step(rhs, state, tau_now, h)
        tau_now += h
        if not np.all(np.isfinite(state)):
            raise DivergenceError(f"non-finite state at t = {tau_now / wt:.6g} s")
        out.append(
            PhaseSpacePoint(
                x=float(state[0] * l),
                y=float(state[1] * l),
                px=float(state[2] * mass * wt * l),
                py=float(state[3] * mass * wt * l),
            )
        )
    if not np.all(np.isfinite(state)):
        raise DivergenceError("non-finite state at end of integration")
    return out


def _rk4_batch(omega0, omega_c, sigma, z0, v0, g_const, g_amp, g_freq, g_phase,
               t_final, n_steps: int, n_checkpoints: int = 10):
    """Vectorized RK4 over a batch of independent dimensionless configs.

    All array arguments have shape (N,).  The drive per config is
    g(t) = g_const + g_amp * cos(g_freq * t + g_phase), 2-vectors encoded as
    complex numbers.  Times are in seconds and frequencies in rad/s; lengths
    may be in any consistent unit L (velocities L/s, accelerations L/s^2).
    Internally each config is advanced in its own dimensionless time.
    Returns (times (K, N), zeta (K, N), zeta_dot (K, N)) at K checkpoints
    including t = 0 and t = t_final.  Test helper for the oracle-equivalence
    battery; not part of the public API.
    """
    omega0 = np.asarray(omega0, dtype=float)
    n = omega0.shape[0]
    wt = np.hypot(omega0, np.asarray(omega_c) / 2.0)
    wc_r = np.asarray(omega_c) / wt
    w0_sq = (omega0 / wt) ** 2
    sig = np.asarray(sigma, dtype=float)
    h = np.asarray(t_final, dtype=float) * wt / n_steps  # per-config dimensionless step

    x = np.empty((4, n))
    zz = np.asarray(z0, dtype=complex)
    vv = np.asarray(v0, dtype=complex)
    x[0], x[1] = zz.real, zz.imag
    x[2], x[3] = vv.real / wt, vv.imag / wt   # u = v / omega_tilde (lengths pre-scaled)

    gc = np.asarray(g_const, dtype=complex)
    ga = np.asarray(g_amp, dtype=complex)
    gf = np.asarray(g_freq, dtype=float) / wt   # rad/s -> per dimensionless time
    gp = np.asarray(g_phase, dtype=float)

    def rhs(s, tau):
        g = gc + ga * np.cos(gf * tau + gp)
        return _deriv(s, sig, wc_r, w0_sq, g.real / wt**2, g.imag / wt**2)

    check_every = max(1, n_steps // n_checkpoints)
    times, zs, vs = [], [], []

    def record(tau):
        times.append(tau / wt)
        zs.append(x[0] + 1j * x[1])
        vs.append((x[2] + 1j * x[3]) * wt)

    tau = np.zeros(n)
    record(tau)
    for k in range(n_steps):
        x = _rk4_step(rhs, x, tau, h)
        tau = tau + h
        if (k + 1) % check_every == 0 or k == n_steps - 1:
            record(tau)
    if not np.all(np.isfinite(x)):
        raise DivergenceError("non-finite state in batched integration")
    return np.array(times), np.array(zs), np.array(vs)
