"""Reference integrators the tests compare the closed forms and the engine against.

A fixed-step classical RK4 of the spin-sigma equations of motion
    zeta'' + i sigma omega_c zeta' + omega0**2 zeta = g(t),
for one state (``integrate_eom_numeric``) and for a batch of independent
configs (``_rk4_batch``); one RK4 step and one right-hand side serve both.
They work in dimensionless units (time * omega_tilde, length / l_osc), so
state components stay O(1) across the uK/kHz/um regime.

``_s_of_omega`` is the shot-noise sensitivity at one trap frequency through
the full geometry and collision-budget chain, the per-point reference that
``optimize_trap``'s closed-form optimum is checked against.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from socaccel.errors import DivergenceError, InfeasibleGeometryError, ParameterError
from socaccel.sensitivity import (
    ApparatusParams, SpeciesParams, _shot_noise, collision_budget, thermal_geometry,
)
from socaccel.trap import PhaseSpacePoint, TrapConfig, _check_sigma, derive_modes


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


def _s_of_omega(species: SpeciesParams, apparatus: ApparatusParams, omega: float) -> float:
    """S with apparatus.omega_tilde set to omega; inf where the cloud does not fit."""
    ap = dataclasses.replace(apparatus, omega_tilde=omega)
    try:
        geometry = thermal_geometry(species, ap)
    except InfeasibleGeometryError:
        return math.inf
    budget = collision_budget(species, ap, geometry)
    n_total = ap.atoms_per_layer * geometry.n_layers
    return _shot_noise(species, geometry.r_0, n_total, budget.tau)
