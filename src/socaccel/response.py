"""Transfer functions from drive spectral weight to interferometer phase.

Analytic curves for the "up" (Ramsey-type) and "cp" (spin-echo) sequences,
plus a numeric extraction that probes the full pulse engine with weak
sinusoids and fits the linear response.  Conventions:

- curves map the scalar drive component along zhat x rhat0 to phase: a probe
  g_perp(t) = A cos(omega t + phi) produces the differential phase
  Phi = (1/2) Re[A exp(-i phi) F(omega)], in radians;
- the "cp" curve's ``t`` metadata is the quarter-segment time (total
  interrogation 4t), matching the preset argument.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import AmplitudeTooLargeError, ParameterError, ResolutionError
from .pulses import _BATCH_BLOCK, Displace, Evolve, PulseSequence, _coherence_record, _walk, ground_state
from .signals import Sinusoid
from .trap import NormalModes, TrapConfig

__all__ = [
    "ResponseCurve",
    "response_up",
    "response_cp",
    "numeric_response",
    "numeric_response_curve",
    "find_zeros",
    "find_peaks",
    "main_lobe_fwhm",
]

_DEFAULT_PHASES = (0.0, math.pi / 2.0, math.pi, 3.0 * math.pi / 2.0)


@dataclass(frozen=True, eq=False)
class ResponseCurve:
    """Complex response on a uniform, strictly increasing frequency grid."""

    omega: np.ndarray   # rad/s
    values: np.ndarray  # rad per unit spectral weight (m/s^2)
    kind: str = "custom"
    r0: float | None = None
    t: float | None = None
    modes: NormalModes | None = None

    def __post_init__(self):
        omega = np.asarray(self.omega, dtype=float)
        values = np.asarray(self.values, dtype=complex)
        if omega.ndim != 1 or omega.shape[0] < 2 or values.shape != omega.shape:
            raise ParameterError("curve needs matching 1-D grids of length >= 2")
        d = np.diff(omega)
        if not np.all(d > 0):
            raise ParameterError("omega grid must be strictly increasing")
        if not np.allclose(d, d[0], rtol=1e-9, atol=1e-12 * abs(d[0])):
            raise ParameterError("omega grid must be uniform")
        if not np.all(np.isfinite(values.view(float))):
            raise ParameterError("curve values must be finite")
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "values", values)

    @property
    def spacing(self) -> float:
        return float(self.omega[1] - self.omega[0])

    def to_csv(self, path) -> None:
        # abs() of a Python complex and ** 2 of a Python float are bit-equal to
        # numpy's scalar abs(v) ** 2; np.abs on the array is not, nor is m * m
        mags = [abs(v) for v in self.values.tolist()]
        try:
            abs2 = [m ** 2 for m in mags]
        except OverflowError:  # numpy's power reads inf past the float range
            with np.errstate(over="ignore"):
                abs2 = [float(np.float64(m) ** 2) for m in mags]
        columns = (self.omega, self.values.real, self.values.imag, abs2)
        Path(path).write_text(_csv_text("omega_rad_per_s,re,im,abs2", columns), newline="\n")

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "r0_m": self.r0,
            "t_s": self.t,
            "omega_rad_per_s": [float(w) for w in self.omega],
            "re": [float(v.real) for v in self.values],
            "im": [float(v.imag) for v in self.values],
        }

    def to_json(self, path) -> None:
        Path(path).write_text(json.dumps(self.as_dict(), sort_keys=True, indent=2) + "\n", newline="\n")


def _csv_text(header: str, columns) -> str:
    """CSV of equal-length numeric columns, each cell %.17g, made by one % for the file."""
    cells = np.array(columns, dtype=float)
    row = ",".join(["%.17g"] * cells.shape[0]) + "\n"
    return header + "\n" + (row * cells.shape[1]) % tuple(cells.T.ravel().tolist())


def _r0_magnitude(r0) -> float:
    with np.errstate(over="ignore"):  # an overflowing |r0| is inf, which the curve's finiteness check names
        mag = float(np.linalg.norm(np.atleast_1d(np.asarray(r0, dtype=float))))
    if not mag > 0:
        raise ParameterError(f"r0 magnitude must be > 0, got {r0!r}")
    return mag


def _grid_or_default(modes: NormalModes, grid) -> np.ndarray:
    if grid is None:
        return np.linspace(0.0, 3.0 * modes.omega_plus, 4096)
    return np.asarray(grid, dtype=float)


def _f_window(omega, t: float):
    """f(omega) = sinc(omega t / 2) exp(-i omega t / 2), f(0) = 1 exactly."""
    x = np.asarray(omega, dtype=float) * t / 2.0
    return np.sinc(x / np.pi) * np.exp(-1j * x)


def response_up(modes: NormalModes, r0, t: float, grid=None) -> ResponseCurve:
    """Single-window response of the "up" sequence.

    F0(omega) = (m/hbar)(i r0 t / omega_tilde) [ w- f(omega + w+) - w- f(omega - w+)
                                               - w+ f(omega + w-) + w+ f(omega - w-) ]
    which equals 4 r0 (m/hbar) integral_0^t h_perp(t') exp(-i omega t') dt'.
    Linear in r0.
    """
    r0_mag, w, vals = _up_values(modes, r0, t, grid)
    return ResponseCurve(omega=w, values=vals, kind="up", r0=r0_mag, t=t, modes=modes)


def _up_values(modes: NormalModes, r0, t: float, grid):
    """(|r0|, grid, F0 values) of :func:`response_up`, the grid not yet validated."""
    if not t > 0:
        raise ParameterError(f"t must be > 0, got {t}")
    r0_mag = _r0_magnitude(r0)
    w = _grid_or_default(modes, grid)
    wp, wm, wt = modes.omega_plus, modes.omega_minus, modes.omega_tilde
    m_over_hbar = 1.0 / (wt * modes.l_osc**2)
    pref = 1j * m_over_hbar * r0_mag * t / wt
    vals = pref * (
        wm * _f_window(w + wp, t)
        - wm * _f_window(w - wp, t)
        - wp * _f_window(w + wm, t)
        + wp * _f_window(w - wm, t)
    )
    return r0_mag, w, vals


def response_cp(modes: NormalModes, r0, t: float, grid=None) -> ResponseCurve:
    """Response of the echo sequence with pi flips at t and 3t (total 4t).

    F(omega) = 2i sin(omega t) [F0(omega) e^{i omega t} + F0*(omega) e^{-i omega t}]
               * exp(-2i omega t),
    equivalently (1 - e^{-2i omega t})(F0 + e^{-2i omega t} F0*).  Vanishes at
    omega = 0 and, when omega_pm t is a multiple of pi, exactly at omega_pm.
    """
    r0_mag, w, f0 = _up_values(modes, r0, t, grid)
    wt_arg = w * t
    vals = (
        2j
        * np.sin(wt_arg)
        * (f0 * np.exp(1j * wt_arg) + np.conj(f0) * np.exp(-1j * wt_arg))
        * np.exp(-2j * wt_arg)
    )
    return ResponseCurve(omega=w, values=vals, kind="cp", r0=r0_mag, t=t, modes=modes)


def _probe_direction(sequence: PulseSequence) -> np.ndarray:
    """Unit vector zhat x rhat0 from the sequence's Displace step."""
    for step in sequence:
        if isinstance(step, Displace):
            r0 = np.asarray(step.shift, dtype=float)
            mag = float(np.linalg.norm(r0))
            if mag == 0.0:
                raise ParameterError("Displace shift is zero; probe direction undefined")
            return np.array([-r0[1], r0[0]]) / mag
    raise ParameterError("sequence has no Displace step; probe direction undefined")


def _numeric_transfer(config: TrapConfig, sequence: PulseSequence, omegas, amplitude: float, phases):
    """Transfer coefficients at ``omegas`` from one array walk per ``_BATCH_BLOCK`` probes.

    Every (omega, phi) probe is one drive of the walk, so all windows of all probes share
    one kernel pass.  The design matrix of the fit depends only on the phases, so one
    least-squares solve takes one right-hand side per frequency.  Errors are raised for
    the first failing frequency, the 0.1 rad limit before the offset check.
    """
    if not amplitude > 0:
        raise ParameterError(f"probe amplitude must be > 0, got {amplitude}")
    omegas = np.asarray(omegas, dtype=float)
    negative = omegas[omegas < 0]
    if negative.size:
        raise ParameterError(f"omega must be >= 0, got {float(negative[0])}")
    phis = np.asarray(phases, dtype=float)
    if phis.ndim != 1 or phis.shape[0] < 2:
        raise ParameterError("need at least 2 probe phases")
    e_perp = _probe_direction(sequence)

    amp = (amplitude * e_perp[0], amplitude * e_perp[1])
    probes = [Sinusoid(amp, omega, phi) for omega in omegas.tolist() for phi in phis.tolist()]
    measured = np.empty(len(probes))
    for lo in range(0, len(probes), _BATCH_BLOCK):
        block = tuple(probes[lo : lo + _BATCH_BLOCK])
        _, coh_state, _ = _walk(ground_state(config), sequence, block)
        measured[lo : lo + len(block)] = _coherence_record(coh_state)[2]
    measured = measured.reshape(omegas.shape[0], phis.shape[0])

    cols = [np.cos(phis), np.sin(phis)]
    if phis.shape[0] >= 3:
        cols.append(np.ones_like(phis))
    coef, *_ = np.linalg.lstsq(np.column_stack(cols), measured.T, rcond=None)
    a, b = coef[0], coef[1]
    c = coef[2] if phis.shape[0] >= 3 else np.zeros_like(a)
    too_large = np.abs(measured) > 0.1
    offset = np.abs(c) > 0.01 * np.maximum(np.hypot(a, b), 0.01)
    failing = np.flatnonzero(too_large.any(axis=1) | offset)
    if failing.size:
        i = failing[0]
        if too_large[i].any():
            phase = measured[i, np.argmax(too_large[i])]
            raise AmplitudeTooLargeError(f"probe phase {phase:.3g} rad exceeds the 0.1 rad linear regime")
        raise AmplitudeTooLargeError(
            f"quadratic phase offset {c[i]:.3g} rad exceeds 1% of the linear response"
        )
    values = np.empty(omegas.shape[0], dtype=complex)
    values.real, values.imag = 2.0 * a / amplitude, 2.0 * b / amplitude
    return values


def numeric_response(
    config: TrapConfig,
    sequence: PulseSequence,
    omega: float,
    amplitude: float,
    phases=_DEFAULT_PHASES,
) -> complex:
    """Linear transfer coefficient extracted from time-domain engine runs.

    Drives the sequence with A cos(omega t + phi) along zhat x rhat0 for each
    probe phase and fits the differential phase to
    Phi(phi) = (A/2) Re[exp(-i phi) F] (plus a constant when >= 3 phases are
    given, absorbing the quadratic offset).  All probes share one kernel pass
    and one array walk of the engine.  Raises AmplitudeTooLargeError if
    any probe phase exceeds 0.1 rad or the quadratic offset exceeds 1% of the
    linear response (with a 1e-4 rad absolute allowance near response zeros).
    """
    return complex(_numeric_transfer(config, sequence, [omega], amplitude, phases)[0])


def numeric_response_curve(
    config: TrapConfig,
    sequence: PulseSequence,
    omegas,
    amplitude: float,
    phases=_DEFAULT_PHASES,
) -> ResponseCurve:
    """Numeric transfer function on a frequency grid, point by point as :func:`numeric_response`.

    The probes of all frequencies and phases share one kernel pass and one array walk
    (per 2,048 probes).
    """
    omegas = np.asarray(omegas, dtype=float)
    vals = _numeric_transfer(config, sequence, omegas, amplitude, phases)
    r0 = next(float(np.linalg.norm(np.asarray(s.shift))) for s in sequence if isinstance(s, Displace))
    t_total = sum(s.duration for s in sequence if isinstance(s, Evolve))
    t_meta = t_total / 4.0 if sequence.name == "cp" else t_total
    return ResponseCurve(
        omega=omegas,
        values=vals,
        kind=f"numeric-{sequence.name}",
        r0=r0,
        t=t_meta if t_meta > 0 else None,
    )


def _check_resolution(curve: ResponseCurve) -> None:
    if curve.t is not None and curve.spacing > (2.0 * math.pi / curve.t) / 20.0:
        raise ResolutionError(
            f"grid spacing {curve.spacing:.4g} rad/s too coarse for t = {curve.t:.4g} s "
            f"(need < {(2.0 * math.pi / curve.t) / 20.0:.4g})"
        )


def _parabolic_vertex(x0: float, dx: float, y_m: float, y_0: float, y_p: float):
    """Vertex of the parabola through (x0 - dx, y_m), (x0, y_0), (x0 + dx, y_p)."""
    denom = y_p - 2.0 * y_0 + y_m
    if denom == 0.0:
        return x0, y_0
    shift = 0.5 * (y_m - y_p) / denom
    return x0 + shift * dx, y_0 - 0.125 * (y_m - y_p) ** 2 / denom


def find_zeros(curve: ResponseCurve, rel_tol: float = 1e-6) -> list[float]:
    """Frequencies where |F| vanishes, by refined local minima of |F|^2.

    A local minimum counts as a zero when its parabolic-fit depth is below
    rel_tol * peak of |F|^2; grid boundary samples that deep are included
    directly.  Raises ResolutionError when the grid is too coarse for the
    curve's t metadata (spacing must be < (2 pi / t) / 20).
    """
    _check_resolution(curve)
    m2 = np.abs(curve.values) ** 2
    peak = float(m2.max())
    if peak == 0.0:
        raise ParameterError("curve is identically zero")
    dx = curve.spacing
    zeros: list[float] = []
    if m2[0] <= rel_tol * peak:
        zeros.append(float(curve.omega[0]))
    mid = m2[1:-1]
    for i in (np.flatnonzero((mid <= m2[:-2]) & (mid < m2[2:])) + 1).tolist():
        x, depth = _parabolic_vertex(float(curve.omega[i]), dx, m2[i - 1], m2[i], m2[i + 1])
        if max(depth, 0.0) <= rel_tol * peak:
            zeros.append(x)
    if m2[-1] <= rel_tol * peak:
        zeros.append(float(curve.omega[-1]))
    return zeros


def find_peaks(curve: ResponseCurve) -> list[tuple[float, float]]:
    """(omega, |F|) for every strict local maximum, parabolically refined."""
    _check_resolution(curve)
    m2 = np.abs(curve.values) ** 2
    dx = curve.spacing
    peaks: list[tuple[float, float]] = []
    mid = m2[1:-1]
    for i in (np.flatnonzero((mid >= m2[:-2]) & (mid > m2[2:]) & (mid > 0.0)) + 1).tolist():
        x, height = _parabolic_vertex(float(curve.omega[i]), dx, m2[i - 1], m2[i], m2[i + 1])
        peaks.append((x, math.sqrt(max(height, 0.0))))
    return peaks


def main_lobe_fwhm(curve: ResponseCurve) -> float:
    """Full width at half maximum of |F|^2 around its global peak (rad/s)."""
    m2 = np.abs(curve.values) ** 2
    i0 = int(np.argmax(m2))
    half = m2[i0] / 2.0
    if m2[i0] == 0.0:
        raise ParameterError("curve is identically zero")

    def cross(direction: int) -> float:
        i = i0
        while 0 <= i + direction < m2.shape[0] and m2[i + direction] > half:
            i += direction
        j = i + direction
        if j < 0 or j >= m2.shape[0]:
            raise ResolutionError("half-maximum crossing lies outside the grid")
        # linear interpolation between samples i and j
        frac = (m2[i] - half) / (m2[i] - m2[j])
        return float(curve.omega[i] + frac * (curve.omega[j] - curve.omega[i]))

    return cross(+1) - cross(-1)
