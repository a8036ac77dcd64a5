"""Transfer functions from drive spectral weight to interferometer phase.

Analytic curves for the "up" (Ramsey-type) and "cp" (spin-echo) sequences, in
closed forms of one complex exponential per window term of "up" and two more
for the echo, plus a numeric extraction that probes the full pulse engine with
weak sinusoids and fits the linear response.  Conventions:

- curves map the scalar drive component along zhat x rhat0 to phase: a probe
  g_perp(t) = A cos(omega t + phi) produces the differential phase
  Phi = (1/2) Re[A exp(-i phi) F(omega)], in radians;
- the "cp" curve's ``t`` metadata is the quarter-segment time (total
  interrogation 4t), matching the preset argument.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import AmplitudeTooLargeError, ParameterError, ResolutionError
from .pulses import Displace, Evolve, PulseSequence, _sample_walk
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
        d0 = float(d[0])
        tol = 1e-12 * d0 + 1e-9 * d0 if d0 < math.inf else -1.0  # an infinite d0 is close to inf only
        if not np.all((np.abs(d - d0) <= tol) | (d == d0)):  # np.allclose(d, d0, rtol=1e-9, atol=1e-12 * d0)
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
            "omega_rad_per_s": self.omega.tolist(),
            "re": self.values.real.tolist(),
            "im": self.values.imag.tolist(),
        }

    def to_json(self, path) -> None:
        Path(path).write_text(json.dumps(self.as_dict(), sort_keys=True, indent=2) + "\n", newline="\n")


def _csv_text(header: str, columns) -> str:
    """CSV of equal-length numeric columns; each cell is C's ``%.17g`` of the value as a double.

    That is 17 significant digits rounded half to even, without trailing zeros, so every
    cell reads back to the same double.  Cells with 10^-11 <= |x| < 10^17 are laid out by
    :func:`_csv_cells` from exact integer arithmetic, ``_CSV_BLOCK_ROWS`` rows at a time.
    The others (+-0, subnormals, |x| < 10^-11, |x| >= 10^17, +-inf and nan) get Python's
    ``'%.17g' %``, which writes them as printf does ("-0", "inf", "nan", "1e+17").
    """
    cells = np.array(columns, dtype=float)
    blocks = (
        _csv_cells(cells[:, lo : lo + _CSV_BLOCK_ROWS].T.ravel(), cells.shape[0]).tobytes().translate(None, b"\0")
        for lo in range(0, cells.shape[1], _CSV_BLOCK_ROWS)
    )
    return header + "\n" + b"".join(blocks).decode("ascii")


# Cells of _csv_text.  A double |x| = m 2^(e - 1075), with m of 53 bits and e its biased
# exponent, whose 17 significant digits are D 10^(k - 16) with D in [10^16, 10^17), has
# D = round_half_even(m 5^q 2^(e - 1075 + q)), q = 16 - k.  For -11 <= k <= 16, 5^q < 2^63,
# and D is one exact 117-bit product shifted right by r in [1, 63] (Adams, "Ryu revisited:
# printf floating point conversion", OOPSLA 2019, takes the same digits from tables).
# A binade [2^(e - 1023), 2^(e - 1022)) holds at most one decade start, so the sign and
# exponent se = bits >> 52 and whether |x| reaches the start above 2^(e - 1023) give both k
# and r.  Every step runs on contiguous 1-D columns, or (2, n) rows of the two digit words.
# A cell's 32 bytes are 4 little-endian words: sign, the "0.0" prefix of -4 <= k < 0, a NUL
# and the first digit; digits 2-17, into which the point is inserted; the byte the point
# pushes out, the exponent, the separator.  NUL bytes are padding.
_CSV_BLOCK_ROWS = 512  # bounds the block's temporaries, so a long file adds no peak memory


def _decade_start(k: int) -> float:
    """The smallest double whose 17 significant digits are >= 10^k (ties round up to it)."""
    num, den = 10**18 - 5, 10 ** (18 - k)
    start = num / den  # correctly rounded
    p, q = start.as_integer_ratio()
    return start if p * den >= num * q else math.nextafter(start, math.inf)


@functools.cache
def _csv_tables():
    """Tables of :func:`_csv_cells`, built on its first call.

    - above, by se: the bits of the decade start above 2^(e - 1023) with the sign of se (inf
      past 10^17), so |x| reaches it when bits >= above[se];
    - classes and shifts, at 2 se + (|x| reaches it): the class c, 1-28 for the negative
      cells of k = 17 - c, 30-57 for the positive cells of k = c - 41, and 0, 29 or 58 for
      the cells that go through %; and r (t = 5 keeps r >= 1 for k = 15, 16);
    - columns, by c: the 32-bit halves of 5^q 2^t, the first and last words of the layout,
      and whether it goes through %;
    - digits: the ASCII words of "0000"-"9999", in the low and in the high half of a word;
      lasts[j], at g: 59 (4 j + the digits of g up to its last nonzero one), 0 for 0000, for
      group j of digits 2-17;
    - masks, at c + 59 a, where digits 2..a+1 end at the last nonzero one: in the two words
      of digits 2-17, the digits before the point, those it moves a byte up, and the point.
    """
    starts = [_decade_start(k) for k in range(-11, 18)]
    below = np.append(np.searchsorted(starts, np.ldexp(1.0, np.arange(-1023, 1024)), "right"), 29)
    above = np.append(starts, math.inf)[below].view(np.uint64)
    count = np.minimum(below[:, None] + np.arange(2), 29)  # the decade starts <= |x|
    classes = np.concatenate([29 + count, 29 - count]).ravel()
    k = np.abs(np.arange(59) - 29) - 12
    q = np.clip(16 - k, 0, 27)
    t = np.where(q <= 1, 5, 0)
    shifts = np.clip((1075 - q + t)[classes] - (np.arange(8192) >> 1 & 2047), 1, 63)  # r = e_c - e
    c = 5 ** q.astype(np.uint64) << t.astype(np.uint64)
    fixed = (k >= -4) & (k < 17)
    prefixes = ["0." + "0" * (-j - 1) if -4 <= j < 0 else "" for j in k.tolist()]
    heads = [("-" if i < 29 else "\0") + p.ljust(6, "\0") + "0" for i, p in enumerate(prefixes)]
    tails = ["\0" + ("" if f else "e%+03d" % j).ljust(4, "\0") + "," for j, f in zip(k.tolist(), fixed.tolist())]
    columns = (c >> np.uint64(32), c & np.uint64(0xFFFFFFFF), np.array(heads, "S8").view("<u8"),
               np.array(tails, "S8").view("<u8"), np.isin(np.arange(59), (0, 29, 58)))
    digits = np.indices((10,) * 4, np.uint8).reshape(4, -1)
    words = np.ascontiguousarray(digits.T + 48, np.uint8).view("<u4").ravel().astype(np.uint64)
    nonzero = digits != 0
    length = np.where(nonzero.any(axis=0), 4 - np.argmax(nonzero[::-1], axis=0), 0).astype(np.int16)
    lasts = np.where(length > 0, 59 * (length + np.arange(0, 16, 4, dtype=np.int16)[:, None]), 0)
    a, pos = np.arange(17)[:, None, None], np.arange(16)
    kept = np.maximum(a, np.where(fixed & (k >= 0), k, 0)[:, None])  # digits 2..kept+1 stay
    point = np.where(fixed, np.where(k >= 0, k, 16), 0)[:, None]  # the digit the point follows
    after = np.where(a > point, point, 16)  # none when no digit follows it
    before = pos < np.minimum(kept, after)
    fills = np.uint8([0xFF, 0xFF, ord(".")])[:, None, None, None]
    masks = np.where([before, (pos < kept) & ~before, pos == after], fills, 0)
    return (
        np.concatenate([above, above | np.uint64(1 << 63)]), classes, shifts.astype(np.uint8),
        np.stack(columns).astype(np.uint64), np.stack([words, words << np.uint64(32)]), lasts,
        masks.view("<u8").reshape(3, -1, 2).transpose(0, 2, 1).copy(),
    )


def _split4(a: np.ndarray):
    """(a // 10^4, a % 10^4) of uint64 a < 10^8 from one multiply-shift: 109951163 exceeds
    2^40 / 10^4 by 0.2224, so a 109951163 / 2^40 exceeds a / 10^4 by less than 2.1e-5, short
    of the 10^-4 that would carry past the integer part."""
    hi = (a * 109951163) >> 40
    return hi, a - hi * 10**4


def _csv_cells(x: np.ndarray, ncols: int) -> np.ndarray:
    """(n, 4) words of the n = rows * ncols cells ``x``, row-major, for :func:`_csv_text`."""
    above, classes, shifts, columns, digits, lasts, masks = _csv_tables()
    n = x.size
    bits = x.view(np.uint64)
    se = (bits >> 52).view(np.int64)
    at = se << 1
    at += bits >= above.take(se)
    c = classes.take(at)
    chi, clo, head, tail, special = (col.take(c) for col in columns)
    r = shifts.take(at)
    mh, ml = ((bits >> 32) & 0xFFFFF) | 0x100000, bits & 0xFFFFFFFF
    lo = ml * clo
    mid = mh * clo + ml * chi
    plo = lo + (mid << 32)
    phi = mh * chi + (mid >> 32) + (plo < lo)
    s = 64 - r
    d = (phi << s) | (plo >> r)
    d += ((plo << s) + (d & 1)) > 1 << 63  # round half to even
    # D = first digit, then two halves of eight digits, each two groups of four
    upper = d // 10**8
    first = upper // 10**8
    halves = np.empty((2, n), np.uint64)
    np.subtract(upper, first * 10**8, out=halves[0])
    np.subtract(d, upper * 10**8, out=halves[1])
    even, odd = (g.view(np.int64) for g in _split4(halves))  # groups 0, 2 and 1, 3
    words = digits[0].take(even) | digits[1].take(odd)  # digits 2-9 and 10-17
    a = np.maximum(lasts[0].take(even[0]), lasts[1].take(odd[0]))  # 59 x the digits up to the last nonzero one
    np.maximum(a, np.maximum(lasts[2].take(even[1]), lasts[3].take(odd[1])), out=a)
    before, moved, point = (m.take(a + c, axis=1) for m in masks)
    moved &= words
    words &= before
    words |= point | (moved << 8)
    moved >>= 56
    out = np.empty((n, 4), np.uint64)
    np.bitwise_or(head, first << 56, out=out[:, 0])
    out[:, 1] = words[0]
    np.bitwise_or(words[1], moved[0], out=out[:, 2])
    np.bitwise_or(tail, moved[1], out=out[:, 3])
    out.reshape(-1, ncols, 4)[:, -1, 3] ^= (ord(",") ^ ord("\n")) << 40  # the last separator of a row
    outside = np.flatnonzero(special)
    if outside.size:
        text = np.array(["%.17g" % v for v in x[outside].tolist()], "S29")
        out.view(np.uint8).reshape(n, 32)[outside, :29] = text.view(np.uint8).reshape(-1, 29)
    return out


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
    """f(omega) = sinc(x) e^{-ix}, x = omega t / 2, from one complex exponential e = e^{-ix}:
    sinc(x) = -Im(e) / x, which is sin(x) / x bit for bit, and f(0) = 1 exactly."""
    x = np.asarray(omega, dtype=float) * t / 2.0
    e = np.exp(-1j * x)
    return np.divide(-e.imag, x, out=np.ones_like(x), where=x != 0.0) * e


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
    w_max = float(np.max(np.abs(w), initial=0.0)) + wp  # the largest |omega| of a window term
    if math.isfinite(w_max) and not math.isfinite(w_max * t):
        raise ParameterError(f"t = {t:.3e} s overflows omega * t on a grid up to {w_max:.3e} rad/s")
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

    F(omega) = 2i sin(omega t) [F0 e^{i omega t} + F0* e^{-i omega t}] exp(-2i omega t),
    equivalently (1 - e^{-2i omega t})(F0 + e^{-2i omega t} F0*).  The bracket is
    2 Re[F0 e^{i omega t}], so F takes two complex exponentials beyond F0.  Vanishes at
    omega = 0 and, when omega_pm t is a multiple of pi, exactly at omega_pm.
    """
    r0_mag, w, f0 = _up_values(modes, r0, t, grid)
    return ResponseCurve(omega=w, values=_cp_values(w, t, f0), kind="cp", r0=r0_mag, t=t, modes=modes)


def _cp_values(w, t: float, f0):
    """Echo values of :func:`response_cp` on grid ``w`` from the up values ``f0`` there."""
    wt = w * t
    return 2j * np.sin(wt) * (2.0 * (f0 * np.exp(1j * wt)).real) * np.exp(-2j * wt)


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
    """Transfer coefficients at ``omegas`` from one sample walk over the probes.

    Every (omega, phi) probe is one drive of the walk from the ground state, so all windows
    of the probes of one block share one kernel pass.  The design matrix of the fit depends
    only on the phases, so one least-squares solve takes one right-hand side per frequency.
    Errors are raised for the first failing frequency, the 0.1 rad limit before the offset
    check.
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
    probes = tuple(Sinusoid(amp, omega, phi) for omega in omegas.tolist() for phi in phis.tolist())
    measured = _sample_walk(config, 0j, 0j, sequence, probes)[2].reshape(omegas.shape[0], phis.shape[0])

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
    for i in (np.flatnonzero((mid >= m2[:-2]) & (mid > m2[2:])) + 1).tolist():
        x, height = _parabolic_vertex(float(curve.omega[i]), dx, m2[i - 1], m2[i], m2[i + 1])
        peaks.append((x, math.sqrt(max(height, 0.0))))
    return peaks


def main_lobe_fwhm(curve: ResponseCurve) -> float:
    """Full width at half maximum of |F|^2 around its global peak (rad/s); the grid must resolve t."""
    _check_resolution(curve)
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
