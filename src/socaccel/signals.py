"""Time-dependent drive accelerations g(t) = (g_x, g_y) in m/s^2.

Every signal exposes, besides pointwise evaluation, an exact expansion of the
complex combination gtilde(t) = g_x + i g_y into exponential-polynomial
pieces: over each piece [a, b],

    gtilde(a + tau) = sum_k  c_k * tau**p_k * exp(i mu_k tau),   0 <= tau <= b - a.

Parametric waveforms produce a single piece; tabulated data produces one
piece per grid interval of its linear interpolant.  :func:`modal_integral`
and the engine's segment coefficients are closed forms over the pieces, with
each kernel evaluated once per distinct piece (a uniform grid gives a handful),
built from two array kernels split at |k delta| = 0.5:

- E_p(mu, delta) = integral_0^delta tau**p e^{i mu tau} d tau: a power series
  where |mu delta| < 0.5, the recursion in p elsewhere;
- T(q, k1, p, k2, delta) = integral_0^delta u**q e^{i k1 u} E_p(k2, u) du, the
  triangular double integral behind the phase quadratic in the drive: by
  parts where |k2 delta| >= 0.5, by the swap identity
  T(q, k1, p, k2) = E_q(k1) E_p(k2) - T(p, k2, q, k1) where only
  |k1 delta| >= 0.5, and a double power series where both are below 0.5.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import CoverageError, ParameterError

__all__ = [
    "ForceSignal",
    "Zero",
    "Constant",
    "Sinusoid",
    "SumSignal",
    "Tabulated",
    "circular",
    "modal_integral",
]

# piece: (t_start, t_end, [(coefficient, mu, power), ...]) with local time tau = t - t_start
Piece = tuple[float, float, list[tuple[complex, float, int]]]


def _exp_poly_integral(p: int, mu, delta):
    """E_p(mu, delta), elementwise over broadcast ``mu`` and ``delta``; scalars give a scalar.

    The series delta**(p+1) sum_k (i mu delta)^k / (k! (p+k+1)) stops per element once
    a term is below 1e-20 of the sum (25 terms at most); it runs in real arithmetic
    exactly as Python's complex type sums it.
    """
    mu, delta = np.broadcast_arrays(np.asarray(mu, dtype=float), np.asarray(delta, dtype=float))
    x = mu * delta
    small = np.abs(x) < 0.5
    out = np.empty(x.shape, dtype=complex)
    if small.any():
        x_s = x[small]
        tr, ti = np.ones_like(x_s), np.zeros_like(x_s)  # (i x)^k / k!
        sr, si, live = tr / (p + 1), ti, np.ones(x_s.shape, dtype=bool)
        for k in range(1, 26):
            y = x_s / k
            tr, ti = -(ti * y), tr * y
            sr = np.where(live, sr + tr / (p + k + 1), sr)
            si = np.where(live, si + ti / (p + k + 1), si)
            live &= ~(np.hypot(tr, ti) < 1e-20 * np.hypot(sr, si))
            if not live.any():
                break
        scale = delta[small] ** (p + 1)
        out[small] = scale * sr + 1j * (scale * si)
    if not small.all():
        imu, d = 1j * mu[~small], delta[~small]
        e = np.exp(imu * d)
        val = (e - 1.0) / imu
        for q in range(1, p + 1):
            val = (d**q * e - q * val) / imu
        out[~small] = val
    return out[()]


def _triangle_integral(q: int, k1, p: int, k2, delta):
    """T(q, k1, p, k2, delta), elementwise over broadcast arrays; scalars give a scalar.

    By parts, E_p(k2, u) = e^{i k2 u} sum_m a_m u**m - a_0 with a_m = -(p!/m!) (i/k2)**(p-m+1).
    The series in z = i k delta is delta**(p+q+2) sum_{j,k} z2^j z1^k / (j! k! (p+j+1) (p+q+j+k+2)),
    summed to the order N = 19 at which the next term bound (|z1| + |z2|)^(N+1) / (N+1)! is below
    1e-18 for every element of the branch, so each element's value depends on its inputs alone.
    """
    k1, k2, delta = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (k1, k2, delta)))
    by_parts = np.abs(k2 * delta) >= 0.5
    swapped = ~by_parts & (np.abs(k1 * delta) >= 0.5)
    series = ~(by_parts | swapped)
    out = np.empty(delta.shape, dtype=complex)
    if by_parts.any():
        a, b, d = k1[by_parts], k2[by_parts], delta[by_parts]
        coef = [-(math.factorial(p) // math.factorial(m)) * (1j / b) ** (p - m + 1) for m in range(p + 1)]
        out[by_parts] = sum(c * _exp_poly_integral(q + m, a + b, d) for m, c in enumerate(coef))
        out[by_parts] -= coef[0] * _exp_poly_integral(q, a, d)
    if swapped.any():
        a, b, d = k1[swapped], k2[swapped], delta[swapped]
        swap = _triangle_integral(p, b, q, a, d)  # takes the by-parts branch
        out[swapped] = _exp_poly_integral(q, a, d) * _exp_poly_integral(p, b, d) - swap
    if series.any():
        # T = delta**(p+q+2) sum_j z2^j / (j! (p+j+1)) F_{p+q+1+j}(z1), F_n(z) = int_0^1 x^n e^{zx} dx:
        # Horner in z2 while F runs down its stable recursion F_n = (e^z - z F_{n+1}) / (n+1)
        z1, z2, d = 1j * (k1 * delta)[series], 1j * (k2 * delta)[series], delta[series]
        order = 19  # |z1| + |z2| < 1 here, so the next term bound is below 1 / 20! < 1e-18
        top = p + q + 1 + order
        term, f = np.ones_like(z1), np.full_like(z1, 1.0 / (top + 1))
        for k in range(1, order + 1):
            term = term * (z1 / k)
            f = f + term / (top + k + 1)
        e1, acc = np.exp(z1), f / (p + order + 1)
        for j in range(order - 1, -1, -1):
            f = (e1 - z1 * f) / (p + q + j + 2)
            acc = f / (p + j + 1) + acc * (z2 / (j + 1))
        out[series] = d ** (p + q + 2) * acc
    return out[()]


# a piece list as arrays, term lists padded with zero terms to the longest:
# offset from its window start t0 (one for all pieces or one per piece), (K,),
# and coef, (K, M).  The kernels see a piece only through the bits of its width
# and of its mu, power and valid rows, its shape: width (U,) and mu, power,
# valid (U, M) hold each distinct shape once, and shape (K,) is each piece's row
_Packed = namedtuple("_Packed", "offset coef shape width mu power valid")


def _pack_pieces(pieces: list[Piece], t0: float) -> _Packed:
    counts = np.array([len(terms) for _, _, terms in pieces], dtype=int)
    valid = np.arange(counts.max(initial=0)) < counts[:, None]
    coef, mu, power = (np.zeros(valid.shape, dtype=kind) for kind in (complex, float, int))
    flat = [term for _, _, terms in pieces for term in terms]
    if flat:
        coef[valid], mu[valid], power[valid] = zip(*flat)
    start, end = np.array([(a, b) for a, b, _ in pieces], dtype=float).reshape(-1, 2).T
    width = end - start
    key = np.column_stack([width.view(np.int64), mu.view(np.int64), power, valid])
    row = np.dtype((np.void, key.itemsize * key.shape[1]))
    _, first, shape = np.unique(key.view(row).ravel(), return_index=True, return_inverse=True)
    return _Packed(start - t0, coef, shape, width[first], mu[first], power[first], valid[first])


def _piece_integrals(packed: _Packed, nu):
    """I[..., k] = integral over piece k of gtilde(t) e^{-i nu (t - t0)} dt, for nu of any shape.

    E_p runs once per distinct piece and is gathered back to every piece.  Products and
    sums of terms follow scalar complex arithmetic (numpy's vector multiply may fuse a
    multiply-add), so one piece gives the scalar loop's bits.
    """
    nu = np.asarray(nu, dtype=float)
    kappa = packed.mu - nu[..., None, None]
    width = np.broadcast_to(packed.width[:, None], packed.mu.shape)
    e = np.zeros(kappa.shape, dtype=complex)
    for p in np.unique(packed.power[packed.valid]).tolist():
        sel = packed.valid & (packed.power == p)
        e[..., sel] = _exp_poly_integral(p, kappa[..., sel], width[sel])
    e, c = e[..., packed.shape, :], packed.coef
    terms = (c.real * e.real - c.imag * e.imag) + 1j * (c.real * e.imag + c.imag * e.real)
    total = np.zeros(terms.shape[:-1], dtype=complex)
    for m in range(terms.shape[-1]):
        total = total + terms[..., m]
    return np.exp(-1j * nu[..., None] * packed.offset) * total


class ForceSignal(ABC):
    """Abstract drive; subclasses are immutable value objects."""

    @abstractmethod
    def evaluate(self, t):
        """g at time(s) t: shape (2,) for scalar t, (2, n) for array t."""

    @abstractmethod
    def pieces(self, t0: float, t1: float) -> list[Piece]:
        """Exponential-polynomial expansion of gtilde on [t0, t1]."""

    def _as_2vec(self, gx, gy, t):
        t = np.asarray(t, dtype=float)
        if t.ndim == 0:
            return np.array([float(gx), float(gy)])
        return np.stack([np.broadcast_to(gx, t.shape), np.broadcast_to(gy, t.shape)])


@dataclass(frozen=True)
class Zero(ForceSignal):
    def evaluate(self, t):
        t = np.asarray(t, dtype=float)
        return np.zeros(2) if t.ndim == 0 else np.zeros((2,) + t.shape)

    def pieces(self, t0, t1):
        return [(float(t0), float(t1), [])]


@dataclass(frozen=True)
class Constant(ForceSignal):
    gx: float
    gy: float = 0.0

    def evaluate(self, t):
        return self._as_2vec(self.gx, self.gy, t)

    def pieces(self, t0, t1):
        return [(float(t0), float(t1), [(complex(self.gx, self.gy), 0.0, 0)])]


@dataclass(frozen=True)
class Sinusoid(ForceSignal):
    """g(t) = amplitude * cos(omega t + phase); amplitude is a 2-vector."""

    amplitude: tuple[float, float]
    omega: float
    phase: float = 0.0

    def __post_init__(self):
        amp = tuple(float(v) for v in self.amplitude)
        if len(amp) != 2 or not all(math.isfinite(v) for v in amp):
            raise ParameterError(f"amplitude must be a finite 2-vector, got {self.amplitude!r}")
        object.__setattr__(self, "amplitude", amp)
        if self.omega < 0:
            raise ParameterError(f"sinusoid omega must be >= 0, got {self.omega}")

    def evaluate(self, t):
        t = np.asarray(t, dtype=float)
        c = np.cos(self.omega * t + self.phase)
        ax, ay = self.amplitude
        if t.ndim == 0:
            return np.array([ax * float(c), ay * float(c)])
        return np.stack([ax * c, ay * c])

    def pieces(self, t0, t1):
        ax, ay = self.amplitude
        g0 = complex(ax, ay) / 2.0
        th = self.omega * t0 + self.phase
        terms = [
            (g0 * np.exp(1j * th), self.omega, 0),
            (g0 * np.exp(-1j * th), -self.omega, 0),
        ]
        return [(float(t0), float(t1), terms)]


@dataclass(frozen=True)
class SumSignal(ForceSignal):
    parts: tuple[ForceSignal, ...]

    def __init__(self, parts):
        object.__setattr__(self, "parts", tuple(parts))

    def evaluate(self, t):
        t = np.asarray(t, dtype=float)
        out = np.zeros(2) if t.ndim == 0 else np.zeros((2,) + t.shape)
        for p in self.parts:
            out = out + p.evaluate(t)
        return out

    def pieces(self, t0, t1):
        # split at the union of the parts' internal boundaries, then merge terms; a part's
        # own piece is reused where it is exactly the sub-interval, and only a part whose
        # piece spans more is expanded again on the sub-interval
        own = [{(a, b): terms for a, b, terms in p.pieces(t0, t1)} for p in self.parts]
        grid = sorted({float(t0), float(t1)}.union(*(span for spans in own for span in spans)))
        out: list[Piece] = []
        for a, b in zip(grid[:-1], grid[1:]):
            if b - a <= 0.0:
                continue
            terms: list[tuple[complex, float, int]] = []
            for p, spans in zip(self.parts, own):
                sub = [(a, b, spans[a, b])] if (a, b) in spans else p.pieces(a, b)
                assert len(sub) == 1, "sub-piece not atomic after edge splitting"
                terms.extend(sub[0][2])
            out.append((a, b, terms))
        return out


class Tabulated(ForceSignal):
    """Uniformly sampled drive with linear interpolation between samples.

    Evaluation outside the grid raises :class:`CoverageError`.
    """

    def __init__(self, t_start: float, dt: float, values):
        values = np.atleast_2d(np.asarray(values, dtype=float))
        if values.shape[1] != 2:
            raise ParameterError(f"values must have shape (n, 2), got {values.shape}")
        if values.shape[0] < 2:
            raise ParameterError("tabulated signal needs at least 2 samples")
        if not np.isfinite(values).all():
            raise ParameterError("tabulated samples must be finite")
        if not dt > 0:
            raise ParameterError(f"dt must be > 0, got {dt}")
        self.t_start = float(t_start)
        self.dt = float(dt)
        self.values = values
        self.t_end = self.t_start + (values.shape[0] - 1) * self.dt
        self._slack = 1e-9 * (self.t_end - self.t_start)

    @classmethod
    def from_csv(cls, path) -> "Tabulated":
        """Load a (t, gx[, gy]) table; the time column must be uniform."""
        try:
            data = np.loadtxt(path, delimiter=",")
        except ValueError:
            data = np.loadtxt(path, delimiter=",", skiprows=1)
        data = np.atleast_2d(data)
        if data.shape[1] == 2:
            data = np.column_stack([data, np.zeros(data.shape[0])])
        if data.shape[1] != 3:
            raise ParameterError(f"expected 2 or 3 CSV columns, got {data.shape[1]}")
        t = data[:, 0]
        if t.shape[0] < 2:
            raise ParameterError("tabulated signal needs at least 2 samples")
        steps = np.diff(t)
        if np.any(np.abs(steps - steps[0]) > 1e-9 * max(abs(steps[0]), 1e-300)):
            raise ParameterError("time column is not uniformly spaced")
        return cls(t[0], steps[0], data[:, 1:3])

    def _check_cover(self, lo: float, hi: float) -> None:
        if lo < self.t_start - self._slack or hi > self.t_end + self._slack:
            raise CoverageError(
                f"tabulated signal covers [{self.t_start:.6g}, {self.t_end:.6g}] s, "
                f"requested [{lo:.6g}, {hi:.6g}] s"
            )

    def evaluate(self, t):
        t = np.asarray(t, dtype=float)
        self._check_cover(float(np.min(t)), float(np.max(t)))
        s = np.clip((t - self.t_start) / self.dt, 0.0, self.values.shape[0] - 1.0)
        i = np.minimum(s.astype(int), self.values.shape[0] - 2)
        w = s - i
        gx = (1.0 - w) * self.values[i, 0] + w * self.values[i + 1, 0]
        gy = (1.0 - w) * self.values[i, 1] + w * self.values[i + 1, 1]
        if t.ndim == 0:
            return np.array([float(gx), float(gy)])
        return np.stack([gx, gy])

    def pieces(self, t0, t1):
        t0, t1 = float(t0), float(t1)
        self._check_cover(t0, t1)
        if not t1 > t0:
            return []
        # grid nodes strictly inside (t0, t1)
        k_lo = int(math.ceil((t0 - self.t_start) / self.dt - 1e-9))
        k_hi = int(math.floor((t1 - self.t_start) / self.dt + 1e-9))
        grid = self.t_start + np.arange(k_lo, k_hi + 1) * self.dt
        inner = grid[(t0 + 1e-15 < grid) & (grid < t1 - 1e-15)]
        nodes = np.concatenate(([t0], inner, [t1]))
        gx, gy = self.evaluate(nodes)
        width = np.diff(nodes)
        start = (gx + 1j * gy)[:-1].tolist()
        slope = (np.diff(gx) / width + 1j * (np.diff(gy) / width)).tolist()
        edges = zip(nodes[:-1].tolist(), nodes[1:].tolist(), start, slope)
        return [(a, b, [(ga, 0.0, 0), (s, 0.0, 1)]) for a, b, ga, s in edges]


def circular(amplitude: float, omega: float, phase: float = 0.0, sense: int = -1) -> SumSignal:
    """Circularly polarized drive of magnitude ``amplitude`` at ``omega``.

    sense = -1 gives gtilde = amplitude * exp(-i (omega t + phase)), i.e.
    g_x = A cos(omega t + phase), g_y = -A sin(omega t + phase); sense = +1
    rotates the other way.
    """
    if sense not in (+1, -1):
        raise ParameterError(f"sense must be +1 or -1, got {sense}")
    return SumSignal(
        [
            Sinusoid((amplitude, 0.0), omega, phase),
            Sinusoid((0.0, amplitude), omega, phase - sense * math.pi / 2.0),
        ]
    )


def modal_integral(signal: ForceSignal, omega: float, t0: float, t1: float,
                   conjugate: bool = False) -> complex:
    """integral_{t0}^{t1} gtilde(t) exp(i omega (t - t0)) dt, exactly.

    With ``conjugate=True`` the integrand uses conj(gtilde) instead.  This is
    the primitive behind the thermal gamma factors.
    """
    total = _piece_integrals(_pack_pieces(signal.pieces(t0, t1), t0), omega if conjugate else -omega)
    return complex(total.sum().conjugate() if conjugate else total.sum())
