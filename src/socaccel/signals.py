"""Time-dependent drive accelerations g(t) = (g_x, g_y) in m/s^2.

Every signal exposes, besides pointwise evaluation, an exact expansion of the
complex combination gtilde(t) = g_x + i g_y into exponential-polynomial
pieces: over each piece [a, b],

    gtilde(a + tau) = sum_k  c_k * tau**p_k * exp(i mu_k tau),   0 <= tau <= b - a.

The expansion is a :class:`PieceTable`, one row per piece.  Parametric
waveforms produce one row per window, and their class builds the rows of many
(drive, window) pairs in one array expression (``ForceSignal._batch_pieces``);
tabulated data produces one row per grid interval of its linear interpolant.
A custom signal needs only ``pieces``: the default class-level entry calls it
once per window.  :func:`modal_integral` and the engine's
segment coefficients are closed forms over the pieces, with each kernel
evaluated once per distinct piece (a uniform grid gives a handful) and called
once per pass with the term powers as integer arrays, built from two array
kernels split at |k delta| = 0.5:

- E_p(mu, delta) = integral_0^delta tau**p e^{i mu tau} d tau: a power series where
  |mu delta| < 0.5, summed to the first order n at which max |mu delta|^n / n! < 1e-21 over
  a block of up to 1,024 elements, the recursion in p elsewhere;
- T(q, k1, p, k2, delta) = integral_0^delta u**q e^{i k1 u} E_p(k2, u) du, the triangular
  double integral behind the phase quadratic in the drive: by parts where |k2 delta| >= 0.5,
  by the swap identity T(q, k1, p, k2) = E_q(k1) E_p(k2) - T(p, k2, q, k1) where only
  |k1 delta| >= 0.5, and where both are below 0.5 a double power series to the order n
  that the block's largest r = |k1 delta| + |k2 delta| needs for r^(n+1)/(n+1)! < 1e-19 r.
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
    "PieceTable",
    "Zero",
    "Constant",
    "Sinusoid",
    "SumSignal",
    "Tabulated",
    "circular",
    "modal_integral",
]


_SERIES_BLOCK = 1024  # elements per series call, as a series holds (order, elements) rows


def _powers(p):
    """Term powers as a Python int when they are uniform, else their int array.

    numpy raises to a Python int exponent through fast paths (``square`` for 2) that give
    other last bits than its ``pow`` loop for an array exponent, so a uniform power keeps
    the arithmetic of a scalar call, and :func:`_pow` raises to each distinct value alone.
    """
    if isinstance(p, int):
        return p
    if not p.size:
        return 0
    lo, hi = int(p.min()), int(p.max())
    return lo if lo == hi else p


def _groups(p):
    """(power, selection) for each distinct value of ``p`` from :func:`_powers`."""
    return [(p, ...)] if isinstance(p, int) else [(v, p == v) for v in np.flatnonzero(np.bincount(p)).tolist()]


def _cmul(ar, ai, br, bi) -> np.ndarray:
    """(ar + i ai) (br + i bi) in real arithmetic, as Python's complex type multiplies; br sets the shape."""
    z = np.empty(br.shape, dtype=complex)
    z.real, z.imag = ar * br - ai * bi, ar * bi + ai * br
    return z


def _pow(x, n):
    out = np.empty_like(x)
    for v, sel in _groups(n):
        out[sel] = x[sel] ** v
    return out


def _spread(v, shape):
    """``v`` broadcast to ``shape``, as a new array unless it has that shape (cheaper than np.broadcast_to)."""
    if np.shape(v) == shape:
        return v
    out = np.empty(shape, np.result_type(v))
    out[...] = v
    return out


def _part(v, mask):
    return v if isinstance(v, int) else _spread(v, mask.shape)[mask]


def _series_blocks(series, *args):
    """series(*args) over 1-D arrays (int powers pass whole), _SERIES_BLOCK elements per call."""
    return np.concatenate([
        series(*(v if isinstance(v, int) else v[lo : lo + _SERIES_BLOCK] for v in args))
        for lo in range(0, args[0].shape[0], _SERIES_BLOCK)
    ])


def _top(p) -> int:
    return p if isinstance(p, int) else int(p.max())


def _exp_poly_integral(p, mu, delta):
    """E_p(mu, delta), elementwise over broadcast ``p``, ``mu`` and ``delta``; scalars give a scalar.

    The series delta**(p+1) sum_k (i mu delta)^k / (k! (p+k+1)) runs to the first order n at
    which max |mu delta|^n / n! < 1e-21 over a block of the elements on the series branch (later
    terms are below half an ulp of the sum), as rows k = 0..n from one running product and one
    running sum, in real arithmetic as Python's complex type sums them.
    """
    mu, delta = np.asarray(mu, dtype=float), np.asarray(delta, dtype=float)
    x = mu * delta
    p = _powers(p)
    small, zero = np.abs(x) < 0.5, x == 0.0
    out = np.empty(x.shape, dtype=complex)
    if zero.any():  # the series' one nonzero term, delta**(p+1) / (p+1), rounded as the series rounds it
        d, p_z = _part(delta, zero), _part(p, zero)
        out[zero] = _pow(d, p_z + 1) * (1.0 / (p_z + 1))
    series = small & ~zero
    if series.any():
        out[series] = _series_blocks(_exp_series, x[series], _part(delta, series), _part(p, series))
    if not small.all():
        imu, d, p_r = 1j * _part(mu, ~small), _part(delta, ~small), _part(p, ~small)
        e = np.exp(imu * d)
        val = (e - 1.0) / imu
        for q in range(1, _top(p_r) + 1):
            val = np.where(p_r >= q, (d**q * e - q * val) / imu, val)
        out[~small] = val
    return out[()]


def _exp_series(x, delta, p):
    """E_p on its series branch, over 1-D x = mu delta and delta."""
    top, bound, biggest = 0, 1.0, float(np.abs(x).max())
    while bound >= 1e-21:
        top += 1
        bound *= biggest / top
    k = np.arange(top + 1)[:, None]
    steps = np.concatenate([np.ones((1,) + x.shape), x / k[1:]])
    terms = np.multiply.accumulate(steps) / (k + (p + 1))
    sums = np.add.accumulate(terms * np.array([1, 1j, -1, -1j])[k % 4])[-1]
    scale = _pow(delta, p + 1)
    return scale * sums.real + 1j * (scale * sums.imag)


def _triangle_integral(q, k1, p, k2, delta):
    """T(q, k1, p, k2, delta), elementwise over broadcast arrays and powers; scalars give a scalar.

    By parts, E_p(k2, u) = e^{i k2 u} sum_m a_m u**m - a_0 with a_m = -(p!/m!) (i/k2)**(p-m+1);
    the E values of all its terms come from one call.  The series in z = i k delta is
    delta**(p+q+2) sum_{j,k} z2^j z1^k / (j! k! (p+j+1) (p+q+j+k+2)), summed to one order N per
    block, the largest any element needs for r^(N+1) / (N+1)! < 1e-19 r with r = |z1| + |z2| < 1.
    Terms past an element's own order are below half an ulp of it, yet the longer recursion can round
    its last bit otherwise (1 of 3.2M elements in a sweep), so an element's value may depend on the
    order its block runs to.  What holds is that blocks run to the order of the unblocked call keep
    every bit of it.
    """
    k1, k2, delta = (np.asarray(v, dtype=float) for v in (k1, k2, delta))
    shape = np.broadcast(k1, k2, delta).shape
    k1, k2, delta = (_spread(v, shape) for v in (k1, k2, delta))
    q, p = _powers(q), _powers(p)
    x1, x2 = k1 * delta, k2 * delta
    by_parts = np.abs(x2) >= 0.5
    swapped = ~by_parts & (np.abs(x1) >= 0.5)
    series = ~(by_parts | swapped)
    out = np.empty(delta.shape, dtype=complex)
    if by_parts.any():
        a, b, d = k1[by_parts], k2[by_parts], delta[by_parts]
        q_b, p_b = _part(q, by_parts), _part(p, by_parts)
        # rows E_{q+m}(k1 + k2) for m = 0..p, then E_q(k1); a_m = 0 for m > p adds zeros to the sum
        top = _top(p_b)
        powers = np.array([_spread(v, d.shape) for v in (*(q_b + m for m in range(top + 1)), q_b)])
        e = _exp_poly_integral(powers, np.array([a + b] * (top + 1) + [a]), d)
        coef = np.zeros((top + 1,) + d.shape, dtype=complex)
        for v, sel in _groups(p_b):
            for m in range(v + 1):
                coef[m, sel] = -(math.factorial(v) // math.factorial(m)) * (1j / b[sel]) ** (v - m + 1)
        out[by_parts] = sum(c * e_m for c, e_m in zip(coef, e)) - coef[0] * e[-1]
    if swapped.any():
        a, b, d = k1[swapped], k2[swapped], delta[swapped]
        q_s, p_s = _part(q, swapped), _part(p, swapped)
        swap = _triangle_integral(p_s, b, q_s, a, d)  # takes the by-parts branch
        powers = np.array([_spread(v, d.shape) for v in (q_s, p_s)])
        e_q, e_p = _exp_poly_integral(powers, np.array([a, b]), d)
        out[swapped] = e_q * e_p - swap
    if series.any():
        parts = (x1[series], x2[series], delta[series], _part(q, series), _part(p, series))
        out[series] = _series_blocks(_triangle_series, *parts)
    return out[()]


def _triangle_series(x1, x2, d, q, p):
    """T on its series branch, over 1-D x1 = k1 delta, x2 = k2 delta and d = delta."""
    # T = delta**(p+q+2) sum_j z2^j / (j! (p+j+1)) F_{p+q+1+j}(z1), F_n(z) = int_0^1 x^n e^{zx} dx:
    # Horner in z2 while F runs down its stable recursion F_n = (e^z - z F_{n+1}) / (n+1)
    z1, z2 = 1j * x1, 1j * x2
    order, bound, r = 0, 1.0, float((np.abs(x1) + np.abs(x2)).max())
    while bound >= 1e-19:  # bound = r^order / (order + 1)!, r < 1 here
        order += 1
        bound *= r / (order + 1)
    # rows k = 0..order hold F_{p+q+1+k}(z1): row -1 from the forward series, the rest by recursion.
    # numpy's complex division by a real n multiplies by 1.0 / n, so divisions are such products here
    k = np.arange(order + 1)[:, None]
    steps, inv_k = np.ones((order + 1,) + z1.shape, dtype=complex), 1.0 / np.maximum(k, 1)
    steps[1:] = z1 * inv_k[1:]
    f = np.add.accumulate(np.multiply.accumulate(steps) * (1.0 / (p + q + order + 2 + k)))
    e1, inv = np.exp(z1), (1.0 / (p + q + 2 + k)).astype(complex)
    for j in range(order - 1, -1, -1):
        np.multiply(e1 - z1 * f[j + 1], inv[j], out=f[j])
    f *= 1.0 / (p + 1 + k)
    acc, z2_steps = f[-1], z2 * inv_k[1:]
    for j in range(order - 1, -1, -1):
        acc = f[j] + acc * z2_steps[j]
    return _pow(d, p + q + 2) * acc


class PieceTable:
    """Exponential-polynomial pieces of gtilde as arrays, one row per piece.

    Row k is the piece [start[k], end[k]]: there gtilde(start[k] + tau) is the sum of
    coef[k, j] * tau**power[k, j] * exp(i mu[k, j] tau) over the terms j with valid[k, j].
    ``start`` and ``end`` have shape (K,); ``coef`` (complex), ``mu`` (float), ``power`` (int)
    and ``valid`` (bool) have shape (K, M), and a row with fewer terms than M pads with
    invalid ones.  ``len(table)`` is K.
    """

    __slots__ = ("start", "end", "coef", "mu", "power", "valid")

    def __init__(self, start, end, coef, mu, power, valid):
        self.start, self.end, self.coef, self.mu, self.power, self.valid = start, end, coef, mu, power, valid

    def __len__(self):
        return self.start.shape[0]

    def _terms(self):
        return self.coef, self.mu, self.power, self.valid

    def _rows(self, rows) -> "PieceTable":
        return PieceTable(self.start[rows], self.end[rows], *(f[rows] for f in self._terms()))


def _exp_rows(t0, t1, coef, mu) -> tuple[PieceTable, np.ndarray]:
    """(table, row counts) of one piece [t0[i], t1[i]] per window, of terms coef[i, j] exp(i mu[i, j] tau)
    that all have power 0."""
    return PieceTable(np.array(t0, float), np.array(t1, float), coef, mu, np.zeros(coef.shape, int),
                      np.ones(coef.shape, bool)), np.ones(len(coef), int)


def _concat(tables: list[PieceTable]) -> PieceTable:
    """The rows of ``tables`` in order, each padded with invalid zero terms to the widest."""
    m = max(t.coef.shape[1] for t in tables)
    if any(t.coef.shape[1] < m for t in tables):
        pad = [[(0, 0), (0, m - t.coef.shape[1])] for t in tables]
        tables = [PieceTable(t.start, t.end, *(np.pad(f, n) for f in t._terms())) for t, n in zip(tables, pad)]
    return PieceTable(*(np.concatenate([getattr(t, f) for t in tables]) for f in PieceTable.__slots__))


# the pieces of a pass as one table: offset from its own window start, (K,), and coef,
# (K, M).  The kernels see a piece only through the bits of its width and of its mu, power
# and valid rows, its shape: width (U,) and mu, power, valid (U, M) hold each distinct
# shape once, and shape (K,) is each piece's row
_Packed = namedtuple("_Packed", "offset coef shape width mu power valid")


def _pack_pieces(table: PieceTable, t0) -> _Packed:
    """The rows of ``table`` keyed by shape, row k offset from its window start t0[k] (or one t0 for all)."""
    width = table.end - table.start
    key = np.hstack([width.view(np.int64)[:, None], table.mu.view(np.int64), table.power, table.valid])
    order = np.lexsort(key.T)  # stable, so each shape's first sorted row is its first piece
    key = key.take(order, axis=0)
    new = np.concatenate(([True], (key[1:] != key[:-1]).any(axis=1)))[: len(order)]  # starts a shape
    shape = np.empty_like(order)
    shape[order] = np.cumsum(new) - 1
    offset = table.start - np.asarray(t0, dtype=float)
    return _Packed(offset, table.coef, shape, *(f[order[new]] for f in (width, *table._terms()[1:])))


def _piece_integrals(packed: _Packed, nu):
    """I[..., k] = integral over piece k of gtilde(t) e^{-i nu (t - t0)} dt, for nu of any shape.

    E_p runs once per distinct piece, in one call over all terms and powers, and is
    gathered back to every piece.  Products and sums of terms follow scalar complex
    arithmetic (numpy's vector multiply may fuse a multiply-add), so one piece gives the
    scalar loop's bits.
    """
    nu = np.asarray(nu, dtype=float)
    kappa = packed.mu - nu[..., None, None]
    e, sel = np.zeros(kappa.shape, dtype=complex), packed.valid
    e[..., sel] = _exp_poly_integral(packed.power[sel], kappa[..., sel], packed.width[sel.nonzero()[0]])
    # term m of every piece as rows (..., m, piece), summed from +0 over m as complex numbers sum
    er, ei = (part.swapaxes(-1, -2).take(packed.shape, axis=-1) for part in (e.real, e.imag))
    terms = _cmul(packed.coef.real.T, packed.coef.imag.T, er, ei)
    total = np.zeros(nu.shape + packed.shape.shape, dtype=complex)
    for m in range(terms.shape[-2]):
        total = total + terms[..., m, :]
    return np.exp(-1j * nu[..., None] * packed.offset) * total


class ForceSignal(ABC):
    """Abstract drive; subclasses are immutable value objects."""

    @abstractmethod
    def evaluate(self, t):
        """g at time(s) t: shape (2,) for scalar t, (2, n) for array t."""

    @abstractmethod
    def pieces(self, t0: float, t1: float) -> PieceTable:
        """Exponential-polynomial expansion of gtilde on [t0, t1] as a :class:`PieceTable`.

        The rows are consecutive pieces in time order that cover [t0, t1]: the first starts
        at t0 and the last ends at t1.  Asked for one of its own rows' intervals, a signal
        returns that one row; where t1 <= t0 it may return a zero-width row or none.  This
        is all a custom signal needs: the engine asks a class for the rows of many windows
        through :meth:`_batch_pieces`, whose default calls ``pieces`` once per window.
        """

    @classmethod
    def _batch_pieces(cls, drives, t0, t1) -> tuple[PieceTable, np.ndarray]:
        """The rows of (drive, window [t0[i], t1[i]]) pairs of this class as one table, in pair order.

        ``drives`` holds one drive per window, or one drive for every window.  Returns the table
        and each pair's row count.  A pair gets the rows of its ``pieces``, which this default
        calls once per window; :class:`Zero`, :class:`Constant` and :class:`Sinusoid` build all
        their rows in one array expression instead.
        """
        t0, t1 = np.asarray(t0, dtype=float).tolist(), np.asarray(t1, dtype=float).tolist()
        tables = [d.pieces(a, b) for d, a, b in zip(drives * len(t0) if len(drives) == 1 else drives, t0, t1)]
        return _concat(tables), np.array([len(t) for t in tables], int)

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
        return self._batch_pieces((self,), (t0,), (t1,))[0]

    @classmethod
    def _batch_pieces(cls, drives, t0, t1):
        return _exp_rows(t0, t1, np.empty((len(t0), 0), complex), np.empty((len(t0), 0)))


@dataclass(frozen=True)
class Constant(ForceSignal):
    gx: float
    gy: float = 0.0

    def __post_init__(self):
        for name in ("gx", "gy"):
            if not math.isfinite(getattr(self, name)):
                raise ParameterError(f"constant {name} must be finite, got {getattr(self, name)}")

    def evaluate(self, t):
        return self._as_2vec(self.gx, self.gy, t)

    def pieces(self, t0, t1):
        return self._batch_pieces((self,), (t0,), (t1,))[0]

    @classmethod
    def _batch_pieces(cls, drives, t0, t1):
        coef = np.empty((len(t0), 1), complex)
        coef.real, coef.imag = np.array([(d.gx, d.gy) for d in drives], float).T[:, :, None]  # complex(gx, gy)
        return _exp_rows(t0, t1, coef, np.zeros(coef.shape))


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
        if not (math.isfinite(self.omega) and self.omega >= 0):
            raise ParameterError(f"sinusoid omega must be >= 0 and finite, got {self.omega}")
        if not math.isfinite(self.phase):
            raise ParameterError(f"sinusoid phase must be finite, got {self.phase}")

    def evaluate(self, t):
        t = np.asarray(t, dtype=float)
        c = np.cos(self.omega * t + self.phase)
        ax, ay = self.amplitude
        if t.ndim == 0:
            return np.array([ax * float(c), ay * float(c)])
        return np.stack([ax * c, ay * c])

    def pieces(self, t0, t1):
        return self._batch_pieces((self,), (t0,), (t1,))[0]

    @classmethod
    def _batch_pieces(cls, drives, t0, t1):
        # terms g0 e^{+-i th}, th = omega t0 + phase, each operation as Python's complex type
        # does it for one window: g0 = complex(ax, ay) / 2.0 divides by 2 + 0j
        p = np.array([(*d.amplitude, d.omega, d.phase) for d in drives], float)
        e = np.exp((p[:, 2] * np.asarray(t0, dtype=float) + p[:, 3])[:, None] * np.array([1j, -1j]))
        g0 = (p[:, :2] + p[:, 1::-1] * [0.0, -0.0]) / 2.0  # (ax + ay 0, ay - ax 0) / 2
        mu = np.empty(e.shape)
        mu[:] = p[:, 2:3] * [1.0, -1.0]
        return _exp_rows(t0, t1, _cmul(g0[:, :1], g0[:, 1:], e.real, e.imag), mu)


@dataclass(frozen=True)
class SumSignal(ForceSignal):
    parts: tuple[ForceSignal, ...]

    def __init__(self, parts):
        object.__setattr__(self, "parts", tuple(parts))
        if not self.parts:
            raise ParameterError("a sum drive needs at least one part")

    def evaluate(self, t):
        t = np.asarray(t, dtype=float)
        out = np.zeros(2) if t.ndim == 0 else np.zeros((2,) + t.shape)
        for p in self.parts:
            out = out + p.evaluate(t)
        return out

    def pieces(self, t0, t1):
        # split at the union of the parts' piece edges, then set the parts' terms side by
        # side; a part's own row is reused where it is exactly the sub-interval, and a part's
        # rows on the sub-intervals that its pieces span come from one class-level call
        own = [p.pieces(t0, t1) for p in self.parts]
        edges = [[float(t0), float(t1)], *(e for table in own for e in (table.start, table.end))]
        grid = np.unique(np.concatenate(edges))
        cut = grid[1:] - grid[:-1] > 0.0
        start, end = grid[:-1][cut], grid[1:][cut]
        columns = []
        for p, table in zip(self.parts, own):
            row = np.searchsorted(table.start, start, side="right") - 1
            redo = (table.start[row] != start) | (table.end[row] != end)
            if redo.any():  # fresh rows after the part's own, which are dropped if none is reused
                fresh, counts = type(p)._batch_pieces((p,), start[redo], end[redo])
                assert (counts == 1).all(), "sub-piece not atomic after edge splitting"
                row[redo] = np.arange(len(fresh)) + (0 if redo.all() else len(table))
                table = fresh if redo.all() else _concat([table, fresh])
            columns.append(table if np.array_equal(row, np.arange(len(table))) else table._rows(row))
        terms = zip(*(column._terms() for column in columns))
        return PieceTable(start, end, *(np.concatenate(f, axis=1) for f in terms))


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
        self.t_start = float(t_start)
        self.dt = float(dt)
        self.values = values
        self.t_end = self.t_start + (values.shape[0] - 1) * self.dt
        if not (self.dt > 0 and math.isfinite(self.t_end)):
            raise ParameterError(f"time column must be finite and increasing, got t_start {t_start}, dt {dt}")
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
        if not np.isfinite(t).all():
            raise ParameterError("time column must be finite")
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

    def _interp(self, t):
        """g at times t inside the grid, shape t.shape + (2,)."""
        s = np.minimum(np.maximum((t - self.t_start) / self.dt, 0.0), self.values.shape[0] - 1.0)
        i = np.minimum(s.astype(int), self.values.shape[0] - 2)
        w = (s - i)[..., None]
        return (1.0 - w) * self.values.take(i, axis=0) + w * self.values.take(i + 1, axis=0)

    def evaluate(self, t):
        t = np.asarray(t, dtype=float)
        self._check_cover(float(np.min(t)), float(np.max(t)))
        return np.moveaxis(self._interp(t), -1, 0)

    def pieces(self, t0, t1):
        t0, t1 = float(t0), float(t1)
        self._check_cover(t0, t1)
        # grid nodes strictly inside (t0, t1)
        k_lo = int(math.ceil((t0 - self.t_start) / self.dt - 1e-9))
        k_hi = int(math.floor((t1 - self.t_start) / self.dt + 1e-9))
        grid = self.t_start + np.arange(k_lo, k_hi + 1) * self.dt
        inner = grid[(t0 + 1e-15 < grid) & (grid < t1 - 1e-15)]
        nodes = np.concatenate(([t0], inner, [t1] if t1 > t0 else []))
        g, width = self._interp(nodes), nodes[1:] - nodes[:-1]
        terms = np.concatenate([g[:-1], (g[1:] - g[:-1]) / width[:, None]], axis=1).reshape(-1, 2, 2)
        coef = terms[..., 0] + 1j * terms[..., 1]  # value and slope, each g_x + i g_y
        power = np.arange(2) + np.zeros(coef.shape, dtype=int)
        return PieceTable(nodes[:-1], nodes[1:], coef, np.zeros(coef.shape), power, power >= 0)


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

    With ``conjugate=True`` the integrand uses conj(gtilde) instead.  It runs
    the piece-integral kernel of the engine's segment coefficients on one window.
    """
    total = _piece_integrals(_pack_pieces(signal.pieces(t0, t1), t0), omega if conjugate else -omega)
    return complex(total.sum().conjugate() if conjugate else total.sum())
