"""Exact pulse-sequence engine on spin-labeled coherent-state branches.

Because the Hamiltonian is quadratic for each spin projection, an initial
coherent state stays a finite superposition of coherent states under every
primitive we need: spin rotations about y, sudden trap displacements, and
(driven) free evolution.  A branch is one such coherent state: a spin label
sigma, complex mode amplitudes (alpha_plus, alpha_minus), an accumulated
dynamical phase, and a complex weight from the rotation history.  The
amplitudes, phase and weight of a branch may also be shape-(N,) arrays, one
entry per sample of N initial states that share a spin history; every
primitive acts on them elementwise, and :func:`batch_signal` runs a whole
sample set in one pass.  An array branch may also carry one drive per sample:
the step walk then takes the segment coefficients of the N drives as
shape-(N,) arrays, computed for all windows and drives in one kernel pass.

Conventions fixed here and relied on throughout:

- amplitudes map to the trap-frame center via
      zeta  = l * (alpha_plus + conj(alpha_minus)),
      zeta' = -i sigma l * (omega_plus alpha_plus - omega_minus conj(alpha_minus)),
  the inverse of :func:`mode_decompose` (both directions live in ``trap``);
- undriven evolution rotates amplitudes as alpha_pm -> exp(-i sigma omega_pm t) alpha_pm;
- the branch phase integrates (m/hbar) g(t) . r(t) along the branch's own
  (driven) center path in the trap frame; branch wave packets are referenced
  to their centers, so displacements and mode zero-point energies contribute
  no phase;
- RotateY(theta) acts as exp(-i theta sigma_y / 2):
      |up>   -> cos(theta/2)|up> + sin(theta/2)|down>,
      |down> -> -sin(theta/2)|up> + cos(theta/2)|down>,
  and a branch changing spin keeps its phase-space center (amplitudes are
  converted through the center because the mode map depends on sigma);
- inter-branch orbital overlaps use the center separation only,
      <b1|b2> = exp(-|zeta_1 - zeta_2|**2 / l**2),
  the magnitude that governs the mirrored-path coherence envelope.
"""

from __future__ import annotations

import cmath
import math
import warnings
from collections import OrderedDict, namedtuple
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .constants import HBAR
from .errors import ParameterError
from .signals import ForceSignal, Zero, _cmul, _pack_pieces, _Packed, _piece_integrals, _triangle_integral
from .trap import (
    NormalModes, PhaseSpacePoint, TrapConfig, _amplitudes_from_center, _center_from_amplitudes,
    _check_sigma, derive_modes,
)

__all__ = [
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
]

# readout calibration: signal = -<sigma_y>, which is +sin(differential phase)
# for the "up" preset (see run_sequence)
_SIGNAL_SIGN = -1.0

_MERGE_TOL = 1e-12
_PRUNE_TOL = 1e-15

# samples (initial states or probe drives) per engine pass; bounds the size of the
# batch temporaries
_BATCH_BLOCK = 2048


def _every(cond) -> bool:
    """A scalar condition, or an array condition that holds for every sample."""
    return bool(cond.all()) if isinstance(cond, np.ndarray) else bool(cond)


def _exp(x):
    """exp of a scalar (math/cmath, as in the scalar engine) or of an array."""
    if isinstance(x, np.ndarray):
        return np.exp(x)
    return cmath.exp(x) if isinstance(x, complex) else math.exp(x)


@lru_cache(maxsize=256)
def _modes_cached(config: TrapConfig) -> NormalModes:
    return derive_modes(config)


@dataclass(frozen=True)
class Branch:
    """One spin-labeled coherent-state component of the interferometer state.

    ``weight``, ``alpha_plus``, ``alpha_minus`` and ``phase`` are scalars, or
    shape-(N,) arrays holding the branch for N samples at once.
    """

    spin: int
    weight: complex
    alpha_plus: complex
    alpha_minus: complex
    phase: float = 0.0

    def __post_init__(self):
        _check_sigma(self.spin)
        for name in ("weight", "alpha_plus", "alpha_minus", "phase"):
            v = getattr(self, name)
            finite = np.isfinite(v).all() if isinstance(v, np.ndarray) else cmath.isfinite(v)
            if not finite:
                raise ParameterError(f"Branch.{name} is not finite")

    @property
    def amplitude(self) -> complex:
        """Total complex amplitude weight * exp(i phase)."""
        return self.weight * _exp(1j * self.phase)


@dataclass(frozen=True)
class SpinorCoherentState:
    """Weighted superposition of branches, plus the current trap-frame bookkeeping.

    ``origin`` is the lab-frame position of the trap minimum (branch centers
    are trap-frame); ``time`` is the elapsed sequence time used to window the
    drive signal.
    """

    config: TrapConfig
    branches: tuple[Branch, ...]
    origin: tuple[float, float] = (0.0, 0.0)
    time: float = 0.0

    @property
    def modes(self) -> NormalModes:
        return _modes_cached(self.config)


def ground_state(config: TrapConfig, spin: int = +1) -> SpinorCoherentState:
    """Motional ground state at the trap center with a definite spin."""
    _check_sigma(spin)
    return SpinorCoherentState(
        config=config,
        branches=(Branch(spin=spin, weight=1.0 + 0.0j, alpha_plus=0j, alpha_minus=0j),),
    )


def mode_decompose(config: TrapConfig, sigma: int, point: PhaseSpacePoint):
    """Normal-mode amplitudes (alpha_plus, alpha_minus) of a phase-space point.

    The map diagonalizes the spin-sigma quadratic Hamiltonian: free evolution
    is alpha_pm -> exp(-i sigma omega_pm t) alpha_pm, and the energy above the
    zero point is hbar (omega_plus |alpha_plus|^2 + omega_minus |alpha_minus|^2)
    = m|v|^2/2 + m omega0^2 |r|^2 / 2.
    """
    sigma = _check_sigma(sigma)
    modes = _modes_cached(config)
    zeta = complex(point.x, point.y)
    zdot = complex(point.px, point.py) / config.mass
    return _amplitudes_from_center(modes, sigma, zeta, zdot)


def _branch_zeta(modes: NormalModes, b: Branch) -> complex:
    return modes.l_osc * (b.alpha_plus + b.alpha_minus.conjugate())


def _overlap(modes: NormalModes, b1: Branch, b2: Branch) -> float:
    dz = _branch_zeta(modes, b1) - _branch_zeta(modes, b2)
    return _exp(-((abs(dz) / modes.l_osc) ** 2))


# ---------------------------------------------------------------------------
# primitives


@dataclass(frozen=True)
class RotateY:
    """Spin rotation exp(-i angle sigma_y / 2) about the y axis."""

    angle: float

    def __post_init__(self):
        if not math.isfinite(self.angle):
            raise ParameterError("rotation angle must be finite")


@dataclass(frozen=True)
class Displace:
    """Sudden displacement of the trap minimum by ``shift`` (lab meters)."""

    shift: tuple[float, float]

    def __post_init__(self):
        s = tuple(float(v) for v in self.shift)
        if len(s) != 2 or not all(math.isfinite(v) for v in s):
            raise ParameterError(f"shift must be a finite 2-vector, got {self.shift!r}")
        object.__setattr__(self, "shift", s)


@dataclass(frozen=True)
class Evolve:
    """Free evolution for ``duration`` under a drive (None = sequence drive).

    mode "exact" evolves amplitudes and phase with the full driven-oscillator
    solution; "first_order" keeps the undriven amplitudes and accumulates only
    the phase linear in the drive along the undriven path.
    """

    duration: float
    drive: ForceSignal | None = None
    mode: str = "exact"

    def __post_init__(self):
        if not (math.isfinite(self.duration) and self.duration >= 0):
            raise ParameterError(f"Evolve duration must be >= 0, got {self.duration}")
        if self.mode not in ("exact", "first_order"):
            raise ParameterError(f"Evolve mode must be 'exact' or 'first_order', got {self.mode!r}")


@dataclass(frozen=True)
class Readout:
    """Terminal spin measurement along ``axis`` in {x, y, z}."""

    axis: str = "z"

    def __post_init__(self):
        if self.axis not in ("x", "y", "z"):
            raise ParameterError(f"Readout axis must be one of x, y, z, got {self.axis!r}")


PulsePrimitive = RotateY | Displace | Evolve | Readout


@dataclass(frozen=True)
class PulseSequence:
    """Ordered primitives; at most one Readout, and it must be terminal."""

    steps: tuple[PulsePrimitive, ...]
    name: str = "custom"

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))
        for i, s in enumerate(self.steps):
            if isinstance(s, Readout) and i != len(self.steps) - 1:
                raise ParameterError("Readout must be the terminal primitive")
            if not isinstance(s, (RotateY, Displace, Evolve, Readout)):
                raise ParameterError(f"unknown pulse primitive {s!r}")

    def __iter__(self):
        return iter(self.steps)

    def __len__(self):
        return len(self.steps)


# ---------------------------------------------------------------------------
# rotation / displacement


def apply_rotation(state: SpinorCoherentState, angle: float) -> SpinorCoherentState:
    """Apply exp(-i angle sigma_y / 2) to every branch.

    Branches that change spin keep their phase-space center; their amplitudes
    are re-derived for the new spin's mode map.  Copies with matching spin,
    amplitudes, and phase (within 1e-12 for every sample) merge by weight
    addition; weights below 1e-15 for every sample are pruned.
    """
    c = math.cos(angle / 2.0)
    s = math.sin(angle / 2.0)
    modes = state.modes
    out: list[Branch] = []
    for b in state.branches:
        # columns of [[c, -s], [s, c]] in the (up, down) basis
        if b.spin == +1:
            parts = ((+1, c), (-1, s))
        else:
            parts = ((+1, -s), (-1, c))
        flipped = None
        for new_spin, factor in parts:
            if _every(abs(factor * b.weight) < _PRUNE_TOL):
                continue
            if new_spin == b.spin:
                out.append(replace(b, weight=factor * b.weight))
            else:
                if flipped is None:
                    zeta, zdot = _center_from_amplitudes(modes, b.spin, b.alpha_plus, b.alpha_minus)
                    flipped = _amplitudes_from_center(modes, new_spin, zeta, zdot)
                out.append(
                    Branch(
                        spin=new_spin,
                        weight=factor * b.weight,
                        alpha_plus=flipped[0],
                        alpha_minus=flipped[1],
                        phase=b.phase,
                    )
                )
    return replace(state, branches=_merge_branches(out))


def _merge_branches(branches: list[Branch]) -> tuple[Branch, ...]:
    merged: list[Branch] = []
    for b in branches:
        for i, m in enumerate(merged):
            if (
                m.spin == b.spin
                and _every(abs(m.alpha_plus - b.alpha_plus) <= _MERGE_TOL)
                and _every(abs(m.alpha_minus - b.alpha_minus) <= _MERGE_TOL)
                and _every(abs(m.phase - b.phase) <= _MERGE_TOL)
            ):
                merged[i] = replace(m, weight=m.weight + b.weight)
                break
        else:
            merged.append(b)
    return tuple(m for m in merged if not _every(abs(m.weight) < _PRUNE_TOL))


def apply_displacement(state: SpinorCoherentState, shift) -> SpinorCoherentState:
    """Move the trap minimum by ``shift``; branch centers shift by -shift in the new frame."""
    sx, sy = (float(shift[0]), float(shift[1]))
    if not (math.isfinite(sx) and math.isfinite(sy)):
        raise ParameterError(f"shift must be finite, got {shift!r}")
    # the kicks are the amplitudes of a center at rest at -shift, the same for either spin
    d_plus, d_minus = _amplitudes_from_center(state.modes, +1, complex(-sx, -sy), 0j)
    branches = tuple(
        replace(b, alpha_plus=b.alpha_plus + d_plus, alpha_minus=b.alpha_minus + d_minus)
        for b in state.branches
    )
    return replace(
        state,
        branches=branches,
        origin=(state.origin[0] + sx, state.origin[1] + sy),
    )


# ---------------------------------------------------------------------------
# driven evolution

# Per (drive, config, sigma, window) the exact evolution is affine in the
# initial amplitudes and quadratic in the drive; these coefficients capture it:
#   alpha_pm' = rot_pm * (alpha_pm + kick_pm)
#   phase    += Re[p_lin * alpha_plus + q_lin * conj(alpha_minus)] + phase_g2
# A field is a scalar, or an array with one entry per (drive, window) pair or per sample
_SegmentCoeffs = namedtuple("_SegmentCoeffs", "rot_plus rot_minus kick_plus kick_minus p_lin q_lin phase_g2")


# memo of segment coefficients across runs; an entry keeps its drive alive (a Tabulated
# table by identity).  A walk takes the coefficients of all its windows from one
# _cached_coeffs call and never reads them back here, so a run may have any number
# of windows
_SEGMENT_CACHE: OrderedDict = OrderedDict()
_SEGMENT_CACHE_MAX = 256


def _window_sums(values: np.ndarray, bounds) -> np.ndarray:
    """Sums of ``values`` over its last axis per window bounds[i]:bounds[i + 1], in one reduction."""
    bounds = np.asarray(bounds)
    filled = bounds[1:] > bounds[:-1]
    out = np.zeros(values.shape[:-1] + filled.shape, dtype=values.dtype)
    out[..., filled] = np.add.reduceat(values, bounds[:-1][filled], axis=-1)
    return out


def _pair_sums(packed: _Packed, nu: np.ndarray, integrals, bounds: list[int]) -> np.ndarray:
    """W_nu = integral conj(gtilde) e^{i nu tau} J_nu d tau per window, shape (len(nu), windows).

    J_nu(tau) = integral_0^tau gtilde e^{-i nu s} ds over window i, pieces bounds[i]:bounds[i + 1].
    On piece k, J_nu is the sum P_k of the window's earlier ``integrals`` I plus a running part,
    so W_nu = sum_k conj(I_k) P_k + sum_k sum_ij conj(c_ki) c_kj T(p_i, nu - mu_i, p_j, mu_j - nu,
    delta_k); T is the triangular integral of ``signals`` (by parts, swap or series at
    |k delta| = 0.5), called once for every nu, distinct piece and pair of terms.  The P_k sums
    run per window of two or more pieces (P_k is zero on one piece).  The T terms are gathered
    back to the pieces and summed per window by one reduction over them in piece order, each
    piece's term pairs in turn, so a window gets the bits of a pass over it alone; numpy groups
    the sum by the memory layout, here (term pair, nu) rows.
    """
    w = np.zeros((nu.shape[0], len(bounds) - 1), dtype=complex)
    for i in np.flatnonzero(np.diff(bounds) > 1).tolist():
        own = integrals[:, bounds[i] : bounds[i + 1]]
        w[:, i] = (own.conj() * (own.cumsum(axis=1) - own)).sum(axis=1)
    pair_valid = packed.valid[:, :, None] & packed.valid[:, None, :]  # per shape
    if not pair_valid.any():
        return w
    s, i, j = np.nonzero(pair_valid)  # every valid term pair of every shape, t's columns
    t = _triangle_integral(packed.power[s, i], nu[:, None] - packed.mu[s, i], packed.power[s, j],
                           packed.mu[s, j] - nu[:, None], packed.width[s])
    pair_coef = packed.coef.conj()[:, :, None] * packed.coef[:, None, :]
    sel = pair_valid[packed.shape]
    slot = (np.cumsum(pair_valid) - 1).reshape(pair_valid.shape)[packed.shape][sel]  # t's column per pair
    ends = np.concatenate(([0], np.cumsum(sel.sum(axis=(1, 2)))))[bounds]
    w += _window_sums((pair_coef[sel].reshape(-1, 1) * t.T.take(slot, axis=0)).T, ends)
    return w


def _segment_coeffs(config: TrapConfig, pairs) -> dict[int, _SegmentCoeffs]:
    """{sigma: coefficients} of (drive, t_start, duration) pairs, drives in any mix, in one pass.

    Each field is an array with one entry per pair.  Every piece is offset from its own
    window's start, with nu = (omega_minus, -omega_plus) for sigma = +1 stacked over
    (omega_plus, -omega_minus) for sigma = -1.  The kernels run once per distinct piece
    shape (the bits of its width and term rates, powers and padding) and are gathered back
    to every piece before its own coefficients and offset apply; each window sum is one
    array reduction over the window's own pieces, and the fields are formed in real
    arithmetic as Python's complex type forms them, so every pair gets the bits of a
    one-pair call.  The driven response from rest is
    zeta_d = (e^{i nu1 tau} J_nu1 - e^{i nu2 tau} J_nu2) / (2 i omega_tilde), so the g^2 phase
    (m/hbar) integral Re[conj(gtilde) zeta_d] d tau is
    (m/hbar) Re[(W_nu1 - W_nu2) / (2 i omega_tilde)].  A drive that overflows a field raises
    :class:`ParameterError` naming its window.
    """
    modes = _modes_cached(config)
    wp, wm, wt, l = modes.omega_plus, modes.omega_minus, modes.omega_tilde, modes.l_osc
    for _, _, duration in pairs:
        if not math.isfinite(wp * duration):
            raise ParameterError(f"omega_plus * duration overflows at duration {duration:.3e} s")
    nu = np.array([wm, -wp, wp, -wm])
    mh = config.mass / HBAR
    with np.errstate(over="ignore", invalid="ignore"):
        tables = [drive.pieces(t_start, t_start + duration) for drive, t_start, duration in pairs]
        packed = _pack_pieces(tables, [t_start for _, t_start, _ in pairs])
        bounds = np.cumsum([0] + [len(table) for table in tables]).tolist()
        integrals = _piece_integrals(packed, nu)  # (4, pieces)
        w = _pair_sums(packed, nu, integrals, bounds)
        j = _window_sums(integrals, bounds)
        # rows sigma = +1, -1; columns m_plus and m_minus, the kick integrals of
        # gtilde e^{i sigma omega_plus s} and of conj(gtilde) e^{i sigma omega_minus s}
        m = j[[1, 0, 2, 3]].reshape(2, 2, -1)
        m[:, 1] = m[:, 1].conj()
        scale = np.array([sigma * 1j / (2.0 * wt * l) for sigma in (+1, -1)])[:, None, None]
        kick = _cmul(scale.real, scale.imag, m.real, m.imag)
        lin = _cmul(mh * l, 0.0, m.real, m.imag * np.array([-1.0, 1.0])[:, None])  # conj(m_plus), m_minus
        phase = mh * ((w[0::2] - w[1::2]) / (2j * wt)).real
    finite = np.isfinite(np.concatenate([kick, lin, phase[:, None]], axis=1)).all(axis=(0, 1))
    if not finite.all():
        _, t_start, duration = pairs[int(np.argmin(finite))]
        raise ParameterError(
            f"drive overflows the segment coefficients on [{t_start:.6g}, {t_start + duration:.6g}] s"
        )
    durations = [d for _, _, d in pairs]
    turns = {d: [[cmath.exp(-1j * s * w * d) for w in (wp, wm)] for s in (+1, -1)] for d in set(durations)}
    rot = np.array([turns[d] for d in durations]).transpose(1, 2, 0)
    return {sigma: _SegmentCoeffs(*rot[k], *kick[k], *lin[k], phase[k]) for k, sigma in enumerate((+1, -1))}


def _cached_coeffs(config: TrapConfig, pairs) -> list[dict[int, _SegmentCoeffs]]:
    """{sigma: coefficients} in Python scalars per (drive, t_start, duration) pair, via the cache.

    Each pair and spin is looked up once.  The misses go through one :func:`_segment_coeffs`
    pass, and the last ``_SEGMENT_CACHE_MAX // 2`` of them with hashable drives (what the
    cache can hold) are memoized for later runs; the cache is never read back within a run.
    """
    found, missed = [], []
    for drive, t, d in pairs:
        coeffs, keep = {+1: None, -1: None}, True
        try:
            coeffs = {s: _SEGMENT_CACHE.get((drive, config, s, t, d)) for s in (+1, -1)}
        except TypeError:  # unhashable custom signal: compute without caching
            keep = False
        found.append(coeffs)
        if None in coeffs.values():
            missed.append((drive, t, d, coeffs, keep))
    if not missed:
        return found
    fields = _segment_coeffs(config, [m[:3] for m in missed])
    rows = {s: list(zip(*(f.tolist() for f in fields[s]))) for s in (+1, -1)}
    memo_from = len(missed) - _SEGMENT_CACHE_MAX // 2
    for i, (drive, t, d, coeffs, keep) in enumerate(missed):
        for sigma in (+1, -1):
            coeffs[sigma] = _SegmentCoeffs._make(rows[sigma][i])
            if keep and i >= memo_from:
                if len(_SEGMENT_CACHE) >= _SEGMENT_CACHE_MAX:
                    _SEGMENT_CACHE.popitem(last=False)
                _SEGMENT_CACHE[drive, config, sigma, t, d] = coeffs[sigma]
    return found


def apply_evolution(
    state: SpinorCoherentState,
    duration: float,
    drive: ForceSignal | None = None,
    mode: str = "exact",
) -> SpinorCoherentState:
    """Evolve every branch for ``duration`` under the trap plus optional drive.

    exact mode: amplitudes follow the driven-oscillator solution (mode
    rotation plus a drive kick) and the phase accumulates the full
    (m/hbar) integral g . r along the driven center path, which is quadratic
    in the drive.  first_order mode: undriven amplitudes, phase keeps only the
    part linear in the drive (evaluated along the undriven path).  With no
    drive both reduce to pure mode rotation and zero phase.
    """
    return _walk(state, (Evolve(duration, drive, mode),), (None,))[0]


def _evolve(state: SpinorCoherentState, per_sigma, duration: float, mode: str) -> SpinorCoherentState:
    """Evolve every branch for ``duration`` > 0 with the window's {sigma: coefficients}."""
    new_branches = []
    for b in state.branches:
        cf = per_sigma[b.spin]
        phase = b.phase + (cf.p_lin * b.alpha_plus + cf.q_lin * b.alpha_minus.conjugate()).real
        a_plus, a_minus = b.alpha_plus, b.alpha_minus
        if mode == "exact":
            a_plus, a_minus, phase = a_plus + cf.kick_plus, a_minus + cf.kick_minus, phase + cf.phase_g2
        new_branches.append(
            replace(b, alpha_plus=cf.rot_plus * a_plus, alpha_minus=cf.rot_minus * a_minus, phase=phase)
        )
    return replace(state, branches=tuple(new_branches), time=state.time + duration)


# ---------------------------------------------------------------------------
# readout


def _gram_sums(state: SpinorCoherentState):
    """(up-block norm, down-block norm, up-down cross sum) with orbital overlaps."""
    modes = state.modes
    ups = [(b, b.amplitude) for b in state.branches if b.spin == +1]
    downs = [(b, b.amplitude) for b in state.branches if b.spin == -1]

    def block(rows, cols):
        tot = 0.0 + 0.0j
        for a, amp_a in rows:
            for b, amp_b in cols:
                tot += amp_a.conjugate() * amp_b * _overlap(modes, a, b)
        return tot

    return block(ups, ups).real, block(downs, downs).real, block(ups, downs)


def _normed_gram_sums(state: SpinorCoherentState):
    """:func:`_gram_sums` plus their total norm, which must not vanish."""
    n_up, n_down, cross = _gram_sums(state)
    norm = n_up + n_down
    if not _every(norm >= 1e-300):
        raise ParameterError("state has zero norm")
    return n_up, n_down, cross, norm


def expectation_spin(state: SpinorCoherentState, axis: str) -> float:
    """Exact spin expectation along axis in {x, y, z}, overlap factors included."""
    if axis not in ("x", "y", "z"):
        raise ParameterError(f"axis must be one of x, y, z, got {axis!r}")
    n_up, n_down, cross, norm = _normed_gram_sums(state)
    if axis == "z":
        return (n_up - n_down) / norm
    if axis == "x":
        return 2.0 * cross.real / norm
    return 2.0 * cross.imag / norm


@dataclass(frozen=True)
class MeasurementRecord:
    """Readout result plus diagnostics.

    ``signal`` is calibrated so a weak drive in the "up" preset gives
    +sin(differential phase); ``coherence`` and ``phase`` describe the spin
    off-diagonal element before the final recombination rotation (when the
    sequence has one), so coherence is the orbital-overlap envelope and
    signal = coherence * sin(phase).  ``expectations`` holds the raw x/y/z
    spin expectations of the final state; ``expectation`` is the one along
    the requested readout axis (None when the sequence has no Readout).
    """

    signal: float
    coherence: float
    phase: float
    expectation: float | None
    axis: str | None
    expectations: dict[str, float]
    norm: float
    trace: tuple
    state: SpinorCoherentState


def _coherence_record(state: SpinorCoherentState):
    _, _, cross, norm = _normed_gram_sums(state)
    coherence = 2.0 * abs(cross) / norm
    if isinstance(cross, np.ndarray):
        phase = -np.angle(cross)
    else:
        phase = -cmath.phase(cross) if cross != 0 else 0.0
    signal = _SIGNAL_SIGN * 2.0 * cross.imag / norm
    return signal, coherence, phase, norm


def _window_coeffs(state: SpinorCoherentState, sequence: PulseSequence, drives: tuple) -> list[dict]:
    """{sigma: coefficients} of each Evolve step of positive duration, in step order, in one call.

    A step without its own drive gets the coefficients of every drive in ``drives``.  One
    drive gives Python scalars through the cache.  N > 1 drives give shape-(N,) field
    arrays, one entry per sample; such a walk's drives are used once (transfer probes), so
    its windows bypass the cache.
    """
    pairs, bounds, t = [], [0], state.time
    for step in sequence:
        if isinstance(step, Evolve) and step.duration > 0.0:
            own = drives if step.drive is None else (step.drive,)
            pairs += [(Zero() if d is None else d, t, step.duration) for d in own]
            bounds.append(len(pairs))
            t += step.duration
    if len(drives) == 1:
        return _cached_coeffs(state.config, pairs)
    found = _segment_coeffs(state.config, pairs)
    return [
        {s: _SegmentCoeffs(*(f[lo].item() if hi - lo == 1 else f[lo:hi] for f in found[s])) for s in (+1, -1)}
        for lo, hi in zip(bounds, bounds[1:])
    ]


def _walk(state: SpinorCoherentState, sequence: PulseSequence, drives: tuple, trace=None):
    """Apply the steps of ``sequence`` in order.

    ``drives`` holds the sequence drive (a drive or None), or N drives, one per sample of
    an array branch.  Returns (final state, coherence state, readout axis or None).  The
    coherence state is the one just before the final recombination rotation
    when the sequence ends with one, else the final state; <sigma_y> is
    invariant under RotateY, so the signal is the same either way.  When
    ``trace`` is a list, one (step name, time, branches) entry is appended
    per step.
    """
    coeffs = iter(_window_coeffs(state, sequence, drives))
    pre_rotation = None  # state just before the most recent RotateY
    axis = None
    for step in sequence:
        if isinstance(step, RotateY):
            pre_rotation = state
            state = apply_rotation(state, step.angle)
        elif isinstance(step, Displace):
            state = apply_displacement(state, step.shift)
            pre_rotation = None
        elif isinstance(step, Evolve):
            if step.duration > 0.0:
                state = _evolve(state, next(coeffs), step.duration, step.mode)
            pre_rotation = None
        elif isinstance(step, Readout):
            axis = step.axis
        else:
            raise ParameterError(f"unknown pulse primitive {step!r}")
        if trace is not None:
            trace.append((type(step).__name__, state.time, state.branches))
    return state, (pre_rotation if pre_rotation is not None else state), axis


def run_sequence(
    config: TrapConfig,
    initial,
    sequence: PulseSequence,
    drive: ForceSignal | None = None,
) -> MeasurementRecord:
    """Apply a pulse sequence and return the measurement record.

    ``initial`` may be None (motional ground state, spin up), a
    PhaseSpacePoint (spin-up coherent state at that point), or a full
    SpinorCoherentState.  ``drive`` is used by Evolve steps that do not carry
    their own.  The signal convention: for the "up" preset with a weak drive,
    signal = sin[2 (m/hbar) integral (zhat x r0) . g(t') h_perp(t') dt'];
    coherence and phase refer to the pre-recombination spin coherence, so the
    identity signal = coherence * sin(phase) holds.
    """
    if initial is None:
        state = ground_state(config)
    elif isinstance(initial, PhaseSpacePoint):
        ap, am = mode_decompose(config, +1, initial)
        state = SpinorCoherentState(
            config=config,
            branches=(Branch(spin=+1, weight=1.0 + 0.0j, alpha_plus=ap, alpha_minus=am),),
        )
    elif isinstance(initial, SpinorCoherentState):
        if initial.config != config:
            raise ParameterError("initial state was built for a different trap config")
        state = initial
    else:
        raise ParameterError(f"unsupported initial state {initial!r}")

    trace = [("init", state.time, state.branches)]
    state, coh_state, axis = _walk(state, sequence, (drive,), trace)
    signal, coherence, phase, _ = _coherence_record(coh_state)

    n_up, n_down, cross, norm = _normed_gram_sums(state)
    expectations = {
        "z": (n_up - n_down) / norm,
        "x": 2.0 * cross.real / norm,
        "y": 2.0 * cross.imag / norm,
    }
    return MeasurementRecord(
        signal=signal,
        coherence=coherence,
        phase=phase,
        expectation=expectations[axis] if axis is not None else None,
        axis=axis,
        expectations=expectations,
        norm=norm,
        trace=tuple(trace),
        state=state,
    )


def batch_signal(
    config: TrapConfig,
    alpha_plus,
    alpha_minus,
    sequence: PulseSequence,
    drive: ForceSignal | None = None,
) -> np.ndarray:
    """Readout signal of ``sequence`` for N spin-up coherent initial states at once.

    Sample i starts as one spin-up branch with mode amplitudes
    (alpha_plus[i], alpha_minus[i]); entry i of the result is the ``signal``
    that :func:`run_sequence` returns for that state, up to roundoff.  The
    samples go through the same step walk and primitives as array-valued
    branches, ``_BATCH_BLOCK`` at a time.  Branches merge only where every
    sample of a block is within the merge tolerance.
    """
    a_plus = np.asarray(alpha_plus, dtype=complex)
    a_minus = np.asarray(alpha_minus, dtype=complex)
    if a_plus.ndim != 1 or a_plus.shape != a_minus.shape:
        raise ParameterError(
            f"alpha_plus and alpha_minus must be 1-D arrays of one length, "
            f"got shapes {a_plus.shape} and {a_minus.shape}"
        )
    signals = np.empty(a_plus.shape[0])
    for lo in range(0, a_plus.shape[0], _BATCH_BLOCK):
        block = slice(lo, lo + _BATCH_BLOCK)
        state = SpinorCoherentState(
            config=config,
            branches=(
                Branch(spin=+1, weight=1.0 + 0.0j, alpha_plus=a_plus[block], alpha_minus=a_minus[block]),
            ),
        )
        _, coh_state, _ = _walk(state, sequence, (drive,))
        signals[block] = _coherence_record(coh_state)[0]
    return signals


# ---------------------------------------------------------------------------
# presets


def preset_up(r0, t: float) -> PulseSequence:
    """Split, displace by r0, evolve for t, recombine, read out along z."""
    if not t > 0:
        raise ParameterError(f"t must be > 0, got {t}")
    return PulseSequence(
        steps=(
            RotateY(math.pi / 2.0),
            Displace(tuple(float(v) for v in r0)),
            Evolve(t),
            RotateY(-math.pi / 2.0),
            Readout("z"),
        ),
        name="up",
    )


def preset_cp(r0, t: float, modes: NormalModes | None = None) -> PulseSequence:
    """Spin-echo variant: pi flips at t and 3t, total interrogation 4t.

    The pi pulses time-reverse the orbital motion only when applied at
    velocity-zero times t = pi n / omega_tilde; pass ``modes`` to get a
    warning when t is not one.
    """
    if not t > 0:
        raise ParameterError(f"t must be > 0, got {t}")
    if modes is not None:
        n_half = t * modes.omega_tilde / math.pi
        if abs(n_half - round(n_half)) > 1e-6 * max(n_half, 1.0):
            warnings.warn(
                f"t = {t:.6g} s is not a velocity-zero time pi n / omega_tilde; "
                "the pi pulses will not time-reverse the orbits",
                stacklevel=2,
            )
    return PulseSequence(
        steps=(
            RotateY(math.pi / 2.0),
            Displace(tuple(float(v) for v in r0)),
            Evolve(t),
            RotateY(math.pi),
            Evolve(2.0 * t),
            RotateY(math.pi),
            Evolve(t),
            RotateY(-math.pi / 2.0),
            Readout("z"),
        ),
        name="cp",
    )
