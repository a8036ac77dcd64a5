"""Closed-form measurement-capability model for the layered accelerometer.

Chains the thermal cloud geometry (thermal radius vs. homogeneity radius),
the two-body collision budget, the shot-noise sensitivity

    S = (2 pi hbar / (m r_0)) * sqrt(1 / (N tau)),    N = N_a * n_layers,

the signal ceiling g_max, the optimal trap frequency, and the measurement
bandwidth.  All but the bandwidth is closed-form algebra, the optimal trap frequency included
(the positive root of a cubic).  The bandwidth is the linearly interpolated main-lobe FWHM of
|F_cp|^2 on a 1,024-point grid over [0, 16 pi / t]; _cp_fwhm evaluates only the points a bound
cannot rule out, and a sweep the 160-point heads of all its distinct curves as one array.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .constants import HBAR, K_B
from .errors import BracketingError, InfeasibleGeometryError, ParameterError, ResolutionError
from .response import ResponseCurve, _cp_values, _up_values, main_lobe_fwhm, response_cp
from .thermal import ThermalParams
from .trap import NormalModes, TrapConfig, derive_modes

__all__ = [
    "SpeciesParams",
    "ApparatusParams",
    "ThermalGeometry",
    "CollisionBudget",
    "SensitivityReport",
    "TrapOptimum",
    "RB87",
    "thermal_geometry",
    "collision_budget",
    "signal_ceiling",
    "sensitivity",
    "optimize_trap",
]


@dataclass(frozen=True)
class SpeciesParams:
    """Atomic species constants: mass, s-wave scattering length, and the
    spontaneous-emission rate of the dressing lasers."""

    mass: float
    scattering_length: float
    gamma_se: float

    def __post_init__(self):
        for name in ("mass", "scattering_length", "gamma_se"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise ParameterError(f"{name} must be positive and finite, got {v}")


RB87 = SpeciesParams(mass=1.44316e-25, scattering_length=5.3e-9, gamma_se=1.0 / 0.070)


@dataclass(frozen=True)
class ApparatusParams:
    """Operating point of the layered trap.

    epsilon = omega_plus / omega_minus fixes the mode splitting;
    homogeneity_radius bounds the usable displacement; atoms_per_layer may
    be zero (useful for collision-free baselines).
    """

    temperature: float
    layer_spacing: float
    homogeneity_radius: float
    omega_tilde: float
    epsilon: float
    atoms_per_layer: float

    def __post_init__(self):
        if not (math.isfinite(self.temperature) and self.temperature >= 0):
            raise ParameterError(f"temperature must be >= 0, got {self.temperature}")
        for name in ("layer_spacing", "homogeneity_radius", "omega_tilde"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise ParameterError(f"{name} must be positive and finite, got {v}")
        if not (math.isfinite(self.epsilon) and self.epsilon >= 1):
            raise ParameterError(f"epsilon must be >= 1, got {self.epsilon}")
        if not (math.isfinite(self.atoms_per_layer) and self.atoms_per_layer >= 0):
            raise ParameterError(f"atoms_per_layer must be >= 0, got {self.atoms_per_layer}")


class ThermalGeometry(NamedTuple):
    v_mean: float
    r_t: float
    r_0: float
    n_layers: int


class CollisionBudget(NamedTuple):
    gamma_coll: float
    N_c: float
    tau: float


def thermal_geometry(species: SpeciesParams, apparatus: ApparatusParams) -> ThermalGeometry:
    """Thermal speed, cloud radius, usable displacement, and layer count.

    v = sqrt(3 kT / m); r_t = v / omega_tilde; r_0 = r_l - r_t.  The cloud
    must fit inside the homogeneity radius, else InfeasibleGeometryError.
    """
    v_mean = math.sqrt(3.0 * K_B * apparatus.temperature / species.mass)
    r_t = v_mean / apparatus.omega_tilde
    r_l = apparatus.homogeneity_radius
    if r_t >= r_l:
        raise InfeasibleGeometryError(
            f"thermal radius {r_t:.3e} m exceeds homogeneity radius {r_l:.3e} m; "
            "lower the temperature or stiffen the trap"
        )
    if v_mean > 0 and not r_t ** 2 > 0:
        raise ParameterError(
            f"omega_tilde {apparatus.omega_tilde:.3e} rad/s leaves a thermal radius "
            f"{r_t:.3e} m whose square underflows"
        )
    layers = r_l / apparatus.layer_spacing
    if not math.isfinite(layers):
        raise ParameterError(
            f"homogeneity_radius / layer_spacing = {r_l:.3e} / "
            f"{apparatus.layer_spacing:.3e} overflows"
        )
    # forgive float dust when r_l is an exact multiple of the spacing
    n_layers = int(math.floor(layers + 1e-9))
    return ThermalGeometry(v_mean=v_mean, r_t=r_t, r_0=r_l - r_t, n_layers=n_layers)


def collision_budget(
    species: SpeciesParams, apparatus: ApparatusParams, geometry: ThermalGeometry
) -> CollisionBudget:
    """Two-body collision rate, critical atom number, and coherence time.

    gamma_coll = N_a v a^2 / (d r_t^2); N_c solves gamma_coll(N_c) = gamma_se;
    tau = 1 / (gamma_se + gamma_coll).  A point-like cloud (r_t = 0) has a
    divergent collision rate for any nonzero atom number.
    """
    a = species.scattering_length
    d = apparatus.layer_spacing
    n_a = apparatus.atoms_per_layer
    if geometry.r_t > 0:
        try:
            rate_per_atom = geometry.v_mean * a ** 2 / (d * geometry.r_t ** 2)
        except OverflowError:  # a**2
            rate_per_atom = math.inf
        if not 0 < rate_per_atom < math.inf:
            raise ParameterError(f"collision rate per atom is {rate_per_atom} 1/s for {species}")
        gamma_coll = n_a * rate_per_atom
        n_c = species.gamma_se / rate_per_atom
    else:
        gamma_coll = math.inf if n_a > 0 else 0.0
        n_c = 0.0
    tau = 1.0 / (species.gamma_se + gamma_coll)
    return CollisionBudget(gamma_coll=gamma_coll, N_c=n_c, tau=tau)


def signal_ceiling(
    config: TrapConfig,
    modes: NormalModes,
    thermal: ThermalParams,
    r_0: float,
    tau: float,
) -> float:
    """Largest measurable acceleration, g_max = (2/tau/sqrt(<n>)) * 2 pi hbar/(m r_0).

    The decay rate entering the bound is the total rate 1/tau and <n> is the
    occupation of the dominant (lower-frequency, hence hotter) mode.  A zero
    occupation removes the thermal ceiling entirely (returns inf).
    """
    if not r_0 > 0:
        raise ParameterError(f"r_0 must be > 0, got {r_0}")
    if not tau > 0:
        raise ParameterError(f"tau must be > 0, got {tau}")
    n_dom = max(thermal.n_plus, thermal.n_minus)
    if n_dom <= 0:
        return math.inf
    gamma_d = 1.0 / tau
    return (2.0 * gamma_d / math.sqrt(n_dom)) * (
        2.0 * math.pi * HBAR / (config.mass * r_0)
    )


@dataclass(frozen=True)
class SensitivityReport:
    """All intermediates of the capability chain for one operating point."""

    v_mean: float
    r_t: float
    r_0: float
    n_layers: int
    gamma_coll: float
    N_c: float
    tau: float
    g_max: float
    S: float
    omega_opt: float
    bandwidth: float

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


def _shot_noise(species: SpeciesParams, r_0: float, n_total: float, tau: float) -> float:
    if n_total <= 0 or tau <= 0:
        return math.inf
    return (2.0 * math.pi * HBAR / (species.mass * r_0)) * math.sqrt(1.0 / (n_total * tau))


_HEAD = 160  # grid[:160] ends at 2.5 pi / t; 160 and 1,024 are both multiples of 32


def _cp_tail_bound(modes: NormalModes, r_0: float, t: float, w: float) -> float:
    """Bound on the computed |F_cp| of response_cp at every frequency >= w > 0 (see _cp_fwhm)."""
    wp, wm, wt = modes.omega_plus, modes.omega_minus, modes.omega_tilde
    dh = wm * wp * abs(math.cos(wp * t) - math.cos(wm * t)) / (2.0 * wt)  # |h'(t)|
    ddh = wm * wp * min((wp * wp - wm * wm) * t * t / (4.0 * wt), t)  # >= int_0^t |h''|
    scale = r_0 / (wt * modes.l_osc**2)  # r_0 m / hbar, as response_up forms it
    return 16.0 * scale * (dh + ddh) / (w * w) + 2.0**-36 * scale * t


def _cp_heads(modes: NormalModes, r_0: float, ts) -> list[dict]:
    """ResponseCurve fields, all but t, of the _HEAD-point head of _cp_fwhm's grid at each t of ``ts``: rows
    of one C-contiguous (K, _HEAD) evaluation; all {} when a grid overflows or the evaluation raises or
    would warn, so those curves take the whole grid, which raises or warns as one curve."""
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            w_hi = 8.0 * (2.0 * math.pi / np.array(ts))  # _cp_fwhm's grid ends, an overflow raising
            if len(ts) > 1:  # the heads end to end, one t per point: flat operands take numpy's fast loops,
                t, stop = np.repeat(ts, _HEAD), w_hi  # where (K, _HEAD) rows and a (K, 1) column of t do not
            else:  # a lone curve as response_cp evaluates it, with its float t
                t, stop = ts[0], w_hi[0]
            grid = np.linspace(0.0, stop, 1024)[:_HEAD].T.ravel()  # row k: np.linspace(0.0, w_hi[k], 1024)[:_HEAD]
            r0_mag, w, f0 = _up_values(modes, r_0, t, grid)
            values = _cp_values(w, t, f0)
    except (ParameterError, FloatingPointError):
        return [{}] * len(ts)
    rows = zip(w.reshape(-1, _HEAD), values.reshape(-1, _HEAD))
    return [dict(omega=omega, values=row, kind="cp", r0=r0_mag, modes=modes) for omega, row in rows]


def _cp_fwhm(modes: NormalModes, r_0: float, t: float, head=None) -> float:
    """FWHM of the echo-response main lobe at interrogation segment t <= pi / omega_tilde.

    The grid spans eight probe frequencies 2 pi / t >= 2 omega_tilde, so it
    also covers both modes (omega_plus < 2 omega_tilde).  Only its first
    _HEAD points are read when a bound puts the rest below half the peak: ``head``, t's
    row of _cp_heads, else t's head evaluated here as a batch of one.

    Bound: with h = h_perp, h(0) = h'(0) = 0, |F_cp| = 4 |sin(omega t) R| and
    R = Re(F0 e^{i omega t}) = 4 r_0 (m/hbar) int_0^t h(s) cos(omega (t - s)) ds.  Two
    integrations by parts give |F_cp| <= C / omega^2, C = 16 r_0 (m/hbar) (|h'(t)| + int_0^t |h''|),
    with |h'(t)| = w- w+ |cos w+ t - cos w- t| / (2 omega_tilde) and, as |sin u + u cos u| <= 2u
    gives |w+ sin w+ s - w- sin w- s| <= min((w+^2 - w-^2) s, w+ + w-),
    int_0^t |h''| <= w- w+ min((w+^2 - w-^2) t^2 / (4 omega_tilde), t).  Rounding, where the
    window terms of F0 cancel, adds E = 2^-36 (m/hbar) r_0 t: room for a few thousand ulp.

    Threshold: if C / w_159^2 + E <= max |F_cp| / 2 over the head, |F_cp|^2 lies below half its peak
    at every later point, so the head holds the argmax and both crossings, and its main_lobe_fwhm is
    the whole grid's bit for bit (no SIMD remainder loop runs on either length).  Otherwise (an empty
    head, a zero or non-finite peak, a head that raises) the whole grid is evaluated.
    """
    if head is None:
        (head,) = _cp_heads(modes, r_0, [t])
    if head:
        try:
            curve = ResponseCurve(**head, t=t)
            peak = float(np.abs(curve.values).max())
            tail = _cp_tail_bound(modes, r_0, t, float(curve.omega[-1]))
            if 0.0 < peak < math.inf and tail <= peak / 2.0:
                return main_lobe_fwhm(curve)
        except (ParameterError, ResolutionError):
            pass  # the whole grid gives the same error, or one its checks reach first
    w_hi = 8.0 * (2.0 * math.pi / t)
    if not math.isfinite(w_hi):
        raise ParameterError(f"segment time {t:.3e} s is too short: its response grid overflows")
    try:
        return main_lobe_fwhm(response_cp(modes, r_0, t, grid=np.linspace(0.0, w_hi, 1024)))
    except ParameterError as exc:
        raise ParameterError(f"bandwidth curve at r_0 = {r_0:.3e} m, segment t = {t:.3e} s: {exc}")


def sensitivity(species: SpeciesParams, apparatus: ApparatusParams) -> SensitivityReport:
    """Full capability report: geometry, collision budget, S, g_max, bandwidth.

    S uses the total atom number N_a * n_layers, so the 1/sqrt(n_layers)
    layering gain is automatic.  The bandwidth is the response-lobe FWHM at
    the lifetime-limited segment time t = min(pi/omega_tilde, tau/4) (the
    echo sequence spans 4t); it therefore widens once collisions shorten tau.
    omega_opt reports the closed-form large-N optimum 2 v / r_l.
    """
    return _sensitivity_reports(species, (apparatus,))[0]


def _sensitivity_reports(species: SpeciesParams, apparatuses) -> list[SensitivityReport]:
    """``sensitivity`` of each apparatus, in order, with one bandwidth curve per distinct (modes, r_0, t)
    among them (a sweep below the collision limit repeats t = pi/omega_tilde), the heads of each
    (modes, r_0) as one array (_cp_heads), and the trap of each (omega_tilde, epsilon, temperature)
    derived once.  Every geometry is taken before any curve, yet the first apparatus that fails raises."""
    points, groups, traps, failure = [], {}, {}, None
    for apparatus in apparatuses:
        try:
            geometry = thermal_geometry(species, apparatus)
            budget = collision_budget(species, apparatus, geometry)
            n_total = apparatus.atoms_per_layer * geometry.n_layers
            s_val = _shot_noise(species, geometry.r_0, n_total, budget.tau)

            trap = (apparatus.omega_tilde, apparatus.epsilon, apparatus.temperature)
            if trap not in traps:  # a trap that was derived for an earlier apparatus raises nothing
                config = TrapConfig.from_modes(species.mass, apparatus.omega_tilde, apparatus.epsilon)
                modes = derive_modes(config)
                traps[trap] = config, modes, ThermalParams.from_temperature(modes, apparatus.temperature)
            config, modes, thermal = traps[trap]
            g_max = signal_ceiling(config, modes, thermal, geometry.r_0, budget.tau)
        except Exception as exc:  # raised once the curves of the apparatuses before it are read
            failure = exc
            break
        t_eff = min(math.pi / apparatus.omega_tilde, budget.tau / 4.0)
        key = (modes, geometry.r_0, t_eff) if t_eff > 0 else None
        if key is not None:
            groups.setdefault(key[:2], {})[t_eff] = None  # the distinct t, in order
        omega_opt = 2.0 * geometry.v_mean / apparatus.homogeneity_radius
        points.append((dict(**geometry._asdict(), **budget._asdict(), g_max=g_max, S=s_val, omega_opt=omega_opt), key))
    for (modes, r_0), heads in groups.items():  # each distinct t of the group: its head
        heads.update(zip(heads, _cp_heads(modes, r_0, list(heads))))
    bandwidths = {None: math.inf}
    reports = []
    for fields, key in points:
        if key not in bandwidths:
            bandwidths[key] = _cp_fwhm(*key, groups[key[:2]][key[2]])
        reports.append(SensitivityReport(**fields, bandwidth=bandwidths[key]))
    if failure is not None:
        raise failure
    return reports


@dataclass(frozen=True)
class TrapOptimum:
    omega_opt: float
    S_min: float
    bandwidth: float
    boundary: bool


def optimize_trap(
    species: SpeciesParams,
    apparatus: ApparatusParams,
    omega_range: tuple,
    require_interior: bool = False,
) -> TrapOptimum:
    """Minimize S over the trap frequency; apparatus.omega_tilde is ignored.

    With v = sqrt(3kT/m) and gamma_coll proportional to omega^2, S^2 is
    proportional to (gamma_se + gamma_coll) / (r_l - v/omega)^2, and dS/domega
    = 0 is the cubic r_l omega^3 - 2 v omega^2 - v omega^2 gamma_se/gamma_coll
    = 0.  Its one positive root (Descartes) lies above the large-N limit
    2 v / r_l, where the cloud fits; S falls below it and rises above it.  The
    optimum is the root clipped to omega_range; a clipped root is a range edge,
    returned with boundary=True, or a BracketingError if require_interior is
    set.  The bandwidth is the response-lobe FWHM at the natural segment time
    t = pi/omega_opt (no lifetime cap, matching the per-shot optimum).
    """
    lo, hi = float(omega_range[0]), float(omega_range[1])
    if not (0 < lo < hi):
        raise ParameterError(f"omega_range must satisfy 0 < lo < hi, got {omega_range}")

    ap = dataclasses.replace(apparatus, omega_tilde=hi)
    none_feasible = "no feasible trap frequency in the search range: "
    try:  # r_t falls as omega rises, so a cloud that misses at hi never fits
        geometry = thermal_geometry(species, ap)
    except InfeasibleGeometryError as exc:
        raise InfeasibleGeometryError(f"{none_feasible}the cloud never fits ({exc})") from None
    if apparatus.atoms_per_layer * geometry.n_layers == 0:
        raise InfeasibleGeometryError(none_feasible + "no atoms or no layers (N = 0)")
    if geometry.v_mean == 0:
        # collision_budget: a point-like (T = 0) cloud with atoms collides at a divergent rate
        raise InfeasibleGeometryError(none_feasible + "zero lifetime (T = 0 with atoms)")
    # In x = omega / hi the cubic reads x^3 - 2 rho x^2 - rho N_c / N_a = 0, with
    # rho = r_t / r_l and N_c taken at hi.  Cardano's real root (Numerical Recipes
    # 3rd ed., sec. 5.6), written as a sum of positive terms so nothing cancels.
    rho = geometry.r_t / apparatus.homogeneity_radius
    b = 2.0 * rho / 3.0
    h = rho * collision_budget(species, ap, geometry).N_c / (2.0 * apparatus.atoms_per_layer)
    u = (b ** 3 + h + math.sqrt(h * (h + 2.0 * b ** 3))) ** (1.0 / 3.0)
    root = hi * (b + u + b * b / u)
    omega_opt = min(max(root, lo), hi)
    boundary = omega_opt != root
    if boundary and require_interior:
        raise BracketingError(
            "S has no interior minimum in the given range; it is "
            f"{'decreasing' if root > hi else 'increasing'} there"
        )

    ap = dataclasses.replace(apparatus, omega_tilde=omega_opt)
    geometry = thermal_geometry(species, ap)
    tau = collision_budget(species, ap, geometry).tau
    s_min = _shot_noise(species, geometry.r_0, apparatus.atoms_per_layer * geometry.n_layers, tau)
    modes = derive_modes(TrapConfig.from_modes(species.mass, omega_opt, ap.epsilon))
    bandwidth = _cp_fwhm(modes, geometry.r_0, math.pi / omega_opt)
    return TrapOptimum(omega_opt=omega_opt, S_min=s_min, bandwidth=bandwidth, boundary=boundary)
