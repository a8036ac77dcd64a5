"""Closed-form measurement-capability model for the layered accelerometer.

Chains the thermal cloud geometry (thermal radius vs. homogeneity radius),
the two-body collision budget, the shot-noise sensitivity

    S = (2 pi hbar / (m r_0)) * sqrt(1 / (N tau)),    N = N_a * n_layers,

the signal ceiling g_max, the optimal trap frequency, and the measurement
bandwidth (FWHM of the echo-sequence response main lobe).  Everything here
is closed-form algebra, the optimal trap frequency included (the positive
root of a cubic); the response machinery is only used for the bandwidth
figure.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .constants import HBAR, K_B
from .errors import BracketingError, InfeasibleGeometryError, ParameterError
from .response import main_lobe_fwhm, response_cp
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
        2.0 * math.pi * config.hbar / (config.mass * r_0)
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
        return {
            "v_mean": self.v_mean,
            "r_t": self.r_t,
            "r_0": self.r_0,
            "n_layers": self.n_layers,
            "gamma_coll": self.gamma_coll,
            "N_c": self.N_c,
            "tau": self.tau,
            "g_max": self.g_max,
            "S": self.S,
            "omega_opt": self.omega_opt,
            "bandwidth": self.bandwidth,
        }


def _shot_noise(species: SpeciesParams, r_0: float, n_total: float, tau: float) -> float:
    if n_total <= 0 or tau <= 0:
        return math.inf
    return (2.0 * math.pi * HBAR / (species.mass * r_0)) * math.sqrt(1.0 / (n_total * tau))


def _cp_fwhm(modes: NormalModes, r_0: float, t: float) -> float:
    """FWHM of the echo-response main lobe at interrogation segment t."""
    probe = 2.0 * math.pi / t
    w_hi = max(3.0 * modes.omega_plus, 8.0 * probe)
    if not math.isfinite(w_hi):
        raise ParameterError(f"segment time {t:.3e} s is too short: its response grid overflows")
    n = int(w_hi / (probe / 64.0)) + 2
    n = min(max(n, 1024), 1 << 17)
    grid = np.linspace(0.0, w_hi, n)
    try:
        return main_lobe_fwhm(response_cp(modes, r_0, t, grid=grid))
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
    """``sensitivity`` of each apparatus, in order, with one bandwidth curve per
    distinct (modes, r_0, t) among them: an atom-number sweep below the
    collision limit repeats t = pi/omega_tilde."""
    bandwidths = {}
    reports = []
    for apparatus in apparatuses:
        geometry = thermal_geometry(species, apparatus)
        budget = collision_budget(species, apparatus, geometry)
        n_total = apparatus.atoms_per_layer * geometry.n_layers
        s_val = _shot_noise(species, geometry.r_0, n_total, budget.tau)

        config = TrapConfig.from_modes(species.mass, apparatus.omega_tilde, apparatus.epsilon)
        modes = derive_modes(config)
        thermal = ThermalParams.from_temperature(modes, apparatus.temperature)
        g_max = signal_ceiling(config, modes, thermal, geometry.r_0, budget.tau)

        t_eff = min(math.pi / apparatus.omega_tilde, budget.tau / 4.0)
        bandwidth = math.inf
        if t_eff > 0:
            key = (modes, geometry.r_0, t_eff)
            if key not in bandwidths:
                bandwidths[key] = _cp_fwhm(modes, geometry.r_0, t_eff)
            bandwidth = bandwidths[key]
        reports.append(
            SensitivityReport(
                v_mean=geometry.v_mean,
                r_t=geometry.r_t,
                r_0=geometry.r_0,
                n_layers=geometry.n_layers,
                gamma_coll=budget.gamma_coll,
                N_c=budget.N_c,
                tau=budget.tau,
                g_max=g_max,
                S=s_val,
                omega_opt=2.0 * geometry.v_mean / apparatus.homogeneity_radius,
                bandwidth=bandwidth,
            )
        )
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
