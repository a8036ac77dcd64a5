"""Capability model: geometry, collision budget, shot-noise floor, optimizer."""
import dataclasses
import importlib
import math

import numpy as np
import pytest

from socaccel import (
    K_B,
    RB87,
    ApparatusParams,
    BracketingError,
    InfeasibleGeometryError,
    ParameterError,
    ResolutionError,
    SpeciesParams,
    ThermalParams,
    TrapConfig,
    collision_budget,
    derive_modes,
    main_lobe_fwhm,
    optimize_trap,
    response_cp,
    sensitivity,
    signal_ceiling,
    thermal_geometry,
)
from oracles import _s_of_omega
from socaccel.sensitivity import _sensitivity_reports

sensitivity_module = importlib.import_module("socaccel.sensitivity")  # the package's name is the function

HBAR = 1.054571817e-34

AP = ApparatusParams(
    temperature=1e-6,
    layer_spacing=1e-6,
    homogeneity_radius=25e-6,
    omega_tilde=2 * math.pi * 1000.0,
    epsilon=22.0,
    atoms_per_layer=1e6,
)
GEO = thermal_geometry(RB87, AP)
W_LARGE_N = 2.0 * GEO.v_mean / AP.homogeneity_radius  # closed-form optimum


def with_atoms(n):
    return dataclasses.replace(AP, atoms_per_layer=n)


class TestSpeciesAndApparatus:
    def test_rb87_preset(self):
        assert RB87.mass == 1.44316e-25
        assert RB87.scattering_length == 5.3e-9
        assert abs(RB87.gamma_se - 1.0 / 0.070) < 1e-12 / 0.070

    def test_species_validation(self):
        with pytest.raises(ParameterError):
            SpeciesParams(mass=-1e-25, scattering_length=5e-9, gamma_se=10.0)
        with pytest.raises(ParameterError):
            SpeciesParams(mass=1e-25, scattering_length=0.0, gamma_se=10.0)

    def test_apparatus_validation(self):
        with pytest.raises(ParameterError):
            dataclasses.replace(AP, temperature=-1e-6)
        with pytest.raises(ParameterError):
            dataclasses.replace(AP, epsilon=0.5)
        with pytest.raises(ParameterError):
            dataclasses.replace(AP, atoms_per_layer=-1.0)
        with pytest.raises(ParameterError):
            dataclasses.replace(AP, layer_spacing=0.0)


class TestThermalGeometry:
    def test_reference_values(self):
        assert abs(GEO.v_mean - 1.6941e-2) < 1e-5, "sqrt(3kT/m) at 1 uK"
        assert abs(GEO.r_t - GEO.v_mean / AP.omega_tilde) < 1e-20
        assert GEO.n_layers == 25
        assert abs(GEO.r_0 - (AP.homogeneity_radius - GEO.r_t)) < 1e-20

    def test_cold_limit(self):
        geo = thermal_geometry(RB87, dataclasses.replace(AP, temperature=1e-12))
        assert geo.r_t < 1e-8
        assert abs(geo.r_0 - AP.homogeneity_radius) < 1e-8

    def test_infeasible_when_cloud_outgrows_region(self):
        with pytest.raises(InfeasibleGeometryError):
            thermal_geometry(RB87, dataclasses.replace(AP, temperature=1e-3))

    def test_layer_count_tolerates_float_dust(self):
        geo = thermal_geometry(RB87, dataclasses.replace(AP, homogeneity_radius=10e-6))
        assert geo.n_layers == 10


class TestCollisionBudget:
    def test_empty_trap(self):
        bud = collision_budget(RB87, with_atoms(0.0), GEO)
        assert bud.gamma_coll == 0.0
        assert abs(bud.tau - 0.070) < 1e-15

    def test_reference_critical_number(self):
        bud = collision_budget(RB87, AP, GEO)
        assert abs(bud.N_c - 218.2) < 1e-3 * 218.2

    def test_critical_number_identity(self):
        bud = collision_budget(RB87, AP, GEO)
        at_nc = collision_budget(RB87, with_atoms(bud.N_c), GEO)
        assert abs(at_nc.gamma_coll - RB87.gamma_se) < 1e-12 * RB87.gamma_se

    @pytest.mark.parametrize("length", [1e308, 1e-300])  # a**2 overflows / rate underflows
    def test_unrepresentable_collision_rate_is_parameter_error(self, length):
        species = dataclasses.replace(RB87, scattering_length=length)
        with pytest.raises(ParameterError, match="collision rate per atom .* scattering_length"):
            collision_budget(species, AP, GEO)

    def test_collision_rate_linear_in_atoms(self):
        one = collision_budget(RB87, with_atoms(1e4), GEO)
        two = collision_budget(RB87, with_atoms(2e4), GEO)
        assert two.gamma_coll == 2.0 * one.gamma_coll


class TestSignalCeiling:
    WT9 = 2 * math.pi * 1000.0
    CFG9 = TrapConfig(RB87.mass, 2 * WT9 * math.sqrt(1.5) / 2.5, 2 * WT9 * 0.5 / 2.5)
    MODES9 = derive_modes(CFG9)

    def test_frozen_millikelvin_value(self):
        thermal = ThermalParams.from_temperature(self.MODES9, 1e-3)
        g_max = signal_ceiling(self.CFG9, self.MODES9, thermal, r_0=1e-6, tau=0.035)
        assert abs(g_max - 1.6254e-3) < 1e-3 * 1.6254e-3
        assert 0.1 < 1e-2 / g_max < 10.0, "order-of-magnitude ceiling"

    def test_occupation_and_lever_scalings(self):
        thermal = ThermalParams.from_occupations(100.0, 400.0)
        quarter = ThermalParams.from_occupations(100.0, 100.0)
        base = signal_ceiling(self.CFG9, self.MODES9, thermal, r_0=1e-6, tau=0.035)
        assert signal_ceiling(self.CFG9, self.MODES9, quarter, 1e-6, 0.035) == 2.0 * base
        assert signal_ceiling(self.CFG9, self.MODES9, thermal, 2e-6, 0.035) == base / 2.0

    def test_zero_occupation_removes_ceiling(self):
        thermal = ThermalParams.from_occupations(0.0, 0.0)
        assert signal_ceiling(self.CFG9, self.MODES9, thermal, 1e-6, 0.035) == math.inf

    def test_validation(self):
        thermal = ThermalParams.from_occupations(1.0, 1.0)
        with pytest.raises(ParameterError):
            signal_ceiling(self.CFG9, self.MODES9, thermal, 0.0, 0.035)
        with pytest.raises(ParameterError):
            signal_ceiling(self.CFG9, self.MODES9, thermal, 1e-6, 0.0)


class TestSensitivity:
    def test_report_construction_identity(self):
        rep = sensitivity(RB87, AP)
        n_total = AP.atoms_per_layer * rep.n_layers
        want = (2.0 * math.pi * HBAR / (RB87.mass * rep.r_0)) * math.sqrt(1.0 / (n_total * rep.tau))
        assert abs(rep.S - want) < 1e-12 * want
        # quadrupling the layer count at fixed per-layer parameters halves S
        quad = (2.0 * math.pi * HBAR / (RB87.mass * rep.r_0)) * math.sqrt(
            1.0 / (4.0 * n_total * rep.tau)
        )
        assert abs(quad - rep.S / 2.0) < 1e-15

    def test_small_atom_number_scaling(self):
        # far below N_c, tau is emission-limited, so quadrupling N halves S
        s1 = sensitivity(RB87, with_atoms(0.1)).S
        s2 = sensitivity(RB87, with_atoms(0.4)).S
        assert abs(s1 / s2 - 2.0) < 2e-3

    def test_non_increasing_in_atom_number(self):
        ss = [sensitivity(RB87, with_atoms(n)).S for n in np.geomspace(1.0, 1e8, 25)]
        assert all(a >= b * (1 - 1e-12) for a, b in zip(ss, ss[1:]))

    def test_plateau_at_optimal_frequency(self):
        ap = dataclasses.replace(AP, omega_tilde=W_LARGE_N, atoms_per_layer=1e8)
        rep = sensitivity(RB87, ap)
        assert abs(rep.S - 4.0539e-6) < 1e-3 * 4.0539e-6
        assert abs(rep.N_c - 4690) < 1e-2 * 4690
        ns = np.geomspace(100 * rep.N_c, 1e4 * rep.N_c, 9)
        ss = [
            sensitivity(RB87, dataclasses.replace(ap, atoms_per_layer=n)).S for n in ns
        ]
        slopes = np.abs(np.diff(np.log(ss)) / np.diff(np.log(ns)))
        assert slopes.max() < 0.05, f"plateau slope {slopes.max():.4f}"

    def test_bandwidth_grows_with_atom_number(self):
        bws = [sensitivity(RB87, with_atoms(n)).bandwidth for n in (1e3, 1e5, 1e7)]
        assert bws[0] < bws[1] < bws[2], bws

    def test_dimensional_audit(self):
        rep = sensitivity(RB87, AP)
        assert 1e-3 < rep.v_mean < 1e-1, "thermal speed, m/s"
        assert 1e-7 < rep.r_t < 1e-5, "cloud radius, m"
        assert 1e-6 < rep.r_0 < 1e-4, "usable displacement, m"
        assert rep.n_layers == 25
        assert 0.0 < rep.gamma_coll < 1e6, "collision rate, 1/s"
        assert 1e1 < rep.N_c < 1e7
        assert 1e-5 < rep.tau < 0.070 + 1e-12, "lifetime, s"
        assert 1e-5 < rep.g_max < 10.0, "ceiling, m/s^2"
        assert 1e-8 < rep.S < 1e-4, "sensitivity, (m/s^2)/sqrt(Hz)"
        assert 1e2 < rep.omega_opt < 1e5, "rad/s"
        assert 1e1 < rep.bandwidth < 1e6, "rad/s"

    @pytest.mark.parametrize(
        "key, cause",
        [
            ("omega_tilde", "square underflows"),
            ("homogeneity_radius", "homogeneity_radius / layer_spacing"),
            ("atoms_per_layer", "response grid overflows"),
        ],
    )
    def test_overflowing_apparatus_is_parameter_error(self, key, cause):
        with pytest.raises(ParameterError, match=cause):
            sensitivity(RB87, dataclasses.replace(AP, **{key: 1e308}))

    def test_as_dict_round_trip(self):
        rep = sensitivity(RB87, AP)
        d = rep.as_dict()
        assert d["S"] == rep.S and d["n_layers"] == rep.n_layers
        assert set(d) == {
            "v_mean", "r_t", "r_0", "n_layers", "gamma_coll", "N_c",
            "tau", "g_max", "S", "omega_opt", "bandwidth",
        }


class TestSweepBatch:
    # the README config: its apparatus is AP, its sweep 25 points over 100..1e6 atoms
    SWEEP = [AP] + [with_atoms(n) for n in np.geomspace(100.0, 1e6, 25)]

    def test_reports_equal_one_call_per_point(self):
        reports = _sensitivity_reports(RB87, self.SWEEP)
        assert len(reports) == len(self.SWEEP)
        for ap, rep in zip(self.SWEEP, reports):
            assert rep == sensitivity(RB87, ap)

    def test_one_curve_per_distinct_segment_time(self, monkeypatch):
        calls = []
        real = sensitivity_module.response_cp

        def counting(modes, r0, t, grid=None):
            calls.append(t)
            return real(modes, r0, t, grid=grid)

        monkeypatch.setattr(sensitivity_module, "response_cp", counting)
        reports = _sensitivity_reports(RB87, self.SWEEP)
        t_eff = [min(math.pi / AP.omega_tilde, rep.tau / 4.0) for rep in reports]
        assert len(set(t_eff)) == 14
        assert sorted(calls) == sorted(set(t_eff))


class TestOptimizeTrap:
    def test_large_atom_limit_matches_closed_form(self):
        opt = optimize_trap(RB87, with_atoms(1e8), (W_LARGE_N / 30, W_LARGE_N * 30))
        assert not opt.boundary
        assert abs(opt.omega_opt - W_LARGE_N) < 1e-3 * W_LARGE_N
        assert abs(W_LARGE_N - 1355.3) < 1e-3 * 1355.3

    # 1e8 atoms on this range is also criterion_08d's setup
    @pytest.mark.parametrize("n_a", [1e4, 1e6, 1e8])
    def test_golden_section_matches_scipy(self, n_a):
        optimize = pytest.importorskip("scipy.optimize")
        ap, lo, hi = with_atoms(n_a), W_LARGE_N / 30, W_LARGE_N * 30
        opt = optimize_trap(RB87, ap, (lo, hi))
        assert not opt.boundary
        grid = np.geomspace(lo, hi, 200)
        i = int(np.argmin([_s_of_omega(RB87, ap, w) for w in grid]))
        ref = optimize.minimize_scalar(
            lambda w: _s_of_omega(RB87, ap, w),
            bracket=(grid[i - 1], grid[i], grid[i + 1]),
            method="golden",
            tol=1e-12,
        )
        assert type(opt.omega_opt) is float and type(opt.S_min) is float
        assert abs(opt.omega_opt - ref.x) < 1e-6 * ref.x
        assert abs(opt.S_min - ref.fun) < 1e-12 * ref.fun

    def test_optimum_value_consistent_with_report(self):
        opt = optimize_trap(RB87, with_atoms(1e8), (W_LARGE_N / 30, W_LARGE_N * 30))
        rep = sensitivity(
            RB87, dataclasses.replace(AP, atoms_per_layer=1e8, omega_tilde=opt.omega_opt)
        )
        assert abs(opt.S_min - rep.S) < 1e-6 * rep.S

    def test_bandwidth_matches_lobe_estimate(self):
        opt = optimize_trap(RB87, with_atoms(1e8), (W_LARGE_N / 30, W_LARGE_N * 30))
        estimate = (1.0 / 8.0) * (2.0 * math.pi / (math.pi / opt.omega_opt))
        assert 0.5 < opt.bandwidth / estimate < 2.0

    def test_small_atom_limit_is_boundary(self):
        # shot noise keeps falling with stiffer traps when collisions never bite
        opt = optimize_trap(RB87, with_atoms(10.0), (W_LARGE_N / 3, W_LARGE_N * 3))
        assert opt.boundary
        assert abs(opt.omega_opt - W_LARGE_N * 3) < 1e-9 * W_LARGE_N

    def test_require_interior_raises_on_monotone(self):
        with pytest.raises(BracketingError, match="decreasing"):
            optimize_trap(RB87, with_atoms(10.0), (W_LARGE_N / 3, W_LARGE_N * 3), require_interior=True)

    def test_optimum_below_range_is_lower_edge(self):
        # collisions bite at 1e8 atoms: the optimum sits near W_LARGE_N, below this range
        lo, hi = 3 * W_LARGE_N, 30 * W_LARGE_N
        opt = optimize_trap(RB87, with_atoms(1e8), (lo, hi))
        assert opt.boundary and opt.omega_opt == lo
        with pytest.raises(BracketingError, match="increasing"):
            optimize_trap(RB87, with_atoms(1e8), (lo, hi), require_interior=True)

    def test_optimum_is_stationary_over_atom_numbers(self):
        lo, hi = W_LARGE_N / 30, W_LARGE_N * 30
        for n_a in np.geomspace(1e3, 1e9, 43):
            ap = with_atoms(n_a)
            opt = optimize_trap(RB87, ap, (lo, hi))
            assert not opt.boundary, n_a
            for w in (opt.omega_opt * (1 - 1e-6), opt.omega_opt * (1 + 1e-6)):
                assert _s_of_omega(RB87, ap, w) >= opt.S_min, (n_a, w)

    def test_range_straddling_the_fit_threshold(self):
        # the cloud fits only above v / r_l = W_LARGE_N / 2, inside this range
        opt = optimize_trap(RB87, AP, (W_LARGE_N / 3, W_LARGE_N * 30))
        assert not opt.boundary
        assert abs(opt.omega_opt - 1358.46) < 1e-5 * 1358.46

    @pytest.mark.parametrize(
        "change, top, cause",
        [
            ({"atoms_per_layer": 0.0}, 30, "no atoms or no layers"),
            ({"homogeneity_radius": 0.5e-6}, 30, "no atoms or no layers"),
            ({"temperature": 0.0}, 30, "zero lifetime"),
            ({}, 1 / 3, "the cloud never fits"),  # the whole range lies below v / r_l
        ],
    )
    def test_infinite_s_everywhere_names_its_cause(self, change, top, cause):
        ap = dataclasses.replace(AP, **change)
        with pytest.raises(InfeasibleGeometryError, match=cause):
            optimize_trap(RB87, ap, (W_LARGE_N / 30, W_LARGE_N * top))

    def test_range_validation(self):
        with pytest.raises(ParameterError):
            optimize_trap(RB87, AP, (0.0, 100.0))
        with pytest.raises(ParameterError):
            optimize_trap(RB87, AP, (100.0, 100.0))

    def test_no_feasible_frequency(self):
        hot = dataclasses.replace(AP, temperature=1e-3)
        with pytest.raises(InfeasibleGeometryError):
            optimize_trap(RB87, hot, (1.0, 10.0))


def test_cp_fwhm_grid_brackets_the_main_lobe(monkeypatch):
    """The fixed 1,024-point grid of _cp_fwhm holds the main lobe over omega_tilde 1e2-1e5, epsilon 1-1e3."""
    curves = []
    fwhm = sensitivity_module.main_lobe_fwhm
    monkeypatch.setattr(sensitivity_module, "main_lobe_fwhm", lambda curve: curves.append(curve) or fwhm(curve))
    rng = np.random.default_rng(2024)
    for _ in range(200):
        wt, eps = 10.0 ** rng.uniform(2.0, 5.0), 10.0 ** rng.uniform(0.0, 3.0)
        modes = derive_modes(TrapConfig.from_modes(RB87.mass, wt, eps))
        t = 10.0 ** rng.uniform(-2.0, 0.0) * math.pi / wt
        sensitivity_module._cp_fwhm(modes, modes.l_osc, t)
        m2 = np.abs(curves[-1].values) ** 2
        peak = int(np.argmax(m2))
        below = np.flatnonzero(m2 <= m2[peak] / 2.0)
        assert 0 < peak < m2.size - 1, (wt, eps, t)
        assert below.min() < peak < below.max(), (wt, eps, t)  # both crossings inside the grid
        lobe = below[below > peak].min() - below[below < peak].max() - 1
        assert lobe >= 30, (wt, eps, t, lobe)


def _drawn_curves(count, seed):
    """(modes, r_0, t) of bandwidth curves drawn as above: omega_tilde 1e2-1e5, epsilon 1-1e3,
    t in [0.01, 1] pi / omega_tilde."""
    rng = np.random.default_rng(seed)
    curves = []
    for _ in range(count):
        wt, eps = 10.0 ** rng.uniform(2.0, 5.0), 10.0 ** rng.uniform(0.0, 3.0)
        modes = derive_modes(TrapConfig.from_modes(RB87.mass, wt, eps))
        curves.append((modes, modes.l_osc, 10.0 ** rng.uniform(-2.0, 0.0) * math.pi / wt))
    return curves


def _capability_curves(apparatuses=(), traps=40):
    """(modes, r_0, t) of each distinct bandwidth curve of the README sweep, of ``apparatuses``,
    and of sensitivity and optimize_trap on ``traps`` traps drawn as the response_probe benchmark
    draws them."""
    seen = []
    cp_fwhm = sensitivity_module._cp_fwhm
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sensitivity_module, "_cp_fwhm", lambda *key: seen.append(key) or cp_fwhm(*key))
        _sensitivity_reports(RB87, [AP, *(with_atoms(n) for n in np.geomspace(100.0, 1e6, 25))])
        for ap in apparatuses:
            with pytest.raises(ParameterError):
                sensitivity(RB87, ap)
        rng = np.random.default_rng(32)
        for _ in range(traps):
            temperature, radius = rng.uniform(0.5e-6, 2e-6), rng.uniform(15e-6, 40e-6)
            ap = ApparatusParams(
                temperature=temperature, layer_spacing=1e-6, homogeneity_radius=radius,
                omega_tilde=2.0 * math.pi * rng.uniform(500.0, 2000.0), epsilon=rng.uniform(1.5, 5.0),
                atoms_per_layer=10.0 ** rng.uniform(5.0, 7.0),
            )
            w_opt = 2.0 * math.sqrt(3.0 * K_B * temperature / RB87.mass) / radius
            sensitivity(RB87, ap)
            optimize_trap(RB87, ap, (0.6 * w_opt, 20.0 * w_opt))
    return list(dict.fromkeys(seen))


def _whole_grid_fwhm(modes, r_0, t):
    """_cp_fwhm as it reads off every point of its grid: the value, or the error it raises."""
    grid = np.linspace(0.0, 16.0 * math.pi / t, 1024)
    try:
        return main_lobe_fwhm(response_cp(modes, r_0, t, grid=grid))
    except ParameterError as exc:
        return f"ParameterError: bandwidth curve at r_0 = {r_0:.3e} m, segment t = {t:.3e} s: {exc}"
    except (ResolutionError, RuntimeWarning) as exc:
        return f"{type(exc).__name__}: {exc}"


def _cp_fwhm_or_error(modes, r_0, t):
    try:
        return sensitivity_module._cp_fwhm(modes, r_0, t)
    except (ParameterError, ResolutionError, RuntimeWarning) as exc:
        return f"{type(exc).__name__}: {exc}"


def _head_lengths(monkeypatch):
    """The grid length of each response_cp call that _cp_fwhm makes from now on."""
    lengths = []
    response = sensitivity_module.response_cp
    monkeypatch.setattr(
        sensitivity_module, "response_cp", lambda *a, grid: lengths.append(grid.size) or response(*a, grid=grid)
    )
    return lengths


class TestBandwidthHead:
    """_cp_fwhm evaluates 160 of its 1,024 points when _cp_tail_bound rules out the rest."""

    DRAWN = _drawn_curves(2000, 32)

    def test_tail_bound_holds_at_every_grid_point(self):
        worst = 0.0
        for modes, r_0, t in self.DRAWN + _capability_curves():
            grid = np.linspace(0.0, 16.0 * math.pi / t, 1024)[1:]
            values = np.abs(response_cp(modes, r_0, t, grid=grid).values)
            worst = max(worst, float(np.max(values / sensitivity_module._cp_tail_bound(modes, r_0, t, grid))))
        assert worst <= 1.0, worst  # 0.59 when this test was written

    def test_drawn_and_capability_curves_take_the_head(self, monkeypatch):
        curves = self.DRAWN + _capability_curves()
        lengths = _head_lengths(monkeypatch)
        for key in curves:
            sensitivity_module._cp_fwhm(*key)
        assert len(curves) >= len(self.DRAWN) + 14  # the README sweep has 14 distinct curves
        assert lengths == [160] * len(curves)  # no fallback

    def _cases(self):
        """The drawn and capability curves, the two degenerate CLI curves, and curves the head
        cannot settle: long windows, a splitting at the edge of rounding, a window so short its
        values are rounding noise, and |F|^2 beyond the float range."""
        degenerate = [dataclasses.replace(AP, homogeneity_radius=1e290), dataclasses.replace(AP, temperature=1e-300)]
        wt = AP.omega_tilde
        modes = derive_modes(TrapConfig.from_modes(RB87.mass, wt, 22.0))
        near = derive_modes(TrapConfig.from_modes(RB87.mass, wt, 1.0 + 1e-9))
        return self.DRAWN[:500] + _capability_curves(degenerate, traps=10) + [
            *((modes, modes.l_osc, k * math.pi / wt) for k in (1.5, 2.0, 3.0, 5.0, 8.0)),
            (near, near.l_osc, math.pi / wt),
            (modes, modes.l_osc, 1e-7 / wt),
            (modes, 1e160 * modes.l_osc, math.pi / wt),
        ]

    def test_head_gives_the_whole_grid_value_or_error(self, monkeypatch):
        cases = self._cases()
        lengths = _head_lengths(monkeypatch)
        results = [_cp_fwhm_or_error(*key) for key in cases]
        assert results == [_whole_grid_fwhm(*key) for key in cases]
        assert 0 < lengths.count(1024) < 20  # both paths ran
        assert sum(isinstance(r, str) for r in results) == 3  # two degenerate curves, one overflow

    def test_forced_fallback_gives_the_same_results(self, monkeypatch):
        cases = self._cases()
        expected = [_cp_fwhm_or_error(*key) for key in cases]
        monkeypatch.setattr(sensitivity_module, "_cp_tail_bound", lambda *args: math.inf)
        lengths = _head_lengths(monkeypatch)
        assert [_cp_fwhm_or_error(*key) for key in cases] == expected
        assert lengths.count(1024) == len(cases)
