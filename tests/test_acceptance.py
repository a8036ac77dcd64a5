"""Acceptance battery: one numbered test per headline capability.

Each test is self-contained, pins its tolerance explicitly, and prints as a
single pass/fail line under ``pytest -v``.  Item 8 is split into its four
separately checkable clauses; the two known-unreachable headline values are
strict xfails with the measured numbers in the reason.
"""
import dataclasses
import filecmp
import json
import math

import numpy as np
import pytest

from oracles import _rk4_batch
from socaccel import (
    RB87,
    ApparatusParams,
    Branch,
    Constant,
    PhaseSpacePoint,
    Sinusoid,
    SpinorCoherentState,
    SumSignal,
    ThermalParams,
    TrapConfig,
    apply_evolution,
    derive_modes,
    find_peaks,
    find_zeros,
    h_perp,
    mode_decompose,
    numeric_response_curve,
    optimize_trap,
    preset_cp,
    preset_up,
    response_cp,
    response_up,
    run_sequence,
    sensitivity,
    signal_ceiling,
    thermal_geometry,
    thermal_signal,
)
from socaccel.cli import main as cli_main
from socaccel.pulses import _center_from_amplitudes

MASS = 1.44316e-25  # Rb-87, kg
WT = 2 * math.pi * 1000.0


def test_criterion_01_mode_identities():
    # 1000 random traps: omega+ * omega- = omega0^2 and omega+ + omega- = 2 omega~
    rng = np.random.default_rng(101)
    w0 = 2 * math.pi * 10.0 ** rng.uniform(1.0, 5.0, 1000)
    wc = w0 * 10.0 ** rng.uniform(-3.0, 3.0, 1000)
    for j in range(1000):
        modes = derive_modes(TrapConfig(MASS, w0[j], wc[j]))
        prod = modes.omega_plus * modes.omega_minus
        total = modes.omega_plus + modes.omega_minus
        assert abs(prod - w0[j] ** 2) < 1e-12 * w0[j] ** 2, f"config {j}: product identity"
        assert abs(total - 2.0 * modes.omega_tilde) < 1e-12 * total, f"config {j}: sum identity"


def test_criterion_02_oracle_equivalence_dynamics():
    # closed-form (modal) trajectories vs batched RK4 at a converged step,
    # 100 random driven configs, 10 trap periods, 11 checkpoints each
    rng = np.random.default_rng(20260815)
    n = 100
    w_tilde = 2 * math.pi * np.exp(rng.uniform(np.log(200.0), np.log(5000.0), n))
    eps = rng.uniform(1.0, 30.0, n)
    w0 = 2.0 * w_tilde * np.sqrt(eps) / (1.0 + eps)
    wc = 2.0 * w_tilde * (eps - 1.0) / (1.0 + eps)
    sig = rng.choice([-1, 1], n)
    l_osc = np.sqrt(1.054571817e-34 / (MASS * w_tilde))
    z0 = (rng.normal(size=n) + 1j * rng.normal(size=n)) * l_osc
    v0 = (rng.normal(size=n) + 1j * rng.normal(size=n)) * l_osc * w_tilde
    gc = (rng.normal(size=n) + 1j * rng.normal(size=n)) * 0.2 * l_osc * w_tilde**2
    ga = (rng.normal(size=n) + 1j * rng.normal(size=n)) * 0.3 * l_osc * w_tilde**2
    gf = rng.uniform(0.0, 2.5, n) * w_tilde
    gp = rng.uniform(0.0, 2 * math.pi, n)
    t_final = 10.0 * 2.0 * math.pi / w_tilde

    times, zs, vs = _rk4_batch(w0, wc, sig, z0, v0, gc, ga, gf, gp, t_final, n_steps=50_000)

    for j in range(n):
        cfg = TrapConfig(MASS, w0[j], wc[j])
        modes = derive_modes(cfg)
        drive = SumSignal([
            Constant(gc[j].real, gc[j].imag),
            Sinusoid((ga[j].real, ga[j].imag), gf[j], gp[j]),
        ])
        point = PhaseSpacePoint(z0[j].real, z0[j].imag, MASS * v0[j].real, MASS * v0[j].imag)
        ap, am = mode_decompose(cfg, int(sig[j]), point)
        state = SpinorCoherentState(
            config=cfg,
            branches=(Branch(spin=int(sig[j]), weight=1.0 + 0.0j,
                             alpha_plus=ap, alpha_minus=am),),
        )
        z_exact, v_exact = [z0[j]], [v0[j]]
        for k in range(1, times.shape[0]):
            state = apply_evolution(state, times[k, j] - times[k - 1, j], drive)
            b = state.branches[0]
            zc, vc = _center_from_amplitudes(modes, b.spin, b.alpha_plus, b.alpha_minus)
            z_exact.append(zc)
            v_exact.append(vc)
        z_exact, v_exact = np.array(z_exact), np.array(v_exact)
        err = max(
            float(np.abs(zs[:, j] - z_exact).max() / np.abs(z_exact).max()),
            float(np.abs(vs[:, j] - v_exact).max() / np.abs(v_exact).max()),
        )
        assert err < 1e-8, f"config {j} (eps {eps[j]:.2f}): rel err {err:.3e}"


def test_criterion_03_revival_and_suppression():
    cfg = TrapConfig.from_modes(MASS, WT, 3.0)
    modes = derive_modes(cfg)
    r0 = (2.0 * modes.l_osc, 0.0)
    # beat closure: position revivals of both spin paths at even multiples here
    for n in (2, 4, 6, 8):
        rec = run_sequence(cfg, None, preset_up(r0, math.pi * n / WT), None)
        assert abs(rec.coherence - 1.0) < 1e-9, f"revival n = {n}: {rec.coherence}"
    for t in np.linspace(0.02 * math.pi / WT, 4 * math.pi / WT, 50):
        rec = run_sequence(cfg, None, preset_up(r0, float(t)), None)
        split = 2.0 * (r0[0] / modes.l_osc) * h_perp(modes, float(t))
        pred = math.exp(-split * split)
        assert abs(rec.coherence - pred) < 1e-6 * pred, f"t wt/pi = {t * WT / math.pi:.3f}"


def test_criterion_04_weak_drive_quadrature():
    cfg = TrapConfig.from_modes(MASS, WT, 3.0)
    modes = derive_modes(cfg)
    l_osc = modes.l_osc
    r0 = (2.0 * l_osc, 0.0)
    t = 4 * math.pi / WT
    tt = np.linspace(0.0, t, 2_000_001)
    hp = h_perp(modes, tt)
    m_over_h = 1.0 / (WT * l_osc**2)
    seq = preset_up(r0, t)

    for om in np.geomspace(0.1 * modes.omega_minus, 1.5 * modes.omega_plus, 5):
        # oracle phase per unit amplitude (the quadrature is linear in it)
        per_amp = 2.0 * m_over_h * r0[0] * np.trapezoid(np.cos(om * tt + 0.7) * hp, tt)
        amp = 1e-3 / abs(per_amp)
        residual = []
        for scale in (1.0, 0.5, 0.25):
            rec = run_sequence(cfg, None, seq, Sinusoid((0.0, amp * scale), float(om), 0.7))
            pred = math.sin(per_amp * amp * scale)
            rel = abs(rec.signal - pred) / abs(pred)
            residual.append(rel)
        assert residual[0] < 1e-4, f"om/wt = {om / WT:.3f}: rel {residual[0]:.2e}"
        for r_big, r_small in zip(residual, residual[1:]):
            ratio = r_big / r_small
            assert 3.9 < ratio < 4.1, f"om/wt = {om / WT:.3f}: halving ratio {ratio:.3f}"


def test_criterion_05_response_curves():
    cfg = TrapConfig.from_modes(MASS, WT, 4.0)
    modes = derive_modes(cfg)
    r0 = 2.0 * modes.l_osc
    t = 5 * math.pi / WT
    grid = np.linspace(0.0, 2.0 * modes.omega_plus, 200)

    up = response_up(modes, r0, t, grid=grid)
    cp = response_cp(modes, r0, t, grid=grid)
    peak_up = float(np.abs(up.values).max())
    peak_cp = float(np.abs(cp.values).max())

    num_up = numeric_response_curve(cfg, preset_up((r0, 0.0), t), grid, amplitude=0.02 / peak_up)
    num_cp = numeric_response_curve(cfg, preset_cp((r0, 0.0), t), grid, amplitude=0.02 / peak_cp)
    assert float(np.abs(num_up.values - up.values).max()) < 1e-3 * peak_up
    assert float(np.abs(num_cp.values - cp.values).max()) < 1e-3 * peak_cp

    half = (grid[1] - grid[0]) / 2.0
    zeros = find_zeros(cp)
    for target in (0.0, modes.omega_minus, modes.omega_plus):
        off = min(abs(z - target) for z in zeros)
        assert off <= half, f"echo zero near {target:.1f} off by {off:.2f} rad/s"

    peaks = find_peaks(up)
    lobe_m = max(h for w, h in peaks if abs(w - modes.omega_minus) < 0.5 * modes.omega_minus)
    lobe_p = max(h for w, h in peaks if abs(w - modes.omega_plus) < 0.5 * modes.omega_minus)
    ratio = lobe_m / lobe_p
    assert abs(ratio - 4.0) < 0.05 * 4.0, f"lobe ratio {ratio:.4f} vs eps = 4"


def test_criterion_06_dc_rejection():
    cfg = TrapConfig.from_modes(MASS, WT, 3.0)
    modes = derive_modes(cfg)
    l_osc = modes.l_osc
    r0 = (2.0 * l_osc, 0.0)
    g0 = 0.04 * l_osc * WT**2
    # echo sequence: leak is zero to machine precision at every amplitude, so
    # the quadratic leak coefficient is bounded by atol/g0^2 (here ~ 1e-10 s^4/m^2)
    for scale in (1.0, 0.5, 0.25):
        rec = run_sequence(cfg, None, preset_cp(r0, math.pi / WT), Constant(0.0, g0 * scale))
        assert abs(rec.signal) < 1e-12, f"{scale} g0: leaked {rec.signal:.3e}"
    # positive control: the non-echoed sequence sees the same static force
    t_up = 2 * math.pi / WT
    tt = np.linspace(0.0, t_up, 2_000_001)
    phi = 2.0 / (WT * l_osc**2) * r0[0] * g0 * np.trapezoid(h_perp(modes, tt), tt)
    rec = run_sequence(cfg, None, preset_up(r0, t_up), Constant(0.0, g0))
    assert abs(rec.signal - math.sin(phi)) < 1e-6 * abs(math.sin(phi))
    assert abs(rec.signal) > 0.1, "control signal should be far above the echo leak"


def test_criterion_07_thermal_monte_carlo():
    cfg = TrapConfig.from_modes(MASS, WT, 3.0)
    l_osc = derive_modes(cfg).l_osc
    seq = preset_up((2.0 * l_osc, 0.0), 4 * math.pi / WT)
    drive = Sinusoid((0.0, 0.08 * l_osc * WT**2), 0.9 * WT, 0.4)
    for n in (0.0, 1.0, 10.0):
        rep = thermal_signal(cfg, seq, drive, ThermalParams(n, n), 10_000, seed=2026)
        if n == 0.0:
            assert rep.mc_stderr < 1e-14
            assert abs(rep.mc_mean - rep.analytic) < 1e-13
        else:
            pull = abs(rep.mc_mean - rep.analytic) / rep.mc_stderr
            assert pull < 3.0, f"n = {n}: pull {pull:.2f}"
            assert rep.suppression < 1.0


AP8 = ApparatusParams(
    temperature=1e-6,
    layer_spacing=1e-6,
    homogeneity_radius=25e-6,
    omega_tilde=WT,
    epsilon=22.0,
    atoms_per_layer=1e8,
)
W_OPT8 = 2.0 * thermal_geometry(RB87, AP8).v_mean / AP8.homogeneity_radius


@pytest.mark.xfail(
    strict=True,
    reason="the large-N sensitivity floor evaluates to 4.05e-6 (m/s^2)/sqrt(Hz) for "
    "this Rb-87 preset, a factor ~40 above the quoted 1e-7; with the "
    "collision-limited lifetime computed from the corrected rate the factor-3 "
    "window cannot be met",
)
def test_criterion_08a_sensitivity_headline_value():
    rep = sensitivity(RB87, dataclasses.replace(AP8, omega_tilde=W_OPT8))
    assert rep.S / 1e-7 < 3.0 and 1e-7 / rep.S < 3.0, f"S = {rep.S:.3e}"


@pytest.mark.xfail(
    strict=True,
    reason="the collision crossover evaluates to N_c ~ 4.7e3 atoms per layer at the "
    "optimal frequency, more than two orders below the quoted 1e6; the printed "
    "crossover formula is dimensionally inconsistent and was corrected, which "
    "moves the absolute scale",
)
def test_criterion_08b_collision_crossover_scale():
    rep = sensitivity(RB87, dataclasses.replace(AP8, omega_tilde=W_OPT8))
    assert rep.N_c / 1e6 < 10.0 and 1e6 / rep.N_c < 10.0, f"N_c = {rep.N_c:.3e}"


def test_criterion_08c_plateau_flatness():
    ap = dataclasses.replace(AP8, omega_tilde=W_OPT8)
    n_c = sensitivity(RB87, ap).N_c
    ns = np.geomspace(100 * n_c, 1e4 * n_c, 9)
    ss = np.array([sensitivity(RB87, dataclasses.replace(ap, atoms_per_layer=n)).S for n in ns])
    slopes = np.abs(np.diff(np.log(ss)) / np.diff(np.log(ns)))
    assert slopes.max() < 0.05, f"max |d ln S / d ln N| = {slopes.max():.4f}"


def test_criterion_08d_optimal_frequency():
    opt = optimize_trap(RB87, AP8, (W_OPT8 / 30.0, W_OPT8 * 30.0))
    assert not opt.boundary
    assert abs(opt.omega_opt - W_OPT8) < 1e-3 * W_OPT8, (
        f"omega_opt {opt.omega_opt:.2f} vs 2<v>/r_l {W_OPT8:.2f}"
    )


def test_criterion_09_acceleration_ceiling():
    cfg = TrapConfig.from_modes(MASS, WT, 1.5)
    modes = derive_modes(cfg)
    thermal = ThermalParams.from_temperature(modes, 1e-3)
    g_max = signal_ceiling(cfg, modes, thermal, r_0=1e-6, tau=0.035)
    assert 0.1 < 1e-2 / g_max < 10.0, f"g_max = {g_max:.3e} m/s^2"
    assert abs(g_max - 1.6254e-3) < 1e-3 * 1.6254e-3


def test_criterion_10_cli_determinism(tmp_path):
    config = {
        "schema_version": 1,
        "trap": {"mass": MASS, "omega_tilde": WT, "epsilon": 3.0},
        "species": "Rb87",
        "sequence": {"kind": "up", "r0": [6.8e-7, 0.0], "t": 4 * math.pi / WT},
        "drive": {"kind": "circular", "amplitude": 0.68, "omega": 1.5 * WT, "sense": -1},
        "thermal": {"n_plus": 1.0, "n_minus": 1.0},
        "monte_carlo": {"count": 500, "seed": 7},
        "apparatus": {
            "temperature": 1e-6,
            "layer_spacing": 1e-6,
            "homogeneity_radius": 25e-6,
            "omega_tilde": WT,
            "epsilon": 22.0,
            "atoms_per_layer": 1e6,
        },
        "trajectory": {"kind": "cp", "r0": [6.8e-7, 0.0], "t": math.pi / WT, "points": 200},
        "response": {"points": 2048, "t": 4 * math.pi / WT},
        "sweep": {"atoms_min": 100, "atoms_max": 1e6, "points": 7},
    }
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(config))
    dirs = (tmp_path / "first", tmp_path / "second")
    for d in dirs:
        for cmd in ("modes", "trajectory", "response", "thermal", "sensitivity"):
            assert cli_main([cmd, "--config", str(cfg_path), "--out", str(d)]) == 0
    names = sorted(p.name for p in dirs[0].iterdir())
    assert names == sorted(p.name for p in dirs[1].iterdir())
    assert len(names) == 9
    for name in names:
        assert filecmp.cmp(dirs[0] / name, dirs[1] / name, shallow=False), f"{name} differs"
