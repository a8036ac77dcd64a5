"""Trap parameters, normal modes, closed-form trajectories, and the RK4 oracle."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import integrate_eom_numeric
from socaccel import (
    DivergenceError,
    ParameterError,
    PhaseSpacePoint,
    Sinusoid,
    TrapConfig,
    Zero,
    classical_trajectory,
    derive_modes,
    h_perp,
    mode_decompose,
)

MASS = 1.44316e-25  # Rb-87, kg
HBAR = 1.054571817e-34


def energy_of(config: TrapConfig, p: PhaseSpacePoint) -> float:
    """Conserved classical energy 0.5 m (|v|^2 + omega0^2 |r|^2)."""
    v2 = (p.px**2 + p.py**2) / config.mass**2
    return 0.5 * config.mass * (v2 + config.omega0**2 * (p.x**2 + p.y**2))


class TestDeriveModes:
    def test_no_coupling_collapses_modes(self):
        modes = derive_modes(TrapConfig(MASS, 2 * math.pi * 500.0, 0.0))
        assert modes.omega_plus == modes.omega_minus == modes.omega_tilde
        assert modes.omega_tilde == pytest.approx(2 * math.pi * 500.0, rel=1e-15)

    def test_pure_cyclotron_limit(self):
        wc = 2 * math.pi * 800.0
        modes = derive_modes(TrapConfig(MASS, 1e-8 * wc, wc))
        assert modes.omega_tilde == pytest.approx(wc / 2, rel=1e-12)
        assert modes.omega_plus == pytest.approx(wc, rel=1e-12)
        assert modes.omega_minus == pytest.approx(0.0, abs=1e-15 * wc)

    def test_oscillator_length(self):
        modes = derive_modes(TrapConfig.from_modes(MASS, 2 * math.pi * 1000.0, 22.0))
        expect = math.sqrt(HBAR / (MASS * modes.omega_tilde))
        assert modes.l_osc == pytest.approx(expect, rel=1e-14)

    def test_epsilon_and_omega_c_accessors(self):
        modes = derive_modes(TrapConfig.from_modes(MASS, 2 * math.pi * 1000.0, 22.0))
        assert modes.epsilon == pytest.approx(22.0, rel=1e-12)
        assert modes.omega_c == pytest.approx(modes.omega_plus - modes.omega_minus, rel=1e-12)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(mass=-1.0, omega0=1.0, omega_c=0.0),
            dict(mass=0.0, omega0=1.0, omega_c=0.0),
            dict(mass=MASS, omega0=0.0, omega_c=1.0),
            dict(mass=MASS, omega0=1.0, omega_c=-0.5),
            dict(mass=MASS, omega0=math.nan, omega_c=0.0),
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ParameterError):
            TrapConfig(**kwargs)

    @given(
        w0=st.floats(1.0, 1e6, allow_nan=False, allow_infinity=False),
        wc=st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_mode_identities(self, w0, wc):
        modes = derive_modes(TrapConfig(MASS, w0, wc))
        assert modes.omega_plus * modes.omega_minus == pytest.approx(w0 * w0, rel=1e-12)
        assert modes.omega_plus + modes.omega_minus == pytest.approx(2 * modes.omega_tilde, rel=1e-12)
        assert abs(modes.omega_plus - modes.omega_minus - wc) <= 1e-12 * modes.omega_plus

    @given(
        wt=st.floats(1.0, 1e6, allow_nan=False, allow_infinity=False),
        eps=st.floats(1.0, 1e6, allow_nan=False, allow_infinity=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_from_modes_round_trips(self, wt, eps):
        modes = derive_modes(TrapConfig.from_modes(MASS, wt, eps))
        assert modes.omega_tilde == pytest.approx(wt, rel=1e-12)
        assert modes.epsilon == pytest.approx(eps, rel=1e-12)

    @pytest.mark.parametrize("eps", [0.5, 1.0 - 1e-12, -3.0, math.nan, math.inf])
    def test_from_modes_rejects_bad_epsilon(self, eps):
        with pytest.raises(ParameterError):
            TrapConfig.from_modes(MASS, 2 * math.pi * 1000.0, eps)


class TestClassicalTrajectory:
    CFG = TrapConfig.from_modes(MASS, 2 * math.pi * 1000.0, 3.0)
    MODES = derive_modes(CFG)
    R0 = (1.7e-6, -0.4e-6)

    def test_initial_condition(self):
        p = classical_trajectory(self.MODES, +1, self.R0, 0.0)
        assert (p.x, p.y) == pytest.approx(self.R0, rel=1e-15)
        p_scale = MASS * self.MODES.omega_tilde * math.hypot(*self.R0)
        assert math.hypot(p.px, p.py) < 1e-14 * p_scale

    @pytest.mark.parametrize("n", [1, 2, 3, 7])
    def test_velocity_vanishes_at_half_revivals(self, n):
        t = math.pi * n / self.MODES.omega_tilde
        p = classical_trajectory(self.MODES, +1, self.R0, t)
        p_scale = MASS * self.MODES.omega_tilde * math.hypot(*self.R0)
        assert math.hypot(p.px, p.py) < 1e-9 * p_scale, (
            f"momentum {math.hypot(p.px, p.py):.3e} not ~0 at t = {n} pi/omega_tilde"
        )

    def test_mirror_symmetry_across_r0_axis(self):
        """The sigma = -1 path is the sigma = +1 path reflected across the r0 line."""
        theta = math.atan2(self.R0[1], self.R0[0])
        refl = np.exp(2j * theta)
        r0_mag = math.hypot(*self.R0)
        for t in np.linspace(0.0, 3.0 * math.pi / self.MODES.omega_tilde, 37):
            pu = classical_trajectory(self.MODES, +1, self.R0, float(t))
            pd = classical_trajectory(self.MODES, -1, self.R0, float(t))
            mirrored = refl * complex(pu.x, pu.y).conjugate()
            assert abs(mirrored.real - pd.x) < 1e-10 * r0_mag
            assert abs(mirrored.imag - pd.y) < 1e-10 * r0_mag

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_revival_paths_coincide(self, n):
        # both spins sit at (-1)^n e^{-i omega_c t/2} r0 at t = pi n/omega_tilde,
        # so they coincide when the beat phase closes; at epsilon = 3 (omega_c =
        # omega_tilde) that is every even n
        t = math.pi * n / self.MODES.omega_tilde
        pu = classical_trajectory(self.MODES, +1, self.R0, t)
        pd = classical_trajectory(self.MODES, -1, self.R0, t)
        gap = math.hypot(pu.x - pd.x, pu.y - pd.y)
        assert gap < 1e-9 * math.hypot(*self.R0), f"spin paths {gap:.3e} m apart at revival {n}"

    def test_matches_rk4_oracle_over_ten_periods(self):
        t_final = 10 * 2 * math.pi / self.MODES.omega_tilde
        start = PhaseSpacePoint(self.R0[0], self.R0[1], 0.0, 0.0)
        path = integrate_eom_numeric(self.CFG, +1, start, Zero(), t_final / 40000, t_final)
        exact = classical_trajectory(self.MODES, +1, self.R0, t_final)
        scale = math.hypot(*self.R0) + self.MODES.l_osc
        err = math.hypot(exact.x - path[-1].x, exact.y - path[-1].y) / scale
        assert err < 1e-8, f"closed form vs RK4 relative error {err:.3e}"

    def test_sigma_validated(self):
        with pytest.raises(ParameterError):
            classical_trajectory(self.MODES, 2, self.R0, 0.0)
        with pytest.raises(ParameterError):
            classical_trajectory(self.MODES, +1, self.R0, -1.0)


class TestIntegrateEomNumeric:
    CFG = TrapConfig.from_modes(MASS, 2 * math.pi * 1000.0, 3.0)
    MODES = derive_modes(CFG)

    def test_equilibrium_stays_put(self):
        t = 2 * math.pi / self.MODES.omega_tilde
        path = integrate_eom_numeric(
            self.CFG, +1, PhaseSpacePoint(0, 0, 0, 0), Zero(), t / 500, t
        )
        worst = max(max(abs(p.x), abs(p.y), abs(p.px), abs(p.py)) for p in path)
        assert worst == 0.0

    def test_no_coupling_gives_decoupled_shm(self):
        cfg = TrapConfig(MASS, 2 * math.pi * 700.0, 0.0)
        x0 = 2.3e-6
        T = 2 * math.pi / cfg.omega0
        path = integrate_eom_numeric(
            cfg, +1, PhaseSpacePoint(x0, 0.0, 0.0, 0.0), Zero(), T / 2000, 1.25 * T
        )
        for k, p in enumerate(path):
            t = k * (T / 2000)
            assert abs(p.x - x0 * math.cos(cfg.omega0 * t)) < 1e-7 * x0
            assert abs(p.y) < 1e-9 * x0, "y must stay zero without spin-orbit coupling"

    def test_energy_conserved_over_ten_periods(self):
        T = 2 * math.pi / self.MODES.omega_tilde
        start = PhaseSpacePoint(1.1e-6, 0.6e-6, 0.0, MASS * 2.0e-3)
        path = integrate_eom_numeric(self.CFG, -1, start, Zero(), T / 1000, 10 * T)
        e0 = energy_of(self.CFG, path[0])
        drift = max(abs(energy_of(self.CFG, p) - e0) for p in path) / e0
        assert drift < 1e-9, f"energy drift {drift:.3e} over 10 periods"

    def test_final_partial_step_lands_on_t_final(self):
        # dt chosen to not divide t_final evenly
        t_final = 3.1e-3
        dt = 2.0e-6
        path = integrate_eom_numeric(
            self.CFG, +1, PhaseSpacePoint(1e-6, 0, 0, 0), Zero(), dt, t_final
        )
        exact = classical_trajectory(self.MODES, +1, (1e-6, 0.0), t_final)
        assert abs(path[-1].x - exact.x) < 1e-8 * 1e-6

    def test_unstable_step_raises_divergence(self):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError):
                integrate_eom_numeric(
                    self.CFG, +1, PhaseSpacePoint(1e-6, 0, 0, 0), Zero(), 1.0, 600.0
                )

    def test_drive_evaluated_once_per_distinct_time(self):
        """k2/k3 share the midpoint and k4 is the next step's k1: 2 n + 1 drive calls."""

        class Counting(Sinusoid):
            calls = 0

            def evaluate(self, t):
                Counting.calls += 1
                return super().evaluate(t)

        drive = Counting((0.3, -0.2), 1.3 * self.MODES.omega_tilde, 0.4)
        n = 250
        path = integrate_eom_numeric(
            self.CFG, +1, PhaseSpacePoint(1e-6, 0, 0, 0), drive, 1e-5, n * 1e-5
        )
        assert len(path) == n + 1
        assert 0 < Counting.calls <= 2 * n + 1

    def test_bad_steps_rejected(self):
        p0 = PhaseSpacePoint(0, 0, 0, 0)
        with pytest.raises(ParameterError):
            integrate_eom_numeric(self.CFG, +1, p0, Zero(), 0.0, 1.0)
        with pytest.raises(ParameterError):
            integrate_eom_numeric(self.CFG, +1, p0, Zero(), 1e-6, -1.0)


class TestHPerp:
    MODES = derive_modes(TrapConfig.from_modes(MASS, 2 * math.pi * 1000.0, 22.0))

    def test_zero_at_origin_of_time(self):
        assert h_perp(self.MODES, 0.0) == 0.0

    def test_identically_zero_without_coupling(self):
        modes = derive_modes(TrapConfig(MASS, 2 * math.pi * 300.0, 0.0))
        ts = np.linspace(0.0, 5.0 / 300.0, 101)
        assert np.all(h_perp(modes, ts) == 0.0)

    def test_equals_half_perpendicular_path_splitting(self):
        """2 r0 h_perp(t) is the perpendicular gap between the two spin paths."""
        r0 = 2.5e-6
        for t in np.linspace(0.1, 2.9, 23) * math.pi / self.MODES.omega_tilde:
            pu = classical_trajectory(self.MODES, +1, (r0, 0.0), float(t))
            pd = classical_trajectory(self.MODES, -1, (r0, 0.0), float(t))
            h = h_perp(self.MODES, float(t))
            assert pu.y - pd.y == pytest.approx(-2.0 * r0 * h, rel=1e-10, abs=1e-22), (
                f"splitting mismatch at t*omega_tilde = {t * self.MODES.omega_tilde:.3f}"
            )
            # parallel components agree by mirror symmetry
            assert pu.x == pytest.approx(pd.x, rel=1e-12, abs=1e-18)

    def test_vectorized_evaluation(self):
        ts = np.linspace(0.0, 1e-3, 64)
        vals = h_perp(self.MODES, ts)
        assert vals.shape == ts.shape
        assert np.isfinite(vals).all()


class TestModeEnergy:
    """mode_decompose certification: rotation sense and energy reconstruction."""

    CFG = TrapConfig.from_modes(MASS, 2 * math.pi * 1000.0, 4.0)
    MODES = derive_modes(CFG)

    def test_origin_maps_to_vacuum(self):
        ap, am = mode_decompose(self.CFG, +1, PhaseSpacePoint(0, 0, 0, 0))
        assert ap == 0 and am == 0

    @pytest.mark.parametrize("sigma", [+1, -1])
    def test_free_evolution_is_pure_mode_rotation(self, sigma):
        start = PhaseSpacePoint(1.4e-6, -0.3e-6, MASS * 1e-3, MASS * 2e-3)
        a0p, a0m = mode_decompose(self.CFG, sigma, start)
        t = 0.37e-3
        T = 10 * 2 * math.pi / self.MODES.omega_tilde
        path = integrate_eom_numeric(self.CFG, sigma, start, Zero(), T / 400000, t)
        atp, atm = mode_decompose(self.CFG, sigma, path[-1])
        assert atp == pytest.approx(
            a0p * np.exp(-1j * sigma * self.MODES.omega_plus * t), rel=1e-7
        )
        assert atm == pytest.approx(
            a0m * np.exp(-1j * sigma * self.MODES.omega_minus * t), rel=1e-7
        )

    @pytest.mark.parametrize("sigma", [+1, -1])
    def test_energy_reconstruction(self, sigma):
        p = PhaseSpacePoint(0.9e-6, 1.1e-6, MASS * (-2.2e-3), MASS * 0.7e-3)
        ap, am = mode_decompose(self.CFG, sigma, p)
        e_modes = HBAR * (
            self.MODES.omega_plus * abs(ap) ** 2 + self.MODES.omega_minus * abs(am) ** 2
        )
        assert e_modes == pytest.approx(energy_of(self.CFG, p), rel=1e-10)
