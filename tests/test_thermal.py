"""Occupations, suppression functionals, and the Monte-Carlo thermal average."""
import math

import numpy as np
import pytest

from socaccel import (
    Branch,
    Constant,
    Displace,
    Evolve,
    ParameterError,
    PulseSequence,
    Readout,
    RotateY,
    Sinusoid,
    SpinorCoherentState,
    SuppressionFactors,
    ThermalParams,
    TrapConfig,
    Zero,
    circular,
    derive_modes,
    gamma_factors,
    mean_occupation,
    modal_integral,
    preset_cp,
    preset_up,
    run_sequence,
    sample_initial_states,
    thermal_signal,
)
from socaccel.thermal import _phase_functionals, _states_from_raw

MASS = 1.44316e-25  # Rb-87, kg
HBAR = 1.054571817e-34
K_B = 1.380649e-23
WT = 2 * math.pi * 1000.0


CFG = TrapConfig.from_modes(MASS, WT, 3.0)
MODES = derive_modes(CFG)
L = MODES.l_osc
T4 = 4 * math.pi / WT
RESONANT = circular(0.68, MODES.omega_plus, sense=-1)  # rotates with the + mode
# the README config's drive and sequences
README_DRIVE = circular(0.68, 9424.77796, sense=-1)
README_UP = preset_up((6.8e-7, 0.0), 0.002)
README_CP = preset_cp((6.8e-7, 0.0), 0.0005)


class TestMeanOccupation:
    def test_zero_temperature(self):
        assert mean_occupation(WT, 0.0) == 0.0

    def test_unit_occupation_point(self):
        # kT = hbar omega / ln 2 makes the Bose factor exactly 1
        assert mean_occupation(WT, HBAR * WT / (K_B * math.log(2.0))) == 1.0

    def test_classical_limit(self):
        temperature = 1e-3  # hbar omega / kT ~ 5e-6
        x = HBAR * WT / (K_B * temperature)
        assert x < 0.01
        n = mean_occupation(WT, temperature)
        assert abs(n - 1.0 / x) < 0.01 / x, "classical limit kT/(hbar omega)"

    def test_deep_quantum_no_overflow(self):
        n = mean_occupation(WT, 1e-9)
        assert 0.0 < n < 1e-10

    @pytest.mark.parametrize("omega, temperature", [(3e-301, 2e-8), (1e-6, 1e308)])
    def test_underflowing_ratio_is_parameter_error(self, omega, temperature):
        # hbar omega / kT = 0 in floating point: the occupation would be 1 / 0
        with pytest.raises(ParameterError, match="^hbar omega / kT is 0.0 for omega "):
            mean_occupation(omega, temperature)

    def test_validation(self):
        with pytest.raises(ParameterError):
            mean_occupation(0.0, 1e-6)
        with pytest.raises(ParameterError):
            mean_occupation(WT, -1e-6)


class TestThermalParams:
    def test_from_temperature_consistency(self):
        params = ThermalParams.from_temperature(MODES, 2e-7)
        assert params.n_plus == mean_occupation(MODES.omega_plus, 2e-7)
        assert params.n_minus == mean_occupation(MODES.omega_minus, 2e-7)
        assert params.temperature == 2e-7
        assert params.n_minus > params.n_plus, "slower mode holds more quanta"

    def test_from_occupations(self):
        params = ThermalParams.from_occupations(3.0, 0.5)
        assert params.temperature is None

    def test_validation(self):
        with pytest.raises(ParameterError):
            ThermalParams.from_occupations(-1.0, 0.5)
        with pytest.raises(ParameterError):
            ThermalParams.from_occupations(math.nan, 0.5)
        with pytest.raises(ParameterError):
            ThermalParams(1.0, 1.0, temperature=-1e-6)


class TestSuppressionFactors:
    def test_auto_suppression(self):
        sf = SuppressionFactors(gamma_plus=0.5 + 0.0j, gamma_minus=0.0j, n_plus=2.0)
        assert abs(sf.suppression - math.exp(-2.0 * 0.25)) < 1e-15

    def test_zero_gammas_no_suppression(self):
        sf = SuppressionFactors(gamma_plus=0.0j, gamma_minus=0.0j, n_plus=50.0, n_minus=50.0)
        assert sf.suppression == 1.0

    def test_inconsistent_suppression_rejected(self):
        with pytest.raises(ParameterError):
            SuppressionFactors(
                gamma_plus=0.5 + 0.0j, gamma_minus=0.0j, n_plus=2.0, suppression=0.9
            )


class TestGammaFactors:
    def test_zero_drive(self):
        sf = gamma_factors(CFG, "up", Zero(), T4)
        assert sf.gamma_plus == 0.0 and sf.gamma_minus == 0.0
        assert sf.suppression == 1.0

    def test_constant_drive_closed_form(self):
        g = 0.37
        sf = gamma_factors(CFG, "up", Constant(g, 0.0), T4)
        wp, wm = MODES.omega_plus, MODES.omega_minus
        scale = 1.0 / (2.0 * WT * L)  # = m l / (2 hbar)
        want_plus = scale * g * (np.exp(1j * wp * T4) - 1.0) / (1j * wp)
        want_minus = scale * 1j * g * (np.exp(1j * wm * T4) - 1.0) / (1j * wm)
        assert abs(sf.gamma_plus - want_plus) < 1e-12 * abs(want_plus)
        assert abs(sf.gamma_minus - want_minus) < 1e-12 * abs(want_minus)

    def test_resonant_circular_drive(self):
        sf = gamma_factors(CFG, "up", RESONANT, T4)
        want = 0.68 * T4 / (2.0 * WT * L)
        assert abs(sf.gamma_plus - want) < 1e-12 * want
        assert abs(sf.gamma_minus) < 1e-12 * want, "counter-rotating mode stays dark"

    def test_linear_in_amplitude(self):
        for kind, t in (("up", T4), ("cp", T4 / 4)):
            one = gamma_factors(CFG, kind, RESONANT, t)
            two = gamma_factors(CFG, kind, circular(2 * 0.68, MODES.omega_plus, sense=-1), t)
            assert abs(two.gamma_plus - 2.0 * one.gamma_plus) < 1e-9 * max(abs(two.gamma_plus), 1.0)
            assert abs(two.gamma_minus - 2.0 * one.gamma_minus) < 1e-9

    def test_cp_matches_sequence_functionals(self):
        # the echo gammas are K/2 of preset_cp((0, 0), t); K+- do not depend
        # on r0, so they must match the functionals of the preset at another r0
        t = math.pi / WT
        drive = Sinusoid(amplitude=(0.15, 0.1), omega=0.7 * WT, phase=0.4)
        sf = gamma_factors(CFG, "cp", drive, t)
        k_plus, k_minus = _phase_functionals(CFG, preset_cp((2.0 * L, 0.0), t, modes=MODES), drive)
        assert abs(sf.gamma_plus - k_plus / 2.0) < 1e-9
        assert abs(sf.gamma_minus - k_minus / 2.0) < 1e-9

    def test_occupations_set_suppression(self):
        params = ThermalParams.from_occupations(1.0, 2.0)
        sf = gamma_factors(CFG, "up", RESONANT, T4, thermal=params)
        want = math.exp(-abs(sf.gamma_plus) ** 2 - 2.0 * abs(sf.gamma_minus) ** 2)
        assert abs(sf.suppression - want) < 1e-15

    def test_kind_case_insensitive(self):
        sf = gamma_factors(CFG, "UP", RESONANT, T4)
        assert sf.gamma_plus != 0.0

    def test_validation(self):
        with pytest.raises(ParameterError):
            gamma_factors(CFG, "up", RESONANT, 0.0)
        with pytest.raises(ParameterError):
            gamma_factors(CFG, "echo", RESONANT, T4)


def coherent_phase(seq, drive, a_plus: complex, a_minus: complex) -> float:
    """Engine phase of ``seq`` from one spin-up coherent state."""
    branch = Branch(spin=+1, weight=1.0 + 0.0j, alpha_plus=a_plus, alpha_minus=a_minus)
    return run_sequence(CFG, SpinorCoherentState(config=CFG, branches=(branch,)), seq, drive).phase


class TestPhaseBasisProperty:
    def test_phase_decomposes_over_mode_functionals(self):
        # the differential phase is affine in the initial amplitudes, so the
        # functionals K+- predict it at O(1) amplitudes
        rng = np.random.default_rng(0)
        seq = preset_up((2.0 * L, 0.0), T4)
        for trial in range(20):
            amp = 10.0 ** rng.uniform(-2, 0) * L * WT**2
            theta = rng.uniform(0, 2 * math.pi)
            drive = Sinusoid(
                amplitude=(amp * math.cos(theta), amp * math.sin(theta)),
                omega=rng.uniform(0.2, 2.5) * WT,
                phase=rng.uniform(0, 2 * math.pi),
            )
            k_plus, k_minus = _phase_functionals(CFG, seq, drive)
            base = coherent_phase(seq, drive, 0j, 0j)
            a_plus = complex(rng.normal(), rng.normal())
            a_minus = complex(rng.normal(), rng.normal())
            direct = coherent_phase(seq, drive, a_plus, a_minus)
            linear = (np.conj(a_plus) * k_plus + np.conj(a_minus) * k_minus).real
            assert abs(direct - (base + linear)) < 1e-8 * abs(direct), f"trial {trial}"

    @pytest.mark.parametrize("seq", [README_UP, README_CP], ids=["up", "cp"])
    def test_functionals_do_not_depend_on_the_step(self, seq):
        unit = _phase_functionals(CFG, seq, README_DRIVE)
        tenth = _phase_functionals(CFG, seq, README_DRIVE, step=0.1)
        for a, b in zip(unit, tenth):
            assert abs(a - b) < 1e-14

    def test_functionals_survive_a_base_phase_at_minus_pi(self):
        # at this r0 the zero-amplitude phase of the README `up` run is -pi, where
        # phase differences wrap; K+- and the suppression do not depend on r0
        params = ThermalParams.from_occupations(1.0, 1.0)
        wrapped = preset_up((6.792193841049813e-6, 0.0), 0.002)
        assert abs(abs(coherent_phase(wrapped, README_DRIVE, 0j, 0j)) - math.pi) < 1e-6
        got = thermal_signal(CFG, wrapped, README_DRIVE, params, count=100, seed=1).suppression
        want = thermal_signal(CFG, README_UP, README_DRIVE, params, count=100, seed=1).suppression
        assert abs(got - want) < 1e-12


class TestSampler:
    def test_zero_occupation_gives_origin(self):
        samples = sample_initial_states(ThermalParams.from_occupations(0.0, 0.0), 50, seed=3)
        assert np.array_equal(samples, np.zeros((50, 2), dtype=complex))

    def test_moments(self):
        samples = sample_initial_states(ThermalParams.from_occupations(3.0, 0.5), 100000, seed=9)
        ap, am = samples[:, 0], samples[:, 1]
        assert abs(np.mean(np.abs(ap) ** 2) - 3.0) < 0.02 * 3.0
        assert abs(np.mean(np.abs(am) ** 2) - 0.5) < 0.02 * 0.5
        # circular symmetry: first moments vanish at the sqrt(n/N) scale
        assert abs(np.mean(ap)) < 3.0 * math.sqrt(3.0 / len(ap))

    def test_deterministic_and_seed_sensitive(self):
        params = ThermalParams.from_occupations(2.0, 1.0)
        first = sample_initial_states(params, 64, seed=42)
        assert np.array_equal(first, sample_initial_states(params, 64, seed=42))
        assert not np.array_equal(first, sample_initial_states(params, 64, seed=43))

    def test_prefix_stable_under_count(self):
        # counter-based keying: the stream does not depend on the batch size
        params = ThermalParams.from_occupations(2.0, 1.0)
        assert np.array_equal(
            sample_initial_states(params, 10, seed=7), sample_initial_states(params, 2000, seed=7)[:10]
        )

    def test_slice_is_an_advanced_counter_stream(self):
        # samples [a, b) come from counter blocks a..b-1 of Philox(key=seed)
        params = ThermalParams.from_occupations(2.0, 1.0)
        seed, a, b = 7, 37, 100
        raw = np.random.Philox(key=seed).advance(a).random_raw(4 * (b - a))
        assert np.array_equal(_states_from_raw(params, raw), sample_initial_states(params, b, seed=seed)[a:])

    def test_count_validation(self):
        with pytest.raises(ParameterError):
            sample_initial_states(ThermalParams.from_occupations(1.0, 1.0), 0, seed=1)


class TestThermalSignal:
    SEQ = preset_up((2.0 * L, 0.0), T4)

    def test_zero_temperature_is_single_particle(self):
        rep = thermal_signal(CFG, self.SEQ, RESONANT, ThermalParams.from_occupations(0, 0), count=200, seed=1)
        assert rep.mc_stderr < 1e-14
        assert abs(rep.mc_mean - rep.zero_temperature_signal) < 1e-14
        assert rep.suppression == 1.0
        assert abs(rep.analytic - rep.zero_temperature_signal) < 1e-14

    @pytest.mark.parametrize("n", [1.0, 10.0])
    def test_up_mc_within_three_sigma(self, n):
        params = ThermalParams.from_occupations(n, n)
        rep = thermal_signal(CFG, self.SEQ, RESONANT, params, count=2000, seed=11)
        assert abs(rep.mc_mean - rep.analytic) < 3.0 * rep.mc_stderr
        assert rep.suppression < 1.0, "finite occupation must suppress"

    def test_cp_mc_within_three_sigma(self):
        seq = preset_cp((2.0 * L, 0.0), math.pi / WT, modes=MODES)
        drive = Sinusoid(amplitude=(0.15, 0.1), omega=0.7 * WT, phase=0.4)
        rep = thermal_signal(CFG, seq, drive, ThermalParams.from_occupations(2.0, 1.0), count=2000, seed=5)
        assert abs(rep.mc_mean - rep.analytic) < 3.0 * rep.mc_stderr

    def test_analytic_is_suppressed_zero_temperature_value(self):
        params = ThermalParams.from_occupations(1.5, 0.5)
        rep = thermal_signal(CFG, self.SEQ, RESONANT, params, count=200, seed=2)
        assert abs(rep.analytic - rep.zero_temperature_signal * rep.suppression) < 1e-15
        assert rep.count == 200 and rep.seed == 2
        assert rep.n_plus == 1.5 and rep.n_minus == 0.5

    def test_report_interfaces(self):
        rep = thermal_signal(CFG, self.SEQ, RESONANT, ThermalParams.from_occupations(1, 1), count=150, seed=4)
        assert tuple(rep) == (rep.mc_mean, rep.mc_stderr, rep.analytic)
        d = rep.as_dict()
        assert d["mc_mean"] == rep.mc_mean and d["seed"] == 4 and d["count"] == 150

    @pytest.mark.parametrize("split", [0.0, None])  # a zero-angle split, or none at all
    def test_sequence_that_never_splits_has_zero_signal(self, split):
        steps = [Displace((2.0 * L, 0.0)), Evolve(T4), RotateY(-math.pi / 2), Readout("z")]
        seq = PulseSequence(steps=([] if split is None else [RotateY(split)]) + steps)
        assert _phase_functionals(CFG, seq, RESONANT) == (0j, 0j)
        params = ThermalParams.from_occupations(1, 1)
        rep = thermal_signal(CFG, seq, RESONANT, params, count=100, seed=3)
        assert rep.analytic == rep.mc_mean == rep.zero_temperature_signal == 0.0
        assert rep.suppression == 1.0 and rep.mc_stderr == 0.0

    def test_count_validation(self):
        with pytest.raises(ParameterError):
            thermal_signal(CFG, self.SEQ, RESONANT, ThermalParams.from_occupations(1, 1), count=99, seed=1)

    def test_suppression_monotone_in_temperature(self):
        temps = (2e-8, 5e-8, 2e-7, 1e-6)
        values = []
        for temperature in temps:
            params = ThermalParams.from_temperature(MODES, temperature)
            sf = gamma_factors(CFG, "up", RESONANT, T4, thermal=params)
            values.append(sf.suppression)
        assert all(a > b for a, b in zip(values, values[1:])), values
