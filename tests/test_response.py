"""Analytic response curves, numeric transfer extraction, and curve tools."""
import json
import math
import warnings
from collections import OrderedDict

import numpy as np
import pytest

from socaccel import (
    AmplitudeTooLargeError,
    Constant,
    Displace,
    Evolve,
    ParameterError,
    PulseSequence,
    Readout,
    ResolutionError,
    ResponseCurve,
    RotateY,
    Sinusoid,
    TrapConfig,
    derive_modes,
    find_peaks,
    find_zeros,
    h_perp,
    main_lobe_fwhm,
    numeric_response,
    numeric_response_curve,
    preset_cp,
    preset_up,
    response_cp,
    response_up,
    run_sequence,
)
from socaccel import pulses
from socaccel.response import _DEFAULT_PHASES, _parabolic_vertex

MASS = 1.44316e-25  # Rb-87, kg
WT = 2 * math.pi * 1000.0


CFG = TrapConfig.from_modes(MASS, WT, 4.0)
MODES = derive_modes(CFG)
L = MODES.l_osc
WM, WP = MODES.omega_minus, MODES.omega_plus
R0 = 2.0 * L
T5 = 5 * math.pi / WT  # omega_minus * t = 2 pi, omega_plus * t = 8 pi
M_OVER_H = 1.0 / (WT * L**2)
GRID = np.linspace(0.0, 3.0 * WP, 4096)


class TestResponseUp:
    def test_dc_value_finite_and_nonzero(self):
        # away from windows where the lever arm integrates to zero
        curve = response_up(MODES, R0, 2.5 * math.pi / WT, grid=np.array([0.0, WT]))
        v = curve.values[0]
        assert np.isfinite(v) and abs(v) > 1e-2

    def test_matches_lever_arm_quadrature(self):
        up = response_up(MODES, R0, T5, grid=GRID)
        tt = np.linspace(0.0, T5, 20001)
        hh = h_perp(MODES, tt)
        peak = np.abs(up.values).max()
        for idx in range(0, GRID.shape[0], 409):
            w = GRID[idx]
            pred = 4.0 * R0 * M_OVER_H * np.trapezoid(hh * np.exp(-1j * w * tt), tt)
            assert abs(up.values[idx] - pred) < 1e-6 * peak, f"omega = {w:.1f}"

    def test_mode_frequency_magnitudes(self):
        # the window sinc hits its removable-singularity value there, leaving
        # |F0(w-)| = (m/hbar) r0 t w+/wt and |F0(w+)| = (m/hbar) r0 t w-/wt
        at_wm = response_up(MODES, R0, T5, grid=np.array([0.0, WM])).values[1]
        at_wp = response_up(MODES, R0, T5, grid=np.array([0.0, WP])).values[1]
        assert abs(abs(at_wm) - M_OVER_H * R0 * T5 * WP / WT) < 1e-12 * abs(at_wm)
        assert abs(abs(at_wp) - M_OVER_H * R0 * T5 * WM / WT) < 1e-12 * abs(at_wp)

    def test_linear_in_r0(self):
        one = response_up(MODES, R0, T5, grid=GRID)
        two = response_up(MODES, 2.0 * R0, T5, grid=GRID)
        assert np.array_equal(two.values, 2.0 * one.values), "doubling r0 must double the curve"

    def test_peak_ratio_tracks_mode_ratio(self):
        # windowed peak heights near omega_-/omega_+ approach epsilon once the
        # window resolves the slow mode (omega_- t >> pi); the sidelobes of
        # the tall slow-mode peak exceed the fast-mode peak, so the fast peak
        # is found in its own frequency window
        eps = 22.0
        modes = derive_modes(TrapConfig.from_modes(MASS, WT, eps))
        wm, wp = modes.omega_minus, modes.omega_plus
        ratios = []
        for mult in (20, 80):
            t = mult * math.pi / WT
            curve = response_up(modes, R0, t, grid=np.linspace(0.0, 1.3 * wp, 65536))
            peaks = find_peaks(curve)
            pm = max(h for w, h in peaks if abs(w - wm) < 2 * math.pi / t)
            pp = max(h for w, h in peaks if abs(w - wp) < 2 * math.pi / t)
            ratios.append(pm / pp)
        assert abs(ratios[1] - eps) < 0.05 * eps, f"resolved ratio {ratios[1]}"
        assert abs(ratios[1] - eps) < abs(ratios[0] - eps), "ratio should approach eps as t grows"

    def test_fwhm_scales_inverse_t(self):
        grids = np.linspace(0.0, 3.0 * WP, 16384)
        f1 = main_lobe_fwhm(response_up(MODES, R0, T5, grid=grids))
        f2 = main_lobe_fwhm(response_up(MODES, R0, 2 * T5, grid=grids))
        assert abs(f2 / f1 - 0.5) < 0.05 * 0.5, f"t-doubling gave fwhm ratio {f2 / f1}"

    def test_time_validation(self):
        with pytest.raises(ParameterError):
            response_up(MODES, R0, 0.0)
        with pytest.raises(ParameterError):
            response_up(MODES, 0.0, T5)


class TestResponseCp:
    def test_vanishes_at_dc(self):
        cp = response_cp(MODES, R0, T5, grid=GRID)
        assert cp.values[0] == 0.0

    def test_vanishes_at_mode_frequencies(self):
        # omega_pm * t are multiples of pi here, so sin(omega t) kills both
        peak = np.abs(response_cp(MODES, R0, T5, grid=GRID).values).max()
        at_wm = response_cp(MODES, R0, T5, grid=np.array([0.0, WM])).values[1]
        at_wp = response_cp(MODES, R0, T5, grid=np.array([0.0, WP])).values[1]
        assert abs(at_wm) < 1e-12 * peak
        assert abs(at_wp) < 1e-12 * peak

    def test_composition_from_single_window(self):
        up = response_up(MODES, R0, T5, grid=GRID)
        cp = response_cp(MODES, R0, T5, grid=GRID)
        w = GRID
        expected = (
            2j * np.sin(w * T5)
            * (up.values * np.exp(1j * w * T5) + np.conj(up.values) * np.exp(-1j * w * T5))
            * np.exp(-2j * w * T5)
        )
        assert np.max(np.abs(cp.values - expected)) < 1e-12 * np.abs(cp.values).max()

    def test_grid_is_validated_once(self, monkeypatch):
        calls = []
        check = ResponseCurve.__post_init__
        monkeypatch.setattr(ResponseCurve, "__post_init__", lambda self: calls.append(self) or check(self))
        cp = response_cp(MODES, R0, T5, grid=GRID)
        assert calls == [cp]
        up = response_up(MODES, R0, T5, grid=GRID)
        w = GRID * T5
        f0 = up.values
        expected = 2j * np.sin(w) * (f0 * np.exp(1j * w) + np.conj(f0) * np.exp(-1j * w)) * np.exp(-2j * w)
        assert cp.values.tobytes() == expected.tobytes()
        assert (cp.omega.tobytes(), cp.r0, cp.t, cp.kind) == (up.omega.tobytes(), up.r0, up.t, "cp")

    def test_zeros_bracket_mode_frequencies(self):
        cp = response_cp(MODES, R0, T5, grid=GRID)
        zeros = find_zeros(cp)
        half_step = cp.spacing / 2.0
        for target in (0.0, WM, WP):
            best = min(zeros, key=lambda z: abs(z - target))
            assert abs(best - target) <= half_step, f"zero near {target:.1f} at {best:.1f}"

    def test_sensitivity_lobes_hug_mode_frequencies(self):
        cp = response_cp(MODES, R0, T5, grid=GRID)
        peaks = find_peaks(cp)
        lobe_band = (2 * math.pi / T5) / 8.0
        for target in (WM, WP):
            nearest = min((w for w, _ in peaks), key=lambda w: abs(w - target))
            assert abs(nearest - target) < 0.5 * (2 * math.pi / T5), f"lobe far from {target:.1f}"
        fwhm = main_lobe_fwhm(cp)
        assert 0.5 < fwhm / lobe_band < 2.0, f"lobe width {fwhm} vs band {lobe_band}"


def closed_forms_longdouble(modes, r0, t, grid):
    """(re, im) of F0 and of F_cp in long double, the formulas of response_up and response_cp
    evaluated on the same float64 inputs."""
    ld = np.longdouble
    w, t, r0 = np.asarray(grid, dtype=ld), ld(t), ld(r0)
    wp, wm, wt, l_osc = (ld(v) for v in (modes.omega_plus, modes.omega_minus, modes.omega_tilde, modes.l_osc))

    def window(omega):  # sinc(x) e^{-ix}, x = omega t / 2
        x = omega * t / 2
        sinc = np.where(x == 0, ld(1), np.sin(x) / np.where(x == 0, ld(1), x))
        return sinc * np.cos(x), -sinc * np.sin(x)

    terms = [(wm, window(w + wp)), (-wm, window(w - wp)), (-wp, window(w + wm)), (wp, window(w - wm))]
    bracket_re = sum(c * re for c, (re, _) in terms)
    bracket_im = sum(c * im for c, (_, im) in terms)
    a = r0 * t / (wt * wt * l_osc * l_osc)  # the prefactor is i a
    up_re, up_im = -a * bracket_im, a * bracket_re
    wt_arg = w * t
    # 2i sin(w t) 2 Re[F0 e^{i w t}] e^{-2i w t} = i m e^{-2i w t}
    m = 4 * np.sin(wt_arg) * (up_re * np.cos(wt_arg) - up_im * np.sin(wt_arg))
    return (up_re, up_im), (m * np.sin(2 * wt_arg), m * np.cos(2 * wt_arg))


def error_in_peak_ulps(curve, reference) -> float:
    re, im = reference
    err = np.hypot((curve.values.real - re).astype(float), (curve.values.imag - im).astype(float))
    return float(err.max() / np.spacing(np.hypot(re.astype(float), im.astype(float)).max()))


def drawn_traps(count=20, seed=22):
    """(modes, r0, t, grid) as the response_probe benchmark draws them: t of 5-7 half periods."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        wt, eps = 2.0 * math.pi * rng.uniform(500.0, 2000.0), rng.uniform(1.5, 5.0)
        modes = derive_modes(TrapConfig.from_modes(MASS, wt, eps))
        t = math.pi * int(rng.integers(5, 8)) / wt
        yield modes, 2.0 * modes.l_osc, t, np.linspace(0.0, 3.0 * modes.omega_plus, 4096)


README_MODES = derive_modes(TrapConfig.from_modes(MASS, 6283.185307179586, 3.0))


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps, reason="long double is double here")
class TestClosedFormAccuracy:
    """Max error of the closed forms against themselves in long double, in ulp of the curve peak.

    The bounds are the errors of the evaluator these closed forms replaced (np.sinc windows, an
    echo composition of three complex exponentials), rounded up in the third digit.
    """

    @pytest.mark.parametrize(
        "cases, up_bound, cp_bound",
        [
            pytest.param(
                [(README_MODES, README_MODES.l_osc, 5.0 * math.pi / README_MODES.omega_tilde,
                  np.linspace(0.0, 3.0 * README_MODES.omega_plus, 4096))],
                3.36, 13.35, id="readme",
            ),
            pytest.param([(MODES, R0, T5, np.linspace(0.0, 2.0 * WP, 200))], 3.50, 7.63, id="criterion_05"),
            pytest.param(list(drawn_traps()), 5.09, 17.44, id="drawn-traps"),
        ],
    )
    def test_error_stays_within_the_replaced_evaluator(self, cases, up_bound, cp_bound):
        up_err = cp_err = 0.0
        for modes, r0, t, grid in cases:
            up_ref, cp_ref = closed_forms_longdouble(modes, r0, t, grid)
            up_err = max(up_err, error_in_peak_ulps(response_up(modes, r0, t, grid=grid), up_ref))
            cp_err = max(cp_err, error_in_peak_ulps(response_cp(modes, r0, t, grid=grid), cp_ref))
        assert up_err <= up_bound and cp_err <= cp_bound, (up_err, cp_err)


class TestNumericResponse:
    peak_up = np.abs(response_up(MODES, R0, T5, grid=GRID).values).max()
    peak_cp = np.abs(response_cp(MODES, R0, T5, grid=GRID).values).max()

    def test_up_matches_analytic_at_fast_mode(self):
        got = numeric_response(CFG, preset_up((R0, 0.0), T5), WP, 0.02 / self.peak_up)
        want = response_up(MODES, R0, T5, grid=np.array([0.0, WP])).values[1]
        assert abs(got - want) < 1e-3 * abs(want)

    def test_cp_matches_analytic_subset(self):
        seq = preset_cp((R0, 0.0), T5, modes=MODES)
        cp = response_cp(MODES, R0, T5, grid=GRID)
        for idx in (409, 1227, 2045, 3272):
            got = numeric_response(CFG, seq, float(GRID[idx]), 0.02 / self.peak_cp)
            assert abs(got - cp.values[idx]) < 1e-3 * self.peak_cp, f"omega = {GRID[idx]:.1f}"

    def test_cp_dc_rejection(self):
        got = numeric_response(CFG, preset_cp((R0, 0.0), T5, modes=MODES), 0.0, 0.02 / self.peak_cp)
        assert abs(got) < 1e-3 * self.peak_cp

    def test_reconstructs_time_domain_signal(self):
        # conjugate symmetry F0(-w) = F0(w)* folds the two spectral lines of a
        # real cosine drive into a real phase prediction
        omega = 0.7 * WT
        amp = 1e-4 * L * WT**2
        f0 = response_up(MODES, R0, T5, grid=np.array([0.0, omega])).values[1]
        for phi in (0.0, 0.9):
            drive = Sinusoid(amplitude=(0.0, amp), omega=omega, phase=phi)
            rec = run_sequence(CFG, None, preset_up((R0, 0.0), T5), drive)
            term = amp * np.exp(-1j * phi) * f0 / 4.0
            pred = float((term + np.conj(term)).real)
            assert abs(rec.phase - pred) < 1e-3 * abs(pred), f"phi = {phi}"

    def test_rejects_nonlinear_amplitude(self):
        with pytest.raises(AmplitudeTooLargeError):
            numeric_response(CFG, preset_up((R0, 0.0), T5), WM, 0.5 / self.peak_up)

    def test_parameter_validation(self):
        seq = preset_up((R0, 0.0), T5)
        with pytest.raises(ParameterError):
            numeric_response(CFG, seq, WM, 0.0)
        with pytest.raises(ParameterError):
            numeric_response(CFG, seq, -1.0, 0.02 / self.peak_up)
        with pytest.raises(ParameterError):
            numeric_response(CFG, seq, WM, 0.02 / self.peak_up, phases=[0.0])

    def test_requires_probe_direction(self):
        no_displace = PulseSequence(steps=(RotateY(math.pi / 2), Evolve(T5), Readout("z")))
        with pytest.raises(ParameterError):
            numeric_response(CFG, no_displace, WM, 1e-3)
        zero_shift = PulseSequence(
            steps=(RotateY(math.pi / 2), Displace((0.0, 0.0)), Evolve(T5), Readout("z")),
        )
        with pytest.raises(ParameterError):
            numeric_response(CFG, zero_shift, WM, 1e-3)

    def test_curve_metadata(self):
        sub = GRID[::409][1:]
        nc = numeric_response_curve(CFG, preset_up((R0, 0.0), T5), sub, 0.02 / self.peak_up)
        assert nc.kind == "numeric-up"
        assert nc.t == T5 and nc.r0 == R0
        cp_seq = preset_cp((R0, 0.0), T5, modes=MODES)
        nc_cp = numeric_response_curve(CFG, cp_seq, sub[:3], 0.02 / self.peak_cp)
        assert nc_cp.kind == "numeric-cp"
        assert abs(nc_cp.t - T5) < 1e-15, "cp metadata t is the quarter window"


def per_phase_response(config, sequence, omega, amplitude, phases=(0.0, math.pi / 2, math.pi, 1.5 * math.pi)):
    """numeric_response as one run_sequence per probe phase, then one fit and its checks."""
    shift = next(np.array(s.shift) for s in sequence if isinstance(s, Displace))
    e_perp = np.array([-shift[1], shift[0]]) / np.linalg.norm(shift)
    measured = []
    for phi in phases:
        drive = Sinusoid((amplitude * e_perp[0], amplitude * e_perp[1]), omega, phi)
        phase = run_sequence(config, None, sequence, drive).phase
        if abs(phase) > 0.1:
            raise AmplitudeTooLargeError(f"probe phase {phase:.3g} rad exceeds the 0.1 rad linear regime")
        measured.append(phase)
    design = np.column_stack([np.cos(phases), np.sin(phases), np.ones(len(phases))])
    (a, b, c), *_ = np.linalg.lstsq(design, measured, rcond=None)
    if abs(c) > 0.01 * max(math.hypot(a, b), 0.01):
        raise AmplitudeTooLargeError(f"quadratic phase offset {c:.3g} rad exceeds 1% of the linear response")
    return 2.0 * complex(a, b) / amplitude


def error_message(fn, *args) -> str:
    with pytest.raises(AmplitudeTooLargeError) as info:
        fn(*args)
    return str(info.value)


class TestBatchedProbes:
    """All probes of a transfer extraction go through one kernel pass and one array walk."""

    peak = {
        "up": np.abs(response_up(MODES, R0, T5, grid=GRID).values).max(),
        "cp": np.abs(response_cp(MODES, R0, T5, grid=GRID).values).max(),
    }
    presets = {"up": preset_up((R0, 0.0), T5), "cp": preset_cp((R0, 0.0), T5)}
    # a second window with its own constant drive adds a probe-independent phase of -0.0225 rad
    offset = PulseSequence(
        steps=(
            RotateY(math.pi / 2),
            Displace((R0, 0.0)),
            Evolve(T5),
            Evolve(T5 / 3, Constant(0.0, 2e-3 * L * WT**2)),
            RotateY(-math.pi / 2),
            Readout("z"),
        ),
    )

    @pytest.mark.parametrize("omega", [0.0, WM, WP, 0.37 * WT])
    @pytest.mark.parametrize("kind", ["up", "cp"])
    def test_matches_per_phase_runs(self, kind, omega):
        amplitude = 0.02 / self.peak[kind]
        got = numeric_response(CFG, self.presets[kind], omega, amplitude)
        want = per_phase_response(CFG, self.presets[kind], omega, amplitude)
        assert abs(got - want) <= 1e-12 * self.peak[kind]

    @pytest.mark.parametrize("kind", ["up", "cp"])
    def test_curve_is_numeric_response_point_by_point(self, kind, monkeypatch):
        calls = []
        kernel = pulses._piece_integrals
        monkeypatch.setattr(pulses, "_piece_integrals", lambda *args: calls.append(args) or kernel(*args))
        omegas, amplitude = GRID[::171], 0.02 / self.peak[kind]
        curve = numeric_response_curve(CFG, self.presets[kind], omegas, amplitude)
        assert len(calls) == 1  # 24 frequencies x 4 phases x all windows
        for omega, value in zip(omegas, curve.values):
            single = numeric_response(CFG, self.presets[kind], omega, amplitude)
            assert abs(value - single) <= 1e-12 * self.peak[kind]

    @pytest.mark.parametrize("kind", ["up", "cp"])
    def test_probe_blocks_do_not_change_the_curve(self, kind, monkeypatch):
        """96 probes in blocks of 5, the last of one probe: one kernel pass per block, the same curve."""
        omegas, amplitude = GRID[::171], 0.02 / self.peak[kind]
        whole = numeric_response_curve(CFG, self.presets[kind], omegas, amplitude).values
        calls = []
        kernel = pulses._piece_integrals
        monkeypatch.setattr(pulses, "_piece_integrals", lambda *args: calls.append(args) or kernel(*args))
        monkeypatch.setattr(pulses, "_SEGMENT_CACHE", OrderedDict())
        monkeypatch.setattr(pulses, "_BATCH_BLOCK", 5)
        blocked = numeric_response_curve(CFG, self.presets[kind], omegas, amplitude).values
        assert len(calls) == 20
        assert np.max(np.abs(blocked - whole)) <= 1e-12 * self.peak[kind]

    def test_last_block_of_one_probe_is_a_probe_walk(self, monkeypatch):
        """A block that holds one probe neither reads nor fills the memo, and keeps the curve's bits."""
        omegas, amplitude = GRID[::171], 0.02 / self.peak["cp"]
        assert omegas.size * len(_DEFAULT_PHASES) % 5 == 1
        cache = OrderedDict()
        monkeypatch.setattr(pulses, "_SEGMENT_CACHE", cache)
        whole = numeric_response_curve(CFG, self.presets["cp"], omegas, amplitude).values
        monkeypatch.setattr(pulses, "_BATCH_BLOCK", 5)
        blocked = numeric_response_curve(CFG, self.presets["cp"], omegas, amplitude).values
        assert len(cache) == 0
        assert blocked.tobytes() == whole.tobytes()

    def test_probe_walk_leaves_the_segment_cache_alone(self, monkeypatch):
        """Probe drives are used once: a curve neither reads nor fills the memo of warm runs."""

        class CountingCache(OrderedDict):
            gets = 0

            def get(self, key, default=None):
                self.gets += 1
                return super().get(key, default)

        cache = CountingCache()
        monkeypatch.setattr(pulses, "_SEGMENT_CACHE", cache)
        drive = Sinusoid((0.0, 1e-3), 1.3 * WT, 0.2)
        warm = run_sequence(CFG, None, self.presets["cp"], drive)
        held = list(cache.items())
        cache.gets = 0
        numeric_response_curve(CFG, self.presets["cp"], GRID[::171], 0.02 / self.peak["cp"])
        assert cache.gets == 0 and list(cache.items()) == held
        calls = []
        kernel = pulses._piece_integrals
        monkeypatch.setattr(pulses, "_piece_integrals", lambda *args: calls.append(args) or kernel(*args))
        again = run_sequence(CFG, None, self.presets["cp"], drive)
        assert cache.gets == 3 and calls == []  # one lookup per window, all hits
        assert again.state == warm.state

    def test_walk_without_a_window_probes_nothing(self):
        """A sequence with no Evolve of positive duration gives every probe the undriven phase: F = 0."""
        still = PulseSequence(steps=(RotateY(math.pi / 2), Displace((R0, 0.0)), Evolve(0.0), RotateY(-math.pi / 2)))
        assert numeric_response(CFG, still, WM, 1e-3) == per_phase_response(CFG, still, WM, 1e-3) == 0j

    def test_too_strong_probe_keeps_message_and_precedence(self):
        up, amplitude = self.presets["up"], 0.5 / self.peak["up"]
        for omegas in ([WP, WM], [WM, WP]):
            want = error_message(lambda: [per_phase_response(CFG, up, w, amplitude) for w in omegas])
            assert error_message(numeric_response_curve, CFG, up, omegas, amplitude) == want
        assert error_message(numeric_response, CFG, up, WM, amplitude).startswith("probe phase ")

    def test_offset_error_comes_after_the_phase_error_of_its_frequency(self):
        amplitude = 0.5 / self.peak["up"]
        both = error_message(numeric_response, CFG, self.offset, WM, amplitude)
        assert both == error_message(per_phase_response, CFG, self.offset, WM, amplitude)
        assert both.startswith("probe phase ")
        first = error_message(numeric_response_curve, CFG, self.offset, [0.0, WM], amplitude)
        assert first == error_message(per_phase_response, CFG, self.offset, 0.0, amplitude)
        assert first.startswith("quadratic phase offset ")


class TestCurveTools:
    def test_single_arch_gives_single_peak(self):
        omega = np.linspace(100.0, 200.0, 201)
        values = np.sin(math.pi * (omega - 100.0) / 100.0)
        curve = ResponseCurve(omega=omega, values=values)
        peaks = find_peaks(curve)
        assert len(peaks) == 1
        assert abs(peaks[0][0] - 150.0) < 0.5 * curve.spacing
        assert abs(peaks[0][1] - 1.0) < 1e-3

    def test_candidates_match_the_scalar_scan(self):
        """Zeros and peaks equal a plain scan over every interior sample, plateaus included."""
        rng = np.random.default_rng(5)
        curves = [response_cp(MODES, R0, T5, grid=GRID), response_up(MODES, R0, T5, grid=GRID)]
        omega = np.linspace(0.0, 1.0, 400)
        curves.append(ResponseCurve(omega=omega, values=np.round(4 * rng.random(400)) * np.exp(3j * omega)))
        for curve in curves:
            m2 = np.abs(curve.values) ** 2
            peak, dx, x0 = float(m2.max()), curve.spacing, curve.omega
            zeros = [float(x0[0])] if m2[0] <= 1e-6 * peak else []
            peaks = []
            for i in range(1, m2.shape[0] - 1):
                x, y = _parabolic_vertex(float(x0[i]), dx, m2[i - 1], m2[i], m2[i + 1])
                if m2[i] <= m2[i - 1] and m2[i] < m2[i + 1] and max(y, 0.0) <= 1e-6 * peak:
                    zeros.append(x)
                if m2[i] >= m2[i - 1] and m2[i] > m2[i + 1] and m2[i] > 0.0:
                    peaks.append((x, math.sqrt(max(y, 0.0))))
            if m2[-1] <= 1e-6 * peak:
                zeros.append(float(x0[-1]))
            assert repr(find_zeros(curve)) == repr(zeros)
            assert repr(find_peaks(curve)) == repr(peaks)

    def test_zero_curve_rejected(self):
        curve = ResponseCurve(omega=np.linspace(0, 1, 8), values=np.zeros(8))
        with pytest.raises(ParameterError):
            find_zeros(curve)
        with pytest.raises(ParameterError):
            main_lobe_fwhm(curve)

    def test_coarse_grid_raises_resolution_error(self):
        cp = response_cp(MODES, R0, T5, grid=np.linspace(0.0, 3.0 * WP, 64))
        with pytest.raises(ResolutionError):
            find_zeros(cp)
        with pytest.raises(ResolutionError):
            find_peaks(cp)
        with pytest.raises(ResolutionError):
            main_lobe_fwhm(cp)


class TestResponseCurveType:
    def test_grid_validation(self):
        with pytest.raises(ParameterError):
            ResponseCurve(omega=np.array([1.0]), values=np.array([1.0]))
        with pytest.raises(ParameterError):
            ResponseCurve(omega=np.array([0.0, 2.0, 1.0]), values=np.ones(3))
        with pytest.raises(ParameterError):
            ResponseCurve(omega=np.array([0.0, 1.0, 3.0]), values=np.ones(3))
        with pytest.raises(ParameterError):
            ResponseCurve(omega=np.array([0.0, 1.0]), values=np.array([1.0, math.nan]))
        with pytest.raises(ParameterError):
            ResponseCurve(omega=np.array([0.0, 1.0]), values=np.ones(3))

    def test_uniformity_check_decides_as_allclose(self):
        """One comparison, |d - d0| <= 1e-12 d0 + 1e-9 d0 or d == d0, accepts and rejects the grids
        that np.allclose(d, d0, rtol=1e-9, atol=1e-12 |d0|) did: exact spacings, a spacing on the
        bound and one ulp beyond it on either side, and spacings a few ulps around the bound."""
        grids = [GRID, np.linspace(-1.0, 1.0, 1025), np.arange(64.0) * 0.375, np.array([-2.0, -1.0])]
        on_bound = {}
        # below 2**-1021 every double is a multiple of 5e-324, so d0 +- tol is exact and so is its
        # difference from d0; the first two d0 round (1e-12 + 1e-9) * d0 up and down from the bound
        for d0 in (6410092465219463 * 5e-324, 6978749554380064 * 5e-324, 2.0**-1022):
            tol = 1e-12 * d0 + 1e-9 * d0
            for sign in (1.0, -1.0):
                on_bound[np.array([-d0, 0.0, d0 + sign * tol]).tobytes()] = True
                on_bound[np.array([-d0, 0.0, d0 + sign * (tol + 5e-324)]).tobytes()] = False
        grids += [np.frombuffer(g) for g in on_bound]
        around = []
        for d0 in (1.0, 0.1, 3e-7, 12345.678):
            tol = 1e-12 * d0 + 1e-9 * d0
            for edge in (d0 + tol, d0 - tol):
                spacings = edge + np.arange(-3, 4) * np.spacing(edge)
                around.append([np.array([-d0, 0.0, d1, d1 + d0]) for d1 in spacings])
        grids += [g for near in around for g in near]
        inf = math.inf
        grids += [np.array([-inf, 0.0, 1.0]), np.array([-inf, 0.0, inf]), np.array([0.0, 1.0, inf])]
        decided = {}
        for omega in grids:
            with warnings.catch_warnings():  # the infinite grids warn, as they did
                warnings.simplefilter("ignore", RuntimeWarning)
                d = np.diff(omega)
                expected = bool(np.allclose(d, d[0], rtol=1e-9, atol=1e-12 * abs(d[0])))
                try:
                    ResponseCurve(omega=omega, values=np.zeros(omega.shape))
                    accepted = True
                except ParameterError as exc:
                    assert "uniform" in str(exc)
                    accepted = False
            assert accepted == expected, omega.tolist()
            decided[omega.tobytes()] = accepted
        assert {g: decided[g] for g in on_bound} == on_bound
        for near in around:  # each bound lies inside its spacings
            assert {decided[g.tobytes()] for g in near} == {True, False}

    def test_csv_round_trip(self, tmp_path):
        curve = response_cp(MODES, R0, T5, grid=GRID[:64])
        path = tmp_path / "curve.csv"
        curve.to_csv(path)
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        assert data.shape == (64, 4)
        assert np.allclose(data[:, 0], curve.omega, rtol=0, atol=0)
        got = data[:, 1] + 1j * data[:, 2]
        assert np.array_equal(got, curve.values), "%.17g format must round trip"
        assert np.allclose(data[:, 3], np.abs(curve.values) ** 2, rtol=1e-15, atol=0)

    def test_json_round_trip(self, tmp_path):
        curve = response_up(MODES, R0, T5, grid=GRID[:16])
        path = tmp_path / "curve.json"
        curve.to_json(path)
        loaded = json.loads(path.read_text())
        assert loaded["kind"] == "up"
        assert loaded["r0_m"] == R0 and loaded["t_s"] == T5
        assert np.array_equal(np.array(loaded["re"]) + 1j * np.array(loaded["im"]), curve.values)
