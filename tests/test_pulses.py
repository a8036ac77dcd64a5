"""Pulse primitives, the branch-tracking spinor engine, and preset sequences."""
import math
import sys
import warnings
from collections import Counter, OrderedDict
from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import integrate_eom_numeric
from socaccel import (
    Branch,
    Constant,
    Displace,
    Evolve,
    ForceSignal,
    ParameterError,
    PhaseSpacePoint,
    PulseSequence,
    Readout,
    RotateY,
    Sinusoid,
    SpinorCoherentState,
    SumSignal,
    Tabulated,
    ThermalParams,
    TrapConfig,
    Zero,
    apply_displacement,
    apply_evolution,
    apply_rotation,
    batch_signal,
    circular,
    classical_trajectory,
    derive_modes,
    expectation_spin,
    ground_state,
    h_perp,
    mode_decompose,
    preset_cp,
    preset_up,
    run_sequence,
    thermal_signal,
)
from socaccel import pulses, signals
from socaccel.pulses import _center_from_amplitudes, _gram_sums, _merge_branches

MASS = 1.44316e-25  # Rb-87, kg
WT = 2 * math.pi * 1000.0


CFG = TrapConfig.from_modes(MASS, WT, 3.0)
MODES = derive_modes(CFG)
L = MODES.l_osc
R0 = (2.0 * L, 0.0)


def norm_of(state) -> float:
    n_up, n_down, _, _ = _gram_sums(state)
    return n_up + n_down


def state_at(config, point, spin=+1):
    """Single-branch coherent state centered on a phase-space point."""
    ap, am = mode_decompose(config, spin, point)
    return SpinorCoherentState(
        config=config,
        branches=(Branch(spin=spin, weight=1.0 + 0.0j, alpha_plus=ap, alpha_minus=am),),
    )


def center_of(branch):
    return _center_from_amplitudes(MODES, branch.spin, branch.alpha_plus, branch.alpha_minus)


class TestGroundState:
    def test_single_branch_at_rest(self):
        state = ground_state(CFG)
        assert len(state.branches) == 1
        b = state.branches[0]
        assert b.spin == +1 and b.alpha_plus == 0.0 and b.alpha_minus == 0.0
        assert b.weight == 1.0 and b.phase == 0.0
        assert abs(norm_of(state) - 1.0) < 1e-14

    def test_spin_down_variant(self):
        state = ground_state(CFG, spin=-1)
        assert state.branches[0].spin == -1
        assert expectation_spin(state, "z") == -1.0

    def test_expectations(self):
        state = ground_state(CFG)
        assert expectation_spin(state, "z") == 1.0
        assert expectation_spin(state, "x") == 0.0
        assert expectation_spin(state, "y") == 0.0


class TestModeDecompose:
    def test_round_trip_through_center(self):
        p = PhaseSpacePoint(1.3e-6, -0.4e-6, 2.1e-29, 0.7e-29)
        for spin in (+1, -1):
            ap, am = mode_decompose(CFG, spin, p)
            zeta, zdot = _center_from_amplitudes(MODES, spin, ap, am)
            assert abs(zeta - complex(p.x, p.y)) < 1e-12 * abs(zeta)
            v = complex(p.px, p.py) / MASS
            assert abs(zdot - v) < 1e-12 * abs(v)

    def test_spin_flip_preserves_center(self):
        # the amplitudes change under a spin flip, the phase-space point does not
        p = PhaseSpacePoint(0.7e-6, 0.2e-6, -1.0e-29, 3.0e-29)
        up = mode_decompose(CFG, +1, p)
        down = mode_decompose(CFG, -1, p)
        assert up != down
        z_up, v_up = _center_from_amplitudes(MODES, +1, *up)
        z_dn, v_dn = _center_from_amplitudes(MODES, -1, *down)
        assert abs(z_up - z_dn) < 1e-15 * abs(z_up)
        assert abs(v_up - v_dn) < 1e-15 * abs(v_up)

    def test_sigma_validation(self):
        with pytest.raises(ParameterError):
            mode_decompose(CFG, 0, PhaseSpacePoint(0, 0, 0, 0))


class TestRotation:
    def test_zero_angle_is_identity(self):
        state = apply_displacement(ground_state(CFG), R0)
        rotated = apply_rotation(state, 0.0)
        assert rotated.branches == state.branches

    def test_half_pulse_splits_evenly(self):
        state = apply_rotation(ground_state(CFG), math.pi / 2)
        assert len(state.branches) == 2
        weights = {b.spin: b.weight for b in state.branches}
        assert abs(weights[+1] - math.cos(math.pi / 4)) < 1e-15
        assert abs(weights[-1] - math.sin(math.pi / 4)) < 1e-15
        assert abs(norm_of(state) - 1.0) < 1e-12

    def test_pi_pulse_flips_spin_and_keeps_center(self):
        p = PhaseSpacePoint(1.1e-6, 0.0, 0.0, 4.0e-29)
        state = apply_rotation(state_at(CFG, p), math.pi)
        assert len(state.branches) == 1, "cos(pi/2) remnant should prune away"
        b = state.branches[0]
        assert b.spin == -1
        assert abs(abs(b.weight) - 1.0) < 1e-12
        zeta, zdot = center_of(b)
        assert abs(zeta - complex(p.x, p.y)) < 1e-12 * abs(zeta)
        assert abs(zdot - complex(p.px, p.py) / MASS) < 1e-12 * abs(zdot)

    def test_inverse_rotation_restores_branch_count(self):
        state = apply_displacement(ground_state(CFG), R0)
        split = apply_rotation(state, math.pi / 2)
        assert len(split.branches) == 2
        back = apply_rotation(split, -math.pi / 2)
        assert len(back.branches) == 1, "merge should collapse the recombined pair"
        b = back.branches[0]
        assert abs(b.weight - 1.0) < 1e-12
        assert abs(b.alpha_plus - state.branches[0].alpha_plus) < 1e-12

    @given(
        a=st.floats(-2 * math.pi, 2 * math.pi),
        b=st.floats(-2 * math.pi, 2 * math.pi),
    )
    @settings(max_examples=60, deadline=None)
    def test_composition_law(self, a, b):
        # rotations about the same axis compose by angle addition
        state = apply_displacement(ground_state(CFG), (0.6 * L, -0.2 * L))
        once = apply_rotation(state, a + b)
        twice = apply_rotation(apply_rotation(state, b), a)
        for axis in ("x", "y", "z"):
            assert abs(expectation_spin(once, axis) - expectation_spin(twice, axis)) < 1e-12

    def test_norm_preserved(self):
        state = apply_displacement(ground_state(CFG), R0)
        for angle in (0.3, 1.0, math.pi / 2, 2.7):
            rotated = apply_rotation(state, angle)
            assert abs(norm_of(rotated) - 1.0) < 1e-12, f"angle {angle}"

    def test_angle_validation(self):
        with pytest.raises(ParameterError):
            RotateY(math.inf)


class TestDisplacement:
    def test_zero_shift_identity(self):
        state = ground_state(CFG)
        shifted = apply_displacement(state, (0.0, 0.0))
        assert shifted.branches == state.branches
        assert shifted.origin == state.origin

    def test_center_moves_opposite_to_trap(self):
        # shifting the trap minimum by r0 leaves the atom at -r0 in the trap frame
        state = apply_displacement(ground_state(CFG), R0)
        assert state.origin == R0
        zeta, zdot = center_of(state.branches[0])
        assert abs(zeta + complex(*R0)) < 1e-15 * abs(complex(*R0))
        assert abs(zdot) < 1e-12 * abs(complex(*R0)) * WT

    def test_round_trip_restores_amplitudes(self):
        state = apply_rotation(apply_displacement(ground_state(CFG), (0.9 * L, 0.4 * L)), 0.7)
        shift = (1.3e-6, -2.2e-7)
        back = apply_displacement(apply_displacement(state, shift), (-shift[0], -shift[1]))
        for b0, b1 in zip(state.branches, back.branches):
            assert abs(b1.alpha_plus - b0.alpha_plus) < 1e-12
            assert abs(b1.alpha_minus - b0.alpha_minus) < 1e-12
        assert abs(back.origin[0] - state.origin[0]) < 1e-20
        assert abs(back.origin[1] - state.origin[1]) < 1e-20

    def test_matches_mode_decompose_of_shifted_point(self):
        shift = (1.7e-6, 0.5e-6)
        state = apply_displacement(ground_state(CFG), shift)
        expected = mode_decompose(CFG, +1, PhaseSpacePoint(-shift[0], -shift[1], 0.0, 0.0))
        b = state.branches[0]
        assert abs(b.alpha_plus - expected[0]) < 1e-14 * abs(expected[0])
        assert abs(b.alpha_minus - expected[1]) < 1e-14 * abs(expected[1])

    def test_shift_validation(self):
        with pytest.raises(ParameterError):
            apply_displacement(ground_state(CFG), (math.nan, 0.0))


class TestEvolution:
    def test_overflowing_mode_phase_is_parameter_error(self):
        # omega_plus * duration = inf: cmath.exp of the mode rotation has no value
        state = apply_displacement(ground_state(CFG), R0)
        with pytest.raises(ParameterError, match="omega_plus \\* duration overflows"):
            apply_evolution(state, 1e308)
        with pytest.raises(ParameterError, match="omega_plus \\* duration overflows"):
            run_sequence(CFG, None, preset_up(R0, 1e308), Sinusoid((0.1, 0.0), WT))

    def test_zero_duration_is_identity(self):
        state = apply_displacement(ground_state(CFG), R0)
        assert apply_evolution(state, 0.0) is state

    def test_free_evolution_follows_classical_release(self):
        t = 0.37 * math.pi / WT
        for spin in (+1, -1):
            state = apply_displacement(ground_state(CFG, spin=spin), R0)
            evolved = apply_evolution(state, t)
            zeta, zdot = center_of(evolved.branches[0])
            ref = classical_trajectory(MODES, spin, (-R0[0], -R0[1]), t)
            assert abs(zeta - complex(ref.x, ref.y)) < 1e-12 * abs(complex(*R0))
            v_ref = complex(ref.px, ref.py) / MASS
            assert abs(zdot - v_ref) < 1e-12 * abs(complex(*R0)) * WT
            assert evolved.time == t

    def test_driven_center_matches_rk4(self):
        # Ehrenfest check: the branch center obeys the classical driven equations
        drive = Sinusoid(amplitude=(0.11 * L * WT**2, -0.06 * L * WT**2), omega=0.8 * WT, phase=0.5)
        p0 = PhaseSpacePoint(0.8 * L, -0.3 * L, 0.2 * MASS * WT * L, 0.1 * MASS * WT * L)
        t = 2.6 * math.pi / WT
        for spin in (+1, -1):
            evolved = apply_evolution(state_at(CFG, p0, spin=spin), t, drive=drive)
            zeta, zdot = center_of(evolved.branches[0])
            ref = integrate_eom_numeric(CFG, spin, p0, drive, t / 40000, t)[-1]
            scale = abs(complex(ref.x, ref.y))
            assert abs(zeta - complex(ref.x, ref.y)) < 1e-7 * scale, f"spin {spin} position"
            v_ref = complex(ref.px, ref.py) / MASS
            assert abs(zdot - v_ref) < 1e-7 * abs(v_ref), f"spin {spin} velocity"

    def test_step_drive_overrides_sequence_drive(self):
        t = math.pi / WT
        own = Sinusoid(amplitude=(0.0, 1e-4 * L * WT**2), omega=1.3 * WT, phase=0.0)
        seq = PulseSequence(
            steps=(RotateY(math.pi / 2), Displace(R0), Evolve(t, drive=own), RotateY(-math.pi / 2), Readout("z")),
        )
        rec_own = run_sequence(CFG, None, seq, None)
        rec_masked = run_sequence(CFG, None, seq, Constant(3e-3 * L * WT**2, 0.0))
        assert rec_own.signal == rec_masked.signal, "Evolve-local drive must win"

    @staticmethod
    def _branch_phase(mode, amp):
        drive = Sinusoid(amplitude=(0.0, amp), omega=1.3 * WT, phase=0.3)
        state = apply_displacement(ground_state(CFG), R0)
        out = apply_evolution(state, 4 * math.pi / WT, drive=drive, mode=mode)
        return out.branches[0].phase

    def test_first_order_drops_quadratic_phase(self):
        # the branch phases differ only by the term quadratic in the drive
        amp = 1e-6  # m/s^2
        exact = self._branch_phase("exact", amp)
        linear = self._branch_phase("first_order", amp)
        assert abs(exact - linear) < 1e-4 * abs(exact), "quadratic term should be subleading"
        residuals = [
            abs(self._branch_phase("exact", a) - self._branch_phase("first_order", a))
            for a in (amp, amp / 2)
        ]
        ratio = residuals[0] / residuals[1]
        assert 3.9 < ratio < 4.1, f"expected ~4 under amplitude halving, got {ratio}"

    def test_first_order_signal_tracks_exact_at_weak_drive(self):
        t = 4 * math.pi / WT
        drive = Sinusoid(amplitude=(0.0, 2e-3 * L * WT**2), omega=1.3 * WT, phase=0.3)
        recs = []
        for mode in ("exact", "first_order"):
            seq = PulseSequence(
                steps=(
                    RotateY(math.pi / 2),
                    Displace(R0),
                    Evolve(t, mode=mode),
                    RotateY(-math.pi / 2),
                    Readout("z"),
                ),
            )
            recs.append(run_sequence(CFG, None, seq, drive))
        assert abs(recs[0].signal - recs[1].signal) < 1e-4 * abs(recs[0].signal)

    def test_duration_and_mode_validation(self):
        state = ground_state(CFG)
        with pytest.raises(ParameterError):
            apply_evolution(state, -1e-3)
        with pytest.raises(ParameterError):
            apply_evolution(state, 1e-3, mode="second_order")
        with pytest.raises(ParameterError):
            Evolve(-0.5)
        with pytest.raises(ParameterError):
            Evolve(1e-3, mode="adiabatic")


def split_phase(drive, t: float, parts: int) -> float:
    """Differential phase of the up preset with its Evolve(t) split into ``parts`` equal steps."""
    steps = (RotateY(math.pi / 2.0), Displace(R0), *[Evolve(t / parts)] * parts)
    seq = PulseSequence(steps + (RotateY(-math.pi / 2.0), Readout("z")))
    return run_sequence(CFG, None, seq, drive).phase


class TestSplitConsistency:
    """One Evolve over a window equals the same window evolved in 64 parts.

    The segment integrals are closed forms, so splitting changes only roundoff.
    Gauss-Legendre capped at 256 nodes per piece missed the circular case by
    1.9e-7 and 4.1e-7 rad.
    """

    @pytest.mark.parametrize("t", [0.06, 0.1])
    def test_long_circular_drive(self, t):
        drive = circular(2e-4 * L * WT**2, 1.37 * WT, 0.4)
        assert abs(split_phase(drive, t, 1) - split_phase(drive, t, 64)) <= 1e-12

    @pytest.mark.parametrize("with_sum", [False, True])
    def test_tabulated_and_sum_drives(self, with_sum):
        # a sampled tone plus 10 % noise, as in a replayed measurement; on white
        # noise alone the phase is a cancelling sum, and the 64 composed steps
        # alone carry ~1e-12 of it in roundoff
        t = 0.06
        tone = circular(2e-4 * L * WT**2, 1.37 * WT, 0.4)
        noise = 2e-5 * L * WT**2 * np.random.default_rng(0).normal(size=(3001, 2))
        drive = Tabulated(0.0, t / 3000, tone.evaluate(np.linspace(0.0, t, 3001)).T + noise)
        if with_sum:
            drive = SumSignal([drive, tone])
        whole = split_phase(drive, t, 1)
        assert abs(whole - split_phase(drive, t, 64)) <= 1e-12 * abs(whole)


def evolve_windows(sequence):
    """(t_start, duration) of each Evolve step, on the clock the engine steps by."""
    windows, t = [], 0.0
    for step in sequence:
        if isinstance(step, Evolve):
            windows.append((t, step.duration))
            t = t + step.duration
    return windows


@dataclass(eq=True)  # not frozen, so instances are unhashable
class UnhashableDrive(ForceSignal):
    inner: ForceSignal

    def evaluate(self, t):
        return self.inner.evaluate(t)

    def pieces(self, t0, t1):
        return self.inner.pieces(t0, t1)


class TestSegmentFill:
    """A run computes the segments of all its Evolve windows, of any drives, in one kernel pass."""

    T = math.pi / WT
    TONE = Sinusoid(amplitude=(0.0, 2e-3), omega=1.2 * WT, phase=0.3)

    @pytest.fixture(autouse=True)
    def cold_cache(self):
        pulses._SEGMENT_CACHE.clear()
        yield
        pulses._SEGMENT_CACHE.clear()

    @classmethod
    def drives(cls):
        table = Tabulated(0.0, 4 * cls.T / 700, 1e-3 * np.random.default_rng(3).normal(size=(701, 2)))
        return {
            "zero": Zero(),
            "constant": Constant(1e-3, -2e-3),
            "sinusoid": cls.TONE,
            "circular": circular(2e-3, 1.37 * WT, 0.4),
            "tabulated": table,
            "sum": SumSignal([table, Sinusoid((1e-3, 0.0), 0.8 * WT)]),
        }

    @pytest.mark.parametrize("kind", ["zero", "constant", "sinusoid", "circular", "tabulated", "sum"])
    @pytest.mark.parametrize("preset", ["up", "cp"])
    def test_batched_fill_equals_one_window_calls(self, preset, kind):
        sequence = preset_up(R0, 2 * self.T) if preset == "up" else preset_cp(R0, self.T)
        drive = self.drives()[kind]
        windows = evolve_windows(sequence)
        batched = pulses._segment_coeffs(CFG, [(drive, *window) for window in windows])
        for i, window in enumerate(windows):
            pulses._SEGMENT_CACHE.clear()
            single = pulses._segment_coeffs(CFG, [(drive, *window)])
            for sigma in (+1, -1):
                for name in pulses._SegmentCoeffs._fields:
                    got, want = getattr(batched[sigma], name)[i], getattr(single[sigma], name)[0]
                    assert got == want, (window, sigma, name)

    def test_kernel_rows_do_not_grow_with_the_table(self, monkeypatch):
        """A uniform table's pieces share a few shapes, so a pass evaluates the kernels on those rows only."""
        rows = {"T": 0, "E": 0}
        triangle, exp_poly = pulses._triangle_integral, signals._exp_poly_integral

        def count(kernel, name):
            def counted(*args):
                rows[name] += np.broadcast(*args[1:]).size
                return kernel(*args)

            return counted

        monkeypatch.setattr(pulses, "_triangle_integral", count(triangle, "T"))
        monkeypatch.setattr(signals, "_exp_poly_integral", count(exp_poly, "E"))
        counts = {}
        for n in (700, 2800):
            pulses._SEGMENT_CACHE.clear()
            rows.update(T=0, E=0)
            table = Tabulated(0.0, 4 * self.T / (n - 1), 1e-3 * np.random.default_rng(3).normal(size=(n, 2)))
            run_sequence(CFG, None, preset_cp(R0, self.T), table)
            counts[n] = dict(rows)
        for name in ("T", "E"):
            assert 0 < counts[2800][name] <= 2 * counts[700][name], counts
        assert counts[700]["T"] < 700, counts  # a per-piece pass makes 16 rows a piece (4 nu x 4 power pairs)

    def test_cold_tabulated_pass_calls_each_kernel_once(self, monkeypatch):
        """The table's terms have powers 0 and 1; E and T still run once each at the top of the pass."""
        calls = Counter()

        def count(kernel):
            def counted(*args):
                calls[kernel.__name__, sys._getframe(1).f_code.co_name] += 1
                return kernel(*args)

            return counted

        kernels = [signals._exp_poly_integral, signals._triangle_integral]
        for module in (signals, pulses):
            for kernel in kernels:
                if hasattr(module, kernel.__name__):
                    monkeypatch.setattr(module, kernel.__name__, count(kernel))
        run_sequence(CFG, None, preset_cp(R0, self.T), self.drives()["tabulated"])
        assert calls["_exp_poly_integral", "_piece_integrals"] == 1, calls
        assert calls["_triangle_integral", "_pair_sums"] == 1, calls

    def test_shapes_are_keyed_on_bits(self):
        """Rates +0.0 / -0.0 and widths one ulp apart stay distinct shapes; each pair keeps its bits."""
        still = Sinusoid(amplitude=(1e-3, -2e-3), omega=0.0, phase=0.4)
        twin = SumSignal([Constant(1e-3, 2e-3), Constant(-3e-3, 1e-3)])
        (terms,) = still.pieces(0.0, self.T).mu.tolist()
        assert [math.copysign(1.0, mu) for mu in terms] == [1.0, -1.0]
        rows = signals._concat([still.pieces(0.0, self.T), twin.pieces(0.0, self.T)])
        packed = signals._pack_pieces(rows, [0.0, 0.0])
        assert len(packed.width) == 2  # two shapes
        table = Tabulated(0.0, 4 * self.T / 696, 1e-3 * np.random.default_rng(5).normal(size=(697, 2)))
        whole = table.pieces(0.0, 4 * self.T)
        windows = [(a, b - a) for a, b in zip(whole.start[:40].tolist(), whole.end.tolist())]  # one piece each
        subs = [table.pieces(t, t + d) for t, d in windows]
        widths = np.unique(np.concatenate([sub.end - sub.start for sub in subs]))
        assert np.any(np.diff(widths) == np.spacing(widths[:-1]))  # neighbours one ulp apart
        pairs = [(still, 0.0, self.T), (twin, 0.0, self.T)] + [(table, *window) for window in windows]
        batched = pulses._segment_coeffs(CFG, pairs)
        for i, pair in enumerate(pairs):
            pulses._SEGMENT_CACHE.clear()
            single = pulses._segment_coeffs(CFG, [pair])
            for sigma in (+1, -1):
                assert [f[i] for f in batched[sigma]] == [f[0] for f in single[sigma]], (pair, sigma)

    def test_cold_cp_run_makes_one_kernel_pass(self, monkeypatch):
        calls = []
        kernel = pulses._piece_integrals
        monkeypatch.setattr(pulses, "_piece_integrals", lambda *args: calls.append(args) or kernel(*args))
        sequence = preset_cp(R0, self.T)
        cold = run_sequence(CFG, None, sequence, self.TONE)
        assert len(calls) == 1
        assert len(pulses._SEGMENT_CACHE) == 3  # one entry per window
        warm = run_sequence(CFG, None, sequence, self.TONE)
        assert len(calls) == 1
        assert (warm.signal, warm.phase, warm.state) == (cold.signal, cold.phase, cold.state)

    def test_mixed_drives_equal_one_pair_calls(self):
        windows = evolve_windows(preset_cp(R0, self.T))
        pairs = [(drive, *window) for drive in self.drives().values() for window in windows]
        batched = pulses._segment_coeffs(CFG, pairs)
        for i, pair in enumerate(pairs):
            pulses._SEGMENT_CACHE.clear()
            single = pulses._segment_coeffs(CFG, [pair])
            for sigma in (+1, -1):
                assert [f[i] for f in batched[sigma]] == [f[0] for f in single[sigma]], (pair, sigma)

    def test_long_sequence_equals_stepping_by_hand(self):
        """300 windows of one drive, more than the cache holds, step by step as by hand."""
        dt = self.T / 37
        steps = (RotateY(math.pi / 2), Displace(R0), *[Evolve(dt)] * 300, RotateY(-math.pi / 2))
        rec = run_sequence(CFG, None, PulseSequence(steps), self.TONE)
        assert len(pulses._SEGMENT_CACHE) == pulses._SEGMENT_CACHE_MAX
        state = apply_displacement(apply_rotation(ground_state(CFG), math.pi / 2), R0)
        for step in steps[2:-1]:
            state = apply_evolution(state, step.duration, self.TONE)
        state = apply_rotation(state, -math.pi / 2)
        assert rec.state == state

    def test_memo_stays_bounded_within_a_run(self, monkeypatch):
        """A run of 300 new windows memoizes only the last 128, never exceeding the bound."""

        class SizedCache(OrderedDict):
            inserts = largest = 0

            def __setitem__(self, key, value):
                super().__setitem__(key, value)
                self.inserts += 1
                self.largest = max(self.largest, len(self))

        cache = SizedCache()
        monkeypatch.setattr(pulses, "_SEGMENT_CACHE", cache)
        run_sequence(CFG, None, preset_cp(R0, self.T), self.TONE)
        steps = (RotateY(math.pi / 2), Displace(R0), *[Evolve(self.T / 37)] * 300, RotateY(-math.pi / 2))
        run_sequence(CFG, None, PulseSequence(steps), self.TONE)
        assert cache.largest == len(cache) == pulses._SEGMENT_CACHE_MAX
        assert cache.inserts == 3 + pulses._SEGMENT_CACHE_MAX

    def test_warm_run_looks_each_window_up_once(self, monkeypatch):
        class CountingCache(OrderedDict):
            gets = 0

            def get(self, key, default=None):
                self.gets += 1
                return super().get(key, default)

        cache = CountingCache()
        monkeypatch.setattr(pulses, "_SEGMENT_CACHE", cache)
        sequence = preset_cp(R0, self.T)
        run_sequence(CFG, None, sequence, self.TONE)
        cache.gets = 0
        run_sequence(CFG, None, sequence, self.TONE)
        assert cache.gets == 3  # one lookup per window

    def test_cp_run_after_up_run_computes_only_its_new_windows(self, monkeypatch):
        """A cp run takes its first window from the up run of the same table and keeps a cold run's bits."""
        sent = []
        segment = pulses._segment_coeffs

        def counted(config, pairs):
            sent.append([pair[1:] for pair in pairs])
            return segment(config, pairs)

        monkeypatch.setattr(pulses, "_segment_coeffs", counted)
        values = 1e-3 * np.random.default_rng(8).normal(size=(401, 2))
        drive = Tabulated(0.0, 4 * self.T / 400, values)
        run_sequence(CFG, None, preset_up(R0, self.T), drive)
        warm = run_sequence(CFG, None, preset_cp(R0, self.T), drive)
        windows = evolve_windows(preset_cp(R0, self.T))
        assert evolve_windows(preset_up(R0, self.T)) == windows[:1]  # the window both runs share
        assert sent == [windows[:1], windows[1:]]
        cold = run_sequence(CFG, None, preset_cp(R0, self.T), Tabulated(0.0, 4 * self.T / 400, values))
        assert sent[2] == windows
        for name in ("signal", "coherence", "phase", "expectations", "norm", "trace", "state"):
            assert repr(getattr(warm, name)) == repr(getattr(cold, name)), name

    def test_drive_per_sample_walk_matches_scalar_runs(self, monkeypatch):
        calls = []
        kernel = pulses._piece_integrals
        monkeypatch.setattr(pulses, "_piece_integrals", lambda *args: calls.append(args) or kernel(*args))
        sequence = preset_cp(R0, self.T)
        drives = tuple(Sinusoid((0.0, 2e-3), w * WT, phi) for w in (0.3, 1.2, 2.9) for phi in (0.0, 1.1))
        coh_state = pulses._coherence_walk(ground_state(CFG), sequence, drives)
        phases = pulses._coherence_record(coh_state)[2]
        assert len(calls) == 1 and phases.shape == (len(drives),)
        for drive, phase in zip(drives, phases):
            want = run_sequence(CFG, None, sequence, drive).phase
            assert abs(phase - want) <= 1e-12 * abs(want), drive

    def test_unhashable_drive_is_computed_not_cached(self):
        sequence = preset_cp(R0, self.T)
        twin = UnhashableDrive(self.TONE)
        with pytest.raises(TypeError):
            hash(twin)
        a_plus, a_minus = np.array([0.3 + 0.1j, -0.2j]), np.array([0.1, 0.4 - 0.2j])
        want = run_sequence(CFG, None, sequence, self.TONE)
        want_batch = batch_signal(CFG, a_plus, a_minus, sequence, self.TONE)
        cached = list(pulses._SEGMENT_CACHE.items())
        got = run_sequence(CFG, None, sequence, twin)
        got_batch = batch_signal(CFG, a_plus, a_minus, sequence, twin)
        assert list(pulses._SEGMENT_CACHE.items()) == cached
        for name in ("signal", "phase", "coherence", "state"):
            assert getattr(got, name) == getattr(want, name), name
        assert np.array_equal(got_batch, want_batch)



@dataclass(frozen=True)
class Ramp(ForceSignal):
    """gtilde(t) = slope * t, with ``pieces`` only: its windows take the default class-level entry."""

    slope: complex

    def evaluate(self, t):
        g = self.slope * np.asarray(t, dtype=float)
        return np.array([g.real, g.imag])

    def pieces(self, t0, t1):
        return signals.PieceTable(np.array([t0]), np.array([t1]), np.array([[self.slope * t0, self.slope]]),
                                  np.zeros((1, 2)), np.array([[0, 1]]), np.ones((1, 2), bool))


def test_pass_of_mixed_classes_equals_one_pair_calls():
    """Pairs of interleaved drive classes, grouped per class for their rows, keep the bits of one-pair calls."""
    t = math.pi / WT
    table = Tabulated(0.0, 4 * t / 300, 1e-3 * np.random.default_rng(6).normal(size=(301, 2)))
    tone = Sinusoid((0.0, 2e-3), 1.2 * WT, 0.3)
    drives = [
        tone, Constant(1e-3, -0.0), table, Ramp(3e-2 - 1e-2j), Zero(), Sinusoid((-0.0, 1e-3), 0.7 * WT, -0.0),
        SumSignal([Constant(2e-4, 1e-4), SumSignal([table, Sinusoid((1e-3, 0.0), 0.8 * WT)])]), Zero(),
        Constant(-3e-4, 2e-4), Ramp(-1e-2j), circular(2e-3, 1.37 * WT, 0.4), tone,
    ]
    windows = [(0.0, t), (1e-3, 0.5 * t), (t, 2.0 * t)]
    pairs = [(d, *windows[i % 3]) for i, d in enumerate(drives)] + [(d, *windows[0]) for d in drives[::-1]]
    pulses._SEGMENT_CACHE.clear()
    batched = pulses._segment_coeffs(CFG, pairs)
    for i, pair in enumerate(pairs):
        single = pulses._segment_coeffs(CFG, [pair])
        for sigma in (+1, -1):
            for name in pulses._SegmentCoeffs._fields:
                got, want = getattr(batched[sigma], name)[i], getattr(single[sigma], name)[0]
                assert np.array(got).tobytes() == np.array(want).tobytes(), (i, sigma, name)


def big_branches(n):
    """Two spin-up branches with equal amplitudes and weights of 1.5e308: their sum overflows."""
    def field(v):
        return v if n is None else np.full(n, v)

    twin = Branch(+1, field(1.5e308 + 0j), field(0.1 + 0.2j), field(-0.3j), field(0.4))
    return SpinorCoherentState(CFG, (twin, Branch(+1, twin.weight, twin.alpha_plus, twin.alpha_minus, twin.phase)))


@pytest.mark.parametrize("n", [None, 3])
def test_merging_weights_that_overflow_is_parameter_error(n):
    """A rotation's merge replaces only the weight, and the weight is still checked."""
    state = big_branches(n)
    with pytest.raises(ParameterError, match=r"^Branch\.weight is not finite$"):
        apply_rotation(state, 0.0)


@pytest.mark.parametrize("n", [None, 3])
@pytest.mark.parametrize("primitive, a_plus, arg", [
    (apply_displacement, 1.7e308, (-1e308 * L, 0.0)),  # the kick's sum overflows
    (apply_rotation, 1e306, math.pi / 2),  # the flipped branch's center overflows
])
def test_direct_primitive_that_overflows_is_parameter_error(primitive, a_plus, arg, n):
    """Called outside a walk, on scalar or array branches, a primitive raises as quietly as a walk."""
    def field(v):
        return v if n is None else np.full(n, v)

    state = SpinorCoherentState(CFG, (Branch(+1, field(1.0 + 0j), field(a_plus + 0j), field(0j)),))
    with pytest.raises(ParameterError, match=r"^Branch\.alpha_plus is not finite$"):
        primitive(state, arg)


@pytest.mark.parametrize("n", [None, 3])
def test_evolution_whose_phase_overflows_is_parameter_error(n):
    """An evolution replaces amplitudes and phase; a phase past the float range is reported."""
    drive, t = Constant(1e-3, 0.0), math.pi / WT
    a_plus = 1e300 + 0j
    gain = (pulses._segment_coeffs(CFG, [(drive, 0.0, t)])[+1].p_lin[0] * a_plus).real
    assert 1e295 < abs(gain) < 1e307
    top = math.copysign(sys.float_info.max, gain)
    branch = Branch(+1, 1.0 + 0j, a_plus, 0j, top) if n is None else Branch(
        +1, 1.0 + 0j, np.full(n, a_plus), np.zeros(n, complex), np.full(n, top))
    state = SpinorCoherentState(CFG, (branch,))
    with pytest.raises(ParameterError, match=r"^Branch\.phase is not finite$"):
        apply_evolution(state, t, drive)


def pair_sums_reference(packed, nu, integrals, bounds):
    """W per window from a plain loop over nu, windows, pieces and each piece's valid term pairs.

    The P part is a running Python sum; a window's T terms, taken piece by piece and pair by
    pair, are summed by one ``np.add.reduceat``, the reduction behind the engine's window sums.
    """
    w = np.zeros((len(nu), len(bounds) - 1), dtype=complex)
    terms = range(packed.coef.shape[1])
    for n, v in enumerate(nu.tolist()):
        for i, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
            running, p_part, conj_c, c, t = 0j, 0j, [], [], []
            for k in range(lo, hi):
                p_part += integrals[n, k].conjugate() * running
                running += integrals[n, k]
                s = packed.shape[k]
                for a, b in ((a, b) for a in terms for b in terms if packed.valid[s, a] and packed.valid[s, b]):
                    conj_c.append(packed.coef[k, a].conjugate())
                    c.append(packed.coef[k, b])
                    power, mu = packed.power[s].tolist(), packed.mu[s]
                    t.append(signals._triangle_integral(power[a], v - mu[a], power[b], mu[b] - v, packed.width[s]))
            products = np.array(conj_c, dtype=complex) * np.array(c, dtype=complex) * np.array(t, dtype=complex)
            w[n, i] = p_part + (np.add.reduceat(products, [0])[0] if t else 0j)
    return w


@pytest.mark.parametrize("kind", ["zero", "constant", "sinusoid", "circular", "mixed", "tabulated", "sum"])
def test_pair_sums_equal_a_per_piece_loop(kind):
    """Bit for bit where every term has power 0; within 1e-13 where a table mixes powers 0 and 1."""
    t = math.pi / WT
    table = Tabulated(0.0, 4 * t / 60, 1e-3 * np.random.default_rng(4).normal(size=(61, 2)))
    tone = Sinusoid(amplitude=(0.0, 2e-3), omega=1.2 * WT, phase=0.3)
    drives = {
        "zero": [Zero()],
        "constant": [Constant(1e-3, -2e-3)],
        "sinusoid": [tone],
        "circular": [circular(2e-3, 1.37 * WT, 0.4)],
        "mixed": [Zero(), tone, Constant(1e-3, -2e-3), circular(2e-3, 1.37 * WT, 0.4)],  # padded terms
        "tabulated": [table],
        "sum": [SumSignal([table, Sinusoid((1e-3, 0.0), 0.8 * WT)])],
    }[kind]
    pairs = [(drive, *window) for drive in drives for window in evolve_windows(preset_cp(R0, t))]
    tables = [drive.pieces(t0, t0 + d) for drive, t0, d in pairs]
    counts = [len(table) for table in tables]
    packed = signals._pack_pieces(signals._concat(tables), np.repeat([t0 for _, t0, _ in pairs], counts))
    bounds = np.cumsum([0] + counts).tolist()
    nu = np.array([MODES.omega_minus, -MODES.omega_plus, MODES.omega_plus, -MODES.omega_minus])
    integrals = signals._piece_integrals(packed, nu)
    got, want = pulses._pair_sums(packed, nu, integrals, bounds), pair_sums_reference(packed, nu, integrals, bounds)
    if kind in ("tabulated", "sum"):
        assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))
    else:
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("big", [1e308, 1e150, 1e100])
def test_overflowing_drive_names_its_window(big):
    """One finite sample whose square or phase overflows is reported with its window, without numpy warnings."""
    values = np.zeros((41, 2))
    values[20, 1] = big
    drive, sequence = Tabulated(0.0, 12.5e-6, values), preset_up(R0, 5e-4)
    if big < 1e150:
        assert math.isfinite(run_sequence(CFG, None, sequence, drive).phase)
    else:
        message = r"^drive overflows the segment coefficients on \[0, 0\.0005\] s$"
        with pytest.raises(ParameterError, match=message):
            run_sequence(CFG, None, sequence, drive)


class TestNormConservation:
    def test_norm_after_every_primitive(self):
        t = 1.1 * math.pi / WT  # deliberately off the echo timing
        drive = Sinusoid(amplitude=(0.0, 5e-4 * L * WT**2), omega=0.9 * WT, phase=0.1)
        state = ground_state(CFG)
        for step in preset_cp(R0, t):
            if isinstance(step, RotateY):
                state = apply_rotation(state, step.angle)
            elif isinstance(step, Displace):
                state = apply_displacement(state, step.shift)
            elif isinstance(step, Evolve):
                state = apply_evolution(state, step.duration, drive=drive)
            else:
                continue
            assert abs(norm_of(state) - 1.0) < 1e-10, f"norm drifted after {type(step).__name__}"


class TestCoherenceEnvelope:
    def test_revivals_at_beat_closure(self):
        # both spin paths return to the release point when the beat phase
        # omega_c t / 2 is a multiple of pi; at epsilon = 3 that is even n
        for n in (2, 4, 6, 8):
            rec = run_sequence(CFG, None, preset_up(R0, math.pi * n / WT), None)
            assert abs(rec.coherence - 1.0) < 1e-9, f"n = {n}: coherence {rec.coherence}"

    def test_overlap_envelope_formula(self):
        # the spin paths separate by 2 |r0| h_perp(t), so the coherence is the
        # Gaussian overlap of two displaced wavepackets
        for t in np.linspace(0.07, 1.93, 20) * math.pi / WT:
            rec = run_sequence(CFG, None, preset_up(R0, float(t)), None)
            pred = math.exp(-((2.0 * math.hypot(*R0) / L) * h_perp(MODES, float(t))) ** 2)
            assert abs(rec.coherence - pred) < 1e-6 * pred, f"t*wt/pi = {t * WT / math.pi:.3f}"

    def test_undriven_signal_is_zero(self):
        # mirror symmetry of the two spin paths leaves no differential phase
        rec = run_sequence(CFG, None, preset_up(R0, 0.83 * math.pi / WT), None)
        assert abs(rec.signal) < 1e-14
        assert abs(rec.phase) < 1e-14


class TestSignalLaw:
    @staticmethod
    def oracle_phase(drive, t, n_pts=200001):
        """Independent quadrature of 2 (m/hbar) int (zhat x r0) . g h_perp dt."""
        tt = np.linspace(0.0, t, n_pts)
        g = drive.evaluate(tt).T
        perp = np.array([-R0[1], R0[0]])
        m_over_h = 1.0 / (WT * L**2)
        return 2.0 * m_over_h * np.trapezoid((g @ perp) * h_perp(MODES, tt), tt)

    def test_weak_drive_signal_matches_quadrature(self):
        t = 4 * math.pi / WT
        for om in (0.4 * WT, 1.3 * WT):
            amp0 = 1e-4 * L * WT**2
            ph0 = self.oracle_phase(Sinusoid(amplitude=(0.0, amp0), omega=om, phase=0.7), t)
            amp = amp0 * 1e-3 / abs(ph0)
            drive = Sinusoid(amplitude=(0.0, amp), omega=om, phase=0.7)
            rec = run_sequence(CFG, None, preset_up(R0, t), drive)
            pred = math.sin(self.oracle_phase(drive, t))
            assert abs(rec.signal - pred) < 1e-4 * abs(pred), f"omega/wt = {om / WT}"

    def test_signal_identity(self):
        drive = Sinusoid(amplitude=(0.0, 2e-3 * L * WT**2), omega=1.1 * WT, phase=0.3)
        rec = run_sequence(CFG, None, preset_up(R0, 2.4 * math.pi / WT), drive)
        assert abs(rec.signal - rec.coherence * math.sin(rec.phase)) < 1e-12


class TestConstantDriveRejection:
    def test_echo_cancels_static_force_exactly(self):
        # pi pulses at velocity-zero times reverse the orbit, so a constant
        # force contributes equal and opposite phase on the two halves
        t = math.pi / WT
        for g0 in (0.04 * L * WT**2, 0.02 * L * WT**2, 0.01 * L * WT**2):
            rec = run_sequence(CFG, None, preset_cp(R0, t), Constant(0.0, g0))
            assert abs(rec.signal) < 1e-12, f"g0 = {g0}: leaked {rec.signal}"


class TestRunSequence:
    def test_initial_forms_agree(self):
        t = 0.6 * math.pi / WT
        rec_none = run_sequence(CFG, None, preset_up(R0, t), None)
        rec_point = run_sequence(CFG, PhaseSpacePoint(0, 0, 0, 0), preset_up(R0, t), None)
        rec_state = run_sequence(CFG, ground_state(CFG), preset_up(R0, t), None)
        assert rec_none.coherence == rec_point.coherence == rec_state.coherence
        assert rec_none.expectation == rec_point.expectation == rec_state.expectation

    def test_rejects_foreign_config_state(self):
        other = TrapConfig.from_modes(MASS, 2 * math.pi * 700.0, 2.0)
        with pytest.raises(ParameterError):
            run_sequence(CFG, ground_state(other), preset_up(R0, 1e-3), None)

    def test_rejects_unknown_initial(self):
        with pytest.raises(ParameterError):
            run_sequence(CFG, "ground", preset_up(R0, 1e-3), None)

    def test_record_fields(self):
        drive = Sinusoid(amplitude=(0.0, 1e-3 * L * WT**2), omega=0.9 * WT, phase=0.0)
        rec = run_sequence(CFG, None, preset_up(R0, 1.7 * math.pi / WT), drive)
        assert rec.axis == "z"
        assert rec.expectation == rec.expectations["z"]
        assert set(rec.expectations) == {"x", "y", "z"}
        assert abs(rec.norm - 1.0) < 1e-10
        assert -1.0 <= rec.expectation <= 1.0
        assert 0.0 <= rec.coherence <= 1.0 + 1e-12

    def test_trace_structure(self):
        seq = preset_cp(R0, math.pi / WT)
        rec = run_sequence(CFG, None, seq, None)
        assert len(rec.trace) == len(seq) + 1
        assert rec.trace[0][0] == "init"
        times = [entry[1] for entry in rec.trace]
        assert times == sorted(times)
        assert times[-1] == 4 * math.pi / WT

    def test_no_readout_leaves_expectation_none(self):
        seq = PulseSequence(steps=(RotateY(math.pi / 2), Evolve(1e-4)))
        rec = run_sequence(CFG, None, seq, None)
        assert rec.expectation is None and rec.axis is None
        assert rec.expectations["x"] == pytest.approx(1.0, abs=1e-12)


def thermal_amplitudes(count: int, seed: int = 0):
    """Circular Gaussian mode amplitudes at the scale of a thermal cloud."""
    rng = np.random.default_rng(seed)
    a_plus = 1.5 * (rng.normal(size=count) + 1j * rng.normal(size=count))
    a_minus = 0.8 * (rng.normal(size=count) + 1j * rng.normal(size=count))
    return a_plus, a_minus


def batch_state(a_plus, a_minus):
    """Spin-up state with the given amplitudes; arrays hold one sample per entry."""
    branch = Branch(spin=+1, weight=1.0 + 0.0j, alpha_plus=a_plus, alpha_minus=a_minus)
    return SpinorCoherentState(config=CFG, branches=(branch,))


def per_sample_signals(a_plus, a_minus, seq, drive):
    return np.array(
        [
            run_sequence(CFG, batch_state(ap, am), seq, drive).signal
            for ap, am in zip(a_plus.tolist(), a_minus.tolist())
        ]
    )


class TestBatchSignal:
    DRIVE = Sinusoid(amplitude=(0.15, 0.1), omega=0.7 * WT, phase=0.4)

    @pytest.mark.parametrize("kind", ["up", "cp"])
    def test_presets_match_per_sample_runs(self, kind):
        t = math.pi / WT
        seq = preset_up(R0, 4 * t) if kind == "up" else preset_cp(R0, t, modes=MODES)
        a_plus, a_minus = thermal_amplitudes(40)
        want = per_sample_signals(a_plus, a_minus, seq, self.DRIVE)
        got = batch_signal(CFG, a_plus, a_minus, seq, self.DRIVE)
        assert np.ptp(want) > 1e-3, "samples must not all give the same signal"
        assert np.max(np.abs(got - want)) < 1e-12

    def test_custom_sequence_matches_per_sample_runs(self):
        t = math.pi / WT
        times = np.arange(0.0, 4 * t + 1e-4, 1e-4)
        values = np.column_stack([0.2 * np.sin(0.9 * WT * times), 0.05 * np.cos(1.3 * WT * times)])
        table = Tabulated(0.0, 1e-4, values)
        seq = PulseSequence(
            steps=(
                RotateY(math.pi / 2),
                Displace(R0),
                Evolve(t, mode="first_order"),
                Evolve(2 * t, drive=table),
                Displace((-0.5 * L, 0.3 * L)),
                Evolve(t),
                RotateY(-math.pi / 2),
                Readout("z"),
            )
        )
        a_plus, a_minus = thermal_amplitudes(30, seed=1)
        want = per_sample_signals(a_plus, a_minus, seq, self.DRIVE)
        got = batch_signal(CFG, a_plus, a_minus, seq, self.DRIVE)
        assert np.ptp(want) > 1e-3
        assert np.max(np.abs(got - want)) < 1e-12

    def test_merging_sequence_matches_per_sample_runs(self):
        t = 4 * math.pi / WT
        seq = PulseSequence(steps=(RotateY(math.pi / 2), RotateY(-math.pi / 2), *preset_up(R0, t).steps))
        a_plus, a_minus = thermal_amplitudes(30, seed=2)
        rec = run_sequence(CFG, state_at(CFG, PhaseSpacePoint(L, 0.0, 0.0, 0.0)), seq, self.DRIVE)
        assert len(rec.trace[2][2]) == 1, "the split and its inverse merge back into one branch"
        merged = apply_rotation(apply_rotation(batch_state(a_plus, a_minus), math.pi / 2), -math.pi / 2)
        assert len(merged.branches) == 1 and merged.branches[0].spin == +1
        want = per_sample_signals(a_plus, a_minus, seq, self.DRIVE)
        got = batch_signal(CFG, a_plus, a_minus, seq, self.DRIVE)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_merge_needs_every_sample_within_tolerance(self):
        def branch(ap):
            ap = np.asarray(ap, dtype=complex)
            return Branch(spin=+1, weight=0.5 + 0.0j, alpha_plus=ap, alpha_minus=np.zeros_like(ap))

        assert len(_merge_branches([branch([0.0, 1.0]), branch([1e-14, 1.0])])) == 1
        assert len(_merge_branches([branch([0.0, 1.0]), branch([0.0, 1.0 + 1e-6])])) == 2

    def test_blocks_do_not_change_the_result(self, monkeypatch):
        seq = preset_cp(R0, math.pi / WT, modes=MODES)
        a_plus, a_minus = thermal_amplitudes(13, seed=3)
        whole = batch_signal(CFG, a_plus, a_minus, seq, self.DRIVE)
        monkeypatch.setattr(pulses, "_BATCH_BLOCK", 5)
        assert np.max(np.abs(batch_signal(CFG, a_plus, a_minus, seq, self.DRIVE) - whole)) < 1e-12

    def test_shape_validation(self):
        seq = preset_up(R0, 1e-3)
        with pytest.raises(ParameterError):
            batch_signal(CFG, np.zeros(3), np.zeros(4), seq)
        with pytest.raises(ParameterError):
            batch_signal(CFG, np.zeros((2, 2)), np.zeros((2, 2)), seq)

    def test_non_finite_amplitude_rejected(self):
        with pytest.raises(ParameterError):
            batch_signal(CFG, np.array([0j, complex(math.inf, 0.0)]), np.zeros(2), preset_up(R0, 1e-3))


def assert_same_state_bits(got, want):
    """Two states with the same bookkeeping and, branch by branch, the same bits in every field."""
    assert (got.config, got.origin, got.time) == (want.config, want.origin, want.time)
    assert len(got.branches) == len(want.branches)
    for k, (a, b) in enumerate(zip(got.branches, want.branches)):
        for name in ("spin", "weight", "alpha_plus", "alpha_minus", "phase"):
            x, y = np.asarray(getattr(a, name)), np.asarray(getattr(b, name))
            assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), (k, name)


def coherence_reference(state, sequence, drives, per_sample=False):
    """(coherence state, whole walk) read off a whole walk's trace: the state just before the
    most recent RotateY when no Displace or Evolve follows that rotation, else the final state."""
    trace = [("init", state.time, state.branches)]
    final, axis = pulses._walk(state, sequence, drives, trace, per_sample)
    before = None
    for k, step in enumerate(sequence):
        if isinstance(step, RotateY):
            before = trace[k]
        elif not isinstance(step, Readout):
            before = None
    coherence = final if before is None else replace(final, time=before[1], branches=before[2])
    return coherence, (final, axis, trace)


class TestCoherenceWalk:
    """The coherence walk stops before a trailing RotateY and keeps the bits of a whole walk."""

    T = math.pi / WT
    TONE = Sinusoid(amplitude=(0.1, -0.2), omega=0.7 * WT, phase=0.4)
    SPLIT = (RotateY(math.pi / 2), Displace(R0), Evolve(T))
    SEQUENCES = {
        "up": preset_up(R0, 2 * T),
        "cp": preset_cp(R0, T),
        "two trailing rotations": PulseSequence(SPLIT + (RotateY(math.pi / 3), RotateY(-math.pi / 2), Readout("z"))),
        "ends in an evolution": PulseSequence(SPLIT + (RotateY(-math.pi / 2), Evolve(0.5 * T))),
        "readout before the last rotation": SPLIT + (Readout("x"), RotateY(-math.pi / 2)),  # a walk takes any steps
        "zero evolution after the last rotation": PulseSequence(SPLIT + (RotateY(-math.pi / 2), Evolve(0.0))),
    }

    @classmethod
    def walks(cls):
        """(initial state, drives, per_sample) of a scalar, a 2,048-sample and a per-sample probe walk."""
        a_plus, a_minus = thermal_amplitudes(2048, seed=5)
        probes = tuple(Sinusoid((0.0, 2e-3), w * WT, phi) for w in (0.3, 1.2, 2.9) for phi in (0.0, 1.1))
        return {
            "scalar": (state_at(CFG, PhaseSpacePoint(0.7 * L, -0.2 * L, 0.0, 0.0)), (cls.TONE,), False),
            "samples": (batch_state(a_plus, a_minus), (cls.TONE,), False),
            "probes": (ground_state(CFG), probes, True),
        }

    @pytest.mark.parametrize("walk", ["scalar", "samples", "probes"])
    @pytest.mark.parametrize("name", list(SEQUENCES))
    def test_state_equals_the_whole_walks_coherence_state(self, name, walk):
        state, drives, per_sample = self.walks()[walk]
        sequence = self.SEQUENCES[name]
        want = coherence_reference(state, sequence, drives, per_sample)[0]
        assert_same_state_bits(pulses._coherence_walk(state, sequence, drives, per_sample), want)

    @pytest.mark.parametrize("name", list(SEQUENCES))
    def test_run_sequence_keeps_the_whole_walk(self, name):
        """Its coherence fields come from the coherence state; its state, trace and axis from the whole walk."""
        state, drives, _ = self.walks()["scalar"]
        want, (final, axis, trace) = coherence_reference(state, self.SEQUENCES[name], drives)
        record = run_sequence(CFG, state, self.SEQUENCES[name], self.TONE)
        got = np.array([record.signal, record.coherence, record.phase])
        assert got.tobytes() == np.array(pulses._coherence_record(want)).tobytes()
        assert_same_state_bits(record.state, final)
        assert (record.axis, repr(record.trace)) == (axis, repr(tuple(trace)))

    def test_trailing_rotation_is_not_computed(self, monkeypatch):
        rotations = []
        rotate = pulses._rotate
        monkeypatch.setattr(pulses, "_rotate", lambda state, angle: rotations.append(angle) or rotate(state, angle))
        pulses._coherence_walk(ground_state(CFG), preset_cp(R0, self.T), (self.TONE,))
        assert rotations == [math.pi / 2, math.pi, math.pi]


def gram_sums_reference(state):
    """The all-pairs loop: every overlap formed, self-overlaps included."""
    modes = state.modes
    ups = [(b, b.amplitude) for b in state.branches if b.spin == +1]
    downs = [(b, b.amplitude) for b in state.branches if b.spin == -1]

    def overlap(b1, b2):
        dz = modes.l_osc * (b1.alpha_plus + b1.alpha_minus.conjugate()) - modes.l_osc * (
            b2.alpha_plus + b2.alpha_minus.conjugate())
        return pulses._exp(-((abs(dz) / modes.l_osc) ** 2))

    def block(rows, cols):
        tot = 0.0 + 0.0j
        for a, amp_a in rows:
            for b, amp_b in cols:
                tot += amp_a.conjugate() * amp_b * overlap(a, b)
        return tot

    n_up, n_down = block(ups, ups).real, block(downs, downs).real
    return n_up, n_down, block(ups, downs), n_up + n_down


class TestGramSums:
    COUNTS = [(1, 1), (2, 1), (1, 3), (3, 2), (2, 2), (1, 2)]  # branches of spin up, spin down

    def random_state(self, seed, n):
        """Branches within a few l of each other; some weights and phases hold signed zeros."""
        rng = np.random.default_rng(seed)
        shape = () if n is None else (n,)

        def field(scale, imag=None):
            v = np.empty(shape, complex)
            v.real = scale * rng.normal(size=shape)
            v.imag = scale * rng.normal(size=shape) if imag is None else imag
            return v if n else v.item()

        branches = []
        for spin, count in zip((+1, -1), self.COUNTS[seed % len(self.COUNTS)]):
            for k in range(count):
                weight = field(0.5, imag=-0.0 if k == 1 else None)
                phase = 0.0 if k == 2 else field(2.0, imag=0.0).real
                branches.append(Branch(spin, weight, field(1.5), field(1.0), phase))
        return SpinorCoherentState(CFG, tuple(branches))

    @pytest.mark.parametrize("n", [None, 2048])
    @pytest.mark.parametrize("seed", range(12))
    def test_equals_the_all_pairs_loop(self, seed, n):
        state = self.random_state(seed, n)
        for got, want in zip(_gram_sums(state), gram_sums_reference(state), strict=True):
            got, want = np.asarray(got), np.asarray(want)
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())

    @pytest.mark.parametrize("n", [None, 3])
    def test_overflowing_center_is_parameter_error(self, n):
        """alpha_+ = alpha_- = 1e308: a finite branch whose center overflows, so its self-overlap is NaN."""
        big = 1e308 + 0j if n is None else np.full(n, 1e308 + 0j)
        state = SpinorCoherentState(CFG, (Branch(+1, 1.0 + 0j, big, big),))
        with pytest.raises(ParameterError, match="^state has zero norm$"):
            run_sequence(CFG, state, PulseSequence((Evolve(1e-3),)), None)

    @pytest.mark.parametrize("n", [None, 3])
    def test_overflowing_self_product_is_parameter_error(self, n):
        """Weight 1e155 (1 + i): conj(a) a is inf + nan i, and times the self-overlap 1.0 its real part is NaN."""
        weight = 1e155 * (1 + 1j) if n is None else np.full(n, 1e155 * (1 + 1j))
        state = SpinorCoherentState(CFG, (Branch(+1, weight, 0.1 + 0j, 0.2j),))
        with np.errstate(over="ignore", invalid="ignore"):  # the array product warns as it overflows
            with pytest.raises(ParameterError, match="^state has zero norm$"):
                _gram_sums(state)
            with pytest.raises(ParameterError, match="^state has zero norm$"):
                run_sequence(CFG, state, PulseSequence((Evolve(1e-3),)), None)

    @pytest.mark.parametrize("n", [None, 3])
    def test_centers_up_to_the_bound_agree_and_past_it_raise(self, n):
        """Two up branches at +-x l: up to x = 2^510 scalar and array sums agree without a warning
        (their overlap is exp(-2^1022) = 0); past it both raise, where the array's squared
        separation used to overflow with a RuntimeWarning to an overlap of 0."""
        def state(x):
            field = (lambda v: v) if n is None else (lambda v: np.full(n, v))
            return SpinorCoherentState(CFG, (
                Branch(+1, field(0.6 + 0j), field(x + 0j), field(0j)),
                Branch(+1, field(0.8j), field(-x + 0j), field(0j)),
            ))

        sums = _gram_sums(state(2.0**509))
        assert [np.asarray(v).tolist() for v in sums] == [1.0, 0.0, 0j, 1.0] if n is None else [
            [1.0] * n, [0.0] * n, [0j] * n, [1.0] * n]
        for x in (2.0**511, 1e250):
            with pytest.raises(ParameterError, match="^branch centers lie too far apart for their orbital overlap$"):
                _gram_sums(state(x))

    @pytest.mark.parametrize("r0", [1e200, 1e300])
    def test_centers_too_far_apart_is_parameter_error(self, r0):
        """Branches whose separation over l squares past the float range: a ParameterError, not an OverflowError.

        At r0 = 1e300 m the whole walk fails first at its recombination rotation, which the
        coherence walk of ``thermal_signal`` does not compute; the overlap then fails."""
        sequence, drive = preset_up((r0, 0.0), 4 * math.pi / WT), circular(0.68, 1.5 * WT, -1)
        with pytest.raises(ParameterError):
            run_sequence(CFG, None, sequence, drive)
        with pytest.raises(ParameterError, match="^branch centers lie too far apart for their orbital overlap$"):
            thermal_signal(CFG, sequence, drive, ThermalParams(1.0, 1.0), 100, 0)


class TestPresets:
    def test_up_structure(self):
        seq = preset_up(R0, 2e-3)
        assert seq.name == "up" and len(seq) == 5
        r1, d, e, r2, ro = seq
        assert isinstance(r1, RotateY) and r1.angle == math.pi / 2
        assert isinstance(d, Displace) and d.shift == R0
        assert isinstance(e, Evolve) and e.duration == 2e-3 and e.mode == "exact"
        assert isinstance(r2, RotateY) and r2.angle == -math.pi / 2
        assert isinstance(ro, Readout) and ro.axis == "z"

    def test_cp_structure(self):
        t = 1.5e-3
        seq = preset_cp(R0, t)
        assert seq.name == "cp" and len(seq) == 9
        kinds = [type(s).__name__ for s in seq]
        assert kinds == [
            "RotateY", "Displace", "Evolve", "RotateY", "Evolve",
            "RotateY", "Evolve", "RotateY", "Readout",
        ]
        assert [s.duration for s in seq if isinstance(s, Evolve)] == [t, 2 * t, t]
        assert [s.angle for s in seq if isinstance(s, RotateY)] == [
            math.pi / 2, math.pi, math.pi, -math.pi / 2,
        ]

    def test_invalid_duration(self):
        with pytest.raises(ParameterError):
            preset_up(R0, 0.0)
        with pytest.raises(ParameterError):
            preset_cp(R0, -1e-3)

    def test_cp_warns_off_velocity_zero_timing(self):
        with pytest.warns(UserWarning, match="velocity-zero"):
            preset_cp(R0, 1.37 * math.pi / WT, modes=MODES)

    def test_cp_quiet_on_velocity_zero_timing(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            preset_cp(R0, 3 * math.pi / WT, modes=MODES)

    def test_cp_returns_centers_to_start(self):
        # at t = pi/omega_tilde the pi pulses time-reverse the orbit, so every
        # final branch sits back at the release point with zero velocity
        rec = run_sequence(CFG, None, preset_cp(R0, math.pi / WT), None)
        scale = abs(complex(*R0))
        for b in rec.state.branches:
            zeta, zdot = center_of(b)
            assert abs(zeta + complex(*R0)) < 1e-9 * scale, "position did not return"
            assert abs(zdot) < 1e-9 * scale * WT, "velocity did not vanish"
        assert abs(rec.coherence - 1.0) < 1e-9


class TestPulseSequenceValidation:
    def test_readout_must_be_terminal(self):
        with pytest.raises(ParameterError):
            PulseSequence(steps=(Readout("z"), RotateY(1.0)))

    def test_rejects_unknown_primitive(self):
        with pytest.raises(ParameterError):
            PulseSequence(steps=(RotateY(1.0), "measure"))

    def test_readout_axis_validation(self):
        with pytest.raises(ParameterError):
            Readout("q")

    def test_branch_requires_finite_entries(self):
        with pytest.raises(ParameterError):
            Branch(spin=+1, weight=complex(math.nan), alpha_plus=0j, alpha_minus=0j)

    def test_expectation_axis_validation(self):
        with pytest.raises(ParameterError):
            expectation_spin(ground_state(CFG), "r")
