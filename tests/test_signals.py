"""Drive waveforms: pointwise evaluation, piece expansions, exact modal integrals."""
import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from socaccel import (
    Constant,
    CoverageError,
    ForceSignal,
    ParameterError,
    PieceTable,
    Sinusoid,
    SumSignal,
    Tabulated,
    TrapConfig,
    Zero,
    circular,
    modal_integral,
    signals,
)
from socaccel.pulses import Branch, SpinorCoherentState, _segment_coeffs, apply_evolution
from socaccel.signals import _concat, _exp_poly_integral, _pack_pieces, _triangle_integral


def line_integral(mu: float, delta: float) -> complex:
    """integral_0^delta exp(i mu tau) dtau, reference implementation.

    exp(i x) - 1 written as -2 sin^2(x/2) + i sin(x) to stay accurate for
    small x.
    """
    if mu == 0.0:
        return complex(delta)
    x = mu * delta
    return complex(-2.0 * math.sin(0.5 * x) ** 2, math.sin(x)) / (1j * mu)


def ramp_integral(a: complex, b: complex, mu: float, delta: float) -> complex:
    """integral_0^delta (a + b tau) exp(i mu tau) dtau via quadrature."""
    re = quad(lambda x: ((a + b * x) * np.exp(1j * mu * x)).real, 0.0, delta, limit=400)[0]
    im = quad(lambda x: ((a + b * x) * np.exp(1j * mu * x)).imag, 0.0, delta, limit=400)[0]
    return complex(re, im)


def sinusoid_modal_oracle(sig: Sinusoid, omega: float, t0: float, t1: float) -> complex:
    ax, ay = sig.amplitude
    theta = sig.omega * t0 + sig.phase
    delta = t1 - t0
    return (
        complex(ax, ay)
        / 2.0
        * (
            np.exp(1j * theta) * line_integral(omega + sig.omega, delta)
            + np.exp(-1j * theta) * line_integral(omega - sig.omega, delta)
        )
    )


class TestEvaluation:
    def test_zero_shapes(self):
        z = Zero()
        assert z.evaluate(0.3).shape == (2,)
        assert np.all(z.evaluate(np.linspace(0, 1, 7)) == 0.0)
        assert z.evaluate(np.linspace(0, 1, 7)).shape == (2, 7)

    def test_constant_broadcast(self):
        c = Constant(gx=0.25, gy=-0.5)
        assert c.evaluate(1.0) == pytest.approx([0.25, -0.5])
        arr = c.evaluate(np.zeros(5))
        assert arr.shape == (2, 5)
        assert np.all(arr[0] == 0.25) and np.all(arr[1] == -0.5)

    def test_sinusoid_pointwise(self):
        s = Sinusoid(amplitude=(0.3, -0.1), omega=700.0, phase=0.4)
        for t in (0.0, 1.3e-3, 0.01):
            c = math.cos(700.0 * t + 0.4)
            assert s.evaluate(t) == pytest.approx([0.3 * c, -0.1 * c], rel=1e-15)

    def test_sum_is_additive(self):
        parts = [Constant(0.1, 0.0), Sinusoid((0.0, 0.2), 500.0, 0.1)]
        s = SumSignal(parts)
        ts = np.linspace(0.0, 0.02, 11)
        expect = parts[0].evaluate(ts) + parts[1].evaluate(ts)
        assert np.allclose(s.evaluate(ts), expect, rtol=0, atol=1e-18)

    @pytest.mark.parametrize("sense", [-1, +1])
    def test_circular_polarization(self, sense):
        """gtilde = A exp(i sense (omega t + phase))."""
        A, w, ph = 0.7, 1300.0, 0.25
        sig = circular(A, w, phase=ph, sense=sense)
        for t in np.linspace(0.0, 5e-3, 9):
            gx, gy = sig.evaluate(float(t))
            gt = complex(gx, gy)
            expect = A * np.exp(1j * sense * (w * t + ph))
            assert gt == pytest.approx(expect, abs=1e-14 * A)

    def test_tabulated_linear_interpolation(self):
        # linear data is reproduced exactly between nodes
        ts = np.linspace(0.0, 1e-3, 11)
        vals = np.column_stack([3.0 * ts + 0.5, -2.0 * ts])
        tab = Tabulated(0.0, 1e-4, vals)
        for t in (0.05e-3, 0.33e-3, 0.999e-3):
            g = tab.evaluate(t)
            assert g[0] == pytest.approx(3.0 * t + 0.5, rel=1e-12)
            assert g[1] == pytest.approx(-2.0 * t, rel=1e-12)


class TestValidation:
    def test_sinusoid_rejects_bad_amplitude(self):
        with pytest.raises(ParameterError):
            Sinusoid(amplitude=(1.0, 2.0, 3.0), omega=1.0)
        with pytest.raises(ParameterError):
            Sinusoid(amplitude=(math.nan, 0.0), omega=1.0)
        with pytest.raises(ParameterError):
            Sinusoid(amplitude=(1.0, 0.0), omega=-5.0)

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: Constant(math.nan), "constant gx must be finite, got nan"),
            (lambda: Constant(0.1, math.inf), "constant gy must be finite, got inf"),
            (lambda: Sinusoid((1.0, 0.0), math.nan), "sinusoid omega must be >= 0 and finite, got nan"),
            (lambda: Sinusoid((1.0, 0.0), math.inf), "sinusoid omega must be >= 0 and finite, got inf"),
            (lambda: Sinusoid((1.0, 0.0), 1.0, math.nan), "sinusoid phase must be finite, got nan"),
            (lambda: circular(1.0, 100.0, phase=-math.inf), "sinusoid phase must be finite, got -inf"),
        ],
    )
    def test_drive_fields_must_be_finite(self, make, message):
        with pytest.raises(ParameterError, match=f"^{message}$"):
            make()

    def test_sum_of_no_parts_is_rejected(self):
        with pytest.raises(ParameterError, match="^a sum drive needs at least one part$"):
            SumSignal(())

    def test_circular_rejects_bad_sense(self):
        with pytest.raises(ParameterError):
            circular(1.0, 100.0, sense=0)

    def test_tabulated_rejects_bad_construction(self):
        with pytest.raises(ParameterError):
            Tabulated(0.0, 1e-3, np.zeros((5, 3)))
        with pytest.raises(ParameterError):
            Tabulated(0.0, 1e-3, [[1.0, 2.0]])
        with pytest.raises(ParameterError):
            Tabulated(0.0, 0.0, np.zeros((5, 2)))
        for bad in (math.nan, math.inf):
            values = np.zeros((5, 2))
            values[2, 1] = bad
            with pytest.raises(ParameterError, match="^tabulated samples must be finite$"):
                Tabulated(0.0, 1e-3, values)

    @pytest.mark.parametrize(
        "t_start, dt",
        [(math.nan, 1e-3), (math.inf, 1e-3), (-math.inf, 1e-3), (0.0, math.inf), (0.0, math.nan), (0.0, -1e-3)],
    )
    def test_tabulated_time_must_be_finite_and_increasing(self, t_start, dt):
        with pytest.raises(ParameterError, match="^time column must be finite and increasing, got t_start "):
            Tabulated(t_start, dt, np.zeros((5, 2)))

    @pytest.mark.parametrize("times", ["0,1e-3,nan", "0,inf,inf", "nan,1e-3,2e-3"])
    def test_tabulated_csv_time_column_must_be_finite(self, tmp_path, times):
        path = tmp_path / "drive.csv"
        path.write_text("".join(f"{t},0.1,0\n" for t in times.split(",")))
        with pytest.raises(ParameterError, match="^time column must be finite$"):
            Tabulated.from_csv(path)

    def test_tabulated_outside_grid_is_coverage_error(self):
        tab = Tabulated(1e-3, 1e-4, np.ones((11, 2)))
        with pytest.raises(CoverageError):
            tab.evaluate(0.5e-3)
        with pytest.raises(CoverageError):
            tab.evaluate(2.5e-3)
        with pytest.raises(CoverageError):
            modal_integral(tab, 100.0, 1.5e-3, 3e-3)


class TestModalIntegral:
    def test_constant_closed_form(self):
        g = Constant(gx=0.12, gy=-0.07)
        w, t0, t1 = 850.0, 0.2e-3, 1.7e-3
        got = modal_integral(g, w, t0, t1)
        expect = complex(0.12, -0.07) * line_integral(w, t1 - t0)
        assert got == pytest.approx(expect, rel=1e-13)

    def test_resonant_circular_drive_integrates_to_amplitude_times_time(self):
        # gtilde = A exp(-i(w t + phi)) against the kernel exp(+i w t)
        A, w, phi, T = 0.68, 2 * math.pi * 1500.0, 0.9, 2.5e-3
        got = modal_integral(circular(A, w, phase=phi, sense=-1), w, 0.0, T)
        assert got == pytest.approx(A * T * np.exp(-1j * phi), rel=1e-12)

    @pytest.mark.parametrize(
        "w_sig, w_kernel, t0, t1",
        [
            (900.0, 0.0, 0.0, 3e-3),
            (900.0, 900.0, 0.0, 3e-3),
            (900.0, 35000.0, 0.5e-3, 2.1e-3),
            (0.0, 120.0, 0.0, 1e-3),
            (900.0, 899.9999, 1e-4, 9e-4),  # near-degenerate, small mu branch
        ],
    )
    def test_sinusoid_against_oracle(self, w_sig, w_kernel, t0, t1):
        sig = Sinusoid(amplitude=(0.4, 0.15), omega=w_sig, phase=0.77)
        got = modal_integral(sig, w_kernel, t0, t1)
        expect = sinusoid_modal_oracle(sig, w_kernel, t0, t1)
        scale = 0.55 * (t1 - t0)
        assert abs(got - expect) < 1e-12 * scale, f"modal integral off by {abs(got - expect):.3e}"

    def test_sinusoid_against_quadrature(self):
        sig = Sinusoid(amplitude=(0.3, -0.2), omega=4200.0, phase=1.1)
        w, t0, t1 = 6500.0, 0.0, 2.3e-3

        def gt(t):
            g = sig.evaluate(t)
            return complex(g[0], g[1]) * np.exp(1j * w * (t - t0))

        re = quad(lambda t: gt(t).real, t0, t1, limit=400)[0]
        im = quad(lambda t: gt(t).imag, t0, t1, limit=400)[0]
        assert modal_integral(sig, w, t0, t1) == pytest.approx(complex(re, im), rel=1e-9)

    def test_conjugate_flag_equals_conjugated_negative_frequency(self):
        sig = Sinusoid(amplitude=(0.2, 0.9), omega=3100.0, phase=0.3)
        for w in (0.0, 770.0, 3100.0, 12000.0):
            direct = modal_integral(sig, w, 1e-4, 2e-3, conjugate=True)
            flipped = np.conj(modal_integral(sig, -w, 1e-4, 2e-3))
            assert direct == pytest.approx(flipped, rel=1e-13)

    def test_amplitude_doubling_is_exact(self):
        base = Sinusoid(amplitude=(0.11, -0.05), omega=2300.0, phase=0.6)
        double = Sinusoid(amplitude=(0.22, -0.10), omega=2300.0, phase=0.6)
        i1 = modal_integral(base, 1700.0, 0.0, 1.9e-3)
        i2 = modal_integral(double, 1700.0, 0.0, 1.9e-3)
        assert i2 == 2.0 * i1

    @given(
        w=st.floats(0.0, 4e4),
        split=st.floats(0.1, 0.9),
        w_sig=st.floats(0.0, 2e4),
        phase=st.floats(-3.0, 3.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_interval_additivity(self, w, split, w_sig, phase):
        sig = Sinusoid(amplitude=(0.3, 0.1), omega=w_sig, phase=phase)
        t0, t1 = 0.0, 2e-3
        tm = t0 + split * (t1 - t0)
        whole = modal_integral(sig, w, t0, t1)
        left = modal_integral(sig, w, t0, tm)
        right = modal_integral(sig, w, tm, t1)
        stitched = left + np.exp(1j * w * (tm - t0)) * right
        assert abs(whole - stitched) < 1e-13 * max(abs(whole), 0.3 * (t1 - t0))

    def test_sum_signal_integral_is_sum_of_parts(self):
        parts = [
            Constant(0.05, -0.02),
            Sinusoid((0.1, 0.0), 900.0, 0.2),
            Sinusoid((0.0, 0.07), 2100.0, -0.5),
        ]
        s = SumSignal(parts)
        w, t0, t1 = 1500.0, 1e-4, 2.7e-3
        total = modal_integral(s, w, t0, t1)
        expect = sum(modal_integral(p, w, t0, t1) for p in parts)
        assert total == pytest.approx(expect, rel=1e-13)

    def test_tabulated_ramp_is_exact(self):
        """Piecewise-linear expansion integrates the interpolant exactly."""
        ts = np.linspace(0.0, 2e-3, 21)
        vals = np.column_stack([0.3 + 150.0 * ts, -80.0 * ts])
        tab = Tabulated(0.0, 1e-4, vals)
        w, t0, t1 = 5200.0, 0.25e-4, 1.87e-3  # off-node endpoints
        got = modal_integral(tab, w, t0, t1)
        a = complex(0.3 + 150.0 * t0, -80.0 * t0)
        b = complex(150.0, -80.0)
        expect = ramp_integral(a, b, w, t1 - t0)
        assert got == pytest.approx(expect, rel=1e-9)

    def test_nested_sum_with_tabulated_edges(self):
        tab = Tabulated(0.0, 2.5e-4, np.column_stack([np.sin(np.arange(9)), np.cos(np.arange(9))]))
        s = SumSignal([tab, SumSignal([Constant(0.4, 0.0)])])
        w = 3100.0
        got = modal_integral(s, w, 1e-4, 1.9e-3)
        expect = modal_integral(tab, w, 1e-4, 1.9e-3) + modal_integral(
            Constant(0.4, 0.0), w, 1e-4, 1.9e-3
        )
        assert got == pytest.approx(expect, rel=1e-12)


class TestTabulatedIO:
    def test_from_csv_three_columns(self, tmp_path):
        path = tmp_path / "drive.csv"
        ts = np.linspace(0.0, 1e-3, 6)
        np.savetxt(path, np.column_stack([ts, 2.0 * ts, np.full_like(ts, 0.3)]), delimiter=",")
        tab = Tabulated.from_csv(path)
        assert tab.evaluate(0.5e-3) == pytest.approx([1e-3, 0.3], rel=1e-12)

    def test_from_csv_two_columns_defaults_gy_zero(self, tmp_path):
        path = tmp_path / "drive.csv"
        path.write_text("0.0,1.0\n0.001,2.0\n0.002,3.0\n")
        tab = Tabulated.from_csv(path)
        assert tab.evaluate(1e-3) == pytest.approx([2.0, 0.0])

    def test_from_csv_header_row_is_tolerated(self, tmp_path):
        path = tmp_path / "drive.csv"
        path.write_text("t_s,gx,gy\n0.0,1.0,0.0\n0.001,2.0,0.0\n")
        tab = Tabulated.from_csv(path)
        assert tab.evaluate(0.0005)[0] == pytest.approx(1.5)

    def test_from_csv_rejects_nonuniform_grid(self, tmp_path):
        path = tmp_path / "drive.csv"
        path.write_text("0.0,1.0\n0.001,2.0\n0.0025,3.0\n")
        with pytest.raises(ParameterError):
            Tabulated.from_csv(path)


def quad_complex(f, a: float, b: float) -> complex:
    return quad(f, a, b, complex_func=True, epsabs=0.0, epsrel=1e-13, limit=400)[0]


def exp_poly_oracle(p: int, mu: float, delta: float) -> complex:
    return quad_complex(lambda t: t**p * np.exp(1j * mu * t), 0.0, delta)


def triangle_oracle(q: int, k1: float, p: int, k2: float, delta: float) -> complex:
    return quad_complex(lambda u: u**q * np.exp(1j * k1 * u) * exp_poly_oracle(p, k2, u), 0.0, delta)


def exp_poly_reference(p: int, mu, delta):
    """E_p as it was: the series stops per element once a term is below 1e-20 of the sum."""
    mu, delta = np.broadcast_arrays(np.asarray(mu, dtype=float), np.asarray(delta, dtype=float))
    x = mu * delta
    small = np.abs(x) < 0.5
    out = np.empty(x.shape, dtype=complex)
    if small.any():
        x_s = x[small]
        tr, ti = np.ones_like(x_s), np.zeros_like(x_s)
        sr, si, live = tr / (p + 1), ti, np.ones(x_s.shape, dtype=bool)
        for k in range(1, 26):
            y = x_s / k
            tr, ti = -(ti * y), tr * y
            sr = np.where(live, sr + tr / (p + k + 1), sr)
            si = np.where(live, si + ti / (p + k + 1), si)
            live &= ~(np.hypot(tr, ti) < 1e-20 * np.hypot(sr, si))
            if not live.any():
                break
        scale = delta[small] ** (p + 1)
        out[small] = scale * sr + 1j * (scale * si)
    if not small.all():
        imu, d = 1j * mu[~small], delta[~small]
        e = np.exp(imu * d)
        val = (e - 1.0) / imu
        for q in range(1, p + 1):
            val = (d**q * e - q * val) / imu
        out[~small] = val
    return out


# kappa * delta on both sides of the 0.5 branch threshold, and k1 + k2 ~ 0
DELTA = 2e-3
PHASES = [0.0, 0.2, -0.49, 0.51, -3.0, 40.0]
PAIRS = [(0.3, -0.3), (0.2, 0.1), (0.45, -0.4), (2.0, -2.0), (0.2, 3.0), (3.0, 0.2), (0.6, 0.55), (-7.0, 7.0 + 1e-9)]


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
class TestKernels:
    @pytest.mark.parametrize("p", [0, 1, 2])
    @pytest.mark.parametrize("x", PHASES)
    def test_exp_poly_integral_against_quadrature(self, p, x):
        got = _exp_poly_integral(p, x / DELTA, DELTA)
        expect = exp_poly_oracle(p, x / DELTA, DELTA)
        assert abs(got - expect) <= 1e-12 * abs(expect)

    @pytest.mark.parametrize("q", [0, 1, 2])
    @pytest.mark.parametrize("p", [0, 1, 2])
    @pytest.mark.parametrize("x1, x2", PAIRS)
    def test_triangle_integral_against_nested_quadrature(self, q, p, x1, x2):
        got = _triangle_integral(q, x1 / DELTA, p, x2 / DELTA, DELTA)
        expect = triangle_oracle(q, x1 / DELTA, p, x2 / DELTA, DELTA)
        assert abs(got - expect) <= 1e-12 * abs(expect)

    def test_arrays_equal_elementwise_scalar_calls(self):
        rng = np.random.default_rng(8)
        k1 = rng.uniform(-3.0, 3.0, 40) / DELTA
        k2 = np.where(rng.uniform(size=40) < 0.3, -k1, rng.uniform(-3.0, 3.0, 40) / DELTA)
        delta = DELTA * rng.uniform(0.0, 1.0, 40)
        for p in (0, 1, 2):
            e = _exp_poly_integral(p, k1, delta)
            assert e.tolist() == [_exp_poly_integral(p, a, d) for a, d in zip(k1, delta)]
            for q in (0, 2):
                t = _triangle_integral(q, k1, p, k2, delta)
                assert t.tolist() == [_triangle_integral(q, a, p, b, d) for a, b, d in zip(k1, k2, delta)]
        # powers 0..3 mixed within one call
        p, q = rng.integers(0, 4, 40), rng.integers(0, 4, 40)
        e = _exp_poly_integral(p, k1, delta)
        assert e.tolist() == [_exp_poly_integral(n, a, d) for n, a, d in zip(p.tolist(), k1, delta)]
        t = _triangle_integral(q, k1, p, k2, delta)
        args = zip(q.tolist(), k1, p.tolist(), k2, delta)
        expect = [_triangle_integral(m, a, n, b, d) for m, a, n, b, d in args]
        assert t.tolist() == expect
        assert isinstance(_exp_poly_integral(1, 3.0, 0.1), complex)

    def test_series_term_count_keeps_the_per_element_stop_bits(self):
        """One term count per call gives the bits of the series stopped per element."""
        mags = np.concatenate([np.geomspace(5e-324, 0.4999, 600), [np.nextafter(0.5, 0.0)]])
        x = np.concatenate([mags, -mags, [0.0, -0.0]])
        spread = np.random.default_rng(12).permutation(np.geomspace(1e-5, 3.0, x.size))
        for delta in (1.0, DELTA, spread):
            mu = x / delta
            for p in (0, 1, 2, 3):
                got = _exp_poly_integral(p, mu, delta)
                assert np.array_equal(got.view(np.int64), exp_poly_reference(p, mu, delta).view(np.int64)), p
            powers = np.arange(x.size) % 4
            mixed = _exp_poly_integral(powers, mu, delta)
            for p in range(4):
                sel = powers == p
                want = exp_poly_reference(p, mu[sel], np.broadcast_to(delta, x.shape)[sel])
                assert np.array_equal(mixed[sel].view(np.int64), want.view(np.int64)), p

    def test_tabulated_pieces_match_the_scalar_loop(self):
        rng = np.random.default_rng(9)
        tab = Tabulated(1.7e-3, 3.3e-5, rng.normal(size=(300, 2)))
        for t0, t1 in [(1.7e-3, tab.t_end), (2.0e-3, 9.1234e-3), (4e-3, 4e-3 + 1e-9), (5e-3, 5e-3)]:
            k_lo = int(math.ceil((t0 - tab.t_start) / tab.dt - 1e-9))
            k_hi = int(math.floor((t1 - tab.t_start) / tab.dt + 1e-9))
            grid = [tab.t_start + k * tab.dt for k in range(k_lo, k_hi + 1)]
            nodes = [t0] + [tk for tk in grid if t0 + 1e-15 < tk < t1 - 1e-15] + [t1]
            expect = []
            for a, b in zip(nodes[:-1], nodes[1:]):
                if b - a > 0.0:
                    ga, gb = (complex(*tab.evaluate(v)) for v in (a, b))
                    expect.append((a, b, [(ga, 0.0, 0), ((gb - ga) / (b - a), 0.0, 1)]))
            table = tab.pieces(t0, t1)
            got = [
                (a, b, [(c, mu, p) for c, mu, p, ok in zip(*terms) if ok])
                for a, b, *terms in zip(*(getattr(table, f).tolist() for f in PieceTable.__slots__))
            ]
            assert got == expect


def triangle_series_reference(q: int, k1, p: int, k2, delta):
    """T on its series branch as it was: every element summed to the fixed order 19."""
    k1, k2, delta = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (k1, k2, delta)))
    z1, z2 = 1j * (k1 * delta), 1j * (k2 * delta)
    order = 19
    top = p + q + 1 + order
    term, f = np.ones_like(z1), np.full_like(z1, 1.0 / (top + 1))
    for k in range(1, order + 1):
        term = term * (z1 / k)
        f = f + term / (top + k + 1)
    e1, acc = np.exp(z1), f / (p + order + 1)
    for j in range(order - 1, -1, -1):
        f = (e1 - z1 * f) / (p + q + j + 2)
        acc = f / (p + j + 1) + acc * (z2 / (j + 1))
    return delta ** (p + q + 2) * acc


def test_series_order_per_call_keeps_the_fixed_order_bits():
    """T's series, run to one order per call, gives the bits of every element run to order 19.

    The sweep is wide enough that a stop at 1e-17 r instead of 1e-19 r changes the bits of one
    element (at q = 7, p = 4): the stop leaves terms below half an ulp, but a shorter recursion
    rounds differently now and then.
    """
    rng = np.random.default_rng(21)
    r = np.geomspace(1e-14, 0.999, 10000)  # r = |k1 delta| + |k2 delta|; near 1 a call needs order 20
    share, signs = rng.uniform(size=r.size), rng.choice([-1.0, 1.0], size=(2, r.size))
    x1, x2 = signs[0] * r * share, signs[1] * r * (1.0 - share)
    keep = (np.abs(x1) < 0.5) & (np.abs(x2) < 0.5)  # the series branch
    zeros = [(a, b) for a in (0.0, -0.0) for b in (0.0, -0.0, 1e-3, -0.3)]
    x1 = np.concatenate([x1[keep], [a for a, _ in zeros], [b for _, b in zeros]])
    x2 = np.concatenate([x2[keep], [b for _, b in zeros], [a for a, _ in zeros]])
    spread = rng.permutation(np.geomspace(1e-5, 3.0, x1.size))
    for delta in (1.0, DELTA, spread):
        k1, k2 = x1 / delta, x2 / delta
        for q in range(8):
            for p in range(8):
                want = triangle_series_reference(q, k1, p, k2, delta)
                got = _triangle_integral(q, k1, p, k2, delta)
                assert np.array_equal(got.view(np.int64), want.view(np.int64)), (q, p)
        q, p = rng.integers(0, 8, x1.size), rng.integers(0, 8, x1.size)  # powers mixed within one call
        got, d = _triangle_integral(q, k1, p, k2, delta), np.broadcast_to(delta, x1.shape)
        for m, n in {(m, n) for m, n in zip(q.tolist(), p.tolist())}:
            sel = (q == m) & (p == n)
            want = triangle_series_reference(m, k1[sel], n, k2[sel], d[sel])
            assert np.array_equal(got[sel].view(np.int64), want.view(np.int64)), (m, n)
        one = [_triangle_integral(m, a, n, b, e) for m, a, n, b, e in zip(q[::97], k1[::97], p[::97], k2[::97], d[::97])]
        assert got[::97].tolist() == one


def test_series_branches_run_in_bounded_blocks(monkeypatch):
    """A series holds (order, elements) rows, so E and T sum it _SERIES_BLOCK elements at a time.

    Blocks keep every element's bits: those of an unblocked call and of a one-element call.
    """
    sizes = {"_exp_series": [], "_triangle_series": []}
    for name, seen in sizes.items():
        series = getattr(signals, name)
        monkeypatch.setattr(signals, name, lambda *a, series=series, seen=seen: seen.append(a[0].size) or series(*a))
    block, rng = signals._SERIES_BLOCK, np.random.default_rng(8)
    n = 2 * block + 37
    x1, x2 = rng.uniform(-0.49, 0.49, size=(2, n))  # every element on the series branches
    delta = rng.permutation(np.geomspace(1e-5, 3.0, n))
    k1, k2, q, p = x1 / delta, x2 / delta, rng.integers(0, 4, n), rng.integers(0, 4, n)
    e, t = _exp_poly_integral(p, k1, delta), _triangle_integral(q, k1, p, k2, delta)
    assert sizes == {"_exp_series": [block, block, 37], "_triangle_series": [block, block, 37]}
    monkeypatch.setattr(signals, "_SERIES_BLOCK", 10 * n)
    assert np.array_equal(_exp_poly_integral(p, k1, delta).view(np.int64), e.view(np.int64))
    assert np.array_equal(_triangle_integral(q, k1, p, k2, delta).view(np.int64), t.view(np.int64))
    picks = rng.choice(n, 200, replace=False)
    assert e[picks].tolist() == [_exp_poly_integral(int(p[i]), k1[i], delta[i]) for i in picks]
    assert t[picks].tolist() == [_triangle_integral(int(q[i]), k1[i], int(p[i]), k2[i], delta[i]) for i in picks]


def sum_pieces_reference(signal: SumSignal, t0: float, t1: float) -> PieceTable:
    """SumSignal.pieces as it was: every part is expanded again on every sub-interval."""
    edges = {float(t0), float(t1)}
    for p in signal.parts:
        table = p.pieces(t0, t1)
        edges.update(table.start.tolist())
        edges.update(table.end.tolist())
    grid = sorted(edges)
    spans, rows = [], []
    for a, b in zip(grid[:-1], grid[1:]):
        if b - a <= 0.0:
            continue
        subs = [p.pieces(a, b) for p in signal.parts]
        assert all(len(sub) == 1 for sub in subs)
        spans.append((a, b))
        rows.append([np.concatenate([getattr(sub, f) for sub in subs], axis=1) for f in PieceTable.__slots__[2:]])
    start, end = np.array(spans, dtype=float).reshape(-1, 2).T
    terms = [np.concatenate(f) for f in zip(*rows)] if rows else [None] * 4
    return PieceTable(start, end, *terms)


@pytest.mark.parametrize("t0, t1", [(0.0, 3.0e-3), (1.234e-4, 2.71e-3), (5e-4, 5e-4 + 1e-9), (1e-3, 1e-3)])
def test_sum_pieces_equal_the_per_sub_interval_expansion(t0, t1):
    rng = np.random.default_rng(11)
    table = Tabulated(0.0, 1e-5, rng.normal(size=(301, 2)))
    coarse = Tabulated(-1e-4, 3.7e-5, rng.normal(size=(101, 2)))
    tone = Sinusoid((0.3, -0.1), 2100.0, 0.4)
    for signal in (
        SumSignal([table, tone]),
        SumSignal([tone, table, coarse]),
        SumSignal([circular(0.2, 900.0), Constant(0.1, 0.05), Zero()]),
        SumSignal([coarse, SumSignal([table, tone])]),
    ):
        got, want = signal.pieces(t0, t1), sum_pieces_reference(signal, t0, t1)
        assert len(got) == len(want)
        for f in PieceTable.__slots__:
            if len(want) or f in ("start", "end"):
                assert np.array_equal(getattr(got, f), getattr(want, f)), f


@dataclass(frozen=True)
class Ragged(ForceSignal):
    """Pieces with 1, 3 and 0 terms and powers up to 2; windows start and end on an edge."""

    edges = (0.0, 1.1e-3, 2.9e-3, 4.0e-3)
    coef = np.array([[0.4 - 0.1j, 0, 0], [0.2 + 0.3j, 150.0 - 80.0j, 4e4 + 1e4j], [0, 0, 0]])
    mu = np.array([[2100.0, 0.0, 0.0], [-6300.0, 0.0, 9000.0], [0.0, 0.0, 0.0]])
    power = np.array([[0, 0, 0], [0, 1, 2], [0, 0, 0]])
    valid = np.array([[True, False, False], [True, True, True], [False, False, False]])

    def pieces(self, t0, t1):
        a, b = np.array(self.edges[:-1]), np.array(self.edges[1:])
        rows = (t0 - 1e-12 <= a) & (b <= t1 + 1e-12)
        return PieceTable(a[rows], b[rows], self.coef[rows], self.mu[rows], self.power[rows], self.valid[rows])

    def evaluate(self, t):
        table = self.pieces(self.edges[0], self.edges[-1])
        for a, b, coef, mu, power, valid in zip(*(getattr(table, f) for f in PieceTable.__slots__)):
            if a <= t <= b:
                terms = zip(coef[valid], mu[valid], power[valid])
                g = complex(sum(c * (t - a) ** p * np.exp(1j * m * (t - a)) for c, m, p in terms))
                return np.array([g.real, g.imag])
        raise CoverageError(f"t = {t} outside the pieces")


def test_ragged_pieces_compose_over_single_piece_segments():
    """The segment coefficients of mixed term lists equal their per-piece composition."""
    cfg = TrapConfig.from_modes(1.44316e-25, 2 * math.pi * 1000.0, 3.0)
    branches = (Branch(+1, 0.6 + 0j, 0.8 - 0.3j, 0.2 + 0.5j), Branch(-1, 0.8 + 0j, -0.4 + 0.1j, 0.7j))
    state = SpinorCoherentState(cfg, branches)
    edges = Ragged.edges
    whole = apply_evolution(state, edges[-1], Ragged())
    parts = state
    for a, b in zip(edges, edges[1:]):
        parts = apply_evolution(parts, b - a, Ragged())
    for w, s in zip(whole.branches, parts.branches):
        for name in ("alpha_plus", "alpha_minus", "phase"):
            got, expect = getattr(w, name), getattr(s, name)
            assert abs(got - expect) <= 1e-12 * abs(expect), name
        assert w.phase != 0.0 and _segment_coeffs(cfg, [(Ragged(), 0.0, edges[-1])])[w.spin].phase_g2[0] != 0.0


def shape_keys(width, table) -> set:
    """The distinct (width, mu, power, valid) rows, each as its bits."""
    rows = zip(width.view(np.int64).tolist(), table.mu, table.power, table.valid)
    return {(w, mu.tobytes(), power.tobytes(), valid.tobytes()) for w, mu, power, valid in rows}


def test_shape_keys_group_rows_by_bits():
    """Each distinct (width, mu, power, valid) row is one shape, also across zero- and one-row tables."""
    rng = np.random.default_rng(17)
    table = Tabulated(0.0, 1e-5, rng.normal(size=(60, 2)))
    empty, one = table.pieces(2e-4, 2e-4), Constant(1e-3, 2e-3).pieces(0.0, 1e-5)
    assert (len(empty), len(one)) == (0, 1)
    for tables in ([empty], [one], [empty, empty], [one, empty, one], [table.pieces(0.0, 5.9e-4), empty, one]):
        rows = _concat(tables)
        packed = _pack_pieces(rows, [0.0] * len(rows))
        assert packed.shape.shape == packed.offset.shape == (len(rows),)
        assert shape_keys(packed.width, packed) == shape_keys(rows.end - rows.start, rows)
        assert len(packed.width) == len(shape_keys(packed.width, packed))
        for name in ("width", "mu", "power", "valid"):  # every row keeps the bits of its own shape
            want = rows.end - rows.start if name == "width" else getattr(rows, name)
            assert getattr(packed, name)[packed.shape].tobytes() == want.tobytes(), name


def parametric_row_reference(signal, t0: float, t1: float) -> PieceTable:
    """One parametric row as Python's complex type forms it for a lone window."""
    if isinstance(signal, Zero):
        coef, mu = [], []
    elif isinstance(signal, Constant):
        coef, mu = [complex(signal.gx, signal.gy)], [0.0]
    else:
        g0, th = complex(*signal.amplitude) / 2.0, signal.omega * t0 + signal.phase
        coef, mu = [g0 * np.exp(1j * th), g0 * np.exp(-1j * th)], [signal.omega, -signal.omega]
    m = len(mu)
    return PieceTable(np.array([t0]), np.array([t1]), np.array([coef], dtype=complex).reshape(1, m),
                      np.array([mu], dtype=float).reshape(1, m), np.zeros((1, m), int), np.ones((1, m), bool))


def assert_same_bits(got: PieceTable, want: PieceTable) -> None:
    for f in PieceTable.__slots__:
        a, b = getattr(got, f), getattr(want, f)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), f


@pytest.mark.parametrize("kind", [Zero, Constant, Sinusoid])
def test_class_level_rows_equal_the_one_window_rows(kind):
    """Many windows of one class in one call give every field the bits of one pieces call each."""
    rng = np.random.default_rng(23)
    amps = [(0.0, -0.0), (-0.0, 0.0), (-0.0, -0.0), (0.3, -0.0), (-0.0, -2e-3), (1.7, 0.4), (-2.5e-4, 3e2)]
    if kind is Zero:
        drives = [Zero()] * 8
    elif kind is Constant:
        drives = [Constant(*a) for a in amps] + [Constant(1, 2)]
    else:
        # omega t0 + phase from 0 through |1e4|, with +-0.0 phases and omega = 0
        drives = [Sinusoid(a, w, phi) for a, (w, phi) in zip(amps * 3, [
            (0.0, 0.0), (0.0, -0.0), (3000.0, -0.0), (0.0, -3.0), (2100.0, 0.4), (6283.1, -1e4 + 3.0),
            (1e7, 1e4), (9424.77796, -2.5), (1.0, 1e4), (5e6, -9e3), (0.0, 9999.0), (123.4, -0.0),
            (1e4, 2.0), (7e5, 1.5), (3.3e3, -7.7e3), (2.9e6, 0.0), (0.5, -1e4), (8e6, 1e4 - 1.0),
            (4.4e4, 5e3), (6e6, -6e3), (1e-3, 1e-300)])]
    starts = np.concatenate([np.zeros(len(drives) // 2), np.full(len(drives) - len(drives) // 2, 1e-3)])
    starts = rng.permutation(starts)
    ends = starts + rng.uniform(1e-5, 2e-3, len(drives))
    for t0, t1 in ((starts, ends), (starts[:1], ends[:1])):
        table, counts = kind._batch_pieces(drives[: len(t0)], t0, t1)
        assert counts.tolist() == [1] * len(t0)
        singles = [d.pieces(a, b) for d, a, b in zip(drives, t0.tolist(), t1.tolist())]
        assert_same_bits(table, _concat(singles))
        for single, d, a, b in zip(singles, drives, t0.tolist(), t1.tolist()):
            assert_same_bits(single, parametric_row_reference(d, a, b))
    # one drive for every window, as SumSignal asks for a part's rows on its sub-intervals
    one, _ = kind._batch_pieces(drives[-1:], starts, ends)
    assert_same_bits(one, _concat([drives[-1].pieces(a, b) for a, b in zip(starts.tolist(), ends.tolist())]))
