"""The three benchmark workloads: seeded inputs, one timed request, output checks.

A workload object is driven by ``worker.py`` in a closed loop:

- ``prepare(i)`` makes the inputs of request ``i`` from the workload seed
  (untimed; the same seed and index always give the same inputs);
- ``run(inputs)`` is the timed request and calls socaccel only through its
  public API;
- ``check(i, inputs, outputs)`` returns the problems found in the outputs
  (untimed);
- ``finish()`` returns the problems of checks made once at the end of a run,
  each counted as one more attempted operation;
- ``block`` is the request count the loop only stops after a multiple of.

See NOTES.md for why each workload was chosen.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import shutil
from pathlib import Path

import numpy as np

import checks

MASS = 1.44316e-25  # Rb-87, kg

# The config shown in README.md.
README_CONFIG = {
    "schema_version": 1,
    "trap": {"mass": MASS, "omega_tilde": 6283.185307179586, "epsilon": 3.0},
    "species": "Rb87",
    "sequence": {"kind": "up", "r0": [6.8e-7, 0.0], "t": 0.002},
    "drive": {"kind": "circular", "amplitude": 0.68, "omega": 9424.77796, "sense": -1},
    "thermal": {"n_plus": 1.0, "n_minus": 1.0},
    "monte_carlo": {"count": 10000, "seed": 42},
    "apparatus": {
        "temperature": 1e-6,
        "layer_spacing": 1e-6,
        "homogeneity_radius": 25e-6,
        "omega_tilde": 6283.185307179586,
        "epsilon": 22.0,
        "atoms_per_layer": 1e6,
    },
    "trajectory": {"kind": "cp", "r0": [6.8e-7, 0.0], "t": 0.0005, "points": 200},
    "response": {"points": 4096},
    "sweep": {"atoms_min": 100, "atoms_max": 1e6, "points": 25},
}

SUBCOMMANDS = ("modes", "trajectory", "response", "thermal", "sensitivity")


def _rng(seed: int, *index: int) -> np.random.Generator:
    return np.random.default_rng([seed, *index])


def _trap(sa, omega_tilde: float, epsilon: float):
    """TrapConfig with mode frequencies omega_pm = 2 omega_tilde (epsilon, 1) / (1 + epsilon)."""
    omega0 = 2.0 * omega_tilde * math.sqrt(epsilon) / (1.0 + epsilon)
    omega_c = 2.0 * omega_tilde * (epsilon - 1.0) / (1.0 + epsilon)
    return sa.TrapConfig(mass=MASS, omega0=omega0, omega_c=omega_c)


def _modes(omega_tilde: float, epsilon: float):
    """(omega_plus, omega_minus), computed here rather than by the package."""
    wp = 2.0 * omega_tilde * epsilon / (1.0 + epsilon)
    wm = 2.0 * omega_tilde / (1.0 + epsilon)
    return wp, wm


class ReadmeCli:
    """Each request is one pass of the five subcommands on the README config."""

    block = 1

    def __init__(self, sa, seed: int, run_dir: Path):
        self.cli = sa.cli  # main is looked up per call, so a traced run sees the wrapper
        self.seed = seed
        self.config = run_dir / "run.json"
        self.config.write_text(json.dumps(README_CONFIG))
        self.out = run_dir / "out"
        self.reference = None  # products of the first checked pass
        self.replay = None  # (mc seed, thermal.json bytes) of that pass
        self.run_dir = run_dir

    def prepare(self, i: int) -> int:
        shutil.rmtree(self.out, ignore_errors=True)
        return int(_rng(self.seed, i).integers(1 << 62))

    def _pass(self, mc_seed: int, out: Path, subcommands=SUBCOMMANDS) -> dict:
        codes = {}
        with contextlib.redirect_stdout(io.StringIO()):
            for cmd in subcommands:
                argv = [cmd, "--config", str(self.config), "--out", str(out)]
                if cmd == "thermal":
                    argv += ["--seed", str(mc_seed)]
                codes[cmd] = self.cli.main(argv)
        return codes

    def run(self, mc_seed: int) -> dict:
        return self._pass(mc_seed, self.out)

    def check(self, i: int, mc_seed: int, codes: dict) -> list[str]:
        products = {p.name: p.read_bytes() for p in sorted(self.out.iterdir())}
        problems = checks.exit_codes(codes)
        if "thermal.json" not in products:
            return problems + ["thermal.json was not written"]
        problems += checks.mc_pull(json.loads(products["thermal.json"]))
        if self.reference is None:
            self.reference = products
            self.replay = (mc_seed, products["thermal.json"])
        else:
            problems += checks.same_products(self.reference, products)
        return problems

    def finish(self) -> list[list[str]]:
        if self.replay is None:
            return [["no pass wrote a thermal.json to rerun"]]
        mc_seed, expected = self.replay
        out = self.run_dir / "rerun"
        codes = self._pass(mc_seed, out, ("thermal",))
        got = (out / "thermal.json").read_bytes() if codes["thermal"] == 0 else b""
        return [checks.exit_codes(codes) + checks.same_bytes("thermal.json", expected, got)]


@dataclasses.dataclass
class ReplayInputs:
    config: object
    r0: tuple
    t: float
    dt: float
    values: np.ndarray
    oracle: float  # weak-drive "up" phase of the interpolant, rad


class TabulatedReplay:
    """Each request builds a fresh Tabulated drive and replays it through up and cp.

    Table lengths come in pairs 775 exp(-d) and 775 exp(+d) with
    d = ln(2000 / 775) u^5, u uniform on [0, 1].  A run always has as many
    tables above the centre length as below it, and about two thirds of
    them lie within 10 % of it, so the median request rests on most
    requests, not on one, while lengths from 300 to 2000 still occur.
    """

    block = 2
    CENTRE, LONGEST = 775, 2000
    PHASE = 1e-3  # rad, weak-drive oracle phase every table is scaled to
    NOISE = 0.1  # white-noise rms relative to the tone amplitude

    def __init__(self, sa, seed: int, run_dir: Path):
        self.sa = sa
        self.seed = seed

    def _length(self, i: int) -> int:
        if i == 0:
            return self.CENTRE
        d = math.log(self.LONGEST / self.CENTRE) * _rng(self.seed, (i - 1) // 2, 1).uniform() ** 5
        return round(self.CENTRE * math.exp(d if i % 2 else -d))

    def prepare(self, i: int) -> ReplayInputs:
        rng = _rng(self.seed, i)
        wt = 2.0 * math.pi * rng.uniform(500.0, 2000.0)
        eps = rng.uniform(1.5, 5.0)
        t = math.pi * int(rng.integers(1, 3)) / wt  # velocity-zero time
        wp, wm = _modes(wt, eps)
        l_osc = math.sqrt(self.sa.HBAR / (MASS * wt))
        angle = rng.uniform(0.0, 2.0 * math.pi)
        r0 = (2.0 * l_osc * math.cos(angle), 2.0 * l_osc * math.sin(angle))
        e_perp = np.array([-math.sin(angle), math.cos(angle)])

        # weak-drive oracle on [0, t]: 2 (m/hbar) |r0| int g_perp h_perp of
        # the linear interpolant, trapezoid on a fine grid that holds every node
        n = self._length(i)
        dt = 4.0 * t / (n - 1)
        tt = np.arange(n) * dt
        fine = np.union1d(np.linspace(0.0, t, 200_001), tt[tt < t])
        h = (wm * np.sin(wp * fine) - wp * np.sin(wm * fine)) / (2.0 * wt)

        def oracle(g_perp):
            return 4.0 * l_osc * (MASS / self.sa.HBAR) * np.trapezoid(
                np.interp(fine, tt, g_perp) * h, fine
            )

        # a tone near one of the modes plus white noise, sampled over the cp
        # window [0, 4t].  The tone sits within 0.4 pi / t of the mode, inside
        # the main lobe of the up response, and its polarisation and phase lie
        # within 60 degrees of the ones the up phase is most sensitive to.
        # So the oracle phase never nearly cancels, and scaling it to PHASE
        # keeps the drive weak.
        mode = wp if rng.integers(2) else wm
        w_tone = abs(mode + rng.uniform(-0.4, 0.4) * math.pi / t)
        pol = angle + math.pi / 2.0 + rng.uniform(-math.pi / 3.0, math.pi / 3.0)
        best = -math.atan2(oracle(np.sin(w_tone * tt)), oracle(np.cos(w_tone * tt)))
        tone = np.cos(w_tone * tt + best + rng.uniform(-math.pi / 3.0, math.pi / 3.0))
        values = np.column_stack([math.cos(pol) * tone, math.sin(pol) * tone])
        values += self.NOISE * rng.standard_normal((n, 2))
        per_unit = oracle(values @ e_perp)
        scale = self.PHASE / abs(per_unit)
        return ReplayInputs(
            config=_trap(self.sa, wt, eps),
            r0=r0,
            t=t,
            dt=dt,
            values=values * scale,
            oracle=math.copysign(self.PHASE, per_unit),
        )

    def run(self, inp: ReplayInputs):
        sa = self.sa
        drive = sa.Tabulated(0.0, inp.dt, inp.values)
        up = sa.run_sequence(inp.config, None, sa.preset_up(inp.r0, inp.t), drive)
        cp = sa.run_sequence(inp.config, None, sa.preset_cp(inp.r0, inp.t), drive)
        return up, cp

    def check(self, i: int, inp: ReplayInputs, outputs) -> list[str]:
        up, cp = outputs
        problems = checks.weak_drive_phase(up.phase, inp.oracle)
        for label, rec in (("up", up), ("cp", cp)):
            problems += checks.unit_norm(label, rec.norm)
            problems += checks.signal_identity(label, rec.signal, rec.coherence, rec.phase)
        return problems

    def finish(self) -> list[list[str]]:
        return []


@dataclasses.dataclass
class ProbeInputs:
    config: object
    r0: float
    t: float
    probe_index: np.ndarray  # grid indices probed numerically
    apparatus: object
    omega_range: tuple


class ResponseProbe:
    """Each request draws a trap and probes its transfer functions and sensitivity."""

    block = 1
    POINTS = 4096
    PROBES = 3  # grid frequencies probed numerically per preset

    def __init__(self, sa, seed: int, run_dir: Path):
        self.sa = sa
        self.seed = seed

    def prepare(self, i: int) -> ProbeInputs:
        rng = _rng(self.seed, i)
        wt = 2.0 * math.pi * rng.uniform(500.0, 2000.0)
        eps = rng.uniform(1.5, 5.0)
        # below about epsilon half periods the "up" main lobe reaches omega = 0
        # and main_lobe_fwhm cannot resolve it; 5-7 half periods always can
        t = math.pi * int(rng.integers(5, 8)) / wt
        temperature = rng.uniform(0.5e-6, 2e-6)
        radius = rng.uniform(15e-6, 40e-6)
        apparatus = self.sa.ApparatusParams(
            temperature=temperature,
            layer_spacing=1e-6,
            homogeneity_radius=radius,
            omega_tilde=wt,
            epsilon=eps,
            atoms_per_layer=10.0 ** rng.uniform(5.0, 7.0),
        )
        # the large-N optimum is 2 v / r_l; the cloud fits above v / r_l
        w_opt = 2.0 * math.sqrt(3.0 * self.sa.K_B * temperature / MASS) / radius
        return ProbeInputs(
            config=_trap(self.sa, wt, eps),
            r0=2.0 * math.sqrt(self.sa.HBAR / (MASS * wt)),
            t=t,
            probe_index=rng.choice(self.POINTS, size=self.PROBES, replace=False),
            apparatus=apparatus,
            omega_range=(0.6 * w_opt, 20.0 * w_opt),
        )

    def run(self, inp: ProbeInputs) -> dict:
        sa = self.sa
        modes = sa.derive_modes(inp.config)
        grid = np.linspace(0.0, 3.0 * modes.omega_plus, self.POINTS)
        out = {"numeric": {}, "curves": {}}
        for kind, curve_fn, preset in (
            ("up", sa.response_up, sa.preset_up),
            ("cp", sa.response_cp, sa.preset_cp),
        ):
            curve = curve_fn(modes, inp.r0, inp.t, grid=grid)
            out["curves"][kind] = curve
            out[kind + "_summary"] = (
                sa.find_zeros(curve),
                sa.find_peaks(curve),
                sa.main_lobe_fwhm(curve),
            )
            peak = float(np.abs(curve.values).max())
            seq = preset((inp.r0, 0.0), inp.t)
            out["numeric"][kind] = [
                sa.numeric_response(inp.config, seq, float(grid[j]), 0.02 / peak)
                for j in inp.probe_index
            ]
        out["sensitivity"] = sa.sensitivity(sa.RB87, inp.apparatus)
        out["optimum"] = sa.optimize_trap(sa.RB87, inp.apparatus, inp.omega_range)
        return out

    def check(self, i: int, inp: ProbeInputs, out: dict) -> list[str]:
        problems = []
        for kind, curve in out["curves"].items():
            peak = float(np.abs(curve.values).max())
            for j, value in zip(inp.probe_index, out["numeric"][kind]):
                problems += checks.transfer_match(
                    f"{kind} at grid[{j}]", value, complex(curve.values[j]), peak
                )
        s_edges = [
            self.sa.sensitivity(
                self.sa.RB87, dataclasses.replace(inp.apparatus, omega_tilde=w)
            ).S
            for w in inp.omega_range
        ]
        problems += checks.optimum_not_above_edges(out["optimum"].S_min, s_edges)
        return problems

    def finish(self) -> list[list[str]]:
        return []


WORKLOADS = {
    "readme_cli": ReadmeCli,
    "tabulated_replay": TabulatedReplay,
    "response_probe": ResponseProbe,
}
