"""End-to-end CLI runs: determinism, file contents, exit codes."""
import copy
import dataclasses
import filecmp
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import socaccel
from socaccel import (
    RB87, ApparatusParams, ResponseCurve, TrapConfig, cli, derive_modes, preset_cp, preset_up, pulses,
    response_cp, response_up, run_sequence,
)
from socaccel.cli import main
from socaccel.pulses import Evolve, RotateY, _center_from_amplitudes
from socaccel.sensitivity import _sensitivity_reports
from test_cli_fuzz import CUSTOM_CONFIG

WT = 2 * math.pi * 1000.0


def base_config():
    return {
        "schema_version": 1,
        "trap": {"mass": 1.44316e-25, "omega_tilde": WT, "epsilon": 3.0},
        "species": "Rb87",
        "sequence": {"kind": "up", "r0": [6.8e-7, 0.0], "t": 4 * math.pi / WT},
        "drive": {"kind": "circular", "amplitude": 0.68, "omega": 1.5 * WT, "sense": -1},
        "thermal": {"n_plus": 1.0, "n_minus": 1.0},
        "monte_carlo": {"count": 200, "seed": 42},
        "apparatus": {
            "temperature": 1e-6,
            "layer_spacing": 1e-6,
            "homogeneity_radius": 25e-6,
            "omega_tilde": WT,
            "epsilon": 22.0,
            "atoms_per_layer": 1e6,
        },
        "trajectory": {"kind": "cp", "r0": [6.8e-7, 0.0], "t": math.pi / WT, "points": 200},
        # window chosen so both mode frequencies fall on echo-curve zeros
        "response": {"points": 2048, "t": 4 * math.pi / WT},
        "sweep": {"atoms_min": 100, "atoms_max": 1e6, "points": 7},
    }


def write_config(tmp_path, cfg, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def run(cmd, cfg_path, out_dir, *extra):
    return main([cmd, "--config", cfg_path, "--out", str(out_dir), *extra])


@pytest.mark.parametrize("cmd", ["modes", "trajectory", "response", "thermal", "sensitivity"])
def test_repeat_runs_are_byte_identical(tmp_path, cmd):
    cfg_path = write_config(tmp_path, base_config())
    d1, d2 = tmp_path / "one", tmp_path / "two"
    assert run(cmd, cfg_path, d1) == 0
    assert run(cmd, cfg_path, d2) == 0
    names = sorted(p.name for p in d1.iterdir())
    assert names == sorted(p.name for p in d2.iterdir()) and names
    for name in names:
        assert filecmp.cmp(d1 / name, d2 / name, shallow=False), f"{cmd}/{name} differs"


class TestModes:
    def test_report_contents(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, base_config())
        assert run("modes", cfg_path, tmp_path / "out") == 0
        report = json.loads((tmp_path / "out" / "modes.json").read_text())
        assert abs(report["epsilon"] - 3.0) < 1e-12
        assert abs(report["omega_plus"] - 3.0 * report["omega_minus"]) < 1e-9 * report["omega_plus"]
        assert abs(report["omega_tilde"] - WT) < 1e-9 * WT
        out = capsys.readouterr().out
        assert "omega_plus" in out and "l_osc" in out

    def test_uncoupled_trap_degenerate_modes(self, tmp_path):
        cfg = base_config()
        cfg["trap"] = {"mass": 1.44316e-25, "omega0": WT, "omega_c": 0.0}
        cfg_path = write_config(tmp_path, cfg)
        assert run("modes", cfg_path, tmp_path / "out") == 0
        report = json.loads((tmp_path / "out" / "modes.json").read_text())
        assert report["omega_plus"] == report["omega_minus"]
        assert report["epsilon"] == 1.0


class TestTrajectory:
    def load(self, out_dir):
        data = np.loadtxt(out_dir / "trajectory.csv", delimiter=",", skiprows=1)
        header = (out_dir / "trajectory.csv").read_text().splitlines()[0]
        assert header == "t_s,x_up_m,y_up_m,x_down_m,y_down_m"
        return data

    def test_up_starts_at_displacement_and_mirrors(self, tmp_path):
        cfg = base_config()
        cfg["trajectory"] = {"kind": "up", "r0": [6.8e-7, 0.0], "t": 2 * math.pi / WT, "points": 401}
        cfg_path = write_config(tmp_path, cfg)
        assert run("trajectory", cfg_path, tmp_path / "out") == 0
        data = self.load(tmp_path / "out")
        assert data[0, 0] == 0.0
        assert data[0, 1] == -6.8e-7 and data[0, 2] == 0.0
        assert data[0, 3] == -6.8e-7 and data[0, 4] == 0.0
        # spin paths mirror across the release axis (x here)
        assert np.allclose(data[:, 1], data[:, 3], rtol=0, atol=1e-12 * 6.8e-7)
        assert np.allclose(data[:, 2], -data[:, 4], rtol=0, atol=1e-12 * 6.8e-7)

    def test_cp_path_closes_at_four_t(self, tmp_path):
        cfg_path = write_config(tmp_path, base_config())  # cp, t = pi/WT
        assert run("trajectory", cfg_path, tmp_path / "out") == 0
        data = self.load(tmp_path / "out")
        t_seg = math.pi / WT
        assert abs(data[-1, 0] - 4 * t_seg) < 1e-15
        for col in (1, 2, 3, 4):
            assert abs(data[-1, col] - data[0, col]) < 1e-9 * 6.8e-7, f"column {col} did not close"

    def test_json_format(self, tmp_path):
        cfg_path = write_config(tmp_path, base_config())
        assert run("trajectory", cfg_path, tmp_path / "out", "--format", "json") == 0
        payload = json.loads((tmp_path / "out" / "trajectory.json").read_text())
        assert set(payload) == {"t_s", "up_m", "down_m"}
        assert len(payload["t_s"]) == len(payload["up_m"])

    def test_bad_kind_is_config_error(self, tmp_path):
        cfg = base_config()
        cfg["trajectory"]["kind"] = "spiral"
        cfg_path = write_config(tmp_path, cfg)
        assert run("trajectory", cfg_path, tmp_path / "out") == 2

    @pytest.mark.parametrize("kind", ["up", "cp"])
    def test_evolve_boundaries_are_the_engine_trace_centers(self, tmp_path, kind):
        r0, t, n = [6.8e-7, 2e-7], 1.3 * math.pi / WT, 57  # t off the velocity-zero times
        cfg = base_config()
        cfg["trajectory"] = {"kind": kind, "r0": r0, "t": t, "points": n}
        assert run("trajectory", write_config(tmp_path, cfg), tmp_path / "out") == 0
        data = self.load(tmp_path / "out")
        config = TrapConfig.from_modes(1.44316e-25, WT, 3.0)
        modes = derive_modes(config)
        sequence = (preset_up if kind == "up" else preset_cp)(r0, t)
        trace = run_sequence(config, None, sequence).trace
        # the column of the path that leaves the split spin up (down) follows spin +1 (-1),
        # flipped by every pi pulse
        spins, row, checked = {1: +1, 3: -1}, 0, 0
        for step, before, after in zip(sequence, trace, trace[1:]):
            if isinstance(step, RotateY) and abs(step.angle) == math.pi:
                spins = {col: -spin for col, spin in spins.items()}
            if not isinstance(step, Evolve):
                continue
            for i, branches in ((row, before[2]), (row + n - 1, after[2])):
                assert data[i, 0] == (before[1] if i == row else after[1])
                for col, spin in spins.items():
                    (b,) = [b for b in branches if b.spin == spin]
                    zeta = _center_from_amplitudes(modes, spin, b.alpha_plus, b.alpha_minus)[0]
                    assert abs(complex(*data[i, col : col + 2]) - zeta) <= 1e-12 * modes.l_osc
                    checked += 1
            row += n - 1
        assert checked == (4 if kind == "up" else 12) and row == len(data) - 1

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_products_do_not_depend_on_the_segment_cache(self, tmp_path, fmt):
        cfg_path = write_config(tmp_path, base_config())
        pulses._SEGMENT_CACHE.clear()
        assert run("trajectory", cfg_path, tmp_path / "cold", "--format", fmt) == 0
        assert pulses._SEGMENT_CACHE, "the second run must find its windows in the cache"
        assert run("trajectory", cfg_path, tmp_path / "warm", "--format", fmt) == 0
        name = f"trajectory.{fmt}"
        assert filecmp.cmp(tmp_path / "cold" / name, tmp_path / "warm" / name, shallow=False)

    @pytest.mark.parametrize("r0", [1e308, -1e308, [1e308, 0.0]])
    def test_unrepresentable_displacement_exits_2(self, tmp_path, capsys, r0):
        cfg = base_config()
        cfg["trajectory"]["r0"] = r0
        assert run("trajectory", write_config(tmp_path, cfg), tmp_path / "out") == 2
        assert capsys.readouterr().err == "error: Branch.alpha_plus is not finite\n"


class TestResponse:
    def test_curves_and_summary(self, tmp_path):
        cfg_path = write_config(tmp_path, base_config())
        out = tmp_path / "out"
        assert run("response", cfg_path, out) == 0
        assert {p.name for p in out.iterdir()} == {
            "response_up.csv", "response_cp.csv", "response_summary.json",
        }
        cp = np.loadtxt(out / "response_cp.csv", delimiter=",", skiprows=1)
        assert cp[0, 1] == 0.0 and cp[0, 2] == 0.0, "echo curve must vanish at DC"
        summary = json.loads((out / "response_summary.json").read_text())
        modes = derive_modes(TrapConfig(1.44316e-25, 2 * WT * math.sqrt(3.0) / 4.0, 2 * WT * 2.0 / 4.0))
        spacing = cp[1, 0] - cp[0, 0]
        zeros = summary["cp"]["zeros_rad_per_s"]
        for target in (0.0, modes.omega_minus, modes.omega_plus):
            assert min(abs(z - target) for z in zeros) <= spacing / 2.0
        assert summary["up"]["main_lobe_fwhm_rad_per_s"] > 0

    def test_rescale_flag_is_plotting_only(self, tmp_path):
        cfg_path = write_config(tmp_path, base_config())
        plain, scaled = tmp_path / "plain", tmp_path / "scaled"
        assert run("response", cfg_path, plain) == 0
        assert run("response", cfg_path, scaled, "--rescale-cp") == 0
        a = np.loadtxt(plain / "response_cp.csv", delimiter=",", skiprows=1)
        b = np.loadtxt(scaled / "response_cp.csv", delimiter=",", skiprows=1)
        assert np.array_equal(b[:, 1], 4.0 * a[:, 1])
        assert np.array_equal(b[:, 2], 4.0 * a[:, 2])
        assert np.allclose(b[:, 3], 16.0 * a[:, 3], rtol=1e-12, atol=0)
        s_plain = json.loads((plain / "response_summary.json").read_text())
        s_scaled = json.loads((scaled / "response_summary.json").read_text())
        assert s_scaled["rescale_cp"] is True
        assert s_scaled["cp"] == s_plain["cp"], "summary must describe the unscaled curve"
        assert np.array_equal(
            np.loadtxt(plain / "response_up.csv", delimiter=",", skiprows=1),
            np.loadtxt(scaled / "response_up.csv", delimiter=",", skiprows=1),
        )

    def test_unresolved_grid_is_numerical_failure(self, tmp_path):
        cfg = base_config()
        cfg["response"]["points"] = 32
        cfg_path = write_config(tmp_path, cfg)
        assert run("response", cfg_path, tmp_path / "out") == 4


class TestThermal:
    def test_report_and_seed_override(self, tmp_path):
        cfg_path = write_config(tmp_path, base_config())
        d1, d2, d3 = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        assert run("thermal", cfg_path, d1) == 0
        assert run("thermal", cfg_path, d2, "--seed", "42") == 0
        assert run("thermal", cfg_path, d3, "--seed", "43") == 0
        assert filecmp.cmp(d1 / "thermal.json", d2 / "thermal.json", shallow=False)
        assert not filecmp.cmp(d1 / "thermal.json", d3 / "thermal.json", shallow=False)
        payload = json.loads((d1 / "thermal.json").read_text())
        assert payload["sequence"] == "up"
        assert payload["count"] == 200 and payload["seed"] == 42
        assert 0.0 < payload["suppression"] < 1.0
        assert payload["mc_stderr"] > 0.0

    def test_zero_temperature_suppression_is_unity(self, tmp_path):
        cfg = base_config()
        cfg["thermal"] = {"temperature": 0.0}
        cfg["monte_carlo"]["count"] = 100
        cfg_path = write_config(tmp_path, cfg)
        assert run("thermal", cfg_path, tmp_path / "out") == 0
        payload = json.loads((tmp_path / "out" / "thermal.json").read_text())
        assert payload["suppression"] == 1.0
        assert abs(payload["mc_mean"] - payload["analytic"]) < 1e-13


class TestSensitivity:
    def test_report_and_sweeps(self, tmp_path):
        cfg_path = write_config(tmp_path, base_config())
        out = tmp_path / "out"
        assert run("sensitivity", cfg_path, out) == 0
        report = json.loads((out / "sensitivity.json").read_text())
        assert report["n_layers"] == 25
        assert abs(report["N_c"] - 218.2) < 1e-3 * 218.2
        s_sweep = np.loadtxt(out / "sweep_s_vs_n.csv", delimiter=",", skiprows=1)
        assert s_sweep.shape == (7, 3)
        s = s_sweep[:, 2]
        assert np.all(s[:-1] >= s[1:] * (1 - 1e-12)), "S must not increase with atoms"
        bw = np.loadtxt(out / "sweep_bandwidth_vs_n.csv", delimiter=",", skiprows=1)
        above_nc = bw[bw[:, 0] > 1.5 * report["N_c"]][:, 1]
        # small-N optima can pin to the scan boundary, so only monotone overall
        assert np.all(np.diff(above_nc) >= 0), "bandwidth must not fall above N_c"
        assert above_nc[-1] > 10 * above_nc[0], "bandwidth should grow strongly at large N"

    def test_infeasible_geometry_exit_code(self, tmp_path):
        cfg = base_config()
        cfg["apparatus"]["temperature"] = 1e-3
        cfg_path = write_config(tmp_path, cfg)
        assert run("sensitivity", cfg_path, tmp_path / "out") == 3

    @pytest.mark.parametrize("key", ["omega_tilde", "homogeneity_radius", "atoms_per_layer"])
    def test_overflowing_apparatus_exits_2(self, tmp_path, capsys, key):
        cfg = base_config()
        cfg["apparatus"][key] = 1e308
        assert run("sensitivity", write_config(tmp_path, cfg), tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


class TestConfigValidation:
    def test_unknown_top_level_key(self, tmp_path):
        cfg = base_config()
        cfg["tarp"] = {}
        assert run("modes", write_config(tmp_path, cfg), tmp_path / "out") == 2

    def test_unknown_nested_key(self, tmp_path):
        cfg = base_config()
        cfg["trap"]["massx"] = 1.0
        assert run("modes", write_config(tmp_path, cfg), tmp_path / "out") == 2

    def test_invalid_mass(self, tmp_path):
        cfg = base_config()
        cfg["trap"]["mass"] = -1.0
        assert run("modes", write_config(tmp_path, cfg), tmp_path / "out") == 2

    def test_missing_schema_version(self, tmp_path):
        cfg = base_config()
        del cfg["schema_version"]
        assert run("modes", write_config(tmp_path, cfg), tmp_path / "out") == 2

    def test_unsupported_schema_version(self, tmp_path):
        cfg = base_config()
        cfg["schema_version"] = 2
        assert run("modes", write_config(tmp_path, cfg), tmp_path / "out") == 2

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["modes", "--config", str(path), "--out", str(tmp_path / "out")]) == 2

    def test_missing_file(self, tmp_path):
        assert main(["modes", "--config", str(tmp_path / "absent.json")]) == 2

    # (config key, bad value); a bare section name replaces the whole section
    @pytest.mark.parametrize(
        "key, value",
        [
            ("monte_carlo.count", 150.7),
            ("monte_carlo.seed", 1.9),
            ("monte_carlo.count", "abc"),
            ("monte_carlo.seed", "x"),
            ("monte_carlo.count", True),
            ("monte_carlo.seed", None),
            ("trap.mass", "abc"),
            ("trap.mass", None),
            ("trap.epsilon", 0.5),
            ("apparatus.temperature", "cold"),
            ("apparatus.atoms_per_layer", [1e6]),
            ("thermal.n_plus", "x"),
            ("sequence.t", "0.002"),
            ("response.points", "x"),
            ("response.points", 2048.5),
            ("sweep.points", "abc"),
            ("drive.sense", "x"),
            ("drive.kind", ["circular"]),
            ("sequence", {"kind": "custom", "steps": [{"op": ["evolve"], "duration": 1e-3}]}),
            ("trajectory.points", 2.5),
            ("drive", {"kind": "tabulated", "path": "absent.csv"}),
            ("drive", {"kind": "tabulated", "path": "not-numbers.csv"}),
            ("output.directory", os.devnull),
            ("response.rescale_cp", "false"),
            ("response.rescale_cp", 1),
        ],
        # monte_carlo cases are identified by the bare key, e.g. count-150.7
        ids=lambda v: v.removeprefix("monte_carlo.") if isinstance(v, str) else None,
    )
    def test_monte_carlo_integers_are_strict(self, tmp_path, monkeypatch, capsys, key, value):
        monkeypatch.chdir(tmp_path)  # relative drive paths resolve here
        (tmp_path / "not-numbers.csv").write_text("t,gx\n0,abc\n1,2\n")
        cfg = base_config()
        cfg["output"] = {"directory": str(tmp_path / "out")}
        section, _, leaf = key.partition(".")
        if leaf:
            cfg[section][leaf] = value
        else:
            cfg[section] = value
        readers = {
            "apparatus": "sensitivity", "sweep": "sensitivity",
            "response": "response", "trajectory": "trajectory",
        }
        assert main([readers.get(section, "thermal"), "--config", write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        if section == "monte_carlo":
            assert f"error: {key} must be an integer" in err
        if key == "response.rescale_cp":
            assert "error: response.rescale_cp must be a boolean" in err

    def test_monte_carlo_accepts_integral_floats(self, tmp_path):
        cfg = base_config()
        cfg["monte_carlo"] = {"count": 2e2, "seed": 42.0}
        d1, d2 = tmp_path / "float", tmp_path / "int"
        assert run("thermal", write_config(tmp_path, cfg), d1) == 0
        assert run("thermal", write_config(tmp_path, base_config(), "int.json"), d2) == 0
        assert filecmp.cmp(d1 / "thermal.json", d2 / "thermal.json", shallow=False)

    @pytest.mark.parametrize(
        "cmd, flag, value",
        [
            ("modes", "--threads", "2"),
            ("modes", "--seed", "1"),
            ("trajectory", "--seed", "1"),
            ("response", "--seed", "1"),
            ("sensitivity", "--seed", "1"),
            ("modes", "--format", "json"),
            ("thermal", "--format", "json"),
            ("sensitivity", "--format", "json"),
        ],
    )
    def test_threads_flag_is_gone(self, tmp_path, cmd, flag, value):
        with pytest.raises(SystemExit) as exc:
            run(cmd, write_config(tmp_path, base_config()), tmp_path / "out", flag, value)
        assert exc.value.code == 2

    def test_seed_must_fit_64_bits(self, tmp_path):
        cfg_path = write_config(tmp_path, base_config())
        assert main(["thermal", "--config", cfg_path, "--out", str(tmp_path / "out"), "--seed", "-1"]) == 2


class TestCountBounds:
    READERS = {
        "monte_carlo": "thermal", "response": "response",
        "sweep": "sensitivity", "trajectory": "trajectory",
    }

    @pytest.mark.parametrize("key", sorted(cli._MAX_COUNT))
    @pytest.mark.parametrize("over", ["bound+1", "1e308"])
    def test_count_above_bound_exits_2(self, tmp_path, capsys, key, over):
        bound = cli._MAX_COUNT[key]
        value = bound + 1 if over == "bound+1" else 1e308
        cfg = base_config()
        section, leaf = key.split(".")
        cfg[section][leaf] = value
        cfg_path = write_config(tmp_path, cfg)
        assert run(self.READERS[section], cfg_path, tmp_path / "out") == 2
        assert capsys.readouterr().err == f"error: {key} must be <= {bound}, got {value!r}\n"

    @pytest.mark.parametrize("key, value", [
        ("monte_carlo.count", 10_000), ("monte_carlo.count", 1e6), ("response.points", 4096),
        ("sweep.points", 25), ("trajectory.points", 200),
    ])
    def test_readme_and_large_thermal_counts_stay_legal(self, key, value):
        # read only: an accepted count is never run here
        assert cli._config_count(value, key) == value


# the writers before they formatted a whole file with one %, kept as the reference
def per_row_write_csv(path, header, rows):
    with open(path, "w", newline="\n") as f:
        f.write(header + "\n")
        for row in rows:
            f.write(",".join("%.17g" % float(v) for v in row) + "\n")


def per_row_to_csv(curve, path):
    lines = ["omega_rad_per_s,re,im,abs2"]
    with np.errstate(over="ignore"):
        for w, v in zip(curve.omega, curve.values):
            lines.append("%.17g,%.17g,%.17g,%.17g" % (w, v.real, v.imag, abs(v) ** 2))
    Path(path).write_text("\n".join(lines) + "\n", newline="\n")


README_TRAP = TrapConfig.from_modes(1.44316e-25, 6283.185307179586, 3.0)
README_APPARATUS = ApparatusParams(
    temperature=1e-6, layer_spacing=1e-6, homogeneity_radius=25e-6,
    omega_tilde=6283.185307179586, epsilon=22.0, atoms_per_layer=1e6,
)


def readme_curves():
    """The README response curves: default t and r0, 4096 points, and the x4 echo curve."""
    modes = derive_modes(README_TRAP)
    t = 5.0 * math.pi / modes.omega_tilde
    grid = np.linspace(0.0, 3.0 * modes.omega_plus, 4096)
    cp = response_cp(modes, modes.l_osc, t, grid=grid)
    return {
        "up": response_up(modes, modes.l_osc, t, grid=grid),
        "cp": cp,
        "cp-x4": ResponseCurve(cp.omega, cp.values * 4.0, kind="cp-x4"),
    }


class TestWriters:
    def assert_same_curve_file(self, tmp_path, curve):
        curve.to_csv(tmp_path / "new.csv")
        per_row_to_csv(curve, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    @pytest.mark.parametrize("name", ["up", "cp", "cp-x4"])
    def test_readme_curve_matches_per_row_writer(self, tmp_path, name):
        self.assert_same_curve_file(tmp_path, readme_curves()[name])

    def test_overflowing_abs2_reads_inf(self, tmp_path):
        values = np.array([1e200, -3e200j, 1e200 + 1e200j, 1.3e154, 2.5e-200j, -0.0, 1.0 - 2.0j])
        curve = ResponseCurve(np.linspace(0.0, 6.0, 7), values)
        self.assert_same_curve_file(tmp_path, curve)
        rows = (tmp_path / "new.csv").read_text().splitlines()[1:]
        assert [row.split(",")[3] for row in rows[:3]] == ["inf"] * 3

    def assert_same_table(self, tmp_path, columns):
        cli._write_csv(tmp_path / "new.csv", "a,b,c", columns)
        per_row_write_csv(tmp_path / "old.csv", "a,b,c", zip(*columns))
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_readme_sweep_matches_per_row_writer(self, tmp_path):
        atoms = np.geomspace(100, 1e6, 25)
        points = [dataclasses.replace(README_APPARATUS, atoms_per_layer=n) for n in atoms]
        reps = _sensitivity_reports(RB87, points)
        self.assert_same_table(
            tmp_path, (atoms, [n * r.n_layers for n, r in zip(atoms, reps)], [r.S for r in reps])
        )
        self.assert_same_table(tmp_path, (atoms, [r.bandwidth for r in reps], [r.tau for r in reps]))

    def test_special_values_match_per_row_writer(self, tmp_path):
        columns = (
            [0.0, -0.0, np.float64(-0.0), 25],
            [math.inf, -math.inf, 5e-324, 1e308],
            np.array([math.nan, -1.5e-310, 0.1, -7.0]),
        )
        self.assert_same_table(tmp_path, columns)
        rows = (tmp_path / "new.csv").read_text().splitlines()
        assert rows[1] == "0,inf,nan" and rows[2].startswith("-0,-inf,")


class TestDispatch:
    def test_swapped_handler_runs_after_parser_was_built(self, tmp_path, monkeypatch):
        cfg_path = write_config(tmp_path, base_config())
        assert run("modes", cfg_path, tmp_path / "first") == 0  # builds the parser
        seen = []
        real = cli.cmd_modes

        def wrapper(args):
            seen.append(args.command)
            return real(args)

        monkeypatch.setattr(cli, "cmd_modes", wrapper)
        assert run("modes", cfg_path, tmp_path / "second") == 0
        assert seen == ["modes"]
        assert (tmp_path / "second" / "modes.json").read_bytes() == (
            tmp_path / "first" / "modes.json"
        ).read_bytes()

    def test_parser_is_built_once_and_not_at_import(self):
        assert cli._parser() is cli._parser()
        src = os.path.dirname(os.path.dirname(os.path.abspath(socaccel.__file__)))
        code = "import socaccel.cli as c; assert c._parser.cache_info().currsize == 0"
        env = {**os.environ, "PYTHONPATH": src}
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)


def test_cli_import_leaves_scipy_unloaded():
    src = os.path.dirname(os.path.dirname(os.path.abspath(socaccel.__file__)))
    code = "import socaccel.cli, sys; assert 'scipy' not in sys.modules"
    env = {**os.environ, "PYTHONPATH": src}
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)


class TestSchema:
    """The one config schema: its README table, and configs that used to raise."""

    def readme_rows(self):
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        rows = [line for line in text.splitlines() if line.startswith("| ")]
        return {row.split("|")[1].strip(): row for row in rows if "`" in row.split("|")[1]}

    def test_every_key_kind_and_op_is_in_the_readme_table(self):
        rows = self.readme_rows()
        tables = {f"`{name}`": schema for name, schema in cli._SECTIONS.items()}
        tables.update({f"drive `{kind}`": schema for kind, (_, schema) in cli._DRIVES.items()})
        tables.update({f"step `{op}`": schema for op, (_, schema) in cli._STEPS.items()})
        assert sorted(rows) == sorted(tables), "README table rows and schema tables differ"
        for label, schema in tables.items():
            missing = [key for key in schema or () if f"`{key}`" not in rows[label]]
            assert not missing, f"README row {label} does not list {missing}"

    @pytest.mark.parametrize(
        "section, value, key",
        [
            ("drive", {"kind": "circular", "amplitude": 0.68, "omega": 9e3, "sens": -1}, "drive.sens"),
            ("drive", {"kind": "sum", "parts": [{"kind": "zero", "gx": 1.0}]}, "drive.parts[0].gx"),
            ("sequence", {"kind": "custom", "steps": [{"op": "readout", "axes": "z"}]},
             "sequence.steps[0].axes"),
            ("species", {"mass": 1e-25, "scattering_length": 5e-9, "gamma_se": 14.0, "a": 1.0},
             "species.a"),
        ],
    )
    def test_unknown_key_in_a_nested_object_exits_2(self, tmp_path, capsys, section, value, key):
        cfg = base_config()
        cfg[section] = value
        cmd = "sensitivity" if section == "species" else "thermal"
        assert run(cmd, write_config(tmp_path, cfg), tmp_path / "out") == 2
        assert capsys.readouterr().err == f"error: unknown config key: '{key}'\n"

    def test_step_without_its_required_key_exits_2(self, tmp_path, capsys):
        cfg = base_config()
        steps = [{"op": "rotate_y", "angle": 1.0}, {"op": "displace"}]
        cfg["sequence"] = {"kind": "custom", "steps": steps}
        assert run("thermal", write_config(tmp_path, cfg), tmp_path / "out") == 2
        assert capsys.readouterr().err == "error: sequence.steps[1].shift is required\n"

    @pytest.mark.parametrize("path", [[1.0], 0, None, {}, ["0,0.1,0", "0.01,0.1,0"]])
    def test_tabulated_path_that_names_no_file_exits_2(self, tmp_path, capsys, path):
        cfg = base_config()
        cfg["drive"] = {"kind": "tabulated", "path": path}
        assert run("thermal", write_config(tmp_path, cfg), tmp_path / "out") == 2
        assert capsys.readouterr().err.startswith(f"error: drive.path: cannot read {path!r}: ")

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_tabulated_sample_that_is_not_finite_exits_2(self, tmp_path, capsys, bad):
        rows = [f"{0.1 * k * math.pi / WT!r},0.1,{bad if k == 20 else 0}" for k in range(41)]
        path = tmp_path / "drive.csv"
        path.write_text("t,gx,gy\n" + "\n".join(rows) + "\n")
        cfg = base_config()
        cfg["drive"] = {"kind": "tabulated", "path": str(path)}
        assert run("thermal", write_config(tmp_path, cfg), tmp_path / "out") == 2
        assert capsys.readouterr().err == (
            f"error: drive.path: cannot read {str(path)!r}: tabulated samples must be finite\n"
        )

    @pytest.mark.parametrize("big", ["1e308", "1e150"])
    def test_tabulated_sample_that_overflows_exits_2(self, tmp_path, capsys, big):
        rows = [f"{0.1 * k * math.pi / WT!r},0.1,{big if k == 20 else 0}" for k in range(41)]
        path = tmp_path / "drive.csv"
        path.write_text("t,gx,gy\n" + "\n".join(rows) + "\n")
        cfg = base_config()
        cfg["drive"] = {"kind": "tabulated", "path": str(path)}
        assert run("thermal", write_config(tmp_path, cfg), tmp_path / "out") == 2
        assert capsys.readouterr().err.startswith("error: drive overflows the segment coefficients on [")

    @pytest.mark.parametrize("name", [{}, 0, None])
    def test_sequence_name_must_be_a_string(self, tmp_path, capsys, name):
        cfg = copy.deepcopy(CUSTOM_CONFIG)
        cfg["sequence"]["name"] = name
        assert run("thermal", write_config(tmp_path, cfg), tmp_path / "out") == 2
        assert capsys.readouterr().err == f"error: sequence.name must be a string, got {name!r}\n"

    @pytest.mark.parametrize("cmd", ["modes", "trajectory", "response", "thermal"])
    def test_trap_without_an_oscillator_length_exits_2(self, tmp_path, capsys, cmd):
        cfg = base_config()
        cfg["trap"]["mass"] = 1e308  # l_osc = sqrt(hbar / (mass * omega_tilde)) is 0
        assert run(cmd, write_config(tmp_path, cfg), tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: l_osc is 0.0 in floating point for TrapConfig(mass=1e+308")

    @pytest.mark.parametrize("first_angle", [0.0, None])  # a zero-angle split, or none at all
    def test_thermal_on_a_sequence_that_never_splits(self, tmp_path, first_angle):
        steps = [
            {"op": "displace", "shift": [6.8e-7, 0.0]},
            {"op": "evolve", "duration": 4 * math.pi / WT},
            {"op": "rotate_y", "angle": -math.pi / 2},
            {"op": "readout"},
        ]
        if first_angle is not None:
            steps.insert(0, {"op": "rotate_y", "angle": first_angle})
        cfg = base_config()
        cfg["sequence"] = {"kind": "custom", "steps": steps}
        assert run("thermal", write_config(tmp_path, cfg), tmp_path / "out") == 0
        payload = json.loads((tmp_path / "out" / "thermal.json").read_text())
        assert payload["analytic"] == payload["mc_mean"] == 0.0
        assert payload["suppression"] == 1.0

    @pytest.mark.parametrize(
        "key, value, cause",
        [
            ("homogeneity_radius", 1e290, "curve values must be finite"),
            ("temperature", 1e-300, "curve is identically zero"),
        ],
    )
    def test_degenerate_bandwidth_curve_names_its_cause(self, tmp_path, capsys, key, value, cause):
        cfg = base_config()
        cfg["apparatus"][key] = value
        assert run("sensitivity", write_config(tmp_path, cfg), tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bandwidth curve at r_0 = ") and " m, segment t = " in err
        assert err.endswith(f" s: {cause}\n")
