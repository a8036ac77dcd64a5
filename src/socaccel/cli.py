"""Command-line front end: deterministic data files from a JSON run config.

Subcommands: modes | trajectory | response | thermal | sensitivity.  One JSON
document (schema_version 1) describes the run; unknown keys anywhere in it
are hard errors so config typos never pass silently.  Outputs are plain CSV
(curves, %.17g columns) and JSON (reports, sorted keys) with no timestamps,
so identical configs and seeds reproduce byte-identical files.

Exit codes: 0 success; 2 configuration or parameter error; 3 infeasible
physics (e.g. the thermal cloud does not fit the homogeneity radius);
4 numerical failure (divergence, unresolved grid, nonlinear response, no
bracketed optimum).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .errors import (
    AmplitudeTooLargeError,
    BracketingError,
    ConfigError,
    CoverageError,
    DivergenceError,
    InfeasibleGeometryError,
    ParameterError,
    ResolutionError,
    SocAccelError,
)
from .pulses import (
    Displace,
    Evolve,
    PulseSequence,
    Readout,
    RotateY,
    preset_cp,
    preset_up,
)
from .response import _csv_text, find_peaks, find_zeros, main_lobe_fwhm, response_cp, response_up
from .sensitivity import RB87, ApparatusParams, SpeciesParams, _sensitivity_reports
from .signals import Constant, Sinusoid, SumSignal, Tabulated, Zero, circular
from .thermal import ThermalParams, thermal_signal
from .trap import TrapConfig, _trajectory_arrays, derive_modes

__all__ = ["main", "build_parser", "load_config"]


# ---------------------------------------------------------------------------
# config schema (version 1)

_SECTION_KEYS = {
    "trap": {"mass", "omega0", "omega_c", "omega_tilde", "epsilon"},
    "species": None,  # "Rb87" or an explicit parameter dict, checked in _species_from
    "sequence": {"kind", "name", "r0", "t", "steps"},
    "drive": None,  # recursive, checked in _drive_from
    "thermal": {"temperature", "n_plus", "n_minus"},
    "monte_carlo": {"count", "seed"},
    "apparatus": {
        "temperature",
        "layer_spacing",
        "homogeneity_radius",
        "omega_tilde",
        "epsilon",
        "atoms_per_layer",
    },
    "response": {"t", "r0", "points", "omega_max", "rescale_cp"},
    "trajectory": {"kind", "r0", "t", "points"},
    "sweep": {"atoms_min", "atoms_max", "points"},
    "output": {"directory", "format"},
}

# largest accepted counts; each bounds the arrays and files its subcommand makes
_MAX_COUNT = {
    "monte_carlo.count": 1_000_000,
    "response.points": 1 << 17,
    "sweep.points": 1_000,
    "trajectory.points": 100_000,
}


def load_config(path: str) -> dict:
    """Read and validate a run config; rejects unknown keys at every level."""
    try:
        with open(path, "r") as f:
            cfg = json.load(f)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    if "schema_version" not in cfg:
        raise ConfigError("config is missing required key 'schema_version'")
    if cfg["schema_version"] != 1:
        raise ConfigError(f"unsupported schema_version {cfg['schema_version']!r} (expected 1)")
    for key, value in cfg.items():
        if key == "schema_version":
            continue
        if key not in _SECTION_KEYS:
            raise ConfigError(f"unknown config key: {key!r}")
        allowed = _SECTION_KEYS[key]
        if allowed is not None:
            if not isinstance(value, dict):
                raise ConfigError(f"config section {key!r} must be an object")
            for sub in value:
                if sub not in allowed:
                    raise ConfigError(f"unknown config key: '{key}.{sub}'")
    return cfg


def _section(cfg: dict, name: str) -> dict:
    if name not in cfg:
        raise ConfigError(f"config is missing required section {name!r}")
    return cfg[name]


def _two_vector(value, where: str) -> tuple[float, float]:
    if not isinstance(value, list):
        return (_config_float(value, where), 0.0)
    if len(value) != 2:
        raise ConfigError(f"{where} must be a number or a 2-element list")
    return (_config_float(value[0], f"{where}[0]"), _config_float(value[1], f"{where}[1]"))


def _trap_from(cfg: dict) -> TrapConfig:
    sec = _section(cfg, "trap")
    if "mass" not in sec:
        raise ConfigError("trap.mass is required")
    mass = _config_float(sec["mass"], "trap.mass")
    by_modes = "omega_tilde" in sec or "epsilon" in sec
    by_raw = "omega0" in sec or "omega_c" in sec
    if by_modes and by_raw:
        raise ConfigError("trap accepts (omega0, omega_c) or (omega_tilde, epsilon), not both")
    if by_raw:
        if "omega0" not in sec:
            raise ConfigError("trap.omega0 is required with omega_c")
        omega0 = _config_float(sec["omega0"], "trap.omega0")
        return TrapConfig(mass, omega0, _config_float(sec.get("omega_c", 0.0), "trap.omega_c"))
    if by_modes:
        if "omega_tilde" not in sec:
            raise ConfigError("trap.omega_tilde is required with epsilon")
        wt = _config_float(sec["omega_tilde"], "trap.omega_tilde")
        return TrapConfig.from_modes(mass, wt, _config_float(sec.get("epsilon", 1.0), "trap.epsilon"))
    raise ConfigError("trap needs either omega0 (+ omega_c) or omega_tilde (+ epsilon)")


def _species_from(cfg: dict) -> SpeciesParams:
    sec = _section(cfg, "species")
    if isinstance(sec, str):
        if sec.lower() in ("rb87", "rb-87", "87rb"):
            return RB87
        raise ConfigError(f"unknown species preset {sec!r} (try 'Rb87')")
    if not isinstance(sec, dict):
        raise ConfigError("species must be a preset name or a parameter object")
    keys = ("gamma_se", "mass", "scattering_length")
    for key in sec:
        if key not in keys:
            raise ConfigError(f"unknown config key: 'species.{key}'")
    return SpeciesParams(**_required_floats(sec, "species", keys))


_DRIVE_KEYS = {
    "zero": set(),
    "constant": {"gx", "gy"},
    "sinusoid": {"amplitude", "omega", "phase"},
    "circular": {"amplitude", "omega", "phase", "sense"},
    "sum": {"parts"},
    "tabulated": {"path"},
}


def _drive_from(spec, where: str = "drive"):
    if spec is None:
        return Zero()
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError(f"{where} must be an object with a 'kind' field")
    kind = spec["kind"]
    if not isinstance(kind, str) or kind not in _DRIVE_KEYS:
        raise ConfigError(f"{where}.kind must be one of {sorted(_DRIVE_KEYS)}, got {kind!r}")
    for key in spec:
        if key != "kind" and key not in _DRIVE_KEYS[kind]:
            raise ConfigError(f"unknown config key: '{where}.{key}'")
    if kind == "zero":
        return Zero()
    if kind == "constant":
        return Constant(*(_config_float(spec.get(k, 0.0), f"{where}.{k}") for k in ("gx", "gy")))
    if kind == "sinusoid":
        if "amplitude" not in spec or "omega" not in spec:
            raise ConfigError(f"{where} sinusoid needs amplitude and omega")
        return Sinusoid(
            amplitude=_two_vector(spec["amplitude"], f"{where}.amplitude"),
            omega=_config_float(spec["omega"], f"{where}.omega"),
            phase=_config_float(spec.get("phase", 0.0), f"{where}.phase"),
        )
    if kind == "circular":
        if "amplitude" not in spec or "omega" not in spec:
            raise ConfigError(f"{where} circular needs amplitude and omega")
        return circular(
            amplitude=_config_float(spec["amplitude"], f"{where}.amplitude"),
            omega=_config_float(spec["omega"], f"{where}.omega"),
            phase=_config_float(spec.get("phase", 0.0), f"{where}.phase"),
            sense=_config_int(spec.get("sense", -1), f"{where}.sense"),
        )
    if kind == "sum":
        parts = spec.get("parts")
        if not isinstance(parts, list) or not parts:
            raise ConfigError(f"{where}.parts must be a non-empty list")
        return SumSignal(
            parts=tuple(_drive_from(p, f"{where}.parts[{i}]") for i, p in enumerate(parts))
        )
    # tabulated
    if "path" not in spec:
        raise ConfigError(f"{where} tabulated needs a path")
    try:
        return Tabulated.from_csv(spec["path"])
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{where}.path: cannot read {spec['path']!r}: {exc}") from exc


_STEP_KEYS = {
    "rotate_y": {"angle"},
    "displace": {"shift"},
    "evolve": {"duration", "mode"},
    "readout": {"axis"},
}


def _step_from(spec, where: str):
    if not isinstance(spec, dict) or "op" not in spec:
        raise ConfigError(f"{where} must be an object with an 'op' field")
    op = spec["op"]
    if not isinstance(op, str) or op not in _STEP_KEYS:
        raise ConfigError(f"{where}.op must be one of {sorted(_STEP_KEYS)}, got {op!r}")
    for key in spec:
        if key != "op" and key not in _STEP_KEYS[op]:
            raise ConfigError(f"unknown config key: '{where}.{key}'")
    if op == "rotate_y":
        return RotateY(_config_float(spec.get("angle"), f"{where}.angle"))
    if op == "displace":
        return Displace(_two_vector(spec["shift"], f"{where}.shift"))
    if op == "evolve":
        duration = _config_float(spec.get("duration"), f"{where}.duration")
        return Evolve(duration=duration, mode=spec.get("mode", "exact"))
    return Readout(axis=spec.get("axis", "z"))


def _sequence_from(cfg: dict, modes) -> PulseSequence:
    sec = _section(cfg, "sequence")
    kind = sec.get("kind", "up")
    if kind in ("up", "cp"):
        if "r0" not in sec or "t" not in sec:
            raise ConfigError(f"sequence kind {kind!r} needs r0 and t")
        r0 = _two_vector(sec["r0"], "sequence.r0")
        t = _config_float(sec["t"], "sequence.t")
        return preset_up(r0, t) if kind == "up" else preset_cp(r0, t, modes=modes)
    if kind == "custom":
        steps = sec.get("steps")
        if not isinstance(steps, list) or not steps:
            raise ConfigError("sequence.steps must be a non-empty list for kind 'custom'")
        built = tuple(_step_from(s, f"sequence.steps[{i}]") for i, s in enumerate(steps))
        return PulseSequence(steps=built, name=sec.get("name", "custom"))
    raise ConfigError(f"sequence.kind must be 'up', 'cp' or 'custom', got {kind!r}")


def _thermal_from(cfg: dict, modes) -> ThermalParams:
    sec = _section(cfg, "thermal")
    if "temperature" in sec and ("n_plus" in sec or "n_minus" in sec):
        raise ConfigError("thermal accepts temperature or occupations, not both")
    if "temperature" in sec:
        temperature = _config_float(sec["temperature"], "thermal.temperature")
        return ThermalParams.from_temperature(modes, temperature)
    if "n_plus" in sec or "n_minus" in sec:
        return ThermalParams.from_occupations(
            *(_config_float(sec.get(k, 0.0), f"thermal.{k}") for k in ("n_plus", "n_minus"))
        )
    raise ConfigError("thermal needs temperature or (n_plus, n_minus)")


def _apparatus_from(cfg: dict) -> ApparatusParams:
    keys = sorted(_SECTION_KEYS["apparatus"])
    return ApparatusParams(**_required_floats(_section(cfg, "apparatus"), "apparatus", keys))


def _required_floats(sec: dict, where: str, keys) -> dict:
    """Every one of ``keys`` from a config section, each read as a number."""
    for key in keys:
        if key not in sec:
            raise ConfigError(f"{where}.{key} is required")
    return {key: _config_float(sec[key], f"{where}.{key}") for key in keys}


def _config_float(value, where: str) -> float:
    """A JSON number, integer or float; strings, booleans and null are rejected."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    raise ConfigError(f"{where} must be a number, got {value!r}")


def _config_int(value, where: str) -> int:
    """A JSON integer; integral floats such as 1e4 are accepted, nothing else."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ConfigError(f"{where} must be an integer, got {value!r}")


def _config_count(value, where: str) -> int:
    """A JSON integer no larger than ``_MAX_COUNT[where]``."""
    n = _config_int(value, where)
    if n > _MAX_COUNT[where]:
        raise ConfigError(f"{where} must be <= {_MAX_COUNT[where]}, got {value!r}")
    return n


def _config_bool(value, where: str) -> bool:
    """A JSON boolean, true or false, nothing else."""
    if isinstance(value, bool):
        return value
    raise ConfigError(f"{where} must be a boolean, got {value!r}")


def _check_seed(seed: int, where: str) -> int:
    if not 0 <= seed < (1 << 64):
        raise ConfigError(f"{where} must fit in 64 bits, got {seed}")
    return seed


# ---------------------------------------------------------------------------
# deterministic writers

def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (np.floating, float)):
        v = float(value)
        return v if math.isfinite(v) else repr(v)
    if isinstance(value, (np.integer,)):
        return int(value)
    return value


def _write_json(path: str, obj) -> None:
    with open(path, "w", newline="\n") as f:
        f.write(json.dumps(_jsonable(obj), sort_keys=True, indent=2) + "\n")


def _write_csv(path: str, header: str, columns) -> None:
    with open(path, "w", newline="\n") as f:
        f.write(_csv_text(header, columns))


def _out_dir(args, cfg: dict) -> str:
    out = args.out or cfg.get("output", {}).get("directory", ".")
    try:
        os.makedirs(out, exist_ok=True)
    except (OSError, TypeError) as exc:
        raise ConfigError(f"cannot use output directory {out!r}: {exc}") from exc
    return out


def _out_format(args, cfg: dict) -> str:
    fmt = args.format or cfg.get("output", {}).get("format", "csv")
    if fmt not in ("csv", "json"):
        raise ConfigError(f"format must be 'csv' or 'json', got {fmt!r}")
    return fmt


# ---------------------------------------------------------------------------
# subcommands

def cmd_modes(args) -> int:
    cfg = load_config(args.config)
    out = _out_dir(args, cfg)
    config = _trap_from(cfg)
    modes = derive_modes(config)
    report = {
        "omega_plus": modes.omega_plus,
        "omega_minus": modes.omega_minus,
        "omega_tilde": modes.omega_tilde,
        "omega_c": modes.omega_c,
        "epsilon": modes.epsilon,
        "l_osc": modes.l_osc,
        "mass": config.mass,
    }
    _write_json(os.path.join(out, "modes.json"), report)
    print(f"omega_plus  = {modes.omega_plus:.9g} rad/s")
    print(f"omega_minus = {modes.omega_minus:.9g} rad/s")
    print(f"omega_tilde = {modes.omega_tilde:.9g} rad/s")
    print(f"epsilon     = {modes.epsilon:.9g}")
    print(f"l_osc       = {modes.l_osc:.9g} m")
    return 0


def _sequence_path(modes, sequence: PulseSequence, z0: complex, spin: int, n_per: int):
    """Sampled center path of one spin through ``sequence``, starting at rest at z0.

    Each Evolve is a segment of ``n_per`` samples that continues the phase-space
    point where the last one ended; each RotateY(+-pi) flips sigma.
    """
    times, zetas = [], []
    z, v = z0, 0j
    t_abs = 0.0
    sigma = spin
    for step in sequence:
        if isinstance(step, RotateY) and abs(step.angle) == math.pi:
            sigma = -sigma
        elif isinstance(step, Evolve):
            local = np.linspace(0.0, step.duration, n_per)
            zeta, zeta_dot = _trajectory_arrays(modes, sigma, z, v, local)
            keep = slice(None) if t_abs == 0.0 else slice(1, None)
            times.append(t_abs + local[keep])
            zetas.append(zeta[keep])
            z, v = zeta[-1], zeta_dot[-1]
            t_abs += step.duration
    return np.concatenate(times), np.concatenate(zetas)


def cmd_trajectory(args) -> int:
    cfg = load_config(args.config)
    out = _out_dir(args, cfg)
    fmt = _out_format(args, cfg)
    config = _trap_from(cfg)
    modes = derive_modes(config)
    sec = _section(cfg, "trajectory")
    kind = sec.get("kind", "up")
    if "r0" not in sec or "t" not in sec:
        raise ConfigError("trajectory needs r0 and t")
    r0 = _two_vector(sec["r0"], "trajectory.r0")
    t = _config_float(sec["t"], "trajectory.t")
    if not t > 0:
        raise ConfigError(f"trajectory.t must be > 0, got {t}")
    n = _config_count(sec.get("points", 1000), "trajectory.points")
    if n < 2:
        raise ConfigError(f"trajectory.points must be >= 2, got {n}")
    if kind not in ("up", "cp"):
        raise ConfigError(f"trajectory.kind must be 'up' or 'cp', got {kind!r}")
    sequence = (preset_up if kind == "up" else preset_cp)(r0, t)
    z0 = complex(r0[0], r0[1])
    times, z_up = _sequence_path(modes, sequence, z0, +1, n)
    _, z_dn = _sequence_path(modes, sequence, z0, -1, n)
    if fmt == "csv":
        _write_csv(
            os.path.join(out, "trajectory.csv"),
            "t_s,x_up_m,y_up_m,x_down_m,y_down_m",
            (times, z_up.real, z_up.imag, z_dn.real, z_dn.imag),
        )
    else:
        _write_json(
            os.path.join(out, "trajectory.json"),
            {
                "t_s": list(times),
                "up_m": [[zr, zi] for zr, zi in zip(z_up.real, z_up.imag)],
                "down_m": [[zr, zi] for zr, zi in zip(z_dn.real, z_dn.imag)],
            },
        )
    print(f"trajectory ({kind}): {len(times)} samples over {times[-1]:.6g} s")
    return 0


def _curve_summary(curve) -> dict:
    summary = {
        "zeros_rad_per_s": find_zeros(curve),
        "peaks": [{"omega_rad_per_s": w, "height": h} for w, h in find_peaks(curve)],
        "main_lobe_fwhm_rad_per_s": main_lobe_fwhm(curve),
    }
    return summary


def cmd_response(args) -> int:
    cfg = load_config(args.config)
    out = _out_dir(args, cfg)
    fmt = _out_format(args, cfg)
    config = _trap_from(cfg)
    modes = derive_modes(config)
    sec = cfg.get("response", {})
    t = _config_float(sec.get("t", 5.0 * math.pi / modes.omega_tilde), "response.t")
    r0 = _config_float(sec.get("r0", modes.l_osc), "response.r0")
    points = _config_count(sec.get("points", 4096), "response.points")
    omega_max = _config_float(sec.get("omega_max", 3.0 * modes.omega_plus), "response.omega_max")
    rescale = _config_bool(sec.get("rescale_cp", False), "response.rescale_cp") or args.rescale_cp
    if points < 16:
        raise ConfigError(f"response.points must be >= 16, got {points}")
    grid = np.linspace(0.0, omega_max, points)
    up = response_up(modes, r0, t, grid=grid)
    cp = response_cp(modes, r0, t, grid=grid)
    cp_out = cp
    if rescale:
        # plotting normalization only: x4 amplitude = x16 in |F|^2
        cp_out = dataclasses.replace(cp, values=cp.values * 4.0, kind="cp-x4")
    if fmt == "csv":
        up.to_csv(os.path.join(out, "response_up.csv"))
        cp_out.to_csv(os.path.join(out, "response_cp.csv"))
    else:
        up.to_json(os.path.join(out, "response_up.json"))
        cp_out.to_json(os.path.join(out, "response_cp.json"))
    summary = {
        "t_s": t,
        "r0_m": r0,
        "rescale_cp": rescale,
        "up": _curve_summary(up),
        "cp": _curve_summary(cp),
    }
    _write_json(os.path.join(out, "response_summary.json"), summary)
    n_zeros = len(summary["cp"]["zeros_rad_per_s"])
    print(f"response curves over [0, {omega_max:.6g}] rad/s; echo curve has {n_zeros} zeros")
    return 0


def cmd_thermal(args) -> int:
    cfg = load_config(args.config)
    out = _out_dir(args, cfg)
    config = _trap_from(cfg)
    modes = derive_modes(config)
    sequence = _sequence_from(cfg, modes)
    drive = _drive_from(cfg.get("drive"))
    params = _thermal_from(cfg, modes)
    mc = _section(cfg, "monte_carlo")
    if "count" not in mc:
        raise ConfigError("monte_carlo.count is required")
    count = _config_count(mc["count"], "monte_carlo.count")
    if args.seed is not None:
        seed = _check_seed(args.seed, "--seed")
    else:
        seed = _check_seed(_config_int(mc.get("seed", 0), "monte_carlo.seed"), "monte_carlo.seed")
    report = thermal_signal(config, sequence, drive, params, count=count, seed=seed)
    payload = report.as_dict()
    payload["sequence"] = sequence.name
    _write_json(os.path.join(out, "thermal.json"), payload)
    print(
        f"MC mean = {report.mc_mean:.6g} +- {report.mc_stderr:.2g} "
        f"(analytic {report.analytic:.6g}, suppression {report.suppression:.6g})"
    )
    return 0


def cmd_sensitivity(args) -> int:
    cfg = load_config(args.config)
    out = _out_dir(args, cfg)
    species = _species_from(cfg)
    apparatus = _apparatus_from(cfg)
    sweep = cfg.get("sweep", {})
    lo = _config_float(sweep.get("atoms_min", 10.0), "sweep.atoms_min")
    hi = _config_float(sweep.get("atoms_max", 1e7), "sweep.atoms_max")
    n = _config_count(sweep.get("points", 25), "sweep.points")
    if not (0 < lo < hi) or n < 2:
        raise ConfigError("sweep needs 0 < atoms_min < atoms_max and points >= 2")

    atoms = np.geomspace(lo, hi, n)
    points = [dataclasses.replace(apparatus, atoms_per_layer=n_a) for n_a in atoms]
    report, *reps = _sensitivity_reports(species, [apparatus, *points])
    _write_json(os.path.join(out, "sensitivity.json"), report.as_dict())
    _write_csv(
        os.path.join(out, "sweep_s_vs_n.csv"),
        "atoms_per_layer,atoms_total,s_mps2_per_sqrthz",
        (atoms, [n_a * rep.n_layers for n_a, rep in zip(atoms, reps)], [rep.S for rep in reps]),
    )
    _write_csv(
        os.path.join(out, "sweep_bandwidth_vs_n.csv"),
        "atoms_per_layer,bandwidth_rad_per_s,tau_s",
        (atoms, [rep.bandwidth for rep in reps], [rep.tau for rep in reps]),
    )
    print(
        f"S = {report.S:.6g} (m/s^2)/sqrt(Hz) at N_a = {apparatus.atoms_per_layer:.6g}; "
        f"N_c = {report.N_c:.6g}, omega_opt = {report.omega_opt:.6g} rad/s"
    )
    return 0


# ---------------------------------------------------------------------------
# parser / entry point

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="socaccel",
        description="Spin-orbit-coupled trapped-atom accelerometer toolkit",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    specs = [
        ("modes", "normal-mode report for a trap config"),
        ("trajectory", "classical paths of both spin branches (CSV)"),
        ("response", "transfer-function curves, zeros, peaks"),
        ("thermal", "Monte-Carlo thermal signal vs. analytic suppression"),
        ("sensitivity", "capability report and atom-number sweeps"),
    ]
    for name, help_text in specs:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the JSON run config")
        p.add_argument("--out", default=None, help="output directory (default from config)")
        if name == "thermal":
            p.add_argument("--seed", type=int, default=None, help="override the config RNG seed")
        if name in ("trajectory", "response"):
            p.add_argument(
                "--format", choices=("csv", "json"), default=None, help="curve file format"
            )
        if name == "response":
            p.add_argument(
                "--rescale-cp",
                action="store_true",
                dest="rescale_cp",
                help="scale the echo curve amplitude x4 (power x16) for plotting",
            )
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # looked up at call time, so a handler swapped into the module is the one run
    handler = globals()[f"cmd_{args.command}"]
    try:
        return handler(args)
    except (ConfigError, ParameterError, CoverageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InfeasibleGeometryError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
    except (DivergenceError, ResolutionError, AmplitudeTooLargeError, BracketingError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except SocAccelError as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
