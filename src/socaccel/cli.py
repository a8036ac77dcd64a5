"""Command-line front end: deterministic data files from a JSON run config.

Subcommands: modes | trajectory | response | thermal | sensitivity.  One JSON
document (schema_version 1) describes the run; unknown keys anywhere in it
are hard errors so config typos never pass silently.  The schema is three
tables, ``_SECTIONS``, ``_DRIVES`` and ``_STEPS``, and ``_fields`` is the one
function that reads a config object by them.  Outputs are plain CSV
(curves, %.17g columns) and JSON (reports, sorted keys) with no timestamps,
so identical configs and seeds reproduce byte-identical files.

Each ``cmd_<name>(args, cfg)`` returns (products, stdout text) and writes no
file; products maps a file name to a JSON-able object, a (header, columns)
table or a ``ResponseCurve``.  ``main`` alone reads the config and writes the
products, so a subcommand that fails leaves no output directory behind.

Exit codes: 0 success; 2 configuration or parameter error; 3 infeasible
physics (e.g. the thermal cloud does not fit the homogeneity radius);
4 numerical failure (divergence, unresolved grid, nonlinear response, no
bracketed optimum).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .errors import ConfigError, CoverageError, InfeasibleGeometryError, ParameterError, SocAccelError
from .pulses import (
    Displace,
    Evolve,
    PulseSequence,
    Readout,
    RotateY,
    preset_cp,
    preset_up,
    run_sequence,
)
from .response import ResponseCurve, _cp_values, _csv_text, find_peaks, find_zeros, main_lobe_fwhm, response_up
from .sensitivity import RB87, ApparatusParams, SpeciesParams, _sensitivity_reports
from .signals import Constant, Sinusoid, SumSignal, Tabulated, Zero, circular
from .thermal import ThermalParams, thermal_signal
from .trap import TrapConfig, _undriven_center, derive_modes

__all__ = ["main", "build_parser", "load_config"]


# ---------------------------------------------------------------------------
# config schema (version 1)

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


def _config_seed(value, where: str) -> int:
    """A JSON integer that fits in 64 unsigned bits."""
    seed = _config_int(value, where)
    if not 0 <= seed < (1 << 64):
        raise ConfigError(f"{where} must fit in 64 bits, got {seed}")
    return seed


def _config_bool(value, where: str) -> bool:
    """A JSON boolean, true or false, nothing else."""
    if isinstance(value, bool):
        return value
    raise ConfigError(f"{where} must be a boolean, got {value!r}")


def _two_vector(value, where: str) -> tuple[float, float]:
    """A number x, read as (x, 0), or a 2-element list of numbers."""
    if not isinstance(value, list):
        return (_config_float(value, where), 0.0)
    if len(value) != 2:
        raise ConfigError(f"{where} must be a number or a 2-element list")
    return (_config_float(value[0], f"{where}[0]"), _config_float(value[1], f"{where}[1]"))


def _config_str(value, where: str) -> str:
    """A JSON string, nothing else."""
    if isinstance(value, str):
        return value
    raise ConfigError(f"{where} must be a string, got {value!r}")


def _as_is(value, where: str):
    """A name, mode, path or list, checked where it is used."""
    return value


# largest accepted counts; each bounds the arrays and files its subcommand makes
_MAX_COUNT = {
    "monte_carlo.count": 1_000_000,
    "response.points": 1 << 17,
    "sweep.points": 1_000,
    "trajectory.points": 100_000,
}

_REQUIRED = object()  # the default of a key that must be given

# section -> key -> (reader, default).  A None default leaves the value to the
# section's builder: derived from the trap (response), or one of two forms (trap,
# thermal) or a preset's key (sequence).  species may instead be a preset name.
_SECTIONS = {
    "trap": {
        "mass": (_config_float, _REQUIRED),
        "omega0": (_config_float, None),
        "omega_c": (_config_float, 0.0),
        "omega_tilde": (_config_float, None),
        "epsilon": (_config_float, 1.0),
    },
    "species": {f.name: (_config_float, _REQUIRED) for f in dataclasses.fields(SpeciesParams)},
    "sequence": {
        "kind": (_as_is, "up"),
        "name": (_config_str, "custom"),
        "r0": (_two_vector, None),
        "t": (_config_float, None),
        "steps": (_as_is, None),
    },
    "drive": None,  # one object of _DRIVES
    "thermal": {
        "temperature": (_config_float, None),
        "n_plus": (_config_float, 0.0),
        "n_minus": (_config_float, 0.0),
    },
    "monte_carlo": {"count": (_config_count, _REQUIRED), "seed": (_config_seed, 0)},
    "apparatus": {f.name: (_config_float, _REQUIRED) for f in dataclasses.fields(ApparatusParams)},
    "response": {
        "t": (_config_float, None),
        "r0": (_config_float, None),
        "points": (_config_count, 4096),
        "omega_max": (_config_float, None),
        "rescale_cp": (_config_bool, False),
    },
    "trajectory": {
        "kind": (_as_is, "up"),
        "r0": (_two_vector, _REQUIRED),
        "t": (_config_float, _REQUIRED),
        "points": (_config_count, 1000),
    },
    "sweep": {
        "atoms_min": (_config_float, 10.0),
        "atoms_max": (_config_float, 1e7),
        "points": (_config_count, 25),
    },
    "output": {"directory": (_as_is, "."), "format": (_as_is, "csv")},
}

# drive kind -> (constructor, fields) and step op -> (constructor, fields); the field
# names are the constructor's keywords
_TONE = {"omega": (_config_float, _REQUIRED), "phase": (_config_float, 0.0)}
_DRIVES = {
    "zero": (Zero, {}),
    "constant": (Constant, {"gx": (_config_float, 0.0), "gy": (_config_float, 0.0)}),
    "sinusoid": (Sinusoid, {"amplitude": (_two_vector, _REQUIRED), **_TONE}),
    "circular": (
        circular, {"amplitude": (_config_float, _REQUIRED), **_TONE, "sense": (_config_int, -1)}
    ),
    "sum": (SumSignal, {"parts": (_as_is, _REQUIRED)}),
    "tabulated": (Tabulated.from_csv, {"path": (_as_is, _REQUIRED)}),
}
_STEPS = {
    "rotate_y": (RotateY, {"angle": (_config_float, _REQUIRED)}),
    "displace": (Displace, {"shift": (_two_vector, _REQUIRED)}),
    "evolve": (Evolve, {"duration": (_config_float, _REQUIRED), "mode": (_as_is, "exact")}),
    "readout": (Readout, {"axis": (_as_is, "z")}),
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
        if key not in _SECTIONS:
            raise ConfigError(f"unknown config key: {key!r}")
        if key not in ("species", "drive"):  # a preset name or a drive: checked when read
            if not isinstance(value, dict):
                raise ConfigError(f"config section {key!r} must be an object")
            _check_keys(value, _SECTIONS[key], key)
    return cfg


def _check_keys(spec: dict, schema: dict, where: str) -> None:
    for key in spec:
        if key not in schema:
            raise ConfigError(f"unknown config key: '{where}.{key}'")


def _fields(spec: dict, schema: dict, where: str) -> dict:
    """Every key of ``schema``: read from ``spec`` by its reader, else its default."""
    _check_keys(spec, schema, where)
    fields = {}
    for key, (read, default) in schema.items():
        if key in spec:
            fields[key] = read(spec[key], f"{where}.{key}")
        elif default is _REQUIRED:
            raise ConfigError(f"{where}.{key} is required")
        else:
            fields[key] = default
    return fields


def _section(cfg: dict, name: str) -> dict:
    """The fields of config section ``name``; an absent section has only defaults."""
    return _fields(cfg.get(name, {}), _SECTIONS[name], name)


def _tagged(spec, table: dict, tag: str, where: str):
    """(name, constructor, fields) of a drive or step object, named by its ``tag`` field."""
    if not isinstance(spec, dict) or tag not in spec:
        raise ConfigError(f"{where} must be an object with a field {tag!r}")
    spec = dict(spec)
    name = spec.pop(tag)
    if not isinstance(name, str) or name not in table:
        raise ConfigError(f"{where}.{tag} must be one of {sorted(table)}, got {name!r}")
    make, schema = table[name]
    return name, make, _fields(spec, schema, where)


def _trap_from(cfg: dict) -> TrapConfig:
    f = _section(cfg, "trap")
    given = cfg.get("trap", {})
    by_modes = "omega_tilde" in given or "epsilon" in given
    by_raw = "omega0" in given or "omega_c" in given
    if by_modes and by_raw:
        raise ConfigError("trap accepts (omega0, omega_c) or (omega_tilde, epsilon), not both")
    if by_raw:
        if f["omega0"] is None:
            raise ConfigError("trap.omega0 is required with omega_c")
        return TrapConfig(f["mass"], f["omega0"], f["omega_c"])
    if by_modes:
        if f["omega_tilde"] is None:
            raise ConfigError("trap.omega_tilde is required with epsilon")
        return TrapConfig.from_modes(f["mass"], f["omega_tilde"], f["epsilon"])
    raise ConfigError("trap needs either omega0 (+ omega_c) or omega_tilde (+ epsilon)")


def _species_from(cfg: dict) -> SpeciesParams:
    sec = cfg.get("species", {})
    if isinstance(sec, str):
        if sec.lower() in ("rb87", "rb-87", "87rb"):
            return RB87
        raise ConfigError(f"unknown species preset {sec!r} (try 'Rb87')")
    if not isinstance(sec, dict):
        raise ConfigError("species must be a preset name or a parameter object")
    return SpeciesParams(**_section(cfg, "species"))


def _drive_from(spec, where: str = "drive"):
    if spec is None:
        return Zero()
    kind, make, f = _tagged(spec, _DRIVES, "kind", where)
    if kind == "sum":
        if not isinstance(f["parts"], list) or not f["parts"]:
            raise ConfigError(f"{where}.parts must be a non-empty list")
        f["parts"] = tuple(_drive_from(p, f"{where}.parts[{i}]") for i, p in enumerate(f["parts"]))
    elif kind == "tabulated":
        try:
            if not isinstance(f["path"], str):  # np.loadtxt would read a list as CSV lines
                raise TypeError("a path must be a string")
            return make(**f)
        except (OSError, TypeError, ValueError) as exc:
            raise ConfigError(f"{where}.path: cannot read {f['path']!r}: {exc}") from exc
    return make(**f)


def _sequence_from(cfg: dict, modes) -> PulseSequence:
    f = _section(cfg, "sequence")
    kind, r0, t, steps = f["kind"], f["r0"], f["t"], f["steps"]
    if kind in ("up", "cp"):
        if r0 is None or t is None:
            raise ConfigError(f"sequence kind {kind!r} needs r0 and t")
        return preset_up(r0, t) if kind == "up" else preset_cp(r0, t, modes=modes)
    if kind == "custom":
        if not isinstance(steps, list) or not steps:
            raise ConfigError("sequence.steps must be a non-empty list for kind 'custom'")
        built = [_tagged(s, _STEPS, "op", f"sequence.steps[{i}]") for i, s in enumerate(steps)]
        return PulseSequence(tuple(make(**fields) for _, make, fields in built), name=f["name"])
    raise ConfigError(f"sequence.kind must be 'up', 'cp' or 'custom', got {kind!r}")


def _thermal_from(cfg: dict, modes) -> ThermalParams:
    f = _section(cfg, "thermal")
    given = cfg.get("thermal", {})
    occupations = "n_plus" in given or "n_minus" in given
    if f["temperature"] is not None and occupations:
        raise ConfigError("thermal accepts temperature or occupations, not both")
    if f["temperature"] is not None:
        return ThermalParams.from_temperature(modes, f["temperature"])
    if occupations:
        return ThermalParams.from_occupations(f["n_plus"], f["n_minus"])
    raise ConfigError("thermal needs temperature or (n_plus, n_minus)")


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
    out = args.out or _section(cfg, "output")["directory"]
    try:
        os.makedirs(out, exist_ok=True)
    except (OSError, TypeError) as exc:
        raise ConfigError(f"cannot use output directory {out!r}: {exc}") from exc
    return out


def _out_format(args, cfg: dict) -> str:
    fmt = args.format or _section(cfg, "output")["format"]
    if fmt not in ("csv", "json"):
        raise ConfigError(f"format must be 'csv' or 'json', got {fmt!r}")
    return fmt


# ---------------------------------------------------------------------------
# subcommands

def cmd_modes(args, cfg: dict):
    config = _trap_from(cfg)
    modes = derive_modes(config)
    report = {
        **dataclasses.asdict(modes),
        "omega_c": modes.omega_c,
        "epsilon": modes.epsilon,
        "mass": config.mass,
    }
    units = {"omega_plus": " rad/s", "omega_minus": " rad/s", "omega_tilde": " rad/s", "epsilon": "", "l_osc": " m"}
    text = "\n".join(f"{name:<11} = {getattr(modes, name):.9g}{unit}" for name, unit in units.items())
    return {"modes.json": report}, text


def cmd_trajectory(args, cfg: dict):
    fmt = _out_format(args, cfg)
    config = _trap_from(cfg)
    modes = derive_modes(config)
    f = _section(cfg, "trajectory")
    kind, r0, t, n = f["kind"], f["r0"], f["t"], f["points"]
    if not t > 0:
        raise ConfigError(f"trajectory.t must be > 0, got {t}")
    if n < 2:
        raise ConfigError(f"trajectory.points must be >= 2, got {n}")
    if kind not in ("up", "cp"):
        raise ConfigError(f"trajectory.kind must be 'up' or 'cp', got {kind!r}")
    sequence = (preset_up if kind == "up" else preset_cp)(r0, t)
    # the engine's undriven branches at the start of each step; the split makes the spin-up
    # branch first, and the pi flips keep the order, so paths[0] is the one that left it up
    trace = run_sequence(config, None, sequence, Zero()).trace
    times, paths = [], ([], [])
    for step, (_, start, branches) in zip(sequence, trace):
        if isinstance(step, Evolve):
            local = np.linspace(0.0, step.duration, n)
            local = local if start == 0.0 else local[1:]  # a later step starts where the last ended
            times.append(start + local)
            for path, b in zip(paths, branches):
                path.append(_undriven_center(modes, b.spin, b.alpha_plus, b.alpha_minus, local)[0])
    times, z_up, z_dn = (np.concatenate(c) for c in (times, *paths))
    if fmt == "csv":
        columns = (times, z_up.real, z_up.imag, z_dn.real, z_dn.imag)
        product = ("t_s,x_up_m,y_up_m,x_down_m,y_down_m", columns)
    else:
        # a contiguous complex array viewed as floats is its [x, y] rows
        up_m, down_m = (z.view(float).reshape(-1, 2).tolist() for z in (z_up, z_dn))
        product = {"t_s": times.tolist(), "up_m": up_m, "down_m": down_m}
    text = f"trajectory ({kind}): {len(times)} samples over {times[-1]:.6g} s"
    return {f"trajectory.{fmt}": product}, text


def _curve_summary(curve) -> dict:
    return {
        "zeros_rad_per_s": find_zeros(curve),
        "peaks": [{"omega_rad_per_s": w, "height": h} for w, h in find_peaks(curve)],
        "main_lobe_fwhm_rad_per_s": main_lobe_fwhm(curve),
    }


def cmd_response(args, cfg: dict):
    fmt = _out_format(args, cfg)
    config = _trap_from(cfg)
    modes = derive_modes(config)
    f = _section(cfg, "response")
    t = 5.0 * math.pi / modes.omega_tilde if f["t"] is None else f["t"]
    r0 = modes.l_osc if f["r0"] is None else f["r0"]
    omega_max = 3.0 * modes.omega_plus if f["omega_max"] is None else f["omega_max"]
    points, rescale = f["points"], f["rescale_cp"] or args.rescale_cp
    if points < 16:
        raise ConfigError(f"response.points must be >= 16, got {points}")
    grid = np.linspace(0.0, omega_max, points)
    up = response_up(modes, r0, t, grid=grid)
    cp = dataclasses.replace(up, values=_cp_values(up.omega, t, up.values), kind="cp")  # response_cp from up
    # plotting normalization only: x4 amplitude = x16 in |F|^2
    cp_out = dataclasses.replace(cp, values=cp.values * 4.0, kind="cp-x4") if rescale else cp
    summary = {
        "t_s": t,
        "r0_m": r0,
        "rescale_cp": rescale,
        "up": _curve_summary(up),
        "cp": _curve_summary(cp),
    }
    n_zeros = len(summary["cp"]["zeros_rad_per_s"])
    products = {f"response_up.{fmt}": up, f"response_cp.{fmt}": cp_out, "response_summary.json": summary}
    return products, f"response curves over [0, {omega_max:.6g}] rad/s; echo curve has {n_zeros} zeros"


def cmd_thermal(args, cfg: dict):
    config = _trap_from(cfg)
    modes = derive_modes(config)
    sequence = _sequence_from(cfg, modes)
    drive = _drive_from(cfg.get("drive"))
    params = _thermal_from(cfg, modes)
    mc = _section(cfg, "monte_carlo")
    seed = mc["seed"] if args.seed is None else _config_seed(args.seed, "--seed")
    report = thermal_signal(config, sequence, drive, params, count=mc["count"], seed=seed)
    text = (
        f"MC mean = {report.mc_mean:.6g} +- {report.mc_stderr:.2g} "
        f"(analytic {report.analytic:.6g}, suppression {report.suppression:.6g})"
    )
    return {"thermal.json": {**report.as_dict(), "sequence": sequence.name}}, text


def cmd_sensitivity(args, cfg: dict):
    species = _species_from(cfg)
    apparatus = ApparatusParams(**_section(cfg, "apparatus"))
    sweep = _section(cfg, "sweep")
    lo, hi, n = sweep["atoms_min"], sweep["atoms_max"], sweep["points"]
    if not (0 < lo < hi) or n < 2:
        raise ConfigError("sweep needs 0 < atoms_min < atoms_max and points >= 2")

    atoms = np.geomspace(lo, hi, n)
    points = [dataclasses.replace(apparatus, atoms_per_layer=n_a) for n_a in atoms]
    report, *reps = _sensitivity_reports(species, [apparatus, *points])
    products = {
        "sensitivity.json": report.as_dict(),
        "sweep_s_vs_n.csv": (
            "atoms_per_layer,atoms_total,s_mps2_per_sqrthz",
            (atoms, [n_a * rep.n_layers for n_a, rep in zip(atoms, reps)], [rep.S for rep in reps]),
        ),
        "sweep_bandwidth_vs_n.csv": (
            "atoms_per_layer,bandwidth_rad_per_s,tau_s",
            (atoms, [rep.bandwidth for rep in reps], [rep.tau for rep in reps]),
        ),
    }
    text = (
        f"S = {report.S:.6g} (m/s^2)/sqrt(Hz) at N_a = {apparatus.atoms_per_layer:.6g}; "
        f"N_c = {report.N_c:.6g}, omega_opt = {report.omega_opt:.6g} rad/s"
    )
    return products, text


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
        ("trajectory", "engine center paths of both spin branches"),
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
        cfg = load_config(args.config)
        products, text = handler(args, cfg)
        out = _out_dir(args, cfg)
        written = []
        for name, product in products.items():
            path = os.path.join(out, name)
            try:  # the writer goes by the product type and the file extension
                if isinstance(product, ResponseCurve):
                    (product.to_csv if name.endswith(".csv") else product.to_json)(path)
                elif name.endswith(".csv"):
                    _write_csv(path, *product)
                else:
                    _write_json(path, product)
            except OSError as exc:
                for done in written:  # a failed write leaves none of this call's products
                    with contextlib.suppress(OSError):
                        os.remove(done)
                raise ConfigError(f"cannot write {path!r}: {exc}") from exc
            written.append(path)
        print(text)
        return 0
    except (ConfigError, ParameterError, CoverageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InfeasibleGeometryError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
    except SocAccelError as exc:  # the numerical errors; nothing raises the base class itself
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
