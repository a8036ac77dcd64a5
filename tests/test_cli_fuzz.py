"""One-value config fuzz: no malformed config makes the CLI raise.

Every value path of two base configs (sections, keys, list elements) is set in
turn to each value of a fixed table, and also deleted; each result runs
in-process through the subcommands that read that section.  ``main`` must
return 0, 2, 3 or 4 and raise nothing.  The idea follows MacIver and
Hatfield-Dodds, "Hypothesis", JOSS 4(43) 1891, 2019; the values are a fixed
table rather than random draws, so every key is covered on every run.
"""
import copy
import json
import math
import re
from pathlib import Path

import pytest

from socaccel.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_config() -> dict:
    (block,) = re.findall(r"```json\n(.*?)```", README.read_text(), re.S)
    return json.loads(block)


# the second base config: explicit species, the (omega0, omega_c) trap and the
# temperature form of thermal, a custom echo sequence that uses every step op
# with every key, a sum drive of every parametric kind, every response and
# output key (--out overrides output.directory)
CUSTOM_CONFIG = {
    "schema_version": 1,
    "trap": {"mass": 1.44316e-25, "omega0": 5441.398092702652, "omega_c": 6283.185307179586},
    "species": {"mass": 1.44316e-25, "scattering_length": 5.3e-9, "gamma_se": 14.285714285714286},
    "sequence": {
        "kind": "custom",
        "name": "echo",
        "steps": [
            {"op": "rotate_y", "angle": 1.5707963267948966},
            {"op": "displace", "shift": [6.8e-7, 0.0]},
            {"op": "evolve", "duration": 0.0005, "mode": "exact"},
            {"op": "rotate_y", "angle": 3.141592653589793},
            {"op": "evolve", "duration": 0.001, "mode": "first_order"},
            {"op": "rotate_y", "angle": 3.141592653589793},
            {"op": "evolve", "duration": 0.0005, "mode": "exact"},
            {"op": "rotate_y", "angle": -1.5707963267948966},
            {"op": "readout", "axis": "z"},
        ],
    },
    "drive": {
        "kind": "sum",
        "parts": [
            {"kind": "sinusoid", "amplitude": [0.3, 0.1], "omega": 9424.77796076938, "phase": 0.25},
            {"kind": "constant", "gx": 0.05, "gy": -0.02},
            {"kind": "zero"},
        ],
    },
    "thermal": {"temperature": 2e-8},
    "monte_carlo": {"count": 200, "seed": 7},
    "apparatus": {
        "temperature": 1e-6,
        "layer_spacing": 1e-6,
        "homogeneity_radius": 25e-6,
        "omega_tilde": 6283.185307179586,
        "epsilon": 22.0,
        "atoms_per_layer": 1e6,
    },
    "trajectory": {"kind": "up", "r0": [6.8e-7, 0.0], "t": 0.001, "points": 100},
    "response": {
        "t": 0.002,
        "r0": 6.8e-7,
        "points": 2048,
        "omega_max": 28274.333882308136,
        "rescale_cp": True,
    },
    "sweep": {"atoms_min": 100, "atoms_max": 1e6, "points": 4},
    "output": {"directory": "products", "format": "json"},
}

VALUES = ["x", None, [1.0], 0, 1e308, -1e308, 1e-300, math.nan, -1, True, {}]
DELETE = object()

# the subcommands that read each top-level key
READERS = {
    "schema_version": ("modes",),
    "trap": ("modes", "trajectory", "response", "thermal"),
    "species": ("sensitivity",),
    "sequence": ("thermal",),
    "drive": ("thermal",),
    "thermal": ("thermal",),
    "monte_carlo": ("thermal",),
    "apparatus": ("sensitivity",),
    "trajectory": ("trajectory",),
    "response": ("response",),
    "sweep": ("sensitivity",),
    "output": ("modes", "trajectory", "response"),
}


def value_paths(node, path=()):
    """Every path to a value below ``node``, objects and lists included, parents first."""
    for key, value in node.items() if isinstance(node, dict) else enumerate(node):
        yield path + (key,)
        if isinstance(value, (dict, list)):
            yield from value_paths(value, path + (key,))


def mutated(cfg: dict, path: tuple, value) -> dict:
    cfg = copy.deepcopy(cfg)
    *head, leaf = path
    node = cfg
    for key in head:
        node = node[key]
    if value is DELETE:
        del node[leaf]
    else:
        node[leaf] = value
    return cfg


def mutations(cfg: dict):
    """(path, value, config) for every value path and every table value, deletion last."""
    for path in value_paths(cfg):
        for value in (*VALUES, DELETE):
            yield path, value, mutated(cfg, path, value)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy overflow on extreme values
@pytest.mark.parametrize("base", [readme_config(), CUSTOM_CONFIG], ids=["readme", "custom"])
def test_one_value_mutations_exit_cleanly(tmp_path, capsys, base):
    cfg_path, out = tmp_path / "run.json", str(tmp_path / "out")
    bad, runs = [], 0
    for path, value, cfg in mutations(base):
        cfg_path.write_text(json.dumps(cfg))
        for cmd in READERS[path[0]]:
            runs += 1
            shown = "<deleted>" if value is DELETE else repr(value)
            where = f"{cmd} with {'.'.join(map(str, path))} = {shown}"
            try:
                code = main([cmd, "--config", str(cfg_path), "--out", out])
            except Exception as exc:  # noqa: BLE001 - the finding is the exception itself
                bad.append(f"{where}: raised {exc!r}")
                continue
            if code not in (0, 2, 3, 4):
                bad.append(f"{where}: exit {code}")
    capsys.readouterr()
    assert runs > 500
    assert not bad, "\n".join(bad)


def test_ci_runs_the_custom_config():
    # the CI workflow writes CUSTOM_CONFIG inline and checks its products run to run
    workflow = (README.parent / ".github" / "workflows" / "tests.yml").read_text()
    (block,) = re.findall(r"cat > custom-run.json <<'EOF'\n(.*?)\n *EOF\n", workflow, re.S)
    assert json.loads(block) == CUSTOM_CONFIG
