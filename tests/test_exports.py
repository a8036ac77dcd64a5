"""Every exported name resolves: tools that wrap the public API by name meet no stale one."""
import importlib

import pytest

LAYERS = ("trap", "signals", "pulses", "response", "thermal", "sensitivity", "cli")


@pytest.mark.parametrize("module", ["socaccel", *(f"socaccel.{layer}" for layer in LAYERS)])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


@pytest.mark.parametrize(
    "module, name",
    [("trap", "_trajectory_arrays")]
    + [("cli", f"cmd_{c}") for c in ("modes", "trajectory", "response", "thermal", "sensitivity")],
)
def test_helpers_called_across_layers_resolve(module, name):
    # the benchmark's span tracer wraps these non-public functions by name
    assert callable(getattr(importlib.import_module(f"socaccel.{module}"), name))
