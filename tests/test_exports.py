"""Every exported name resolves: tools that wrap the public API by name meet no stale one.

Each layer's ``__all__`` lists its public definitions, and the package re-exports them all.
"""
import dataclasses
import importlib
import inspect
import sys

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


REEXPORTED = ("constants", "errors", "trap", "signals", "pulses", "response", "thermal", "sensitivity")


@pytest.mark.parametrize("layer", REEXPORTED)
def test_every_public_definition_is_in_its_layers_all(layer):
    mod = importlib.import_module(f"socaccel.{layer}")
    defined = [
        name
        for name, value in vars(mod).items()
        if not name.startswith("_")
        and (inspect.isfunction(value) or inspect.isclass(value))
        and value.__module__ == mod.__name__
    ]
    assert [name for name in defined if name not in mod.__all__] == []


def test_package_exports_each_layers_all_once_and_as_the_same_object():
    import socaccel

    assert len(socaccel.__all__) == len(set(socaccel.__all__))
    layer_names = []
    for layer in REEXPORTED:
        mod = sys.modules[f"socaccel.{layer}"]
        layer_names += mod.__all__
        stale = [name for name in mod.__all__ if getattr(socaccel, name) is not getattr(mod, name)]
        assert stale == []
    assert sorted(socaccel.__all__) == sorted(layer_names)
    # the function, which shadows the submodule of the same name on the package
    assert socaccel.sensitivity is sys.modules["socaccel.sensitivity"].sensitivity


def test_every_public_module_attribute_is_a_layer_submodule():
    import socaccel

    # a module bound at package level, such as an imported ``sys``, would be public API
    public = {name: value for name, value in vars(socaccel).items() if not name.startswith("_")}
    modules = [name for name, value in public.items() if inspect.ismodule(value)]
    assert [name for name in modules if public[name] is not sys.modules.get(f"socaccel.{name}")] == []


def test_trap_config_fields_are_its_physical_parameters():
    from socaccel import TrapConfig

    assert [f.name for f in dataclasses.fields(TrapConfig)] == ["mass", "omega0", "omega_c"]
