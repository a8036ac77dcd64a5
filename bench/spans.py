"""Spans around the public functions of each socaccel layer, kept in memory.

``install`` wraps every public function of the layer modules, plus the CLI
subcommand handlers, the trap trajectory helper the CLI calls and ``pieces``
on each ``ForceSignal`` subclass.  It replaces the function at every binding
the package holds, so internal calls such as ``socaccel.thermal.run_sequence``
or ``socaccel.pulses.modal_integral`` go through the wrapper too.  Nothing in
the package changes on disk.

A span is (name, start, end, parent, request).  Spans are recorded only
inside ``Tracer.request``, so checks made between requests leave none.  A
layer's self time is the duration of its spans minus the part covered by
their direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import numpy as np

LAYERS = ("trap", "signals", "pulses", "response", "thermal", "sensitivity", "cli")

# non-public functions another layer calls directly
EXTRA = {
    "trap": ("_trajectory_arrays",),
    "cli": tuple(f"cmd_{c}" for c in ("modes", "trajectory", "response", "thermal", "sensitivity")),
}

REQUEST = "bench.request"  # root span of one timed request


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.request_id = array("i")
        self._stack: list[int] = []
        self._request = -1
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = {}

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.request_id.append(self._request)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    @contextmanager
    def request(self, i: int):
        """Record the spans of request ``i`` under one root span."""
        self._request = i
        idx = self._open(self._name_id(REQUEST))
        try:
            yield
        finally:
            self._close(idx)
            self._request = -1

    def wrap(self, name: str, fn, hook=None):
        nid = self._name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._request < 0:
                return fn(*args, **kwargs)
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                hook(self, idx, result)
            return result

        return traced

    def caller_layer(self, idx: int) -> str:
        p = self.parent[idx]
        return self.names[self.name[p]].split(".")[0]

    def maximum(self, key: str, value: float) -> None:
        self.maxima[key] = max(self.maxima.get(key, 0.0), value)

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name=np.array(self.name),
            start=np.array(self.start),
            end=np.array(self.end),
            parent=np.array(self.parent),
            request=np.array(self.request_id),
        )


def _record_hook(tr: Tracer, idx: int, rec) -> None:
    tr.maximum("pulses.branches_max", max(len(step[2]) for step in rec.trace))
    tr.maximum("pulses.norm_drift_max", abs(rec.norm - 1.0))


def _pull_hook(tr: Tracer, idx: int, report) -> None:
    if report.mc_stderr > 0:
        tr.maximum("thermal.pull_max", abs(report.mc_mean - report.analytic) / report.mc_stderr)


def _samples_hook(tr: Tracer, idx: int, samples) -> None:
    tr.counts["thermal.samples"] += len(samples)


def _boundary_count(metric: str, size):
    """Count ``size(result)`` for calls that enter the metric's layer from outside it."""
    layer = metric.split(".")[0]

    def hook(tr: Tracer, idx: int, result) -> None:
        if tr.caller_layer(idx) != layer:
            tr.counts[metric] += size(result)

    return hook


def _curve_points(curve) -> int:
    return len(curve.omega)


HOOKS = {
    "pulses.run_sequence": _record_hook,
    "thermal.thermal_signal": _pull_hook,
    "thermal.sample_initial_states": _samples_hook,
    "signals.pieces": _boundary_count("signals.pieces", len),
    "response.response_up": _boundary_count("response.points", _curve_points),
    "response.response_cp": _boundary_count("response.points", _curve_points),
    "response.numeric_response_curve": _boundary_count("response.points", _curve_points),
    "response.numeric_response": _boundary_count("response.points", lambda value: 1),
}


class Patch:
    """The wrappers ``install`` made; ``apply`` switches them in or out."""

    def __init__(self):
        self.bindings: list[tuple[object, str, object, object]] = []

    def bind(self, holder, attr: str, original, wrapped) -> None:
        self.bindings.append((holder, attr, original, wrapped))

    def apply(self, traced: bool) -> None:
        for holder, attr, original, wrapped in self.bindings:
            setattr(holder, attr, wrapped if traced else original)


def install(tracer: Tracer) -> Patch:
    """Wrap each layer's functions at every binding the package holds."""
    patch = Patch()
    package = importlib.import_module("socaccel")
    modules = {layer: importlib.import_module(f"socaccel.{layer}") for layer in LAYERS}
    holders = [package, *modules.values()]
    for layer, mod in modules.items():
        names = [*getattr(mod, "__all__", ()), *EXTRA.get(layer, ())]
        for fname in names:
            fn = getattr(mod, fname)
            if not (inspect.isfunction(fn) and fn.__module__ == mod.__name__):
                continue
            key = f"{layer}.{fname}"
            wrapped = tracer.wrap(key, fn, HOOKS.get(key))
            for holder in holders:
                for attr, value in vars(holder).items():
                    if value is fn:
                        patch.bind(holder, attr, fn, wrapped)
    signals = modules["signals"]
    for cls in vars(signals).values():
        if (
            inspect.isclass(cls)
            and issubclass(cls, signals.ForceSignal)
            and not inspect.isabstract(cls)
            and "pieces" in vars(cls)
        ):
            pieces = vars(cls)["pieces"]
            patch.bind(cls, "pieces", pieces,
                       tracer.wrap("signals.pieces", pieces, HOOKS["signals.pieces"]))
    patch.apply(True)
    return patch


def layer_metrics(tr: Tracer, requests: int) -> dict:
    """Per-layer counts and self time per request, and per-call medians."""
    name = np.array(tr.name, dtype=np.int64)
    parent = np.array(tr.parent, dtype=np.int64)
    dur = np.array(tr.end) - np.array(tr.start)
    child = parent >= 0
    self_time = dur - np.bincount(parent[child], weights=dur[child], minlength=dur.shape[0])

    def spans_of(pred):
        ids = [i for i, n in enumerate(tr.names) if pred(n)]
        return np.isin(name, ids)

    def median_s(span_name: str) -> float:
        mask = spans_of(lambda n: n == span_name)
        return float(np.median(dur[mask])) if mask.any() else 0.0

    def calls(span_name: str) -> float:
        return float(spans_of(lambda n: n == span_name).sum()) / requests

    out = {}
    for layer in (*LAYERS, "bench"):
        mask = spans_of(lambda n: n.split(".")[0] == layer)
        out[f"{layer}.self_s"] = float(self_time[mask].sum()) / requests
        if layer in ("trap", "signals", "response", "sensitivity", "cli"):
            out[f"{layer}.calls"] = float(mask.sum()) / requests
    for sub in ("modes", "trajectory", "response", "thermal", "sensitivity"):
        out[f"cli.{sub}_s"] = median_s(f"cli.cmd_{sub}")
    out["pulses.runs"] = calls("pulses.run_sequence")
    out["pulses.run_s"] = median_s("pulses.run_sequence")
    out["pulses.evolutions"] = calls("pulses.apply_evolution")
    out["pulses.rotations"] = calls("pulses.apply_rotation")
    out["thermal.sampler_s"] = median_s("thermal.sample_initial_states")
    out["sensitivity.optimize_s"] = median_s("sensitivity.optimize_trap")
    for key in ("signals.pieces", "response.points", "thermal.samples"):
        out[key] = tr.counts[key] / requests
    for key in ("pulses.branches_max", "pulses.norm_drift_max", "thermal.pull_max"):
        out[key] = tr.maxima.get(key, 0.0)
    out["trace.spans"] = dur.shape[0] / requests
    out["trace.request_s"] = float(dur[spans_of(lambda n: n == REQUEST)].sum()) / requests
    return out
