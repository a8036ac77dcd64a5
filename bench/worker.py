"""Run one workload in a fresh interpreter and print its raw figures as JSON.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1 --run-dir DIR

``run.py`` starts this; it is not meant to be run by hand.  The first thing
it does is time ``import socaccel, socaccel.cli`` from the checkout's
``src``.  A closed loop with one client then sends each request only after
the previous one returned.  Request 0 is an untimed warm-up, so lazy set-up
and caches that every later request reuses are filled before timing.

With --trace 0 the loop runs untraced for S seconds, and a fixed reference
computation (``reference``) is timed before the first request and after
each one.  A request's relative latency is its latency over the mean of the
two reference timings around it, which cancels drifts in the machine's
speed (see NOTES.md).  With --trace 1 blocks of requests alternate between
untraced and traced (span wrappers switched in) for S seconds; the
difference of the two medians is the tracing overhead.  Every request has new inputs: replaying the same inputs would
hit the package's segment cache.
"""

from __future__ import annotations

import argparse
import cmath
import dataclasses
import json
import math
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
# 11-20 ms on the 2 vCPU reference machine, a quarter to a half in each part
REF_OBJECT_STEPS, REF_SCALAR_STEPS, REF_ARRAY_STEPS = 750, 20_000, 100


@dataclasses.dataclass(frozen=True)
class _RefState:
    amplitude: complex
    phase: float
    branches: tuple


def _ref_term(k: int, state: _RefState) -> complex:
    return cmath.exp(1j * k * state.phase) * state.amplitude / (1 + k)


def reference() -> float:
    """Time a fixed computation that uses nothing from socaccel, in seconds.

    Its three parts do what socaccel's hot paths do, in kind:
    frozen-dataclass replacement with complex generator sums, a scalar math
    loop, and numpy operations on a 2,048-element array.  Each part alone
    slows by a different factor when the machine slows; their sum tracks
    every workload's latency better than any one part (see NOTES.md).  A
    change to the package cannot change it, so it measures only how fast
    the machine runs right now.
    """
    import numpy as np  # not at the top: the timed import of socaccel must load numpy itself

    start = time.perf_counter()
    state = _RefState(1.0 + 0.0j, 0.5, (1, 2))
    total = 0j
    for _ in range(REF_OBJECT_STEPS):
        state = dataclasses.replace(state, phase=state.phase * 1.0000001 + 1e-9)
        total += sum(_ref_term(k, state) for k in range(12))
    for i in range(REF_SCALAR_STEPS):
        total += math.sin(i * 1e-3) * i
    x = np.linspace(0.0, 1.0, 2048)
    for _ in range(REF_ARRAY_STEPS):
        x = np.sqrt(np.abs(np.sin(x) * 1.0001 + 0.1))
        total += np.cumsum(x)[::2][-1]
    return time.perf_counter() - start


class Loop:
    """Closed loop of one client; counts attempted and failed operations."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def count(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    def one(self, i: int, tracer=None) -> float:
        """Run request ``i``; return its latency in seconds."""
        inputs = self.workload.prepare(i)
        problems = []
        start = time.perf_counter()
        try:
            with tracer.request(i) if tracer else nullcontext():
                outputs = self.workload.run(inputs)
        except Exception:  # a failed request is counted and the run goes on
            problems.append(traceback.format_exc(limit=-3))
        latency = time.perf_counter() - start
        if not problems:
            try:
                problems = self.workload.check(i, inputs, outputs)
            except Exception:  # malformed output
                problems.append(traceback.format_exc(limit=-3))
        self.count(problems)
        return latency

    def timed(self, first: int, seconds: float) -> tuple[list[float], list[float]]:
        """Requests first, first+1, ... until ``seconds`` have passed and a block is whole.

        Returns the latencies and the reference timings, one before the
        first request and one after each.
        """
        latencies: list[float] = []
        refs = [reference()]
        start = time.perf_counter()
        while not (
            latencies
            and len(latencies) % self.workload.block == 0
            and time.perf_counter() - start >= seconds
        ):
            latencies.append(self.one(first + len(latencies)))
            refs.append(reference())
        return latencies, refs

    def alternate(self, patch, tracer, seconds: float) -> tuple[list[float], list[float]]:
        """Blocks of requests alternately untraced and traced, for ``seconds``.

        Alternating keeps a drift in machine speed out of the difference
        between the two sides.
        """
        untraced: list[float] = []
        traced: list[float] = []
        i = 1
        start = time.perf_counter()
        while not untraced or time.perf_counter() - start < seconds:
            for latencies, on in ((untraced, False), (traced, True)):
                patch.apply(on)
                for _ in range(self.workload.block):
                    latencies.append(self.one(i, tracer if on else None))
                    i += 1
        patch.apply(False)
        return untraced, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--run-dir", type=Path, required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import socaccel
    import socaccel.cli  # noqa: F401

    import_s = time.perf_counter() - start
    if Path(socaccel.__file__).resolve().parent != SRC / "socaccel":
        print(f"imported socaccel from {socaccel.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    import spans
    import workloads

    workload = workloads.WORKLOADS[args.workload](socaccel, args.seed, args.run_dir)
    loop = Loop(workload)
    loop.one(0)
    result = {"import_s": import_s, "reference_s": []}
    if args.trace:
        tracer = spans.Tracer()
        patch = spans.install(tracer)
        untraced, traced = loop.alternate(patch, tracer, args.seconds)
        per_layer = spans.layer_metrics(tracer, len(traced))
        per_layer["trace.requests"] = len(traced)
        per_layer["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        result["per_layer"] = per_layer
        tracer.save(args.run_dir.parent / f"trace-{args.workload}.npz")
    else:
        untraced, result["reference_s"] = loop.timed(1, args.seconds)
    for problems in workload.finish():
        loop.count(problems)

    result.update(
        latencies=untraced,
        attempted=loop.attempted,
        failed=loop.failed,
        problems=loop.problems[:20],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
