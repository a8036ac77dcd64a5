"""Benchmark of socaccel: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Works on the checkout that holds this file and reads and writes nothing
outside it (scratch files go to .bench_run/).  Set-up time is the import of
socaccel and socaccel.cli, taken in several fresh interpreters.  The
workload then runs in one more fresh interpreter (worker.py).  Request
latency is reported relative to a fixed reference computation timed around
each request (worker.reference), so drifts in machine speed cancel.  The
last line printed is {"correct", "attempted", "failed", "metrics"}: the
end-to-end metrics of BENCHMARK.json with --trace 0, its per-layer metrics
with --trace 1.  Exits non-zero, printing no result, when the checkout has no
socaccel sources or the workload process fails.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import tomllib
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("readme_cli", "tabulated_replay", "response_probe")
SETUP_RUNS = 5  # import-only interpreters; the worker's own import is one more sample
DEADLINE_S = 170.0  # a run, set-up included, ends within this
IMPORT = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import socaccel, socaccel.cli; print(time.perf_counter() - t)"
)


def _python(args: list[str], timeout: float) -> str:
    """Run a fresh interpreter in the checkout and return its stdout."""
    proc = subprocess.run(
        [sys.executable, *args], cwd=ROOT, capture_output=True, text=True, timeout=timeout
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{args[0]} exited with code {proc.returncode}")
    return proc.stdout


def tail_percentile(latencies: list[float]):
    """(p, value) for the highest standard percentile with at least ten samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (1.0 - p / 100.0) >= 10.0:
            return p, ordered[math.ceil(p / 100.0 * n) - 1]
    return None


def _version(dist: str):
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def environment() -> dict:
    """Machine and design figures, recorded with every result and never gated."""
    pyproject = tomllib.loads((ROOT / "pyproject.toml").read_text())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "src_loc": sum(
            len(p.read_text().splitlines()) for p in (SRC / "socaccel").rglob("*.py")
        ),
        "runtime_deps": len(pyproject["project"].get("dependencies", [])),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="socaccel benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")
    if not (SRC / "socaccel" / "__init__.py").is_file():
        print(f"no socaccel sources under {SRC}; run from a socaccel checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    deadline = time.monotonic() + DEADLINE_S
    run_dir = ROOT / ".bench_run" / f"{args.workload}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        setup = [] if args.trace else [
            float(_python(["-c", IMPORT, str(SRC)], timeout=60.0)) for _ in range(SETUP_RUNS)
        ]
        out = _python(
            [
                str(BENCH / "worker.py"),
                "--workload", args.workload,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
                "--run-dir", str(run_dir),
            ],
            timeout=deadline - time.monotonic(),
        )
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    raw = json.loads(out.strip().splitlines()[-1])

    env = environment()
    latencies = raw["latencies"]
    refs = raw["reference_s"]
    if args.trace:
        values = dict(raw["per_layer"])
        values["design.src_loc"] = env["src_loc"]
        values["design.runtime_deps"] = env["runtime_deps"]
    else:
        values = {
            "setup_s": statistics.median(setup + [raw["import_s"]]),
            "request_rel": statistics.median(
                lat / (0.5 * (before + after)) for lat, before, after in zip(latencies, refs, refs[1:])
            ),
            "peak_rss_mb": raw["peak_rss_mb"],
            "success_ratio": 1.0 - raw["failed"] / raw["attempted"],
        }
    tail = tail_percentile(latencies)
    print("env", json.dumps(env, sort_keys=True))
    print(
        f"request_s ({args.workload}, untraced): p50 {statistics.median(latencies):.6g} s"
        + (f", p{tail[0]:g} {tail[1]:.6g} s" if tail else ", no tail percentile")
        + f", n = {len(latencies)}"
        + (f"; reference p50 {statistics.median(refs):.6g} s" if refs else "")
    )
    for problem in raw["problems"]:
        print("failed:", problem.strip(), file=sys.stderr)
    print(json.dumps({
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
