"""Self-tests of the benchmark: tiny runs pass and corrupted outputs fail.

    python3 bench/selftest.py

Takes about a minute.  It is a plain unittest script, kept apart from the
package's own tests.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import socaccel  # noqa: E402
import socaccel.cli  # noqa: E402,F401

import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT, script: Path = BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def scratch_dir() -> Path:
    base = ROOT / ".bench_run"
    base.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(dir=base))


class TinyRuns(unittest.TestCase):
    def test_every_workload_runs_without_failures(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                proc = bench("--workload", w["name"], "--seed", "7", "--seconds", "1", "--trace", "0")
                self.assertEqual(proc.returncode, 0, proc.stderr)
                result = json.loads(proc.stdout.splitlines()[-1])
                self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
                self.assertTrue(result["correct"], proc.stderr)
                self.assertEqual(result["failed"], 0)
                self.assertEqual(result["metrics"]["success_ratio"]["value"], 1.0)
                self.assertEqual(
                    sorted(result["metrics"]), sorted(m["name"] for m in SPEC["end_to_end"])
                )

    def test_traced_run_reports_every_per_layer_metric(self):
        proc = bench("--workload", "response_probe", "--seed", "7", "--seconds", "2", "--trace", "1")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.splitlines()[-1])
        self.assertTrue(result["correct"], proc.stderr)
        self.assertEqual(sorted(result["metrics"]), sorted(m["name"] for m in SPEC["per_layer"]))

    def test_fails_without_sources(self):
        bare = scratch_dir()
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
            proc = bench(
                "--workload", "readme_cli", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=bare, script=bare / "bench" / "run.py",
            )
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


class CorruptedOutputs(unittest.TestCase):
    """Each output check counts a deliberately corrupted output as a failure."""

    def setUp(self):
        self.dir = scratch_dir()

    def tearDown(self):
        shutil.rmtree(self.dir)

    def test_readme_cli(self):
        wl = workloads.ReadmeCli(socaccel, 7, self.dir)
        for i in (0, 1):
            seed = wl.prepare(i)
            codes = wl.run(seed)
            self.assertEqual(wl.check(i, seed, codes), [])
        self.assertEqual(wl.finish(), [[]])

        self.assertIn("sensitivity exited with code 4",
                      wl.check(1, seed, {**codes, "sensitivity": 4}))

        product = wl.out / "response_up.csv"
        good = product.read_bytes()
        flipped = bytearray(good)
        flipped[len(good) // 2] ^= 0x01
        product.write_bytes(bytes(flipped))
        self.assertIn("response_up.csv differs from the reference pass", wl.check(1, seed, codes))
        product.write_bytes(good)

        thermal = wl.out / "thermal.json"
        report = json.loads(thermal.read_text())
        report["mc_mean"] = report["analytic"] + 6.0 * report["mc_stderr"]
        thermal.write_text(json.dumps(report))
        self.assertTrue(any("pull" in p for p in wl.check(1, seed, codes)))

        mc_seed, expected = wl.replay
        wl.replay = (mc_seed, expected.replace(b"mc_mean", b"mc_mEan"))
        self.assertEqual(wl.finish(), [["thermal.json is not reproduced by rerunning its seed"]])

    def test_tabulated_replay(self):
        wl = workloads.TabulatedReplay(socaccel, 7, self.dir)
        inp = wl.prepare(2)
        up, cp = wl.run(inp)
        self.assertEqual(wl.check(2, inp, (up, cp)), [])

        phase = up.phase * 1.05
        shifted = dataclasses.replace(up, phase=phase, signal=up.coherence * math.sin(phase))
        problems = wl.check(2, inp, (shifted, cp))
        self.assertEqual(len(problems), 1)
        self.assertIn("from oracle", problems[0])

        drifted = dataclasses.replace(cp, norm=1.0 + 1e-9)
        self.assertEqual(wl.check(2, inp, (up, drifted)),
                         ["cp norm drift 1e-09 exceeds 1e-12"])

        broken = dataclasses.replace(cp, signal=cp.signal + 1e-6)
        problems = wl.check(2, inp, (up, broken))
        self.assertEqual(len(problems), 1)
        self.assertIn("cp signal differs from coherence*sin(phase)", problems[0])

    def test_response_probe(self):
        wl = workloads.ResponseProbe(socaccel, 7, self.dir)
        inp = wl.prepare(1)
        out = wl.run(inp)
        self.assertEqual(wl.check(1, inp, out), [])

        peak = float(abs(out["curves"]["cp"].values).max())
        good = list(out["numeric"]["cp"])
        out["numeric"]["cp"][0] += 2e-3 * peak
        problems = wl.check(1, inp, out)
        self.assertEqual(len(problems), 1)
        self.assertIn("numeric transfer off", problems[0])
        out["numeric"]["cp"] = good

        s_edge = socaccel.sensitivity(
            socaccel.RB87, dataclasses.replace(inp.apparatus, omega_tilde=inp.omega_range[1])
        ).S
        out["optimum"] = dataclasses.replace(out["optimum"], S_min=2.0 * s_edge)
        self.assertTrue(any("exceeds S" in p for p in wl.check(1, inp, out)))


class SelfTime(unittest.TestCase):
    def test_self_times_add_up_to_the_request(self):
        tracer = spans.Tracer()

        def inner():
            time.sleep(0.02)

        traced_inner = tracer.wrap("signals.inner", inner)

        def outer():
            time.sleep(0.01)
            traced_inner()

        traced_outer = tracer.wrap("pulses.outer", outer)
        traced_outer()  # outside a request: not recorded
        with tracer.request(1):
            traced_outer()
        m = spans.layer_metrics(tracer, requests=1)
        self.assertEqual(m["trace.spans"], 3)
        self.assertGreaterEqual(m["signals.self_s"], 0.02)
        self.assertGreaterEqual(m["pulses.self_s"], 0.01)
        self.assertLess(m["pulses.self_s"], 0.02)
        total = sum(m[f"{layer}.self_s"] for layer in (*spans.LAYERS, "bench"))
        self.assertAlmostEqual(total, m["trace.request_s"], places=9)


if __name__ == "__main__":
    unittest.main()
