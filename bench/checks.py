"""Output checks of the benchmark workloads.

Each check takes plain values and returns a list of problems, empty when the
output is correct.  A request whose checks return any problem counts as
failed.  The functions import nothing from socaccel, so a defect in the
package cannot also disable the check that should catch it.
"""

from __future__ import annotations

import math

# |mc - analytic| / stderr of the thermal Monte-Carlo mean.  Measured pulls
# on the README config are 0.16-1.76; a standard normal exceeds 5 with
# probability 6e-7, so a correct MC fails this about once in a million passes.
PULL_MAX = 5.0

# Relative deviation allowed between the engine's "up" differential phase and
# the weak-drive h_perp quadrature of the tabulated interpolant.  Drives are
# scaled to a 1e-3 rad oracle phase.  The deviation is the part of the phase
# quadratic in the drive: at most 6e-4 over 80 seeded tables, and at most
# 1.7e-3 for the 8 strongest drives among 900.
REPLAY_PHASE_RTOL = 1e-2

# The engine's norm is exact for coherent branches.
NORM_TOL = 1e-12

# signal = coherence * sin(phase) holds to rounding.
IDENTITY_TOL = 1e-12

# criterion_05 of the acceptance battery: numeric transfer function within
# 1e-3 of the curve's peak magnitude.
TRANSFER_RTOL = 1e-3


def exit_codes(codes: dict) -> list[str]:
    """Every CLI subcommand exited with code 0."""
    return [f"{cmd} exited with code {code}" for cmd, code in codes.items() if code != 0]


def same_products(reference: dict, products: dict) -> list[str]:
    """CLI products other than the MC-seeded thermal.json match the reference pass."""
    ref = {k: v for k, v in reference.items() if k != "thermal.json"}
    got = {k: v for k, v in products.items() if k != "thermal.json"}
    problems = []
    if sorted(ref) != sorted(got):
        problems.append(f"product set {sorted(got)} differs from reference {sorted(ref)}")
    for name in sorted(set(ref) & set(got)):
        if ref[name] != got[name]:
            problems.append(f"{name} differs from the reference pass")
    return problems


def same_bytes(name: str, expected: bytes, got: bytes) -> list[str]:
    """A rerun with the same seed reproduced the product byte for byte."""
    return [] if expected == got else [f"{name} is not reproduced by rerunning its seed"]


def mc_pull(report: dict) -> list[str]:
    """The thermal MC mean agrees with the analytic value within PULL_MAX stderrs."""
    mean, analytic, stderr = report["mc_mean"], report["analytic"], report["mc_stderr"]
    if not (isinstance(stderr, float) and math.isfinite(stderr) and stderr > 0):
        return [f"thermal mc_stderr {stderr!r} is not a positive number"]
    pull = abs(mean - analytic) / stderr
    if not pull < PULL_MAX:
        return [f"thermal MC pull {pull:.3g} is not below {PULL_MAX}"]
    return []


def weak_drive_phase(phase: float, oracle: float) -> list[str]:
    """The "up" differential phase matches the weak-drive quadrature oracle."""
    dev = abs(phase - oracle) / abs(oracle)
    if not dev <= REPLAY_PHASE_RTOL:
        return [f"up phase {phase:.6g} deviates {dev:.3g} (relative) from oracle {oracle:.6g}"]
    return []


def unit_norm(label: str, norm: float) -> list[str]:
    """The final state's norm is 1 within NORM_TOL."""
    if not abs(norm - 1.0) <= NORM_TOL:
        return [f"{label} norm drift {abs(norm - 1.0):.3g} exceeds {NORM_TOL}"]
    return []


def signal_identity(label: str, signal: float, coherence: float, phase: float) -> list[str]:
    """signal = coherence * sin(phase), the engine's readout identity."""
    gap = abs(signal - coherence * math.sin(phase))
    if not gap <= IDENTITY_TOL:
        return [f"{label} signal differs from coherence*sin(phase) by {gap:.3g}"]
    return []


def transfer_match(label: str, numeric: complex, analytic: complex, peak: float) -> list[str]:
    """A numeric transfer coefficient matches the analytic curve within TRANSFER_RTOL * peak."""
    gap = abs(numeric - analytic)
    if not gap < TRANSFER_RTOL * peak:
        return [f"{label} numeric transfer off by {gap / peak:.3g} of the peak"]
    return []


def optimum_not_above_edges(s_min: float, s_edges) -> list[str]:
    """optimize_trap's S_min is no larger than S at either end of the search range."""
    return [
        f"S_min {s_min:.6g} exceeds S {s:.6g} at a range edge"
        for s in s_edges
        if not s_min <= s * (1.0 + 1e-12)
    ]
