"""The four fixed CLI workloads of the benchmark and their output checks.

Each workload is one CLI config.  The benchmark seed reaches the program
only through the CLI's ``--seed`` flag; the configs themselves are fixed.
Only ``certify-mixed`` draws random samples, so only its artifacts depend
on the seed, and it is checked by counts and flags rather than digests.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict
    # Work units of one job, read from its artifacts (see run.py: work_per_s).
    work: Callable[[Path], float]
    # Problems found in one job's artifacts; empty when the job is correct.
    check: Callable[[Path], list[str]]


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text())


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _digest_check(name: str, digests: dict[str, str]) -> Callable[[Path], list[str]]:
    """Artifacts must be byte-identical to the digests recorded here."""

    def check(out: Path) -> list[str]:
        problems = []
        for suffix, expected in digests.items():
            path = out / f"{name}_{suffix}"
            if not path.is_file():
                problems.append(f"missing artifact {path.name}")
            elif _sha256(path) != expected:
                problems.append(f"{path.name} differs from its recorded SHA-256")
        return problems

    return check


def _steps(name: str) -> Callable[[Path], float]:
    return lambda out: float(_read_json(out / f"{name}_summary.json")["steps"])


# --- run-anchored ---------------------------------------------------------

RUN_ANCHORED = {
    "name": "run-anchored",
    "mode": "run",
    "t_family": [{"kind": "s", "alpha": 0.5}, {"kind": "s", "alpha": 0.3}],
    "i_family": [{"kind": "identity"}, {"kind": "identity"}],
    "alpha_schedule": {"kind": "custom", "weights": [0.9, 0.05, 0.05]},
    "beta_schedule": {"kind": "custom", "weights": [0.9, 0.05, 0.05]},
    "x0": {"scalar": 0.7, "vec": [1.0]},
    "tol": 1e-10,
    "max_steps": 400,
}
RUN_ANCHORED_DIGESTS = {
    "trace.csv": "d56d1f60ead3615e12284838c5dfed3b169eb4a8f8c3d622dddfed8e01bc2c2d",
    "summary.json": "6657db382d40e9f6526cf35e6e43531fde6291b742687742988a9bd0a23a0cbc",
}

# --- run-perturbed-dump ---------------------------------------------------

RUN_PERTURBED_DUMP = {
    "name": "run-perturbed-dump",
    "mode": "run_with_errors",
    "t_family": [
        {"kind": "s_f", "kappa": 0.5, "alpha": 0.5},
        {"kind": "s_f", "kappa": 0.7, "alpha": 0.4},
    ],
    "alpha_schedule": {"kind": "custom", "weights": [0.85, 0.05, 0.05, 0.05]},
    "beta_schedule": {"kind": "custom", "weights": [0.85, 0.05, 0.05, 0.05]},
    "x0": {"scalar": 0.3, "vec": [0.5, -0.25]},
    "error_u": {"scalar": 0.01, "vec": [0.02]},
    "error_v": {"scalar": -0.01, "vec": [0.0, 0.01]},
    "tol": 1e-12,
    "max_steps": 400,
    "dump_states": True,
}
RUN_PERTURBED_DUMP_DIGESTS = {
    "trace.csv": "7da5c7b51d5b1064e6857d29ceffd1bbf6aea96ff7ac6acec4fd07f2ca2da20d",
    "summary.json": "2537458ecf7466378c9542d58b9b2bb9edff965a07b9105e6ccfdfcc4b64c52d",
    "states.jsonl": "cc29605b596341749aa7fb191582168b2e2b11e2818f0a0d99f3068a9a4acb54",
}

# --- certify-mixed --------------------------------------------------------

CERTIFY_MIXED = {
    "name": "certify-mixed",
    "mode": "certify",
    "mappings": [{"kind": "s", "alpha": 0.5}, {"kind": "s_f", "kappa": 0.5, "alpha": 0.5}],
    "samples": 600,
    "powers": [1, 25],
}
# 600 samples x 25 powers x (4 checks for s, 1 check for s_f).
CERTIFY_MIXED_CHECKS = 75_000


def _certify_report(out: Path) -> dict:
    return _read_json(out / "certify-mixed_certificates.json")


def _check_certify(out: Path) -> list[str]:
    # The numbers change once the s_f profile term is fixed, so no digests.
    summary = _certify_report(out)["summary"]
    problems = []
    if summary["total_checks"] != CERTIFY_MIXED_CHECKS:
        problems.append(f"total_checks {summary['total_checks']} != {CERTIFY_MIXED_CHECKS}")
    if summary["all_satisfied"] is not True:
        problems.append(f"all_satisfied is false ({summary['failed']} failed checks)")
    return problems


# --- defect-grid ----------------------------------------------------------

DEFECT_GRID = {
    "name": "defect-grid",
    "mode": "defect_profile",
    "kappa": 0.5,
    "powers": {"min": 1, "max": 20},
    "grid_size": 3001,
}
DEFECT_POWERS = range(1, 21)
# Grid estimates for n = 1..20, as the O(G^2) pair scan computes them.
DEFECT_REFERENCE = (
    0.09213056519777091,
    0.06977634102257982,
    0.03820560528941487,
    0.016799160745432598,
    0.006197733212614204,
    0.0023714716556128275,
    0.0006652709472340885,
    0.0001638621238991781,
) + (0.0,) * 12
# An O(G) prefix scan sums the same terms in another order.  The absolute
# floor is a few hundred ulps of the grid coordinates (|x| <= 1/pi), which
# covers the zero estimates at n >= 9.
DEFECT_RTOL = 1e-9
DEFECT_ATOL = 1e-14


def _check_defects(out: Path) -> list[str]:
    problems = []
    summary = _read_json(out / "defect-grid_summary.json")
    if summary["all_within_envelope"] is not True:
        problems.append("all_within_envelope is false")
    with open(out / "defect-grid_defects.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if [int(r["n"]) for r in rows] != list(DEFECT_POWERS):
        return problems + ["defect table does not list n = 1..20"]
    for row, ref in zip(rows, DEFECT_REFERENCE):
        n, est, env = int(row["n"]), float(row["estimate"]), float(row["envelope"])
        if abs(est - ref) > DEFECT_RTOL * abs(ref) + DEFECT_ATOL:
            problems.append(f"estimate at n={n} is {est!r}, reference {ref!r}")
        if not math.isclose(env, 2.0 * 0.5**n / math.pi, rel_tol=1e-12):
            problems.append(f"envelope at n={n} is {env!r}")
        if row["within_envelope"] != "true":
            problems.append(f"n={n} is not within the envelope")
    return problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "run-anchored",
            RUN_ANCHORED,
            _steps("run-anchored"),
            _digest_check("run-anchored", RUN_ANCHORED_DIGESTS),
        ),
        Workload(
            "run-perturbed-dump",
            RUN_PERTURBED_DUMP,
            _steps("run-perturbed-dump"),
            _digest_check("run-perturbed-dump", RUN_PERTURBED_DUMP_DIGESTS),
        ),
        Workload(
            "certify-mixed",
            CERTIFY_MIXED,
            lambda out: float(_certify_report(out)["summary"]["total_checks"]),
            _check_certify,
        ),
        Workload(
            "defect-grid",
            DEFECT_GRID,
            # grid_size x sum(n) oscillator evaluations
            lambda out: float(DEFECT_GRID["grid_size"] * sum(DEFECT_POWERS)),
            _check_defects,
        ),
    )
}
