"""Quick schema check of the benchmark; it never gates on a timing.

    python3 bench/smoke.py [--workload defect-grid]

Checks that BENCHMARK.json is well formed and names exactly the metrics
and units that run.py prints, runs one short untraced and one short
traced run and checks their result lines, and checks that run.py fails
without a result in a directory that holds no sources.  Exits 0 when
every check passes.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from run import END_TO_END, PER_LAYER, ROOT
from workloads import WORKLOADS

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def check_spec(spec: dict) -> list[str]:
    problems = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != keys:
        problems.append(f"BENCHMARK.json keys {sorted(spec)} != {sorted(keys)}")
    names = [w["name"] for w in spec["workloads"]]
    if sorted(names) != sorted(WORKLOADS):
        problems.append(f"workloads {names} != {sorted(WORKLOADS)}")
    for w in spec["workloads"]:
        if set(w) != {"name", "why"} or "\n" in w["why"] or len(w["why"]) > 200:
            problems.append(f"bad workload entry {w!r}")
    for section, expected, keys in (
        ("end_to_end", END_TO_END, {"name", "unit", "better", "bound"}),
        ("per_layer", PER_LAYER, {"name", "unit", "better"}),
    ):
        declared = {m["name"]: m["unit"] for m in spec[section]}
        if declared != expected:
            problems.append(f"{section} differs from run.py: {set(declared) ^ set(expected)}")
        for m in spec[section]:
            if set(m) != keys or m["better"] not in ("lower", "higher"):
                problems.append(f"bad {section} entry {m!r}")
            if not NAME.fullmatch(m["name"]) or not UNIT.fullmatch(m["unit"]):
                problems.append(f"bad name or unit in {m!r}")
            if "bound" in m and not 0 < m["bound"] <= 0.25:
                problems.append(f"bound out of range in {m!r}")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        problems.append("setup_s must be an end-to-end metric in s, lower is better")
    all_names = names + [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    if len(set(all_names)) != len(all_names) or not all(NAME.fullmatch(n) for n in names):
        problems.append("names must be valid and used once")
    return problems


def check_result(line: str, expected: dict[str, str]) -> list[str]:
    result = json.loads(line)
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append(f"correct is {result.get('correct')!r}")
    if not (isinstance(result.get("attempted"), int) and result["attempted"] >= 1):
        problems.append(f"attempted is {result.get('attempted')!r}")
    if not isinstance(result.get("failed"), int):
        problems.append(f"failed is {result.get('failed')!r}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        problems.append(f"metric names differ: {set(metrics) ^ set(expected)}")
    for name, m in metrics.items():
        if m.get("unit") != expected.get(name) or set(m) != {"value", "unit"}:
            problems.append(f"{name}: {m!r}")
        elif not (isinstance(m["value"], (int, float)) and math.isfinite(m["value"])):
            problems.append(f"{name}: value {m['value']!r} is not a finite number")
    return problems


def run_bench(script: Path, workload: str, trace: int, cwd: Path) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(script), "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=180)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="defect-grid", choices=sorted(WORKLOADS))
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_spec(spec)
    script = ROOT / "bench" / "run.py"
    for trace, expected in ((0, END_TO_END), (1, PER_LAYER)):
        proc = run_bench(script, args.workload, trace, ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            problems.append(f"--trace {trace} exited {proc.returncode}: {proc.stderr.strip()}")
            continue
        problems += [f"--trace {trace}: {p}" for p in check_result(lines[-1], expected)]

    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="smoke-", dir=scratch))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "bench", bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(bare / "bench" / "run.py", args.workload, 0, bare)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append("run.py must fail without a result when src/ is absent")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass

    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
