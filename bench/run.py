"""commonfix benchmark: fixed CLI workloads, each job in a fresh process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the package is imported from ``src/`` next to this
directory, never from an installed copy.  The seed is passed to the CLI
as ``--seed``.  Jobs run back to back while the next one is expected to
end within ``--seconds`` seconds (at least three jobs), and each job's
artifacts are checked before they are deleted.

With ``--trace 0`` the last line of standard output reports the
end-to-end metrics; with ``--trace 1`` it reports the per-layer metrics
of traced jobs and the tracing overhead.  Earlier lines record the
environment and the samples behind each median.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

MIN_JOBS = 3
# Setup is timed in every job; setup-only processes top the samples up to this.
SETUP_SAMPLES = 11
# Stop starting jobs after this many seconds, so the run ends within 180 s.
HARD_LIMIT_S = 140.0

END_TO_END = {
    "wall_s": "s",
    "work_per_s": "units/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}


def _layer(name: str, *fields: str) -> dict[str, str]:
    units = {"calls": "count", "self_s": "s", "coords": "count"}
    return {f"{name}.{f}": units.get(f, "count") for f in fields}


PER_LAYER = {
    **_layer("space.l1_norm", "calls", "self_s", "coords"),
    **_layer("space.convex_combine", "calls", "self_s", "coords"),
    **_layer("space.L1Vector.init", "calls", "self_s", "coords"),
    **_layer("space.in_set", "calls", "self_s"),
    "space.state.len_final": "count",
    "space.state.nnz_final": "count",
    "space.state.density": "ratio",
    "space.trace.coords_held": "count",
    **_layer("mappings.nth_power", "calls", "self_s"),
    "mappings.nth_power.per_step": "count/step",
    **_layer("mappings.power_t_alpha", "calls", "self_s", "zeros_written"),
    **_layer("mappings.apply_f_kappa", "calls", "self_s"),
    **_layer("mappings.estimate_intermediate_defect", "calls", "self_s", "grid_pairs"),
    "mappings.oscillator_defect.hits": "count",
    "mappings.oscillator_defect.misses": "count",
    "scheme.run.self_s": "s",
    "scheme.steps": "count",
    **_layer("scheme.step", "calls", "self_s"),
    **_layer("scheme.weights_at", "calls", "self_s"),
    "scheme.write_trace_csv.self_s": "s",
    "scheme.write_trace_csv.bytes": "bytes",
    "scheme.write_states_jsonl.self_s": "s",
    "scheme.write_states_jsonl.bytes": "bytes",
    **_layer("verifier.check_total_inequality", "calls", "self_s"),
    **_layer("verifier.check_iterate_difference_identity", "calls", "self_s"),
    **_layer("verifier.check_root_gap_chain", "calls", "self_s"),
    "verifier.checks": "count",
    "verifier.checks_failed": "count",
    "cli.parse_config.self_s": "s",
    "cli.execute.self_s": "s",
    "trace.overhead_s": "s",
}


def environment() -> dict:
    """Python, CPU count, git commit and load average at start."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "nproc_available": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "loadavg_start": os.getloadavg(),
    }


class Session:
    """Jobs of one workload, sharing a scratch directory inside the checkout."""

    def __init__(self, workload, seed: int, workdir: Path, deadline: float) -> None:
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.deadline = deadline
        self.config = workdir / f"{workload.name}.json"
        self.config.write_text(json.dumps(workload.config))
        self.attempted = 0
        self.failed: list[str] = []
        self.numpy = "unknown"
        # Elapsed seconds of past jobs, untraced (False) and traced (True).
        self.durations: dict[bool, list[float]] = {False: [], True: []}

    def _spawn(self, *flags: str) -> dict | None:
        """Run one child and check its artifacts; record every failure.

        Returns the child's result, or None when it produced no timing.
        """
        self.attempted += 1
        job = self.attempted
        out = self.workdir / f"job{job}"
        result_path = self.workdir / f"job{job}.json"
        cmd = [
            sys.executable, str(BENCH_DIR / "child.py"),
            "--src", str(SRC), "--config", str(self.config), "--out", str(out),
            "--seed", str(self.seed), "--result", str(result_path), *flags,
        ]
        timeout = max(1.0, self.deadline - time.monotonic())
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            self.failed.append(f"job {job}: timed out after {timeout:.0f} s")
            return None
        try:
            if proc.returncode != 0 or not result_path.is_file():
                tail = proc.stderr.strip().splitlines()[-1:] or ["no result"]
                self.failed.append(f"job {job}: exit {proc.returncode}: {tail[0]}")
                return None
            result = json.loads(result_path.read_text())
            self.numpy = result["numpy"]
            if "--setup-only" in flags:
                return result
            problems = [] if result["exit_code"] == 0 else [f"CLI exit {result['exit_code']}"]
            try:
                problems += self.workload.check(out)
                result["work"] = self.workload.work(out)
            except (OSError, ValueError, KeyError) as exc:
                problems.append(f"unreadable artifacts: {exc!r}")
            if problems:
                self.failed.append(f"job {job}: " + "; ".join(problems))
            # A job with wrong artifacts still counts its time; correct is false.
            return result if "work" in result else None
        finally:
            shutil.rmtree(out, ignore_errors=True)
            result_path.unlink(missing_ok=True)

    def setup_only(self) -> dict | None:
        return self._spawn("--setup-only")

    def job(self, traced: bool = False) -> dict | None:
        t0 = time.monotonic()
        result = self._spawn("--trace") if traced else self._spawn()
        self.durations[traced].append(time.monotonic() - t0)
        return result

    def time_left(self) -> bool:
        return time.monotonic() < self.deadline

    def fits(self, stop: float, traced: bool = False) -> bool:
        """Whether another job is expected to end by ``stop``."""
        past = self.durations[traced]
        return time.monotonic() + (statistics.median(past) if past else 0.0) <= stop


def _summary(values: list[float]) -> dict:
    qs = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"n": len(values), "min": min(values), "q1": qs[0], "median": qs[1],
            "q3": qs[2], "max": max(values)}


def end_to_end(session: Session, seconds: float) -> tuple[dict, dict]:
    jobs, setups = [], []
    stop = time.monotonic() + seconds
    for attempt in itertools.count():
        if not session.time_left() or (attempt >= MIN_JOBS and not session.fits(stop)):
            break
        result = session.job()
        if result is not None:
            jobs.append(result)
            setups.append(result["setup_s"])
    for _ in range(SETUP_SAMPLES - len(setups)):
        if not session.time_left():
            break
        result = session.setup_only()
        if result is not None:
            setups.append(result["setup_s"])
    if not jobs:
        return {}, {}
    samples = {
        "wall_s": [j["wall_s"] for j in jobs],
        "work_per_s": [j["work"] / j["wall_s"] for j in jobs],
        "setup_s": setups,
        "peak_rss_mb": [j["peak_rss_mb"] for j in jobs],
    }
    metrics = {name: statistics.median(v) for name, v in samples.items()}
    return metrics, {name: _summary(v) for name, v in samples.items()}


def per_layer(session: Session, seconds: float) -> tuple[dict, dict]:
    plain, traced = [], []
    stop = time.monotonic() + seconds
    for attempt in itertools.count():
        # Alternate untraced and traced jobs, untraced first.
        want_traced = attempt % 2 == 1
        if not session.time_left() or (attempt >= 2 and not session.fits(stop, want_traced)):
            break
        result = session.job(traced=want_traced)
        if result is not None:
            (traced if want_traced else plain).append(result)
    if not plain or not traced:
        return {}, {}
    metrics = {
        name: float(statistics.median(t["layers"].get(name, 0.0) for t in traced))
        for name in PER_LAYER
    }
    stored = metrics["space.state.len_final"]
    metrics["space.state.density"] = metrics["space.state.nnz_final"] / stored if stored else 0.0
    steps = metrics["scheme.steps"]
    metrics["mappings.nth_power.per_step"] = (
        metrics["mappings.nth_power.calls"] / steps if steps else 0.0
    )
    plain_wall = statistics.median(j["wall_s"] for j in plain)
    traced_wall = statistics.median(t["wall_s"] for t in traced)
    metrics["trace.overhead_s"] = traced_wall - plain_wall
    details = {
        "untraced_wall_s": _summary([j["wall_s"] for j in plain]),
        "traced_wall_s": _summary([t["wall_s"] for t in traced]),
        "untraced_functions": traced[0]["untraced_functions"],
    }
    return metrics, details


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # Turn SIGTERM into an exception, so the running child is killed and
    # the scratch directory removed on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "commonfix" / "cli.py").is_file():
        print(f"no commonfix sources under {SRC}", file=sys.stderr)
        return 2
    env = environment()
    started = time.monotonic()
    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        # The CLI seeds numpy's generator, which takes nonnegative seeds.
        session = Session(WORKLOADS[args.workload], args.seed % 2**32, workdir,
                          started + HARD_LIMIT_S)
        # Warm the file cache and the bytecode cache; not measured.
        session.setup_only()
        if args.trace:
            metrics, details = per_layer(session, args.seconds)
            units = PER_LAYER
        else:
            metrics, details = end_to_end(session, args.seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    if not metrics:
        print("no job completed:\n  " + "\n  ".join(session.failed), file=sys.stderr)
        return 1
    env["numpy"] = session.numpy
    attempted, failed = session.attempted, len(session.failed)
    if not args.trace:
        metrics["ok_ratio"] = (attempted - failed) / attempted
    env.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
               trace=args.trace, elapsed_s=time.monotonic() - started)
    print("environment " + json.dumps(env))
    print("samples " + json.dumps(details))
    for failure in session.failed:
        print("failed " + failure)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
