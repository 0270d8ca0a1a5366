"""Command line driver for experiments described by JSON configs.

Usage:

    commonfix CONFIG.json [--output-dir DIR] [--seed N] [--quiet]

The config selects one of six modes:

    run             iterate a family and write a trace CSV plus summary JSON
    run_with_errors same, with one perturbation term per stage
    certify         sample pairs and certify the growth inequalities (JSON)
    witness         tabulate witness pairs and their expansion ratios (CSV)
    counterexample  tabulate the antipodal-pair construction (CSV)
    defect_profile  tabulate grid defect estimates against the envelope (CSV)

Exit codes: 0 success, 1 a certificate or table check failed, 2 bad
configuration, 3 runtime failure.  Outputs are deterministic: the same
config and seed produce byte-identical files.

Example run config:

    {
      "name": "two-family",
      "mode": "run",
      "t_family": [{"kind": "s", "alpha": 0.5}, {"kind": "s", "alpha": 0.3}],
      "i_family": [{"kind": "identity"}, {"kind": "identity"}],
      "alpha_schedule": {"kind": "constant", "bounds": [0.1, 0.9]},
      "beta_schedule": {"kind": "constant", "bounds": [0.1, 0.9]},
      "x0": {"scalar": 0.7, "vec": [1.0]},
      "tol": 1e-8,
      "max_steps": 200
    }
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import CommonFixError, ParseError, ValidationError
from .mappings import (
    FixedSetDescriptor,
    Mapping,
    check_factor,
    check_grid_size,
    check_power,
    make_identity,
    mapping_from_json,
    oscillator_defect,
    oscillator_defect_envelope,
)
from .sampling import sample_pair
from .scheme import (
    IterationConfig,
    check_in_domain,
    check_max_steps,
    check_tol,
    common_domain,
    distance_to_fixset,
    make_schedule,
    run,
    write_csv,
    write_states_jsonl,
    write_trace_csv,
)
from .space import (
    ProductPoint,
    check_int,
    check_positive,
    json_flag,
    json_int,
    json_number,
    json_numbers,
    l1_norm,
    point_from_json,
    point_to_json,
    product_norm,
)
from .verifier import (
    antipodal_norm,
    antipodal_pair_counterexample,
    check_horizon,
    check_iterate_difference_identities,
    check_root_gap_chain,
    check_total_inequalities,
    witness_non_asymptotic,
    witness_start,
)

DEFAULT_BOUNDS = (0.05, 0.95)
DEFAULT_SAMPLES = 500
DEFAULT_POWERS = (1, 25)
DEFAULT_HORIZON = 2000
DEFAULT_GRID = 2001
COUNTEREXAMPLE_TOL = 1e-14


@dataclass(frozen=True)
class CertifySpec:
    # each mapping with its factor alpha when it is s or t_alpha, else None
    maps: tuple[tuple[Mapping, float | None], ...]
    samples: int
    power_min: int
    power_max: int
    full_checks: bool


@dataclass(frozen=True)
class WitnessSpec:
    alphas: tuple[float, ...]
    ks: tuple[int, ...]
    lam_k: float
    x0: float | None


@dataclass(frozen=True)
class CounterexampleSpec:
    x: ProductPoint
    horizon: int


@dataclass(frozen=True)
class DefectSpec:
    kappa: float
    powers: Sequence[int]  # a tuple, or a range
    grid_size: int


@dataclass(frozen=True)
class ExperimentConfig:
    name: str
    mode: str
    seed: int
    output_dir: str
    # the mode's parsed fields: IterationConfig for the run modes, else a *Spec
    spec: IterationConfig | CertifySpec | WitnessSpec | CounterexampleSpec | DefectSpec
    dump_states: bool = False


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------
# Parsing checks the JSON type of each value with the space.json_* helpers
# and leaves every range check to the library function that owns it.

# What a check raises for a bad value; OverflowError is from huge float powers.
_CONFIG_ERRORS = (CommonFixError, ValueError, TypeError, OverflowError)


class _Violations(list):
    """The violations found so far, each prefixed with its field path."""

    def read(self, path: str, check: Callable, *args):
        """``check(*args)``, or None once its error is recorded under ``path``."""
        try:
            return check(*args)
        except _CONFIG_ERRORS as exc:
            self.append(f"'{path}': {exc}")
            return None


def _as_list(value) -> list:
    return value if isinstance(value, list) else [value]


def _file_stem(value) -> str:
    """``value`` if it is a non-empty string that names a file inside the
    output directory: no path separator, no NUL, not ``.`` or ``..``."""
    if not isinstance(value, str) or not value:
        raise ValueError(f"expected a non-empty string, got {value!r}")
    if value in (".", "..") or any(c and c in value for c in ("/", os.sep, os.altsep, "\0")):
        raise ValueError(f"expected a file-name stem without a path, got {value!r}")
    return value


def _power_range(lo, hi) -> range:
    lo = check_power(lo)
    return range(lo, check_int(hi, lo, "max power") + 1)


def _iteration(
    raw: dict, violations: _Violations, with_errors: bool = False
) -> IterationConfig | None:
    t_specs = raw.get("t_family")
    if not isinstance(t_specs, list) or not t_specs:
        violations.append(f"'t_family': expected a non-empty list, got {t_specs!r}")
        return None
    m = len(t_specs)
    t_family = [
        violations.read(f"t_family[{i}]", mapping_from_json, spec)
        for i, spec in enumerate(t_specs)
    ]
    domain = None
    if None not in t_family:
        domain = violations.read("t_family", common_domain, t_family)
    i_specs = raw.get("i_family")
    if i_specs is None:
        i_specs = [{"kind": "identity"}] * m
    if not isinstance(i_specs, list) or len(i_specs) != m:
        violations.append(f"'i_family': expected a list of {m} mappings, got {i_specs!r}")
        i_specs = []
    i_family = [
        # identity partners take the domain of the family
        make_identity(domain)
        if isinstance(spec, dict) and spec.get("kind") == "identity"
        else violations.read(f"i_family[{i}]", mapping_from_json, spec)
        for i, spec in enumerate(i_specs)
    ]
    if domain is not None and None not in i_family:
        violations.read("i_family", common_domain, t_family + i_family)
    alpha = _schedule(raw, "alpha_schedule", m, with_errors, violations)
    beta = _schedule(raw, "beta_schedule", m, with_errors, violations)
    tol = raw.get("tol", IterationConfig.tol)
    tol = violations.read("tol", lambda v: check_tol(json_number(v)), tol)
    max_steps = raw.get("max_steps", IterationConfig.max_steps)
    max_steps = violations.read("max_steps", check_max_steps, max_steps)
    fixed_set = raw.get("fixed_set")
    if fixed_set is not None:
        fixed_set = violations.read("fixed_set", _fixed_set, fixed_set)
    elif None not in t_family:
        # the fixed set every member describes alike, if there is one
        described = {mp.fixed_set for mp in t_family}
        fixed_set = described.pop() if len(described) == 1 else None
    keys = ("x0", "error_u", "error_v") if with_errors else ("x0",)
    points = [violations.read(key, point_from_json, raw.get(key)) for key in keys]
    for key, p in zip(keys, points):
        if domain is not None and p is not None:
            violations.read(key, check_in_domain, p, domain, "point")
    if violations:
        return None
    x0, *errors = points
    return IterationConfig(
        t_family=tuple(t_family),
        i_family=tuple(i_family),
        alpha=alpha,
        beta=beta,
        x0=x0,
        max_steps=max_steps,
        tol=tol,
        fixed_set=fixed_set,
        error_sequences=(
            (lambda n: errors[0], lambda n: errors[1]) if with_errors else None
        ),
    )


def _schedule(raw: dict, key: str, m: int, with_errors: bool, violations: _Violations):
    spec = raw.get(key)
    if spec is None:
        spec = {}
    if not isinstance(spec, dict):
        violations.append(f"'{key}': expected an object, got {spec!r}")
        return None
    count = len(violations)
    bounds = spec.get("bounds", list(DEFAULT_BOUNDS))
    bounds = violations.read(f"{key}.bounds", json_numbers, bounds)
    weights = spec.get("weights")
    if weights is not None:
        weights = violations.read(f"{key}.weights", json_numbers, weights)
    if len(violations) > count:
        return None
    return violations.read(
        key,
        lambda: make_schedule(
            spec.get("kind", "constant"),
            m,
            bounds,
            weights=weights,
            includes_error_term=with_errors,
        ),
    )


def _fixed_set(spec) -> FixedSetDescriptor:
    if not isinstance(spec, dict):
        raise ValueError(f"expected an object with a 'kind', got {spec!r}")
    interval, point = spec.get("interval"), spec.get("point")
    return FixedSetDescriptor(
        spec.get("kind"),
        interval=None if interval is None else tuple(json_numbers(interval, "interval")),
        point=None if point is None else point_from_json(point),
    )


def _certify(raw: dict, violations: _Violations) -> CertifySpec | None:
    key = "mappings" if "mappings" in raw else "mapping"
    specs = raw.get(key)
    if specs is None or specs == []:
        violations.append(f"'{key}': expected a mapping or a non-empty list of them")
        specs = []
    maps = []
    for i, spec in enumerate(_as_list(specs)):
        path = f"{key}[{i}]" if isinstance(specs, list) else key
        mapping = violations.read(path, mapping_from_json, spec)
        if mapping is not None:
            # s and t_alpha also get the exact identities of T_a
            shift = spec["alpha"] if spec["kind"] in ("s", "t_alpha") else None
            maps.append((mapping, shift))
    samples = raw.get("samples", DEFAULT_SAMPLES)
    samples = violations.read("samples", check_int, samples, 1, "samples")
    powers = raw.get("powers", list(DEFAULT_POWERS))
    if isinstance(powers, list) and len(powers) == 2:
        powers = violations.read("powers", _power_range, *powers)
    else:
        violations.append(f"'powers': expected [min, max], got {powers!r}")
    full = violations.read("full_checks", json_flag, raw.get("full_checks", False))
    if violations:
        return None
    return CertifySpec(tuple(maps), samples, powers[0], powers[-1], full)


def _witness(raw: dict, violations: _Violations) -> WitnessSpec | None:
    count = len(violations)
    fields = {}
    for key, json_type in (("alpha", json_number), ("k", json_int)):
        values = _as_list(raw.get(key))
        if not values:
            violations.append(f"'{key}': expected a value or a non-empty list")
        fields[key] = [violations.read(key, json_type, v) for v in values]
    lam_k = violations.read("lambda_k", json_number, raw.get("lambda_k"))
    x0 = raw.get("x0")
    if x0 is not None:
        x0 = violations.read("x0", json_number, x0)
    if len(violations) > count:
        return None
    for a in fields["alpha"]:
        for k in fields["k"]:
            violations.read(f"alpha={a!r}, k={k}", witness_start, a, k, lam_k, x0)
    if violations:
        return None
    return WitnessSpec(tuple(fields["alpha"]), tuple(fields["k"]), lam_k, x0)


def _counterexample(raw: dict, violations: _Violations) -> CounterexampleSpec | None:
    x, key = None, ("x" if "x" in raw else "norm")
    if "x" in raw:
        x = violations.read("x", point_from_json, raw["x"])
    elif "norm" in raw:
        x = violations.read(
            "norm", lambda v: ProductPoint(check_positive(json_number(v), "norm")), raw["norm"]
        )
    else:
        violations.append("'x': counterexample mode needs 'x' (a point) or 'norm'")
    if x is not None:
        violations.read(key, antipodal_norm, x)
    horizon = violations.read("horizon", check_horizon, raw.get("horizon", DEFAULT_HORIZON))
    if violations:
        return None
    return CounterexampleSpec(x, horizon)


def _defects(raw: dict, violations: _Violations) -> DefectSpec | None:
    kappa = violations.read("kappa", lambda v: check_factor(json_number(v)), raw.get("kappa"))
    powers = raw.get("powers", [1, 5, 10, 20])
    if isinstance(powers, dict):
        powers = violations.read("powers", _power_range, powers.get("min"), powers.get("max"))
    elif isinstance(powers, list) and powers:
        powers = tuple(violations.read("powers", check_power, n) for n in powers)
    else:
        violations.append(f"'powers': expected a non-empty list or {{min, max}}: {powers!r}")
    grid = violations.read("grid_size", check_grid_size, raw.get("grid_size", DEFAULT_GRID))
    if violations:
        return None
    return DefectSpec(kappa, powers, grid)


def parse_config(path: str | Path) -> ExperimentConfig:
    """Load and validate an experiment config.

    :raises ParseError: unreadable file or malformed JSON.
    :raises ValidationError: structurally valid JSON violating constraints;
        the error lists every violation found.
    """
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # ValueError: malformed JSON, bytes that are not UTF-8, or an integer
        # past the interpreter's digit limit; RecursionError: deep nesting
        raise ParseError(f"{path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValidationError([f"top level must be a JSON object, got {type(raw).__name__}"])

    violations = _Violations()
    name = violations.read("name", _file_stem, raw.get("name", path.stem))
    output_dir = raw.get("output_dir", ".")
    if not isinstance(output_dir, str) or not output_dir:
        violations.append(f"'output_dir': expected a non-empty string, got {output_dir!r}")
    mode = raw.get("mode")
    if mode not in MODES:
        violations.append(f"'mode': expected one of {list(MODES)}, got {mode!r}")
        raise ValidationError(violations)
    seed = violations.read("seed", check_int, raw.get("seed", 0), 0, "seed")
    dump_states = violations.read("dump_states", json_flag, raw.get("dump_states", False))
    spec = _MODES[mode][0](raw, violations)
    if violations:
        raise ValidationError(violations)
    return ExperimentConfig(name, mode, seed, output_dir, spec, dump_states)


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _run_mode(cfg: ExperimentConfig, out: Path, seed: int) -> tuple[bool, str]:
    trace = run(cfg.spec)
    trace_path = out / f"{cfg.name}_trace.csv"
    write_trace_csv(trace, str(trace_path))
    if cfg.dump_states:
        write_states_jsonl(trace, str(out / f"{cfg.name}_states.jsonl"))
    fix_dists = [r.dist_to_fixset for r in trace.records if r.dist_to_fixset is not None]
    summary = {
        "name": cfg.name,
        "mode": cfg.mode,
        "steps": len(trace.records),
        "terminated_by": trace.terminated_by,
        "final_scalar": trace.final.scalar,
        "final_vec_norm": l1_norm(trace.final.vec),
        "final_step_norm": trace.records[-1].step_norm,
        "running_min_dist_to_fixset": min(fix_dists) if fix_dists else None,
        "final_dist_to_fixset": (
            distance_to_fixset(trace.final, cfg.spec.fixed_set)
            if cfg.spec.fixed_set
            else None
        ),
    }
    _write_json(out / f"{cfg.name}_summary.json", summary)
    return True, (
        f"{len(trace.records)} steps, terminated by "
        f"{trace.terminated_by}, final step norm {trace.records[-1].step_norm!r}"
    )


def _certify_mode(cfg: ExperimentConfig, out: Path, seed: int) -> tuple[bool, str]:
    spec = cfg.spec
    rng = np.random.default_rng(seed)
    ns = range(spec.power_min, spec.power_max + 1)
    total = 0
    by_equation: dict[str, dict] = {}
    worst: dict[tuple[str, str], dict] = {}
    failed: list[dict] = []
    all_rows: list[dict] = []
    samples_dump: list[dict] = []
    for mapping, shift in spec.maps:
        for sample_idx in range(spec.samples):
            x, y = sample_pair(rng, mapping.domain)
            if spec.full_checks:
                samples_dump.append(
                    {
                        "map": mapping.name,
                        "sample": sample_idx,
                        "x": point_to_json(x),
                        "y": point_to_json(y),
                    }
                )
            checks = check_total_inequalities(mapping, None, mapping.profile, x, y, ns)
            if shift is not None:
                # the chain does not depend on n; it is reported at every power
                chain = check_root_gap_chain(x.vec, y.vec)
                identities = check_iterate_difference_identities(shift, ns, x.vec, y.vec)
                checks = [c for pair in zip(checks, identities) for c in (*pair, *chain)]
            for check in checks:
                total += 1
                eq = check.context["equation"]
                agg = by_equation.setdefault(
                    eq, {"checks": 0, "min_slack": math.inf, "satisfied": True}
                )
                agg["checks"] += 1
                agg["min_slack"] = min(agg["min_slack"], check.slack)
                agg["satisfied"] = agg["satisfied"] and check.satisfied
                key = (mapping.name, eq)
                new_worst = key not in worst or check.slack < worst[key]["slack"]
                # a row is built only where the report shows it
                if new_worst or not check.satisfied or spec.full_checks:
                    row = check.to_json()
                    row["map"] = mapping.name
                    row["sample"] = sample_idx
                    if new_worst:
                        worst[key] = row
                    if not check.satisfied:
                        failed.append(row)
                    if spec.full_checks:
                        all_rows.append(row)

    report = {
        "name": cfg.name,
        "mode": "certify",
        "seed": seed,
        "samples": spec.samples,
        "powers": [spec.power_min, spec.power_max],
        "summary": {
            "total_checks": total,
            "failed": len(failed),
            "all_satisfied": not failed,
            "by_equation": by_equation,
        },
        "worst": [worst[k] for k in sorted(worst)],
        "failures": failed,
    }
    if spec.full_checks:
        report["checks"] = all_rows
        report["sampled_points"] = samples_dump
    _write_json(out / f"{cfg.name}_certificates.json", report)
    return not failed, f"{total} checks, {len(failed)} failed"


# The WitnessResult attributes in table order; lam_k is headed lambda_k.
_WITNESS_COLUMNS = (
    "alpha",
    "k",
    "lam_k",
    "x0",
    "separation",
    "image_separation",
    "ratio",
    "ratio_analytic",
    "threshold",
    "exceeds",
)


def _witness_mode(cfg: ExperimentConfig, out: Path, seed: int) -> tuple[bool, str]:
    spec = cfg.spec
    results = [
        witness_non_asymptotic(alpha, k, spec.lam_k, spec.x0)
        for alpha in spec.alphas
        for k in spec.ks
    ]
    all_exceed = all(res.exceeds for res in results)
    write_csv(
        out / f"{cfg.name}_witness.csv",
        [{"lam_k": "lambda_k"}.get(c, c) for c in _WITNESS_COLUMNS],
        [[getattr(res, c) for c in _WITNESS_COLUMNS] for res in results],
    )
    _write_json(
        out / f"{cfg.name}_summary.json",
        {
            "name": cfg.name,
            "mode": "witness",
            "pairs": len(results),
            "all_exceed": all_exceed,
        },
    )
    return all_exceed, f"{len(results)} witness pairs, all_exceed={all_exceed}"


def _counterexample_mode(cfg: ExperimentConfig, out: Path, seed: int) -> tuple[bool, str]:
    spec = cfg.spec
    d = product_norm(spec.x)
    rows_out = []
    ok = True
    tol = COUNTEREXAMPLE_TOL * max(1.0, d)
    for row in antipodal_pair_counterexample(spec.x, spec.horizon):
        expected = d * abs(1.0 - 2.0 / row.n)
        deviation = abs(row.combined_norm - expected)
        row_ok = deviation <= tol and row.difference_norm == 2.0 * d
        ok = ok and row_ok
        rows_out.append(
            [row.n, row.combined_norm, expected, deviation, row.difference_norm]
        )
    write_csv(
        out / f"{cfg.name}_counterexample.csv",
        ["n", "combined_norm", "expected_combined", "deviation", "difference_norm"],
        rows_out,
    )
    _write_json(
        out / f"{cfg.name}_summary.json",
        {
            "name": cfg.name,
            "mode": "counterexample",
            "horizon": spec.horizon,
            "norm": d,
            "max_deviation": max(r[3] for r in rows_out),
            "all_within_tolerance": ok,
        },
    )
    return ok, f"{spec.horizon} rows, within tolerance: {ok}"


def _defect_mode(cfg: ExperimentConfig, out: Path, seed: int) -> tuple[bool, str]:
    spec = cfg.spec
    # the cached orbit behind lambda_n; an estimate above the envelope
    # raises there, a runtime failure, so every row is within it
    rows = [
        [n, oscillator_defect(spec.kappa, n, spec.grid_size),
         oscillator_defect_envelope(spec.kappa, n), True]
        for n in spec.powers
    ]
    write_csv(
        out / f"{cfg.name}_defects.csv",
        ["n", "estimate", "envelope", "within_envelope"],
        rows,
    )
    _write_json(
        out / f"{cfg.name}_summary.json",
        {
            "name": cfg.name,
            "mode": "defect_profile",
            "kappa": spec.kappa,
            "grid_size": spec.grid_size,
            "all_within_envelope": True,
        },
    )
    return True, f"{len(rows)} powers, within envelope: True"


# mode -> (parse(raw, violations) -> spec, run(cfg, out, seed) -> (ok, message))
_MODES = {
    "run": (_iteration, _run_mode),
    "run_with_errors": (functools.partial(_iteration, with_errors=True), _run_mode),
    "certify": (_certify, _certify_mode),
    "witness": (_witness, _witness_mode),
    "counterexample": (_counterexample, _counterexample_mode),
    "defect_profile": (_defects, _defect_mode),
}
MODES = tuple(_MODES)


def execute(
    cfg: ExperimentConfig,
    output_dir: str | None = None,
    seed: int | None = None,
    quiet: bool = False,
) -> int:
    """Run one experiment; write artifacts; return the process exit code."""
    out = Path(output_dir if output_dir is not None else cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    ok, message = _MODES[cfg.mode][1](cfg, out, cfg.seed if seed is None else seed)
    if not quiet:
        print(f"[{cfg.name}] {message}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="commonfix",
        description="Iterate mapping families and certify their growth inequalities.",
    )
    parser.add_argument("config", help="path to a JSON experiment config")
    parser.add_argument("--output-dir", default=None, help="override the output directory")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    args = parser.parse_args(argv)

    violations = _Violations()
    try:
        cfg = parse_config(args.config)
    except ParseError as exc:
        print(f"config parse error: {exc}", file=sys.stderr)
        return 2
    except ValidationError as exc:
        violations += exc.violations
    if args.seed is not None:
        violations.read("--seed", check_int, args.seed, 0, "seed")
    if violations:
        print("config validation failed:", file=sys.stderr)
        for violation in violations:
            print(f"  - {violation}", file=sys.stderr)
        return 2

    try:
        return execute(cfg, args.output_dir, args.seed, args.quiet)
    except Exception as exc:  # noqa: BLE001  runtime failures map to exit 3
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
