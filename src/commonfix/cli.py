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
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import CommonFixError, ParseError, ValidationError
from .mappings import (
    FixedSetDescriptor,
    Mapping,
    estimate_intermediate_defects,
    make_identity,
    mapping_from_json,
    oscillator_defect_envelope,
    apply_f_kappa,
    OSCILLATOR_HALF_WIDTH,
)
from .sampling import sample_pair
from .scheme import (
    IterationConfig,
    distance_to_fixset,
    make_schedule,
    run,
    write_states_jsonl,
    write_trace_csv,
)
from .space import (
    ProductPoint,
    in_set,
    l1_norm,
    point_from_json,
    point_to_json,
    product_norm,
)
from .verifier import (
    antipodal_pair_counterexample,
    check_iterate_difference_identity,
    check_root_gap_chain,
    check_total_inequality,
    witness_non_asymptotic,
)

MODES = (
    "run",
    "run_with_errors",
    "certify",
    "witness",
    "counterexample",
    "defect_profile",
)

DEFAULT_TOL = 1e-8
DEFAULT_MAX_STEPS = 10000
DEFAULT_BOUNDS = (0.05, 0.95)
DEFAULT_SAMPLES = 500
DEFAULT_POWERS = (1, 25)
DEFAULT_HORIZON = 2000
DEFAULT_GRID = 2001
ENVELOPE_TOL = 1e-12
COUNTEREXAMPLE_TOL = 1e-14


@dataclass(frozen=True)
class CertifySpec:
    specs: tuple[dict, ...]
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
    powers: tuple[int, ...]
    grid_size: int


@dataclass(frozen=True)
class ExperimentConfig:
    name: str
    mode: str
    seed: int
    output_dir: str
    dump_states: bool = False
    iteration: IterationConfig | None = None
    certify: CertifySpec | None = None
    witness: WitnessSpec | None = None
    counterexample: CounterexampleSpec | None = None
    defects: DefectSpec | None = None


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


def _as_list(value) -> list:
    return value if isinstance(value, list) else [value]


def _is_int(value) -> bool:
    """JSON integers only: ``true`` and ``false`` parse to bool, an int subclass."""
    return isinstance(value, int) and not isinstance(value, bool)


def _build_families(
    raw: dict, violations: list[str]
) -> tuple[tuple[Mapping, ...], tuple[Mapping, ...]]:
    t_specs = raw.get("t_family")
    if not isinstance(t_specs, list) or not t_specs:
        violations.append("'t_family' must be a non-empty list of mapping specs")
        return (), ()
    t_family: list[Mapping] = []
    for idx, spec in enumerate(t_specs):
        try:
            t_family.append(mapping_from_json(spec))
        except (ValueError, TypeError) as exc:
            violations.append(f"t_family[{idx}]: {exc}")
    if len(t_family) != len(t_specs):
        return (), ()
    domain = t_family[0].domain
    for idx, mp in enumerate(t_family[1:], start=1):
        if mp.domain != domain:
            violations.append(
                f"t_family[{idx}] domain differs from t_family[0]"
            )
    i_specs = raw.get("i_family")
    if i_specs is None:
        i_specs = [{"kind": "identity"}] * len(t_specs)
    if not isinstance(i_specs, list) or len(i_specs) != len(t_specs):
        violations.append(
            "'i_family' must be a list of the same length as 't_family'"
        )
        return tuple(t_family), ()
    i_family: list[Mapping] = []
    for idx, spec in enumerate(i_specs):
        try:
            if isinstance(spec, dict) and spec.get("kind") == "identity":
                # identity partners inherit the common domain
                i_family.append(make_identity(domain))
            else:
                mp = mapping_from_json(spec)
                if mp.domain != domain:
                    violations.append(
                        f"i_family[{idx}] domain differs from the family domain"
                    )
                i_family.append(mp)
        except (ValueError, TypeError) as exc:
            violations.append(f"i_family[{idx}]: {exc}")
    return tuple(t_family), tuple(i_family)


def _build_schedule(
    raw: dict | None,
    label: str,
    m: int,
    with_errors: bool,
    violations: list[str],
):
    raw = raw if raw is not None else {}
    if not isinstance(raw, dict):
        violations.append(f"'{label}' must be an object")
        return None
    kind = raw.get("kind", "constant")
    bounds = raw.get("bounds", list(DEFAULT_BOUNDS))
    if (
        not isinstance(bounds, list)
        or len(bounds) != 2
        or not all(isinstance(b, (int, float)) for b in bounds)
    ):
        violations.append(f"'{label}.bounds' must be a pair of numbers")
        return None
    try:
        return make_schedule(
            kind,
            m,
            (float(bounds[0]), float(bounds[1])),
            weights=raw.get("weights"),
            includes_error_term=with_errors,
        )
    except CommonFixError as exc:
        violations.append(f"'{label}': {exc}")
        return None


def _build_fixed_set(
    raw, t_family: tuple[Mapping, ...], violations: list[str]
) -> FixedSetDescriptor | None:
    if raw is None:
        descriptors = [mp.fixed_set for mp in t_family]
        if descriptors and all(d is not None for d in descriptors):
            first = descriptors[0]
            if all(d == first for d in descriptors):
                return first
        return None
    if not isinstance(raw, dict) or "kind" not in raw:
        violations.append("'fixed_set' must be an object with a 'kind'")
        return None
    try:
        if raw["kind"] == "scalar_line":
            interval = raw.get("interval")
            return FixedSetDescriptor(
                "scalar_line", interval=(float(interval[0]), float(interval[1]))
            )
        if raw["kind"] == "single_point":
            return FixedSetDescriptor(
                "single_point", point=point_from_json(raw.get("point"))
            )
        violations.append(f"unknown fixed_set kind {raw['kind']!r}")
    except (ValueError, TypeError, IndexError) as exc:
        violations.append(f"'fixed_set': {exc}")
    return None


def _build_iteration(
    raw: dict, with_errors: bool, violations: list[str]
) -> IterationConfig | None:
    t_family, i_family = _build_families(raw, violations)
    if not t_family or not i_family:
        return None
    m = len(t_family)
    alpha = _build_schedule(
        raw.get("alpha_schedule"), "alpha_schedule", m, with_errors, violations
    )
    beta = _build_schedule(
        raw.get("beta_schedule"), "beta_schedule", m, with_errors, violations
    )
    try:
        x0 = point_from_json(raw.get("x0"))
    except (ValueError, TypeError) as exc:
        violations.append(f"'x0': {exc}")
        x0 = None
    tol = raw.get("tol", DEFAULT_TOL)
    if not isinstance(tol, (int, float)) or not tol > 0.0:
        violations.append(f"'tol' must be a positive number, got {tol!r}")
    max_steps = raw.get("max_steps", DEFAULT_MAX_STEPS)
    if not isinstance(max_steps, int) or max_steps < 1:
        violations.append(f"'max_steps' must be a positive integer, got {max_steps!r}")
    fixed_set = _build_fixed_set(raw.get("fixed_set"), t_family, violations)
    domain = t_family[0].domain
    if x0 is not None and not in_set(x0, domain):
        violations.append("'x0' lies outside the common admissible set")

    error_sequences = None
    if with_errors:
        points = []
        for key in ("error_u", "error_v"):
            try:
                pt = point_from_json(raw.get(key))
                if not in_set(pt, domain):
                    violations.append(f"'{key}' lies outside the common admissible set")
                points.append(pt)
            except (ValueError, TypeError) as exc:
                violations.append(f"'{key}': {exc}")
        if len(points) == 2:
            u_pt, v_pt = points
            error_sequences = (lambda n: u_pt, lambda n: v_pt)

    if violations or alpha is None or beta is None or x0 is None:
        return None
    if with_errors and error_sequences is None:
        return None
    return IterationConfig(
        t_family=t_family,
        i_family=i_family,
        alpha=alpha,
        beta=beta,
        x0=x0,
        max_steps=max_steps,
        tol=float(tol),
        fixed_set=fixed_set,
        error_sequences=error_sequences,
    )


def _build_certify(raw: dict, violations: list[str]) -> CertifySpec | None:
    specs = raw.get("mappings", raw.get("mapping"))
    if specs is None:
        violations.append("certify mode needs 'mapping' or 'mappings'")
        return None
    specs = _as_list(specs)
    for idx, spec in enumerate(specs):
        try:
            mapping_from_json(spec)
        except (ValueError, TypeError) as exc:
            violations.append(f"mappings[{idx}]: {exc}")
    samples = raw.get("samples", DEFAULT_SAMPLES)
    if not isinstance(samples, int) or samples < 1:
        violations.append(f"'samples' must be a positive integer, got {samples!r}")
    powers = raw.get("powers", list(DEFAULT_POWERS))
    if (
        not isinstance(powers, list)
        or len(powers) != 2
        or not all(isinstance(p, int) for p in powers)
        or not 1 <= powers[0] <= powers[1]
    ):
        violations.append(f"'powers' must be [min, max] with 1 <= min <= max, got {powers!r}")
        powers = list(DEFAULT_POWERS)
    full = bool(raw.get("full_checks", False))
    if violations:
        return None
    return CertifySpec(tuple(specs), samples, powers[0], powers[1], full)


def _build_witness(raw: dict, violations: list[str]) -> WitnessSpec | None:
    alphas = _as_list(raw.get("alpha", []))
    ks = _as_list(raw.get("k", []))
    if not alphas:
        violations.append("witness mode needs 'alpha' (number or list)")
    if not ks:
        violations.append("witness mode needs 'k' (integer or list)")
    for a in alphas:
        if not isinstance(a, (int, float)) or not 0.0 < a < 1.0:
            violations.append(f"witness alpha {a!r} must lie in (0, 1)")
    for k in ks:
        if not isinstance(k, int) or k < 1:
            violations.append(f"witness power {k!r} must be a positive integer")
    lam_k = raw.get("lambda_k")
    if not isinstance(lam_k, (int, float)) or not lam_k > 0.0:
        violations.append(f"'lambda_k' must be a positive number, got {lam_k!r}")
    x0 = raw.get("x0")
    if x0 is not None:
        if not isinstance(x0, (int, float)) or not x0 > 0.0:
            violations.append(f"witness 'x0' must be a positive number, got {x0!r}")
        elif isinstance(lam_k, (int, float)) and lam_k > 0.0:
            for a in alphas:
                for k in ks:
                    if not (isinstance(a, (int, float)) and 0.0 < a < 1.0):
                        continue
                    if not (isinstance(k, int) and k >= 1):
                        continue
                    bound = 4.0 * a ** (2 * k) / (9.0 * (1.0 + lam_k) ** 2)
                    if not x0 < bound:
                        violations.append(
                            f"witness 'x0'={x0!r} not below the bound {bound!r}"
                            f" for alpha={a!r}, k={k}"
                        )
    if violations:
        return None
    return WitnessSpec(
        tuple(float(a) for a in alphas),
        tuple(int(k) for k in ks),
        float(lam_k),
        None if x0 is None else float(x0),
    )


def _build_counterexample(raw: dict, violations: list[str]) -> CounterexampleSpec | None:
    x = None
    if "x" in raw:
        try:
            x = point_from_json(raw["x"])
        except (ValueError, TypeError) as exc:
            violations.append(f"'x': {exc}")
    elif "norm" in raw:
        d = raw["norm"]
        if not isinstance(d, (int, float)) or not d > 0.0:
            violations.append(f"'norm' must be a positive number, got {d!r}")
        else:
            x = ProductPoint(float(d), ())
    else:
        violations.append("counterexample mode needs 'x' (a point) or 'norm'")
    if x is not None and not product_norm(x) > 0.0:
        violations.append("counterexample point must have positive norm")
        x = None
    horizon = raw.get("horizon", DEFAULT_HORIZON)
    if not isinstance(horizon, int) or horizon < 1:
        violations.append(f"'horizon' must be a positive integer, got {horizon!r}")
    if violations or x is None:
        return None
    return CounterexampleSpec(x, horizon)


def _build_defects(raw: dict, violations: list[str]) -> DefectSpec | None:
    kappa = raw.get("kappa")
    if not isinstance(kappa, (int, float)) or not 0.0 < kappa < 1.0:
        violations.append(f"'kappa' must lie in (0, 1), got {kappa!r}")
    powers_raw = raw.get("powers", [1, 5, 10, 20])
    if isinstance(powers_raw, dict):
        lo, hi = powers_raw.get("min"), powers_raw.get("max")
        if not (_is_int(lo) and _is_int(hi) and 1 <= lo <= hi):
            violations.append(f"'powers' range needs integers 1 <= min <= max, got {powers_raw!r}")
            powers = ()
        else:
            powers = tuple(range(lo, hi + 1))
    elif isinstance(powers_raw, list) and powers_raw:
        if all(_is_int(p) and p >= 1 for p in powers_raw):
            powers = tuple(powers_raw)
        else:
            violations.append(f"'powers' must be positive integers, got {powers_raw!r}")
            powers = ()
    else:
        violations.append(f"'powers' must be a non-empty list or a range object, got {powers_raw!r}")
        powers = ()
    grid = raw.get("grid_size", DEFAULT_GRID)
    if not isinstance(grid, int) or grid < 2:
        violations.append(f"'grid_size' must be an integer >= 2, got {grid!r}")
    if violations or not powers:
        return None
    return DefectSpec(float(kappa), powers, grid)


def parse_config(path: str | Path) -> ExperimentConfig:
    """Load and validate an experiment config.

    :raises ParseError: unreadable file or malformed JSON.
    :raises ValidationError: structurally valid JSON violating constraints;
        the error lists every violation found.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValidationError([f"top level must be a JSON object, got {type(raw).__name__}"])

    violations: list[str] = []
    name = raw.get("name", path.stem)
    if not isinstance(name, str) or not name:
        violations.append(f"'name' must be a non-empty string, got {name!r}")
        name = path.stem
    mode = raw.get("mode")
    if mode not in MODES:
        violations.append(f"'mode' must be one of {list(MODES)}, got {mode!r}")
        raise ValidationError(violations)
    seed = raw.get("seed", 0)
    if not isinstance(seed, int) or seed < 0:
        violations.append(f"'seed' must be a nonnegative integer, got {seed!r}")
        seed = 0
    output_dir = raw.get("output_dir", ".")
    if not isinstance(output_dir, str) or not output_dir:
        violations.append(f"'output_dir' must be a non-empty string, got {output_dir!r}")
        output_dir = "."

    iteration = certify = witness = counterexample = defects = None
    if mode in ("run", "run_with_errors"):
        iteration = _build_iteration(raw, mode == "run_with_errors", violations)
    elif mode == "certify":
        certify = _build_certify(raw, violations)
    elif mode == "witness":
        witness = _build_witness(raw, violations)
    elif mode == "counterexample":
        counterexample = _build_counterexample(raw, violations)
    elif mode == "defect_profile":
        defects = _build_defects(raw, violations)

    if violations:
        raise ValidationError(violations)
    return ExperimentConfig(
        name=name,
        mode=mode,
        seed=seed,
        output_dir=output_dir,
        dump_states=bool(raw.get("dump_states", False)),
        iteration=iteration,
        certify=certify,
        witness=witness,
        counterexample=counterexample,
        defects=defects,
    )


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_cell(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _log(quiet: bool, message: str) -> None:
    if not quiet:
        print(message)


def _run_mode(cfg: ExperimentConfig, out: Path, quiet: bool) -> int:
    trace = run(cfg.iteration)
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
            distance_to_fixset(trace.final, cfg.iteration.fixed_set)
            if cfg.iteration.fixed_set
            else None
        ),
    }
    _write_json(out / f"{cfg.name}_summary.json", summary)
    _log(
        quiet,
        f"[{cfg.name}] {len(trace.records)} steps, terminated by "
        f"{trace.terminated_by}, final step norm {trace.records[-1].step_norm!r}",
    )
    return 0


def _certify_mode(cfg: ExperimentConfig, out: Path, seed: int, quiet: bool) -> int:
    spec = cfg.certify
    rng = np.random.default_rng(seed)
    all_rows: list[dict] = []
    samples_dump: list[dict] = []
    for spec_json in spec.specs:
        mapping = mapping_from_json(spec_json)
        kind = spec_json.get("kind")
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
            for n in range(spec.power_min, spec.power_max + 1):
                batch = [
                    check_total_inequality(mapping, None, mapping.profile, x, y, n)
                ]
                if kind in ("s", "t_alpha"):
                    alpha = float(spec_json["alpha"])
                    batch.append(
                        check_iterate_difference_identity(alpha, n, x.vec, y.vec)
                    )
                    batch.extend(check_root_gap_chain(x.vec, y.vec))
                for check in batch:
                    row = check.to_json()
                    row["map"] = mapping.name
                    row["sample"] = sample_idx
                    all_rows.append(row)

    failed = [row for row in all_rows if not row["satisfied"]]
    by_equation: dict[str, dict] = {}
    worst: dict[tuple[str, str], dict] = {}
    for row in all_rows:
        eq = row["equation"]
        agg = by_equation.setdefault(
            eq, {"checks": 0, "min_slack": math.inf, "satisfied": True}
        )
        agg["checks"] += 1
        agg["min_slack"] = min(agg["min_slack"], row["slack"])
        agg["satisfied"] = agg["satisfied"] and row["satisfied"]
        key = (row["map"], eq)
        if key not in worst or row["slack"] < worst[key]["slack"]:
            worst[key] = row
    report = {
        "name": cfg.name,
        "mode": "certify",
        "seed": seed,
        "samples": spec.samples,
        "powers": [spec.power_min, spec.power_max],
        "summary": {
            "total_checks": len(all_rows),
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
    _log(
        quiet,
        f"[{cfg.name}] {len(all_rows)} checks, {len(failed)} failed",
    )
    return 0 if not failed else 1


def _witness_mode(cfg: ExperimentConfig, out: Path, quiet: bool) -> int:
    spec = cfg.witness
    header = [
        "alpha",
        "k",
        "lambda_k",
        "x0",
        "separation",
        "image_separation",
        "ratio",
        "ratio_analytic",
        "threshold",
        "exceeds",
    ]
    rows = []
    all_exceed = True
    for alpha in spec.alphas:
        for k in spec.ks:
            res = witness_non_asymptotic(alpha, k, spec.lam_k, spec.x0)
            all_exceed = all_exceed and res.exceeds
            rows.append(
                [
                    res.alpha,
                    res.k,
                    res.lam_k,
                    res.x0,
                    res.separation,
                    res.image_separation,
                    res.ratio,
                    res.ratio_analytic,
                    res.threshold,
                    res.exceeds,
                ]
            )
    _write_csv(out / f"{cfg.name}_witness.csv", header, rows)
    _write_json(
        out / f"{cfg.name}_summary.json",
        {
            "name": cfg.name,
            "mode": "witness",
            "pairs": len(rows),
            "all_exceed": all_exceed,
        },
    )
    _log(quiet, f"[{cfg.name}] {len(rows)} witness pairs, all_exceed={all_exceed}")
    return 0 if all_exceed else 1


def _counterexample_mode(cfg: ExperimentConfig, out: Path, quiet: bool) -> int:
    spec = cfg.counterexample
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
    _write_csv(
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
    _log(quiet, f"[{cfg.name}] {spec.horizon} rows, within tolerance: {ok}")
    return 0 if ok else 1


def _defect_mode(cfg: ExperimentConfig, out: Path, quiet: bool) -> int:
    spec = cfg.defects
    interval = (-OSCILLATOR_HALF_WIDTH, OSCILLATOR_HALF_WIDTH)
    estimates = estimate_intermediate_defects(
        lambda x: apply_f_kappa(spec.kappa, x), interval, spec.powers, spec.grid_size
    )
    rows = []
    ok = True
    for n, est in zip(spec.powers, estimates):
        env = oscillator_defect_envelope(spec.kappa, n)
        within = est <= env + ENVELOPE_TOL
        ok = ok and within
        rows.append([n, est, env, within])
    _write_csv(
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
            "all_within_envelope": ok,
        },
    )
    _log(quiet, f"[{cfg.name}] {len(rows)} powers, within envelope: {ok}")
    return 0 if ok else 1


def execute(
    cfg: ExperimentConfig,
    output_dir: str | None = None,
    seed: int | None = None,
    quiet: bool = False,
) -> int:
    """Run one experiment; write artifacts; return the process exit code."""
    out = Path(output_dir if output_dir is not None else cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    effective_seed = cfg.seed if seed is None else seed
    if cfg.mode in ("run", "run_with_errors"):
        return _run_mode(cfg, out, quiet)
    if cfg.mode == "certify":
        return _certify_mode(cfg, out, effective_seed, quiet)
    if cfg.mode == "witness":
        return _witness_mode(cfg, out, quiet)
    if cfg.mode == "counterexample":
        return _counterexample_mode(cfg, out, quiet)
    return _defect_mode(cfg, out, quiet)


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

    try:
        cfg = parse_config(args.config)
    except ParseError as exc:
        print(f"config parse error: {exc}", file=sys.stderr)
        return 2
    except ValidationError as exc:
        print("config validation failed:", file=sys.stderr)
        for violation in exc.violations:
            print(f"  - {violation}", file=sys.stderr)
        return 2

    try:
        return execute(cfg, args.output_dir, args.seed, args.quiet)
    except Exception as exc:  # noqa: BLE001  runtime failures map to exit 3
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
