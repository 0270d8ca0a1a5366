"""Command line driver for experiments described by JSON configs.

Usage:

    commonfix CONFIG.json [--output-dir DIR] [--seed N] [--quiet]

The config selects one of six modes:

    run             iterate a family and write a trace CSV plus summary JSON
    run_with_errors same, with one fixed perturbation point per stage
    certify         sample pairs and certify the growth inequalities (JSON)
    witness         tabulate witness pairs and their expansion ratios (CSV)
    counterexample  tabulate the antipodal-pair construction (CSV)
    defect_profile  tabulate grid defect estimates against the envelope (CSV)

Exit codes: 0 success, 1 a certificate or table check failed, 2 bad
configuration (an unknown or repeated key among them), 3 runtime failure.
A mode computes all its artifacts before any is written, so a failure
while computing writes none and creates no directory.  Artifacts are
``{name}_{suffix}``, ``name`` a file-name stem of at most 236 bytes
encoded, and every JSON artifact carries the config's ``name`` and
``mode``.  Outputs are deterministic: the same config and seed produce
byte-identical files.

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
import difflib
import functools
import json
import os
import sys
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import CommonFixError, ParseError, ValidationError
from .mappings import (
    DEFECT_GRID_SIZE,
    MAPPING_KEYS,
    FixedSetDescriptor,
    Mapping,
    check_factor,
    check_grid_size,
    check_power,
    make_identity,
    mapping_from_json,
    oscillator_defect_envelope,
    oscillator_defects,
)
from .sampling import sample_pairs
from .scheme import (
    IterationConfig,
    check_bounds,
    check_fixed_set,
    check_in_domain,
    check_kind,
    check_max_steps,
    check_tol,
    check_weights,
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
    Tally,
    antipodal_norm,
    antipodal_pair_counterexample,
    check_horizon,
    check_shift_identities,
    check_total_inequalities,
    witness_non_asymptotic,
    witness_start,
)

DEFAULT_BOUNDS = (0.05, 0.95)
DEFAULT_SAMPLES = 500
DEFAULT_POWERS = (1, 25)
# certify checks its pairs in blocks of this many, so that it holds the
# arrays of one block, not of every sample, at once
CERTIFY_BLOCK = 64
DEFAULT_HORIZON = 2000
COUNTEREXAMPLE_TOL = 1e-14
_NAME_BYTES = 255  # the longest file or directory name common file systems accept
_STEM_BYTES = _NAME_BYTES - len("_counterexample.csv")  # so the longest artifact name fits


@dataclass(frozen=True)
class CertifySpec:
    maps: tuple[Mapping, ...]
    samples: int
    powers: range
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

    def unknown(self, prefix: str, obj, known: Sequence[str]) -> None:
        """Record each key of ``obj``, if an object, outside ``known`` as ``prefix`` + key."""
        for key in obj if isinstance(obj, dict) else ():
            if key not in known:
                close = difflib.get_close_matches(key, known, 1)
                hint = f"; did you mean '{close[0]}'?" if close else ""
                self.append(f"'{prefix}{key}': unknown key{hint}")


def _as_list(value) -> list:
    return value if isinstance(value, list) else [value]


def _file_stem(value) -> str:
    """``value`` if it is a non-empty string that names a file inside the
    output directory: no path separator, no NUL, not ``.`` or ``..``, and
    at most ``_STEM_BYTES`` bytes once encoded, if it can be encoded."""
    if not isinstance(value, str) or not value:
        raise ValueError(f"expected a non-empty string, got {value!r}")
    if value in (".", "..") or any(c and c in value for c in ("/", os.sep, os.altsep, "\0")):
        raise ValueError(f"expected a file-name stem without a path, got {value!r}")
    if (size := len(os.fsencode(value))) > _STEM_BYTES:
        raise ValueError(f"expected at most {_STEM_BYTES} bytes as a file name, got {size}")
    return value


def _output_dir(value) -> str:
    """``value`` if it is a non-empty string without NUL that can be encoded
    and whose every path component is at most ``_NAME_BYTES`` bytes encoded."""
    if not isinstance(value, str) or not value:
        raise ValueError(f"expected a non-empty string, got {value!r}")
    if "\0" in value:
        raise ValueError(f"expected a path without NUL, got {value!r}")
    size = max((len(os.fsencode(part)) for part in Path(value).parts), default=0)
    if size > _NAME_BYTES:
        raise ValueError(f"expected path components of at most {_NAME_BYTES} bytes, got {size}")
    return value


def _mapping(violations: _Violations, path: str, spec) -> Mapping | None:
    """The mapping of ``spec``; each key its kind does not read is a violation."""
    mapping = violations.read(path, mapping_from_json, spec)
    kind = spec.get("kind") if isinstance(spec, dict) else None
    if isinstance(kind, str) and kind in MAPPING_KEYS:
        violations.unknown(f"{path}.", spec, MAPPING_KEYS[kind])
    return mapping


# the keys of a point's wire form, as point_to_json writes them
_POINT_KEYS = ("scalar", "vec")


def _point(violations: _Violations, path: str, obj) -> ProductPoint | None:
    violations.unknown(f"{path}.", obj, _POINT_KEYS)
    return violations.read(path, point_from_json, obj)


def _power_range(lo, hi) -> range:
    lo = check_power(lo)
    return range(lo, check_int(hi, lo, "max power") + 1)


def _iteration(
    raw: dict, violations: _Violations, with_errors: bool = False
) -> IterationConfig | None:
    # without a family size m, only the checks that need m or the domain are skipped
    t_specs = raw.get("t_family")
    if not isinstance(t_specs, list) or not t_specs:
        violations.append(f"'t_family': expected a non-empty list, got {t_specs!r}")
        t_specs = []
    m = len(t_specs)
    t_family = [_mapping(violations, f"t_family[{i}]", spec) for i, spec in enumerate(t_specs)]
    domain = None
    if m and None not in t_family:
        domain = violations.read("t_family", common_domain, t_family)
    i_specs = raw.get("i_family")
    if i_specs is None:
        i_specs = [{"kind": "identity"}] * m
    if not isinstance(i_specs, list) or (m and len(i_specs) != m):
        size = f"{m} " if m else ""
        violations.append(f"'i_family': expected a list of {size}mappings, got {i_specs!r}")
        i_specs = []
    i_family = [_mapping(violations, f"i_family[{i}]", spec) for i, spec in enumerate(i_specs)]
    # identity partners take the domain of the family
    i_family = [make_identity(domain) if mp and mp.name == "identity" else mp for mp in i_family]
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
        fixed_set = violations.read("fixed_set", _fixed_set, fixed_set, domain, violations)
    elif None not in t_family:
        # the fixed set every member describes alike, if there is one
        described = {mp.fixed_set for mp in t_family}
        fixed_set = described.pop() if len(described) == 1 else None
    keys = ("x0", "error_u", "error_v") if with_errors else ("x0",)
    points = [_point(violations, key, raw.get(key)) for key in keys]
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
        errors=tuple(errors) or None,
    )


def _schedule(raw: dict, key: str, m: int, with_errors: bool, violations: _Violations):
    spec = {} if raw.get(key) is None else raw[key]
    if not isinstance(spec, dict):
        violations.append(f"'{key}': expected an object, got {spec!r}")
        return None
    kind = spec.get("kind", "constant")
    # a constant schedule has no weights to read
    known = ("kind", "bounds") if kind == "constant" else ("kind", "bounds", "weights")
    violations.unknown(f"{key}.", spec, known)
    count = len(violations)
    # every check but the slot count's runs without a family size
    weights = spec.get("weights")
    violations.read(f"{key}.kind", check_kind, kind, weights)
    bounds = spec.get("bounds", list(DEFAULT_BOUNDS))
    bounds = violations.read(f"{key}.bounds", lambda b: check_bounds(json_numbers(b)), bounds)
    if weights is not None:
        weights = violations.read(
            f"{key}.weights", lambda w: check_weights(json_numbers(w), bounds), weights
        )
    if len(violations) > count or not m:  # no slot count without m
        return None
    make = functools.partial(make_schedule, weights=weights, includes_error_term=with_errors)
    return violations.read(key, make, kind, m, bounds)


def _fixed_set(spec, domain, violations: _Violations) -> FixedSetDescriptor:
    if not isinstance(spec, dict):
        raise ValueError(f"expected an object with a 'kind', got {spec!r}")
    kind, interval, point = spec.get("kind"), spec.get("interval"), spec.get("point")
    if kind in ("scalar_line", "single_point"):  # each reads one field besides its kind
        field = "interval" if kind == "scalar_line" else "point"
        violations.unknown("fixed_set.", spec, ("kind", field))
    violations.unknown("fixed_set.point.", point, _POINT_KEYS)
    fixed_set = FixedSetDescriptor(
        kind,
        interval=None if interval is None else tuple(json_numbers(interval, "interval")),
        point=None if point is None else point_from_json(point),
    )
    if domain is not None:
        check_fixed_set(fixed_set, domain)
    return fixed_set


def _certify(raw: dict, violations: _Violations) -> CertifySpec | None:
    key = "mappings" if "mappings" in raw else "mapping"
    if "mapping" in raw and "mappings" in raw:
        violations.append("'mappings': give 'mapping' or 'mappings', not both")
    specs = raw.get(key)
    if specs is None or specs == []:
        violations.append(f"'{key}': expected a mapping or a non-empty list of them")
        specs = []
    maps = []
    for i, spec in enumerate(_as_list(specs)):
        path = f"{key}[{i}]" if isinstance(specs, list) else key
        maps.append(_mapping(violations, path, spec))
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
    return CertifySpec(tuple(maps), samples, powers, full)


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
    if "x" in raw and "norm" in raw:
        violations.append("'norm': give 'x' or 'norm', not both")
    if "x" in raw:
        x = _point(violations, "x", raw["x"])
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
        violations.unknown("powers.", powers, ("min", "max"))
        powers = violations.read("powers", _power_range, powers.get("min"), powers.get("max"))
    elif isinstance(powers, list) and powers:
        powers = tuple(violations.read("powers", check_power, n) for n in powers)
    else:
        violations.append(f"'powers': expected a non-empty list or {{min, max}}: {powers!r}")
    grid = violations.read("grid_size", check_grid_size, raw.get("grid_size", DEFECT_GRID_SIZE))
    if violations:
        return None
    return DefectSpec(kappa, powers, grid)


def _json_loads(text: str) -> tuple[object, list[str]]:
    """``json.loads(text)``, and the path of each key repeated inside one
    JSON object, such as ``x0.scalar`` or ``t_family[0].alpha``.

    The paths are found top-down from the parsed value, through every
    value, the ones a repeat dropped too.  The walk keeps its own stack, so
    no nesting depth that JSON accepts can exhaust the interpreter's.

    :raises ValueError: malformed JSON.
    :raises RecursionError: nesting too deep for the parser.
    """
    # id of every object -> the object and its (key, value) pairs; both are
    # kept, so no id is reused while the walk reads them
    objects: dict[int, tuple[dict, list]] = {}

    def hook(pairs: list) -> dict:
        obj = dict(pairs)
        objects[id(obj)] = obj, pairs
        return obj

    raw = json.loads(text, object_pairs_hook=hook)
    found: list[str] = []
    stack = [("", raw)] if any(len(o) < len(p) for o, p in objects.values()) else []
    while stack:
        path, value = stack.pop()
        if isinstance(value, list):
            stack += reversed([(f"{path}[{i}]", v) for i, v in enumerate(value)])
        elif isinstance(value, dict):
            prefix = f"{path}." if path else ""
            pairs = objects[id(value)][1]
            found += [prefix + k for k, n in Counter(k for k, _ in pairs).items() if n > 1]
            stack += reversed([(prefix + k, v) for k, v in pairs])
    return raw, found


def parse_config(path: str | Path) -> ExperimentConfig:
    """Load and validate an experiment config.

    :raises ParseError: unreadable file or malformed JSON.
    :raises ValidationError: structurally valid JSON violating constraints;
        the error lists every violation found.
    """
    path = Path(path)
    try:
        raw, repeated = _json_loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # ValueError: malformed JSON, bytes that are not UTF-8, or an integer
        # past the interpreter's digit limit; RecursionError: deep nesting
        raise ParseError(f"{path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValidationError([f"top level must be a JSON object, got {type(raw).__name__}"])

    violations = _Violations(f"'{key}': repeated key" for key in repeated)
    name = violations.read("name", _file_stem, raw.get("name", path.stem))
    output_dir = violations.read("output_dir", _output_dir, raw.get("output_dir", "."))
    mode = raw.get("mode")
    if mode not in MODES:
        violations.append(f"'mode': expected one of {list(MODES)}, got {mode!r}")
        raise ValidationError(violations)
    keys, parse, _ = _MODES[mode]
    violations.unknown("", raw, ("name", "mode", "seed", "output_dir", *keys))
    seed = violations.read("seed", check_int, raw.get("seed", 0), 0, "seed")
    flag = raw.get("dump_states", False) if "dump_states" in keys else False
    dump_states = violations.read("dump_states", json_flag, flag)
    spec = parse(raw, violations)
    if violations:
        raise ValidationError(violations)
    return ExperimentConfig(name, mode, seed, output_dir, spec, dump_states)


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------


def _run_mode(cfg: ExperimentConfig, seed: int) -> tuple[bool, str, dict]:
    trace, fs = run(cfg.spec), cfg.spec.fixed_set
    steps, last = len(trace.records), trace.records[-1].step_norm
    files = {"trace.csv": functools.partial(write_trace_csv, trace)}
    if cfg.dump_states:
        files["states.jsonl"] = functools.partial(write_states_jsonl, trace)
    fix_dists = [r.dist_to_fixset for r in trace.records if r.dist_to_fixset is not None]
    files["summary.json"] = {
        "steps": steps,
        "terminated_by": trace.terminated_by,
        "final_scalar": trace.final.scalar,
        "final_vec_norm": l1_norm(trace.final.vec),
        "final_step_norm": last,
        "running_min_dist_to_fixset": min(fix_dists) if fix_dists else None,
        "final_dist_to_fixset": distance_to_fixset(trace.final, fs) if fs else None,
    }
    message = f"{steps} steps, terminated by {trace.terminated_by}, final step norm {last!r}"
    return True, message, files


def _certify_mode(cfg: ExperimentConfig, seed: int) -> tuple[bool, str, dict]:
    spec = cfg.spec
    rng = np.random.default_rng(seed)
    ns = spec.powers
    tally = Tally(keep_all=spec.full_checks)
    samples_dump: list[dict] = []
    for mapping in spec.maps:
        # s and t_alpha also get the exact identities of T_a
        shift = mapping.alpha if mapping.kappa is None else None
        # the powers are checked, and mu_n and lam_n taken, once per mapping
        gaps = mapping.gaps(ns)
        mu, lam = [mapping.profile.mu(n) for n in ns], [mapping.profile.lam(n) for n in ns]
        for start in range(0, spec.samples, CERTIFY_BLOCK):
            samples = range(start, min(start + CERTIFY_BLOCK, spec.samples))
            # drawn as arrays, bit for bit the generator's per-point stream
            block = sample_pairs(rng, mapping.domain, len(samples))
            if spec.full_checks:
                samples_dump += [
                    {"map": mapping.name, "sample": i, "x": point_to_json(x), "y": point_to_json(y)}
                    for i, (x, y) in zip(samples, block.pairs())
                ]
            # every check reads the block's gaps and rows: no image, and no point, is built
            block_gaps = gaps(block)
            columns = [
                check_total_inequalities(
                    mapping, None, block, ns, block_gaps, mu, lam, mapping.profile.phi
                )
            ]
            if shift is not None:
                columns += check_shift_identities(shift, ns, block, *block_gaps[1:])
            tally.add(columns, map=mapping.name, samples=samples)

    report = {"seed": seed, "samples": spec.samples, "powers": [ns[0], ns[-1]], **tally.report()}
    if spec.full_checks:
        report["sampled_points"] = samples_dump
    summary = report["summary"]
    message = f"{summary['total_checks']} checks, {summary['failed']} failed"
    return summary["all_satisfied"], message, {"certificates.json": report}


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


def _witness_mode(cfg: ExperimentConfig, seed: int) -> tuple[bool, str, dict]:
    spec = cfg.spec
    results = [
        witness_non_asymptotic(alpha, k, spec.lam_k, spec.x0)
        for alpha in spec.alphas
        for k in spec.ks
    ]
    all_exceed = all(res.exceeds for res in results)
    files = {
        "witness.csv": functools.partial(
            write_csv,
            header=[{"lam_k": "lambda_k"}.get(c, c) for c in _WITNESS_COLUMNS],
            rows=[[getattr(res, c) for c in _WITNESS_COLUMNS] for res in results],
        ),
        "summary.json": {"pairs": len(results), "all_exceed": all_exceed},
    }
    return all_exceed, f"{len(results)} witness pairs, all_exceed={all_exceed}", files


def _counterexample_mode(cfg: ExperimentConfig, seed: int) -> tuple[bool, str, dict]:
    spec = cfg.spec
    d = product_norm(spec.x)
    rows_out = []
    ok = True
    tol = COUNTEREXAMPLE_TOL * max(1.0, d)
    for row in antipodal_pair_counterexample(spec.x, spec.horizon):
        expected = d * abs(1.0 - 2.0 / row.n)
        deviation = abs(row.combined_norm - expected)
        ok = ok and deviation <= tol and row.difference_norm == 2.0 * d
        rows_out.append([row.n, row.combined_norm, expected, deviation, row.difference_norm])
    files = {
        "counterexample.csv": functools.partial(
            write_csv,
            header=["n", "combined_norm", "expected_combined", "deviation", "difference_norm"],
            rows=rows_out,
        ),
        "summary.json": {
            "horizon": spec.horizon,
            "norm": d,
            "max_deviation": max(r[3] for r in rows_out),
            "all_within_tolerance": ok,
        },
    }
    return ok, f"{spec.horizon} rows, within tolerance: {ok}", files


def _defect_mode(cfg: ExperimentConfig, seed: int) -> tuple[bool, str, dict]:
    spec = cfg.spec
    # one walk of the grid serves every power; an estimate above the envelope,
    # the s_f lambda_n, raises there, a runtime failure, so every row is within it
    rows = [
        [n, est, oscillator_defect_envelope(spec.kappa, n), True]
        for n, est in zip(spec.powers, oscillator_defects(spec.kappa, spec.powers, spec.grid_size))
    ]
    files = {
        "defects.csv": functools.partial(
            write_csv, header=["n", "estimate", "envelope", "within_envelope"], rows=rows
        ),
        "summary.json": {
            "kappa": spec.kappa, "grid_size": spec.grid_size, "all_within_envelope": True
        },
    }
    return True, f"{len(rows)} powers, within envelope: True", files


_RUN_KEYS = (
    "t_family", "i_family", "alpha_schedule", "beta_schedule",
    "x0", "tol", "max_steps", "fixed_set", "dump_states",
)

# mode -> (its top-level keys besides name, mode, seed and output_dir,
#          parse(raw, violations) -> spec, run(cfg, seed) -> (ok, message, files)).
# ``files`` maps each artifact's suffix to a JSON object, which execute heads
# with the config's name and mode, or to a writer that takes the path.
_MODES = {
    "run": (_RUN_KEYS, _iteration, _run_mode),
    "run_with_errors": (
        (*_RUN_KEYS, "error_u", "error_v"),
        functools.partial(_iteration, with_errors=True),
        _run_mode,
    ),
    "certify": (
        ("mapping", "mappings", "samples", "powers", "full_checks"), _certify, _certify_mode
    ),
    "witness": (("alpha", "k", "lambda_k", "x0"), _witness, _witness_mode),
    "counterexample": (("x", "norm", "horizon"), _counterexample, _counterexample_mode),
    "defect_profile": (("kappa", "powers", "grid_size"), _defects, _defect_mode),
}
MODES = tuple(_MODES)


def execute(
    cfg: ExperimentConfig,
    output_dir: str | None = None,
    seed: int | None = None,
    quiet: bool = False,
) -> int:
    """Run one experiment, then make the output directory and write the artifacts,
    in the order the mode lists them, as ``{name}_{suffix}``; return the exit code."""
    ok, message, files = _MODES[cfg.mode][2](cfg, cfg.seed if seed is None else seed)
    out = Path(output_dir if output_dir is not None else cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    for suffix, artifact in files.items():
        path = out / f"{cfg.name}_{suffix}"
        if isinstance(artifact, dict):
            payload = {"name": cfg.name, "mode": cfg.mode, **artifact}
            path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
        else:
            artifact(str(path))
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
    if args.output_dir is not None:
        violations.read("--output-dir", _output_dir, args.output_dir)
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
