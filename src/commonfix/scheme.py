"""Two-stage weighted iteration for finite families of mappings.

Given families T_1..T_m and I_1..I_m on a common admissible set and
weight schedules alpha and beta, one step at index n computes

    y_n     = beta_0n * x_n + sum_i beta_in * I_i^n(x_n)
    x_{n+1} = alpha_0n * x_n + sum_i alpha_in * T_i^n(y_n)

with the n-th step using the n-th powers of the maps.  Step indices start
at n = 1, so the supplied start point is x_1.  With schedules carrying
m + 2 weights, each stage takes one extra perturbation point.

Runs record a full trace: iterates, auxiliary points, step norms,
displacement defects ||x_n - T_i^n x_n|| and ||x_n - I_i^n x_n||, and
distances to a described fixed-point set.  Termination is by step norm
falling under the configured tolerance or by the step budget running out.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

from .errors import (
    DomainViolation,
    InfeasibleSchedule,
    LengthMismatch,
    WeightSumViolation,
)
from .mappings import FixedSetDescriptor, Mapping, nth_power
from .space import (
    WEIGHT_TOL,
    AdmissibleSet,
    ProductPoint,
    check_int,
    check_positive,
    convex_combine,
    distance,
    in_set,
    l1_norm,
    point_to_json,
)


@dataclass(frozen=True)
class WeightSchedule:
    """Convex weights per step for one stage of the iteration.

    ``values(j, n)`` is the weight of slot j at step n, where slot 0
    multiplies x_n, slots 1..m multiply the mapped points, and, when
    ``includes_error_term`` is set, slot m + 1 multiplies a perturbation
    point.  For every n the weights must be positive, sum to 1 within
    1e-12, and lie inside the closed box ``bounds``.
    """

    m: int
    values: Callable[[int, int], float]
    bounds: tuple[float, float]
    includes_error_term: bool = False

    @property
    def size(self) -> int:
        return self.m + (2 if self.includes_error_term else 1)

    def weights_at(self, n: int) -> tuple[float, ...]:
        """The full weight tuple for step n, validated on the way out.

        :raises WeightSumViolation: simplex constraint broken at this n.
        :raises InfeasibleSchedule: a weight escapes the box at this n.
        """
        w = tuple(float(self.values(j, n)) for j in range(self.size))
        total = math.fsum(w)
        if abs(total - 1.0) > WEIGHT_TOL or any(not x > 0.0 for x in w):
            raise WeightSumViolation(
                f"weights {w!r} at step {n} sum to {total!r}"
            )
        lo, hi = self.bounds
        for j, x in enumerate(w):
            if not lo <= x <= hi:
                raise InfeasibleSchedule(
                    f"weight {x!r} (slot {j}, step {n}) outside [{lo}, {hi}]"
                )
        return w


def make_schedule(
    kind: str,
    m: int,
    bounds: tuple[float, float],
    weights: Sequence[float] | None = None,
    values: Callable[[int, int], float] | None = None,
    includes_error_term: bool = False,
) -> WeightSchedule:
    """Construct a weight schedule.

    kind "constant" assigns every slot the equal weight 1/(m+1), or
    1/(m+2) with an error slot.  kind "custom" takes either a constant
    ``weights`` list of the full slot count or a callable ``values(j, n)``.
    Every schedule is checked by ``weights_at`` at steps 1..8 here and
    again at every use.

    :raises InfeasibleSchedule: bounds not a pair with 0 < lo < hi < 1, or
        a weight outside them.
    :raises WeightSumViolation: custom weights break the simplex constraint.
    :raises LengthMismatch: custom weights list has the wrong slot count.
    """
    if not (isinstance(m, int) and m >= 1):
        raise InfeasibleSchedule(f"family size must be a positive integer, got {m!r}")
    if len(bounds) != 2:
        raise InfeasibleSchedule(f"bounds must be a pair (lo, hi), got {bounds!r}")
    lo, hi = float(bounds[0]), float(bounds[1])
    if not 0.0 < lo < hi < 1.0:
        raise InfeasibleSchedule(
            f"bounds must satisfy 0 < lo < hi < 1, got ({lo}, {hi})"
        )
    size = m + (2 if includes_error_term else 1)
    if kind == "constant":
        w = 1.0 / size
        values = lambda j, n: w
    elif kind == "custom":
        if (weights is None) == (values is None):
            raise InfeasibleSchedule(
                "custom schedule needs exactly one of 'weights' or 'values'"
            )
        if weights is not None:
            ws = tuple(float(x) for x in weights)
            if len(ws) != size:
                raise LengthMismatch(
                    f"{len(ws)} weights supplied, {size} slots required"
                )
            values = lambda j, n: ws[j]
    else:
        raise InfeasibleSchedule(f"unknown schedule kind {kind!r}")
    sched = WeightSchedule(m, values, (lo, hi), includes_error_term)
    for n in range(1, 9):
        sched.weights_at(n)
    return sched


@dataclass(frozen=True)
class IterationConfig:
    """Everything a run needs: families, schedules, start, stopping rule.

    ``error_sequences``, when present, is a pair of functions n -> (u_n,
    v_n) supplying the perturbation points for the x-stage and the y-stage
    respectively; both schedules must then carry the extra weight slot.
    """

    t_family: tuple[Mapping, ...]
    i_family: tuple[Mapping, ...]
    alpha: WeightSchedule
    beta: WeightSchedule
    x0: ProductPoint
    max_steps: int = 10000
    tol: float = 1e-8
    fixed_set: FixedSetDescriptor | None = None
    error_sequences: (
        tuple[Callable[[int], ProductPoint], Callable[[int], ProductPoint]] | None
    ) = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "t_family", tuple(self.t_family))
        object.__setattr__(self, "i_family", tuple(self.i_family))


@dataclass(frozen=True)
class TraceRecord:
    """One step of a run.  ``x`` and ``y`` are x_n and y_n; ``step_norm``
    is ||x_{n+1} - x_n||; defects are displacement norms at x_n under the
    n-th powers."""

    n: int
    x: ProductPoint
    y: ProductPoint
    step_norm: float
    t_defects: tuple[float, ...]
    i_defects: tuple[float, ...]
    dist_to_fixset: float | None = None
    dist_to_ref: float | None = None


@dataclass(frozen=True)
class Trace:
    """A completed run: per-step records, the reason the loop stopped,
    the final iterate (the state after the last recorded step), and the
    configuration that produced it."""

    records: tuple[TraceRecord, ...]
    terminated_by: str
    final: ProductPoint
    config: IterationConfig


def check_tol(tol: float) -> float:
    """:raises ValueError: the stopping tolerance is not positive."""
    return check_positive(tol, "tolerance")


def check_max_steps(max_steps: int) -> int:
    """:raises ValueError: the step budget is not a positive integer."""
    return check_int(max_steps, 1, "max_steps")


def common_domain(family: Sequence[Mapping]) -> AdmissibleSet:
    """The admissible set shared by every mapping of ``family``.

    :raises DomainViolation: two members have different domains.
    """
    first = family[0].domain
    for mp in family[1:]:
        if mp.domain != first:
            raise DomainViolation(
                f"family domains disagree: {first!r} vs {mp.domain!r}"
            )
    return first


def check_in_domain(p: ProductPoint, domain: AdmissibleSet, what: str) -> None:
    """:raises DomainViolation: ``p``, described by ``what``, lies outside
    ``domain``.  Nothing is clamped."""
    if not in_set(p, domain):
        raise DomainViolation(f"{what} lies outside the common domain")


def _validate_config(cfg: IterationConfig) -> None:
    m = len(cfg.t_family)
    if m == 0 or len(cfg.i_family) != m:
        raise LengthMismatch(
            f"t_family has {m} members, i_family has {len(cfg.i_family)}"
        )
    if cfg.alpha.m != m or cfg.beta.m != m:
        raise LengthMismatch(
            f"schedules sized for m={cfg.alpha.m}/{cfg.beta.m}, families have m={m}"
        )
    has_error_slots = cfg.alpha.includes_error_term or cfg.beta.includes_error_term
    if (cfg.error_sequences is not None) != has_error_slots:
        raise LengthMismatch(
            "error sequences and error weight slots must be supplied together"
        )
    if cfg.error_sequences is not None and not (
        cfg.alpha.includes_error_term and cfg.beta.includes_error_term
    ):
        raise LengthMismatch("both schedules need the error slot, not just one")
    check_tol(cfg.tol)
    check_max_steps(cfg.max_steps)
    domain = common_domain(cfg.t_family + cfg.i_family)
    check_in_domain(cfg.x0, domain, "start point")


def i_images(x: ProductPoint, n: int, cfg: IterationConfig) -> list[ProductPoint]:
    """The points I_i^n(x) for the members of ``cfg.i_family``, in order."""
    return [nth_power(im, n, x) for im in cfg.i_family]


def step(
    x: ProductPoint,
    n: int,
    cfg: IterationConfig,
    images: Sequence[ProductPoint],
    errors: tuple[ProductPoint, ProductPoint] | None = None,
) -> tuple[ProductPoint, ProductPoint]:
    """One iteration step at index n >= 1.  Returns (x_{n+1}, y_n).

    ``images`` are the points I_i^n(x_n), as :func:`i_images` gives them.
    ``errors``, when given, is the pair (u_n, v_n) of perturbation points:
    v_n joins the y-stage and u_n the x-stage as one extra weighted point
    each, so both schedules must carry m + 2 weights.  Intermediates are
    never clamped: if y_n or x_{n+1} leaves the common admissible set, the
    configuration is broken and ``DomainViolation`` is raised.
    """
    domain = cfg.t_family[0].domain
    extra_x = extra_y = ()
    if errors is not None:
        u_n, v_n = errors
        check_in_domain(u_n, domain, f"perturbation point u_{n}")
        check_in_domain(v_n, domain, f"perturbation point v_{n}")
        extra_x, extra_y = (u_n,), (v_n,)
    y = convex_combine(cfg.beta.weights_at(n), [x, *images, *extra_y])
    check_in_domain(y, domain, f"auxiliary point at step {n}")
    t_points = [x, *(nth_power(tm, n, y) for tm in cfg.t_family), *extra_x]
    x_next = convex_combine(cfg.alpha.weights_at(n), t_points)
    check_in_domain(x_next, domain, f"iterate at step {n}")
    return x_next, y


def distance_to_fixset(p: ProductPoint, descriptor: FixedSetDescriptor) -> float:
    """Distance from p to the described set in the product norm.

    For a scalar segment the nearest point is (clamped scalar, 0), so the
    distance is the vector norm plus the scalar's distance to the
    interval.  For a single point it is the plain norm difference.
    """
    if descriptor.kind == "scalar_line":
        lo, hi = descriptor.interval  # type: ignore[misc]
        s = p.scalar
        scalar_gap = lo - s if s < lo else (s - hi if s > hi else 0.0)
        return l1_norm(p.vec) + scalar_gap
    return distance(p, descriptor.point)  # type: ignore[arg-type]


def reference_point(cfg: IterationConfig) -> ProductPoint | None:
    """The trace's reference fixed point, when a fixed set is described.

    A scalar segment contains one natural reference for a run: the
    projection of the start point, (clamped x0.scalar, 0).
    """
    fs = cfg.fixed_set
    if fs is None:
        return None
    if fs.kind == "scalar_line":
        lo, hi = fs.interval  # type: ignore[misc]
        s = min(max(cfg.x0.scalar, lo), hi)
        return ProductPoint(s, ())
    return fs.point


def run(cfg: IterationConfig) -> Trace:
    """Run the iteration from cfg.x0 with steps n = 1, 2, ...

    Stops when ||x_{n+1} - x_n|| < cfg.tol (terminated_by "tolerance") or
    after cfg.max_steps steps (terminated_by "max_steps").  Every record
    carries the pre-step state x_n, so the state after the last step is
    returned separately as ``Trace.final``.
    """
    _validate_config(cfg)
    ref = reference_point(cfg)
    x = cfg.x0
    records: list[TraceRecord] = []
    terminated = "max_steps"
    for n in range(1, cfg.max_steps + 1):
        images = i_images(x, n, cfg)
        errors = (
            None if cfg.error_sequences is None
            else (cfg.error_sequences[0](n), cfg.error_sequences[1](n))
        )
        x_next, y = step(x, n, cfg, images, errors)
        t_defects = tuple(
            distance(x, nth_power(tm, n, x)) for tm in cfg.t_family
        )
        i_defects = tuple(distance(x, ix) for ix in images)
        records.append(
            TraceRecord(
                n=n,
                x=x,
                y=y,
                step_norm=distance(x_next, x),
                t_defects=t_defects,
                i_defects=i_defects,
                dist_to_fixset=(
                    distance_to_fixset(x, cfg.fixed_set) if cfg.fixed_set else None
                ),
                dist_to_ref=(distance(x, ref) if ref is not None else None),
            )
        )
        x = x_next
        if records[-1].step_norm < cfg.tol:
            terminated = "tolerance"
            break
    return Trace(tuple(records), terminated, x, cfg)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _cell(v: object) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    return repr(v) if isinstance(v, float) else str(v)


def write_csv(path: str | Path, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    """Write a comma-separated table, one line per row.

    Cells are written unquoted: None as an empty cell, bools as
    ``true``/``false``, floats by repr (which round-trips them exactly)
    and everything else by str.
    """
    lines = [",".join(header)] + [",".join(map(_cell, row)) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n")


def write_trace_csv(trace: Trace, path: str) -> None:
    """Write the per-step table.

    Columns: n, step_norm, dist_to_fixset, dist_to_ref, t_defect_1..m,
    i_defect_1..m.  Floats use repr so the file round-trips exactly.
    """
    m = len(trace.config.t_family)
    header = (
        ["n", "step_norm", "dist_to_fixset", "dist_to_ref"]
        + [f"t_defect_{i}" for i in range(1, m + 1)]
        + [f"i_defect_{i}" for i in range(1, m + 1)]
    )
    rows = [
        [rec.n, rec.step_norm, rec.dist_to_fixset, rec.dist_to_ref]
        + [*rec.t_defects, *rec.i_defects]
        for rec in trace.records
    ]
    write_csv(path, header, rows)


def write_states_jsonl(trace: Trace, path: str) -> None:
    """Optionally dump full states, one JSON object per line per step."""
    with open(path, "w") as fh:
        for rec in trace.records:
            fh.write(
                json.dumps(
                    {"n": rec.n, "x": point_to_json(rec.x), "y": point_to_json(rec.y)},
                    sort_keys=True,
                )
            )
            fh.write("\n")
