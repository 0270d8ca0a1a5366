"""Two-stage weighted iteration for finite families of mappings.

Given families T_1..T_m and I_1..I_m on a common admissible set and
weight schedules alpha and beta, one step at index n computes

    y_n     = beta_0 * x_n + sum_i beta_i * I_i^n(x_n)
    x_{n+1} = alpha_0 * x_n + sum_i alpha_i * T_i^n(y_n)

with the n-th step using the n-th powers of the maps.  Step indices start
at n = 1, so the supplied start point is x_1.  A stage's weights are the
same at every step.  Schedules and configs are checked once, when built.
With schedules carrying m + 2 weights, each stage takes one fixed
perturbation point: u in the x-stage, v in the y-stage.

``step(x, n, cfg)`` is that step: it returns x_{n+1} together with x_n's
record, which holds the auxiliary point, the step norm, the displacement
defects ||x_n - T_i^n x_n|| and ||x_n - I_i^n x_n||, and the distances to
a described fixed-point set.  ``run`` collects the records of steps
n = 1, 2, ... until the step norm falls under the configured tolerance or
the step budget runs out.

An n-th power moves every stored index by 0 or by n, so every vector of
step n lives on the indices of x_n moved by 0, n or 2n and those of u and
v.  The step aligns them once, on that union, its frame, and works on rows
over it: combinations, shifts and distances are array passes whose floats
are those of ``nth_power``, ``convex_combine`` and ``distance`` on points,
bit for bit, since a row's padding only adds +0.0 terms, which change no
sum started at +0.0.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass
from functools import cached_property
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (
    DomainViolation,
    InfeasibleSchedule,
    LengthMismatch,
    WeightSumViolation,
)
from .mappings import FixedSetDescriptor, Mapping, check_power, scalar_power
from .space import (
    WEIGHT_TOL,
    AdmissibleSet,
    L1Vector,
    ProductPoint,
    _left_sum,
    check_int,
    check_positive,
    combine_rows,
    distance,
    in_set,
    index_frame,
    write_point_json,
)


@dataclass(frozen=True)
class WeightSchedule:
    """The convex weights of one stage of the iteration, the same at every step.

    Slot 0 multiplies x_n, slots 1..m multiply the mapped points, and a
    slot m + 1, when present, multiplies the stage's perturbation point.
    The weights are checked once, here: each is positive, they sum to 1
    within ``WEIGHT_TOL``, and each lies in the closed box ``bounds``,
    a pair with 0 < lo < hi < 1 that is read here and not kept.

    :raises InfeasibleSchedule: bad bounds, or a weight outside them.
    :raises WeightSumViolation: the simplex constraint is broken.
    """

    weights: tuple[float, ...]
    bounds: InitVar[tuple[float, float]]

    def __post_init__(self, bounds: tuple[float, float]) -> None:
        object.__setattr__(self, "weights", check_weights(self.weights, check_bounds(bounds)))


def check_bounds(bounds: Sequence[float]) -> tuple[float, float]:
    """``bounds`` as a float pair (lo, hi) with 0 < lo < hi < 1.

    :raises InfeasibleSchedule: it is not such a pair.
    """
    if len(bounds) != 2:
        raise InfeasibleSchedule(f"bounds must be a pair (lo, hi), got {bounds!r}")
    lo, hi = float(bounds[0]), float(bounds[1])
    if not 0.0 < lo < hi < 1.0:
        raise InfeasibleSchedule(f"bounds must satisfy 0 < lo < hi < 1, got ({lo}, {hi})")
    return lo, hi


def check_weights(
    weights: Sequence[float], bounds: tuple[float, float] | None
) -> tuple[float, ...]:
    """``weights`` as floats, if each is positive, they sum to 1 within
    ``WEIGHT_TOL``, and each lies in the closed box ``bounds``, a checked
    pair; with ``bounds`` None the box is not checked.

    :raises WeightSumViolation: the simplex constraint is broken.
    :raises InfeasibleSchedule: a weight lies outside the bounds.
    """
    w = tuple(float(x) for x in weights)
    total = math.fsum(w)
    if abs(total - 1.0) > WEIGHT_TOL or any(not x > 0.0 for x in w):
        raise WeightSumViolation(f"weights {w!r} sum to {total!r}")
    if bounds is not None:
        lo, hi = bounds
        for j, x in enumerate(w):
            if not lo <= x <= hi:
                raise InfeasibleSchedule(f"weight {x!r} (slot {j}) outside [{lo}, {hi}]")
    return w


def check_kind(kind: str, weights: Sequence[float] | None) -> str:
    """``kind`` if it is "constant", or "custom" with ``weights`` given.

    :raises InfeasibleSchedule: an unknown kind, or no custom weights.
    """
    if kind not in ("constant", "custom"):
        raise InfeasibleSchedule(f"unknown schedule kind {kind!r}")
    if kind == "custom" and weights is None:
        raise InfeasibleSchedule("custom schedule needs a 'weights' list")
    return kind


def make_schedule(
    kind: str,
    m: int,
    bounds: tuple[float, float],
    weights: Sequence[float] | None = None,
    includes_error_term: bool = False,
) -> WeightSchedule:
    """Construct a weight schedule for a family of m maps.

    kind "constant" assigns every slot the equal weight 1/(m+1), or
    1/(m+2) with an error slot.  kind "custom" takes a ``weights`` list
    of the full slot count.  ``WeightSchedule`` checks the result.  Only
    the slot count needs m: :func:`check_kind`, :func:`check_bounds` and
    :func:`check_weights` check the rest without it.

    :raises InfeasibleSchedule: bad family size, kind or bounds, no
        custom weights, or a weight outside the bounds.
    :raises WeightSumViolation: custom weights break the simplex constraint.
    :raises LengthMismatch: custom weights list has the wrong slot count.
    """
    if not (isinstance(m, int) and m >= 1):
        raise InfeasibleSchedule(f"family size must be a positive integer, got {m!r}")
    size = m + (2 if includes_error_term else 1)
    if check_kind(kind, weights) == "constant":
        weights = (1.0 / size,) * size
    elif len(weights) != size:
        raise LengthMismatch(f"{len(weights)} weights supplied, {size} slots required")
    return WeightSchedule(weights, bounds)


@dataclass(frozen=True)
class IterationConfig:
    """Everything a run needs: families, schedules, start, stopping rule.

    ``errors``, when present, is the pair (u, v) of fixed perturbation
    points of the x-stage and the y-stage respectively; both schedules
    must then carry the extra weight slot.  A config is checked once, when
    it is built, so ``step``, ``run`` and the recursion bound read only
    checked ones.

    :raises LengthMismatch: the families or the schedules do not match.
    :raises ValueError: a bad tolerance or step budget.
    :raises DomainViolation: the domains disagree, or x0, u, v or the
        fixed set leaves their common domain.
    """

    t_family: tuple[Mapping, ...]
    i_family: tuple[Mapping, ...]
    alpha: WeightSchedule
    beta: WeightSchedule
    x0: ProductPoint
    max_steps: int = 10000
    tol: float = 1e-8
    fixed_set: FixedSetDescriptor | None = None
    errors: tuple[ProductPoint, ProductPoint] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "t_family", tuple(self.t_family))
        object.__setattr__(self, "i_family", tuple(self.i_family))
        m = len(self.t_family)
        if m == 0 or len(self.i_family) != m:
            raise LengthMismatch(f"t_family has {m} members, i_family has {len(self.i_family)}")
        want = m + 1 + (self.errors is not None)
        for label, sched in (("alpha", self.alpha), ("beta", self.beta)):
            if len(sched.weights) != want:
                raise LengthMismatch(
                    f"{label} schedule has {len(sched.weights)} weights, the config needs {want}"
                )
        check_tol(self.tol)
        check_max_steps(self.max_steps)
        domain = common_domain(self.t_family + self.i_family)
        check_in_domain(self.x0, domain, "start point")
        if self.errors is not None:
            for name, p in zip("uv", self.errors):
                check_in_domain(p, domain, f"perturbation point {name}")
        if self.fixed_set is not None:
            check_fixed_set(self.fixed_set, domain)

    @cached_property
    def reference(self) -> ProductPoint | None:
        """The trace's reference fixed point, when a fixed set is described:
        the point of the set nearest to the start point."""
        return None if self.fixed_set is None else self.fixed_set.nearest(self.x0)


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


class _RowPoint(NamedTuple):
    """A point of step n held over the step's frame: its scalar, its vector
    as a row over the frame (+0.0 where it stores nothing), and its dense
    length."""

    scalar: float
    row: np.ndarray
    length: int


class _Frame:
    """The index frame of step n: the sorted union of the input copies
    (s, o), the stored indices of s in {x_n, u, v} moved by o, that the
    step's maps can reach, and the positions of each copy in it.

    A map's n-th power moves a stored index by 0 or by n, so I_i^n x_n
    lives on (x, 0) or (x, n), y_n on those and (v, 0), T_i^n y_n on them
    or on (x, n), (x, 2n) and (v, n), and x_{n+1} adds (u, 0).  Every
    point of the step is then a row over the frame, which one sort of the
    copies aligns, where each kernel call would align its own inputs.
    """

    def __init__(self, x: ProductPoint, n: int, cfg: IterationConfig) -> None:
        i_shift = any(mp.alpha is not None for mp in cfg.i_family)
        t_shift = any(mp.alpha is not None for mp in cfg.t_family)
        # x moves by n once per stage whose maps shift, v by the T_i only
        copies = [("x", o) for o in (0, n, 2 * n)[: 1 + i_shift + t_shift]]
        points = {"x": x}
        if cfg.errors is not None:
            points["u"], points["v"] = cfg.errors
            copies += [("u", 0), *(("v", o) for o in (0, n)[: 1 + t_shift])]
        self.n = n
        self.index, positions = index_frame([points[s].vec.idx + o for s, o in copies])
        self.at = dict(zip(copies, positions))
        # T_a^n moves each copy (s, o) to (s, o + n): every stored index of
        # a row it shifts lies in a copy whose move the frame holds; with no
        # shifting map there is no move
        moves = [(p, self.at[s, o + n]) for (s, o), p in self.at.items() if (s, o + n) in self.at]
        self.src, self.dst = (np.concatenate(m) for m in zip(*moves)) if moves else ([], [])
        head = int(self.index.searchsorted(n))
        # index n receives the head sqrt(|x_1|); if the frame does not hold
        # it, no row stores x_1 and searchsorted points at another index
        self.head = head if head < len(self.index) and self.index[head] == n else None

    def point(self, p: ProductPoint, s: str) -> _RowPoint:
        """The input point p, which is s in {x, u, v}, as a row."""
        row = np.zeros(len(self.index))
        row[self.at[s, 0]] = p.vec.val
        return _RowPoint(p.scalar, row, len(p.vec))

    def power(self, mapping: Mapping, p: _RowPoint) -> _RowPoint:
        """mapping^n at p, bit for bit :func:`nth_power`'s image, whose
        domain check the step makes for it.  T_a^n scatters a^n * row from
        each copy to the copy n places on and writes the head a^n *
        sqrt(|x_1|) at index n, as ``_shift_power`` does for a vector."""
        scalar, row, length = p
        if mapping.alpha is not None:
            ak = mapping.alpha**self.n
            out = np.zeros(len(row))
            out[self.dst] = ak * row[self.src]
            if self.head is not None:
                first = float(row[0]) if self.index[0] == 0 else 0.0
                out[self.head] = ak * math.sqrt(abs(first))
            row, length = out, self.n + max(length, 1)
        return _RowPoint(scalar_power(mapping, self.n, scalar), row, length)

    def combine(self, weights: Sequence[float], points: Sequence[_RowPoint]) -> _RowPoint:
        """sum_j w_j p_j, bit for bit :func:`convex_combine`'s, for weights
        the schedule checked when it was built."""
        scalar, row = combine_rows(weights, [p.scalar for p in points], [p.row for p in points])
        return _RowPoint(scalar, row, max(p.length for p in points))

    def sparse(self, p: _RowPoint) -> ProductPoint:
        """p as a point that stores its row's entries other than +0.0."""
        return ProductPoint(p.scalar, L1Vector.from_sparse(self.index, p.row, p.length))

    def distances(self, p: _RowPoint, qs: Sequence[_RowPoint]) -> list[float]:
        """||p - q|| for each q of qs, each bit for bit :func:`distance`'s:
        a row's left fold of abs(p - q) adds, in index order, the terms of
        ``l1_distance``'s pass and some abs(+0.0 - +0.0), which leave a
        total started at +0.0 unchanged (see ``PairBlock``)."""
        with np.errstate(invalid="ignore", over="ignore"):
            vec = _left_sum(np.abs(p.row - np.stack([q.row for q in qs])))
        return [abs(p.scalar - q.scalar) + d for q, d in zip(qs, vec.tolist())]


def step(x: ProductPoint, n: int, cfg: IterationConfig) -> tuple[ProductPoint, TraceRecord]:
    """One iteration step at index n >= 1.  Returns x_{n+1} and x_n's record.

    The whole step works on one frame (:class:`_Frame`): x_n, u and v
    become rows over it once, each I_i^n(x_n) is computed once and serves
    both y_n and its defect, and y_n and x_{n+1} become points once, for
    the record and for the next step.  With ``cfg.errors``, u joins the
    x-stage and v the y-stage as one extra weighted point each.  ``cfg``
    and its schedules were checked when they were built.  The maps share
    one domain, so the step checks x_n once, as I_1 does and with its
    message, and y_n and x_{n+1} against the domain, which covers the
    T_i's check of y_n.  Intermediates are never clamped: if y_n or
    x_{n+1} leaves the common admissible set, the configuration is broken
    and ``DomainViolation`` is raised.  Every float is the composed step's
    (``nth_power``, ``convex_combine`` and ``distance`` on points), bit
    for bit; see the module note.
    """
    n = check_power(n)
    cfg.i_family[0]._check_point(x)
    domain = cfg.t_family[0].domain
    frame = _Frame(x, n, cfg)
    xr = frame.point(x, "x")
    images = [frame.power(im, xr) for im in cfg.i_family]
    extra_x, extra_y = ((), ()) if cfg.errors is None else (
        (frame.point(p, s),) for p, s in zip(cfg.errors, "uv")
    )
    yr = frame.combine(cfg.beta.weights, [xr, *images, *extra_y])
    y = frame.sparse(yr)
    check_in_domain(y, domain, f"auxiliary point at step {n}")
    t_points = [xr, *(frame.power(tm, yr) for tm in cfg.t_family), *extra_x]
    next_r = frame.combine(cfg.alpha.weights, t_points)
    x_next = frame.sparse(next_r)
    check_in_domain(x_next, domain, f"iterate at step {n}")
    t_images = [frame.power(tm, xr) for tm in cfg.t_family]
    step_norm, *defects = frame.distances(xr, [next_r, *t_images, *images])
    m = len(cfg.t_family)
    fs, ref = cfg.fixed_set, cfg.reference
    return x_next, TraceRecord(
        n=n,
        x=x,
        y=y,
        step_norm=step_norm,
        t_defects=tuple(defects[:m]),
        i_defects=tuple(defects[m:]),
        dist_to_fixset=None if fs is None else distance_to_fixset(x, fs),
        dist_to_ref=None if ref is None else distance(x, ref),
    )


def distance_to_fixset(p: ProductPoint, descriptor: FixedSetDescriptor) -> float:
    """Distance from p to the described set in the product norm: the
    distance to its nearest point."""
    return distance(p, descriptor.nearest(p))


def check_fixed_set(descriptor: FixedSetDescriptor, domain: AdmissibleSet) -> None:
    """:raises DomainViolation: the described set leaves ``domain``.

    The set is a segment or a point, so it lies in the convex domain when
    its ends do; they are its nearest points to the scalars -inf and +inf."""
    for end in (-math.inf, math.inf):
        q = descriptor.nearest(ProductPoint(end))
        check_in_domain(q, domain, f"fixed-set point {q!r}")


def run(cfg: IterationConfig) -> Trace:
    """Run the iteration from cfg.x0 with steps n = 1, 2, ...

    ``cfg`` was checked when it was built, so the first step comes first.
    Stops when ||x_{n+1} - x_n|| < cfg.tol (terminated_by "tolerance") or
    after cfg.max_steps steps (terminated_by "max_steps").  Every record
    carries the pre-step state x_n, so the state after the last step is
    returned separately as ``Trace.final``.
    """
    x = cfg.x0
    records: list[TraceRecord] = []
    for n in range(1, cfg.max_steps + 1):
        x, record = step(x, n, cfg)
        records.append(record)
        if record.step_norm < cfg.tol:
            return Trace(tuple(records), "tolerance", x, cfg)
    return Trace(tuple(records), "max_steps", x, cfg)


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
    """Dump x_n and y_n of every step, one JSON object per line:
    ``{"n": n, "x": point, "y": point}``, keys sorted, each point in the
    dense wire form of :func:`point_to_json`.

    :func:`write_point_json` spells only the stored runs of each vector and
    repeats ``0.0`` for the rest, so no dense list is built; the file still
    lists every coordinate and grows as N^3 in the step count N: 11.8 MB at
    160 steps, 121 MB at 400."""
    with open(path, "w") as fh:
        for rec in trace.records:
            fh.write(f'{{"n": {rec.n}, "x": ')
            write_point_json(fh, rec.x)
            fh.write(', "y": ')
            write_point_json(fh, rec.y)
            fh.write("}\n")
