"""Numerical certificates for the inequalities behind the iteration.

Every check produces an :class:`InequalityCheck` with explicit left and
right sides, the signed slack ``rhs - lhs``, and a satisfied flag defined
as ``slack >= -tolerance``.  Identities are encoded as a check of
``|lhs - rhs|`` against zero so the same satisfied/slack convention
applies everywhere.  A singular check, one pair at one power, is
evaluated on the pair's images, or on the pair itself; it is the
reference.  The plural checks, a block of pairs at many powers, read the
block's gaps and each pair's own distance from one call of
``Mapping.gaps``, never its images, and return :class:`CheckColumn`
objects: sides and slacks as 2-D arrays, pairs by powers, each formed in
one array pass that makes the bits of the singular check, with a check
built only when asked for.  A :class:`Tally` folds the columns of each block into a
certificate's report, the report that folding the pairs one at a time
would make.

The module covers four layers:

* a per-pair growth certificate for the gradual relaxation inequality;
* the exact iterate-difference identity of the shift-and-root operator
  and the square-root gap chain that dominates it;
* constructive counterexamples: a witness pair showing the shift-and-root
  operator is not asymptotically nonexpansive in the classical
  multiplicative sense, and an antipodal pair showing that weighted
  midpoint norms can converge without the pair collapsing;
* trajectory-level recursion bounds a_{n+1} <= (1 + b_n) a_n + c_n with
  summable b_n, c_n composed from the two stage bounds of the scheme,
  checked record by record against an actual run.

These checks are evidence, not proofs: they evaluate finitely many points
of statements quantified over infinitely many.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import NotAFixedPoint
from .mappings import (
    Mapping,
    TotalAsymptoticProfile,
    check_factor,
    check_power,
    iterate_difference_factor,
    make_s,
    nth_power,
    power_t_alpha,
)
from .scheme import IterationConfig, Trace
from .space import (
    L1Vector,
    PairBlock,
    ProductPoint,
    check_int,
    check_positive,
    distance,
    l1_distance,
    product_norm,
)

# Default slack tolerances.
CHECK_TOL = 1e-12
RUN_BOUND_TOL = 1e-10
FIXED_POINT_TOL = 1e-12


@dataclass(frozen=True)
class InequalityCheck:
    """One verified inequality: satisfied iff slack = rhs - lhs >= -tolerance."""

    lhs: float
    rhs: float
    tolerance: float
    context: dict
    slack: float = field(init=False)
    satisfied: bool = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "slack", self.rhs - self.lhs)
        object.__setattr__(self, "satisfied", self.slack >= -self.tolerance)

    def to_json(self) -> dict:
        """The five fields, then the context keys that do not shadow one."""
        out = {k: getattr(self, k) for k in ("lhs", "rhs", "slack", "satisfied", "tolerance")}
        out.update((k, v) for k, v in sorted(self.context.items()) if k not in out)
        return out


@dataclass(frozen=True)
class CheckColumn:
    """Checks of one equation over a block of pairs at several powers, held
    as 2-D columns: row r is the r-th pair, column j the j-th power.

    The check at ``(r, j)`` has the sides ``lhs[r, j]`` and ``rhs[r, j]``
    and the context ``context`` plus the value at (r, j) of each entry of
    ``per_check``, an array that broadcasts to the shape of ``lhs``, such
    as the powers.  ``slacks`` holds rhs - lhs, the slack of each check, so
    that a report can fold the column before building any check;
    :meth:`check` builds one.
    """

    lhs: np.ndarray
    rhs: np.ndarray
    tolerance: float
    context: dict
    per_check: dict = field(default_factory=dict)
    slacks: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        lhs, rhs = np.asarray(self.lhs, dtype=np.float64), np.asarray(self.rhs, dtype=np.float64)
        slacks = rhs - lhs
        per_check = {k: np.broadcast_to(v, slacks.shape) for k, v in self.per_check.items()}
        fields = {"lhs": lhs, "rhs": rhs, "per_check": per_check, "slacks": slacks}
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def check(self, at: tuple[int, int]) -> InequalityCheck:
        context = dict(self.context, **{k: v.item(at) for k, v in self.per_check.items()})
        return InequalityCheck(self.lhs.item(at), self.rhs.item(at), self.tolerance, context)


class Tally:
    """Folds the check columns of blocks of pairs into a certificate's
    report: per equation, the count, the least slack and whether all held;
    per (``map``, equation), the first check of strictly least slack; and a
    row, a check's JSON with ``map`` and ``sample``, for each check of a
    failing pair, or for every check under ``keep_all``, pair by pair and
    power-major.  The report is the one that adding the pairs one at a time,
    in order, would make; a check is built only for a row or a new worst."""

    def __init__(self, keep_all: bool = False) -> None:
        self.keep_all = keep_all
        self.by_equation: dict[str, dict] = {}
        self.worst: dict[tuple[str, str], dict] = {}
        self.failures: list[dict] = []
        self.checks: list[dict] = []

    def add(self, columns: Sequence[CheckColumn], map: str, samples: Sequence[int]) -> None:
        """Fold the columns of one block of pairs, all over the same pairs
        and powers; row r of each column is the pair ``samples[r]`` of the
        mapping named ``map``."""
        failing = np.zeros(len(samples), dtype=bool)
        for column in columns:
            slacks, eq = column.slacks, column.context["equation"]
            values = slacks.ravel().tolist()  # pair by pair, power by power
            new = {"checks": 0, "min_slack": math.inf, "satisfied": True}
            agg = self.by_equation.setdefault(eq, new)
            agg["checks"] += len(values)
            agg["min_slack"] = min(agg["min_slack"], *values)
            with np.errstate(invalid="ignore"):
                held = (slacks >= -column.tolerance).all(axis=1)
            agg["satisfied"] = agg["satisfied"] and bool(held.all())
            failing |= ~held
            # seeded with the worst slack so far, min returns that seed
            # unless a slack lies strictly below it, NaN or not
            kept = self.worst.get((map, eq))
            low = min(values) if kept is None else min(kept["slack"], *values)
            if kept is None or low < kept["slack"]:
                r, j = divmod(values.index(low), slacks.shape[1])
                check = column.check((r, j))
                self.worst[map, eq] = dict(check.to_json(), map=map, sample=samples[r])
        rows = range(len(samples)) if self.keep_all else np.flatnonzero(failing).tolist()
        for r in rows:
            for j in range(columns[0].slacks.shape[1]):
                for column in columns:
                    check = column.check((r, j))
                    out = dict(check.to_json(), map=map, sample=samples[r])
                    if not check.satisfied:
                        self.failures.append(out)
                    if self.keep_all:
                        self.checks.append(out)

    def report(self) -> dict:
        """The summary, worst and failures entries, and checks under keep_all."""
        total = sum(agg["checks"] for agg in self.by_equation.values())
        failed = len(self.failures)
        summary = {"total_checks": total, "failed": failed, "all_satisfied": not failed,
                   "by_equation": self.by_equation}
        out = {
            "summary": summary,
            "worst": [self.worst[k] for k in sorted(self.worst)],
            "failures": self.failures,
        }
        return dict(out, checks=self.checks) if self.keep_all else out


# ---------------------------------------------------------------------------
# per-pair growth certificates
# ---------------------------------------------------------------------------


def check_total_inequality(
    t_map: Mapping,
    i_map: Mapping | None,
    profile: TotalAsymptoticProfile,
    x: ProductPoint,
    y: ProductPoint,
    n: int,
) -> InequalityCheck:
    """Certify the gradual relaxation inequality at one pair and power:

        ||T^n x - T^n y|| <= d + mu_n * phi(d) + lam_n,
        d = ||I^n x - I^n y||

    with I the identity when ``i_map`` is None.  It is evaluated on the
    images, from :func:`nth_power`, so it is the reference that the gaps
    route of :func:`check_total_inequalities` matches bit for bit.
    """
    base_x, base_y = (x, y) if i_map is None else (nth_power(i_map, n, x), nth_power(i_map, n, y))
    d = distance(base_x, base_y)
    lhs = distance(nth_power(t_map, n, x), nth_power(t_map, n, y))
    rhs = d + profile.mu(n) * profile.phi(d) + profile.lam(n)
    context = {"equation": "gradual-relaxation", "map": t_map.name,
               "comparison": "identity" if i_map is None else i_map.name}
    return InequalityCheck(lhs, rhs, CHECK_TOL, dict(context, n=n, base_distance=d))


def check_total_inequalities(
    t_map: Mapping,
    i_map: Mapping | None,
    block: PairBlock,
    ns: Sequence[int],
    gaps: tuple[np.ndarray, np.ndarray, np.ndarray],
    mu: Sequence[float],
    lam: Sequence[float],
    phi: Callable[[float], float],
) -> CheckColumn:
    """:func:`check_total_inequality` for each pair (x, y) of the block at
    each of the nondecreasing powers ``ns``, given the pairs' gaps under
    ``t_map.gaps(ns)``, the three arrays it returns, and the profile's
    mu_n, lam_n at ``ns`` and its phi.  The left side is the sum of the
    scalar and vector gaps, as ``distance`` adds them; when I is the
    identity, the base distance is |x.s - y.s| plus the pair's own vector
    distance, the third array, and phi(d) is taken once per pair."""
    scalar, vector, own = gaps
    if i_map is None:  # distance(x, y) of each pair, one column for every power
        base = (np.abs(block.scalars[0] - block.scalars[1]) + own)[:, None]
    else:
        base = np.add(*i_map.gaps(ns)(block)[:2])
    phis = np.array([[phi(v) for v in row] for row in base.tolist()]).reshape(base.shape)
    return CheckColumn(
        scalar + vector,
        base + np.asarray(mu) * phis + np.asarray(lam),
        CHECK_TOL,
        {
            "equation": "gradual-relaxation",
            "map": t_map.name,
            "comparison": i_map.name if i_map is not None else "identity",
        },
        {"n": np.asarray(ns), "base_distance": base},
    )


# ---------------------------------------------------------------------------
# exact identities of the shift-and-root operator
# ---------------------------------------------------------------------------


def check_iterate_difference_identity(
    alpha: float,
    k: int,
    x: L1Vector,
    y: L1Vector,
) -> InequalityCheck:
    """Certify the exact iterate-difference identity of T_a as an equality:

        ||T_a^k x - T_a^k y||_1 = a^k (||x - y||_1 + |rt(x_1) - rt(y_1)| - |x_1 - y_1|)

    with rt(s) = sqrt(|s|).  Encoded as |direct - formula| <= CHECK_TOL.
    ``direct`` is taken from the images, so this is the reference that
    the identity column of :func:`check_shift_identities` matches bit for
    bit.

    :raises DomainViolation: x or y lies outside the unit ball.
    """
    direct = l1_distance(power_t_alpha(alpha, k, x), power_t_alpha(alpha, k, y))
    formula = alpha**k * iterate_difference_factor(x, y)
    context = {"equation": "iterate-difference-identity", "alpha": alpha}
    return InequalityCheck(
        abs(direct - formula), 0.0, CHECK_TOL, dict(context, n=k, direct=direct, formula=formula)
    )


def check_root_gap_chain(x: L1Vector, y: L1Vector) -> tuple[InequalityCheck, InequalityCheck]:
    """Certify the square-root gap chain used to dominate the identity:

        |rt(x_1) - rt(y_1)| <= sqrt(| |x_1| - |y_1| |) <= sqrt(||x - y||_1).

    The reference that :func:`check_shift_identities` matches bit for bit.
    """
    root_gap = abs(math.sqrt(abs(x.first)) - math.sqrt(abs(y.first)))
    mid = math.sqrt(abs(abs(x.first) - abs(y.first)))
    outer = math.sqrt(l1_distance(x, y))
    return (
        InequalityCheck(root_gap, mid, CHECK_TOL, {"equation": "root-gap-inner"}),
        InequalityCheck(mid, outer, CHECK_TOL, {"equation": "root-gap-outer"}),
    )


def check_shift_identities(
    alpha: float,
    ks: Sequence[int],
    block: PairBlock,
    direct: np.ndarray,
    dist: np.ndarray,
) -> tuple[CheckColumn, CheckColumn, CheckColumn]:
    """:func:`check_iterate_difference_identity` and :func:`check_root_gap_chain`
    for a checked a = ``alpha``, for each pair (x, y) of the block at each
    of the nondecreasing powers ``ks``, as three columns: the identity, then
    the chain's inner and outer sides.  ``direct`` and ``dist`` are the last
    two arrays of ``Mapping.gaps`` for the block under T_a.  The chain does
    not depend on k; each pair's chain checks repeat at every power, to sit
    beside the other columns of a certificate."""
    x1, y1 = block.rows[..., 0]  # column c holds index c, so column 0 is x_1, stored or not
    root_gap = np.abs(np.sqrt(np.abs(x1)) - np.sqrt(np.abs(y1)))
    formula = np.array([alpha**k for k in ks]) * (dist + root_gap - np.abs(x1 - y1))[:, None]
    mid = np.sqrt(np.abs(np.abs(x1) - np.abs(y1)))
    inner_side, mid_side, outer_side = (
        np.broadcast_to(v[:, None], direct.shape) for v in (root_gap, mid, np.sqrt(dist))
    )
    return (
        CheckColumn(
            np.abs(direct - formula),
            np.zeros(formula.shape),
            CHECK_TOL,
            {"equation": "iterate-difference-identity", "alpha": alpha},
            {"n": np.asarray(ks), "direct": direct, "formula": formula},
        ),
        CheckColumn(inner_side, mid_side, CHECK_TOL, {"equation": "root-gap-inner"}),
        CheckColumn(mid_side, outer_side, CHECK_TOL, {"equation": "root-gap-outer"}),
    )


# ---------------------------------------------------------------------------
# witness: gradual relaxation does not imply the multiplicative kind
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WitnessResult:
    """A pair separating additive from multiplicative relaxation.

    For X0 = (0, (x0, 0, ...)) and Y0 = (0, (x0/4, 0, ...)),

        ||S^k X0 - S^k Y0|| = a^k sqrt(x0) / 2,   ||X0 - Y0|| = 3 x0 / 4,

    so the ratio is 2 a^k / (3 sqrt(x0)), which exceeds 1 + lam_k exactly
    when x0 < 4 a^{2k} / (9 (1 + lam_k)^2).  No null sequence lam_k can
    dominate every pair multiplicatively, since x0 may be taken as small
    as desired.
    """

    alpha: float
    k: int
    lam_k: float
    x0: float
    upper_bound: float
    X0: ProductPoint
    Y0: ProductPoint
    separation: float
    image_separation: float
    ratio: float
    ratio_analytic: float
    threshold: float
    exceeds: bool


def witness_start(
    alpha: float, k: int, lam_k: float, x0: float | None = None
) -> tuple[float, float]:
    """The witness start x0, by default half its bound, and the bound
    4 a^{2k} / (9 (1 + lam_k)^2).

    :raises ValueError: alpha outside (0, 1), k not a positive integer,
        lam_k not positive, x0 not strictly inside (0, bound), or a bound
        that rounds to 0, which leaves no admissible x0.
    """
    check_factor(alpha)
    check_power(k)
    check_positive(lam_k, "slack lambda_k")
    try:
        bound = 4.0 * alpha ** (2 * k) / (9.0 * (1.0 + lam_k) ** 2)
    except OverflowError:  # a power past the float range: the bound is below every float
        bound = 0.0
    if not bound > 0.0:
        raise ValueError(
            f"the x0 bound 4 alpha^(2k) / (9 (1 + lambda_k)^2) rounds to 0 at"
            f" alpha={alpha!r}, k={k}, lambda_k={lam_k!r}"
        )
    if x0 is None:
        x0 = bound / 2.0
    if not 0.0 < x0 < bound:
        raise ValueError(f"x0 must lie in (0, {bound!r}), got {x0!r}")
    return x0, bound


def witness_non_asymptotic(
    alpha: float,
    k: int,
    lam_k: float,
    x0: float | None = None,
) -> WitnessResult:
    """Construct the witness pair for S at power k against slack lam_k.

    ``x0`` is as for :func:`witness_start`.  All norms are evaluated
    directly through the operator powers, with the analytic ratio
    alongside.
    """
    x0, bound = witness_start(alpha, k, lam_k, x0)
    big_x = ProductPoint(0.0, (x0,))
    big_y = ProductPoint(0.0, (x0 / 4.0,))
    separation = distance(big_x, big_y)
    s_map = make_s(alpha)
    image_separation = distance(nth_power(s_map, k, big_x), nth_power(s_map, k, big_y))
    ratio = image_separation / separation
    ratio_analytic = 2.0 * alpha**k / (3.0 * math.sqrt(x0))
    threshold = 1.0 + lam_k
    return WitnessResult(
        alpha=alpha,
        k=k,
        lam_k=lam_k,
        x0=x0,
        upper_bound=bound,
        X0=big_x,
        Y0=big_y,
        separation=separation,
        image_separation=image_separation,
        ratio=ratio,
        ratio_analytic=ratio_analytic,
        threshold=threshold,
        exceeds=ratio > threshold,
    )


# ---------------------------------------------------------------------------
# antipodal pair: midpoint norms converge, the pair does not collapse
# ---------------------------------------------------------------------------


def check_horizon(horizon: int) -> int:
    """:raises ValueError: the horizon is not a positive integer."""
    return check_int(horizon, 1, "horizon")


def antipodal_norm(x: ProductPoint) -> float:
    """The norm d of the antipodal construction's point x.

    :raises ValueError: x is the zero point, so no pair is constructed,
        or the pair's distance 2d overflows.
    """
    d = check_positive(product_norm(x), "the norm of x")
    if not math.isfinite(2.0 * d):
        raise ValueError(f"the norm of x must be finite when doubled, got {d!r}")
    return d


@dataclass(frozen=True)
class CounterexampleRow:
    n: int
    combined_norm: float
    difference_norm: float


def antipodal_pair_counterexample(
    x: ProductPoint, horizon: int
) -> list[CounterexampleRow]:
    """Rows of the antipodal-pair construction up to the horizon.

    With x_n = x, y_n = -x, and weights t_n = 1/n, the weighted point
    t_n x_n + (1 - t_n) y_n has norm ||x|| * |1 - 2/n|, which converges to
    d = ||x||, while ||x_n - y_n|| stays at 2d.  Norms are computed from
    actual vector arithmetic, not the closed form.
    """
    check_horizon(horizon)
    antipodal_norm(x)
    minus_x = x * -1.0
    rows: list[CounterexampleRow] = []
    for n in range(1, horizon + 1):
        t = 1.0 / n
        combined = x * t + minus_x * (1.0 - t)
        rows.append(
            CounterexampleRow(
                n=n,
                combined_norm=product_norm(combined),
                difference_norm=distance(x, minus_x),
            )
        )
    return rows


# ---------------------------------------------------------------------------
# trajectory recursion bounds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RecursionBound:
    """Coefficients of the distance recursion a_{n+1} <= (1+b_n) a_n + c_n.

    ``coeffs(n)`` computes the pair (b_n, c_n) in one pass over the
    family profiles; :meth:`b` and :meth:`c` each take one side of it.
    """

    coeffs: Callable[[int], tuple[float, float]]

    def b(self, n: int) -> float:
        return self.coeffs(n)[0]

    def c(self, n: int) -> float:
        return self.coeffs(n)[1]

    def partial_sums(self, horizon: int) -> tuple[float, float]:
        """(sum of b_n, sum of c_n) for n = 1..horizon, as a summability
        diagnostic for the recursion hypotheses."""
        pairs = [self.coeffs(n) for n in range(1, horizon + 1)]
        return math.fsum(b for b, _ in pairs), math.fsum(c for _, c in pairs)


def compute_recursion_bound(cfg: IterationConfig) -> RecursionBound:
    """Compose b_n and c_n from the two stage bounds of the scheme.

    Let p be a common fixed point and a_n = ||x_n - p||.  With the stage
    weights alpha_i, beta_i, the profiles (mu_in, lam_in, phi_i, M_i,
    M*_i) of T_i and (mu~_in, lam~_in, varphi_i, N_i, N*_i) of I_i, and
    phi(t) <= phi(M) + M* t,

        ||I_i^n z - p|| <= (1 + v_i) ||z - p|| + e_i,
        ||y_n - p||     <= (1 + B) a_n + C,
        ||T_i^n z - p|| <= (1 + u_i) ||I_i^n z - p|| + g_i,

    where v_i = mu~_in N*_i, e_i = mu~_in varphi_i(N_i) + lam~_in,
    B = sum_i beta_i v_i, C = sum_i beta_i e_i, u_i = mu_in M*_i and
    g_i = mu_in phi_i(M_i) + lam_in.  Composing them in the second stage,

        b_n = sum_i alpha_i (u_i + v_i + u_i v_i + B (1 + u_i)(1 + v_i)),
        c_n = sum_i alpha_i ((1 + u_i)((1 + v_i) C + e_i) + g_i),

    each summed term by term, so that terms below an ulp of 1 survive.
    The weights are the same at every step, so they are read once.

    :raises ValueError: the config has perturbation points, whose terms
        this bound does not carry.
    """
    if cfg.errors is not None:
        raise ValueError(
            "the recursion bound has no perturbation terms: "
            "a config with perturbation points u and v is not covered"
        )
    consts = []  # each member's profile with its phi(M) and M*, read once
    for mp in cfg.t_family + cfg.i_family:
        big_m, m_star = mp.profile.linear_bound
        consts.append((mp.profile, mp.profile.phi(big_m), m_star))
    m = len(cfg.t_family)
    aw, bw = cfg.alpha.weights[1 : m + 1], cfg.beta.weights[1 : m + 1]

    def coeffs(n: int) -> tuple[float, float]:
        stages = []  # each member's rate mu_n M* and terms mu_n phi(M), lam_n
        for profile, phi_m, m_star in consts:
            mu = profile.mu(n)
            stages.append((mu * m_star, (mu * phi_m, profile.lam(n))))
        big_b = math.fsum(b * v for b, (v, _) in zip(bw, stages[m:]))
        big_c = math.fsum(b * sum(es) for b, (_, es) in zip(bw, stages[m:]))
        b_terms, c_terms = [], []
        for a, (u, gs), (v, es) in zip(aw, stages[:m], stages[m:]):
            b_terms += [a * u, a * v, a * u * v, a * big_b * (1.0 + u) * (1.0 + v)]
            c_terms += [a * (1.0 + u) * ((1.0 + v) * big_c + sum(es))]
            c_terms += [a * g for g in gs]
        return math.fsum(b_terms), math.fsum(c_terms)

    return RecursionBound(coeffs=coeffs)


def check_run_bound(
    trace: Trace,
    p: ProductPoint,
    bound: RecursionBound,
) -> list[InequalityCheck]:
    """Check a_{n+1} <= (1 + b_n) a_n + c_n along an actual run, with
    a_n = ||x_n - p||.

    The reference point must be a common fixed point: it may move under
    each family member by at most ``FIXED_POINT_TOL``.

    :raises NotAFixedPoint: p moves under some family member.
    """
    cfg = trace.config
    for mp in cfg.t_family + cfg.i_family:
        drift = distance(nth_power(mp, 1, p), p)
        if drift > FIXED_POINT_TOL:
            raise NotAFixedPoint(
                f"reference point moves by {drift!r} under {mp.name or mp!r}"
            )
    states = [rec.x for rec in trace.records] + [trace.final]
    dists = [distance(s, p) for s in states]
    checks: list[InequalityCheck] = []
    for idx, rec in enumerate(trace.records):
        b_n, c_n = bound.coeffs(rec.n)
        checks.append(
            InequalityCheck(
                dists[idx + 1],
                (1.0 + b_n) * dists[idx] + c_n,
                RUN_BOUND_TOL,
                {
                    "equation": "distance-recursion",
                    "n": rec.n,
                    "a_n": dists[idx],
                    "b_n": b_n,
                    "c_n": c_n,
                },
            )
        )
    return checks
