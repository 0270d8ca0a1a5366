"""Numerical certificates for the inequalities behind the iteration.

Every check produces an :class:`InequalityCheck` with explicit left and
right sides, the signed slack ``rhs - lhs``, and a satisfied flag defined
as ``slack >= -tolerance``.  Identities are encoded as a check of
``|lhs - rhs|`` against zero so the same satisfied/slack convention
applies everywhere.

The module covers four layers:

* a per-pair growth certificate for the gradual relaxation inequality;
* the exact iterate-difference identity of the shift-and-root operator
  and the square-root gap chain that dominates it;
* constructive counterexamples: a witness pair showing the shift-and-root
  operator is not asymptotically nonexpansive in the classical
  multiplicative sense, and an antipodal pair showing that weighted
  midpoint norms can converge without the pair collapsing;
* trajectory-level recursion bounds a_{n+1} <= (1 + b_n) a_n + c_n with
  summable b_n, c_n assembled from the family profiles, checked record by
  record against an actual run.

These checks are evidence, not proofs: they evaluate finitely many points
of statements quantified over infinitely many.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import MissingConstants, NotAFixedPoint
from .mappings import (
    Mapping,
    TotalAsymptoticProfile,
    check_factor,
    check_power,
    iterate_difference_factor,
    make_s,
    nth_power,
    powers_t_alpha,
)
from .scheme import IterationConfig, Trace
from .space import (
    L1Vector,
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

# Compound weight sums inside the recursion coefficients are evaluated
# with independent summation indices.
INDEX_NOTE = (
    "compound weight sums in b_n are evaluated with independent inner and "
    "outer summation indices"
)


@dataclass(frozen=True)
class InequalityCheck:
    """One verified inequality: satisfied iff slack = rhs - lhs >= -tolerance."""

    lhs: float
    rhs: float
    slack: float
    satisfied: bool
    tolerance: float
    context: dict

    def to_json(self) -> dict:
        out = {
            "lhs": self.lhs,
            "rhs": self.rhs,
            "slack": self.slack,
            "satisfied": self.satisfied,
            "tolerance": self.tolerance,
        }
        out.update(
            {k: v for k, v in sorted(self.context.items()) if k not in out}
        )
        return out


def _check(lhs: float, rhs: float, tol: float, context: dict) -> InequalityCheck:
    slack = rhs - lhs
    return InequalityCheck(
        lhs=lhs,
        rhs=rhs,
        slack=slack,
        satisfied=slack >= -tol,
        tolerance=tol,
        context=context,
    )


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

    with I the identity when ``i_map`` is None.
    """
    return check_total_inequalities(t_map, i_map, profile, x, y, (n,))[0]


def check_total_inequalities(
    t_map: Mapping,
    i_map: Mapping | None,
    profile: TotalAsymptoticProfile,
    x: ProductPoint,
    y: ProductPoint,
    ns: Sequence[int],
) -> list[InequalityCheck]:
    """:func:`check_total_inequality` at each of the nondecreasing powers
    ``ns``, walking each orbit of x and y once."""
    tx, ty = t_map.powers(ns, x), t_map.powers(ns, y)
    if i_map is None:
        base = [distance(x, y)] * len(tx)
    else:
        base = list(map(distance, i_map.powers(ns, x), i_map.powers(ns, y)))
    comparison = i_map.name if i_map is not None else "identity"
    return [
        _check(
            distance(px, py),
            d + profile.mu(n) * profile.phi(d) + profile.lam(n),
            CHECK_TOL,
            {
                "equation": "gradual-relaxation",
                "n": n,
                "map": t_map.name,
                "comparison": comparison,
                "base_distance": d,
            },
        )
        for n, px, py, d in zip(ns, tx, ty, base)
    ]


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
    """
    return check_iterate_difference_identities(alpha, (k,), x, y)[0]


def check_iterate_difference_identities(
    alpha: float,
    ks: Sequence[int],
    x: L1Vector,
    y: L1Vector,
) -> list[InequalityCheck]:
    """:func:`check_iterate_difference_identity` at each of the
    nondecreasing powers ``ks``; the factor of a^k in the formula is
    computed once."""
    tx, ty = powers_t_alpha(alpha, ks, x), powers_t_alpha(alpha, ks, y)
    a, factor = check_factor(alpha), iterate_difference_factor(x, y)
    checks = []
    for k, xk, yk in zip(ks, tx, ty):
        direct = l1_distance(xk, yk)
        formula = a**k * factor
        checks.append(
            _check(
                abs(direct - formula),
                0.0,
                CHECK_TOL,
                {
                    "equation": "iterate-difference-identity",
                    "alpha": alpha,
                    "n": k,
                    "direct": direct,
                    "formula": formula,
                },
            )
        )
    return checks


def check_root_gap_chain(x: L1Vector, y: L1Vector) -> tuple[InequalityCheck, InequalityCheck]:
    """Certify the square-root gap chain used to dominate the identity:

        |rt(x_1) - rt(y_1)| <= sqrt(| |x_1| - |y_1| |) <= sqrt(||x - y||_1).
    """
    root_gap = abs(math.sqrt(abs(x.first)) - math.sqrt(abs(y.first)))
    mid = math.sqrt(abs(abs(x.first) - abs(y.first)))
    outer = math.sqrt(l1_distance(x, y))
    return (
        _check(root_gap, mid, CHECK_TOL, {"equation": "root-gap-inner"}),
        _check(mid, outer, CHECK_TOL, {"equation": "root-gap-outer"}),
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
    bound = 4.0 * alpha ** (2 * k) / (9.0 * (1.0 + lam_k) ** 2)
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
    notes: tuple[str, ...] = ()

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
    """Assemble b_n and c_n from the family profiles and weight schedules.

    Writing alpha_in, beta_in for the stage weights, (mu_in, lam_in,
    phi_i, M_i, M*_i) for the profile of T_i and (mu~_in, lam~_in,
    varphi_i, N_i, N*_i) for the profile of I_i, and

        B_n = sum_i mu~_in beta_in N*_i,

    the coefficients are

        b_n = sum_i (mu_in alpha_in M*_i + mu~_in alpha_in N*_i + alpha_in B_n)
              + sum_i mu_in mu~_in alpha_in M*_i N*_i
              + (sum_i mu_in alpha_in M*_i) B_n
              + (sum_i mu~_in alpha_in N*_i) B_n

        c_n = (sum_i (mu~_in beta_in varphi_i(N_i) + lam~_in beta_in))
                  * (sum_i alpha_in (1 + mu_in M*_i)(1 + mu~_in N*_i))
              + sum_i (mu~_in alpha_in (1 + mu_in M*_i) varphi_i(N_i)
                       + lam~_in alpha_in (1 + mu_in M*_i))
              + sum_i (mu_in alpha_in phi_i(M_i) + lam_in alpha_in).

    :raises MissingConstants: a family profile lacks its constants pair.
    """
    m = len(cfg.t_family)
    for mp in cfg.t_family + cfg.i_family:
        if mp.profile.linear_bound is None:
            raise MissingConstants(
                f"mapping {mp.name or mp!r} has no affine growth constants"
            )

    def coeffs(n: int) -> tuple[float, float]:
        aw = [cfg.alpha.values(i, n) for i in range(1, m + 1)]
        bw = [cfg.beta.values(i, n) for i in range(1, m + 1)]
        mu = [cfg.t_family[i].profile.mu(n) for i in range(m)]
        lam = [cfg.t_family[i].profile.lam(n) for i in range(m)]
        mut = [cfg.i_family[i].profile.mu(n) for i in range(m)]
        lamt = [cfg.i_family[i].profile.lam(n) for i in range(m)]
        m_star = [cfg.t_family[i].profile.linear_bound[1] for i in range(m)]
        phi_m = [
            cfg.t_family[i].profile.phi(cfg.t_family[i].profile.linear_bound[0])
            for i in range(m)
        ]
        n_star = [cfg.i_family[i].profile.linear_bound[1] for i in range(m)]
        varphi_n = [
            cfg.i_family[i].profile.phi(cfg.i_family[i].profile.linear_bound[0])
            for i in range(m)
        ]

        big_b = math.fsum(mut[i] * bw[i] * n_star[i] for i in range(m))
        sum_t = math.fsum(mu[i] * aw[i] * m_star[i] for i in range(m))
        sum_i = math.fsum(mut[i] * aw[i] * n_star[i] for i in range(m))
        b_n = (
            math.fsum(
                mu[i] * aw[i] * m_star[i]
                + mut[i] * aw[i] * n_star[i]
                + aw[i] * big_b
                for i in range(m)
            )
            + math.fsum(mu[i] * mut[i] * aw[i] * m_star[i] * n_star[i] for i in range(m))
            + sum_t * big_b
            + sum_i * big_b
        )

        c_n = (
            math.fsum(mut[i] * bw[i] * varphi_n[i] + lamt[i] * bw[i] for i in range(m))
            * math.fsum(
                aw[i] * (1.0 + mu[i] * m_star[i]) * (1.0 + mut[i] * n_star[i])
                for i in range(m)
            )
            + math.fsum(
                mut[i] * aw[i] * (1.0 + mu[i] * m_star[i]) * varphi_n[i]
                + lamt[i] * aw[i] * (1.0 + mu[i] * m_star[i])
                for i in range(m)
            )
            + math.fsum(mu[i] * aw[i] * phi_m[i] + lam[i] * aw[i] for i in range(m))
        )
        return b_n, c_n

    return RecursionBound(coeffs=coeffs, notes=(INDEX_NOTE,))


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
            _check(
                dists[idx + 1],
                (1.0 + b_n) * dists[idx] + c_n,
                RUN_BOUND_TOL,
                {
                    "equation": "distance-recursion",
                    "n": rec.n,
                    "a_n": dists[idx],
                    "b_n": b_n,
                    "c_n": c_n,
                    "notes": list(bound.notes),
                },
            )
        )
    return checks
