"""Model operators on R x l1 and their asymptotic growth profiles.

The central building block is the shift-and-root operator on l1

    T_a(x_1, x_2, x_3, ...) = (0, a * sqrt(|x_1|), a * x_2, a * x_3, ...)

for a contraction factor ``a`` in (0, 1).  Its k-th power has the closed
form

    T_a^k(x) = (0, ..., 0, a^k * sqrt(|x_1|), a^k * x_2, ...)      (k zeros)

so iterate differences obey the exact identity

    ||T_a^k x - T_a^k y||_1
        = a^k * (||x - y||_1 + |sqrt(|x_1|) - sqrt(|y_1|)| - |x_1 - y_1|).

Because |sqrt(s) - sqrt(t)| <= sqrt(|s - t|), the difference of k-th
iterates is bounded by a^k * (d + sqrt(d)) with d = ||x - y||_1.  That is
a gradual, additive relaxation of nonexpansiveness, with per-power slack
mu_k * phi(d) for mu_k = a^k and phi(t) = t + sqrt(t); it is not the
classical multiplicative relaxation, and the verifier module constructs
explicit witness pairs separating the two notions.

The zoo also contains the product embedding S(x, v) = (x, T_a(v)) on
[0, 1] x B1, a scalar oscillator f_k(x) = k * x * sin(1/x) whose powers
contract only in an averaged, intermediate sense, and the combined map
S_f(x, v) = (f_k(x), T_a(v)) whose only fixed point is the origin.

A note on ball invariance: ||T_a(x)||_1 = a * (||x||_1 - |x_1| + sqrt(|x_1|)),
and the factor in parentheses reaches 5/4 at |x_1| = 1/4 on the unit ball,
so T_a maps B1 into itself exactly when a <= 4/5.  The closed power
formula and all iterate-difference identities hold on the whole space, so
certificates may use any a in (0, 1); self-mapped iteration schemes should
stay at or below 4/5.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainViolation
from .space import (
    AdmissibleSet,
    L1Vector,
    ProductPoint,
    check_int,
    in_set,
    json_number,
    l1_distance,
    l1_norm,
)

# Domain of the product maps S and S_f for the vector factor.
UNIT_DOMAIN = AdmissibleSet((0.0, 1.0), 1.0)

# Scalar interval of the oscillator f_k; sin(1/x) completes full periods here.
OSCILLATOR_HALF_WIDTH = 1.0 / math.pi
OSCILLATOR_DOMAIN = AdmissibleSet(
    (-OSCILLATOR_HALF_WIDTH, OSCILLATOR_HALF_WIDTH), 1.0
)

# Grid resolution used when a profile needs a defect estimate of f_k.
DEFECT_GRID_SIZE = 2001


@dataclass(frozen=True)
class TotalAsymptoticProfile:
    """Per-power growth data of a gradually relaxed nonexpansive map.

    The profile asserts, for every power n and admissible x, y,

        ||F^n x - F^n y|| <= ||G^n x - G^n y||
                             + mu(n) * phi(||G^n x - G^n y||) + lam(n)

    where G is the comparison map (the identity unless stated otherwise).
    ``mu`` and ``lam`` are nonnegative null sequences and ``phi`` is
    strictly increasing and continuous with phi(0) = 0.

    ``linear_bound`` holds a pair (M, M_star) with phi(t) <= M_star * t for
    t >= M, which yields the affine envelope phi(t) <= phi(M) + M_star * t
    for all t >= 0.  It may be ``None`` when no such pair is supplied, in
    which case bound computations that need it raise ``MissingConstants``.
    """

    mu: Callable[[int], float]
    lam: Callable[[int], float]
    phi: Callable[[float], float]
    linear_bound: tuple[float, float] | None = None


@dataclass(frozen=True)
class FixedSetDescriptor:
    """Description of a fixed-point set, for distance computations.

    kind "scalar_line": the segment {(t, 0) : t in [interval]}.
    kind "single_point": one point of R x l1.
    """

    kind: str
    interval: tuple[float, float] | None = None
    point: ProductPoint | None = None

    def __post_init__(self) -> None:
        if self.kind == "scalar_line":
            if self.interval is None:
                raise ValueError("scalar_line descriptor needs an interval")
            lo, hi = self.interval
            if not lo <= hi:
                raise ValueError(f"empty interval [{lo}, {hi}]")
            object.__setattr__(self, "interval", (float(lo), float(hi)))
        elif self.kind == "single_point":
            if self.point is None:
                raise ValueError("single_point descriptor needs a point")
        else:
            raise ValueError(f"unknown fixed-set kind {self.kind!r}")


@dataclass(frozen=True)
class Mapping:
    """A self-map of an admissible set, with its growth profile.

    ``apply`` evaluates one application.  ``closed_power``, when present,
    evaluates the k-th power directly and is preferred by ``nth_power``;
    for the operators in this module it is exact up to rounding and avoids
    compounding per-step error.
    """

    apply: Callable[[ProductPoint], ProductPoint]
    domain: AdmissibleSet
    profile: TotalAsymptoticProfile
    closed_power: Callable[[int, ProductPoint], ProductPoint] | None = None
    fixed_set: FixedSetDescriptor | None = None
    name: str = ""


# ---------------------------------------------------------------------------
# the shift-and-root operator T_a
# ---------------------------------------------------------------------------


def check_factor(alpha: float) -> float:
    """``alpha`` as a float if it lies in (0, 1); else ValueError."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"contraction factor must lie in (0, 1), got {alpha!r}")
    return float(alpha)


def check_power(k: int) -> int:
    """``k`` if it is a positive integer (never bool); else ValueError."""
    return check_int(k, 1, "power")


def check_grid_size(grid_size: int) -> int:
    """``grid_size`` if it is an integer of at least 2; else ValueError."""
    return check_int(grid_size, 2, "grid size")


def apply_t_alpha(alpha: float, v: L1Vector) -> L1Vector:
    """One application of T_a to a vector of the unit ball: the first
    power, since a**1 == a exactly.

    :raises DomainViolation: ``||v||_1 > 1``.
    """
    return power_t_alpha(alpha, 1, v)


def power_t_alpha(alpha: float, k: int, v: L1Vector) -> L1Vector:
    """The k-th power of T_a in closed form: k zeros, then a^k times
    (sqrt(|x_1|), x_2, x_3, ...).

    The k zeros are not stored: the entries of x_2, x_3, ... move k places
    right, so the cost is independent of k.

    :raises DomainViolation: ``||v||_1 > 1``.
    """
    alpha = check_factor(alpha)
    check_power(k)
    if l1_norm(v) > 1.0:
        raise DomainViolation(f"||v||_1 = {l1_norm(v)!r} exceeds the unit ball")
    ak = alpha**k
    head = ak * math.sqrt(abs(v.first))
    # x_1, stored first when it is not +0.0, gives way to the head at k.
    rest = 1 if v.indices[:1] == (0,) else 0
    return L1Vector.from_sparse(
        [k] + [i + k for i in v.indices[rest:]],
        [head] + [ak * c for c in v.values[rest:]],
        k + max(len(v), 1),
    )


def iterate_difference_formula(
    alpha: float, k: int, x: L1Vector, y: L1Vector
) -> float:
    """Right side of the exact iterate-difference identity:

        a^k * (||x - y||_1 + |sqrt(|x_1|) - sqrt(|y_1|)| - |x_1 - y_1|).
    """
    alpha = check_factor(alpha)
    ak = alpha**k
    root_gap = abs(math.sqrt(abs(x.first)) - math.sqrt(abs(y.first)))
    return ak * (l1_distance(x, y) + root_gap - abs(x.first - y.first))


# ---------------------------------------------------------------------------
# product embeddings and the scalar oscillator
# ---------------------------------------------------------------------------


def apply_s(alpha: float, p: ProductPoint) -> ProductPoint:
    """S(x, v) = (x, T_a(v)) on [0, 1] x B1.

    :raises DomainViolation: the point is outside [0, 1] x B1.
    """
    if not in_set(p, UNIT_DOMAIN):
        raise DomainViolation(f"{p!r} outside [0, 1] x B1")
    return ProductPoint(p.scalar, apply_t_alpha(alpha, p.vec))


def power_s(alpha: float, k: int, p: ProductPoint) -> ProductPoint:
    """S^k(x, v) = (x, T_a^k(v)), the scalar factor untouched by powers."""
    if not in_set(p, UNIT_DOMAIN):
        raise DomainViolation(f"{p!r} outside [0, 1] x B1")
    return ProductPoint(p.scalar, power_t_alpha(alpha, k, p.vec))


def apply_f_kappa(kappa: float, x: float) -> float:
    """The damped oscillator f_k(x) = k * x * sin(1/x), with f_k(0) = 0.

    Defined on [-1/pi, 1/pi].  Each application shrinks magnitude by at
    least the factor k, so |f_k^n(x)| <= k^n / pi, yet no single power is
    nonexpansive near the origin because the derivative is unbounded there.

    :raises DomainViolation: ``|x| > 1/pi``.
    """
    kappa = check_factor(kappa)
    if abs(x) > OSCILLATOR_HALF_WIDTH:
        raise DomainViolation(f"|{x!r}| exceeds 1/pi")
    if x == 0.0:
        return 0.0
    inv = 1.0 / x
    if math.isinf(inv):
        # subnormal x: 1/x overflows, but |f_k(x)| <= |x| < 1e-307 anyway
        return 0.0
    return kappa * x * math.sin(inv)


def apply_s_f(kappa: float, alpha: float, p: ProductPoint) -> ProductPoint:
    """S_f(x, v) = (f_k(x), T_a(v)) on [-1/pi, 1/pi] x B1.

    :raises DomainViolation: the point is outside the domain.
    """
    if not in_set(p, OSCILLATOR_DOMAIN):
        raise DomainViolation(f"{p!r} outside [-1/pi, 1/pi] x B1")
    return ProductPoint(
        apply_f_kappa(kappa, p.scalar), apply_t_alpha(alpha, p.vec)
    )


def power_s_f(kappa: float, alpha: float, k: int, p: ProductPoint) -> ProductPoint:
    """The k-th power of S_f: the scalar factor is iterated k times (no
    closed form exists for it), the vector factor uses the closed power."""
    if not in_set(p, OSCILLATOR_DOMAIN):
        raise DomainViolation(f"{p!r} outside [-1/pi, 1/pi] x B1")
    s = p.scalar
    for _ in range(k):
        s = apply_f_kappa(kappa, s)
    return ProductPoint(s, power_t_alpha(alpha, k, p.vec))


# ---------------------------------------------------------------------------
# powers and defect estimation
# ---------------------------------------------------------------------------


def nth_power(mapping: Mapping, k: int, p: ProductPoint) -> ProductPoint:
    """Evaluate the k-th power of a mapping at a domain point.

    Uses ``closed_power`` when the mapping provides one, otherwise applies
    the map k times.  The two routes agree within 1e-12 for the operators
    of this module; tests assert that agreement rather than assuming it.

    :raises DomainViolation: ``p`` is outside the mapping's domain.
    """
    check_power(k)
    if not in_set(p, mapping.domain):
        raise DomainViolation(f"{p!r} outside the domain of {mapping.name or mapping!r}")
    if mapping.closed_power is not None:
        return mapping.closed_power(k, p)
    out = p
    for _ in range(k):
        out = mapping.apply(out)
    return out


def estimate_intermediate_defect(
    f: Callable[[float], float],
    interval: tuple[float, float],
    n: int,
    grid_size: int,
) -> float:
    """Grid lower estimate of the n-th intermediate expansiveness defect.

    For a scalar map f on a closed interval the defect of the n-th power is

        sigma_n = max(0, sup_{x,y} (|f^n(x) - f^n(y)| - |x - y|)).

    The supremum is taken over all pairs of a uniform grid of ``grid_size``
    points, which bounds the true sigma_n from below.  It is an estimate,
    not a certificate: a finer grid can only raise it.

    No pair is formed.  The grid is sorted, so for i < j with u = f^n(x)

        |u_i - u_j| - |x_i - x_j| = max(P_i - P_j, Q_j - Q_i),

    where P = u + x and Q = u - x.  The supremum over pairs is then a
    running maximum of P and a running minimum of Q, O(grid_size) in time
    and memory; see :func:`estimate_intermediate_defects`.
    """
    return estimate_intermediate_defects(f, interval, [n], grid_size)[0]


def estimate_intermediate_defects(
    f: Callable[[float], float],
    interval: tuple[float, float],
    powers: Sequence[int],
    grid_size: int,
) -> list[float]:
    """Grid lower estimates of the defects of several powers of f.

    Returns one :func:`estimate_intermediate_defect` value per entry of
    ``powers``, in the given order, duplicates included.  The grid orbit
    is walked once, up to ``max(powers)``, with one call of ``f`` per
    point per pass: ``grid_size * max(powers)`` evaluations in all.
    """
    powers = [check_power(n) for n in powers]
    check_grid_size(grid_size)
    lo, hi = interval
    if not lo < hi:
        raise ValueError(f"degenerate interval [{lo}, {hi}]")
    xs = np.linspace(lo, hi, grid_size)
    wanted = set(powers)
    found: dict[int, float] = {}
    orbit = xs.tolist()
    for k in range(1, max(powers, default=0) + 1):
        orbit = [float(f(v)) for v in orbit]
        if k in wanted:
            found[k] = _sorted_grid_defect(xs, np.array(orbit))
    return [found[n] for n in powers]


def _sorted_grid_defect(xs: np.ndarray, u: np.ndarray) -> float:
    """max(0, max_{i<j} (|u_i - u_j| - (x_j - x_i))) for nondecreasing xs."""
    p = u + xs
    q = u - xs
    down = np.maximum.accumulate(p)[:-1] - p[1:]
    up = q[1:] - np.minimum.accumulate(q)[:-1]
    return max(0.0, float(down.max()), float(up.max()))


@functools.lru_cache(maxsize=None)
def oscillator_defect(kappa: float, n: int, grid_size: int = DEFECT_GRID_SIZE) -> float:
    """Cached defect estimate for f_k on its interval, with envelope check.

    The analytic ceiling |f_k^n(x) - f_k^n(y)| <= 2 * k^n / pi must
    dominate any grid estimate; a violation would mean the estimator is
    broken, so it raises rather than returning a bad profile term.
    """
    est = estimate_intermediate_defect(
        lambda x: apply_f_kappa(kappa, x),
        (-OSCILLATOR_HALF_WIDTH, OSCILLATOR_HALF_WIDTH),
        n,
        grid_size,
    )
    ceiling = 2.0 * kappa**n / math.pi
    if est > ceiling + 1e-12:
        raise ArithmeticError(
            f"defect estimate {est!r} exceeds analytic ceiling {ceiling!r}"
        )
    return est


def oscillator_defect_envelope(kappa: float, n: int) -> float:
    """The analytic ceiling 2 * k^n / pi on the n-th defect of f_k."""
    return 2.0 * kappa**n / math.pi


# ---------------------------------------------------------------------------
# profiles and constructors
# ---------------------------------------------------------------------------

# phi(t) = t + sqrt(t) satisfies phi(t) <= 2t for t >= 1, hence (M, M*) = (1, 2).
_ROOT_RELAXATION_BOUND = (1.0, 2.0)


def _root_relaxation_phi(t: float) -> float:
    return t + math.sqrt(t)


def shift_root_profile(alpha: float) -> TotalAsymptoticProfile:
    """Profile of T_a and its product embeddings: mu_n = a^n, lam_n = 0,
    phi(t) = t + sqrt(t)."""
    alpha = check_factor(alpha)
    return TotalAsymptoticProfile(
        mu=lambda n: alpha**n,
        lam=lambda n: 0.0,
        phi=_root_relaxation_phi,
        linear_bound=_ROOT_RELAXATION_BOUND,
    )


def identity_profile() -> TotalAsymptoticProfile:
    """Exact profile of the identity: mu = lam = 0, phi(t) = t."""
    return TotalAsymptoticProfile(
        mu=lambda n: 0.0,
        lam=lambda n: 0.0,
        phi=lambda t: t,
        linear_bound=(1.0, 1.0),
    )


def oscillator_product_profile(kappa: float, alpha: float) -> TotalAsymptoticProfile:
    """Profile of S_f: the vector factor contributes mu_n = a^n with
    phi(t) = t + sqrt(t); the scalar factor contributes the additive term
    lam_n set to the grid defect estimate of f_k^n."""
    kappa = check_factor(kappa)
    alpha = check_factor(alpha)
    return TotalAsymptoticProfile(
        mu=lambda n: alpha**n,
        lam=lambda n: oscillator_defect(kappa, n),
        phi=_root_relaxation_phi,
        linear_bound=_ROOT_RELAXATION_BOUND,
    )


def make_identity(domain: AdmissibleSet = UNIT_DOMAIN) -> Mapping:
    return Mapping(
        apply=lambda p: p,
        domain=domain,
        profile=identity_profile(),
        closed_power=lambda k, p: p,
        name="identity",
    )


def make_s(alpha: float) -> Mapping:
    """The product embedding S(x, v) = (x, T_a(v)) on [0, 1] x B1.

    Its fixed points are exactly the scalar segment {(x, 0) : x in [0, 1]}.
    """
    alpha = check_factor(alpha)
    return Mapping(
        apply=lambda p: apply_s(alpha, p),
        domain=UNIT_DOMAIN,
        profile=shift_root_profile(alpha),
        closed_power=lambda k, p: power_s(alpha, k, p),
        fixed_set=FixedSetDescriptor("scalar_line", interval=(0.0, 1.0)),
        name=f"s({alpha})",
    )


def make_s_f(kappa: float, alpha: float) -> Mapping:
    """S_f(x, v) = (f_k(x), T_a(v)) on [-1/pi, 1/pi] x B1.

    The origin is a fixed point; trajectories of the iteration scheme are
    observed to approach it, and the fixed-set descriptor records it as
    the reference point.
    """
    kappa = check_factor(kappa)
    alpha = check_factor(alpha)
    return Mapping(
        apply=lambda p: apply_s_f(kappa, alpha, p),
        domain=OSCILLATOR_DOMAIN,
        profile=oscillator_product_profile(kappa, alpha),
        closed_power=lambda k, p: power_s_f(kappa, alpha, k, p),
        fixed_set=FixedSetDescriptor("single_point", point=ProductPoint(0.0, ())),
        name=f"s_f({kappa},{alpha})",
    )


_KINDS: dict[str, Callable[..., Mapping]] = {
    "identity": lambda spec: make_identity(),
    # T_a on the vector factor is S under another name.
    "t_alpha": lambda spec: dataclasses.replace(
        make_s(a := _required(spec, "alpha")), name=f"t_alpha({a})"
    ),
    "s": lambda spec: make_s(_required(spec, "alpha")),
    "s_f": lambda spec: make_s_f(_required(spec, "kappa"), _required(spec, "alpha")),
}


def _required(spec: dict, key: str) -> float:
    if key not in spec:
        raise ValueError(f"mapping kind {spec.get('kind')!r} needs field {key!r}")
    return json_number(spec[key], key)


def mapping_from_json(spec: dict) -> Mapping:
    """Build a zoo mapping from ``{"kind": ..., "alpha": ..., "kappa": ...}``.

    Kinds: ``identity``, ``t_alpha``, ``s``, ``s_f``.

    :raises ValueError: unknown kind, or a parameter that is missing, not a
        finite JSON number, or out of range.
    """
    if not isinstance(spec, dict):
        raise ValueError(f"mapping spec must be an object, got {spec!r}")
    kind = spec.get("kind")
    if kind not in _KINDS:
        raise ValueError(
            f"unknown mapping kind {kind!r}; expected one of {sorted(_KINDS)}"
        )
    return _KINDS[kind](spec)
