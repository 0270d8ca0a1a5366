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

A mapping has one route to its powers, ``Mapping.powers(ks, p)``, which
returns the images at several nondecreasing powers.  It checks the powers
and the point once, then walks each orbit once: the vector factor takes
the closed form a^k at each k, the scalar oscillator advances from one
requested power to the next.  :func:`nth_power` is its one-power case.

The oscillator's grid defect has one route too, :func:`oscillator_defect`:
one cached grid orbit per (kappa, grid size) serves the profile term lam_n
and the CLI's defect table alike, each estimate held to its ceiling.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

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

# Rounding slack allowed above the analytic ceiling of a defect estimate.
ENVELOPE_TOL = 1e-12


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

    :meth:`powers` is the one route to its powers.  ``kernel(ks, p)``
    returns the images of p at the checked, nondecreasing powers ``ks``
    and trusts its input; each kernel of this module walks p's orbit once
    and takes the closed form of T_a^k for the vector factor, exact up to
    rounding, so no per-step error compounds.
    """

    kernel: Callable[[Sequence[int], ProductPoint], list[ProductPoint]]
    domain: AdmissibleSet
    profile: TotalAsymptoticProfile
    fixed_set: FixedSetDescriptor | None = None
    name: str = ""

    def powers(self, ks: Sequence[int], p: ProductPoint) -> list[ProductPoint]:
        """The images of p at the powers ``ks``, in order.

        :raises ValueError: a power is not a positive integer, or the
            powers decrease.
        :raises DomainViolation: ``p`` is outside the domain.
        """
        ks = check_powers(ks)
        if not in_set(p, self.domain):
            raise DomainViolation(f"{p!r} outside the domain of {self.name or self!r}")
        return self.kernel(ks, p)


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


def check_powers(ks: Sequence[int]) -> list[int]:
    """``ks`` as a list if it holds positive integers (never bool) in
    nondecreasing order; else ValueError."""
    ks = [check_power(k) for k in ks]
    if any(a > b for a, b in zip(ks, ks[1:])):
        raise ValueError(f"powers must be nondecreasing, got {ks!r}")
    return ks


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

    :raises DomainViolation: ``||v||_1 > 1``.
    """
    return powers_t_alpha(alpha, (k,), v)[0]


def powers_t_alpha(alpha: float, ks: Sequence[int], v: L1Vector) -> list[L1Vector]:
    """:func:`power_t_alpha` at each of the nondecreasing powers ``ks``,
    with the factor, the powers and the ball checked once.

    :raises DomainViolation: ``||v||_1 > 1``, or it is NaN.
    """
    alpha = check_factor(alpha)
    ks = check_powers(ks)
    if not l1_norm(v) <= 1.0:
        raise DomainViolation(f"||v||_1 = {l1_norm(v)!r} exceeds the unit ball")
    return _shift_powers(alpha, ks, v)


def _shift_powers(alpha: float, ks: Sequence[int], v: L1Vector) -> list[L1Vector]:
    """T_a^k(v) for each k of ``ks``, trusting a checked alpha and ks.

    The k zeros are not stored: the entries of x_2, x_3, ... move k places
    right, so the cost is independent of k.  Each power takes a^k = a**k
    afresh; a product a * a^(k-1) rounds differently.
    """
    root = math.sqrt(abs(v.first))
    # x_1, stored first when it is not +0.0, gives way to the head at k.
    rest = 1 if v.indices[:1] == (0,) else 0
    indices, values = v.indices[rest:], v.values[rest:]
    length = max(len(v), 1)
    out = []
    for k in ks:
        ak = alpha**k
        out.append(
            L1Vector.from_sparse(
                [k] + [i + k for i in indices],
                [ak * root] + [ak * c for c in values],
                k + length,
            )
        )
    return out


def iterate_difference_factor(x: L1Vector, y: L1Vector) -> float:
    """The factor of a^k in the exact iterate-difference identity, the same
    at every power k:

        ||T_a^k x - T_a^k y||_1
            = a^k * (||x - y||_1 + |sqrt(|x_1|) - sqrt(|y_1|)| - |x_1 - y_1|).
    """
    root_gap = abs(math.sqrt(abs(x.first)) - math.sqrt(abs(y.first)))
    return l1_distance(x, y) + root_gap - abs(x.first - y.first)


# ---------------------------------------------------------------------------
# product embeddings and the scalar oscillator
# ---------------------------------------------------------------------------


def apply_f_kappa(kappa: float, x: float) -> float:
    """The damped oscillator f_k(x) = k * x * sin(1/x), with f_k(0) = 0.

    Defined on [-1/pi, 1/pi].  Each application shrinks magnitude by at
    least the factor k, so |f_k^n(x)| <= k^n / pi, yet no single power is
    nonexpansive near the origin because the derivative is unbounded there.

    :raises DomainViolation: ``|x| > 1/pi``, or x is NaN.
    """
    kappa = check_factor(kappa)
    if not abs(x) <= OSCILLATOR_HALF_WIDTH:
        raise DomainViolation(f"|{x!r}| exceeds 1/pi")
    if x == 0.0:
        return 0.0
    inv = 1.0 / x
    if math.isinf(inv):
        # subnormal x: 1/x overflows, but |f_k(x)| <= |x| < 1e-307 anyway
        return 0.0
    return kappa * x * math.sin(inv)


def _s_f_powers(
    kappa: float, alpha: float, ks: Sequence[int], p: ProductPoint
) -> list[ProductPoint]:
    """S_f^k(p) for each k of ``ks``: one scalar orbit, advanced from each
    power to the next, so ``max(ks)`` applications of f_k in all."""
    s, done = p.scalar, 0
    scalars = []
    for k in ks:
        for _ in range(k - done):
            s = apply_f_kappa(kappa, s)
        done = k
        scalars.append(s)
    return list(map(ProductPoint, scalars, _shift_powers(alpha, ks, p.vec)))


# ---------------------------------------------------------------------------
# powers and defect estimation
# ---------------------------------------------------------------------------


def nth_power(mapping: Mapping, k: int, p: ProductPoint) -> ProductPoint:
    """The k-th power of a mapping at a domain point: ``mapping.powers((k,), p)``.

    For the maps of this module it agrees with k applications of the
    first power: the scalar factor bit for bit, the vector factor within
    1e-12.

    :raises DomainViolation: ``p`` is outside the mapping's domain.
    """
    return mapping.powers((k,), p)[0]


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
    and memory, with one call of ``f`` per point per power:
    ``grid_size * n`` evaluations in all.
    """
    n = check_power(n)
    return next(itertools.islice(_grid_defects(f, interval, grid_size), n - 1, None))


def _grid_defects(
    f: Callable[[float], float], interval: tuple[float, float], grid_size: int
) -> Iterator[float]:
    """The grid defects of f^1, f^2, ..., one orbit pass per power, with
    the grid checked now and the orbit walked only as far as it is read."""
    check_grid_size(grid_size)
    lo, hi = interval
    if not lo < hi:
        raise ValueError(f"degenerate interval [{lo}, {hi}]")
    xs = np.linspace(lo, hi, grid_size)

    def walk() -> Iterator[float]:
        orbit = xs.tolist()
        while True:
            orbit = [float(f(v)) for v in orbit]
            yield _sorted_grid_defect(xs, np.array(orbit))

    return walk()


def _sorted_grid_defect(xs: np.ndarray, u: np.ndarray) -> float:
    """max(0, max_{i<j} (|u_i - u_j| - (x_j - x_i))) for nondecreasing xs."""
    p = u + xs
    q = u - xs
    down = np.maximum.accumulate(p)[:-1] - p[1:]
    up = q[1:] - np.minimum.accumulate(q)[:-1]
    return max(0.0, float(down.max()), float(up.max()))


# typed, so that n = True misses the entry of n = 1 and is rejected
@functools.lru_cache(maxsize=None, typed=True)
def oscillator_defect(kappa: float, n: int, grid_size: int = DEFECT_GRID_SIZE) -> float:
    """Cached defect estimate for f_k on its interval, with envelope check.

    The value is :func:`estimate_intermediate_defect`'s, bit for bit, but
    one grid orbit per (kappa, grid_size) serves every n: a miss extends
    it from the highest power reached so far, so the powers 1..N cost
    ``grid_size * N`` calls of f_k in all, in any order of request.

    The analytic ceiling :func:`oscillator_defect_envelope` must dominate
    any grid estimate, up to ``ENVELOPE_TOL``; a violation would mean the
    estimator is broken, so it raises rather than returning a bad term.
    """
    kappa = check_factor(kappa)
    check_power(n)
    defects, walk = _oscillator_walk(kappa, grid_size)
    while len(defects) < n:
        defects.append(next(walk))
    est = defects[n - 1]
    ceiling = oscillator_defect_envelope(kappa, n)
    if not est <= ceiling + ENVELOPE_TOL:
        raise ArithmeticError(
            f"defect estimate {est!r} exceeds analytic ceiling {ceiling!r}"
        )
    return est


@functools.lru_cache(maxsize=None, typed=True)
def _oscillator_walk(
    kappa: float, grid_size: int
) -> tuple[list[float], Iterator[float]]:
    """The defects of f_k found so far, for the powers 1, 2, ..., and the
    grid walk that yields the next one; one pair per (kappa, grid_size)."""
    interval = (-OSCILLATOR_HALF_WIDTH, OSCILLATOR_HALF_WIDTH)
    return [], _grid_defects(lambda x: apply_f_kappa(kappa, x), interval, grid_size)


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
        kernel=lambda ks, p: [p] * len(ks),
        domain=domain,
        profile=identity_profile(),
        name="identity",
    )


def make_s(alpha: float) -> Mapping:
    """The product embedding S(x, v) = (x, T_a(v)) on [0, 1] x B1.

    Its fixed points are exactly the scalar segment {(x, 0) : x in [0, 1]}.
    """
    alpha = check_factor(alpha)
    return Mapping(
        kernel=lambda ks, p: [
            ProductPoint(p.scalar, v) for v in _shift_powers(alpha, ks, p.vec)
        ],
        domain=UNIT_DOMAIN,
        profile=shift_root_profile(alpha),
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
        kernel=lambda ks, p: _s_f_powers(kappa, alpha, ks, p),
        domain=OSCILLATOR_DOMAIN,
        profile=oscillator_product_profile(kappa, alpha),
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
    if not isinstance(kind, str) or kind not in _KINDS:
        raise ValueError(
            f"unknown mapping kind {kind!r}; expected one of {sorted(_KINDS)}"
        )
    return _KINDS[kind](spec)
