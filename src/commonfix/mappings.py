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

A mapping has one route to an image, :func:`nth_power`, which applies
one power to one point, and one route to the distances between orbits,
``Mapping.gaps(ks)(block)``, which gives the scalar and the vector gap
of each pair (x_r, y_r) of a :class:`~commonfix.space.PairBlock` at each
power, and the pair's own distance ||x - y||_1, without building an
image.  Both take the closed form a^k for the vector factor and walk the
scalar oscillator's orbit.  An image takes one point through f_k a step
at a time; the gaps check the powers once, advance the orbits of all the
pairs together, as one array, from one requested power to the next, and
take the vector gaps of all the pairs in one array pass over the block's
rows [sqrt(|x_1|), x_2, ...].
That pass adds, row by row and in index order, the very terms that
``l1_distance`` adds for :func:`nth_power`'s images, so each gap has the
bits of the image route.

The array step of f_k, ``_f_step``, is the scalar step applied entry by
entry, bit for bit: it takes sin(1/x) from ``math.sin`` for each entry,
never from numpy, whose sine may round otherwise.

The oscillator's grid defects have one route too, :func:`oscillator_defects`:
one walk of the grid's orbit by :func:`_orbit`, the walker of the gaps' orbits
too, serves every power of a defect table, each held to its ceiling.  The grid
gives a lower estimate, so the profile of S_f takes its lam_n from the
ceiling, :func:`oscillator_defect_envelope`, instead.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import DomainViolation
from .space import (
    AdmissibleSet,
    L1Vector,
    PairBlock,
    ProductPoint,
    _left_sum,
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

# Grid resolution of a defect estimate of f_k when none is given.
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
    for all t >= 0; the recursion bound of the scheme needs it.
    """

    mu: Callable[[int], float]
    lam: Callable[[int], float]
    phi: Callable[[float], float]
    linear_bound: tuple[float, float]


@dataclass(frozen=True)
class FixedSetDescriptor:
    """Description of a fixed-point set, for distance computations.

    kind "scalar_line": the segment {(t, 0) : t in [interval]}.
    kind "single_point": one point of R x l1.

    Past validation, :meth:`nearest` is the one place that tells them apart.
    """

    kind: str
    interval: tuple[float, float] | None = None
    point: ProductPoint | None = None

    def __post_init__(self) -> None:
        if self.kind == "scalar_line":
            if self.interval is None or len(self.interval) != 2:
                raise ValueError(f"scalar_line needs an interval [lo, hi], got {self.interval}")
            lo, hi = self.interval
            if not lo <= hi:
                raise ValueError(f"empty interval [{lo}, {hi}]")
            object.__setattr__(self, "interval", (float(lo), float(hi)))
        elif self.kind == "single_point":
            if self.point is None:
                raise ValueError("single_point descriptor needs a point")
        else:
            raise ValueError(f"unknown fixed-set kind {self.kind!r}")

    def nearest(self, p: ProductPoint) -> ProductPoint:
        """The point of the set nearest to p in the product norm: on a
        segment, (p's scalar clamped to the interval, 0); else the point."""
        if self.kind == "scalar_line":
            lo, hi = self.interval  # type: ignore[misc]
            return ProductPoint(min(max(p.scalar, lo), hi))
        return self.point  # type: ignore[return-value]


@dataclass(frozen=True)
class Mapping:
    """A self-map of an admissible set that acts factor by factor, with its
    growth profile.

    The scalar factor is f_kappa, or fixed when ``kappa`` is None; the
    vector factor is T_a for a = ``alpha``, or fixed when ``alpha`` is
    None.  :func:`nth_power` is the one route to its images and
    :meth:`gaps` the one route to the distances between orbits.  Both
    take the closed form of T_a^k for the vector factor, exact up to
    rounding, so no per-step error compounds.
    """

    domain: AdmissibleSet
    profile: TotalAsymptoticProfile
    kappa: float | None = None
    alpha: float | None = None
    fixed_set: FixedSetDescriptor | None = None
    name: str = ""

    def _check_point(self, p: ProductPoint) -> None:
        if not in_set(p, self.domain):
            raise DomainViolation(f"{p!r} outside the domain of {self.name or self!r}")

    def gaps(
        self, ks: Sequence[int]
    ) -> Callable[[PairBlock], tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """The gaps of pairs of orbits at the powers ``ks``, without their images.

        Returns a function of a :class:`PairBlock` that gives two arrays of
        shape (pairs, powers): at [r, j], the scalar gap |F^k x - F^k y| and
        the vector gap ||F^k x - F^k y||_1 of the block's pair (x, y) = r at
        k = ks[j], the two terms that ``distance`` adds for
        :func:`nth_power`'s images, bit for bit; and a third array, each
        pair's own ``l1_distance(x.vec, y.vec)``, bit for bit.  The powers
        are checked, and a^k taken, once, here.  A call checks every point
        and takes all the vector distances from the block's rows, which it
        leaves as they are, and advances each side's scalar orbits together.
        A row's left fold of abs is its vector's ``l1_norm``, bit for bit
        (the padding adds abs(+0.0)), so a point passes exactly when
        ``in_set`` holds.

        :raises ValueError: no powers, a power is not a positive integer,
            or the powers decrease.
        :raises DomainViolation: (when called) a point is outside the
            domain; it names the first such point of the x's, then the y's.
        """
        ks = check_powers(ks)
        aks = None if self.alpha is None else [self.alpha**k for k in ks]
        (lo, hi), radius = self.domain.scalar_interval, self.domain.ball_radius

        def gaps(block: PairBlock) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
            rows_x, rows_y = block.rows
            scalars = block.scalars.ravel()
            with np.errstate(invalid="ignore", over="ignore"):
                norms = _left_sum(np.abs(block.rows)).ravel()
                inside = (lo <= scalars) & (scalars <= hi) & (norms <= radius)
                if not inside.all():  # raise for the first point outside
                    side, r = divmod(int(np.argmin(inside)), len(block))
                    self._check_point(block.pairs()[r][side])
                own = _left_sum(np.abs(rows_x - rows_y))
                if aks is None:
                    vector = np.repeat(own[:, None], len(ks), axis=1)
                else:
                    vector = _shift_gaps(aks, block.rows)
            if self.kappa is None:
                scalars = np.repeat(scalars[:, None], len(ks), axis=1)
            else:
                step = functools.partial(_f_step, self.kappa)
                scalars = np.stack(list(_orbit(step, ks, scalars)), axis=1)
            return np.abs(scalars[: len(block)] - scalars[len(block) :]), vector, own

        return gaps


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
    """``ks`` as a list if it holds at least one positive integer (never
    bool), in nondecreasing order; else ValueError."""
    ks = [check_power(k) for k in ks]
    if not ks:
        raise ValueError("no powers given")
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

    :raises DomainViolation: ``||v||_1 > 1``, or it is NaN.
    """
    alpha, k = check_factor(alpha), check_power(k)
    if not l1_norm(v) <= 1.0:
        raise DomainViolation(f"||v||_1 = {l1_norm(v)!r} exceeds the unit ball")
    return _shift_power(alpha, k, v)


def _shift_power(alpha: float, k: int, v: L1Vector) -> L1Vector:
    """T_a^k(v), trusting a checked alpha and k.

    Every stored index moves k places right, so a stored x_1 lands at
    position k, where it gives way to the head sqrt(|x_1|).  The k zeros
    are not stored, so the cost is independent of k.  a^k is alpha**k, a
    Python float power; a product a * a^(k-1) rounds differently.
    """
    ak = alpha**k
    values = ak * v.val
    if len(v.idx) and v.idx[0] == 0:
        values[0] = ak * math.sqrt(abs(v.first))
    return L1Vector.from_sparse(v.idx + k, values, k + max(len(v), 1))


def _shift_gaps(aks: Sequence[float], rows: np.ndarray) -> np.ndarray:
    """||T_a^k x - T_a^k y||_1 for each pair of rows (rows[0, r], rows[1, r])
    of a :class:`PairBlock` and each a^k of ``aks``, as an array of shape
    (pairs, powers), bit for bit the ``l1_distance`` of
    :func:`_shift_power`'s images, in one array pass.  Column 0 of the
    rows, x_1, gives way to its head sqrt(|x_1|) in a new array; ``rows``
    is left as it is.

    Shifting both images by k keeps their entries aligned, so each gap is
    the sum, in index order, of abs(a^k cx - a^k cy) over the pair's
    [sqrt(|x_1|), x_2, x_3, ...], with 0.0 where one side stores nothing:
    the pair's rows, column c holding index c, with x_1 given way to its head.
    Those are the terms ``l1_distance`` of the images adds: a^k * 0.0 is +0.0,
    and an entry the image drops as +0.0, or the padding of a row, adds
    abs(+0.0), which leaves a running total that starts at +0.0 unchanged.
    """
    rows_x, rows_y = np.concatenate((np.sqrt(np.abs(rows[..., :1])), rows[..., 1:]), axis=-1)
    out = np.empty((rows.shape[1], len(aks)))
    with np.errstate(invalid="ignore", over="ignore"):
        for j, ak in enumerate(aks):
            out[:, j] = _left_sum(np.abs(ak * rows_x - ak * rows_y))
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

    :raises ValueError: ``kappa`` is not in (0, 1).
    :raises DomainViolation: ``|x| > 1/pi``, or x is NaN.
    """
    return _f_kappa(check_factor(kappa), x)


def _f_kappa(kappa: float, x: float) -> float:
    """f_k(x) for a checked kappa: the orbits check kappa once, and every
    point here, so a NaN or an escaped point still raises."""
    if not abs(x) <= OSCILLATOR_HALF_WIDTH:
        raise DomainViolation(f"|{x!r}| exceeds 1/pi")
    if x == 0.0:
        return 0.0
    inv = 1.0 / x
    if math.isinf(inv):
        # subnormal x: 1/x overflows, but |f_k(x)| <= |x| < 1e-307 anyway
        return 0.0
    return kappa * x * math.sin(inv)


def _f_step(kappa: float, xs: np.ndarray) -> np.ndarray:
    """f_k at each entry of ``xs`` for a checked kappa, bit for bit
    :func:`_f_kappa`'s: 1/x and kappa * x * sin(1/x) are formed in numpy,
    and sin(1/x) by ``math.sin`` for each entry, since numpy's sine need not
    round as the C library's does.  The domain is checked once for the
    whole array, so a NaN or an escaped entry still raises; an entry whose
    1/x is infinite, x = 0 or a subnormal x, maps to 0.0.
    """
    with np.errstate(invalid="ignore"):
        inside = np.abs(xs) <= OSCILLATOR_HALF_WIDTH
    if not inside.all():
        raise DomainViolation(f"|{xs[~inside][0].item()!r}| exceeds 1/pi")
    with np.errstate(divide="ignore", over="ignore"):
        inv = 1.0 / xs
    flat = np.isinf(inv)
    inv[flat] = 0.0
    out = kappa * xs * np.fromiter(map(math.sin, inv.tolist()), dtype=np.float64, count=len(inv))
    out[flat] = 0.0
    return out


def _orbit(
    step: Callable[[np.ndarray], np.ndarray], ks: Sequence[int], s: np.ndarray
) -> Iterator[np.ndarray]:
    """step^k(s) for each k of the nondecreasing ``ks``, in turn: the orbit
    advances from each power to the next, so ``max(ks)`` steps in all."""
    done = 0
    for k in ks:
        for _ in range(k - done):
            s = step(s)
        done = k
        yield s


# ---------------------------------------------------------------------------
# powers and defect estimation
# ---------------------------------------------------------------------------


def nth_power(mapping: Mapping, k: int, p: ProductPoint) -> ProductPoint:
    """The k-th power of a mapping at a domain point, the one route to an image.

    For the maps of this module it agrees with k applications of the
    first power: the scalar factor bit for bit, the vector factor within
    1e-12.

    :raises ValueError: ``k`` is not a positive integer.
    :raises DomainViolation: ``p`` is outside the mapping's domain.
    """
    k = check_power(k)
    mapping._check_point(p)
    if mapping.kappa is None and mapping.alpha is None:  # the identity gives p itself
        return p
    vec = p.vec if mapping.alpha is None else _shift_power(mapping.alpha, k, p.vec)
    return ProductPoint(scalar_power(mapping, k, p.scalar), vec)


def scalar_power(mapping: Mapping, k: int, s: float) -> float:
    """The scalar factor of the k-th power at s, for a checked k: s itself,
    or f_kappa applied k times, each step checked as it is taken."""
    if mapping.kappa is not None:  # one point: the array step's fixed cost would dominate
        for _ in range(k):
            s = _f_kappa(mapping.kappa, s)
    return s


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
    return _grid_defects(
        lambda xs: np.array([float(f(v)) for v in xs.tolist()]), interval, [n], grid_size
    )[0]


def _grid_defects(
    step: Callable[[np.ndarray], np.ndarray],
    interval: tuple[float, float],
    powers: Sequence[int],
    grid_size: int,
) -> list[float]:
    """The grid defect of f^n for each n of ``powers``, in their order, from
    one walk of the grid's orbit up to the highest of them.  ``step`` applies
    f to the whole orbit, an array; the powers are checked by the caller."""
    check_grid_size(grid_size)
    lo, hi = interval
    if not lo < hi:
        raise ValueError(f"degenerate interval [{lo}, {hi}]")
    xs = np.linspace(lo, hi, grid_size)
    defects = [_sorted_grid_defect(xs, u) for u in _orbit(step, range(1, max(powers) + 1), xs)]
    return [defects[n - 1] for n in powers]


def _sorted_grid_defect(xs: np.ndarray, u: np.ndarray) -> float:
    """max(0, max_{i<j} (|u_i - u_j| - (x_j - x_i))) for nondecreasing xs."""
    p = u + xs
    q = u - xs
    down = np.maximum.accumulate(p)[:-1] - p[1:]
    up = q[1:] - np.minimum.accumulate(q)[:-1]
    return max(0.0, float(down.max()), float(up.max()))


def oscillator_defects(
    kappa: float, powers: Sequence[int], grid_size: int = DEFECT_GRID_SIZE
) -> list[float]:
    """Defect estimates for f_k on its interval, one per entry of ``powers`` in
    their order: :func:`estimate_intermediate_defect`'s, bit for bit, from one
    walk of the grid, so ``grid_size * max(powers)`` calls of f_k in all.

    The analytic ceiling :func:`oscillator_defect_envelope` must dominate
    any grid estimate, up to ``ENVELOPE_TOL``; a violation would mean the
    estimator is broken, so it raises rather than returning a bad term.

    :raises ValueError: a bad kappa, power or grid size, or no powers.
    :raises ArithmeticError: an estimate exceeds its ceiling.
    """
    kappa = check_factor(kappa)
    powers = [check_power(n) for n in powers]
    if not powers:
        raise ValueError("no powers given")
    interval = (-OSCILLATOR_HALF_WIDTH, OSCILLATOR_HALF_WIDTH)
    estimates = _grid_defects(functools.partial(_f_step, kappa), interval, powers, grid_size)
    for n, est in zip(powers, estimates):
        ceiling = oscillator_defect_envelope(kappa, n)
        if not est <= ceiling + ENVELOPE_TOL:
            raise ArithmeticError(f"defect estimate {est!r} exceeds analytic ceiling {ceiling!r}")
    return estimates


# cached because bench/child.py reads its cache_info() under --trace; typed,
# so that n = True and grid_size = 257.0 miss the entries of 1 and 257, and raise
@functools.lru_cache(maxsize=None, typed=True)
def oscillator_defect(kappa: float, n: int, grid_size: int = DEFECT_GRID_SIZE) -> float:
    """The one-power form of :func:`oscillator_defects`, cached."""
    return oscillator_defects(kappa, [n], grid_size)[0]


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
    """Profile of S_f: the vector factor's is S's, :func:`shift_root_profile`;
    the scalar factor adds lam_n = 2 k^n / pi, :func:`oscillator_defect_envelope`.

    That is a proven bound, where the grid estimate is only a lower one: on
    |x| <= 1/pi, |f_k(x)| <= k|x|, so |f_k^n x - f_k^n y| <= 2 k^n / pi.
    The float orbit keeps under the float envelope too, with no padding:
    the largest |sin t| / t for t >= pi, at tan t = t (t ~ 4.4934), is
    below 0.683 / pi, so |f_k^n x| <= 0.683 k^n / pi on the domain, and the
    rounding of n float steps and of the envelope, a relative error of
    about (2n + 5) * 2^-53, stays inside that margin.  Only in the
    subnormal range, where rounding is absolute, does ``CHECK_TOL`` of the
    verifier absorb it."""
    kappa = check_factor(kappa)
    return dataclasses.replace(
        shift_root_profile(alpha), lam=lambda n: oscillator_defect_envelope(kappa, n)
    )


def make_identity(domain: AdmissibleSet = UNIT_DOMAIN) -> Mapping:
    """The identity on ``domain``, every point of which it fixes; its
    profile has mu_n = lam_n = 0."""
    return Mapping(domain, identity_profile(), name="identity")


def make_s(alpha: float) -> Mapping:
    """The product embedding S(x, v) = (x, T_a(v)) on [0, 1] x B1.

    Its fixed points are exactly the scalar segment {(x, 0) : x in [0, 1]}.
    """
    alpha = check_factor(alpha)
    return Mapping(
        UNIT_DOMAIN,
        shift_root_profile(alpha),
        alpha=alpha,
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
        OSCILLATOR_DOMAIN,
        oscillator_product_profile(kappa, alpha),
        kappa=kappa,
        alpha=alpha,
        fixed_set=FixedSetDescriptor("single_point", point=ProductPoint(0.0, ())),
        name=f"s_f({kappa},{alpha})",
    )


# kind -> (its parameters, in the order build takes them, build)
_KINDS: dict[str, tuple[tuple[str, ...], Callable[..., Mapping]]] = {
    "identity": ((), make_identity),
    # T_a on the vector factor is S under another name.
    "t_alpha": (
        ("alpha",), lambda a: dataclasses.replace(make_s(a), name=f"t_alpha({a})")
    ),
    "s": (("alpha",), make_s),
    "s_f": (("kappa", "alpha"), make_s_f),
}

# The keys a mapping spec of each kind may hold.
MAPPING_KEYS = {kind: ("kind", *params) for kind, (params, _) in _KINDS.items()}


def _required(spec: dict, key: str) -> float:
    if key not in spec:
        raise ValueError(f"mapping kind {spec.get('kind')!r} needs field {key!r}")
    return json_number(spec[key], key)


def mapping_from_json(spec: dict) -> Mapping:
    """Build a zoo mapping from ``{"kind": ..., "alpha": ..., "kappa": ...}``.

    Kinds: ``identity``, ``t_alpha``, ``s``, ``s_f``.  A spec is read only
    at its kind's keys, ``MAPPING_KEYS[kind]``.

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
    params, build = _KINDS[kind]
    return build(*(_required(spec, key) for key in params))
