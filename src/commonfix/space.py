"""Ambient space for the iteration: R x l1, with finite-support vectors.

The state of every iteration in this package is a pair (scalar, vector)
where the vector lives in l1.  A vector is stored sparsely: the sorted
indices of its coordinates that are not +0.0, their values, and a stored
dense length; every other coordinate up to that length, and every
coordinate past it, is +0.0.  The product norm is

    ||(s, v)|| = |s| + ||v||_1

which makes R x l1 a Banach space and keeps every norm computation exact
up to ordinary float rounding (sums of absolute values, no squares).

The stored entries are two read-only numpy arrays, int64 indices and
float64 values.  The norm, :func:`l1_distance` and :func:`convex_combine`,
the kernels a run spends its time in, work in whole-array passes yet
return the floats of a loop over the zero-padded dense coordinates, in
that loop's order; ``+``, ``-`` and ``*`` apply their operator per entry
in Python.  Sums run through ``np.add.accumulate``, a left fold, so its
last element is the loop's running total; a total that starts at +0.0
never becomes -0.0, so the terms a sparse pass skips, abs(+0.0) or
w * (+0.0), could not have changed it.  An entry stored on one side only
meets +0.0 on the other, and x - 0.0 = x: its term is the dense loop's.

Numpy's fixed cost per call outweighs a loop over a handful of entries.
The two kinds of traffic differ in size: certify samples vectors of at
most 8 entries and measures distances between them thousands of times,
while a run combines and measures states of about a thousand.  So the
norm and :func:`l1_distance` loop in Python while each vector they read
stores fewer than ``ARRAY_MIN_ENTRIES`` entries, and take the array pass
from there; both give the same bits.  ``len()`` and :func:`point_to_json`
keep the dense length, trailing zeros and signed zeros, so the wire form
lists every coordinate.

Distances are measured without building the difference.
:func:`l1_distance` merges the two index lists and adds abs(a_i - b_i) in
index order; an entry c stored on one side only adds abs(c), which equals
abs(c - 0.0) and abs(0.0 - c), the terms the subtraction would form.
That is the same sequence of additions that ``l1_norm(a - b)`` makes,
except for the terms where a_i - b_i is +0.0, which the subtraction drops;
adding abs(+0.0) to a running total that starts at +0.0 never changes it,
so the two give the same bits, and with an infinite or NaN coordinate both
are inf or both NaN.  :func:`distance` adds |p.s - q.s| in front, as
``product_norm(p - q)`` does.  Against a vector with no stored entry, such
as a point of a scalar fixed set, the merge adds exactly the terms of
``l1_norm(a)``, so it returns a's kept norm; against itself, with a finite
norm, every term is abs(c - c) = +0.0, so it returns 0.0 without merging.

A vector is immutable, so it sums its l1 norm once, on first use, and
keeps it: :func:`l1_norm` on an :class:`L1Vector` is a lookup after the
first call.  The kept value is the one the loop gives, so repeated domain
checks of the same point return the same bits while summing only once.

Trailing zeros in a stored vector are representational only: appending or
dropping them never changes a norm, an arithmetic result, or membership in
an admissible set.  Equality between vectors is mathematical, so
``L1Vector((1.0, 0.0)) == L1Vector((1.0,))``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import LengthMismatch, WeightSumViolation

# Convex weights must sum to 1 within this tolerance.
WEIGHT_TOL = 1e-12

# The norm and l1_distance loop in Python while each vector they read
# stores fewer entries than this, and take the array pass from here on.
# Measured with numpy 2.4.6 on a 2-core x86-64 machine, one process: the
# loop and the array pass cost the same, about 2.2 us, for a norm of 48-56
# entries, and about 12 us for a distance between two vectors of 64-96
# entries each; one cutoff serves both, at the cost of a few us for a
# distance between vectors of 48-96 entries.  Certify samples hold at
# most 8 entries, a run's state about a thousand.
ARRAY_MIN_ENTRIES = 48


@dataclass(frozen=True, eq=False)
class L1Vector:
    """A finite-support vector in l1, stored sparsely.

    ``idx`` holds the sorted 0-based positions of the coordinates that are
    not +0.0 and ``val`` their values, as read-only int64 and float64
    arrays, and ``len()`` is the stored dense length.  Coordinates are
    1-based in the mathematical reading: position 0 is the first
    coordinate x_1.  Instances are immutable; every operation returns a
    new vector.
    """

    idx: np.ndarray
    val: np.ndarray
    length: int

    def __init__(self, coords: Iterable[float] = ()) -> None:
        values = np.array([float(c) for c in coords], dtype=np.float64)
        _store(self, np.arange(len(values), dtype=np.int64), values, len(values))

    @classmethod
    def from_sparse(
        cls, indices: Sequence[int], values: Sequence[float], length: int
    ) -> "L1Vector":
        """Build from entries at sorted ``indices`` below ``length``;
        entries equal to +0.0 are dropped.  The entries are copied."""
        v = object.__new__(cls)
        _store(
            v,
            np.array(indices, dtype=np.int64),
            np.array(values, dtype=np.float64),
            length,
        )
        return v

    @property
    def coords(self) -> tuple[float, ...]:
        """The dense coordinates, zero-filled up to ``len()``."""
        dense = np.zeros(self.length)
        dense[self.idx] = self.val
        return tuple(dense.tolist())

    def __len__(self) -> int:
        return self.length

    @cached_property
    def first(self) -> float:
        """The first coordinate x_1, or 0.0 for an empty prefix."""
        return float(self.val[0]) if len(self.idx) and self.idx[0] == 0 else 0.0

    @cached_property
    def _norm(self) -> float:
        # Kept in the instance __dict__, which the frozen __setattr__ leaves
        # alone; the first call per vector sums, later ones look it up.
        return _abs_sum(self.val)

    def _nonzero(self) -> tuple[tuple[int, float], ...]:
        return tuple((i, c) for i, c in zip(self.idx.tolist(), self.val.tolist()) if c != 0.0)

    # Value equality ignores trailing zeros and the sign of zero.
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, L1Vector):
            return NotImplemented
        return self._nonzero() == other._nonzero()

    def __hash__(self) -> int:
        return hash(self._nonzero())

    def __add__(self, other: "L1Vector") -> "L1Vector":
        return _pointwise(operator.add, self, other)

    def __sub__(self, other: "L1Vector") -> "L1Vector":
        return _pointwise(operator.sub, self, other)

    def __mul__(self, t: float) -> "L1Vector":
        if 0.0 < t < math.inf:
            return L1Vector.from_sparse(self.idx, [t * c for c in self.val.tolist()], self.length)
        # t * (+0.0) is not +0.0 here, so every coordinate is computed.
        return L1Vector(t * c for c in self.coords)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"L1Vector({list(self.coords)!r})"


def _store(v: L1Vector, idx: np.ndarray, val: np.ndarray, length: int) -> None:
    """Set the fields of a new vector from arrays it then owns, keeping the
    entries that are not +0.0, the one value left implicit."""
    if np.count_nonzero(val) < len(val):
        keep = (val != 0.0) | np.signbit(val)
        idx, val = idx[keep], val[keep]
    idx.setflags(write=False)
    val.setflags(write=False)
    object.__setattr__(v, "idx", idx)
    object.__setattr__(v, "val", val)
    object.__setattr__(v, "length", length)


def _union(indices: Sequence[np.ndarray]) -> np.ndarray:
    """The sorted union of index arrays, by concatenate, sort and a mask of
    repeats; ``np.union1d`` is about 13x slower on 2 x 1,000 indices."""
    u = np.sort(np.concatenate(indices))
    keep = np.empty(len(u), dtype=bool)
    keep[:1] = True
    np.not_equal(u[1:], u[:-1], out=keep[1:])
    return u[keep]


def _on(union: np.ndarray, v: L1Vector) -> np.ndarray:
    """v's values at the positions of ``union``, a sorted superset of its
    indices, with +0.0 where v stores nothing."""
    out = np.zeros(len(union))
    out[np.searchsorted(union, v.idx)] = v.val
    return out


def _pointwise(
    op: Callable[[float, float], float], a: L1Vector, b: L1Vector
) -> L1Vector:
    """Coordinatewise ``op`` over the union of stored entries, in index
    order.  A coordinate stored on one side only meets +0.0 on the other,
    exactly as in the zero-padded dense loop."""
    union = _union((a.idx, b.idx))
    values = list(map(op, _on(union, a).tolist(), _on(union, b).tolist()))
    return L1Vector.from_sparse(union, values, max(a.length, b.length))


@dataclass(frozen=True)
class ProductPoint:
    """A point (scalar, vec) of R x l1."""

    scalar: float
    vec: L1Vector = field(default_factory=L1Vector)

    def __init__(self, scalar: float, vec: L1Vector | Sequence[float] = ()) -> None:
        object.__setattr__(self, "scalar", float(scalar))
        if not isinstance(vec, L1Vector):
            vec = L1Vector(vec)
        object.__setattr__(self, "vec", vec)

    def __add__(self, other: "ProductPoint") -> "ProductPoint":
        return ProductPoint(self.scalar + other.scalar, self.vec + other.vec)

    def __sub__(self, other: "ProductPoint") -> "ProductPoint":
        return ProductPoint(self.scalar - other.scalar, self.vec - other.vec)

    def __mul__(self, t: float) -> "ProductPoint":
        return ProductPoint(t * self.scalar, self.vec * t)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"ProductPoint({self.scalar!r}, {list(self.vec.coords)!r})"


@dataclass(frozen=True)
class AdmissibleSet:
    """A product set [a, b] x {v : ||v||_1 <= r}.

    ``scalar_interval`` is the closed interval for the scalar factor and
    ``ball_radius`` the l1-ball radius for the vector factor.  The set is
    closed, convex, and bounded, which is what the iteration relies on.
    """

    scalar_interval: tuple[float, float]
    ball_radius: float

    def __post_init__(self) -> None:
        lo, hi = self.scalar_interval
        if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
            raise ValueError(f"invalid scalar interval [{lo}, {hi}]")
        if not (math.isfinite(self.ball_radius) and self.ball_radius >= 0.0):
            raise ValueError(f"invalid ball radius {self.ball_radius}")
        object.__setattr__(self, "scalar_interval", (float(lo), float(hi)))
        object.__setattr__(self, "ball_radius", float(self.ball_radius))


def _abs_sum(values: np.ndarray) -> float:
    """The running total of abs(c) over ``values``, in order, from +0.0."""
    if len(values) >= ARRAY_MIN_ENTRIES:
        with np.errstate(over="ignore"):
            return float(np.add.accumulate(np.abs(values))[-1])
    total = 0.0
    for c in values.tolist():
        total += abs(c)
    return total


def l1_norm(v: L1Vector | Sequence[float]) -> float:
    """The l1 norm, a plain sum of absolute values in input order.

    Only stored entries are summed: skipped terms are abs(+0.0), which
    leave the running total unchanged.  An :class:`L1Vector` sums once and
    keeps the result."""
    if isinstance(v, L1Vector):
        return v._norm
    return _abs_sum(np.array(v, dtype=np.float64))


def product_norm(p: ProductPoint) -> float:
    """||(s, v)|| = |s| + ||v||_1."""
    return abs(p.scalar) + l1_norm(p.vec)


def l1_distance(a: L1Vector, b: L1Vector) -> float:
    """||a - b||_1 in one merge of the stored entries, bit-identical to
    ``l1_norm(a - b)`` and without building a - b (see the module note)."""
    if a is b and a._norm < math.inf:
        return 0.0  # abs(c - c) is +0.0 for every finite c
    if not len(b.idx):
        return l1_norm(a)  # the kept sum of the terms the merge would add
    if max(len(a.idx), len(b.idx)) >= ARRAY_MIN_ENTRIES:
        union = _union((a.idx, b.idx))
        with np.errstate(invalid="ignore", over="ignore"):
            terms = np.abs(_on(union, a) - _on(union, b))
            return float(np.add.accumulate(terms)[-1])
    ai, av, bi, bv = a.idx.tolist(), a.val.tolist(), b.idx.tolist(), b.val.tolist()
    na, nb = len(ai), len(bi)
    total = 0.0
    i = j = 0
    while i < na and j < nb:
        if ai[i] == bi[j]:
            total += abs(av[i] - bv[j])
            i += 1
            j += 1
        elif ai[i] < bi[j]:
            total += abs(av[i])
            i += 1
        else:
            total += abs(bv[j])
            j += 1
    for c in av[i:]:
        total += abs(c)
    for c in bv[j:]:
        total += abs(c)
    return total


def distance(p: ProductPoint, q: ProductPoint) -> float:
    """||p - q|| = |p.s - q.s| + ||p.v - q.v||_1, bit-identical to
    ``product_norm(p - q)``."""
    return abs(p.scalar - q.scalar) + l1_distance(p.vec, q.vec)


def convex_combine(
    weights: Sequence[float], points: Sequence[ProductPoint]
) -> ProductPoint:
    """Weighted combination sum_j w_j p_j of points of R x l1.

    Weights must all be positive and sum to 1 within ``WEIGHT_TOL``;
    the number of weights must equal the number of points.  Vectors of
    different stored lengths are aligned by zero padding.  Accumulation
    is left to right in the given order, so results are deterministic.

    :raises LengthMismatch: the two sequences differ in length or are empty.
    :raises WeightSumViolation: a weight is not positive, or the sum is off.
    """
    if len(weights) != len(points) or len(points) == 0:
        raise LengthMismatch(
            f"{len(weights)} weights for {len(points)} points"
        )
    for w in weights:
        if not w > 0.0:
            raise WeightSumViolation(f"non-positive weight {w!r}")
    total = math.fsum(weights)
    if abs(total - 1.0) > WEIGHT_TOL:
        raise WeightSumViolation(
            f"weights sum to {total!r}, off by more than {WEIGHT_TOL}"
        )
    # Each coordinate accumulates from +0.0 in point order, as in the dense
    # loop.  A sum started at +0.0 never becomes -0.0, so the skipped terms
    # w * (+0.0) cannot change it.
    scalar = 0.0
    union = _union([p.vec.idx for p in points])
    acc = np.zeros(len(union))
    with np.errstate(invalid="ignore", over="ignore"):
        for w, p in zip(weights, points):
            scalar += w * p.scalar
            pos = np.searchsorted(union, p.vec.idx)
            acc[pos] = acc[pos] + w * p.vec.val
    vec = L1Vector.from_sparse(union, acc, max(len(p.vec) for p in points))
    return ProductPoint(scalar, vec)


def in_set(p: ProductPoint, k: AdmissibleSet) -> bool:
    """Inclusive membership test, with no tolerance slack.

    Boundary points belong to the set; a point whose norm exceeds the
    radius by one ulp does not.  Callers that need slack must widen the
    set rather than this predicate.
    """
    lo, hi = k.scalar_interval
    return lo <= p.scalar <= hi and l1_norm(p.vec) <= k.ball_radius


def point_to_json(p: ProductPoint) -> dict:
    """Serialize to the ``{"scalar": s, "vec": [...]}`` wire form."""
    return {"scalar": p.scalar, "vec": list(p.vec.coords)}


def point_from_json(obj: dict) -> ProductPoint:
    """Inverse of :func:`point_to_json`.  Raises ``ValueError`` on a bad
    shape or a coordinate that is not a finite JSON number."""
    if not isinstance(obj, dict) or "scalar" not in obj or "vec" not in obj:
        raise ValueError(f"expected {{'scalar': s, 'vec': [...]}}, got {obj!r}")
    return ProductPoint(
        json_number(obj["scalar"], "scalar"), L1Vector(json_numbers(obj["vec"], "vec"))
    )


# The json_* helpers are the one place that checks the JSON type of a value.
# Each returns the value or raises ValueError, naming ``name`` when given.
# JSON's true and false parse to bool, a subclass of int, so they are
# neither numbers nor integers here.


def _json_type_error(expected: str, value: object, name: str | None) -> ValueError:
    message = f"expected {expected}, got {value!r}"
    return ValueError(f"{name}: {message}" if name else message)


def json_number(value: object, name: str | None = None) -> float:
    """A finite JSON number (int or float, never bool) as a float."""
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not math.isfinite(value)
    ):
        raise _json_type_error("a finite number", value, name)
    return float(value)


def json_int(value: object, name: str | None = None) -> int:
    """A JSON integer, never bool."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise _json_type_error("an integer", value, name)
    return value


def json_flag(value: object, name: str | None = None) -> bool:
    """JSON ``true`` or ``false``."""
    if not isinstance(value, bool):
        raise _json_type_error("true or false", value, name)
    return value


def json_numbers(value: object, name: str | None = None) -> list[float]:
    """A JSON list of finite numbers, as floats."""
    if not isinstance(value, list):
        raise _json_type_error("a list of numbers", value, name)
    return [json_number(v, f"{name or ''}[{i}]") for i, v in enumerate(value)]


def check_int(value: object, minimum: int, what: str) -> int:
    """``value`` if it is an integer (see :func:`json_int`) >= ``minimum``;
    else ValueError."""
    if json_int(value, what) < minimum:
        raise ValueError(f"{what} must be at least {minimum}, got {value!r}")
    return value


def check_positive(value: float, what: str) -> float:
    """``value`` if it is above zero (NaN is not); else ValueError."""
    if not value > 0.0:
        raise ValueError(f"{what} must be positive, got {value!r}")
    return value
