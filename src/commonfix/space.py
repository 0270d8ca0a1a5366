"""Ambient space for the iteration: R x l1, with finite-support vectors.

The state of every iteration in this package is a pair (scalar, vector)
where the vector lives in l1.  A vector is stored sparsely: the sorted
indices of its coordinates that are not +0.0, their values, and a stored
dense length; every other coordinate up to that length, and every
coordinate past it, is +0.0.  The product norm is

    ||(s, v)|| = |s| + ||v||_1

which makes R x l1 a Banach space and keeps every norm computation exact
up to ordinary float rounding (sums of absolute values, no squares).

Arithmetic visits the stored entries only, yet returns the floats that a
loop over the zero-padded dense coordinates gives: an entry stored on one
side is combined with +0.0 from the other, and the skipped positions, +0.0
against +0.0, give +0.0 there too.  ``len()`` and :func:`point_to_json`
keep the dense length, trailing zeros and signed zeros, so the wire form
lists every coordinate.

Distances are measured without building the difference.
:func:`l1_distance` walks the two index lists once and adds
abs(a_i - b_i) in index order; an entry c stored on one side only adds
abs(c), which equals abs(c - 0.0) and abs(0.0 - c), the terms the
subtraction would form.  That is the same sequence of additions that
``l1_norm(a - b)`` makes, except for the terms where a_i - b_i is +0.0,
which the subtraction drops; adding abs(+0.0) to a running total that
starts at +0.0 never changes it, so the two give the same bits, and with
an infinite or NaN coordinate both are inf or both NaN.  :func:`distance`
adds |p.s - q.s| in front, as ``product_norm(p - q)`` does.

A vector is immutable, so it sums its l1 norm once, on first use, and
keeps it: :func:`l1_norm` on an :class:`L1Vector` is a lookup after the
first call.  The kept value is the one the loop gives, so repeated domain
checks of the same point return the same bits while summing only once.

Trailing zeros in a stored vector are representational only: appending or
trimming them never changes a norm, an arithmetic result, or membership in
an admissible set.  Equality between vectors is mathematical, so
``L1Vector((1.0, 0.0)) == L1Vector((1.0,))``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress, repeat
from typing import Callable, Iterable, Iterator, Sequence

from .errors import LengthMismatch, WeightSumViolation

# Convex weights must sum to 1 within this tolerance.
WEIGHT_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class L1Vector:
    """A finite-support vector in l1, stored sparsely.

    ``indices`` are the sorted 0-based positions of the coordinates that
    are not +0.0 and ``values`` their values; ``len()`` is the stored
    dense length.  Coordinates are 1-based in the mathematical reading:
    position 0 is the first coordinate x_1.  Instances are immutable;
    every operation returns a new vector.
    """

    indices: tuple[int, ...]
    values: tuple[float, ...]
    length: int

    def __init__(self, coords: Iterable[float] = ()) -> None:
        values = [float(c) for c in coords]
        _store(self, range(len(values)), values, len(values))

    @classmethod
    def from_sparse(
        cls, indices: Sequence[int], values: Sequence[float], length: int
    ) -> "L1Vector":
        """Build from entries at sorted ``indices`` below ``length``;
        entries equal to +0.0 are dropped."""
        v = object.__new__(cls)
        _store(v, indices, values, length)
        return v

    @property
    def coords(self) -> tuple[float, ...]:
        """The dense coordinates, zero-filled up to ``len()``."""
        dense = [0.0] * self.length
        for i, c in zip(self.indices, self.values):
            dense[i] = c
        return tuple(dense)

    def __len__(self) -> int:
        return self.length

    def __getitem__(self, i: int) -> float:
        return self.coords[i]

    def __iter__(self) -> Iterator[float]:
        return iter(self.coords)

    @property
    def first(self) -> float:
        """The first coordinate x_1, or 0.0 for an empty prefix."""
        return self.values[0] if self.indices and self.indices[0] == 0 else 0.0

    def trim(self) -> "L1Vector":
        """Drop trailing zero coordinates.  Mathematically a no-op."""
        n = len(self.values)
        while n > 0 and self.values[n - 1] == 0.0:
            n -= 1
        return L1Vector.from_sparse(
            self.indices[:n], self.values[:n], self.indices[n - 1] + 1 if n else 0
        )

    @cached_property
    def _norm(self) -> float:
        # Kept in the instance __dict__, which the frozen __setattr__ leaves
        # alone; the first call per vector sums, later ones look it up.
        return _abs_sum(self.values)

    def _nonzero(self) -> tuple[tuple[int, float], ...]:
        return tuple((i, c) for i, c in zip(self.indices, self.values) if c != 0.0)

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
            return L1Vector.from_sparse(
                self.indices, [t * c for c in self.values], self.length
            )
        # t * (+0.0) is not +0.0 here, so every coordinate is computed.
        return L1Vector(t * c for c in self.coords)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"L1Vector({list(self.coords)!r})"


def _store(
    v: L1Vector, indices: Iterable[int], values: Sequence[float], length: int
) -> None:
    """Set the fields of a new vector, keeping the entries that are not
    +0.0, the one value left implicit."""
    if 0.0 in values:
        keep = [c != 0.0 or math.copysign(1.0, c) < 0.0 for c in values]
        indices, values = compress(indices, keep), compress(values, keep)
    object.__setattr__(v, "indices", tuple(indices))
    object.__setattr__(v, "values", tuple(values))
    object.__setattr__(v, "length", length)


def _pointwise(
    op: Callable[[float, float], float], a: L1Vector, b: L1Vector
) -> L1Vector:
    """Coordinatewise ``op`` over the union of stored entries, merged by
    index.  A coordinate stored on one side only meets +0.0 on the other,
    exactly as in the zero-padded dense loop."""
    ai, av, bi, bv = a.indices, a.values, b.indices, b.values
    indices: list[int] = []
    values: list[float] = []
    i = j = 0
    while i < len(ai) and j < len(bi):
        if ai[i] == bi[j]:
            indices.append(ai[i])
            values.append(op(av[i], bv[j]))
            i += 1
            j += 1
        elif ai[i] < bi[j]:
            indices.append(ai[i])
            values.append(op(av[i], 0.0))
            i += 1
        else:
            indices.append(bi[j])
            values.append(op(0.0, bv[j]))
            j += 1
    indices += ai[i:]
    values += map(op, av[i:], repeat(0.0))
    indices += bi[j:]
    values += map(op, repeat(0.0), bv[j:])
    return L1Vector.from_sparse(indices, values, max(a.length, b.length))


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


def _abs_sum(coords: Iterable[float]) -> float:
    total = 0.0
    for c in coords:
        total += abs(c)
    return total


def l1_norm(v: L1Vector | Sequence[float]) -> float:
    """The l1 norm, a plain sum of absolute values in input order.

    Only stored entries are summed: skipped terms are abs(+0.0), which
    leave the running total unchanged.  An :class:`L1Vector` sums once and
    keeps the result."""
    return v._norm if isinstance(v, L1Vector) else _abs_sum(v)


def product_norm(p: ProductPoint) -> float:
    """||(s, v)|| = |s| + ||v||_1."""
    return abs(p.scalar) + l1_norm(p.vec)


def l1_distance(a: L1Vector, b: L1Vector) -> float:
    """||a - b||_1 in one merge of the stored entries, bit-identical to
    ``l1_norm(a - b)`` and without building a - b (see the module note)."""
    ai, av, bi, bv = a.indices, a.values, b.indices, b.values
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
    # w * (+0.0) cannot change it.  A left fold of ``acc + p.vec * w`` gives
    # the same bits but is slower, since it builds two vectors per point.
    scalar = 0.0
    acc: dict[int, float] = {}
    get = acc.get
    for w, p in zip(weights, points):
        scalar += w * p.scalar
        for j, c in zip(p.vec.indices, p.vec.values):
            acc[j] = get(j, 0.0) + w * c
    indices = sorted(acc)
    vec = L1Vector.from_sparse(
        indices, [acc[j] for j in indices], max(len(p.vec) for p in points)
    )
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
