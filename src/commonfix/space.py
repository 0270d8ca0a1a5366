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
float64 values.  The norm, :func:`l1_distance` and :func:`convex_combine`
work in whole-array passes yet return the floats of a loop over the
zero-padded dense coordinates, in that loop's order; ``+``, ``-`` and
``*`` apply their operator per entry in Python.  Several vectors meet on
a frame (:func:`index_frame`), the sorted union of their indices, as rows
over it, +0.0 where a vector stores nothing; :func:`combine_rows` is the
one combination kernel, for :func:`convex_combine` and for a run's step,
which aligns all of its points on one frame (``scheme.step``).  Sums run
through ``np.add.accumulate``, a left fold, so its last element is the
loop's running total; a total that starts at +0.0 never becomes -0.0, so
the terms a sparse pass skips, or a row's padding adds, abs(+0.0) or
w * (+0.0), could not have changed it.  An entry stored on one side only
meets +0.0 on the other, and x - 0.0 = x: its term is the dense loop's.

``len()`` and :func:`point_to_json` keep the dense length, trailing zeros
and signed zeros, so the wire form lists every coordinate.
:func:`write_point_json` writes that form from the stored runs and
repeats ``0.0`` for the rest; a run's states dump still grows as N^3 in
its step count N (11.8 MB at 160 steps, 121 MB at 400).

Distances are measured without building the difference.
:func:`l1_distance` sorts the two index lists together, one slot per
entry, and adds each entry, a's as they are and b's negated, into the
first slot of its index, from +0.0 (``np.bincount``, in input order, a's
entries first).  A shared index then holds (+0.0 + a_i) + (-b_i), which
is a_i - b_i up to the sign of a zero; an entry c stored on one side only
holds c or -c, and every other slot +0.0.  The left fold of their abs
adds abs(a_i - b_i) in index order, abs(c) for a one-sided entry, which
equals abs(c - 0.0) and abs(0.0 - c), the terms the subtraction would
form, and some abs(+0.0).
That is the same sequence of additions that ``l1_norm(a - b)`` makes,
except for the terms where a_i - b_i is +0.0, which the subtraction drops;
adding abs(+0.0) to a running total that starts at +0.0 never changes it,
so the two give the same bits, and with an infinite or NaN coordinate both
are inf or both NaN.  :func:`distance` adds |p.s - q.s| in front, as
``product_norm(p - q)`` does.  Against a vector with no stored entry, such
as a point of a scalar fixed set, the pass adds exactly the terms of
``l1_norm(a)``, so it returns a's kept norm; against itself, with a finite
norm, every term is abs(c - c) = +0.0, so it returns 0.0 without a pass.

A vector is immutable, so it sums its l1 norm once, on first use, and
keeps it: :func:`l1_norm` on an :class:`L1Vector` is a lookup after the
first call.  The kept value is the one the dense loop gives, so repeated
domain checks of the same point return the same bits while summing only
once.

Trailing zeros in a stored vector are representational only: appending or
dropping them never changes a norm, an arithmetic result, or membership in
an admissible set.  Equality between vectors is mathematical, so
``L1Vector((1.0, 0.0)) == L1Vector((1.0,))``.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Sequence, TextIO

import numpy as np

from .errors import LengthMismatch, WeightSumViolation

# Convex weights must sum to 1 within this tolerance.
WEIGHT_TOL = 1e-12


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


def index_frame(indices: Sequence[np.ndarray]) -> tuple[np.ndarray, list[np.ndarray]]:
    """A frame of index arrays, their sorted union, by one concatenate, sort
    and mask of repeats, and each array's positions in it, by one search
    per array; ``np.unique`` with ``return_inverse`` took about 1.5x as
    long on 2 x 1,000 indices (numpy 2.4, x86-64)."""
    union = np.sort(np.concatenate(indices))
    keep = np.empty(len(union), dtype=bool)
    keep[:1] = True
    np.not_equal(union[1:], union[:-1], out=keep[1:])
    index = union[keep]
    return index, [index.searchsorted(i) for i in indices]


def _rows(vectors: Sequence[L1Vector]) -> tuple[np.ndarray, list[np.ndarray]]:
    """The frame of the vectors' stored indices and one row per vector over
    it: its values at their positions, +0.0 where it stores nothing."""
    index, positions = index_frame([v.idx for v in vectors])
    rows = [np.zeros(len(index)) for _ in vectors]
    for row, pos, v in zip(rows, positions, vectors):
        row[pos] = v.val
    return index, rows


def _pointwise(
    op: Callable[[float, float], float], a: L1Vector, b: L1Vector
) -> L1Vector:
    """Coordinatewise ``op`` over the union of stored entries, in index
    order.  A coordinate stored on one side only meets +0.0 on the other,
    exactly as in the zero-padded dense loop."""
    index, (row_a, row_b) = _rows((a, b))
    values = list(map(op, row_a.tolist(), row_b.tolist()))
    return L1Vector.from_sparse(index, values, max(a.length, b.length))


@dataclass(frozen=True)
class ProductPoint:
    """A point (scalar, vec) of R x l1."""

    scalar: float
    vec: L1Vector

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


def _left_sum(terms: np.ndarray) -> np.ndarray:
    """The running total of the nonnegative ``terms`` along their last axis,
    in order, from +0.0: the last entry of ``np.add.accumulate``, a left
    fold, so each total is the loop's; +0.0 where that axis is empty.  The
    first term needs no +0.0 added in front: +0.0 + t is t for t >= +0.0.
    A total that overflows is inf; callers say whether numpy may warn."""
    if terms.shape[-1] == 0:
        return np.zeros(terms.shape[:-1])
    return np.add.accumulate(terms, axis=-1)[..., -1]


def _abs_sum(values: np.ndarray) -> float:
    """The running total of abs(c) over ``values``, in order, from +0.0."""
    with np.errstate(over="ignore"):
        return float(_left_sum(np.abs(values)))


def l1_norm(v: L1Vector) -> float:
    """The l1 norm, a plain sum of absolute values in input order.

    Only stored entries are summed: skipped terms are abs(+0.0), which
    leave the running total unchanged.  The vector sums once and keeps
    the result."""
    return v._norm


def product_norm(p: ProductPoint) -> float:
    """||(s, v)|| = |s| + ||v||_1."""
    return abs(p.scalar) + l1_norm(p.vec)


def l1_distance(a: L1Vector, b: L1Vector) -> float:
    """||a - b||_1 in one array pass over the stored entries of both,
    bit-identical to ``l1_norm(a - b)`` and without building a - b (see the
    module note)."""
    if a is b and a._norm < math.inf:
        return 0.0  # abs(c - c) is +0.0 for every finite c
    if not len(b.idx):
        return l1_norm(a)  # the kept sum of the terms the pass would add
    idx = np.concatenate((a.idx, b.idx))
    slots = idx.copy()
    slots.sort()
    terms = np.bincount(slots.searchsorted(idx), weights=np.concatenate((a.val, -b.val)))
    with np.errstate(over="ignore"):
        return float(_left_sum(np.abs(terms)))


@dataclass(frozen=True)
class PairBlock:
    """Pairs of points (x_r, y_r) of R x l1 as arrays, the form in which
    ``Mapping.gaps`` and the certify checks read them.

    ``scalars`` has shape (2, pairs), the x's then the y's, and ``lengths``
    too, each vector's dense length.  ``rows`` has shape (2, pairs, width):
    column c of a row is its vector's coordinate at index c, so x_1 is
    column 0, stored or not, with +0.0 where the vector stores nothing.  A
    row-wise left fold of abs(A - B) then adds, in index order, the terms of
    :func:`l1_distance`'s pass over the pair and some abs(+0.0 - +0.0),
    which leave a total started at +0.0 unchanged: each pair's distance, bit
    for bit.  A row holds a float for every index up to the block's largest
    stored one, so a block is best made of vectors with nearby indices.  The
    arrays are read-only.  :meth:`from_points` builds a block from points,
    :func:`commonfix.sampling.sample_pairs` draws one.
    """

    scalars: np.ndarray
    rows: np.ndarray
    lengths: np.ndarray

    def __post_init__(self) -> None:
        # read-only, as a vector's entries are: no pass may edit a block in place
        for array in (self.scalars, self.rows, self.lengths):
            array.setflags(write=False)

    @classmethod
    def from_points(
        cls, xs: Sequence[ProductPoint], ys: Sequence[ProductPoint]
    ) -> "PairBlock":
        """The block of the pairs (xs[r], ys[r]), one column per index up to
        the largest stored, and at least one.

        :raises LengthMismatch: ``xs`` and ``ys`` differ in length.
        """
        if len(xs) != len(ys):
            raise LengthMismatch(f"{len(xs)} vectors paired with {len(ys)}")
        points = (*xs, *ys)
        width = 1 + max((int(p.vec.idx[-1]) for p in points if len(p.vec.idx)), default=0)
        rows = np.zeros((2, len(xs), width))
        for row, p in zip(rows.reshape(-1, width), points):
            row[p.vec.idx] = p.vec.val
        scalars = np.array([p.scalar for p in points], dtype=np.float64)
        lengths = np.array([len(p.vec) for p in points], dtype=np.int64)
        return cls(scalars.reshape(2, -1), rows, lengths.reshape(2, -1))

    def __len__(self) -> int:
        return self.scalars.shape[1]

    def pairs(self) -> list[tuple[ProductPoint, ProductPoint]]:
        """The pairs as points: each vector stores exactly what its row
        holds other than +0.0, so a block from points gives them back."""
        columns = np.arange(self.rows.shape[-1])
        points = [
            ProductPoint(s, L1Vector.from_sparse(columns, row, n))
            for s, row, n in zip(
                self.scalars.ravel().tolist(),
                self.rows.reshape(-1, len(columns)),
                self.lengths.ravel().tolist(),
            )
        ]
        return list(zip(points[: len(self)], points[len(self) :]))


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
    index, rows = _rows([p.vec for p in points])
    scalar, acc = combine_rows(weights, [p.scalar for p in points], rows)
    vec = L1Vector.from_sparse(index, acc, max(len(p.vec) for p in points))
    return ProductPoint(scalar, vec)


def combine_rows(
    weights: Sequence[float], scalars: Sequence[float], rows: Sequence[np.ndarray]
) -> tuple[float, np.ndarray]:
    """The scalar sum_j w_j s_j and the row sum_j w_j row_j of points held
    as rows over one frame, each accumulated from +0.0 in point order, as
    the dense loop adds them.  A sum started at +0.0 never becomes -0.0,
    so a term w * (+0.0), where a point stores nothing, cannot change it:
    a row's padding adds nothing a sparse pass would not."""
    scalar = 0.0
    acc = np.zeros(len(rows[0]))
    with np.errstate(invalid="ignore", over="ignore"):
        for w, s, row in zip(weights, scalars, rows):
            scalar += w * s
            acc = acc + w * row
    return scalar, acc


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


def _zero_run(k: int) -> str:
    """k coordinates of +0.0 as json spells them in a list."""
    return ("0.0, " * k)[:-2]


def write_point_json(fh: TextIO, p: ProductPoint) -> None:
    """Write ``json.dumps(point_to_json(p), sort_keys=True)`` to ``fh``,
    read from the sparse store: no dense coordinates are built.

    Each run of consecutive stored indices is one ``json.dumps`` of its
    values, json's own spelling of each float, -0.0, NaN and Infinity
    included.  Every coordinate below ``len()`` that the vector does not
    store is +0.0, written ``0.0`` by string repetition."""
    v = p.vec
    stored = len(v.idx)
    # run r of consecutive stored indices is idx[edges[r]:edges[r + 1]]
    cuts = (np.flatnonzero(np.diff(v.idx) != 1) + 1).tolist()
    edges = [0, *cuts, stored] if stored else [0]
    pieces, end = [], 0
    for a, b, first in zip(edges, edges[1:], v.idx[edges[:-1]].tolist()):
        if first > end:
            pieces.append(_zero_run(first - end))
        pieces.append(json.dumps(v.val[a:b].tolist())[1:-1])
        end = first + b - a
    if v.length > end:
        pieces.append(_zero_run(v.length - end))
    fh.write(f'{{"scalar": {json.dumps(p.scalar)}, "vec": [{", ".join(pieces)}]}}')


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
