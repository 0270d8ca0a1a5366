"""Tests for the ambient space R x l1: norms, combinations, membership."""

import io
import json
import math
import struct
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from commonfix import space
from commonfix.errors import LengthMismatch, WeightSumViolation
from commonfix.mappings import iterate_difference_factor, make_s, power_t_alpha
from commonfix.space import (
    AdmissibleSet,
    L1Vector,
    PairBlock,
    ProductPoint,
    convex_combine,
    distance,
    in_set,
    l1_distance,
    l1_norm,
    point_from_json,
    point_to_json,
    product_norm,
    write_point_json,
)

_TOL = 1e-12

coords = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
vectors = st.lists(coords, min_size=0, max_size=6).map(L1Vector)
scalars = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)
points = st.builds(ProductPoint, scalars, vectors)


class TestL1Norm:
    def test_signed_coordinates(self):
        assert l1_norm(L1Vector((1.0, -2.0, 0.5))) == 3.5

    def test_empty_vector_is_zero(self):
        assert l1_norm(L1Vector(())) == 0.0

    def test_explicit_zeros_are_zero(self):
        assert l1_norm(L1Vector((0.0, 0.0))) == 0.0

    @given(vectors, vectors)
    def test_triangle_inequality(self, u, v):
        """||u + v||_1 <= ||u||_1 + ||v||_1 within 1e-12."""
        assert l1_norm(u + v) <= l1_norm(u) + l1_norm(v) + _TOL

    @given(vectors, scalars)
    def test_absolute_homogeneity(self, v, t):
        """||t v||_1 = |t| ||v||_1 within 1e-12 relative."""
        assert math.isclose(
            l1_norm(v * t), abs(t) * l1_norm(v), rel_tol=_TOL, abs_tol=_TOL
        )

    @given(vectors)
    def test_trailing_zero_padding_never_changes_norm(self, v):
        padded = L1Vector(v.coords + (0.0, 0.0, 0.0))
        assert l1_norm(padded) == l1_norm(v)


class TestVectorValueSemantics:
    def test_trailing_zeros_do_not_affect_equality(self):
        assert L1Vector((1.0, 0.0)) == L1Vector((1.0,))
        assert L1Vector(()) == L1Vector((0.0, 0.0))
        assert hash(L1Vector((1.0, 0.0))) == hash(L1Vector((1.0,)))

    def test_arithmetic_aligns_lengths_by_zero_padding(self):
        a = L1Vector((1.0, 2.0))
        b = L1Vector((0.5,))
        assert (a + b) == L1Vector((1.5, 2.0))
        assert (a - b) == L1Vector((0.5, 2.0))

    def test_vectors_are_immutable(self):
        v = L1Vector((1.0, 0.0, -2.0))
        with pytest.raises(FrozenInstanceError):
            v.val = (5.0,)
        assert v.idx.tolist() == [0, 2] and v.val.tolist() == [1.0, -2.0] and len(v) == 3

    def test_operations_return_new_values(self):
        v = L1Vector((1.0,))
        w = v * 2.0
        assert v == L1Vector((1.0,))
        assert w == L1Vector((2.0,))


class TestProductNorm:
    def test_scalar_plus_vector_norm(self):
        p = ProductPoint(0.5, (0.2, 0.1))
        assert product_norm(p) == pytest.approx(0.8, abs=1e-15)

    def test_sign_of_scalar_irrelevant(self):
        assert product_norm(ProductPoint(-0.5, (0.2,))) == product_norm(
            ProductPoint(0.5, (0.2,))
        )

    def test_witness_pair_separation_is_exact(self):
        # (0, (x0,)) minus (0, (x0/4,)) has norm exactly 3*x0/4 for x0 = 0.005
        x0 = 0.005
        a = ProductPoint(0.0, (x0,))
        b = ProductPoint(0.0, (x0 / 4.0,))
        assert product_norm(a - b) == 0.00375

    @given(points, points)
    def test_triangle_inequality(self, p, q):
        assert product_norm(p + q) <= product_norm(p) + product_norm(q) + _TOL


class TestConvexCombine:
    def test_midpoint(self):
        p = ProductPoint(0.0, (1.0, 0.0))
        q = ProductPoint(1.0, (0.0, 1.0))
        mid = convex_combine((0.5, 0.5), (p, q))
        assert mid.scalar == 0.5
        assert mid.vec == L1Vector((0.5, 0.5))

    def test_three_equal_points_with_thirds(self):
        p = ProductPoint(0.7, (1.0,))
        w = 1.0 / 3.0
        out = convex_combine((w, w, w), (p, p, p))
        # 3 * (1/3) rounds back to 1 for these values
        assert out.scalar == 0.7
        assert out.vec == L1Vector((1.0,))

    def test_mismatched_lengths_rejected(self):
        p = ProductPoint(0.0, ())
        with pytest.raises(LengthMismatch):
            convex_combine((0.5, 0.5), (p,))

    def test_empty_rejected(self):
        with pytest.raises(LengthMismatch):
            convex_combine((), ())

    def test_nonpositive_weight_rejected(self):
        p = ProductPoint(0.0, ())
        with pytest.raises(WeightSumViolation):
            convex_combine((1.5, -0.5), (p, p))
        with pytest.raises(WeightSumViolation):
            convex_combine((1.0, 0.0), (p, p))

    def test_weights_summing_off_by_more_than_tolerance_rejected(self):
        p = ProductPoint(0.0, ())
        with pytest.raises(WeightSumViolation):
            convex_combine((0.45, 0.45), (p, p))

    def test_weight_sum_within_tolerance_accepted(self):
        p = ProductPoint(1.0, ())
        out = convex_combine((0.5, 0.5 + 5e-13), (p, p))
        assert abs(out.scalar - 1.0) < 1e-12

    def test_vectors_of_unequal_lengths_align(self):
        p = ProductPoint(0.0, (1.0,))
        q = ProductPoint(0.0, (0.0, 1.0))
        out = convex_combine((0.5, 0.5), (p, q))
        assert out.vec == L1Vector((0.5, 0.5))

    @given(
        st.lists(st.floats(min_value=0.05, max_value=1.0), min_size=2, max_size=5),
        st.data(),
    )
    def test_result_stays_in_convex_set(self, raw_weights, data):
        """A convex combination of points of [0,1] x B1 stays inside.

        Float rounding can push an extreme combination one ulp past the
        mathematical boundary, so membership is asserted in the set widened
        by 1e-12 on every face.
        """
        total = math.fsum(raw_weights)
        weights = [w / total for w in raw_weights]
        # renormalized weights sum to 1 within float error of fsum
        box = AdmissibleSet((-1e-12, 1.0 + 1e-12), 1.0 + 1e-12)
        pts = []
        for _ in weights:
            s = data.draw(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
            vc = data.draw(
                st.lists(
                    st.floats(min_value=-0.19, max_value=0.19, allow_nan=False),
                    min_size=0,
                    max_size=5,
                )
            )
            pts.append(ProductPoint(s, vc))
        out = convex_combine(weights, pts)
        assert in_set(out, box)

    def test_accumulation_is_deterministic(self):
        pts = (
            ProductPoint(0.1, (0.3, 0.1)),
            ProductPoint(0.7, (0.05,)),
            ProductPoint(0.2, (0.0, 0.4)),
        )
        w = (0.2, 0.5, 0.3)
        first = convex_combine(w, pts)
        second = convex_combine(w, pts)
        assert first.scalar == second.scalar and first.vec == second.vec


class TestInSet:
    box = AdmissibleSet((0.0, 1.0), 1.0)

    def test_interior(self):
        assert in_set(ProductPoint(0.5, (0.2, -0.3)), self.box)

    def test_boundary_is_inside(self):
        assert in_set(ProductPoint(1.0, (1.0,)), self.box)
        assert in_set(ProductPoint(0.0, ()), self.box)

    def test_one_ulp_outside_is_outside(self):
        beyond = math.nextafter(1.0, 2.0)
        assert not in_set(ProductPoint(beyond, ()), self.box)
        assert not in_set(ProductPoint(0.5, (beyond,)), self.box)

    def test_scalar_below_interval(self):
        assert not in_set(ProductPoint(-0.1, ()), self.box)

    def test_degenerate_radius(self):
        thin = AdmissibleSet((0.0, 1.0), 0.0)
        assert in_set(ProductPoint(0.3, (0.0,)), thin)
        assert not in_set(ProductPoint(0.3, (1e-300,)), thin)


class TestAdmissibleSetValidation:
    def test_reversed_interval_rejected(self):
        with pytest.raises(ValueError):
            AdmissibleSet((1.0, 0.0), 1.0)

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            AdmissibleSet((0.0, 1.0), -1.0)


class TestJsonRoundTrip:
    @given(points)
    def test_round_trip_preserves_value(self, p):
        back = point_from_json(point_to_json(p))
        assert back.scalar == p.scalar
        assert back.vec == p.vec

    def test_wire_shape(self):
        blob = point_to_json(ProductPoint(0.7, (1.0, 0.0)))
        assert blob == {"scalar": 0.7, "vec": [1.0, 0.0]}

    @pytest.mark.parametrize(
        "bad",
        [None, [], {"scalar": 1.0}, {"vec": []}, {"scalar": 1.0, "vec": 3}],
    )
    def test_bad_shapes_rejected(self, bad):
        with pytest.raises(ValueError):
            point_from_json(bad)


# Stored values the writer must spell as json does: -0.0, subnormals,
# +-1e+-300, NaN and +-inf, and any other float.
_stored_value = st.one_of(
    st.sampled_from(
        [-0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1e300, -1e300, 1e-300, -1e-300,
         math.nan, math.inf, -math.inf]
    ),
    st.floats(),
)


@st.composite
def _sparse_points(draw):
    """Points built by ``L1Vector.from_sparse``: runs of stored entries after
    gaps of unstored zeros (the first gap leading), then a short or a long
    unstored tail; no run and no tail gives the empty vector."""
    idx, val, end = [], [], 0
    for gap, run in draw(st.lists(st.tuples(st.integers(0, 20), st.integers(1, 6)), max_size=8)):
        idx += range(end + gap, end + gap + run)
        val += draw(st.lists(_stored_value, min_size=run, max_size=run))
        end += gap + run
    length = end + draw(st.one_of(st.integers(0, 3), st.integers(100, 2000)))
    scalar = draw(st.one_of(st.sampled_from([0.0, -0.0]), st.floats()))
    return ProductPoint(scalar, L1Vector.from_sparse(idx, val, length))


class TestWritePointJson:
    @given(_sparse_points())
    @example(ProductPoint(-0.0, L1Vector.from_sparse([], [], 0)))
    @example(ProductPoint(0.0, L1Vector.from_sparse([], [], 5)))
    @example(ProductPoint(0.5, L1Vector.from_sparse([0, 3, 4], [-0.0, math.nan, math.inf], 9)))
    def test_bytes_are_the_dense_dump(self, p):
        """The sparse writer spells exactly what json makes of the dense form."""
        fh = io.StringIO()
        write_point_json(fh, p)
        assert fh.getvalue() == json.dumps(point_to_json(p), sort_keys=True)


# ---------------------------------------------------------------------------
# dense oracle: the sparse vector must reproduce these loops bit for bit
# ---------------------------------------------------------------------------


def _pad(a, n):
    return tuple(a) + (0.0,) * (n - len(a))


def _dense_add(a, b):
    n = max(len(a), len(b))
    return tuple(x + y for x, y in zip(_pad(a, n), _pad(b, n)))


def _dense_sub(a, b):
    n = max(len(a), len(b))
    return tuple(x - y for x, y in zip(_pad(a, n), _pad(b, n)))


def _dense_mul(a, t):
    return tuple(t * c for c in a)


def _dense_norm(a):
    total = 0.0
    for c in a:
        total += abs(c)
    return total


def _dense_combine(weights, vecs):
    acc = [0.0] * max(len(v) for v in vecs)
    for w, v in zip(weights, vecs):
        for j in range(len(v)):
            acc[j] += w * v[j]
    return tuple(acc)


def _dense_power_t_alpha(alpha, k, a):
    ak = alpha**k
    head = ak * math.sqrt(abs(a[0] if a else 0.0))
    return (0.0,) * k + (head,) + tuple(ak * c for c in a[1:])


def _bits(coords):
    return [struct.pack("d", c) for c in coords]


def _assert_same(vec, dense):
    assert len(vec) == len(dense)
    assert _bits(vec.coords) == _bits(dense)


# Leading, interior and trailing zeros of both signs, tiny values whose
# products underflow, and ordinary coordinates.
_oracle_coord = st.one_of(
    st.just(0.0),
    st.just(-0.0),
    st.floats(min_value=-1e-300, max_value=1e-300),
    st.floats(min_value=-10.0, max_value=10.0),
)


@st.composite
def _mostly_zeros(draw, coord):
    """100 to 400 coordinates, +0.0 but for up to 80 drawn from ``coord``
    at drawn positions: long vectors, mostly zeros like a run's state, that
    store from none to 80 entries."""
    dense = [0.0] * draw(st.integers(100, 400))
    k = draw(st.integers(0, 80))
    positions = st.integers(0, len(dense) - 1)
    for i, c in draw(st.lists(st.tuples(positions, coord), min_size=k, max_size=k)):
        dense[i] = c
    return tuple(dense)


def _short_or_long(coord, short_max, long_coord=None):
    return st.one_of(
        st.lists(coord, max_size=short_max).map(tuple),
        _mostly_zeros(coord if long_coord is None else long_coord),
    )


_dense = _short_or_long(_oracle_coord, 10)
# Within the unit ball: 8 entries of at most 0.12, or 80 of at most 0.012.
_dense_ball = _short_or_long(
    st.one_of(st.just(0.0), st.just(-0.0), st.floats(-0.12, 0.12)),
    8,
    st.one_of(st.just(0.0), st.just(-0.0), st.floats(-0.012, 0.012)),
)


class TestDenseOracle:
    @given(_dense, _dense)
    def test_add_and_sub(self, a, b):
        _assert_same(L1Vector(a) + L1Vector(b), _dense_add(a, b))
        _assert_same(L1Vector(a) - L1Vector(b), _dense_sub(a, b))

    @given(
        _dense,
        st.one_of(
            st.just(0.0), st.just(-0.0), st.floats(allow_nan=False), st.floats(-3.0, 3.0)
        ),
    )
    def test_scalar_multiple(self, a, t):
        _assert_same(L1Vector(a) * t, _dense_mul(a, t))
        _assert_same(t * L1Vector(a), _dense_mul(a, t))

    @given(_dense)
    def test_norm(self, a):
        assert _bits([l1_norm(L1Vector(a))]) == _bits([_dense_norm(a)])

    @given(
        st.lists(st.floats(min_value=0.05, max_value=1.0), min_size=1, max_size=4),
        st.data(),
    )
    def test_convex_combine(self, raw, data):
        total = math.fsum(raw)
        weights = [w / total for w in raw]
        vecs = [data.draw(_dense) for _ in weights]
        pts = [ProductPoint(data.draw(scalars), v) for v in vecs]
        _assert_same(convex_combine(weights, pts).vec, _dense_combine(weights, vecs))

    @given(_dense_ball, st.floats(0.01, 0.99), st.integers(1, 40))
    def test_power_t_alpha(self, a, alpha, k):
        _assert_same(
            power_t_alpha(alpha, k, L1Vector(a)), _dense_power_t_alpha(alpha, k, a)
        )

    @given(scalars, _dense)
    def test_wire_form(self, s, a):
        blob = point_to_json(ProductPoint(s, a))
        assert _bits(blob["vec"]) == _bits(a)
        assert json.dumps(blob) == json.dumps({"scalar": s, "vec": list(a)})

    @given(_dense, _dense)
    def test_equality_and_hash_ignore_trailing_and_signed_zeros(self, a, b):
        n = max(len(a), len(b))
        equal = _pad(a, n) == _pad(b, n)
        assert (L1Vector(a) == L1Vector(b)) == equal
        if equal:
            assert hash(L1Vector(a)) == hash(L1Vector(b))


# Coordinates for the distance kernel: the oracle's, plus subnormals, the
# smallest normal, infinities and NaN.
_wide_coord = st.one_of(
    _oracle_coord,
    st.sampled_from(
        [5e-324, -5e-324, 2.2250738585072014e-308, math.inf, -math.inf, math.nan]
    ),
)
_dense_wide = _short_or_long(_wide_coord, 10)
_wide_scalar = st.one_of(scalars, st.sampled_from([math.inf, -math.inf, math.nan, -0.0]))


# 80 and 60 stored entries, with inf - inf and NaN.  Each property over
# _dense_wide runs this pair first, so a fault on long vectors fails at once
# instead of after a long shrink of a drawn example.
_ARRAY_A = (0.5, -0.0, math.inf, 5e-324) * 20
_ARRAY_B = (0.0, 0.25, math.inf, math.nan) * 20


def _same_float(x, y):
    return (math.isnan(x) and math.isnan(y)) or _bits([x]) == _bits([y])


class TestDistanceKernel:
    """l1_distance and distance against the norm of the built difference."""

    @given(_dense_wide, _dense_wide)
    @example((), ())
    @example((), (1.0, -0.0, 2.0))
    @example((0.5, -0.0, 0.0, 3.0, -1e-310), (0.25,))
    @example((1.0, 0.0, -2.0, 0.0, 0.0, 4.0), (0.5, 3.0))
    @example((math.inf,), (math.inf, 1.0))
    @example(_ARRAY_A, _ARRAY_B)
    def test_l1_distance_is_the_norm_of_the_difference(self, a, b):
        u, v = L1Vector(a), L1Vector(b)
        got = l1_distance(u, v)
        assert _same_float(got, l1_norm(u - v))
        assert _same_float(got, _dense_norm(_dense_sub(a, b)))
        assert _same_float(l1_distance(v, u), l1_norm(v - u))
        assert _same_float(l1_distance(u, u), l1_norm(u - u))

    @given(st.lists(st.tuples(_dense_wide, _dense_wide), max_size=4))
    @example([(_ARRAY_A, _ARRAY_B), ((), ()), ((), (1.0, -0.0)), ((-0.0, 0.0, 0.5), (0.0, 2.0))])
    @example([])
    def test_row_fold_of_block_rows_is_each_pairs_distance(self, pairs):
        # the fold Mapping.gaps takes for each pair's own distance

        def row_fold(us, vs):
            to_points = [[ProductPoint(0.0, v) for v in side] for side in (us, vs)]
            rows_u, rows_v = PairBlock.from_points(*to_points).rows
            with np.errstate(invalid="ignore", over="ignore"):
                return space._left_sum(np.abs(rows_u - rows_v)).tolist()

        us, vs = [L1Vector(a) for a, _ in pairs], [L1Vector(b) for _, b in pairs]
        got = row_fold(us, vs)
        assert len(got) == len(pairs)
        assert all(_same_float(g, l1_distance(u, v)) for g, u, v in zip(got, us, vs))
        got_self = row_fold(us, us)
        assert all(_same_float(g, l1_distance(u, u)) for g, u in zip(got_self, us))

    def test_array_branch_of_a_vector_with_no_stored_entry(self):
        # a vector that stores nothing gives the array pass an empty axis,
        # whose fold is +0.0, as the dense loop's
        empty, zeros = L1Vector(()), L1Vector((0.0, 0.0))
        got = [l1_norm(empty), l1_norm(zeros), l1_distance(empty, zeros),
               l1_distance(L1Vector((-0.0,)), empty), distance(ProductPoint(0.0), ProductPoint(-0.0))]
        assert _bits(got) == _bits([0.0] * 5)
        assert _bits([l1_distance(empty, L1Vector((0.0, -2.0)))]) == _bits([2.0])

    @given(_wide_scalar, _dense_wide, _wide_scalar, _dense_wide)
    @example(0.0, (), -0.0, ())
    @example(0.5, _ARRAY_A, -0.0, _ARRAY_B)
    def test_distance_is_the_product_norm_of_the_difference(self, s, a, t, b):
        p, q = ProductPoint(s, a), ProductPoint(t, b)
        assert _same_float(distance(p, q), product_norm(p - q))


class TestPairBlock:
    """PairBlock.from_points, and pairs(), its way back."""

    @given(st.lists(st.tuples(_wide_scalar, _dense_wide, _wide_scalar, _dense_wide), max_size=4))
    @example([(0.5, _ARRAY_A, -0.0, _ARRAY_B), (math.nan, (), 5e-324, (0.0, -0.0, 0.0, 0.0))])
    @example([(-0.0, (0.0, 0.0, -5e-324, 0.0, 1.0, 0.0), 1.0, (-0.0,)), (0.0, (), 0.0, ())])
    @example([])
    def test_points_round_trip_bit_for_bit(self, pairs):
        xs = [ProductPoint(s, a) for s, a, _, _ in pairs]
        ys = [ProductPoint(t, b) for _, _, t, b in pairs]
        block = PairBlock.from_points(xs, ys)
        # column c holds index c, up to the largest stored, and at least one
        stored = [int(p.vec.idx[-1]) for p in (*xs, *ys) if len(p.vec.idx)]
        assert block.rows.shape == (2, len(pairs), 1 + max(stored, default=0))
        got = [p for pair in block.pairs() for p in pair]
        want = [p for pair in zip(xs, ys) for p in pair]
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert _bits([g.scalar]) == _bits([w.scalar])
            assert g.vec.idx.tolist() == w.vec.idx.tolist()
            assert g.vec.val.tobytes() == w.vec.val.tobytes()
            assert len(g.vec) == len(w.vec)


class TestNormMemo:
    @given(_dense_wide, _dense_wide)
    @example(_ARRAY_A, _ARRAY_B)
    def test_every_call_gives_the_bits_of_the_sum(self, a, b):
        u, v = L1Vector(a), L1Vector(b)
        first_u, first_v = l1_norm(u), l1_norm(v)
        for vec, first, dense in ((u, first_u, a), (v, first_v, b)):
            assert _same_float(first, _dense_norm(dense))
            assert _same_float(l1_norm(vec), first)
            assert _same_float(product_norm(ProductPoint(0.0, vec)), first)

    @given(_dense, _dense)
    def test_value_semantics_survive_the_memo(self, a, b):
        u, v = L1Vector(a), L1Vector(b)
        equal_before, hashes_before = u == v, (hash(u), hash(v))
        l1_norm(u)
        assert (u == v) == equal_before
        assert (hash(u), hash(v)) == hashes_before
        assert u == L1Vector(a) and hash(u) == hash(L1Vector(a))

    def test_vectors_stay_frozen_after_the_memo(self):
        v = L1Vector((1.0, -2.0))
        assert l1_norm(v) == 3.0
        with pytest.raises(FrozenInstanceError):
            v.val = (5.0,)
        with pytest.raises(FrozenInstanceError):
            v._norm = 0.0
        assert l1_norm(v) == 3.0 and v.val.tolist() == [1.0, -2.0]

    def test_each_vector_is_summed_once(self, monkeypatch):
        sums = []

        def counted(coords):
            sums.append(1)
            return _dense_norm(coords)

        monkeypatch.setattr(space, "_abs_sum", counted)
        u, v = L1Vector((1.0, -2.0)), L1Vector((1.0, -2.0))
        assert [l1_norm(u), l1_norm(u), l1_norm(v), l1_norm(u)] == [3.0] * 4
        assert len(sums) == 2


class TestPythonFloats:
    """Every float a kernel returns is a Python float, never np.float64,
    whose repr under numpy 2 is 'np.float64(0.5)': the CSV writer formats
    floats by repr."""

    @given(_dense_wide, _dense_wide)
    @example(_ARRAY_A, _ARRAY_B)
    def test_space_kernels(self, a, b):
        u, v = L1Vector(a), L1Vector(b)
        p, q = ProductPoint(0.5, u), ProductPoint(-0.25, v)
        mid = convex_combine((0.5, 0.5), (p, q))
        got = [
            l1_norm(u), l1_distance(u, v), l1_distance(u, u),
            distance(p, q), product_norm(p), u.first, mid.scalar,
            *u.val.tolist(), *u.coords, *mid.vec.val.tolist(), *point_to_json(p)["vec"],
        ]
        assert all(type(x) is float for x in got)
        assert all(type(i) is int for i in u.idx.tolist() + mid.vec.idx.tolist())

    @given(_dense_ball, _dense_ball, st.floats(0.01, 0.99))
    def test_mapping_kernels(self, a, b, alpha):
        x, y = ProductPoint(0.5, a), ProductPoint(0.25, b)
        s = make_s(alpha)
        image = power_t_alpha(alpha, 3, x.vec)
        scalar, vector, own = s.gaps([1, 3, 3])(PairBlock.from_points([x], [y]))
        assert scalar.dtype == vector.dtype == own.dtype == np.float64
        got = [*image.val.tolist(), iterate_difference_factor(x.vec, y.vec)]
        assert all(type(v) is float for v in got)
