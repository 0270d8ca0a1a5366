"""Tests for the operator zoo: shift-and-root, product embeddings, oscillator."""

import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from commonfix import mappings
from commonfix.errors import DomainViolation, LengthMismatch
from commonfix.mappings import (
    DEFECT_GRID_SIZE,
    OSCILLATOR_DOMAIN,
    OSCILLATOR_HALF_WIDTH,
    UNIT_DOMAIN,
    apply_f_kappa,
    apply_t_alpha,
    check_powers,
    estimate_intermediate_defect,
    identity_profile,
    iterate_difference_factor,
    make_identity,
    make_s,
    make_s_f,
    mapping_from_json,
    nth_power,
    oscillator_defect,
    oscillator_defect_envelope,
    oscillator_defects,
    oscillator_product_profile,
    power_t_alpha,
    shift_root_profile,
)
from commonfix.space import (
    L1Vector,
    PairBlock,
    ProductPoint,
    distance,
    in_set,
    l1_distance,
    l1_norm,
    product_norm,
)

from helpers import sample_pair, sample_point

_TOL = 1e-12

# Coordinates bounded so that ||v||_1 <= 0.9 < 1; iterating T_a with a <= 0.8
# then keeps the norm below 1 with margin, so example generation can never
# trip the domain check by rounding alone.
inball = st.lists(
    st.floats(min_value=-0.15, max_value=0.15, allow_nan=False),
    min_size=0,
    max_size=6,
).map(L1Vector)


class TestShiftRoot:
    def test_single_application(self):
        out = apply_t_alpha(0.5, L1Vector((0.25, 0.4)))
        assert out == L1Vector((0.0, 0.25, 0.2))

    def test_first_coordinate_square_rooted_with_sign_dropped(self):
        out = apply_t_alpha(0.5, L1Vector((-0.25,)))
        assert out == L1Vector((0.0, 0.25))

    def test_zero_vector_is_fixed(self):
        assert apply_t_alpha(0.7, L1Vector(())) == L1Vector(())

    def test_boundary_norm_accepted(self):
        apply_t_alpha(0.5, L1Vector((1.0,)))

    def test_outside_ball_rejected(self):
        with pytest.raises(DomainViolation):
            apply_t_alpha(0.5, L1Vector((0.6, 0.6)))

    def test_nan_coordinate_rejected(self):
        with pytest.raises(DomainViolation):
            power_t_alpha(0.5, 2, L1Vector((float("nan"), 0.1)))

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.3, 1.5])
    def test_factor_outside_open_interval_rejected(self, alpha):
        with pytest.raises(ValueError):
            apply_t_alpha(alpha, L1Vector(()))

    def test_norm_after_application(self):
        # ||T_a v||_1 = a * (||v||_1 - |v_1| + sqrt(|v_1|))
        v = L1Vector((0.25, 0.3, -0.2))
        expected = 0.5 * (0.75 - 0.25 + 0.5)
        assert l1_norm(apply_t_alpha(0.5, v)) == pytest.approx(expected, abs=1e-15)

    def test_ball_invariance_fails_above_four_fifths(self):
        # at v = (1/4, 3/4) the norm factor reaches its maximum 5/4
        v = L1Vector((0.25, 0.75))
        image = apply_t_alpha(0.9, v)
        assert l1_norm(image) == pytest.approx(1.125, abs=1e-15)
        assert not in_set(ProductPoint(0.0, image), UNIT_DOMAIN)
        with pytest.raises(DomainViolation):
            apply_t_alpha(0.9, image)

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
    def test_ball_invariance_up_to_four_fifths(self, alpha):
        rng = np.random.default_rng(20260819)
        for _ in range(500):
            p = sample_point(rng, UNIT_DOMAIN)
            image = apply_t_alpha(alpha, p.vec)
            assert l1_norm(image) <= 1.0


class TestClosedPower:
    def test_closed_form_k2(self):
        out = power_t_alpha(0.5, 2, L1Vector((0.25, 0.4)))
        assert out == L1Vector((0.0, 0.0, 0.125, 0.1))

    def test_k1_equals_single_application(self):
        v = L1Vector((0.3, -0.1, 0.05))
        assert power_t_alpha(0.6, 1, v) == apply_t_alpha(0.6, v)

    @pytest.mark.parametrize("coords", [(), (0.25, 0.0, -0.5, 0.0, 0.125)])
    def test_huge_power_stores_no_shift_zeros(self, coords):
        """The k leading zeros of T_a^k are implicit: only sizes are checked."""
        k = 10**6
        alpha = 1.0 - 1e-7  # alpha**k is about 0.905, far from underflow
        v = L1Vector(coords)
        out = power_t_alpha(alpha, k, v)
        assert len(out) == k + max(len(v), 1)
        assert len(out.idx) <= sum(1 for c in coords if c != 0.0)

    @pytest.mark.parametrize("k", [0, -1, 2.0, "3"])
    def test_power_must_be_positive_integer(self, k):
        with pytest.raises(ValueError):
            power_t_alpha(0.5, k, L1Vector(()))

    @given(inball, st.integers(min_value=1, max_value=20))
    def test_closed_power_matches_iterated_application(self, v, k):
        """T_a^k by formula equals k successive applications within 1e-12."""
        alpha = 0.8
        direct = v
        for _ in range(k):
            direct = apply_t_alpha(alpha, direct)
        closed = power_t_alpha(alpha, k, v)
        assert l1_norm(closed - direct) <= _TOL

    @given(inball, inball, st.integers(min_value=1, max_value=25))
    def test_iterate_difference_identity(self, x, y, k):
        """||T^k x - T^k y||_1 equals its closed expression within 1e-12."""
        alpha = 0.9
        lhs = l1_norm(power_t_alpha(alpha, k, x) - power_t_alpha(alpha, k, y))
        rhs = alpha**k * iterate_difference_factor(x, y)
        assert abs(lhs - rhs) <= _TOL

    @given(inball, inball)
    def test_root_gap_chain(self, x, y):
        """|sqrt|x1| - sqrt|y1|| <= sqrt||x1|-|y1|| <= sqrt(||x-y||_1), each
        within 1e-12."""
        inner = abs(math.sqrt(abs(x.first)) - math.sqrt(abs(y.first)))
        mid = math.sqrt(abs(abs(x.first) - abs(y.first)))
        outer = math.sqrt(l1_norm(x - y))
        assert inner <= mid + _TOL
        assert mid <= outer + _TOL


class TestProductEmbedding:
    def test_scalar_factor_untouched(self):
        p = ProductPoint(0.37, (0.2, 0.1))
        assert nth_power(make_s(0.5), 1, p).scalar == 0.37
        assert nth_power(make_s(0.5), 7, p).scalar == 0.37

    def test_scalar_line_fixed_pointwise(self):
        for x in (0.0, 0.3, 1.0):
            p = ProductPoint(x, ())
            out = nth_power(make_s(0.5), 1, p)
            assert out.scalar == x and out.vec == L1Vector(())

    def test_domain_violation_outside_box(self):
        with pytest.raises(DomainViolation):
            nth_power(make_s(0.5), 1, ProductPoint(1.5, ()))
        with pytest.raises(DomainViolation):
            nth_power(make_s(0.5), 2, ProductPoint(0.5, (0.8, 0.8)))

    def test_t_alpha_embedding_acts_identically_to_s(self):
        p = ProductPoint(0.4, (0.09, -0.2))
        s_map = make_s(0.5)
        t_map = mapping_from_json({"kind": "t_alpha", "alpha": 0.5})
        ps, pt = nth_power(s_map, 1, p), nth_power(t_map, 1, p)
        assert ps.scalar == pt.scalar and ps.vec == pt.vec
        assert t_map.name == "t_alpha(0.5)"


class TestOscillator:
    def test_zero_is_fixed(self):
        assert apply_f_kappa(0.5, 0.0) == 0.0

    def test_peak_of_sine(self):
        # at x = 2 / (5 pi) the argument is 5 pi / 2 and the sine is 1
        x = 2.0 / (5.0 * math.pi)
        assert apply_f_kappa(0.5, x) == pytest.approx(0.5 * x, abs=1e-15)

    def test_interval_endpoint_maps_near_zero(self):
        # sin(pi) in floats is ~1.2e-16
        out = apply_f_kappa(0.5, OSCILLATOR_HALF_WIDTH)
        assert abs(out) < 1e-16

    def test_outside_interval_rejected(self):
        with pytest.raises(DomainViolation):
            apply_f_kappa(0.5, 0.5)

    def test_nan_rejected(self):
        with pytest.raises(DomainViolation):
            apply_f_kappa(0.5, float("nan"))

    @given(
        st.floats(
            min_value=-OSCILLATOR_HALF_WIDTH,
            max_value=OSCILLATOR_HALF_WIDTH,
            allow_nan=False,
        ),
        st.integers(min_value=1, max_value=10),
    )
    def test_magnitude_shrinks_geometrically(self, x, n):
        """|f^n(x)| <= kappa^n / pi within 1e-12."""
        kappa = 0.5
        out = x
        for _ in range(n):
            out = apply_f_kappa(kappa, out)
        assert abs(out) <= kappa**n / math.pi + _TOL

    _STEP_POINTS = st.one_of(
        st.sampled_from(
            [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 5.6e-309,
             OSCILLATOR_HALF_WIDTH, -OSCILLATOR_HALF_WIDTH]
        ),
        st.floats(-OSCILLATOR_HALF_WIDTH, OSCILLATOR_HALF_WIDTH),
        st.floats(-1e-300, 1e-300),
    )

    @given(
        xs=st.lists(_STEP_POINTS, max_size=40),
        kappa=st.sampled_from([0.3, 0.5, 0.7]) | st.floats(0.01, 0.99),
    )
    @example(xs=[0.0, -0.0, 5e-324, -5e-324, OSCILLATOR_HALF_WIDTH, -OSCILLATOR_HALF_WIDTH],
             kappa=0.5)
    def test_array_step_is_the_scalar_step_bit_for_bit(self, xs, kappa):
        got = mappings._f_step(kappa, np.array(xs, dtype=np.float64))
        assert [v.hex() for v in got.tolist()] == [mappings._f_kappa(kappa, x).hex() for x in xs]

    @pytest.mark.parametrize("bad", [math.nan, 0.5, -math.inf, np.nextafter(OSCILLATOR_HALF_WIDTH, 1)])
    def test_array_step_rejects_a_nan_or_escaped_entry(self, bad):
        with pytest.raises(DomainViolation):
            mappings._f_step(0.5, np.array([0.1, 0.0, bad, -0.2]))

    def test_origin_fixed_under_combined_map(self):
        origin = ProductPoint(0.0, ())
        out = nth_power(make_s_f(0.5, 0.5), 40, origin)
        assert out.scalar == 0.0 and out.vec == L1Vector(())

    def test_combined_map_iterates_scalar_and_closes_vector(self):
        p = ProductPoint(0.2, (0.36,))
        out = nth_power(make_s_f(0.5, 0.5), 2, p)
        s = apply_f_kappa(0.5, apply_f_kappa(0.5, 0.2))
        assert out.scalar == s
        assert out.vec == power_t_alpha(0.5, 2, L1Vector((0.36,)))


class TestNthPower:
    @pytest.mark.parametrize(
        "spec",
        [
            {"kind": "identity"},
            {"kind": "t_alpha", "alpha": 0.8},
            {"kind": "s", "alpha": 0.5},
            {"kind": "s_f", "kappa": 0.7, "alpha": 0.8},
        ],
        ids=lambda spec: spec["kind"],
    )
    def test_power_matches_repeated_first_power(self, spec):
        """nth_power(m, k, p) equals k applications of nth_power(m, 1, .):
        the vector factor within 1e-12, the scalar factor bit for bit."""
        mapping = mapping_from_json(spec)
        rng = np.random.default_rng(11)
        for _ in range(20):
            p = sample_point(rng, mapping.domain)
            iterated = p
            for k in range(1, 21):
                iterated = nth_power(mapping, 1, iterated)
                closed = nth_power(mapping, k, p)
                assert closed.scalar == iterated.scalar
                assert l1_norm(closed.vec - iterated.vec) <= _TOL

    def test_validates_input_point_only(self):
        # the k = 1 image of (1/4, 3/4) under T_0.9 leaves the ball, but the
        # input is admissible and the closed form needs nothing more
        out = nth_power(make_s(0.9), 1, ProductPoint(0.0, (0.25, 0.75)))
        assert l1_norm(out.vec) > 1.0

    def test_rejects_input_outside_domain(self):
        with pytest.raises(DomainViolation):
            nth_power(make_s(0.5), 2, ProductPoint(-0.2, ()))
        with pytest.raises(DomainViolation):
            nth_power(make_s_f(0.5, 0.5), 1, ProductPoint(float("nan"), ()))

    def test_rejects_bad_power(self):
        for k in (0, -1, True, 1.0):
            with pytest.raises(ValueError):
                nth_power(make_s(0.5), k, ProductPoint(0.0, ()))

    def test_t_alpha_powers_match_single_powers(self):
        v = L1Vector((0.3, 0.0, -0.2))
        t_alpha = mapping_from_json({"kind": "t_alpha", "alpha": 0.6})
        got = [nth_power(t_alpha, k, ProductPoint(0.5, v)).vec for k in (1, 2, 2, 9)]
        assert got == [power_t_alpha(0.6, k, v) for k in (1, 2, 2, 9)]


@pytest.fixture
def f_calls(monkeypatch):
    """The points at which the array step ``_f_step``, which the orbits of
    ``Mapping.gaps`` and the grid walk advance by, applies f_k: one entry per
    element of each array it is given."""
    calls = []
    f_step = mappings._f_step
    monkeypatch.setattr(
        mappings, "_f_step", lambda kappa, xs: calls.extend(xs.tolist()) or f_step(kappa, xs)
    )
    return calls


class TestPowers:
    """check_powers, which validates the list of powers given to Mapping.gaps."""

    @pytest.mark.parametrize("ks", [(3, 2), (1, 5, 4), (True,), (1, True), (0, 1), (1.0,)])
    def test_rejects_bad_powers(self, ks):
        with pytest.raises(ValueError):
            check_powers(ks)


# Coordinates for the gap route: signed zeros, subnormals and the smallest
# normal float beside ordinary values, at most 6 of them within 0.15, so
# that ||v||_1 <= 0.9.
_TINY = 2.2250738585072014e-308
_GAP_COORDS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, _TINY, -_TINY / 3]),
    st.floats(min_value=-0.15, max_value=0.15),
)


@st.composite
def _gap_pairs(draw):
    """Two points whose vectors have any, equal or disjoint stored supports."""
    x = draw(st.lists(_GAP_COORDS, max_size=6))
    y = draw(st.lists(_GAP_COORDS, max_size=6))
    support = draw(st.sampled_from(["any", "equal", "disjoint"]))
    y += [0.15] * (len(x) - len(y))
    stored = [c != 0.0 or math.copysign(1.0, c) < 0.0 for c in x]
    if support == "equal":
        y = [(b if b != 0.0 else 0.1) if keep else 0.0 for keep, b in zip(stored, y)]
    elif support == "disjoint":
        y = [0.0 if keep else b for keep, b in zip(stored, y)] + y[len(x):]
    scalars = st.sampled_from([0.0, -0.0, 5e-324, 0.3]) | st.floats(-0.3, 0.3)
    return ProductPoint(draw(scalars), x), ProductPoint(draw(scalars), y)


_GAP_KINDS = [
    {"kind": "identity"},
    {"kind": "t_alpha", "alpha": 0.8},
    {"kind": "s", "alpha": 0.5},
    {"kind": "s_f", "kappa": 0.7, "alpha": 0.8},
]


_EMPTY = ProductPoint(0.0, ())


class TestGaps:
    @given(
        spec=st.sampled_from(_GAP_KINDS),
        pairs=st.lists(_gap_pairs(), min_size=1, max_size=5),
        ks=st.sampled_from([(1, 3, 3, 40), range(1, 26), (7,)])
        | st.lists(st.integers(1, 60), min_size=1, max_size=5).map(sorted),
    )
    @example(spec=_GAP_KINDS[2], pairs=[(ProductPoint(0.5, (0.0, 0.2)), ProductPoint(0.5, ()))],
             ks=(1, 3, 3, 40))
    @example(spec=_GAP_KINDS[1], pairs=[(ProductPoint(0.0, (-0.0, 5e-324, -0.0, 0.1)),
                                         ProductPoint(0.0, (5e-324, 0.0, -5e-324))),
                                        (_EMPTY, _EMPTY)], ks=(1, 2))
    @example(spec=_GAP_KINDS[3], pairs=[(ProductPoint(5e-324, ()), ProductPoint(-0.0, ())),
                                        (ProductPoint(0.1, (0.0, 0.0, -0.0)), _EMPTY)],
             ks=(1, 3, 3, 40))
    @example(spec=_GAP_KINDS[0], pairs=[(_EMPTY, ProductPoint(0.5, (0.0, -0.0, 0.1))),
                                        (_EMPTY, _EMPTY)], ks=(2,))
    @settings(max_examples=300)
    def test_equal_distances_of_images_bit_for_bit(self, spec, pairs, ks):
        mapping = mapping_from_json(spec)
        assume(all(in_set(p, mapping.domain) for pair in pairs for p in pair))
        block = PairBlock.from_points([x for x, _ in pairs], [y for _, y in pairs])
        scalar, vec, own = mapping.gaps(ks)(block)
        assert scalar.shape == vec.shape == (len(pairs), len(ks))
        assert own.shape == (len(pairs),)

        def hexes(values):
            return [v.hex() for v in values]

        assert hexes(own.tolist()) == hexes(l1_distance(x.vec, y.vec) for x, y in pairs)
        for (x, y), s_row, v_row in zip(pairs, scalar.tolist(), vec.tolist()):
            tx = [nth_power(mapping, k, x) for k in ks]
            ty = [nth_power(mapping, k, y) for k in ks]
            assert hexes(v_row) == hexes(map(l1_distance, [p.vec for p in tx], [p.vec for p in ty]))
            assert hexes(s_row) == hexes(abs(p.scalar - q.scalar) for p, q in zip(tx, ty))
            assert hexes(s + v for s, v in zip(s_row, v_row)) == hexes(map(distance, tx, ty))

    def test_checks_each_point(self):
        # gaps raises when some point of (*xs, *ys) fails in_set, with the
        # message _check_point gives the first such point
        for spec in _GAP_KINDS:
            mapping = mapping_from_json(spec)
            lo, hi = mapping.domain.scalar_interval
            ok = ProductPoint(hi / 2, (0.1,))
            cases = [  # (xs, ys, some point is outside)
                ([_EMPTY, ok], [_EMPTY, ProductPoint(hi / 2, (0.8, 0.8))], True),
                # norms of exactly the radius, scalars at both ends of the interval
                ([ProductPoint(lo, (0.25, -0.75)), ProductPoint(hi, (1.0,))],
                 [ProductPoint(hi, (0.0, -0.5, 0.5)), ProductPoint(lo, ())], False),
                ([ok], [ProductPoint(hi / 2, (math.nextafter(1.0, 2.0),))], True),
                ([ProductPoint(math.nan, ())], [ok], True),
                ([ok, ProductPoint(hi / 2, (0.1, math.nan))], [ok, ok], True),
                ([ProductPoint(math.nextafter(lo, -2.0), ())], [ok], True),
                ([ok, ok], [ok, ProductPoint(math.nextafter(hi, 2.0), ())], True),
                ([ok, ProductPoint(hi / 2, (0.6, 0.6))], [ProductPoint(math.nan, ()), ok], True),
                ([ok], [ProductPoint(hi / 2, (1e308, 1e308, -math.inf))], True),
            ]
            for xs, ys, outside in cases:
                bad = [p for p in (*xs, *ys) if not in_set(p, mapping.domain)]
                assert bool(bad) == outside
                if not bad:
                    mapping.gaps((1, 2))(PairBlock.from_points(xs, ys))
                    continue
                with pytest.raises(DomainViolation) as want:
                    mapping._check_point(bad[0])
                with pytest.raises(DomainViolation, match=f"^{re.escape(str(want.value))}$"):
                    mapping.gaps((1, 2))(PairBlock.from_points(xs, ys))

    @pytest.mark.parametrize("spec", _GAP_KINDS, ids=lambda spec: spec["kind"])
    def test_leaves_the_rows_as_they_are(self, spec):
        # x_1 gives way to its head in a new array, so a caller that reads the
        # block's x_1 column after the gaps reads x_1 itself
        xs = [ProductPoint(0.1, (0.25, -0.5)), ProductPoint(0.2, (-0.0,))]
        ys = [ProductPoint(0.3, (0.04,)), _EMPTY]
        block = PairBlock.from_points(xs, ys)
        before = block.rows.copy()
        mapping_from_json(spec).gaps((1, 3))(block)
        assert block.rows.tobytes() == before.tobytes()
        assert block.rows[..., 0].tolist() == [[0.25, -0.0], [0.04, 0.0]]

    def test_rejects_sides_of_unequal_length(self):
        with pytest.raises(LengthMismatch):
            make_s(0.5).gaps((1, 2))(PairBlock.from_points([_EMPTY, _EMPTY], [_EMPTY]))

    @pytest.mark.parametrize(
        "ks",
        [(3, 2), (True,), (0, 1), range(0, 3), range(3, 0, -1), (1, 5, 4), (1, True), (1.0,)],
    )
    def test_rejects_bad_powers_before_any_pair(self, ks):
        with pytest.raises(ValueError):
            make_s_f(0.5, 0.5).gaps(ks)

    def test_scalar_orbits_walked_once(self, f_calls):
        block = PairBlock.from_points([ProductPoint(0.2, (0.1,))], [ProductPoint(-0.1, ())])
        make_s_f(0.5, 0.5).gaps(range(1, 26))(block)
        assert len(f_calls) == 2 * 25


class TestDefectEstimator:
    def test_nonexpansive_map_has_zero_defect(self):
        est = estimate_intermediate_defect(lambda x: 0.5 * x, (-1.0, 1.0), 1, 101)
        assert est == 0.0

    def test_identity_has_zero_defect(self):
        est = estimate_intermediate_defect(lambda x: x, (0.0, 1.0), 3, 51)
        assert est == 0.0

    def test_doubling_map_defect_exact(self):
        # sup(|2x - 2y| - |x - y|) = 1 on [0, 1], attained at the endpoints
        assert estimate_intermediate_defect(lambda x: 2.0 * x, (0.0, 1.0), 1, 3) == 1.0
        assert estimate_intermediate_defect(lambda x: 2.0 * x, (0.0, 1.0), 2, 3) == 3.0

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            estimate_intermediate_defect(lambda x: x, (0.0, 1.0), 0, 11)
        with pytest.raises(ValueError):
            estimate_intermediate_defect(lambda x: x, (0.0, 1.0), 1, 1)
        with pytest.raises(ValueError):
            estimate_intermediate_defect(lambda x: x, (1.0, 1.0), 1, 11)

    @pytest.mark.parametrize("kappa", [0.3, 0.5])
    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_oscillator_defect_within_envelope(self, kappa, n):
        est = oscillator_defect(kappa, n)
        assert 0.0 <= est <= oscillator_defect_envelope(kappa, n) + _TOL

    def test_oscillator_defect_frozen_values(self):
        # grid 2001, kappa = 0.5; frozen from an independent evaluation
        assert oscillator_defect(0.5, 1) == pytest.approx(9.212991e-2, rel=1e-5)
        assert oscillator_defect(0.5, 5) == pytest.approx(5.284504e-3, rel=1e-5)
        assert oscillator_defect(0.5, 10) == 0.0
        assert oscillator_defect(0.5, 20) == 0.0

    def test_cache_returns_identical_object(self):
        a = oscillator_defect(0.5, 3)
        b = oscillator_defect(0.5, 3)
        assert a == b
        direct = estimate_intermediate_defect(
            lambda x: apply_f_kappa(0.5, x),
            (-OSCILLATOR_HALF_WIDTH, OSCILLATOR_HALF_WIDTH),
            3,
            DEFECT_GRID_SIZE,
        )
        assert a == direct


class TestOscillatorDefectOrbit:
    GRID = 257

    def test_one_orbit_serves_every_power(self, f_calls):
        got = oscillator_defects(0.5, (25, 3, 7), self.GRID)
        assert len(f_calls) == 25 * self.GRID
        interval = (-OSCILLATOR_HALF_WIDTH, OSCILLATOR_HALF_WIDTH)
        for n, value in zip((25, 3, 7), got):
            direct = estimate_intermediate_defect(
                lambda x: apply_f_kappa(0.5, x), interval, n, self.GRID
            )
            assert value.hex() == direct.hex()
        # the one-power form is cached; conftest empties the cache before each test
        assert oscillator_defect(0.5, 7, self.GRID) == got[2]
        assert oscillator_defect(0.5, 7, self.GRID) == got[2]
        info = oscillator_defect.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    @pytest.mark.parametrize("powers", [[], range(3, 1)])
    def test_no_powers_raise(self, powers):
        with pytest.raises(ValueError):
            oscillator_defects(0.5, powers, self.GRID)

    def test_bad_arguments_raise_and_are_not_cached(self):
        oscillator_defect(0.3, 1, self.GRID)
        # True must not hit the cached n = 1, nor 257.0 the entries of 257;
        # each bad call raises again
        g = self.GRID
        bad = [(1.5, 2, g), (0.3, 0, g), (0.3, True, g), (0.5, 2, 1), (0.3, 2, float(g))]
        for args in bad * 2:
            with pytest.raises(ValueError):
                oscillator_defect(*args)
        assert oscillator_defect(0.3, 2, self.GRID) == estimate_intermediate_defect(
            lambda x: apply_f_kappa(0.3, x),
            (-OSCILLATOR_HALF_WIDTH, OSCILLATOR_HALF_WIDTH),
            2,
            self.GRID,
        )


def _pair_matrix_defect(f, interval, n, grid_size):
    """The O(G^2) reference: re-iterate the grid n times, scan every pair."""
    xs = np.linspace(*interval, grid_size)
    fn = np.array([float(v) for v in xs])
    for _ in range(n):
        fn = np.array([f(float(v)) for v in fn])
    gap = np.abs(fn[:, None] - fn[None, :]) - np.abs(xs[:, None] - xs[None, :])
    return max(0.0, float(gap.max())), fn, xs


def _clipped(poly, lo, hi):
    return lambda x: min(hi, max(lo, poly(x)))


_scalar_maps = st.one_of(
    st.builds(
        lambda a, b: (lambda x: a * x + b),
        st.floats(-2.0, 2.0),
        st.floats(-1.0, 1.0),
    ),
    st.builds(
        lambda c0, c1, c2, c3: _clipped(
            lambda x: c0 + x * (c1 + x * (c2 + x * c3)), -3.0, 3.0
        ),
        st.floats(-1.0, 1.0),
        st.floats(-3.0, 3.0),
        st.floats(-3.0, 3.0),
        st.floats(-3.0, 3.0),
    ),
    st.builds(
        lambda kappa: (lambda x: apply_f_kappa(kappa, x)),
        st.floats(0.05, 0.95),
    ),
)


class TestDefectPrefixScan:
    """The O(G) prefix scan against the O(G^2) pair matrix it replaced."""

    @given(
        f=_scalar_maps,
        lo=st.floats(-OSCILLATOR_HALF_WIDTH, OSCILLATOR_HALF_WIDTH - 1e-3),
        width=st.floats(1e-3, 2.0 * OSCILLATOR_HALF_WIDTH),
        powers=st.lists(st.integers(1, 8), min_size=1, max_size=4),
        grid_size=st.integers(2, 64),
    )
    def test_matches_pair_matrix(self, f, lo, width, powers, grid_size):
        # inside [-1/pi, 1/pi], so the oscillator never leaves its domain
        hi = min(lo + width, OSCILLATOR_HALF_WIDTH)
        for n in powers:
            est = estimate_intermediate_defect(f, (lo, hi), n, grid_size)
            ref, fn, xs = _pair_matrix_defect(f, (lo, hi), n, grid_size)
            scale = float(np.abs(fn).max() + np.abs(xs).max())
            assert abs(est - ref) <= 8 * np.finfo(float).eps * scale

    def test_evaluates_grid_times_max_power(self):
        calls = []

        def f(x):
            calls.append(x)
            return 0.5 * x

        estimate_intermediate_defect(f, (0.0, 1.0), 7, 11)
        assert len(calls) == 11 * 7

    @pytest.mark.parametrize("powers", [[True], [2, False], [0], [1.0]])
    def test_rejects_non_integer_powers(self, powers):
        with pytest.raises(ValueError):
            for n in powers:
                estimate_intermediate_defect(lambda x: x, (0.0, 1.0), n, 11)

    def test_single_power_rejects_bool(self):
        with pytest.raises(ValueError):
            estimate_intermediate_defect(lambda x: x, (0.0, 1.0), True, 11)

    def test_defect_grid_table_frozen(self):
        # kappa = 0.5, G = 3001, n = 1..20, as the O(G^2) pair scan gave them
        reference = (
            0.09213056519777091,
            0.06977634102257982,
            0.03820560528941487,
            0.016799160745432598,
            0.006197733212614204,
            0.0023714716556128275,
            0.0006652709472340885,
            0.0001638621238991781,
        ) + (0.0,) * 12
        got = [oscillator_defect(0.5, n, 3001) for n in range(1, 21)]
        for est, ref in zip(got, reference):
            assert abs(est - ref) <= 1e-9 * abs(ref) + 1e-14

    def test_grid_beyond_pair_matrix_reach(self):
        # a pair matrix at G = 100,001 would take 80 GB
        for n in (1, 2, 3):
            est = oscillator_defect(0.5, n, 100_001)
            assert 0.0 < est <= oscillator_defect_envelope(0.5, n)


class TestProfiles:
    def test_shift_root_profile_values(self):
        prof = shift_root_profile(0.5)
        assert prof.mu(3) == 0.125
        assert prof.lam(7) == 0.0
        assert prof.phi(4.0) == 6.0
        assert prof.phi(0.0) == 0.0
        assert prof.linear_bound == (1.0, 2.0)

    def test_phi_affine_envelope_constants(self):
        # phi(t) = t + sqrt(t) <= 2t for every t >= 1
        prof = shift_root_profile(0.3)
        m, m_star = prof.linear_bound
        for t in (1.0, 1.5, 4.0, 100.0):
            assert prof.phi(t) <= m_star * t
        assert m == 1.0

    def test_identity_profile_is_exact(self):
        prof = identity_profile()
        assert prof.mu(1) == 0.0 and prof.lam(1) == 0.0
        assert prof.phi(2.5) == 2.5

    def test_oscillator_profile_lam_is_the_envelope(self):
        prof = oscillator_product_profile(0.5, 0.5)
        for n in range(1, 26):
            assert prof.lam(n) == oscillator_defect_envelope(0.5, n)
            assert prof.lam(n) >= oscillator_defect(0.5, n)
        assert prof.mu(5) == 0.5**5

    @pytest.mark.parametrize("kappa", [0.3, 0.5, 0.7, 0.999])
    def test_float_orbit_keeps_its_margin_under_the_envelope(self, kappa):
        """|f_k^n x| <= 0.683 k^n / pi on the domain, float steps included:
        the margin that lets the unpadded envelope bound the float orbit."""
        xs = np.concatenate(
            [np.linspace(-1 / math.pi, 1 / math.pi, 20001), [1 / 4.4934, -1 / 4.4934]]
        )
        for n in range(1, 61):
            xs = mappings._f_step(kappa, xs)
            assert np.abs(xs).max() <= 0.683 * oscillator_defect_envelope(kappa, n) / 2


class TestGradualRelaxationSampled:
    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.9])
    def test_power_growth_within_profile(self, alpha):
        """||S^n x - S^n y|| <= d + mu_n (d + sqrt d) for seeded pairs.

        Uses the closed power, which is valid for every alpha in (0, 1)
        regardless of ball invariance.
        """
        rng = np.random.default_rng(711)
        mapping = make_s(alpha)
        prof = mapping.profile
        for _ in range(60):
            x, y = sample_pair(rng, UNIT_DOMAIN)
            d = product_norm(x - y)
            for n in (1, 4, 12):
                lhs = product_norm(nth_power(mapping, n, x) - nth_power(mapping, n, y))
                assert lhs <= d + prof.mu(n) * prof.phi(d) + prof.lam(n) + _TOL


class TestJsonConstruction:
    def test_each_kind(self):
        assert mapping_from_json({"kind": "identity"}).name == "identity"
        assert mapping_from_json({"kind": "s", "alpha": 0.5}).name == "s(0.5)"
        assert (
            mapping_from_json({"kind": "t_alpha", "alpha": 0.4}).name == "t_alpha(0.4)"
        )
        sf = mapping_from_json({"kind": "s_f", "kappa": 0.5, "alpha": 0.5})
        assert sf.name == "s_f(0.5,0.5)"
        assert sf.domain == OSCILLATOR_DOMAIN

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown mapping kind"):
            mapping_from_json({"kind": "rotation"})

    @pytest.mark.parametrize("kind", [["s"], {"s": 1}])
    def test_kind_not_a_string(self, kind):
        # an unhashable kind used to escape as TypeError
        with pytest.raises(ValueError, match="unknown mapping kind"):
            mapping_from_json({"kind": kind, "alpha": 0.5})

    def test_missing_parameter(self):
        with pytest.raises(ValueError, match="alpha"):
            mapping_from_json({"kind": "s"})

    def test_non_object_spec(self):
        with pytest.raises(ValueError):
            mapping_from_json("s")

    def test_identity_fixes_everything(self):
        ident = make_identity()
        p = ProductPoint(0.62, (0.1, -0.2))
        assert nth_power(ident, 9, p) is p


def test_every_exported_name_resolves():
    import commonfix

    missing = [name for name in commonfix.__all__ if not hasattr(commonfix, name)]
    assert missing == []
