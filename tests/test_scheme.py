"""Tests for weight schedules, iteration steps, runs, and trace output."""

import dataclasses
import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from commonfix import scheme
from commonfix.errors import (
    DomainViolation,
    InfeasibleSchedule,
    LengthMismatch,
    WeightSumViolation,
)
from commonfix.mappings import (
    OSCILLATOR_DOMAIN,
    UNIT_DOMAIN,
    FixedSetDescriptor,
    make_identity,
    make_s,
    make_s_f,
    mapping_from_json,
    power_t_alpha,
)
from commonfix.scheme import (
    IterationConfig,
    WeightSchedule,
    distance_to_fixset,
    make_schedule,
    run,
    step,
    write_states_jsonl,
    write_trace_csv,
)
from commonfix.space import L1Vector, ProductPoint, l1_norm, product_norm

from helpers import read_trace_csv, reference_step

BOUNDS = (0.05, 0.95)


def _pair_config(factor=0.5, x0=ProductPoint(0.0, (1.0,)), **kw):
    """m = 1 family T = S(factor), I = identity, both stages weighted 1/2."""
    sched = make_schedule("constant", 1, BOUNDS)
    defaults = dict(
        t_family=(make_s(factor),),
        i_family=(make_identity(),),
        alpha=sched,
        beta=sched,
        x0=x0,
    )
    defaults.update(kw)
    return IterationConfig(**defaults)


class TestMakeSchedule:
    def test_constant_thirds(self):
        sched = make_schedule("constant", 2, BOUNDS)
        w = sched.weights
        assert w == (1.0 / 3.0,) * 3
        assert abs(math.fsum(w) - 1.0) <= 1e-12

    def test_constant_with_error_slot(self):
        sched = make_schedule("constant", 1, BOUNDS, includes_error_term=True)
        assert sched.weights == (1.0 / 3.0,) * 3

    def test_constant_weight_must_respect_bounds(self):
        # 1/10 drops below a lower bound of 0.2
        with pytest.raises(InfeasibleSchedule):
            make_schedule("constant", 9, (0.2, 0.9))

    def test_custom_weight_list(self):
        sched = make_schedule("custom", 1, BOUNDS, weights=(0.25, 0.75))
        assert sched.weights == (0.25, 0.75)

    def test_custom_list_wrong_slot_count(self):
        with pytest.raises(LengthMismatch):
            make_schedule("custom", 2, BOUNDS, weights=(0.5, 0.5))

    def test_custom_list_bad_sum(self):
        with pytest.raises(WeightSumViolation):
            make_schedule("custom", 1, BOUNDS, weights=(0.45, 0.45))

    def test_custom_list_nonpositive_weight(self):
        with pytest.raises(WeightSumViolation):
            make_schedule("custom", 1, BOUNDS, weights=(1.2, -0.2))

    def test_custom_list_outside_bounds(self):
        with pytest.raises(InfeasibleSchedule):
            make_schedule("custom", 1, (0.3, 0.7), weights=(0.25, 0.75))

    def test_custom_needs_exactly_one_source(self):
        with pytest.raises(InfeasibleSchedule, match="'weights'") as err:
            make_schedule("custom", 1, BOUNDS)
        assert "values" not in str(err.value)

    def test_bad_bounds(self):
        with pytest.raises(InfeasibleSchedule):
            make_schedule("constant", 1, (0.0, 0.9))
        with pytest.raises(InfeasibleSchedule):
            make_schedule("constant", 1, (0.9, 0.1))

    def test_bad_family_size(self):
        with pytest.raises(InfeasibleSchedule):
            make_schedule("constant", 0, BOUNDS)

    def test_unknown_kind(self):
        with pytest.raises(InfeasibleSchedule):
            make_schedule("adaptive", 1, BOUNDS)

    @pytest.mark.parametrize(
        "weights, error",
        [((0.96, 0.04), InfeasibleSchedule), ((0.6, 0.6), WeightSumViolation)],
        ids=["box", "simplex"],
    )
    def test_direct_schedule_checked_at_construction(self, weights, error):
        # built without make_schedule, and refused before any step uses it
        with pytest.raises(error):
            WeightSchedule(weights, BOUNDS)


class TestStep:
    def test_hand_computed_first_step(self):
        cfg = _pair_config()
        x_next, record = step(cfg.x0, 1, cfg)
        y = record.y
        # identity partner and equal weights leave y = x exactly
        assert y.scalar == 0.0 and y.vec == L1Vector((1.0,))
        assert x_next.vec == L1Vector((0.5, 0.25))

    def test_second_step_uses_squared_power(self):
        cfg = _pair_config()
        x2, _ = step(cfg.x0, 1, cfg)
        x3, _ = step(x2, 2, cfg)
        expected_vec = 0.5 * x2.vec + 0.5 * power_t_alpha(0.5, 2, x2.vec)
        assert l1_norm(x3.vec - expected_vec) == 0.0

    def test_scalar_factor_preserved_exactly(self):
        cfg = _pair_config(x0=ProductPoint(0.7, (0.3,)))
        x_next, record = step(cfg.x0, 1, cfg)
        assert record.y.scalar == 0.7 and x_next.scalar == 0.7

    def test_escaping_iterate_raises_rather_than_clamps(self):
        # alpha = 0.9 breaks ball invariance at (1/4, 3/4)
        cfg = _pair_config(factor=0.9, x0=ProductPoint(0.0, (0.25, 0.75)))
        with pytest.raises(DomainViolation, match="step 1"):
            step(cfg.x0, 1, cfg)


# The frame step against the composed reference_step: random families over
# the four map kinds, with and without u and v, stored -0.0 and 5e-324, and
# any start index, so that x may lack index 0 while u stores it.  A case is
# plain data, built into a config by _frame_case.

_MAKERS = {
    "identity": lambda a, k, domain: make_identity(domain),
    "s": lambda a, k, domain: make_s(a),
    "t_alpha": lambda a, k, domain: mapping_from_json({"kind": "t_alpha", "alpha": a}),
    "s_f": lambda a, k, domain: make_s_f(k, a),
}
_ENTRIES = st.one_of(st.sampled_from([-0.0, 5e-324, -5e-324]), st.floats(-0.2, 0.2))


@st.composite
def _frame_specs(draw):
    """{"osc", "t", "i", "alpha", "beta", "x0", "errors", "n0", "x", "count"}:
    maps as (kind, alpha, kappa), weights as integer shares, points as
    (scalar, indices, values, length)."""
    osc = draw(st.booleans())
    kinds = ("identity", "s_f") if osc else ("identity", "s", "t_alpha")
    lo, hi = (OSCILLATOR_DOMAIN if osc else UNIT_DOMAIN).scalar_interval
    factor = st.floats(0.05, 0.99)
    m = draw(st.integers(1, 3))
    perturbed = draw(st.booleans())

    def family():
        return [(draw(st.sampled_from(kinds)), draw(factor), draw(factor)) for _ in range(m)]

    def shares():
        return [draw(st.integers(1, 20)) for _ in range(m + 1 + perturbed)]

    def point(past=0.0):
        idx = sorted(draw(st.sets(st.integers(0, 12), max_size=5)))
        length = (idx[-1] + 1 if idx else 0) + draw(st.integers(0, 2))
        return draw(st.floats(lo, hi + past)), idx, [draw(_ENTRIES) for _ in idx], length

    return dict(
        osc=osc, t=family(), i=family(), alpha=shares(), beta=shares(), x0=point(),
        errors=[point(), point()] if perturbed else None,
        n0=draw(st.integers(1, 5)), x=point(past=0.5), count=draw(st.integers(1, 40)),
    )


def _spec_point(scalar, idx, values, length):
    return ProductPoint(scalar, L1Vector.from_sparse(idx, values, length))


def _frame_case(spec):
    """(config, first step index, start point, step count) of a spec."""
    domain = OSCILLATOR_DOMAIN if spec["osc"] else UNIT_DOMAIN
    t_family, i_family = (
        tuple(_MAKERS[kind](a, k, domain) for kind, a, k in spec[key]) for key in "ti"
    )
    alpha, beta = (
        WeightSchedule(tuple(c / sum(spec[key]) for c in spec[key]), (1e-3, 1 - 1e-3))
        for key in ("alpha", "beta")
    )
    errors = spec["errors"] and tuple(_spec_point(*p) for p in spec["errors"])
    cfg = IterationConfig(
        t_family, i_family, alpha, beta, _spec_point(*spec["x0"]), errors=errors
    )
    return cfg, spec["n0"], _spec_point(*spec["x"]), spec["count"]


def _point_bits(p):
    return p.scalar.hex(), p.vec.idx.tobytes(), p.vec.val.tobytes(), len(p.vec)


def _record_bits(r):
    floats = (r.step_norm, *r.t_defects, *r.i_defects, r.dist_to_fixset, r.dist_to_ref)
    return r.n, _point_bits(r.x), _point_bits(r.y), [None if f is None else f.hex() for f in floats]


def _steps(stepper, cfg, n0, x, count):
    """The records of ``count`` steps from x at n0 and the final point, or
    the records up to an exception and its type and message."""
    records = []
    for n in range(n0, n0 + count):
        try:
            x, record = stepper(x, n, cfg)
        except Exception as exc:
            return records, (type(exc), str(exc))
        records.append(_record_bits(record))
    return records, _point_bits(x)


# s(0.5) with an identity partner, weighted 1/2, 1/2, from (0.5, (0, -0.0))
_SIGNED_ZERO = dict(
    osc=False, t=[("s", 0.5, 0.5)], i=[("identity", 0.5, 0.5)], alpha=[1, 1], beta=[1, 1],
    x0=(0.5, [1], [-0.0], 2), errors=None, n0=1, x=(0.5, [1], [-0.0], 2), count=3,
)


class TestFrameStep:
    @given(_frame_specs())
    @settings(max_examples=150)
    # y_1 = x_1 / 2 + x_1 / 2 sums -0.0 from +0.0, so it stores nothing there
    @example(_SIGNED_ZERO)
    # at n = 2 the frame holds index 0 (u) and 3 (v moved) but not 2, where
    # a stored x_1 would head; x stores index 5 only
    @example(dict(_SIGNED_ZERO, alpha=[1, 1, 1], beta=[1, 1, 1], n0=2, x=(0.5, [5], [0.3], 6),
                  errors=[(0.5, [0], [0.1], 1), (0.5, [1], [0.2], 2)]))
    def test_equals_the_composed_step_bit_for_bit(self, spec):
        cfg, n0, x, count = _frame_case(spec)
        want = _steps(reference_step, cfg, 1, cfg.x0, count)
        assert _steps(step, cfg, 1, cfg.x0, count) == want
        # any start point at any step, inside the domain or not
        want = _steps(reference_step, cfg, n0, x, count)
        assert _steps(step, cfg, n0, x, count) == want


class TestStepWithErrors:
    def _cfg(self, u, v):
        sched = make_schedule("constant", 1, BOUNDS, includes_error_term=True)
        return IterationConfig(
            t_family=(make_s(0.5),),
            i_family=(make_identity(),),
            alpha=sched,
            beta=sched,
            x0=ProductPoint(0.0, (1.0,)),
            errors=(u, v),
        )

    def test_perturbation_points_must_be_admissible(self):
        """The config checks u and v when it is built, so no step sees them."""
        bad, good = ProductPoint(2.0, ()), ProductPoint(0.0, ())
        for name, points in (("u", (bad, good)), ("v", (good, bad))):
            with pytest.raises(DomainViolation, match=f"perturbation point {name}"):
                self._cfg(*points)

    def test_error_terms_absorbed_when_equal_to_iterate(self):
        """With u_n = v_n = x_n and the error weight folded back into the
        x slot, the perturbed step equals the plain step within rounding."""
        sched3 = make_schedule(
            "custom",
            1,
            BOUNDS,
            weights=(0.25, 0.5, 0.25),
            includes_error_term=True,
        )
        x = ProductPoint(0.3, (0.5, -0.2))
        cfg3 = IterationConfig(
            t_family=(make_s(0.5),),
            i_family=(make_identity(),),
            alpha=sched3,
            beta=sched3,
            x0=x,
            errors=(x, x),
        )
        cfg2 = _pair_config(x0=x)
        perturbed, _ = step(x, 2, cfg3)
        plain, _ = step(x, 2, cfg2)
        assert product_norm(perturbed - plain) <= 1e-14

    def test_pull_toward_perturbation_point(self):
        origin = ProductPoint(0.0, ())
        cfg = self._cfg(origin, origin)
        x_next, _ = step(cfg.x0, 1, cfg)
        # one third of the mass sits on the origin, so the norm must drop
        assert product_norm(x_next) < product_norm(cfg.x0)


class TestConfigValidation:
    def test_family_size_mismatch(self):
        with pytest.raises(LengthMismatch):
            _pair_config(i_family=(make_identity(), make_identity()))

    def test_schedule_size_mismatch(self):
        wrong = make_schedule("constant", 2, BOUNDS)
        with pytest.raises(LengthMismatch):
            _pair_config(alpha=wrong, beta=wrong)
        # three weights for one map and no perturbation points, on one stage
        with pytest.raises(LengthMismatch, match="beta schedule has 3 weights, the config needs 2"):
            _pair_config(beta=WeightSchedule((0.25, 0.25, 0.5), BOUNDS))

    def test_error_sequences_require_error_slots(self):
        with pytest.raises(LengthMismatch):
            _pair_config(errors=(ProductPoint(0, ()), ProductPoint(0, ())))

    def test_error_slots_require_error_sequences(self):
        sched = make_schedule("constant", 1, BOUNDS, includes_error_term=True)
        with pytest.raises(LengthMismatch):
            _pair_config(alpha=sched, beta=sched)

    def test_error_slot_needed_on_both_stages(self):
        with_slot = make_schedule("constant", 1, BOUNDS, includes_error_term=True)
        without = make_schedule("constant", 1, BOUNDS)
        with pytest.raises(LengthMismatch):
            _pair_config(
                alpha=with_slot,
                beta=without,
                errors=(ProductPoint(0, ()), ProductPoint(0, ())),
            )

    def test_mixed_domains_rejected(self):
        with pytest.raises(DomainViolation, match="domains disagree"):
            _pair_config(i_family=(make_s_f(0.5, 0.5),))

    def test_start_point_outside_domain(self):
        with pytest.raises(DomainViolation, match="start point"):
            _pair_config(x0=ProductPoint(-0.5, ()))

    @pytest.mark.parametrize(
        "fixed_set",
        [
            FixedSetDescriptor("single_point", point=ProductPoint(5.0, (3.0,))),
            FixedSetDescriptor("scalar_line", interval=(0.5, 2.0)),
        ],
        ids=["point", "segment"],
    )
    def test_fixed_set_outside_domain(self, fixed_set):
        with pytest.raises(DomainViolation, match="fixed-set point"):
            run(_pair_config(fixed_set=fixed_set))

    def test_scalar_line_needs_two_ends(self):
        with pytest.raises(ValueError, match=r"\[lo, hi\]"):
            FixedSetDescriptor("scalar_line", interval=(0.0, 0.5, 1.0))

    def test_nonpositive_tolerance(self):
        with pytest.raises(ValueError):
            _pair_config(tol=0.0)

    def test_bad_step_budget(self):
        with pytest.raises(ValueError):
            _pair_config(max_steps=0)


class TestRun:
    def test_fixed_start_terminates_immediately(self):
        sched = make_schedule("constant", 1, BOUNDS)
        combined = make_s_f(0.5, 0.5)
        cfg = IterationConfig(
            t_family=(combined,),
            i_family=(make_identity(combined.domain),),
            alpha=sched,
            beta=sched,
            x0=ProductPoint(0.0, ()),
        )
        trace = run(cfg)
        assert trace.terminated_by == "tolerance"
        assert len(trace.records) == 1
        assert trace.records[0].step_norm == 0.0
        assert product_norm(trace.final) == 0.0

    def test_record_indices_and_states_are_consistent(self):
        cfg = _pair_config(tol=1e-6)
        trace = run(cfg)
        assert [r.n for r in trace.records] == list(range(1, len(trace.records) + 1))
        assert trace.records[0].x is cfg.x0
        for prev, nxt in zip(trace.records, trace.records[1:]):
            assert product_norm(nxt.x - prev.x) == prev.step_norm
        assert (
            product_norm(trace.final - trace.records[-1].x)
            == trace.records[-1].step_norm
        )

    def _two_member_config(self, perturbed):
        thirds = make_schedule(
            "constant", 2, BOUNDS, includes_error_term=perturbed
        )

        probe = ProductPoint(0.3, (0.1,))
        return IterationConfig(
            t_family=(make_s(0.5), make_s(0.3)),
            i_family=(make_identity(), make_identity()),
            alpha=thirds,
            beta=thirds,
            x0=ProductPoint(0.7, (0.5, 0.5)),
            tol=1e-300,
            max_steps=12,
            errors=(probe, probe) if perturbed else None,
        )

    @pytest.mark.parametrize("perturbed", [False, True])
    def test_each_power_is_evaluated_once_per_step(self, monkeypatch, perturbed):
        """I_i^n(x_n) serves both y_n and the defects, T_i^n is taken at
        y_n and at x_n: 3m power evaluations on the step's frame per step."""
        calls = []
        power = scheme._Frame.power

        def counted(frame, mapping, p):
            calls.append(frame.n)
            return power(frame, mapping, p)

        monkeypatch.setattr(scheme._Frame, "power", counted)
        trace = run(self._two_member_config(perturbed))
        assert len(calls) == 6 * len(trace.records)

    @pytest.mark.parametrize("perturbed", [False, True])
    def test_records_come_from_the_step(self, perturbed):
        """Stepping by hand gives run's records and final point, field for field."""
        fs = FixedSetDescriptor("scalar_line", interval=(0.0, 1.0))
        cfg = dataclasses.replace(self._two_member_config(perturbed), fixed_set=fs)
        trace = run(cfg)
        x = cfg.x0
        for want in trace.records:
            x, got = step(x, want.n, cfg)
            for f in dataclasses.fields(want):
                assert getattr(got, f.name) == getattr(want, f.name), (want.n, f.name)
        assert x == trace.final

    @pytest.mark.parametrize("perturbed", [False, True])
    def test_run_never_expands_the_dense_coordinates(self, monkeypatch, perturbed):
        def dense(self):
            raise AssertionError("dense expansion of an iteration state")

        monkeypatch.setattr(L1Vector, "coords", property(dense))
        trace = run(self._two_member_config(perturbed))
        assert len(trace.records) == 12

    @pytest.mark.parametrize("perturbed", [False, True])
    def test_run_never_builds_a_difference_vector(self, monkeypatch, perturbed):
        """Defects, step norms and both fixed-set distances are measured
        with the fused distance."""

        def subtract(self, other):
            raise AssertionError("difference vector built in run")

        monkeypatch.setattr(L1Vector, "__sub__", subtract)
        fs = FixedSetDescriptor("single_point", point=ProductPoint(0.7, (0.1,)))
        cfg = dataclasses.replace(self._two_member_config(perturbed), fixed_set=fs)
        trace = run(cfg)
        assert len(trace.records) == 12
        assert all(r.dist_to_fixset == r.dist_to_ref > 0.0 for r in trace.records)

    def test_identity_partner_has_zero_defects(self):
        trace = run(_pair_config(tol=1e-4))
        assert all(r.i_defects == (0.0,) for r in trace.records)

    def test_max_steps_termination(self):
        cfg = _pair_config(tol=1e-300, max_steps=5)
        trace = run(cfg)
        assert trace.terminated_by == "max_steps"
        assert len(trace.records) == 5

    def test_two_member_family_converges_to_scalar_line(self):
        thirds = make_schedule("constant", 2, BOUNDS)
        fs = FixedSetDescriptor("scalar_line", interval=(0.0, 1.0))
        cfg = IterationConfig(
            t_family=(make_s(0.5), make_s(0.3)),
            i_family=(make_identity(), make_identity()),
            alpha=thirds,
            beta=thirds,
            x0=ProductPoint(0.7, (0.5, 0.5)),
            tol=1e-8,
            fixed_set=fs,
        )
        trace = run(cfg)
        assert trace.terminated_by == "tolerance"
        assert all(r.x.scalar == 0.7 for r in trace.records)
        assert trace.final.scalar == 0.7
        assert l1_norm(trace.final.vec) < 1e-6
        assert trace.records[-1].dist_to_fixset < trace.records[0].dist_to_fixset
        # reference point is the projection (0.7, 0), so both distances agree
        for r in trace.records:
            assert r.dist_to_ref == r.dist_to_fixset

    def test_perturbed_run_stalls_at_error_floor(self):
        sched = make_schedule("constant", 1, BOUNDS, includes_error_term=True)
        # the probe carries a vector part, so it sits off the fixed set
        probe = ProductPoint(0.3, (0.3,))
        cfg = IterationConfig(
            t_family=(make_s(0.5),),
            i_family=(make_identity(),),
            alpha=sched,
            beta=sched,
            x0=ProductPoint(0.0, (1.0,)),
            tol=1e-10,
            max_steps=200,
            errors=(probe, probe),
            fixed_set=FixedSetDescriptor("scalar_line", interval=(0.0, 1.0)),
        )
        trace = run(cfg)
        # constant-weight perturbations hold the iterate away from the
        # fixed set even after the step norm settles
        assert trace.terminated_by == "tolerance"
        assert trace.records[-1].dist_to_fixset > 0.01


class TestDistances:
    line = FixedSetDescriptor("scalar_line", interval=(0.0, 1.0))

    def test_scalar_inside_interval(self):
        assert distance_to_fixset(ProductPoint(0.5, (0.2,)), self.line) == 0.2

    def test_scalar_above_interval(self):
        assert distance_to_fixset(ProductPoint(1.5, (0.25,)), self.line) == 0.75

    def test_scalar_below_interval(self):
        assert distance_to_fixset(ProductPoint(-0.5, ()), self.line) == 0.5

    def test_single_point_descriptor(self):
        fs = FixedSetDescriptor("single_point", point=ProductPoint(0.0, ()))
        assert distance_to_fixset(ProductPoint(0.25, (0.5,)), fs) == 0.75

    def test_reference_point_projects_start(self):
        cfg = _pair_config(
            x0=ProductPoint(0.7, (0.3,)),
            fixed_set=self.line,
        )
        ref = cfg.reference
        assert ref.scalar == 0.7 and ref.vec == L1Vector(())

    def test_reference_point_none_without_descriptor(self):
        assert _pair_config().reference is None

    def test_reference_point_single_point(self):
        fs = FixedSetDescriptor("single_point", point=ProductPoint(0.1, ()))
        assert _pair_config(fixed_set=fs).reference == fs.point


class TestTraceSerialization:
    def _trace(self):
        return run(
            _pair_config(
                tol=1e-4,
                fixed_set=FixedSetDescriptor("scalar_line", interval=(0.0, 1.0)),
            )
        )

    def test_csv_round_trips_floats_exactly(self, tmp_path):
        trace = self._trace()
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, str(path))
        rows = read_trace_csv(str(path))
        assert len(rows) == len(trace.records)
        for rec, row in zip(trace.records, rows):
            assert row["n"] == rec.n
            assert row["step_norm"] == rec.step_norm
            assert row["dist_to_fixset"] == rec.dist_to_fixset
            assert row["t_defect_1"] == rec.t_defects[0]

    def test_csv_header(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace_csv(self._trace(), str(path))
        header = path.read_text().splitlines()[0]
        assert header == "n,step_norm,dist_to_fixset,dist_to_ref,t_defect_1,i_defect_1"

    def test_missing_distances_become_none(self, tmp_path):
        trace = run(_pair_config(tol=1e-4))
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, str(path))
        rows = read_trace_csv(str(path))
        assert all(row["dist_to_fixset"] is None for row in rows)

    def test_states_jsonl(self, tmp_path):
        trace = self._trace()
        path = tmp_path / "states.jsonl"
        write_states_jsonl(trace, str(path))
        lines = path.read_text().splitlines()
        assert len(lines) == len(trace.records)
        first = json.loads(lines[0])
        assert first["n"] == 1
        assert first["x"] == {"scalar": 0.0, "vec": [1.0]}
