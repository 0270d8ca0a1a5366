"""Tests for weight schedules, iteration steps, runs, and trace output."""

import dataclasses
import json
import math

import pytest

from commonfix import scheme
from commonfix.errors import (
    DomainViolation,
    InfeasibleSchedule,
    LengthMismatch,
    WeightSumViolation,
)
from commonfix.mappings import (
    FixedSetDescriptor,
    make_identity,
    make_s,
    make_s_f,
    nth_power,
    power_t_alpha,
)
from commonfix.scheme import (
    IterationConfig,
    WeightSchedule,
    distance_to_fixset,
    i_images,
    make_schedule,
    reference_point,
    run,
    step,
    write_states_jsonl,
    write_trace_csv,
)
from commonfix.space import L1Vector, ProductPoint, l1_norm, product_norm

from helpers import read_trace_csv

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
        w = sched.weights_at(5)
        assert w == (1.0 / 3.0,) * 3
        assert abs(math.fsum(w) - 1.0) <= 1e-12

    def test_constant_with_error_slot(self):
        sched = make_schedule("constant", 1, BOUNDS, includes_error_term=True)
        assert sched.size == 3
        assert sched.weights_at(1) == (1.0 / 3.0,) * 3

    def test_constant_weight_must_respect_bounds(self):
        # 1/10 drops below a lower bound of 0.2
        with pytest.raises(InfeasibleSchedule):
            make_schedule("constant", 9, (0.2, 0.9))

    def test_custom_weight_list(self):
        sched = make_schedule("custom", 1, BOUNDS, weights=(0.25, 0.75))
        assert sched.weights_at(3) == (0.25, 0.75)

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

    def test_custom_callable_accepted(self):
        sched = make_schedule(
            "custom", 1, BOUNDS, values=lambda j, n: 0.625 if j == 0 else 0.375
        )
        assert sched.weights_at(2) == (0.625, 0.375)

    def test_custom_callable_spot_checked_at_construction(self):
        # breaks the simplex at n = 3, inside the spot-check horizon
        def values(j, n):
            return 0.6 if n == 3 else 0.5

        with pytest.raises(WeightSumViolation):
            make_schedule("custom", 1, BOUNDS, values=values)

    def test_custom_needs_exactly_one_source(self):
        with pytest.raises(InfeasibleSchedule):
            make_schedule("custom", 1, BOUNDS)
        with pytest.raises(InfeasibleSchedule):
            make_schedule(
                "custom", 1, BOUNDS, weights=(0.5, 0.5), values=lambda j, n: 0.5
            )

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

    def test_box_enforced_per_step(self):
        # sums to one at every n but escapes the box from n = 4 on;
        # constructed directly to exercise the per-use validation
        def values(j, n):
            w0 = 0.96 if n >= 4 else 0.5
            return w0 if j == 0 else 1.0 - w0

        sched = WeightSchedule(1, values, (0.05, 0.95))
        assert sched.weights_at(3) == (0.5, 0.5)
        with pytest.raises(InfeasibleSchedule):
            sched.weights_at(4)


class TestStep:
    def test_hand_computed_first_step(self):
        cfg = _pair_config()
        x_next, y = step(cfg.x0, 1, cfg, i_images(cfg.x0, 1, cfg))
        # identity partner and equal weights leave y = x exactly
        assert y.scalar == 0.0 and y.vec == L1Vector((1.0,))
        assert x_next.vec == L1Vector((0.5, 0.25))

    def test_second_step_uses_squared_power(self):
        cfg = _pair_config()
        x2, _ = step(cfg.x0, 1, cfg, i_images(cfg.x0, 1, cfg))
        x3, _ = step(x2, 2, cfg, i_images(x2, 2, cfg))
        expected_vec = 0.5 * x2.vec + 0.5 * power_t_alpha(0.5, 2, x2.vec)
        assert l1_norm(x3.vec - expected_vec) == 0.0

    def test_scalar_factor_preserved_exactly(self):
        cfg = _pair_config(x0=ProductPoint(0.7, (0.3,)))
        x_next, y = step(cfg.x0, 1, cfg, i_images(cfg.x0, 1, cfg))
        assert y.scalar == 0.7 and x_next.scalar == 0.7

    def test_escaping_iterate_raises_rather_than_clamps(self):
        # alpha = 0.9 breaks ball invariance at (1/4, 3/4)
        cfg = _pair_config(factor=0.9, x0=ProductPoint(0.0, (0.25, 0.75)))
        with pytest.raises(DomainViolation, match="step 1"):
            step(cfg.x0, 1, cfg, i_images(cfg.x0, 1, cfg))


class TestStepWithErrors:
    def _cfg(self, u, v):
        sched = make_schedule("constant", 1, BOUNDS, includes_error_term=True)
        return IterationConfig(
            t_family=(make_s(0.5),),
            i_family=(make_identity(),),
            alpha=sched,
            beta=sched,
            x0=ProductPoint(0.0, (1.0,)),
            error_sequences=(lambda n: u, lambda n: v),
        )

    def test_perturbation_points_must_be_admissible(self):
        bad = ProductPoint(2.0, ())
        cfg = self._cfg(bad, bad)
        with pytest.raises(DomainViolation, match="perturbation"):
            step(cfg.x0, 1, cfg, i_images(cfg.x0, 1, cfg), (bad, bad))

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
            error_sequences=(lambda n: x, lambda n: x),
        )
        cfg2 = _pair_config(x0=x)
        perturbed, _ = step(x, 2, cfg3, i_images(x, 2, cfg3), (x, x))
        plain, _ = step(x, 2, cfg2, i_images(x, 2, cfg2))
        assert product_norm(perturbed - plain) <= 1e-14

    def test_pull_toward_perturbation_point(self):
        origin = ProductPoint(0.0, ())
        cfg = self._cfg(origin, origin)
        x_next, _ = step(
            cfg.x0, 1, cfg, i_images(cfg.x0, 1, cfg), (origin, origin)
        )
        # one third of the mass sits on the origin, so the norm must drop
        assert product_norm(x_next) < product_norm(cfg.x0)


class TestConfigValidation:
    def test_family_size_mismatch(self):
        cfg = _pair_config(i_family=(make_identity(), make_identity()))
        with pytest.raises(LengthMismatch):
            run(cfg)

    def test_schedule_size_mismatch(self):
        wrong = make_schedule("constant", 2, BOUNDS)
        cfg = _pair_config(alpha=wrong, beta=wrong)
        with pytest.raises(LengthMismatch):
            run(cfg)

    def test_error_sequences_require_error_slots(self):
        cfg = _pair_config(
            error_sequences=(lambda n: ProductPoint(0, ()), lambda n: ProductPoint(0, ()))
        )
        with pytest.raises(LengthMismatch):
            run(cfg)

    def test_error_slots_require_error_sequences(self):
        sched = make_schedule("constant", 1, BOUNDS, includes_error_term=True)
        cfg = _pair_config(alpha=sched, beta=sched)
        with pytest.raises(LengthMismatch):
            run(cfg)

    def test_error_slot_needed_on_both_stages(self):
        with_slot = make_schedule("constant", 1, BOUNDS, includes_error_term=True)
        without = make_schedule("constant", 1, BOUNDS)
        cfg = _pair_config(
            alpha=with_slot,
            beta=without,
            error_sequences=(
                lambda n: ProductPoint(0, ()),
                lambda n: ProductPoint(0, ()),
            ),
        )
        with pytest.raises(LengthMismatch):
            run(cfg)

    def test_mixed_domains_rejected(self):
        cfg = _pair_config(i_family=(make_s_f(0.5, 0.5),))
        with pytest.raises(DomainViolation, match="domains disagree"):
            run(cfg)

    def test_start_point_outside_domain(self):
        cfg = _pair_config(x0=ProductPoint(-0.5, ()))
        with pytest.raises(DomainViolation, match="start point"):
            run(cfg)

    def test_nonpositive_tolerance(self):
        cfg = _pair_config(tol=0.0)
        with pytest.raises(ValueError):
            run(cfg)

    def test_bad_step_budget(self):
        cfg = _pair_config(max_steps=0)
        with pytest.raises(ValueError):
            run(cfg)


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

        def probe(n):
            return ProductPoint(0.3, (0.1,))

        return IterationConfig(
            t_family=(make_s(0.5), make_s(0.3)),
            i_family=(make_identity(), make_identity()),
            alpha=thirds,
            beta=thirds,
            x0=ProductPoint(0.7, (0.5, 0.5)),
            tol=1e-300,
            max_steps=12,
            error_sequences=(probe, probe) if perturbed else None,
        )

    @pytest.mark.parametrize("perturbed", [False, True])
    def test_each_power_is_evaluated_once_per_step(self, monkeypatch, perturbed):
        """I_i^n(x_n) serves both y_n and the defects, T_i^n is taken at
        y_n and at x_n: 3m power evaluations per step."""
        calls = []

        def counted(mapping, k, p):
            calls.append(k)
            return nth_power(mapping, k, p)

        monkeypatch.setattr(scheme, "nth_power", counted)
        trace = run(self._two_member_config(perturbed))
        assert len(calls) == 6 * len(trace.records)

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

    def test_simplex_violation_surfaces_mid_run(self):
        def values(j, n):
            return 0.6 if n == 3 else 0.5

        broken = WeightSchedule(1, values, BOUNDS)
        cfg = _pair_config(alpha=broken, beta=broken, tol=1e-300, max_steps=10)
        with pytest.raises(WeightSumViolation):
            run(cfg)

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
            error_sequences=(lambda n: probe, lambda n: probe),
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
        ref = reference_point(cfg)
        assert ref.scalar == 0.7 and ref.vec == L1Vector(())

    def test_reference_point_none_without_descriptor(self):
        assert reference_point(_pair_config()) is None

    def test_reference_point_single_point(self):
        fs = FixedSetDescriptor("single_point", point=ProductPoint(0.1, ()))
        assert reference_point(_pair_config(fixed_set=fs)) == fs.point


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
