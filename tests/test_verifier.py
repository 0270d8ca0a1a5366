"""Tests for the certificate layer: growth checks, witnesses, run bounds."""

import collections
import dataclasses
import json
import math
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from commonfix.errors import DomainViolation, LengthMismatch, NotAFixedPoint
from commonfix.mappings import (
    OSCILLATOR_DOMAIN,
    TotalAsymptoticProfile,
    UNIT_DOMAIN,
    make_identity,
    make_s,
    make_s_f,
    oscillator_defect,
)
from commonfix.scheme import IterationConfig, make_schedule, run
from commonfix.space import L1Vector, PairBlock, ProductPoint, product_norm
from commonfix.verifier import (
    CHECK_TOL,
    CheckColumn,
    InequalityCheck,
    Tally,
    antipodal_pair_counterexample,
    check_iterate_difference_identity,
    check_root_gap_chain,
    check_run_bound,
    check_shift_identities,
    check_total_inequalities,
    check_total_inequality,
    compute_recursion_bound,
    witness_non_asymptotic,
)

BOUNDS = (0.05, 0.95)


def _two_family_config(**kw):
    thirds = make_schedule("constant", 2, BOUNDS)
    defaults = dict(
        t_family=(make_s(0.5), make_s(0.3)),
        i_family=(make_identity(), make_identity()),
        alpha=thirds,
        beta=thirds,
        x0=ProductPoint(0.7, (0.5, 0.5)),
        tol=1e-8,
    )
    defaults.update(kw)
    return IterationConfig(**defaults)


def _composed_coefficients(cfg, n):
    """(b_n, c_n) of cfg in exact rational arithmetic, by composing the
    affine stage bounds a -> r a + k of I_i^n, y_n and T_i^n; the final
    rate is 1 + b_n and the final offset c_n."""

    def member(mp):
        # ||F^n z - p|| <= (1 + mu M*) ||G^n z - p|| + mu phi(M) + lam
        big_m, m_star = mp.profile.linear_bound
        mu = Fraction(mp.profile.mu(n))
        rate = 1 + mu * Fraction(m_star)
        return rate, mu * Fraction(mp.profile.phi(big_m)) + Fraction(mp.profile.lam(n))

    # x_n keeps the weight 1 - sum_i w_i, as the stage bounds assume
    slots = range(1, len(cfg.t_family) + 1)
    alpha = [Fraction(cfg.alpha.weights[i]) for i in slots]
    beta = [Fraction(cfg.beta.weights[i]) for i in slots]
    i_stages = [member(mp) for mp in cfg.i_family]
    y_rate = 1 - sum(beta) + sum(b * r for b, (r, _) in zip(beta, i_stages))
    y_offset = sum(b * k for b, (_, k) in zip(beta, i_stages))
    rate, offset = 1 - sum(alpha), Fraction(0)
    for a, (ri, ki), (rt, kt) in zip(
        alpha, i_stages, [member(mp) for mp in cfg.t_family]
    ):
        rate += a * rt * ri * y_rate
        offset += a * (rt * (ri * y_offset + ki) + kt)
    return float(rate - 1), float(offset)


class TestTotalInequality:
    def test_satisfied_for_shift_root_pair(self):
        s_map = make_s(0.5)
        x = ProductPoint(0.2, (0.25, 0.1))
        y = ProductPoint(0.6, (0.04,))
        chk = check_total_inequality(s_map, None, s_map.profile, x, y, 3)
        assert chk.satisfied
        assert chk.slack == chk.rhs - chk.lhs
        assert chk.context["equation"] == "gradual-relaxation"
        assert chk.context["comparison"] == "identity"
        assert chk.context["base_distance"] == product_norm(x - y)

    def test_comparison_map_changes_base_distance(self):
        s_map = make_s(0.5)
        ident = make_identity()
        x = ProductPoint(0.2, (0.25,))
        y = ProductPoint(0.2, (0.16,))
        via_none = check_total_inequality(s_map, None, s_map.profile, x, y, 2)
        via_ident = check_total_inequality(s_map, ident, s_map.profile, x, y, 2)
        assert via_none.rhs == via_ident.rhs
        assert via_ident.context["comparison"] == "identity"

    @pytest.mark.parametrize("comparison", [None, make_s(0.3)], ids=["identity", "s"])
    def test_range_matches_single_powers(self, comparison):
        s_f = make_s_f(0.5, 0.5)
        x = ProductPoint(-0.2, (0.25, 0.1))
        y = ProductPoint(0.1, (0.04,))
        if comparison is not None:
            s_f = dataclasses.replace(s_f, domain=UNIT_DOMAIN)
            x, y = ProductPoint(0.2, x.vec), ProductPoint(0.3, y.vec)
        ns = (1, 2, 2, 5, 13)
        p = s_f.profile
        mu, lam = [p.mu(n) for n in ns], [p.lam(n) for n in ns]
        xs, ys = [x, y, x], [y, x, x]
        block = PairBlock.from_points(xs, ys)
        many = check_total_inequalities(
            s_f, comparison, block, ns, s_f.gaps(ns)(block), mu, lam, p.phi
        )
        for r, (a, b) in enumerate(zip(xs, ys)):
            checks = [many.check((r, i)) for i in range(len(ns))]
            assert checks == [check_total_inequality(s_f, comparison, p, a, b, n) for n in ns]
            assert many.slacks[r].tolist() == [c.slack for c in checks]

    def test_violation_reported_not_raised(self):
        # a profile with no slack at all turns the strict expansion of the
        # square root near 0 into a failed check
        rigid = TotalAsymptoticProfile(
            mu=lambda n: 0.0, lam=lambda n: 0.0, phi=lambda t: t, linear_bound=(1.0, 1.0)
        )
        s_map = make_s(0.9)
        x = ProductPoint(0.0, (1e-6,))
        y = ProductPoint(0.0, ())
        chk = check_total_inequality(s_map, None, rigid, x, y, 1)
        assert not chk.satisfied
        assert chk.slack < -CHECK_TOL


class TestOscillatorNearPair:
    """A frozen near pair (x, x + delta * e_0) of S_f(0.5, 0.5) with vector
    [0.1], delta ~ 1.3e-4: under the grid's lower estimate of lambda_n it
    breaks the inequality at n = 5..7; the envelope holds it at every power."""

    X = ProductPoint(0.2717126307708227, (0.1,))
    Y = ProductPoint(0.2718419213314316, (0.1,))

    def _failed(self, profile, powers):
        mapping = make_s_f(0.5, 0.5)
        return [
            n for n in powers
            if not check_total_inequality(mapping, None, profile, self.X, self.Y, n).satisfied
        ]

    def test_fails_under_the_grid_estimate(self):
        grid = dataclasses.replace(
            make_s_f(0.5, 0.5).profile, lam=lambda n: oscillator_defect(0.5, n)
        )
        assert self._failed(grid, range(5, 15)) == [5, 6, 7]

    def test_holds_under_the_profile(self):
        assert self._failed(make_s_f(0.5, 0.5).profile, range(1, 26)) == []


class TestExactIdentities:
    def test_iterate_difference_identity_check(self):
        chk = check_iterate_difference_identity(
            0.7, 5, L1Vector((0.3, -0.1)), L1Vector((0.04, 0.2, 0.1))
        )
        assert chk.satisfied
        assert chk.lhs <= 1e-12
        assert chk.context["direct"] == pytest.approx(chk.context["formula"], abs=1e-12)

    def test_identity_range_matches_single_powers(self):
        x, y = L1Vector((0.3, -0.1)), L1Vector((0.04, 0.2, 0.1))
        unstored = L1Vector((0.0, 0.25))  # x_1 = +0.0 is not stored
        neg_zero, tiny = L1Vector((-0.0, 0.5)), L1Vector((5e-324, -0.125))
        unit, unit_b = L1Vector((0.25, -0.75)), L1Vector((-1.0,))  # norm exactly 1
        ks = range(1, 26)
        s_map = make_s(0.7)
        xs = [x, y, x, unstored, neg_zero, tiny, unit, unstored, neg_zero, tiny]
        ys = [y, x, x, y, unstored, neg_zero, unit_b, unstored, tiny, unit]
        block = PairBlock.from_points(
            [ProductPoint(0.5, v) for v in xs], [ProductPoint(0.5, v) for v in ys]
        )
        _, direct, dist = s_map.gaps(ks)(block)
        identity, inner, outer = check_shift_identities(0.7, ks, block, direct, dist)
        for r, (a, b) in enumerate(zip(xs, ys)):
            checks = [identity.check((r, i)) for i in range(len(ks))]
            assert checks == [check_iterate_difference_identity(0.7, k, a, b) for k in ks]
            chain = [(inner.check((r, i)), outer.check((r, i))) for i in range(len(ks))]
            assert chain == [check_root_gap_chain(a, b)] * len(ks)

    def test_identity_range_rejects_point_outside_ball(self):
        with pytest.raises(DomainViolation, match=r"\|\|v\|\|_1 = 1\.2 exceeds the unit ball"):
            check_iterate_difference_identity(0.7, 2, L1Vector((0.6, 0.6)), L1Vector(()))

    def test_root_gap_chain_checks(self):
        inner, outer = check_root_gap_chain(L1Vector((0.25, 0.3)), L1Vector((0.04,)))
        assert inner.satisfied and outer.satisfied
        assert inner.context["equation"] == "root-gap-inner"
        assert outer.context["equation"] == "root-gap-outer"


class TestWitness:
    def test_frozen_example(self):
        w = witness_non_asymptotic(0.5, 3, 0.1, x0=0.005)
        assert w.separation == 0.00375
        assert w.image_separation == pytest.approx(0.0625 * math.sqrt(0.005), abs=1e-14)
        assert w.ratio == pytest.approx(1.1785113019775793, abs=1e-12)
        assert w.ratio == pytest.approx(w.ratio_analytic, abs=1e-12)
        assert w.threshold == 1.1
        assert w.exceeds

    def test_default_start_gives_root_two_margin(self):
        # x0 = bound/2 turns the ratio into sqrt(2) * (1 + lam_k)
        w = witness_non_asymptotic(0.5, 3, 0.1)
        assert w.x0 == w.upper_bound / 2.0
        assert w.ratio_analytic == pytest.approx(math.sqrt(2.0) * 1.1, rel=1e-12)
        assert w.exceeds

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.9])
    @pytest.mark.parametrize("k", [1, 3, 10])
    def test_exceeds_across_grid(self, alpha, k):
        assert witness_non_asymptotic(alpha, k, 0.1).exceeds

    def test_witness_points_shrink_with_power(self):
        # larger k forces a smaller admissible x0
        small = witness_non_asymptotic(0.5, 2, 0.1).upper_bound
        smaller = witness_non_asymptotic(0.5, 6, 0.1).upper_bound
        assert smaller < small

    def test_x0_outside_admissible_range_rejected(self):
        bound = witness_non_asymptotic(0.5, 3, 0.1).upper_bound
        with pytest.raises(ValueError):
            witness_non_asymptotic(0.5, 3, 0.1, x0=bound)
        with pytest.raises(ValueError):
            witness_non_asymptotic(0.5, 3, 0.1, x0=0.0)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            witness_non_asymptotic(1.0, 3, 0.1)
        with pytest.raises(ValueError):
            witness_non_asymptotic(0.5, 0, 0.1)
        with pytest.raises(ValueError):
            witness_non_asymptotic(0.5, 3, 0.0)

    def test_negative_control_flips_under_halved_slack_profile(self):
        """A certificate against mu_n = a^n / 2 must fail on a small witness
        pair while the true profile passes: frozen check values."""
        s_map = make_s(0.5)
        w = witness_non_asymptotic(0.5, 3, 0.1, x0=5e-5)
        corrupted = TotalAsymptoticProfile(
            mu=lambda n: 0.5**n / 2.0,
            lam=lambda n: 0.0,
            phi=lambda t: t + math.sqrt(t),
            linear_bound=(1.0, 2.0),
        )
        bad = check_total_inequality(s_map, None, corrupted, w.X0, w.Y0, 3)
        assert not bad.satisfied
        assert bad.lhs == pytest.approx(0.0004419417382415922, abs=1e-16)
        assert bad.rhs == pytest.approx(0.0004225765223098716, abs=1e-16)
        good = check_total_inequality(s_map, None, s_map.profile, w.X0, w.Y0, 3)
        assert good.satisfied


class TestAntipodalPair:
    def test_rows_follow_closed_form(self):
        rows = antipodal_pair_counterexample(ProductPoint(0.0, (1.0,)), 50)
        assert len(rows) == 50
        for row in rows:
            assert row.combined_norm == pytest.approx(abs(1.0 - 2.0 / row.n), abs=1e-14)
            assert row.difference_norm == 2.0

    def test_midpoint_step_collapses_to_zero(self):
        rows = antipodal_pair_counterexample(ProductPoint(0.0, (1.0,)), 2)
        assert rows[1].combined_norm == 0.0

    def test_combined_norm_converges_difference_does_not(self):
        d = 0.7
        rows = antipodal_pair_counterexample(ProductPoint(d, ()), 2000)
        assert abs(rows[-1].combined_norm - d) < 1e-3
        assert rows[-1].difference_norm == 2.0 * d

    def test_scalar_and_vector_parts_both_contribute(self):
        rows = antipodal_pair_counterexample(ProductPoint(0.3, (0.5, 0.2)), 1)
        assert rows[0].difference_norm == pytest.approx(2.0, abs=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            antipodal_pair_counterexample(ProductPoint(1.0, ()), 0)
        with pytest.raises(ValueError):
            antipodal_pair_counterexample(ProductPoint(0.0, ()), 5)

    @pytest.mark.parametrize(
        "x", [ProductPoint(1e308, ()), ProductPoint(0.0, (1e308, 1e308))], ids=["d", "inf"]
    )
    def test_norm_that_overflows_when_doubled_rejected(self, x):
        # ||x - (-x)|| = 2d would be inf, and the rows nan
        with pytest.raises(ValueError, match="doubled"):
            antipodal_pair_counterexample(x, 5)


class TestRecursionBound:
    def test_frozen_first_coefficients(self):
        bound = compute_recursion_bound(_two_family_config())
        assert bound.b(1) == pytest.approx(0.5333333333333333, abs=1e-15)
        assert bound.c(1) == pytest.approx(0.5333333333333333, abs=1e-15)
        # identity partners: b_n = c_n = (2/3)(0.5^n + 0.3^n), bit for bit
        for n, value in ((2, 0.22666666666666666), (5, 0.022453333333333332)):
            assert bound.coeffs(n) == (value, value)

    @pytest.mark.parametrize(
        "kw",
        [
            dict(i_family=(make_identity(),)),
            dict(alpha=make_schedule("constant", 1, BOUNDS)),
        ],
        ids=["one-partner", "two-slot-alpha"],
    )
    def test_mismatched_config_cannot_be_bounded(self, kw):
        # zip would drop the second pair's terms: b_1 = c_1 = 1/3 with one
        # identity partner and 1/2 with alpha = (1/2, 1/2), not 0.533...
        with pytest.raises(LengthMismatch):
            _two_family_config(**kw)

    def test_replaced_config_is_checked(self):
        with pytest.raises(DomainViolation, match="start point"):
            dataclasses.replace(_two_family_config(), x0=ProductPoint(-0.5, ()))

    def test_coefficients_compose_the_stage_bounds(self):
        # the cross term B * sum_i alpha_in u_i v_i is not 0 with s partners
        cfg = _two_family_config(i_family=(make_s(0.6), make_s(0.4)))
        bound = compute_recursion_bound(cfg)
        for n in range(1, 11):
            b_n, c_n = _composed_coefficients(cfg, n)
            assert bound.b(n) == pytest.approx(b_n, rel=1e-15, abs=0.0), n
            assert bound.c(n) == pytest.approx(c_n, rel=1e-15, abs=0.0), n
        assert bound.b(1) == 3.3777777777777778

    def test_coefficients_decay_geometrically(self):
        bound = compute_recursion_bound(_two_family_config())
        assert bound.b(10) < bound.b(2) < bound.b(1)
        assert bound.b(40) < 1e-11

    def test_partial_sums_converge(self):
        bound = compute_recursion_bound(_two_family_config())
        s30 = bound.partial_sums(30)
        s300 = bound.partial_sums(300)
        assert math.isfinite(s300[0]) and math.isfinite(s300[1])
        assert s300[0] - s30[0] < 1e-8
        assert s300[1] - s30[1] < 1e-8

    def test_run_bound_computes_coefficients_once_per_step(self):
        calls = collections.Counter()
        base = make_s(0.5)

        def mu(n):
            calls[n] += 1
            return base.profile.mu(n)

        counted = dataclasses.replace(
            base, profile=dataclasses.replace(base.profile, mu=mu)
        )
        cfg = _two_family_config(
            t_family=(counted, make_s(0.3)), max_steps=6, tol=1e-300
        )
        bound = compute_recursion_bound(cfg)
        checks = check_run_bound(run(cfg), ProductPoint(0.7, ()), bound)
        assert calls == {n: 1 for n in range(1, 7)}
        assert [(c.context["b_n"], c.context["c_n"]) for c in checks] == [
            (bound.b(n), bound.c(n)) for n in range(1, 7)
        ]

    def test_identity_family_contributes_nothing(self):
        halves = make_schedule("constant", 1, BOUNDS)
        cfg = IterationConfig(
            t_family=(make_identity(),),
            i_family=(make_identity(),),
            alpha=halves,
            beta=halves,
            x0=ProductPoint(0.5, ()),
        )
        bound = compute_recursion_bound(cfg)
        assert bound.b(1) == 0.0 and bound.c(1) == 0.0

    def test_perturbation_points_refused(self):
        """The bound has no u and v terms, so it cannot certify a perturbed
        run: on this correct run, dropping them fails checks from n = 17 on."""
        sched = make_schedule("constant", 1, BOUNDS, includes_error_term=True)
        probe = ProductPoint(0.3, (0.3,))
        cfg = IterationConfig(
            t_family=(make_s(0.5),),
            i_family=(make_identity(),),
            alpha=sched,
            beta=sched,
            x0=ProductPoint(0.0, (1.0,)),
            errors=(probe, probe),
        )
        with pytest.raises(ValueError, match="perturbation"):
            compute_recursion_bound(cfg)


class TestRunBound:
    def test_every_step_certified_along_real_run(self):
        cfg = _two_family_config()
        trace = run(cfg)
        bound = compute_recursion_bound(cfg)
        checks = check_run_bound(trace, ProductPoint(0.7, ()), bound)
        assert len(checks) == len(trace.records)
        assert all(c.satisfied for c in checks)
        assert checks[0].context["equation"] == "distance-recursion"

    def test_reference_must_be_common_fixed_point(self):
        cfg = _two_family_config()
        trace = run(cfg)
        bound = compute_recursion_bound(cfg)
        with pytest.raises(NotAFixedPoint):
            check_run_bound(trace, ProductPoint(0.5, (0.5,)), bound)

    def test_check_count_covers_final_state(self):
        cfg = _two_family_config(max_steps=7, tol=1e-300)
        trace = run(cfg)
        bound = compute_recursion_bound(cfg)
        checks = check_run_bound(trace, ProductPoint(0.7, ()), bound)
        # one check per step, the last one reaching Trace.final
        assert len(checks) == 7
        last = checks[-1]
        assert last.lhs == product_norm(trace.final - ProductPoint(0.7, ()))

    def _oscillator_run(self):
        halves = make_schedule("constant", 1, BOUNDS)
        cfg = IterationConfig(
            t_family=(make_s_f(0.5, 0.5),),
            i_family=(make_identity(OSCILLATOR_DOMAIN),),
            alpha=halves,
            beta=halves,
            x0=ProductPoint(0.1, (0.2,)),
            max_steps=5,
            tol=1e-300,
        )
        return run(cfg), compute_recursion_bound(cfg)

    def test_oscillator_run_accepts_the_origin(self):
        trace, bound = self._oscillator_run()
        checks = check_run_bound(trace, ProductPoint(0.0, ()), bound)
        assert len(checks) == len(trace.records) == 5

    def test_oscillator_run_rejects_a_moving_reference(self):
        # f_0.5(0.1) = 0.05 sin(10) moves the scalar by about 0.127
        trace, bound = self._oscillator_run()
        with pytest.raises(NotAFixedPoint, match="s_f"):
            check_run_bound(trace, ProductPoint(0.1, ()), bound)


class TestSerialization:
    def test_check_json_shape(self):
        chk = check_total_inequality(
            make_s(0.5),
            None,
            make_s(0.5).profile,
            ProductPoint(0.1, (0.2,)),
            ProductPoint(0.3, ()),
            2,
        )
        blob = chk.to_json()
        assert set(blob) >= {"lhs", "rhs", "slack", "satisfied", "tolerance", "equation"}
        assert blob["satisfied"] is True

    @pytest.mark.parametrize(
        "lhs, rhs, tol, slack, satisfied",
        [(1.0, 2.0, 0.0, 1.0, True), (1.0, 0.5, 0.5, -0.5, True), (1.0, 0.5, 0.25, -0.5, False)],
    )
    def test_slack_and_satisfied_follow_from_the_sides(self, lhs, rhs, tol, slack, satisfied):
        chk = InequalityCheck(lhs, rhs, tol, {})
        assert (chk.slack, chk.satisfied) == (slack, satisfied)

    def test_context_cannot_shadow_core_fields(self):
        chk = InequalityCheck(1.0, 2.0, 1e-12, {"lhs": "bogus", "equation": "demo"})
        blob = chk.to_json()
        assert blob["lhs"] == 1.0
        assert blob["equation"] == "demo"


def _column(slacks, equation="demo"):
    """A column of one pair whose i-th check, at n = i + 1, has exactly the
    slack ``slacks[i]``: rhs - 0.0 keeps every float, -0.0 and NaN included."""
    return _block([slacks], equation)


def _block(slacks, equation="demo"):
    """A column of a block of pairs, row r holding the slacks ``slacks[r]``
    at n = 1, 2, ..."""
    n = list(range(1, len(slacks[0]) + 1))
    lhs = [[0.0] * len(row) for row in slacks]
    return CheckColumn(lhs, slacks, 0.0, {"equation": equation}, {"n": n})


class TestTally:
    def test_a_tie_keeps_the_earlier_worst(self):
        tally = Tally()
        tally.add([_column([1.0, 0.5, 0.5])], map="m", samples=[0])
        tally.add([_column([0.5, 0.75])], map="m", samples=[1])
        (worst,) = tally.report()["worst"]
        assert (worst["slack"], worst["n"], worst["sample"]) == (0.5, 2, 0)

    def test_a_nan_first_column_moves_the_worst_as_seeded_min_does(self):
        tally = Tally()
        tally.add([_column([1.0])], map="m", samples=[0])
        tally.add([_column([math.nan, 0.5])], map="m", samples=[1])
        report = tally.report()
        (worst,) = report["worst"]
        assert (worst["slack"], worst["n"], worst["sample"]) == (0.5, 2, 1)
        assert report["summary"]["by_equation"]["demo"]["min_slack"] == 0.5
        # NaN >= -tol is false, so the NaN check is the one failure
        (failure,) = report["failures"]
        assert math.isnan(failure["slack"]) and failure["n"] == 1

    def test_no_row_is_built_for_a_passing_column(self, monkeypatch):
        tally = Tally()
        tally.add([_column([0.25, 0.5])], map="m", samples=[0])
        built = []
        real = CheckColumn.check
        monkeypatch.setattr(CheckColumn, "check", lambda self, i: built.append(i) or real(self, i))
        tally.add([_column([0.5, 0.75])], map="m", samples=[1])
        assert built == []
        report = tally.report()
        assert report["failures"] == [] and "checks" not in report
        assert report["summary"] == {
            "total_checks": 4,
            "failed": 0,
            "all_satisfied": True,
            "by_equation": {"demo": {"checks": 4, "min_slack": 0.25, "satisfied": True}},
        }

    def test_kept_rows_come_out_power_major(self):
        tally = Tally(keep_all=True)
        tally.add([_column([1.0, -1.0, 2.0], "a"), _column([3.0, 4.0, 5.0], "b")], map="m", samples=[7])
        report = tally.report()
        rows = report["checks"]
        assert [(row["n"], row["equation"]) for row in rows] == [
            (1, "a"), (1, "b"), (2, "a"), (2, "b"), (3, "a"), (3, "b"),
        ]
        assert all((row["map"], row["sample"]) == ("m", 7) for row in rows)
        assert report["failures"] == [rows[2]]
        assert report["summary"]["failed"] == 1 and not report["summary"]["all_satisfied"]

    def test_rows_hold_python_numbers(self):
        # the JSON writer takes no numpy scalar: a row's sides are floats, n an int
        tally = Tally(keep_all=True)
        tally.add([_block([[0.5, -1.0], [0.25, 2.0]])], map="m", samples=range(2))
        for row in tally.report()["checks"] + tally.report()["worst"]:
            assert [type(row[k]) for k in ("lhs", "rhs", "slack", "satisfied", "n", "sample")] == [
                float, float, float, bool, int, int
            ]


def _pair_by_pair(slacks, keep_all):
    """The report, reduced to what decides it, of folding each pair's lists
    of slacks on its own with Python's seeded min, as certify did before it
    folded blocks of pairs: the reference for :class:`Tally`.  ``slacks``
    maps each equation to its rows, one per pair; the tolerance is 0."""
    by_equation, worst, failures, checks = {}, {}, [], []
    for sample in range(len(next(iter(slacks.values())))):
        failing = False
        for eq, rows in slacks.items():
            row = rows[sample]
            agg = by_equation.setdefault(eq, {"checks": 0, "min_slack": math.inf, "satisfied": True})
            agg["checks"] += len(row)
            agg["min_slack"] = min(agg["min_slack"], *row)
            satisfied = all(v >= 0.0 for v in row)
            agg["satisfied"] = agg["satisfied"] and satisfied
            failing = failing or not satisfied
            kept = worst.get(eq)
            low = min(row) if kept is None else min(kept[0], *row)
            if kept is None or low < kept[0]:
                worst[eq] = (low, row.index(low) + 1, sample)
        if failing or keep_all:
            for j in range(len(row)):
                for eq, rows in slacks.items():
                    if not rows[sample][j] >= 0.0:
                        failures.append((eq, j + 1, sample))
                    if keep_all:
                        checks.append((eq, j + 1, sample))
    return json.dumps([by_equation, sorted(worst.items()), failures, checks])


_SLACKS = st.sampled_from([math.nan, -0.0, 0.0, 0.5, -0.5, 1.0, -1e-13, 2.0])


@st.composite
def _slack_blocks(draw):
    """Slacks of two equations over 1-12 pairs at 1-4 powers, and the sizes
    of the blocks that the pairs are folded in."""
    pairs, powers = draw(st.integers(1, 12)), draw(st.integers(1, 4))
    rows = st.lists(st.lists(_SLACKS, min_size=powers, max_size=powers), min_size=pairs, max_size=pairs)
    slacks = {"a": draw(rows), "b": draw(rows)}
    sizes = []
    while sum(sizes) < pairs:
        sizes.append(draw(st.integers(1, pairs - sum(sizes))))
    return slacks, sizes


class TestTallyBlocks:
    @given(_slack_blocks(), st.booleans())
    @example(({"a": [[1.0], [-0.0], [0.0]], "b": [[math.nan], [0.5], [0.5]]}, [1, 2]), True)
    @example(({"a": [[math.nan, 0.5], [0.5, -0.5]], "b": [[0.0, -0.0], [-0.0, 0.0]]}, [2]), False)
    def test_a_block_folds_as_its_pairs_one_at_a_time(self, blocks, keep_all):
        slacks, sizes = blocks
        tally, start = Tally(keep_all=keep_all), 0
        for size in sizes:
            block = range(start, start + size)
            columns = [_block([slacks[eq][r] for r in block], eq) for eq in ("a", "b")]
            tally.add(columns, map="m", samples=block)
            start += size
        report = tally.report()
        worst = sorted((row["equation"], (row["slack"], row["n"], row["sample"])) for row in report["worst"])

        def rows(key):
            return [(row["equation"], row["n"], row["sample"]) for row in report.get(key, [])]

        got = json.dumps([report["summary"]["by_equation"], worst, rows("failures"), rows("checks")])
        assert got == _pair_by_pair(slacks, keep_all)
