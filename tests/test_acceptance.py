"""Acceptance gate: every shipped claim, checked at its stated tolerance.

Each test covers one numbered claim and prints one ``criterion N [...]:
PASS/FAIL`` line (visible with ``pytest -s`` or in the captured output of a
failing run).  Tolerances and budgets here are contractual; loosening one
is a behavior change, not a test fix.
"""

import functools
import json
import math
import time

import numpy as np
import pytest

from commonfix.errors import WeightSumViolation
from commonfix.cli import main as cli_main
from commonfix.mappings import (
    OSCILLATOR_HALF_WIDTH,
    TotalAsymptoticProfile,
    UNIT_DOMAIN,
    apply_f_kappa,
    apply_t_alpha,
    estimate_intermediate_defect,
    make_identity,
    make_s,
    make_s_f,
    power_t_alpha,
)
from commonfix.sampling import sample_pairs
from commonfix.scheme import IterationConfig, make_schedule, run
from commonfix.space import ProductPoint, l1_norm, product_norm
from commonfix.verifier import (
    antipodal_pair_counterexample,
    check_iterate_difference_identity,
    check_root_gap_chain,
    check_total_inequality,
    check_run_bound,
    compute_recursion_bound,
    witness_non_asymptotic,
)

from helpers import sample_vector

BOUNDS = (0.05, 0.95)


def criterion(num, label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num} [{label}]: FAIL")
                raise
            print(f"criterion {num} [{label}]: PASS")

        return wrapper

    return deco


def _two_family_run():
    thirds = make_schedule("constant", 2, BOUNDS)
    cfg = IterationConfig(
        t_family=(make_s(0.5), make_s(0.3)),
        i_family=(make_identity(), make_identity()),
        alpha=thirds,
        beta=thirds,
        x0=ProductPoint(0.7, (1.0,)),
        tol=1e-8,
        max_steps=200,
        fixed_set=make_s(0.5).fixed_set,
    )
    return cfg, run(cfg)


@criterion(1, "witness reproduction")
def test_criterion_1_witness_reproduction():
    start = time.perf_counter()
    w = witness_non_asymptotic(0.5, 3, 0.1, x0=0.005)
    assert w.separation == 0.00375
    assert abs(w.image_separation - 0.125 * math.sqrt(0.005) / 2.0) <= 1e-14
    assert w.ratio > 1.1
    assert w.ratio == pytest.approx(1.17851, abs=5e-6)
    assert abs(w.ratio - w.ratio_analytic) <= 1e-12
    for alpha in (0.1, 0.3, 0.5, 0.7, 0.9):
        for k in (1, 2, 3, 5, 10):
            grid_w = witness_non_asymptotic(alpha, k, 0.1)
            assert grid_w.ratio > grid_w.threshold
            assert abs(grid_w.ratio - grid_w.ratio_analytic) <= 1e-12
    assert time.perf_counter() - start < 1.0


@criterion(2, "antipodal counterexample")
def test_criterion_2_counterexample_reproduction():
    start = time.perf_counter()
    rows = antipodal_pair_counterexample(ProductPoint(1.0, ()), 2000)
    assert len(rows) == 2000
    for row in rows:
        assert abs(row.combined_norm - abs(1.0 - 2.0 / row.n)) < 1e-14
        assert row.difference_norm == 2.0
    assert time.perf_counter() - start < 0.1


@criterion(3, "growth certificate sweep")
def test_criterion_3_certificate_sweep():
    start = time.perf_counter()
    rng = np.random.default_rng(20250819)
    pairs = sample_pairs(rng, UNIT_DOMAIN, 500).pairs()
    for alpha in (0.3, 0.5, 0.9):
        mapping = make_s(alpha)
        profile = mapping.profile
        for x, y in pairs:
            for n in range(1, 26):
                chk = check_total_inequality(mapping, None, profile, x, y, n)
                assert chk.slack >= -1e-12, (alpha, n, chk.slack)
                ident = check_iterate_difference_identity(alpha, n, x.vec, y.vec)
                assert ident.lhs <= 1e-12, (alpha, n, ident.lhs)
    for x, y in pairs:
        inner, outer = check_root_gap_chain(x.vec, y.vec)
        assert inner.slack >= -1e-12 and outer.slack >= -1e-12
    assert time.perf_counter() - start < 5.0


@criterion(4, "closed power oracle")
def test_criterion_4_power_agrees_with_iterated_application():
    rng = np.random.default_rng(4242)
    vectors = [sample_vector(rng, 1.0) for _ in range(100)]
    for alpha in (0.3, 0.5, 0.8):
        for v in vectors:
            iterated = v
            for k in range(1, 21):
                iterated = apply_t_alpha(alpha, iterated)
                closed = power_t_alpha(alpha, k, v)
                assert l1_norm(closed - iterated) <= 1e-12, (alpha, k)


@criterion(5, "scheme convergence")
def test_criterion_5_two_family_convergence():
    start = time.perf_counter()
    _, trace = _two_family_run()
    assert trace.terminated_by == "tolerance"
    assert len(trace.records) <= 200
    assert l1_norm(trace.final.vec) < 1e-6
    assert abs(trace.final.scalar - 0.7) <= 1e-14
    last = trace.records[-1]
    assert all(d < 1e-6 for d in last.t_defects)
    assert all(d < 1e-6 for d in last.i_defects)
    assert min(r.dist_to_fixset for r in trace.records) < 1e-6
    assert time.perf_counter() - start < 1.0


@criterion(6, "trajectory recursion bound")
def test_criterion_6_recursion_bound_along_run():
    cfg, trace = _two_family_run()
    bound = compute_recursion_bound(cfg)
    checks = check_run_bound(trace, ProductPoint(0.7, ()), bound)
    assert len(checks) == len(trace.records)
    for chk in checks:
        assert chk.slack >= -1e-10, chk.context["n"]
    horizon = len(trace.records)
    b_sum, c_sum = bound.partial_sums(horizon)
    assert math.isfinite(b_sum) and math.isfinite(c_sum)
    b_tail = math.fsum(bound.b(n) for n in range(31, 301))
    c_tail = math.fsum(bound.c(n) for n in range(31, 301))
    assert b_tail < 1e-8 and c_tail < 1e-8


@criterion(7, "oscillator defect envelope")
def test_criterion_7_defect_envelope_and_combined_convergence():
    start = time.perf_counter()
    interval = (-OSCILLATOR_HALF_WIDTH, OSCILLATOR_HALF_WIDTH)
    estimates = {}
    for n in (1, 5, 10, 20):
        est = estimate_intermediate_defect(
            lambda x: apply_f_kappa(0.5, x), interval, n, 2001
        )
        estimates[n] = est
        assert est <= 2.0 * 0.5**n / math.pi + 1e-12, n
    assert estimates[1] >= estimates[5] >= estimates[10] >= estimates[20]
    assert estimates[20] <= 6.1e-7

    combined = make_s_f(0.5, 0.5)
    halves = make_schedule("constant", 1, BOUNDS)
    cfg = IterationConfig(
        t_family=(combined,),
        i_family=(make_identity(combined.domain),),
        alpha=halves,
        beta=halves,
        x0=ProductPoint(0.2, (0.5,)),
        tol=1e-8,
        fixed_set=combined.fixed_set,
    )
    trace = run(cfg)
    assert trace.terminated_by == "tolerance"
    assert product_norm(trace.final) < 1e-6
    assert time.perf_counter() - start < 10.0


@criterion(8, "reduced scheme equivalence")
def test_criterion_8_reduction_matches_direct_recursion():
    alpha = 0.9
    halves = make_schedule("constant", 1, BOUNDS)
    cfg = IterationConfig(
        t_family=(make_s(alpha),),
        i_family=(make_identity(),),
        alpha=halves,
        beta=halves,
        x0=ProductPoint(0.7, (1.0,)),
        tol=1e-30,
        max_steps=100,
    )
    trace = run(cfg)
    assert trace.terminated_by == "max_steps"
    assert len(trace.records) == 100

    # direct one-stage recursion x_{n+1} = x_n/2 + T^n(x_n)/2 in raw floats
    scalar = 0.7
    vec = [1.0]
    for rec in trace.records:
        assert abs(rec.x.scalar - scalar) <= 1e-14
        assert rec.y.scalar == rec.x.scalar
        assert rec.y.vec == rec.x.vec
        got = list(rec.x.vec.coords)
        width = max(len(got), len(vec))
        got += [0.0] * (width - len(got))
        ref = vec + [0.0] * (width - len(vec))
        assert sum(abs(a - b) for a, b in zip(got, ref)) <= 1e-14, rec.n
        ak = alpha**rec.n
        head = ak * math.sqrt(abs(vec[0] if vec else 0.0))
        t_vec = [0.0] * rec.n + [head] + [ak * c for c in vec[1:]]
        width = max(len(vec), len(t_vec))
        vec = [
            0.5 * a + 0.5 * b
            for a, b in zip(
                vec + [0.0] * (width - len(vec)), t_vec + [0.0] * (width - len(t_vec))
            )
        ]
    final = list(trace.final.vec.coords)
    width = max(len(final), len(vec))
    final += [0.0] * (width - len(final))
    ref = vec + [0.0] * (width - len(vec))
    assert sum(abs(a - b) for a, b in zip(final, ref)) <= 1e-14


@criterion(9, "negative controls")
def test_criterion_9_corrupted_inputs_are_caught(tmp_path, capsys):
    # (a) halving mu_n must break the certificate on a witness pair
    w = witness_non_asymptotic(0.5, 3, 0.1, x0=5e-5)
    corrupted = TotalAsymptoticProfile(
        mu=lambda n: 0.5**n / 2.0,
        lam=lambda n: 0.0,
        phi=lambda t: t + math.sqrt(t),
        linear_bound=(1.0, 2.0),
    )
    s_map = make_s(0.5)
    bad = check_total_inequality(s_map, None, corrupted, w.X0, w.Y0, 3)
    assert not bad.satisfied
    good = check_total_inequality(s_map, None, s_map.profile, w.X0, w.Y0, 3)
    assert good.satisfied

    # (b) weights summing to 0.9 are rejected at validation, library and CLI
    with pytest.raises(WeightSumViolation):
        make_schedule("custom", 1, BOUNDS, weights=(0.45, 0.45))
    config = {
        "mode": "run",
        "t_family": [{"kind": "s", "alpha": 0.5}],
        "alpha_schedule": {"kind": "custom", "weights": [0.45, 0.45]},
        "x0": {"scalar": 0.0, "vec": [1.0]},
        "output_dir": str(tmp_path),
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config))
    assert cli_main([str(path)]) == 2
    err = capsys.readouterr().err
    assert "0.9" in err

    # the same weights pass once they sum to one
    config["alpha_schedule"]["weights"] = [0.45, 0.55]
    path.write_text(json.dumps(config))
    assert cli_main([str(path), "--quiet"]) == 0
