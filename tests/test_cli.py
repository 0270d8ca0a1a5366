"""End-to-end tests of the command line driver and config parsing."""

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import re
import tempfile
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from commonfix import cli, mappings, scheme
from commonfix.errors import ParseError, ValidationError
from commonfix.mappings import make_s_f
from commonfix.space import point_from_json
from commonfix.verifier import CheckColumn

from helpers import read_trace_csv


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run_config(tmp_path):
    return {
        "name": "demo",
        "mode": "run",
        "t_family": [{"kind": "s", "alpha": 0.5}, {"kind": "s", "alpha": 0.3}],
        "i_family": [{"kind": "identity"}, {"kind": "identity"}],
        "alpha_schedule": {"kind": "constant", "bounds": [0.1, 0.9]},
        "beta_schedule": {"kind": "constant", "bounds": [0.1, 0.9]},
        "x0": {"scalar": 0.7, "vec": [1.0]},
        "tol": 1e-8,
        "max_steps": 200,
        "output_dir": str(tmp_path / "out"),
    }


class TestParseConfig:
    def test_valid_run_config(self, tmp_path):
        cfg = cli.parse_config(write_config(tmp_path, run_config(tmp_path)))
        assert cfg.name == "demo" and cfg.mode == "run"
        assert len(cfg.spec.t_family) == 2
        # identity partners are filled in and the fixed set is inferred
        assert cfg.spec.i_family[0].name == "identity"
        assert cfg.spec.fixed_set.kind == "scalar_line"

    def test_i_family_defaults_to_identities(self, tmp_path):
        payload = run_config(tmp_path)
        del payload["i_family"]
        cfg = cli.parse_config(write_config(tmp_path, payload))
        assert [mp.name for mp in cfg.spec.i_family] == ["identity", "identity"]

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            cli.parse_config(str(tmp_path / "absent.json"))

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            cli.parse_config(str(path))

    def test_non_object_top_level(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValidationError):
            cli.parse_config(str(path))

    def test_unknown_mode_rejected_early(self, tmp_path):
        with pytest.raises(ValidationError) as err:
            cli.parse_config(write_config(tmp_path, {"mode": "simulate"}))
        assert any("mode" in v for v in err.value.violations)

    def test_all_violations_collected(self, tmp_path):
        payload = run_config(tmp_path)
        payload["tol"] = -1.0
        payload["max_steps"] = 0
        payload["x0"] = {"scalar": 5.0, "vec": []}
        with pytest.raises(ValidationError) as err:
            cli.parse_config(write_config(tmp_path, payload))
        text = " | ".join(err.value.violations)
        assert "tol" in text and "max_steps" in text and "x0" in text
        assert len(err.value.violations) == 3

    def test_weights_breaking_simplex_rejected(self, tmp_path):
        payload = run_config(tmp_path)
        payload["t_family"] = [{"kind": "s", "alpha": 0.5}]
        payload["i_family"] = [{"kind": "identity"}]
        payload["alpha_schedule"] = {
            "kind": "custom",
            "weights": [0.45, 0.45],
            "bounds": [0.1, 0.9],
        }
        with pytest.raises(ValidationError) as err:
            cli.parse_config(write_config(tmp_path, payload))
        assert any(
            "alpha_schedule" in v and "0.9" in v for v in err.value.violations
        )

    def test_mixed_family_domains_rejected(self, tmp_path):
        payload = run_config(tmp_path)
        payload["t_family"] = [
            {"kind": "s", "alpha": 0.5},
            {"kind": "s_f", "kappa": 0.5, "alpha": 0.5},
        ]
        with pytest.raises(ValidationError) as err:
            cli.parse_config(write_config(tmp_path, payload))
        assert any("domain" in v for v in err.value.violations)

    def test_witness_x0_checked_against_every_combination(self, tmp_path):
        payload = {
            "mode": "witness",
            "alpha": [0.5],
            "k": [3, 8],
            "lambda_k": 0.1,
            "x0": 0.005,
        }
        # 0.005 is admissible at k = 3 but exceeds the bound at k = 8
        with pytest.raises(ValidationError) as err:
            cli.parse_config(write_config(tmp_path, payload))
        assert any("k=8" in v for v in err.value.violations)

    def test_counterexample_accepts_norm_shorthand(self, tmp_path):
        payload = {"mode": "counterexample", "norm": 1.0, "horizon": 10}
        cfg = cli.parse_config(write_config(tmp_path, payload))
        assert cfg.spec.x.scalar == 1.0
        assert cfg.spec.horizon == 10

    def test_defect_powers_range_object(self, tmp_path):
        payload = {
            "mode": "defect_profile",
            "kappa": 0.5,
            "powers": {"min": 1, "max": 4},
            "grid_size": 101,
        }
        cfg = cli.parse_config(write_config(tmp_path, payload))
        assert tuple(cfg.spec.powers) == (1, 2, 3, 4)

    def test_defect_power_range_is_not_listed_while_parsing(self, tmp_path):
        payload = {
            "mode": "defect_profile",
            "kappa": 0.5,
            "powers": {"min": 1, "max": 10**8},
            "grid_size": 101,
        }
        path = write_config(tmp_path, payload)
        tracemalloc.start()
        try:
            cfg = cli.parse_config(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        powers = cfg.spec.powers
        assert len(powers) == 10**8
        assert (powers[0], powers[-1]) == (1, 10**8)
        # a tuple of 10**8 powers would take 800 MB for its pointers alone
        assert peak < 2**20


class TestMainExitCodes:
    def test_run_mode_succeeds(self, tmp_path):
        code = cli.main([write_config(tmp_path, run_config(tmp_path)), "--quiet"])
        assert code == 0
        out = tmp_path / "out"
        summary = json.loads((out / "demo_summary.json").read_text())
        assert summary["terminated_by"] == "tolerance"
        assert summary["final_scalar"] == 0.7
        assert summary["final_vec_norm"] < 1e-6
        rows = read_trace_csv(str(out / "demo_trace.csv"))
        assert rows[0]["n"] == 1 and len(rows) == summary["steps"]

    def test_validation_failure_exits_2(self, tmp_path, capsys):
        payload = run_config(tmp_path)
        payload["x0"] = {"scalar": 7.0, "vec": []}
        code = cli.main([write_config(tmp_path, payload)])
        assert code == 2
        err = capsys.readouterr().err
        assert "config validation failed" in err and "x0" in err

    def test_negative_seed_option_exits_2(self, tmp_path, capsys):
        payload = {
            "name": "seeded",
            "mode": "certify",
            "mapping": {"kind": "s", "alpha": 0.5},
            "samples": 10,
            "powers": [1, 3],
            "output_dir": str(tmp_path / "out"),
        }
        code = cli.main([write_config(tmp_path, payload), "--seed", "-1"])
        assert code == 2
        err = capsys.readouterr().err
        assert "config validation failed" in err and "'--seed'" in err
        assert "runtime error" not in err
        assert not (tmp_path / "out").exists()

    def test_seed_option_violation_joins_the_config_violations(self, tmp_path, capsys):
        payload = run_config(tmp_path)
        payload["tol"] = -1.0
        code = cli.main([write_config(tmp_path, payload), "--seed", "-3"])
        assert code == 2
        err = capsys.readouterr().err
        assert "'tol'" in err and "'--seed'" in err
        assert not (tmp_path / "out").exists()

    def test_parse_failure_exits_2(self, tmp_path, capsys):
        code = cli.main([str(tmp_path / "nope.json")])
        assert code == 2
        assert "parse error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "content",
        [b"\xff\xfe{}", b"[" * 100_000, b"1" * 5_000],
        ids=["not-utf8", "deeply-nested", "integer-past-digit-limit"],
    )
    def test_undecodable_config_exits_2(self, tmp_path, capsys, content):
        path = tmp_path / "config.json"
        path.write_bytes(content)
        assert cli.main([str(path)]) == 2
        assert "config parse error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "powers", [[True, 2], {"min": True, "max": 2}, {"min": 1, "max": True}]
    )
    def test_boolean_defect_powers_exit_2(self, tmp_path, capsys, powers):
        payload = {
            "name": "def",
            "mode": "defect_profile",
            "kappa": 0.5,
            "powers": powers,
            "grid_size": 11,
            "output_dir": str(tmp_path / "out"),
        }
        code = cli.main([write_config(tmp_path, payload)])
        assert code == 2
        err = capsys.readouterr().err
        assert "config validation failed" in err and "'powers'" in err
        assert not (tmp_path / "out" / "def_defects.csv").exists()

    @pytest.mark.parametrize(
        "name",
        ["sub/run", "../escaped", ".", "..", "nul\0byte"],
        ids=["subdir", "parent", "dot", "dotdot", "nul"],
    )
    def test_name_outside_output_dir_exits_2(self, tmp_path, capsys, name):
        payload = {
            "name": name,
            "mode": "counterexample",
            "norm": 1.0,
            "horizon": 3,
            "output_dir": str(tmp_path / "out" / "inner"),
        }
        code = cli.main([write_config(tmp_path, payload), "--quiet"])
        assert code == 2
        err = capsys.readouterr().err
        assert "config validation failed" in err and "'name'" in err
        assert [p.name for p in tmp_path.rglob("*")] == ["config.json"]

    @pytest.mark.parametrize(
        "field, value",
        [
            ("name", "a" * 250),
            ("name", "a\ud800b"),
            # 237 bytes: one past 255 less "_counterexample.csv"
            ("name", "é" * 118 + "a"),
            ("output_dir", "x\ud800"),
        ],
        ids=["name-too-long", "name-surrogate", "name-237-bytes", "output-dir-surrogate"],
    )
    def test_name_that_cannot_name_a_file_exits_2(self, tmp_path, field, value):
        payload = {**BASE["counterexample"], "name": "ce", "output_dir": str(tmp_path / "out")}
        payload[field] = str(tmp_path / value) if field == "output_dir" else value
        code, violations, err = _main_on(payload, tmp_path)
        assert code == 2, err
        assert len(violations) == 1 and violations[0].startswith(f"'{field}': "), violations
        assert [p.name for p in tmp_path.rglob("*")] == ["config.json"]

    @pytest.mark.parametrize(
        "field, value",
        [
            ("output_dir", "x/" + "a" * 300),
            ("--output-dir", "y/" + "b" * 300),
            ("--output-dir", ""),
            ("--output-dir", "x\ud800"),
            ("output_dir", "x\0y"),
            ("--output-dir", "x\0y"),
        ],
        ids=["key-too-long", "flag-too-long", "flag-empty", "flag-surrogate", "key-nul", "flag-nul"],
    )
    def test_bad_output_dir_exits_2_before_any_directory(
        self, tmp_path, monkeypatch, field, value
    ):
        monkeypatch.chdir(tmp_path)
        payload = {**BASE["counterexample"], "name": "ce"}
        if field == "output_dir":
            payload["output_dir"] = value
            code, violations, err = _main_on(payload, tmp_path)
        else:
            code, violations, err = _main_on(payload, tmp_path, field, value)
        assert code == 2, err
        assert len(violations) == 1 and violations[0].startswith(f"'{field}': "), violations
        assert [p.name for p in tmp_path.rglob("*")] == ["config.json"]

    def test_name_of_236_bytes_runs(self, tmp_path):
        name = "é" * 118
        payload = {**BASE["counterexample"], "name": name, "output_dir": str(tmp_path / "out")}
        code, _, err = _main_on(payload, tmp_path)
        assert code == 0, err
        assert (tmp_path / "out" / f"{name}_counterexample.csv").exists()

    def test_runtime_failure_exits_3(self, tmp_path, capsys):
        payload = run_config(tmp_path)
        # valid config whose iterate escapes the ball: alpha = 0.9 breaks
        # invariance at (1/4, 3/4) and the step refuses to clamp
        payload["t_family"] = [{"kind": "s", "alpha": 0.9}]
        payload["i_family"] = [{"kind": "identity"}]
        payload["x0"] = {"scalar": 0.0, "vec": [0.25, 0.75]}
        code = cli.main([write_config(tmp_path, payload)])
        assert code == 3
        assert "DomainViolation" in capsys.readouterr().err
        assert not list(tmp_path.rglob("demo_*"))
        assert not (tmp_path / "out").exists()

    def test_failed_certificates_exit_1(self, tmp_path, monkeypatch):
        def doomed(t_map, i_map, block, ns, gaps, mu, lam, phi, tol=1e-12):
            return CheckColumn(
                lhs=np.ones((len(block), len(ns))),
                rhs=np.zeros((len(block), len(ns))),
                tolerance=tol,
                context={"equation": "gradual-relaxation"},
                per_check={"n": ns},
            )

        monkeypatch.setattr(cli, "check_total_inequalities", doomed)
        payload = {
            "name": "doomed",
            "mode": "certify",
            "mapping": {"kind": "s", "alpha": 0.5},
            "samples": 2,
            "powers": [1, 2],
            "output_dir": str(tmp_path),
        }
        code = cli.main([write_config(tmp_path, payload), "--quiet"])
        assert code == 1
        report = json.loads((tmp_path / "doomed_certificates.json").read_text())
        assert report["summary"]["failed"] == 4
        assert not report["summary"]["all_satisfied"]
        assert len(report["failures"]) == 4

    @pytest.mark.parametrize("full_checks", [False, True])
    def test_identity_failing_at_one_power_exits_1(self, tmp_path, monkeypatch, full_checks):
        real = cli.check_shift_identities

        def doomed_at_2(alpha, ks, block, direct, dist):
            identity, *chain = real(alpha, ks, block, direct, dist)
            lhs = np.where(np.asarray(ks) == 2, 1.0, identity.lhs)
            return (dataclasses.replace(identity, lhs=lhs), *chain)

        monkeypatch.setattr(cli, "check_shift_identities", doomed_at_2)
        payload = {
            "name": "doomed",
            "mode": "certify",
            "mapping": {"kind": "s", "alpha": 0.5},
            "samples": 1,
            "powers": [1, 3],
            "full_checks": full_checks,
            "output_dir": str(tmp_path),
        }
        assert cli.main([write_config(tmp_path, payload), "--quiet"]) == 1
        report = json.loads((tmp_path / "doomed_certificates.json").read_text())
        summary = report["summary"]
        # 3 powers x (total inequality, identity, two root-gap checks)
        assert summary["total_checks"] == 12 and summary["failed"] == 1
        assert not summary["by_equation"]["iterate-difference-identity"]["satisfied"]
        (failure,) = report["failures"]
        assert failure["equation"] == "iterate-difference-identity"
        assert failure["n"] == 2 and failure["slack"] == -1.0
        worst = {(row["map"], row["equation"]): row for row in report["worst"]}
        assert worst[("s(0.5)", "iterate-difference-identity")] == failure
        if full_checks:
            rows = report["checks"]
            assert len(rows) == 12
            # power by power; the root-gap rows carry no n
            assert [row["n"] for row in rows[::4]] == [1, 2, 3]
            assert [row["equation"] for row in rows] == [
                "gradual-relaxation",
                "iterate-difference-identity",
                "root-gap-inner",
                "root-gap-outer",
            ] * 3
            assert failure in rows
        else:
            assert "checks" not in report

    @pytest.mark.parametrize(
        "mode, patch, field",
        [
            ("run", {"t_family": [{"kind": ["s"], "alpha": 0.5}]}, "t_family[0]"),
            ("run", {"i_family": [{"kind": ["s"]}]}, "i_family[0]"),
            ("certify", {"mapping": {"kind": ["s"], "alpha": 0.5}}, "mapping"),
        ],
        ids=["t_family", "i_family", "mapping"],
    )
    def test_kind_not_a_string_exits_2(self, tmp_path, mode, patch, field):
        code, violations, err = _main_on(_malformed(mode, patch, tmp_path), tmp_path)
        assert code == 2, err
        assert f"'{field}': unknown mapping kind ['s']; expected one of" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "field, value",
        [("x", {"scalar": 0.0, "vec": [1e308, 1e308]}), ("norm", 1e308)],
    )
    def test_counterexample_norm_overflowing_when_doubled_exits_2(
        self, tmp_path, field, value
    ):
        # 2d = ||x - (-x)|| overflows: the rows were nan and inf
        payload = _malformed("counterexample", {}, tmp_path)
        del payload["norm"]
        payload[field] = value
        code, violations, err = _main_on(payload, tmp_path)
        assert code == 2, err
        assert [v.split(":")[0] for v in violations] == [f"'{field}'"]
        assert not (tmp_path / "out").exists()


class TestStrictConfigs:
    """Every key of every object is read, once."""

    def test_flag_of_another_mode_is_one_violation(self, tmp_path):
        payload = _malformed("certify", {"dump_states": "x"}, tmp_path)
        code, violations, err = _main_on(payload, tmp_path)
        assert code == 2, err
        assert violations == ["'dump_states': unknown key"]

    def test_nested_unknown_keys_each_named(self, tmp_path):
        payload = _malformed("run", {}, tmp_path)
        payload["t_family"] = [{"kind": "s", "alpha": 0.5, "kappa": 0.5}]
        payload["i_family"] = [{"kind": "identity", "alpha": 0.5}]
        payload["alpha_schedule"] = {"kind": "custom", "wieghts": [0.5, 0.5]}
        payload["fixed_set"] = {
            "kind": "scalar_line", "interval": [0, 1], "point": {"scalar": 0.0, "vec": []}
        }
        payload["x0"]["junk"] = 1
        code, violations, err = _main_on(payload, tmp_path)
        assert code == 2, err
        unknown = [v for v in violations if "unknown key" in v]
        assert unknown == [
            "'t_family[0].kappa': unknown key; did you mean 'alpha'?",
            "'i_family[0].alpha': unknown key",
            "'alpha_schedule.wieghts': unknown key; did you mean 'weights'?",
            "'fixed_set.point': unknown key",
            "'x0.junk': unknown key",
        ]
        assert not (tmp_path / "out").exists()

    def test_bad_t_family_hides_no_other_violation(self, tmp_path):
        payload = {
            "mode": "run", "t_family": [], "x0": {"scalar": "a"}, "tol": -1,
            "max_steps": True, "alpha_schedule": {"kind": "custom", "weights": "x"},
            "output_dir": str(tmp_path / "out"),
        }
        code, violations, err = _main_on(payload, tmp_path)
        assert code == 2 and "Traceback" not in err, err
        for field in ("t_family", "alpha_schedule.weights", "tol", "max_steps", "x0"):
            assert _names(field, violations), (field, violations)
        # the same violations as with one valid map, besides t_family's own
        payload["t_family"] = [{"kind": "s", "alpha": 0.5}]
        assert _main_on(payload, tmp_path)[1] == violations[1:]
        # a non-list i_family is named even when there is no family size
        payload.update(t_family=[], i_family=5)
        code, violations, err = _main_on(payload, tmp_path)
        assert code == 2 and "Traceback" not in err, err
        assert _names("i_family", violations), violations
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "schedule, named",
        [
            ({"kind": "custom", "weights": [0.2, 0.9], "bounds": [0.9, 0.1]},
             ["'alpha_schedule.bounds': bounds must satisfy 0 < lo < hi < 1, got (0.9, 0.1)",
              "'alpha_schedule.weights': weights (0.2, 0.9) sum to 1.1"]),
            ({"kind": "custom", "weights": [0.05, 0.95], "bounds": [0.1, 0.9]},
             ["'alpha_schedule.weights': weight 0.05 (slot 0) outside [0.1, 0.9]"]),
            ({"kind": "bogus", "bounds": [0.5, 0.5]},
             ["'alpha_schedule.kind': unknown schedule kind 'bogus'",
              "'alpha_schedule.bounds': bounds must satisfy 0 < lo < hi < 1, got (0.5, 0.5)"]),
        ],
        ids=["bounds-and-sum", "box", "kind"],
    )
    def test_bad_t_family_hides_no_schedule_violation(self, tmp_path, schedule, named):
        """Only a schedule's slot count needs the family size."""
        payload = {
            "mode": "run", "t_family": [], "alpha_schedule": schedule,
            "x0": {"scalar": 0.5, "vec": []}, "output_dir": str(tmp_path / "out"),
        }
        code, violations, err = _main_on(payload, tmp_path)
        assert code == 2 and "Traceback" not in err, err
        assert violations[1:] == named
        payload["t_family"] = [{"kind": "s", "alpha": 0.5}]
        assert _main_on(payload, tmp_path)[1] == named

    @pytest.mark.parametrize(
        "mode, path",
        [
            ("run", ("t_family", 0)),
            ("run", ("alpha_schedule",)),
            ("run", ("x0",)),
            ("run_with_errors", ("error_v",)),
            ("certify", ("mapping",)),
        ],
        ids=["t_family", "schedule", "x0", "error_v", "mapping"],
    )
    def test_unknown_key_in_each_object_exits_2(self, tmp_path, mode, path):
        payload = _malformed(mode, {}, tmp_path)
        target = payload
        for key in path:
            target = target[key]
        target["junk"] = 0
        code, violations, err = _main_on(payload, tmp_path)
        assert code == 2, err
        dotted = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path)
        assert violations == [f"'{dotted[1:]}.junk': unknown key"]

    @pytest.mark.parametrize(
        "mode, patch, violation",
        [
            ("defect_profile", {"powers": {"min": 1, "max": 3, "step": 2}},
             "'powers.step': unknown key"),
            ("run", {"fixed_set": {"kind": "single_point", "interval": [0, 1],
                                   "point": {"scalar": 0.0, "vec": [], "vex": []}}},
             "'fixed_set.interval': unknown key"),
            ("certify", {"mappings": [{"kind": "identity"}]},
             "'mappings': give 'mapping' or 'mappings', not both"),
            ("counterexample", {"x": {"scalar": 1.0, "vec": []}},
             "'norm': give 'x' or 'norm', not both"),
        ],
        ids=["defect-powers", "fixed-set-kind", "mapping-and-mappings", "x-and-norm"],
    )
    def test_dropped_value_exits_2(self, tmp_path, mode, patch, violation):
        code, violations, err = _main_on(_malformed(mode, patch, tmp_path), tmp_path)
        assert code == 2, err
        assert violation in violations

    def test_repeated_key_exits_2(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(
            '{"mode": "counterexample", "norm": 1.0, "horizon": 3, "horizon": 5,'
            f' "output_dir": {json.dumps(str(tmp_path / "out"))}}}'
        )
        assert cli.main([str(path), "--quiet"]) == 2
        with pytest.raises(ValidationError) as info:
            cli.parse_config(path)
        assert info.value.violations == ["'horizon': repeated key"]
        assert not (tmp_path / "out").exists()

    def test_repeated_key_named_with_its_path(self, tmp_path):
        # a key repeated inside a value that a repeat dropped is found too
        path = tmp_path / "config.json"
        path.write_text(
            '{"mode": "run", "t_family": [{"kind": "s", "alpha": 0.5, "alpha": 0.4}],'
            ' "x0": {"scalar": 0.5, "scalar": 0.6, "vec": []},'
            ' "fixed_set": {"kind": "single_point", "point": {"scalar": 0, "scalar": 1,'
            ' "vec": []}, "point": {"scalar": 0, "vec": []}}}'
        )
        with pytest.raises(ValidationError) as info:
            cli.parse_config(path)
        assert [v for v in info.value.violations if v.endswith("repeated key")] == [
            "'t_family[0].alpha': repeated key",
            "'x0.scalar': repeated key",
            "'fixed_set.point': repeated key",
            "'fixed_set.point.scalar': repeated key",
        ]

    @pytest.mark.parametrize("kind", ["s", "t_alpha"])
    def test_certify_walks_each_point_once(self, tmp_path, monkeypatch, kind):
        calls = Counter()

        def count(name):
            real = getattr(mappings, name)
            monkeypatch.setattr(
                mappings, name, lambda *args: calls.update([name]) or real(*args)
            )

        for name in ("_shift_power", "_shift_gaps", "check_powers"):
            count(name)
        payload = {
            "name": "orbits",
            "mode": "certify",
            "mappings": [
                {"kind": kind, "alpha": 0.5},
                {"kind": "s_f", "kappa": 0.5, "alpha": 0.5},
            ],
            "samples": cli.CERTIFY_BLOCK + 1,
            "powers": [1, 4],
            "output_dir": str(tmp_path),
        }
        assert cli.main([write_config(tmp_path, payload), "--quiet"]) == 0
        # no image is built: the gaps of each block of pairs are one array
        # pass per mapping, and the power range is checked once per mapping,
        # not once per block or point; the samples fill two blocks
        assert calls == {"_shift_gaps": 2 * 2, "check_powers": 2}


class TestDefectRoute:
    """The defect table walks the grid once for all its powers; the s_f
    profile's lambda_n is the table's envelope column, and certify walks no
    grid."""

    @pytest.mark.parametrize("kappa", [0.5, 0.7])
    def test_envelope_column_is_the_s_f_profile_term(self, tmp_path, kappa):
        payload = {
            "name": "def",
            "mode": "defect_profile",
            "kappa": kappa,
            "powers": {"min": 1, "max": 10},
            "grid_size": 2001,
            "output_dir": str(tmp_path),
        }
        assert cli.main([write_config(tmp_path, payload), "--quiet"]) == 0
        lines = (tmp_path / "def_defects.csv").read_text().splitlines()[1:]
        rows = [line.split(",") for line in lines]
        lam = make_s_f(kappa, 0.5).profile.lam
        assert [row[1] for row in rows] == [
            repr(mappings.oscillator_defect(kappa, n, 2001)) for n in range(1, 11)
        ]
        assert [row[2] for row in rows] == [repr(lam(n)) for n in range(1, 11)]

    @pytest.mark.parametrize(
        "powers, ns", [([5, 1, 3, 5], [5, 1, 3, 5]), ({"min": 2, "max": 6}, [2, 3, 4, 5, 6])]
    )
    def test_one_walk_serves_every_row(self, tmp_path, monkeypatch, powers, ns):
        entries, f_step = [], mappings._f_step
        monkeypatch.setattr(
            mappings, "_f_step", lambda kappa, xs: entries.append(len(xs)) or f_step(kappa, xs)
        )
        payload = {
            "name": "def",
            "mode": "defect_profile",
            "kappa": 0.5,
            "powers": powers,
            "grid_size": 101,
            "output_dir": str(tmp_path),
        }
        assert cli.main([write_config(tmp_path, payload), "--quiet"]) == 0
        assert sum(entries) == max(ns) * 101
        lines = (tmp_path / "def_defects.csv").read_text().splitlines()[1:]
        assert [line.split(",")[:2] for line in lines] == [
            [str(n), repr(mappings.oscillator_defect(0.5, n, 101))] for n in ns
        ]

    @pytest.mark.parametrize(
        "payload",
        [{"mode": "defect_profile", "kappa": 0.4321, "powers": [1, 2, 3], "grid_size": 101}],
        ids=["defect_profile"],
    )
    def test_estimate_above_its_ceiling_exits_3(self, tmp_path, monkeypatch, capsys, payload):
        real, scans = mappings._sorted_grid_defect, []

        def broken_at_power_2(xs, u):
            scans.append(xs)
            return 1.0 if len(scans) == 2 else real(xs, u)

        monkeypatch.setattr(mappings, "_sorted_grid_defect", broken_at_power_2)
        payload = dict(payload, name="broken", output_dir=str(tmp_path / "out"))
        assert cli.main([write_config(tmp_path, payload), "--quiet"]) == 3
        err = capsys.readouterr().err
        assert "runtime error: ArithmeticError" in err and "ceiling" in err
        assert not (tmp_path / "out").exists()

    def test_certify_walks_no_grid(self, tmp_path, monkeypatch):
        scans = []
        monkeypatch.setattr(mappings, "_sorted_grid_defect", lambda xs, u: scans.append(xs))
        payload = {
            "name": "cert",
            "mode": "certify",
            "mapping": {"kind": "s_f", "kappa": 0.4321, "alpha": 0.5},
            "samples": 2,
            "powers": [1, 3],
            "output_dir": str(tmp_path),
        }
        assert cli.main([write_config(tmp_path, payload), "--quiet"]) == 0
        assert scans == []


# The run_with_errors config of TestArtifacts' frozen digests.
FROZEN_RUN_WITH_ERRORS = {
    "mode": "run_with_errors",
    "t_family": [{"kind": "s_f", "kappa": 0.5, "alpha": 0.5}],
    "x0": {"scalar": 0.3, "vec": [0.5, -0.25]},
    "error_u": {"scalar": 0.01, "vec": [0.02]},
    "error_v": {"scalar": -0.01, "vec": [0.0, 0.01]},
    "tol": 1e-12,
    "max_steps": 30,
    "dump_states": True,
}


class TestArtifacts:
    def test_certify_report_shape(self, tmp_path):
        payload = {
            "name": "cert",
            "mode": "certify",
            "mappings": [{"kind": "s", "alpha": 0.5}, {"kind": "t_alpha", "alpha": 0.9}],
            "samples": 10,
            "powers": [1, 5],
            "seed": 42,
            "output_dir": str(tmp_path),
        }
        assert cli.main([write_config(tmp_path, payload), "--quiet"]) == 0
        report = json.loads((tmp_path / "cert_certificates.json").read_text())
        assert report["summary"]["all_satisfied"]
        eqs = set(report["summary"]["by_equation"])
        assert eqs == {
            "gradual-relaxation",
            "iterate-difference-identity",
            "root-gap-inner",
            "root-gap-outer",
        }
        assert all(agg["min_slack"] >= -1e-12 for agg in report["summary"]["by_equation"].values())
        # aggregate report by default: no per-check dump
        assert "checks" not in report and "sampled_points" not in report
        worst_keys = {(row["map"], row["equation"]) for row in report["worst"]}
        assert ("s(0.5)", "gradual-relaxation") in worst_keys

    def test_certify_full_checks_dump(self, tmp_path):
        payload = {
            "name": "full",
            "mode": "certify",
            "mapping": {"kind": "s", "alpha": 0.5},
            "samples": 3,
            "powers": [1, 2],
            "full_checks": True,
            "output_dir": str(tmp_path),
        }
        assert cli.main([write_config(tmp_path, payload), "--quiet"]) == 0
        report = json.loads((tmp_path / "full_certificates.json").read_text())
        assert len(report["sampled_points"]) == 3
        assert len(report["checks"]) == report["summary"]["total_checks"]

    # SHA-256 of the certificates of one small config over all four mapping
    # kinds, recorded when the s_f profile took its lambda_n from the
    # envelope 2 k^n / pi; any change to a check, its order or its rounding
    # shows here.
    @pytest.mark.parametrize(
        "full_checks, digest",
        [
            (False, "1792c1b767e99bb12064155efbc6c60eb99eb0d0643437c641edc34ba61e4d1a"),
            (True, "6e6681d57501106f0587ffbc28e9a1ce1ccefe1429cef534f1d927306f918aaa"),
        ],
    )
    def test_certify_artifact_frozen(self, tmp_path, full_checks, digest):
        payload = {
            "name": "frozen",
            "mode": "certify",
            "mappings": [
                {"kind": "s", "alpha": 0.5},
                {"kind": "t_alpha", "alpha": 0.8},
                {"kind": "s_f", "kappa": 0.5, "alpha": 0.5},
                {"kind": "identity"},
            ],
            "samples": 20,
            "powers": [1, 25],
            "seed": 3,
            "full_checks": full_checks,
        }
        config = write_config(tmp_path, payload)
        assert cli.main([config, "--output-dir", str(tmp_path), "--quiet"]) == 0
        data = (tmp_path / "frozen_certificates.json").read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest

    # SHA-256 of a failing certificate: with mu_n = 0 in the profile of T_a,
    # 8 checks of 200 samples fail.  Recorded before certify folded its
    # slacks by column, so the failure and worst rows, which it now builds
    # only on demand, must keep every byte.
    @pytest.mark.parametrize(
        "full_checks, digest",
        [
            (False, "83abe06f62bbd993f5a3cddb494b96051d2d2576fe7011efc09fbf5dc93572c2"),
            (True, "571524b2757e06f3f82661f01a8c8935b1f257649536faacdcd46de829863030"),
        ],
    )
    def test_failing_certify_artifact_frozen(self, tmp_path, monkeypatch, full_checks, digest):
        real = mappings.shift_root_profile
        monkeypatch.setattr(
            mappings,
            "shift_root_profile",
            lambda alpha: dataclasses.replace(real(alpha), mu=lambda n: 0.0),
        )
        payload = {
            "name": "negative",
            "mode": "certify",
            "mappings": [{"kind": "t_alpha", "alpha": 0.6}, {"kind": "s", "alpha": 0.5}],
            "samples": 200,
            "powers": [1, 6],
            "seed": 3,
            "full_checks": full_checks,
        }
        config = write_config(tmp_path, payload)
        assert cli.main([config, "--output-dir", str(tmp_path), "--quiet"]) == 1
        data = (tmp_path / "negative_certificates.json").read_bytes()
        assert json.loads(data)["summary"]["failed"] == 8
        assert hashlib.sha256(data).hexdigest() == digest

    # SHA-256 of every artifact of one small config per remaining mode,
    # recorded before the modes handed their files to execute to write.
    @pytest.mark.parametrize(
        "payload, digests",
        [
            (
                {"mode": "witness", "alpha": [0.5, 0.3], "k": [1, 3], "lambda_k": 0.1},
                {
                    "witness.csv": "166204493f0adb57e1c5f0cdb76f2dded3ec4b024355eb659eb178e6a34bcb34",
                    "summary.json": "f0766937ab330ab0793aa654927cad1328f7a16b00ebceba7e6938a0b66c8ad4",
                },
            ),
            (
                {
                    "mode": "counterexample",
                    "x": {"scalar": -0.0, "vec": [0.0, -0.0, 1.5, -2.25]},
                    "horizon": 50,
                },
                {
                    "counterexample.csv": "c222abdbb2307dc19debb62b7177a09444b8361c5a4e36e821fcece5cf43443f",
                    "summary.json": "3966bde75a0c4c22dbbebf2c7d0c95d7948f94ec2d6775837e9a91ba2c10dbee",
                },
            ),
            (
                {"mode": "counterexample", "norm": 3.5, "horizon": 40},
                {
                    "counterexample.csv": "4a5fb0b986e6f8f76beb3217b92b8e8080c0ec5b6ee8991bf88d72ae039584f7",
                    "summary.json": "c240fab6b9865217001d4571db65b9a3b525c831303fffec43e58f3ce701c899",
                },
            ),
            (
                {"mode": "defect_profile", "kappa": 0.5, "powers": [5, 1, 5, 12], "grid_size": 501},
                {
                    "defects.csv": "1bd4168c1058446c43d13542bb6f5da6db540374a0c58d1e70834767e2dea10d",
                    "summary.json": "96b05bfdbdcdede7cf3060076db80e722dd3b9b893323d74e14caa619cae8287",
                },
            ),
            (
                FROZEN_RUN_WITH_ERRORS,
                {
                    "trace.csv": "16bd6a534a747025bcd0ab58217f846ac6fc0fbe60e17be682434972c802f37b",
                    "summary.json": "18f3fb4d9618ba16ca7587e942a99682ff1474e50a073e5232c3c07a73e9f893",
                    "states.jsonl": "8e1a68f6fe49214d3c4f354c81dbc22d13659387e6303af5b5fcac73ade7c752",
                },
            ),
        ],
        ids=["witness", "counterexample-x", "counterexample-norm", "defect_profile", "run_with_errors"],
    )
    def test_mode_artifacts_frozen(self, tmp_path, payload, digests):
        config = write_config(tmp_path, dict(payload, name="frozen"))
        out = tmp_path / "out"
        assert cli.main([config, "--output-dir", str(out), "--quiet"]) == 0
        assert sorted(p.name for p in out.iterdir()) == sorted(f"frozen_{s}" for s in digests)
        for suffix, digest in digests.items():
            data = (out / f"frozen_{suffix}").read_bytes()
            assert hashlib.sha256(data).hexdigest() == digest, suffix

    def test_states_read_back_as_the_trace_points(self, tmp_path):
        """Each line of the frozen dump reads back, by point_from_json, as the
        step's x_n and y_n: the same stored entries, bit for bit, and length."""
        config = write_config(tmp_path, dict(FROZEN_RUN_WITH_ERRORS, name="frozen"))
        out = tmp_path / "out"
        assert cli.main([config, "--output-dir", str(out), "--quiet"]) == 0
        records = scheme.run(cli.parse_config(config).spec).records
        lines = (out / "frozen_states.jsonl").read_text().splitlines()
        assert len(lines) == len(records) == 30
        for line, rec in zip(lines, records):
            obj = json.loads(line)
            assert obj["n"] == rec.n
            for key, want in (("x", rec.x), ("y", rec.y)):
                got = point_from_json(obj[key])
                assert got.scalar.hex() == want.scalar.hex()
                assert got.vec.idx.tolist() == want.vec.idx.tolist()
                assert got.vec.val.tobytes() == want.vec.val.tobytes()
                assert len(got.vec) == len(want.vec)

    def test_witness_table(self, tmp_path):
        payload = {
            "name": "wit",
            "mode": "witness",
            "alpha": [0.3, 0.5],
            "k": [1, 3],
            "lambda_k": 0.1,
            "output_dir": str(tmp_path),
        }
        assert cli.main([write_config(tmp_path, payload), "--quiet"]) == 0
        lines = (tmp_path / "wit_witness.csv").read_text().splitlines()
        assert lines[0].startswith("alpha,k,lambda_k,x0,separation")
        assert len(lines) == 5
        assert all(line.endswith(",true") for line in lines[1:])
        summary = json.loads((tmp_path / "wit_summary.json").read_text())
        assert summary["all_exceed"] is True

    def test_counterexample_table(self, tmp_path):
        payload = {
            "name": "ce",
            "mode": "counterexample",
            "norm": 1.0,
            "horizon": 100,
            "output_dir": str(tmp_path),
        }
        assert cli.main([write_config(tmp_path, payload), "--quiet"]) == 0
        summary = json.loads((tmp_path / "ce_summary.json").read_text())
        assert summary["all_within_tolerance"] is True
        assert summary["max_deviation"] <= 1e-14
        lines = (tmp_path / "ce_counterexample.csv").read_text().splitlines()
        assert len(lines) == 101
        # difference norm stays at 2d on every row
        assert all(line.split(",")[-1] == "2.0" for line in lines[1:])

    def test_defect_table(self, tmp_path):
        payload = {
            "name": "def",
            "mode": "defect_profile",
            "kappa": 0.5,
            "powers": [1, 3],
            "grid_size": 201,
            "output_dir": str(tmp_path),
        }
        assert cli.main([write_config(tmp_path, payload), "--quiet"]) == 0
        summary = json.loads((tmp_path / "def_summary.json").read_text())
        assert summary["all_within_envelope"] is True
        lines = (tmp_path / "def_defects.csv").read_text().splitlines()
        assert lines[0] == "n,estimate,envelope,within_envelope"
        assert len(lines) == 3

    def test_dump_states_writes_jsonl(self, tmp_path):
        payload = run_config(tmp_path)
        payload["dump_states"] = True
        payload["max_steps"] = 5
        payload["tol"] = 1e-300
        assert cli.main([write_config(tmp_path, payload), "--quiet"]) == 0
        lines = (tmp_path / "out" / "demo_states.jsonl").read_text().splitlines()
        assert len(lines) == 5
        assert json.loads(lines[0])["x"] == {"scalar": 0.7, "vec": [1.0]}


class TestDeterminism:
    def test_certify_outputs_are_byte_identical(self, tmp_path):
        payload = {
            "name": "repro",
            "mode": "certify",
            "mapping": {"kind": "s", "alpha": 0.5},
            "samples": 25,
            "powers": [1, 6],
            "seed": 7,
        }
        a, b = tmp_path / "a", tmp_path / "b"
        cfg_path = write_config(tmp_path, payload)
        assert cli.main([cfg_path, "--output-dir", str(a), "--quiet"]) == 0
        assert cli.main([cfg_path, "--output-dir", str(b), "--quiet"]) == 0
        assert (a / "repro_certificates.json").read_bytes() == (
            b / "repro_certificates.json"
        ).read_bytes()

    def test_seed_override_changes_samples(self, tmp_path):
        payload = {
            "name": "seeded",
            "mode": "certify",
            "mapping": {"kind": "s", "alpha": 0.5},
            "samples": 10,
            "powers": [1, 3],
            "full_checks": True,
            "seed": 7,
        }
        a, b = tmp_path / "a", tmp_path / "b"
        cfg_path = write_config(tmp_path, payload)
        assert cli.main([cfg_path, "--output-dir", str(a), "--quiet"]) == 0
        assert cli.main([cfg_path, "--output-dir", str(b), "--seed", "8", "--quiet"]) == 0
        pa = json.loads((a / "seeded_certificates.json").read_text())["sampled_points"]
        pb = json.loads((b / "seeded_certificates.json").read_text())["sampled_points"]
        assert pa != pb

    def test_run_trace_byte_identical(self, tmp_path):
        payload = run_config(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        cfg_path = write_config(tmp_path, payload)
        assert cli.main([cfg_path, "--output-dir", str(a), "--quiet"]) == 0
        assert cli.main([cfg_path, "--output-dir", str(b), "--quiet"]) == 0
        assert (a / "demo_trace.csv").read_bytes() == (b / "demo_trace.csv").read_bytes()

    def test_quiet_suppresses_progress(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, run_config(tmp_path))
        assert cli.main([cfg_path, "--quiet"]) == 0
        assert capsys.readouterr().out == ""
        assert cli.main([cfg_path]) == 0
        assert "[demo]" in capsys.readouterr().out


def _example_configs():
    """The example run configs of README.md and of the cli module docstring."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    fenced = readme.split("Example run config:", 1)[1].split("```json", 1)[1]
    docstring = cli.__doc__.split("Example run config:", 1)[1]
    return {
        "README.md": fenced.split("```", 1)[0],
        "cli docstring": docstring[docstring.index("{") : docstring.rindex("}") + 1],
    }


@pytest.mark.parametrize("source", ["README.md", "cli docstring"])
def test_example_config_parses(tmp_path, source):
    path = tmp_path / "example.json"
    path.write_text(_example_configs()[source])
    cfg = cli.parse_config(path)
    assert cfg.mode == "run" and len(cfg.spec.t_family) == 2


@pytest.mark.parametrize("source", ["README.md", "cli docstring"])
def test_example_config_runs(tmp_path, source):
    path = tmp_path / "example.json"
    path.write_text(_example_configs()[source])
    out = tmp_path / "out"
    assert cli.main([str(path), "--output-dir", str(out), "--quiet"]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "two-family_summary.json", "two-family_trace.csv"
    ]


def test_readme_library_quickstart_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Library quickstart", 1)[1].split("```python", 1)[1]
    exec(compile(block.split("```", 1)[0], "README.md quickstart", "exec"), {})


# Configs that a type or range check must reject, each with the fields its
# violations must name and, optionally, fields they must not name.
MALFORMED = {
    "weights-not-numbers": (
        "run", {"alpha_schedule": {"kind": "custom", "weights": ["a", 0.5]}}, ["weights"]
    ),
    "weights-not-a-list": (
        "run", {"alpha_schedule": {"kind": "custom", "weights": 5}}, ["weights"]
    ),
    "infinite-tol-bool-max-steps": (
        "run", {"tol": math.inf, "max_steps": True}, ["tol", "max_steps"]
    ),
    "bool-samples-and-power": (
        "certify", {"samples": True, "powers": [1, True]}, ["samples", "powers"]
    ),
    "bool-horizon": ("counterexample", {"horizon": True}, ["horizon"]),
    "bool-seed": ("run", {"seed": True}, ["seed"]),
    "string-dump-states": ("run", {"dump_states": "false"}, ["dump_states"]),
    "string-full-checks": ("certify", {"full_checks": "no"}, ["full_checks"]),
    "string-mapping-alpha": (
        "run", {"t_family": [{"kind": "s", "alpha": "0.5"}]}, ["t_family", "alpha"]
    ),
    "ill-typed-x0": ("run", {"x0": {"scalar": True, "vec": ["0.5"]}}, ["x0"]),
    "witness-bound-underflows": ("witness", {"alpha": 0.1, "k": 200}, ["k=200"]),
    "witness-bound-overflows": ("witness", {"lambda_k": 1e200}, ["lambda_k"]),
    "fixed-set-three-ends": (
        "run", {"fixed_set": {"kind": "scalar_line", "interval": [0, 0.5, 1]}},
        ["fixed_set", "[lo, hi]"],
    ),
    "fixed-set-point-outside-domain": (
        "run",
        {"fixed_set": {"kind": "single_point", "point": {"scalar": 5.0, "vec": [3.0]}}},
        ["fixed_set"],
    ),
    "fixed-set-segment-outside-domain": (
        "run", {"fixed_set": {"kind": "scalar_line", "interval": [0.5, 2.0]}}, ["fixed_set"]
    ),
    "unknown-key-with-hint": ("run", {"max_step": 3}, ["max_step", "max_steps"]),
    "custom-schedule-without-weights": (
        "run", {"alpha_schedule": {"kind": "custom"}}, ["alpha_schedule", "weights"],
        ["values"],
    ),
    "constant-schedule-weights": (
        "run", {"alpha_schedule": {"kind": "constant", "weights": [0.5, 0.5]}},
        ["alpha_schedule.weights"],
    ),
    "unknown-keys-of-other-modes": (
        "certify", {"dump_states": True, "tol": 5}, ["dump_states", "tol"]
    ),
}

# One small valid config per mode.
BASE = {
    "run": {
        "mode": "run",
        "t_family": [{"kind": "s", "alpha": 0.5}],
        "alpha_schedule": {"kind": "custom", "weights": [0.5, 0.5], "bounds": [0.1, 0.9]},
        "x0": {"scalar": 0.5, "vec": [0.5]},
        "tol": 1e-8,
        "max_steps": 5,
    },
    "run_with_errors": {
        "mode": "run_with_errors",
        "t_family": [{"kind": "s", "alpha": 0.5}],
        "x0": {"scalar": 0.5, "vec": [0.5]},
        "error_u": {"scalar": 0.1, "vec": []},
        "error_v": {"scalar": 0.2, "vec": [0.1]},
        "max_steps": 5,
    },
    "certify": {
        "mode": "certify",
        "mapping": {"kind": "s", "alpha": 0.5},
        "samples": 2,
        "powers": [1, 2],
    },
    "witness": {"mode": "witness", "alpha": 0.5, "k": 3, "lambda_k": 0.1},
    "counterexample": {"mode": "counterexample", "norm": 1.0, "horizon": 5},
    "defect_profile": {
        "mode": "defect_profile",
        "kappa": 0.5,
        "powers": [1, 2],
        "grid_size": 11,
    },
}


def _malformed(mode, patch, tmp_path):
    payload = json.loads(json.dumps(BASE[mode]))
    payload.update(patch, name="bad", output_dir=str(tmp_path / "out"))
    return payload


def _main_on(payload, directory, *flags):
    """(exit code, violations, stderr) of the CLI on one config."""
    path = Path(directory) / "config.json"
    path.write_text(json.dumps(payload))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main([str(path), "--quiet", *flags])
    lines = err.getvalue().splitlines()
    return code, [line[4:] for line in lines if line.startswith("  - ")], err.getvalue()


def _names(field, violations):
    return re.search(rf"(?<!\w){re.escape(field)}(?!\w)", " | ".join(violations))


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_config_exits_2(tmp_path, case):
    mode, patch, fields, *rest = MALFORMED[case]
    code, violations, err = _main_on(_malformed(mode, patch, tmp_path), tmp_path)
    assert code == 2, err
    assert "Traceback" not in err
    for field in fields:
        assert _names(field, violations), (field, violations)
    for field in rest[0] if rest else ():
        assert not _names(field, violations), (field, violations)
    assert not (tmp_path / "out").exists()


POOL = (True, "a", None, [], {}, math.nan, math.inf, -1, 0)

# Per mode, the fields to corrupt, each as a path into the base config with
# the pool values that field admits; an optional field admits null.
FUZZ_FIELDS = {
    "run": {
        ("name",): ["a"],
        ("mode",): [],
        ("seed",): [None, 0],
        ("dump_states",): [None, True],
        ("t_family",): [],
        ("t_family", 0, "alpha"): [],
        ("i_family",): [None],
        ("alpha_schedule",): [None, {}],
        ("alpha_schedule", "weights"): [],
        ("alpha_schedule", "bounds"): [None],
        ("beta_schedule",): [None, {}],
        ("x0",): [],
        ("x0", "scalar"): [0],
        ("x0", "vec"): [[]],
        ("tol",): [None],
        ("max_steps",): [None],
        ("fixed_set",): [None],
    },
    "run_with_errors": {
        ("error_u",): [],
        ("error_v", "vec"): [[]],
        ("error_v", "scalar"): [0],
        ("t_family", 0, "kind"): [],
    },
    "certify": {
        ("mapping",): [],
        ("mapping", "alpha"): [],
        ("samples",): [None],
        ("powers",): [None],
        ("powers", 1): [],
        ("full_checks",): [None, True],
    },
    "witness": {
        ("alpha",): [],
        ("k",): [],
        ("lambda_k",): [],
        ("x0",): [None],
    },
    "counterexample": {
        ("norm",): [],
        ("horizon",): [None],
    },
    "defect_profile": {
        ("kappa",): [],
        ("powers",): [None],
        ("powers", 0): [],
        ("grid_size",): [None],
    },
}
FUZZ_CASES = [
    (mode, path, admitted) for mode, fields in FUZZ_FIELDS.items()
    for path, admitted in fields.items()
]


@settings(max_examples=250, deadline=None)
@given(case=st.sampled_from(FUZZ_CASES), value=st.sampled_from(POOL))
def test_fuzzed_field_exits_2_naming_it(case, value):
    mode, path, admitted = case
    assume(repr(value) not in {repr(a) for a in admitted})
    with tempfile.TemporaryDirectory() as directory:
        payload = _malformed(mode, {}, Path(directory))
        target = payload
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        code, violations, err = _main_on(payload, directory)
        assert code == 2, (payload, err)
        assert "Traceback" not in err
        assert _names(str(path[0]), violations), (path, violations)
        assert not (Path(directory) / "out").exists()
