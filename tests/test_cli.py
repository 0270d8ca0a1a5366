"""End-to-end tests of the command line driver and config parsing."""

import json

import pytest

from commonfix import cli
from commonfix.errors import ParseError, ValidationError
from commonfix.scheme import read_trace_csv
from commonfix.verifier import InequalityCheck


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
        assert len(cfg.iteration.t_family) == 2
        # identity partners are filled in and the fixed set is inferred
        assert cfg.iteration.i_family[0].name == "identity"
        assert cfg.iteration.fixed_set.kind == "scalar_line"

    def test_i_family_defaults_to_identities(self, tmp_path):
        payload = run_config(tmp_path)
        del payload["i_family"]
        cfg = cli.parse_config(write_config(tmp_path, payload))
        assert [mp.name for mp in cfg.iteration.i_family] == ["identity", "identity"]

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
        assert cfg.counterexample.x.scalar == 1.0
        assert cfg.counterexample.horizon == 10

    def test_defect_powers_range_object(self, tmp_path):
        payload = {
            "mode": "defect_profile",
            "kappa": 0.5,
            "powers": {"min": 1, "max": 4},
            "grid_size": 101,
        }
        cfg = cli.parse_config(write_config(tmp_path, payload))
        assert cfg.defects.powers == (1, 2, 3, 4)


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

    def test_parse_failure_exits_2(self, tmp_path, capsys):
        code = cli.main([str(tmp_path / "nope.json")])
        assert code == 2
        assert "parse error" in capsys.readouterr().err

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

    def test_failed_certificates_exit_1(self, tmp_path, monkeypatch):
        def doomed(t_map, i_map, profile, x, y, n, tol=1e-12):
            return InequalityCheck(
                lhs=1.0,
                rhs=0.0,
                slack=-1.0,
                satisfied=False,
                tolerance=tol,
                context={"equation": "gradual-relaxation", "n": n},
            )

        monkeypatch.setattr(cli, "check_total_inequality", doomed)
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
