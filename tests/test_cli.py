import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np
import pytest

from credalmarket.cli import main
from credalmarket.experiments import SCENARIOS
from credalmarket.licenses import MechanismParams


@pytest.fixture
def singleton_credal(tmp_path):
    path = tmp_path / "credal.json"
    path.write_text(json.dumps({"space": ["z0", "z1"], "vertices": [[0.25, 0.75]]}))
    return path


@pytest.fixture
def license_config(tmp_path):
    path = tmp_path / "license_config.json"
    path.write_text(json.dumps({"provider": [0.6, 0.4], "params": {"C": 0.5, "R": 1.0}}))
    return path


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestLicenseCommand:
    def test_singleton_fixture_matches_neyman_pearson(self, capsys, tmp_path,
                                                      singleton_credal, license_config):
        out_path = tmp_path / "license.json"
        code, out, _ = run_cli(
            capsys, "license", "optimal",
            "--credal", str(singleton_credal), "--config", str(license_config),
            "--out", str(out_path),
        )
        assert code == 0
        # NP closed form: ratios (2.4, 0.533); atom 0 costs 0.25, gamma = 1/3 on atom 1
        assert "neyman_pearson_payout=[1.0, 0.3333333333333333]" in out
        assert "verdict=participate" in out
        blob = json.loads(out_path.read_text())
        assert np.allclose(blob["risk_neutral"]["payout"], [1.0, 1 / 3])
        assert blob["risk_neutral"]["params"] == {"C": 0.5, "R": 1.0}
        assert blob["values"]["risk_neutral"] == pytest.approx(0.6 + 0.4 / 3)

    def test_vertex_type_is_excluded(self, capsys, tmp_path, singleton_credal):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"provider": [0.25, 0.75], "params": {"C": 0.5, "R": 1.0}}))
        code, out, _ = run_cli(
            capsys, "license", "optimal", "--credal", str(singleton_credal), "--config", str(cfg)
        )
        assert code == 0
        assert "verdict=excluded (sup <= C)" in out

    def test_hull_mixture_within_float_residue_of_the_fee_is_excluded(self, capsys, tmp_path):
        # A mixture of the vertices is non-compliant, but its LP value lands
        # a few ulps above C; the verdict goes by the boundary band, as in
        # the market.
        V = np.random.default_rng(0).dirichlet(np.full(6, 3.0), size=12)
        q = np.random.default_rng(108).dirichlet(np.ones(12)) @ V
        credal = tmp_path / "credal.json"
        credal.write_text(json.dumps({"space": [f"z{i}" for i in range(6)], "vertices": V.tolist()}))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"provider": (q / q.sum()).tolist(),
                                   "params": {"C": 15.0, "R": 250.0}}))
        code, out, _ = run_cli(
            capsys, "license", "optimal", "--credal", str(credal), "--config", str(cfg)
        )
        assert code == 0
        assert "risk_neutral_value=15.000000000000002" in out
        assert "verdict=excluded (sup <= C)" in out

    def test_malformed_json_exits_2(self, capsys, tmp_path, license_config):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run_cli(
            capsys, "license", "optimal", "--credal", str(bad), "--config", str(license_config)
        )
        assert code == 2
        assert "credal set" in err

    def test_missing_field_named_in_diagnostic(self, capsys, tmp_path, singleton_credal):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"params": {"C": 0.5, "R": 1.0}}))
        code, _, err = run_cli(
            capsys, "license", "optimal", "--credal", str(singleton_credal), "--config", str(cfg)
        )
        assert code == 2
        assert "'provider'" in err

    def test_overwrite_refused_without_force(self, capsys, tmp_path,
                                             singleton_credal, license_config):
        out_path = tmp_path / "license.json"
        out_path.write_text("{}")
        code, _, err = run_cli(
            capsys, "license", "optimal",
            "--credal", str(singleton_credal), "--config", str(license_config),
            "--out", str(out_path),
        )
        assert code == 2 and "--force" in err
        code, _, _ = run_cli(
            capsys, "license", "optimal",
            "--credal", str(singleton_credal), "--config", str(license_config),
            "--out", str(out_path), "--force",
        )
        assert code == 0


class TestExperimentCommand:
    def test_seeded_rerun_is_byte_identical(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"runs": 2, "n": 30}))
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out_a, out_b):
            code, stdout, _ = run_cli(
                capsys, "experiment", "simplex_gaming",
                "--config", str(cfg), "--seed", "7", "--out", str(out),
            )
            assert code == 0
            assert "config_hash=" in stdout
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_unknown_scenario_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "experiment", "warp_drive", "--out", str(tmp_path / "x.csv")
        )
        assert code == 2
        assert "unknown scenario" in err

    def test_bad_config_field_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": True}))
        code, _, err = run_cli(
            capsys, "experiment", "fairness", "--config", str(cfg), "--out", str(tmp_path / "x.csv")
        )
        assert code == 2

    def test_empty_config_path_exits_2_before_running(self, capsys, tmp_path, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("the scenario ran")

        monkeypatch.setattr("credalmarket.cli.run_scenario", fail)
        out = tmp_path / "x.csv"
        code, stdout, err = run_cli(capsys, "experiment", "simplex_gaming", "--config", "",
                                    "--out", str(out))
        assert code == 2 and stdout == ""
        assert "cannot read experiment config file: the path is empty" in err
        assert not out.exists()

    def test_config_for_another_scenario_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenario": "chi2_strategic", "runs": 2}))
        out = tmp_path / "x.csv"
        code, _, err = run_cli(capsys, "experiment", "fairness", "--config", str(cfg), "--out", str(out))
        assert code == 2
        assert "'scenario'" in err and "chi2_strategic" in err
        assert not out.exists()


@pytest.mark.parametrize("command, flag, what", [("license", "--credal", "credal set"),
                                                 ("market", "--config", "market config")])
def test_an_empty_input_path_is_named(capsys, tmp_path, singleton_credal, license_config,
                                      command, flag, what):
    # Path("") is the working directory, a read that named no file
    argv = {"license": ["license", "optimal", "--config", str(license_config)],
            "market": ["market", "simulate", "--credal", str(singleton_credal)]}[command]
    out = tmp_path / "x.csv"
    code, stdout, err = run_cli(capsys, *argv, flag, "", "--out", str(out))
    assert code == 2 and stdout == ""
    assert f"cannot read {what} file: the path is empty" in err
    assert not out.exists()


class TestMarketCommand:
    def test_simulate_writes_report(self, capsys, tmp_path):
        credal = tmp_path / "credal.json"
        credal.write_text(json.dumps({
            "space": ["z0", "z1", "z2"],
            "vertices": [[0.35, 0.35, 0.30], [0.35, 0.30, 0.35], [0.30, 0.35, 0.35]],
        }))
        cfg = tmp_path / "market.json"
        cfg.write_text(json.dumps({
            "params": {"C": 15.0, "R": 250.0},
            "providers": [
                {"id": "strategic", "q": [1 / 3, 1 / 3, 1 / 3]},
                {"id": "good", "q": [0.9, 0.05, 0.05]},
            ],
            "requirement": {"kind": "credal"},
        }))
        out = tmp_path / "report.csv"
        code, stdout, _ = run_cli(
            capsys, "market", "simulate", "--credal", str(credal), "--config", str(cfg),
            "--out", str(out),
        )
        assert code == 0
        assert "perfect=true" in stdout
        assert out.exists()
        summary = json.loads(out.with_suffix(".summary.json").read_text())
        assert summary["perfect"] is True
        assert summary["counts"]["true-in"] == 1


class TestBettingCommand:
    def test_trajectory_csv(self, capsys, tmp_path):
        cfg = tmp_path / "bet.json"
        cfg.write_text(json.dumps({
            "labels": ["win", "lose"],
            "source": [0.75, 0.25],
            "metric": [1.0, -1.0],
            "tau": 0.0,
            "n": 40,
            "params": {"C": 15.0, "R": 250.0},
        }))
        out = tmp_path / "bet.csv"
        code, stdout, _ = run_cli(
            capsys, "betting", "run", "--config", str(cfg), "--seed", "3", "--out", str(out)
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "step,lambda,outcome,wealth,license_value"
        assert len(lines) == 42

    def test_missing_out_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "bet.json"
        cfg.write_text(json.dumps({
            "labels": ["a", "b"], "source": [0.5, 0.5], "metric": [1.0, -1.0],
            "tau": 0.0, "params": {"C": 1.0, "R": 2.0},
        }))
        code, _, err = run_cli(capsys, "betting", "run", "--config", str(cfg))
        assert code == 2


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return path


BETTING_CONFIG = {
    "labels": ["win", "lose"], "source": [0.75, 0.25], "metric": [1.0, -1.0], "tau": 0.0,
    "n": 40, "params": {"C": 15.0, "R": 250.0},
}
MARKET_CONFIG = {
    "params": {"C": 15.0, "R": 250.0},
    "providers": [{"id": "good", "q": [0.9, 0.05, 0.05]}],
    "requirement": {"kind": "threshold", "metric": [1.0, 0.0, 0.0], "tau": 0.5},
    "mechanism": "optimal-LP", "seed": 0, "n": 50,
}


@pytest.fixture
def hull_credal(tmp_path):
    return write_json(tmp_path / "hull.json", {
        "space": ["z0", "z1", "z2"],
        "vertices": [[0.35, 0.35, 0.30], [0.35, 0.30, 0.35], [0.30, 0.35, 0.35]],
    })


class TestInputValidation:
    def test_full_market_config_is_accepted(self, capsys, tmp_path, hull_credal):
        cfg = write_json(tmp_path / "market.json", MARKET_CONFIG)
        code, out, _ = run_cli(capsys, "market", "simulate", "--credal", str(hull_credal),
                               "--config", str(cfg))
        assert code == 0 and "perfect=true" in out

    @pytest.mark.parametrize("field", ["metric", "tau"])
    def test_threshold_requirement_field_missing_exits_2(self, capsys, tmp_path, hull_credal,
                                                         field):
        requirement = dict(MARKET_CONFIG["requirement"])
        del requirement[field]
        cfg = write_json(tmp_path / "market.json", {**MARKET_CONFIG, "requirement": requirement})
        code, _, err = run_cli(capsys, "market", "simulate", "--credal", str(hull_credal),
                               "--config", str(cfg))
        assert code == 2
        assert repr(field) in err

    def test_tau_on_credal_requirement_exits_2(self, capsys, tmp_path, hull_credal):
        cfg = write_json(tmp_path / "market.json",
                         {**MARKET_CONFIG, "requirement": {"kind": "credal", "tau": 0.5}})
        code, _, _ = run_cli(capsys, "market", "simulate", "--credal", str(hull_credal),
                             "--config", str(cfg))
        assert code == 2

    @pytest.mark.parametrize("where, key", [
        ("config", "mechansim"),
        ("provider", "attitude"),
        ("requirement", "threshold"),
        ("params", "fee"),
    ])
    def test_unknown_market_key_exits_2(self, capsys, tmp_path, hull_credal, where, key):
        payload = json.loads(json.dumps(MARKET_CONFIG))
        target = {"config": payload, "provider": payload["providers"][0],
                  "requirement": payload["requirement"], "params": payload["params"]}[where]
        target[key] = "betting"
        cfg = write_json(tmp_path / "market.json", payload)
        code, out, err = run_cli(capsys, "market", "simulate", "--credal", str(hull_credal),
                                 "--config", str(cfg))
        assert code == 2
        assert repr(key) in err and out == ""

    def test_unknown_betting_key_exits_2(self, capsys, tmp_path):
        cfg = write_json(tmp_path / "bet.json", {**BETTING_CONFIG, "rounds": 100})
        code, _, err = run_cli(capsys, "betting", "run", "--config", str(cfg),
                               "--out", str(tmp_path / "bet.csv"))
        assert code == 2 and "'rounds'" in err
        assert not (tmp_path / "bet.csv").exists()

    def test_unknown_license_key_exits_2(self, capsys, tmp_path, singleton_credal):
        cfg = write_json(tmp_path / "cfg.json",
                         {"provider": [0.6, 0.4], "params": {"C": 0.5, "R": 1.0}, "seed": 3})
        code, out, err = run_cli(capsys, "license", "optimal", "--credal", str(singleton_credal),
                                 "--config", str(cfg))
        assert code == 2 and "'seed'" in err and out == ""

    @pytest.mark.parametrize("command", ["license", "market"])
    def test_unknown_credal_key_exits_2(self, capsys, tmp_path, license_config, command):
        credal = write_json(tmp_path / "credal.json", {
            "space": ["z0", "z1"], "vertices": [[0.25, 0.75]], "extra_vertices": [[1.0, 0.0]],
        })
        if command == "license":
            argv = ["license", "optimal", "--config", str(license_config)]
        else:
            market = {**MARKET_CONFIG, "providers": [{"id": "a", "q": [0.5, 0.5]}],
                      "requirement": {"kind": "credal"}}
            argv = ["market", "simulate", "--config", str(write_json(tmp_path / "m.json", market))]
        code, out, err = run_cli(capsys, *argv, "--credal", str(credal))
        assert code == 2 and "'extra_vertices'" in err and out == ""

    @pytest.mark.parametrize("n", [-1, 0, 2.7, True])
    def test_betting_without_rounds_exits_2(self, capsys, tmp_path, n):
        cfg = write_json(tmp_path / "bet.json", {**BETTING_CONFIG, "n": n})
        code, _, err = run_cli(capsys, "betting", "run", "--config", str(cfg),
                               "--out", str(tmp_path / "bet.csv"))
        assert code == 2 and "'n'" in err

    def test_wealth_beyond_float_range_reads_inf(self, capsys, tmp_path):
        cfg = write_json(tmp_path / "bet.json", {
            "labels": ["hit", "miss"], "source": [0.95, 0.05], "metric": [1, 0], "tau": 0.5,
            "n": 3000, "params": {"C": 15.0, "R": 250.0},
        })
        out = tmp_path / "bet.csv"
        code, _, _ = run_cli(capsys, "betting", "run", "--config", str(cfg), "--seed", "1",
                             "--out", str(out))
        assert code == 0
        last = out.read_text().splitlines()[-1].split(",")
        assert last[3] == "inf"
        assert float(last[4]) == 250.0

    def test_field_of_the_wrong_type_exits_2(self, capsys, tmp_path, hull_credal):
        requirement = {**MARKET_CONFIG["requirement"], "tau": [0.5]}
        cfg = write_json(tmp_path / "market.json", {**MARKET_CONFIG, "requirement": requirement})
        code, _, _ = run_cli(capsys, "market", "simulate", "--credal", str(hull_credal),
                             "--config", str(cfg))
        assert code == 2
        cfg = write_json(tmp_path / "bet.json", {**BETTING_CONFIG, "labels": 2})
        code, _, _ = run_cli(capsys, "betting", "run", "--config", str(cfg),
                             "--out", str(tmp_path / "bet.csv"))
        assert code == 2


class TestMalformedNumbers:
    @pytest.mark.parametrize("field, value", [("seed", 1.5), ("n", 2.9), ("seed", -1)])
    def test_market_integer_fields_exit_2(self, capsys, tmp_path, hull_credal, field, value):
        cfg = write_json(tmp_path / "market.json", {**MARKET_CONFIG, field: value})
        code, out, err = run_cli(capsys, "market", "simulate", "--credal", str(hull_credal),
                                 "--config", str(cfg))
        assert code == 2 and out == ""
        assert field in err

    @pytest.mark.parametrize("payload", [
        {"params": {"C": 15.0, "R": 250.0, "fee": 1.0}},
        {"params": [15.0, 250.0]},
        {"params": {"C": "15", "R": 250.0}},
        {"gammas": 0.4},
        {"n": 20.7},
        {"runs": 0},
        {"n": 0},
        {"burn_in": -1},
        {"bet_zero_control": 1},
        {"grid_resolution": 1},
        {"gammas": [0.95]},
        [1, 2],
    ], ids=["params-unknown-key", "params-not-object", "params-string", "gammas-scalar",
            "n-float", "runs-0", "n-0", "burn-in-negative", "flag-int", "grid-1",
            "gamma-out-of-range", "payload-not-object"])
    def test_experiment_config_exits_2(self, capsys, tmp_path, payload):
        cfg = write_json(tmp_path / "cfg.json", payload)
        out_path = tmp_path / "x.csv"
        code, out, err = run_cli(capsys, "experiment", "fairness", "--config", str(cfg),
                                 "--out", str(out_path))
        assert code == 2 and out == "" and err.startswith("error: ")
        assert not out_path.exists()


class TestOutputCheckedFirst:
    def test_license_refuses_existing_output_before_computing(self, capsys, tmp_path,
                                                              singleton_credal, license_config):
        out_path = tmp_path / "license.json"
        out_path.write_text("keep")
        code, out, err = run_cli(capsys, "license", "optimal", "--credal", str(singleton_credal),
                                 "--config", str(license_config), "--out", str(out_path))
        assert code == 2 and out == "" and "--force" in err
        assert out_path.read_text() == "keep"

    @pytest.mark.parametrize("existing, absent", [("report.csv", "report.summary.json"),
                                                  ("report.summary.json", "report.csv")])
    def test_market_refuses_existing_output_before_computing(self, capsys, tmp_path, hull_credal,
                                                             monkeypatch, existing, absent):
        def fail(*args, **kwargs):
            raise AssertionError("the market ran")

        monkeypatch.setattr("credalmarket.cli.simulate_market", fail)
        cfg = write_json(tmp_path / "market.json", MARKET_CONFIG)
        (tmp_path / existing).write_text("keep")
        out_path = tmp_path / "report.csv"
        code, out, err = run_cli(capsys, "market", "simulate", "--credal", str(hull_credal),
                                 "--config", str(cfg), "--out", str(out_path))
        assert code == 2 and out == "" and "--force" in err
        assert (tmp_path / existing).read_text() == "keep"
        assert not (tmp_path / absent).exists()

    @pytest.mark.parametrize("command", ["license", "market", "betting", "experiment"])
    def test_empty_output_path_exits_2_before_computing(self, capsys, tmp_path, monkeypatch,
                                                       command):
        def fail(*args, **kwargs):
            raise AssertionError("the command ran")

        for name in ("sup_value_over_obedient", "simulate_market", "write_trajectory_csv",
                     "run_scenario"):
            monkeypatch.setattr(f"credalmarket.cli.{name}", fail)
        argv = command_argv(tmp_path, command)
        monkeypatch.chdir(tmp_path)
        before = sorted(tmp_path.iterdir())
        code, out, err = run_cli(capsys, *argv, "--out", "")
        assert code == 2 and out == "" and "--out" in err and "empty" in err
        assert sorted(tmp_path.iterdir()) == before


def test_license_that_is_not_obedient_exits_1(capsys, tmp_path):
    credal = write_json(tmp_path / "credal.json", {
        "space": ["z0", "z1"],
        "vertices": [[0.0, 1.0], [0.11818315092721399, 0.881816849072786], [1.0, 0.0]],
    })
    cfg = write_json(tmp_path / "cfg.json", {
        "provider": [0.9659557992953943, 0.03404420070460571],
        "params": {"C": 2.9063453991814963, "R": 212.37797700435968},
    })
    code, out, err = run_cli(capsys, "license", "optimal", "--credal", str(credal),
                             "--config", str(cfg))
    assert code == 1
    assert "risk_averse_obedient=false" in out
    assert "not obedient" in err


def test_market_warns_about_a_license_that_is_not_obedient_and_exits_0(capsys, tmp_path):
    # The provider of the test above, beside one whose license is obedient.
    credal = write_json(tmp_path / "credal.json", {
        "space": ["z0", "z1"],
        "vertices": [[0.0, 1.0], [0.11818315092721399, 0.881816849072786], [1.0, 0.0]],
    })
    cfg = write_json(tmp_path / "market.json", {
        "params": {"C": 2.9063453991814963, "R": 212.37797700435968},
        "providers": [{"id": "good", "q": [0.5, 0.5]},
                      {"id": "bad", "q": [0.9659557992953943, 0.03404420070460571]}],
        "requirement": {"kind": "credal"},
        "mechanism": "risk-averse",
    })
    out_path = tmp_path / "report.csv"
    code, out, err = run_cli(capsys, "market", "simulate", "--credal", str(credal),
                             "--config", str(cfg), "--out", str(out_path))
    assert code == 0 and "perfect=" in out and out_path.exists()
    warnings = [line for line in err.splitlines() if line.startswith("warning:")]
    assert len(warnings) == 1 and warnings[0].endswith("not obedient for providers bad")


class TestNumbersGivenAsStrings:
    """float() and np.asarray(..., dtype=float) take "0.5" and true; the CLI must not."""

    @pytest.mark.parametrize("field, value", [
        ("tau", "0.5"),
        ("metric", ["1", -1.0]),
        ("metric", [1.0, True]),
        ("source", ["0.75", "0.25"]),
        ("source", [0.5, 0.25, 0.25]),
        ("metric", [1.0, -1.0, 0.0]),
        ("source", [0.7, 0.7]),
        ("source", [1.5, -0.5]),
    ])
    def test_betting_field_exits_2(self, capsys, tmp_path, field, value):
        cfg = write_json(tmp_path / "bet.json", {**BETTING_CONFIG, field: value})
        out_path = tmp_path / "bet.csv"
        code, out, err = run_cli(capsys, "betting", "run", "--config", str(cfg),
                                 "--out", str(out_path))
        assert code == 2 and out == "" and repr(field) in err and "np.float64" not in err
        assert not out_path.exists()

    @pytest.mark.parametrize("field, value", [
        ("tau", "0.5"),
        ("metric", [0, "1", 0]),
        ("metric", [1.0, False, 0.0]),
        ("metric", [1.0, 0.0]),
    ])
    def test_threshold_requirement_field_exits_2(self, capsys, tmp_path, hull_credal, monkeypatch,
                                                 field, value):
        def fail(*args, **kwargs):
            raise AssertionError("the market ran")

        monkeypatch.setattr("credalmarket.cli.simulate_market", fail)
        requirement = {**MARKET_CONFIG["requirement"], field: value}
        cfg = write_json(tmp_path / "market.json", {**MARKET_CONFIG, "requirement": requirement})
        code, out, err = run_cli(capsys, "market", "simulate", "--credal", str(hull_credal),
                                 "--config", str(cfg))
        assert code == 2 and out == "" and repr(field) in err

    @pytest.mark.parametrize("q", [["0.9", 0.05, 0.05], [0.9, 0.1], [1.5, -0.5, 0.0],
                                   [0.5, 0.5, 0.5]])
    def test_provider_q_exits_2(self, capsys, tmp_path, hull_credal, q):
        provider = {"id": "good", "q": q}
        cfg = write_json(tmp_path / "market.json", {**MARKET_CONFIG, "providers": [provider]})
        code, out, err = run_cli(capsys, "market", "simulate", "--credal", str(hull_credal),
                                 "--config", str(cfg))
        assert code == 2 and out == "" and "'q'" in err and "np.float64" not in err

    @pytest.mark.parametrize("provider", [["0.2", "0.8"], [0.2, 0.3, 0.5], [0.75, 0.75],
                                          [1.5, -0.5]])
    def test_license_provider_exits_2(self, capsys, tmp_path, singleton_credal, provider):
        cfg = write_json(tmp_path / "cfg.json",
                         {"provider": provider, "params": {"C": 0.5, "R": 1.0}})
        code, out, err = run_cli(capsys, "license", "optimal", "--credal", str(singleton_credal),
                                 "--config", str(cfg))
        assert code == 2 and out == "" and "'provider'" in err and "np.float64" not in err

    @pytest.mark.parametrize("vertex", [["0.25", "0.75"], [True, 0.0], [1.0], [0.75, 0.75],
                                        [1.5, -0.5]])
    def test_credal_vertex_exits_2(self, capsys, tmp_path, license_config, vertex):
        credal = write_json(tmp_path / "credal.json", {"space": ["z0", "z1"], "vertices": [vertex]})
        code, out, err = run_cli(capsys, "license", "optimal", "--credal", str(credal),
                                 "--config", str(license_config))
        assert code == 2 and out == "" and "vertex" in err and "np.float64" not in err


class TestScenarioRangesCheckedFirst:
    @pytest.mark.parametrize("scenario, payload, field", [
        ("chi2_strategic", {"alpha_grid": [0.05, -0.2]}, "alpha_grid"),
        ("chi2_strategic", {"alpha_grid": [0.05, 1.5]}, "alpha_grid"),
        ("chi2_strategic", {"alpha_grid": []}, "alpha_grid"),
        ("fairness", {"gammas": [0.4, 0.95]}, "gammas"),
        ("fairness", {"gammas": []}, "gammas"),
        ("fairness", {"runs": 2, "n": 50, "kelly_margin": 1.5}, "kelly_margin"),
        ("fairness", {"runs": 2, "n": 5, "kelly_margin": 2}, "kelly_margin"),
        ("fairness", {"burn_in": 50, "n": 20}, "burn_in"),
        ("fairness", {"burn_in": 20, "n": 20}, "burn_in"),
        ("fairness", {"tau": 1.2}, "tau"),
        ("fairness", {"grid_resolution": 1}, "grid_resolution"),
        ("synthetic_spurious", {"burn_in": 2000, "n": 100}, "burn_in"),
        ("synthetic_spurious", {"burn_in": 100, "n": 100}, "burn_in"),
        ("synthetic_spurious", {"q_compliant": [0.5, 0.5, 0, 0]}, "q_compliant"),
        ("synthetic_spurious", {"q_compliant": [0, 0, 0.5, 0.5]}, "q_compliant"),
    ])
    def test_value_out_of_range_exits_2_before_drawing(self, capsys, tmp_path, monkeypatch,
                                                        scenario, payload, field):
        def fail(*args, **kwargs):
            raise AssertionError("the scenario drew before checking its config")

        monkeypatch.setattr("credalmarket.experiments._batch_loglik_ratio", fail)
        monkeypatch.setattr("credalmarket.experiments._draw_outcomes", fail)
        cfg = write_json(tmp_path / "cfg.json", payload)
        out_path = tmp_path / "x.csv"
        code, out, err = run_cli(capsys, "experiment", scenario, "--config", str(cfg),
                                 "--out", str(out_path))
        assert code == 2 and out == "" and repr(field) in err
        assert not out_path.exists()

    def test_kelly_margin_with_the_bet_zero_control_exits_2_before_drawing(self, capsys, tmp_path,
                                                                           monkeypatch):
        # The control places no bet, so a margin would be ignored under its own config hash.
        def fail(*args, **kwargs):
            raise AssertionError("the scenario drew before checking its config")

        payload = {"runs": 2, "n": 10, "bet_zero_control": True}
        cfg = write_json(tmp_path / "default.json", {**payload, "kelly_margin": 0.01})
        code, _, _ = run_cli(capsys, "experiment", "fairness", "--config", str(cfg),
                             "--out", str(tmp_path / "default.csv"))
        assert code == 0
        monkeypatch.setattr("credalmarket.experiments._draw_outcomes", fail)
        cfg = write_json(tmp_path / "cfg.json", {**payload, "kelly_margin": 0.5})
        out_path = tmp_path / "x.csv"
        code, out, err = run_cli(capsys, "experiment", "fairness", "--config", str(cfg),
                                 "--out", str(out_path))
        assert code == 2 and out == "" and "'kelly_margin'" in err and "'bet_zero_control'" in err
        assert not out_path.exists()

    @pytest.mark.parametrize("scenario, payload, field, repeated", [
        ("fairness", {"gammas": [0.4, 0.4], "runs": 2, "n": 30}, "gammas", "0.4"),
        ("chi2_strategic", {"alpha_grid": [0.05, 0.1, 0.05, 0.1]}, "alpha_grid", "0.05"),
    ])
    def test_repeated_grid_value_exits_2_before_drawing(self, capsys, tmp_path, monkeypatch,
                                                        scenario, payload, field, repeated):
        # A repeat would write its rows twice under one key, from different draws.
        def fail(*args, **kwargs):
            raise AssertionError("the scenario drew before checking its config")

        monkeypatch.setattr("credalmarket.experiments._batch_loglik_ratio", fail)
        monkeypatch.setattr("credalmarket.experiments._draw_outcomes", fail)
        cfg = write_json(tmp_path / "cfg.json", payload)
        out_path = tmp_path / "x.csv"
        code, out, err = run_cli(capsys, "experiment", scenario, "--config", str(cfg),
                                 "--out", str(out_path))
        assert code == 2 and out == "" and repr(field) in err and "repeats" in err
        assert f" {repeated}" in err and "np.float64" not in err
        assert not out_path.exists()

    @pytest.mark.parametrize("scenario, field, value", [
        ("simplex_gaming", "provider_q", [0.5, 0.5]),
        ("simplex_gaming", "provider_q", [0.5, 0.5, 0.5]),
        ("simplex_gaming", "provider_q", []),
        ("synthetic_spurious", "q_compliant", [0.5, 0.5, 0.5, 0.5]),
        ("synthetic_spurious", "q_noncompliant", [1.5, -0.5, 0.0, 0.0]),
        ("synthetic_spurious", "p_random", [0.4, 0.4, 0.2]),
    ])
    def test_distribution_field_is_named_before_drawing(self, capsys, tmp_path, monkeypatch,
                                                        scenario, field, value):
        def fail(*args, **kwargs):
            raise AssertionError("the scenario drew before checking its config")

        monkeypatch.setattr("credalmarket.experiments._draw_outcomes", fail)
        cfg = write_json(tmp_path / "cfg.json", {field: value})
        out_path = tmp_path / "x.csv"
        code, out, err = run_cli(capsys, "experiment", scenario, "--config", str(cfg),
                                 "--out", str(out_path))
        assert code == 2 and out == "" and repr(field) in err and "np.float64" not in err
        assert not out_path.exists()


class TestScipyIsLoadedLazily:
    """No runtime path loads scipy; only the tests' oracles need it."""

    SRC = Path(__file__).resolve().parents[1] / "src"

    def run_python(self, code: str) -> subprocess.CompletedProcess:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(self.SRC), env.get("PYTHONPATH")]))
        return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=120)

    def test_package_cli_and_a_scenario_load_no_scipy(self, tmp_path):
        out = tmp_path / "spurious.csv"
        proc = self.run_python(
            "import sys\n"
            "import credalmarket, credalmarket.cli, credalmarket.experiments\n"
            "import credalmarket.market, credalmarket.betting\n"
            f"code = credalmarket.cli.main(['experiment', 'synthetic_spurious', '--out', {str(out)!r},"
            " '--force'])\n"
            "print('exit', code)\n"
            "print('scipy', sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
        )
        assert proc.returncode == 0, proc.stderr
        assert "exit 0" in proc.stdout
        assert "scipy []" in proc.stdout
        assert out.exists()

    def test_mixture_search_loads_no_scipy(self):
        proc = self.run_python(
            "import sys\n"
            "from credalmarket.credal import maximize_over_mixtures\n"
            "from credalmarket.experiments import SIMPLEX_POINTS\n"
            "from credalmarket.evidence import Categorical, EvidenceSpace\n"
            "space = EvidenceSpace.of_size(3)\n"
            "points = [Categorical(space, p) for p in SIMPLEX_POINTS]\n"
            "print('before', 'scipy.optimize' in sys.modules)\n"
            "maximize_over_mixtures(points, lambda q: float(q.probs[0]), grid_resolution=0.25)\n"
            "print('after', 'scipy.optimize' in sys.modules)\n"
        )
        assert proc.returncode == 0, proc.stderr
        assert "before False" in proc.stdout
        assert "after False" in proc.stdout

    #: small configs of the four scenarios
    SMOKE = {
        "simplex_gaming": {"runs": 5, "n": 100},
        "fairness": {"runs": 2, "n": 300, "grid_resolution": 5},
        "chi2_strategic": {"mc_calibration": 2000, "mc_power": 2000, "n_per_test": 200},
        "synthetic_spurious": {"runs": 2, "n": 50, "burn_in": 10},
    }

    def test_every_command_runs_with_scipy_blocked(self, tmp_path):
        inputs = {"license": LICENSE_CONFIG, "singleton": SINGLETON_CREDAL, "hull": HULL_CREDAL,
                  "betting": BETTING_CONFIG}
        inputs.update((f"market-{m}", dict(MARKET_CONFIG, mechanism=m))
                      for m in ("optimal-LP", "risk-averse", "betting"))
        inputs.update(self.SMOKE)
        for name, payload in inputs.items():
            write_json(tmp_path / f"{name}.json", payload)
        proc = self.run_python(
            "import importlib.abc, json, sys\n"
            "class BlockScipy(importlib.abc.MetaPathFinder):\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name == 'scipy' or name.startswith('scipy.'):\n"
            "            raise ModuleNotFoundError(f'{name} is blocked')\n"
            "sys.meta_path.insert(0, BlockScipy())\n"
            "try:\n"
            "    import scipy.optimize\n"
            "except ModuleNotFoundError:\n"
            "    print('scipy blocked')\n"
            "from pathlib import Path\n"
            "from credalmarket.cli import main\n"
            "from credalmarket.credal import gaming_witness, strategic_mixture_best_response\n"
            "from credalmarket.evidence import Categorical, EvidenceSpace\n"
            "from credalmarket.experiments import SIMPLEX_POINTS, SimplexGamingConfig\n"
            f"d = Path({str(tmp_path)!r})\n"
            "runs = {}\n"
            f"for s in {sorted(self.SMOKE)!r}:\n"
            "    runs[s] = main(['experiment', s, '--config', str(d / f'{s}.json'),\n"
            "                    '--out', str(d / f'{s}.csv')])\n"
            "runs['license'] = main(['license', 'optimal', '--credal', str(d / 'singleton.json'),\n"
            "                        '--config', str(d / 'license.json'),\n"
            "                        '--out', str(d / 'license-out.json')])\n"
            "runs['betting'] = main(['betting', 'run', '--config', str(d / 'betting.json'),\n"
            "                        '--out', str(d / 'trajectory.csv')])\n"
            "for m in ('optimal-LP', 'risk-averse', 'betting'):\n"
            "    runs[f'market {m}'] = main(['market', 'simulate',\n"
            "                                '--credal', str(d / 'hull.json'),\n"
            "                                '--config', str(d / f'market-{m}.json'),\n"
            "                                '--out', str(d / f'report-{m}.csv')])\n"
            "print('exits', json.dumps(runs))\n"
            "points = [Categorical(EvidenceSpace.of_size(3), p) for p in SIMPLEX_POINTS]\n"
            "params = SimplexGamingConfig().params\n"
            "print('gamed', gaming_witness(points, params, grid_resolution=0.1) is not None)\n"
            "w, v = strategic_mixture_best_response(points, params, grid_resolution=0.1)\n"
            "print('best response beats C', v > params.C)\n"
            "print('scipy', [m for m in sys.modules if m.split('.')[0] == 'scipy'])\n"
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert "scipy blocked" in lines
        exits = json.loads(next(line[6:] for line in lines if line.startswith("exits ")))
        assert exits == dict.fromkeys([*self.SMOKE, "license", "betting", "market optimal-LP",
                                       "market risk-averse", "market betting"], 0)
        assert "gamed True" in lines and "best response beats C True" in lines
        assert "scipy []" in lines


# ---------------------------------------------------------------------------
# Every field of every JSON input, given a value of a JSON type it does not take
# ---------------------------------------------------------------------------

#: one value of each JSON type; Python's JSON reader gives NaN and Infinity as
#: floats, so every field is also tried with both
JSON_VALUES = {
    "null": None, "bool": True, "int": 3, "float": 0.5, "string": "ab", "list": [0.5],
    "object": {"a": 1}, "nan": float("nan"), "inf": float("inf"),
}
#: the JSON types each kind of field takes
TAKES = {
    "number": {"int", "float"}, "integer": {"int"}, "string": {"string"}, "bool": {"bool"},
    "object": {"object"}, "list": {"list"}, "numbers": {"list"},
    "labels": set(),  # JSON_VALUES["list"] holds a number, not a string
    "optional numbers": {"null", "list"},
}
LICENSE_CONFIG = {"provider": [0.6, 0.4], "params": {"C": 0.5, "R": 1.0}}
SINGLETON_CREDAL = {"space": ["z0", "z1"], "vertices": [[0.25, 0.75]]}
HULL_CREDAL = {
    "space": ["z0", "z1", "z2"],
    "vertices": [[0.35, 0.35, 0.30], [0.35, 0.30, 0.35], [0.30, 0.35, 0.35]],
}
PARAMS_FIELDS = [(("params",), "object"), (("params", "C"), "number"), (("params", "R"), "number")]
#: (input, base payload, [(path, kind)]): every field of the credal-set, license, market
#: and betting inputs
CLI_INPUTS = [
    ("credal", SINGLETON_CREDAL, [(("space",), "labels"), (("vertices",), "list"),
                                  (("vertices", 0), "numbers")]),
    ("license", LICENSE_CONFIG, [(("provider",), "numbers")] + PARAMS_FIELDS),
    ("market", MARKET_CONFIG, PARAMS_FIELDS + [
        (("providers",), "list"), (("providers", 0), "object"), (("providers", 0, "id"), "string"),
        (("providers", 0, "q"), "numbers"), (("requirement",), "object"),
        (("requirement", "kind"), "string"), (("requirement", "metric"), "numbers"),
        (("requirement", "tau"), "number"), (("mechanism",), "string"), (("seed",), "integer"),
        (("n",), "integer"),
    ]),
    ("betting", BETTING_CONFIG, PARAMS_FIELDS + [
        (("labels",), "labels"), (("source",), "numbers"), (("metric",), "numbers"),
        (("tau",), "number"), (("n",), "integer"), (("seed",), "integer"),
    ]),
]


def _experiment_inputs():
    """Every field of every scenario config, read from the config's dataclass."""
    kinds = {MechanismParams: "object", int: "integer", float: "number", bool: "bool",
             str: "string"}
    for scenario, (cls, _) in sorted(SCENARIOS.items()):
        base = {"params": {"C": 15.0, "R": 250.0}}
        paths = list(PARAMS_FIELDS[1:])
        for f in fields(cls):
            hint = get_type_hints(cls)[f.name]
            if hint in kinds:
                kind = kinds[hint]
            else:  # tuple[float, ...], or Optional of it
                kind = "optional numbers" if type(None) in get_args(hint) else "numbers"
                base[f.name] = list(getattr(cls(), f.name) or (0.4, 0.3, 0.3))
            paths.append(((f.name,), kind))
        yield f"experiment-{scenario}", base, paths


def _wrong_values(kind: str, base, path):
    """(id, value) for each JSON type ``kind`` does not take; for a list of
    numbers also the valid list with its first entry NaN, Infinity, a string or a bool."""
    for name, value in JSON_VALUES.items():
        if name not in TAKES[kind]:
            yield name, value
    if kind in ("numbers", "optional numbers"):
        valid = base
        for key in path:
            valid = valid[key]
        for name, entry in (("nan", float("nan")), ("inf", float("inf")), ("string", "0.5"),
                            ("bool", True)):
            yield f"{name}-entry", [entry] + list(valid[1:])


def _wrong_type_cases():
    for what, base, paths in CLI_INPUTS + list(_experiment_inputs()):
        for path, kind in paths:
            for name, value in _wrong_values(kind, base, path):
                yield pytest.param(what, base, path, value,
                                   id=f"{what}-{'.'.join(map(str, path))}-{name}")


def _with_value(payload, path, value):
    payload = json.loads(json.dumps(payload))
    target = payload
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return payload


@pytest.mark.parametrize("what, base, path, value", list(_wrong_type_cases()))
def test_field_of_a_wrong_json_type_exits_2(capsys, tmp_path, monkeypatch, what, base, path,
                                           value):
    def fail(*args, **kwargs):
        raise AssertionError("the scenario ran on an invalid config")

    monkeypatch.setattr("credalmarket.cli.run_scenario", fail)
    bad = str(write_json(tmp_path / "input.json", _with_value(base, path, value)))
    license_config = str(write_json(tmp_path / "license.json", LICENSE_CONFIG))
    singleton = str(write_json(tmp_path / "singleton.json", SINGLETON_CREDAL))
    hull = str(write_json(tmp_path / "hull.json", HULL_CREDAL))
    out_path = tmp_path / "out.csv"
    argv = {
        "credal": ["license", "optimal", "--credal", bad, "--config", license_config],
        "license": ["license", "optimal", "--config", bad, "--credal", singleton],
        "market": ["market", "simulate", "--config", bad, "--credal", hull],
        "betting": ["betting", "run", "--config", bad],
    }.get(what, ["experiment", what.removeprefix("experiment-"), "--config", bad])
    code, out, err = run_cli(capsys, *argv, "--out", str(out_path))
    assert code == 2 and out == "" and err.startswith("error: ")
    assert not out_path.exists() and not out_path.with_suffix(".summary.json").exists()
    # the message names the field, or for a list entry the kind of entry
    *_, parent, key = ("",) + path
    named = key if isinstance(key, str) else {"vertices": "vertex", "providers": "provider"}[parent]
    assert named in err


@pytest.mark.parametrize("argv", [
    ["license", "optimal", "--config", "{dir}", "--credal", "{dir}"],
    ["market", "simulate", "--config", "{dir}", "--credal", "{dir}"],
    ["betting", "run", "--config", "{dir}", "--out", "{dir}/bet.csv"],
    ["experiment", "fairness", "--config", "{dir}", "--out", "{dir}/x.csv"],
], ids=["license", "market", "betting", "experiment"])
def test_input_that_is_a_directory_exits_2(capsys, tmp_path, argv):
    code, out, err = run_cli(capsys, *(a.replace("{dir}", str(tmp_path)) for a in argv))
    assert code == 2 and out == "" and "cannot read" in err
    assert list(tmp_path.iterdir()) == []


def command_argv(tmp_path, command):
    """Valid arguments of ``command`` without ``--out``, its input files written to ``tmp_path``."""
    path = {name: str(write_json(tmp_path / f"{name}.json", payload)) for name, payload in [
        ("license", LICENSE_CONFIG), ("singleton", SINGLETON_CREDAL), ("market", MARKET_CONFIG),
        ("hull", HULL_CREDAL), ("betting", BETTING_CONFIG)]}
    return {
        "license": ["license", "optimal", "--config", path["license"],
                    "--credal", path["singleton"]],
        "market": ["market", "simulate", "--config", path["market"], "--credal", path["hull"]],
        "betting": ["betting", "run", "--config", path["betting"]],
        "experiment": ["experiment", "synthetic_spurious"],
    }[command]


@pytest.mark.parametrize("command", ["license", "market", "betting", "experiment"])
def test_output_that_is_a_directory_exits_2(capsys, tmp_path, command):
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    code, out, err = run_cli(capsys, *command_argv(tmp_path, command), "--out", str(out_dir),
                             "--force")
    assert code == 2 and out == "" and "is a directory" in err
    assert list(out_dir.iterdir()) == []


def test_duplicate_provider_ids_exit_2(capsys, tmp_path, hull_credal):
    providers = [{"id": "p", "q": [0.9, 0.05, 0.05]}, {"id": "p", "q": [0.05, 0.9, 0.05]}]
    cfg = write_json(tmp_path / "market.json", {**MARKET_CONFIG, "providers": providers})
    out_path = tmp_path / "report.csv"
    code, out, err = run_cli(capsys, "market", "simulate", "--credal", str(hull_credal),
                             "--config", str(cfg), "--out", str(out_path))
    assert code == 2 and out == "" and "'p'" in err
    assert not out_path.exists()


def test_run_experiments_script_rejects_a_negative_seed(tmp_path):
    repo = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(repo / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(repo / "scripts" / "run_experiments.py"), "--seed", "-1",
         "--outdir", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ") and "'seed'" in proc.stderr
    assert proc.stdout == "" and not (tmp_path / "out").exists()
