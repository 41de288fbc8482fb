import json

import numpy as np
import pytest
from click.testing import CliRunner

from conftest import curve_profile, subresponsive_curve, uniform_pool
from crowdprice import (
    WorkerProfile,
    cp_exact_oracle,
    cp_res,
    cp_subres,
    cp_unres,
    load_workers,
    make_additive,
)
from crowdprice.cli import main
from crowdprice.common import ORACLE_LIMIT
from crowdprice.errors import ConfigError
from crowdprice.scenario import Scenario, _solve_cp
from crowdprice.workers import Regime, empirical_regime

WORKERS_CSV = "id,quality,cost\n1,0.9,0.3\n2,0.5,0.25\n3,0.8,0.5\n"


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def workers_file(tmp_path):
    path = tmp_path / "w.csv"
    path.write_text(WORKERS_CSV, encoding="utf-8")
    return str(path)


def write_workers(tmp_path, workers):
    path = tmp_path / "workers.csv"
    rows = "\n".join(f"{w.id},{w.quality!r},{w.cost!r}" for w in workers)
    path.write_text("id,quality,cost\n" + rows + "\n", encoding="utf-8")
    return str(path)


class TestPpCommand:
    def test_exact(self, runner, workers_file):
        result = runner.invoke(
            main, ["pp", "--workers", workers_file, "--budget", "0.6", "--mode", "exact"]
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["utility"] == pytest.approx(1.4)
        assert payload["x"] == [1, 1, 0]

    def test_relaxed(self, runner, workers_file):
        result = runner.invoke(
            main, ["pp", "--workers", workers_file, "--budget", "0.6", "--mode", "relaxed"]
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["z_by_bang_per_buck"] == [1.0, 1.0, pytest.approx(0.1)]

    def test_bad_utility_is_usage_error(self, runner, workers_file):
        result = runner.invoke(
            main, ["pp", "--workers", workers_file, "--budget", "1", "--utility", "nope"]
        )
        assert result.exit_code == 2


class TestCpCommand:
    @pytest.mark.parametrize(
        "args",
        [
            ["cp", "--oracle"],
            ["cp", "--regime", "auto"],
            ["pp", "--mode", "exact"],
            ["poa"],
        ],
        ids=" ".join,
    )
    def test_infinite_cost_is_refused(self, runner, tmp_path, args):
        path = tmp_path / "w.csv"
        path.write_text("id,quality,cost\n1,0.9,0.3\n2,0.5,inf\n3,0.8,0.5\n", encoding="utf-8")
        result = runner.invoke(main, [*args, "--workers", str(path), "--budget", "1"])
        assert result.exit_code == 2
        assert "cost must be finite" in result.output

    @pytest.mark.parametrize("text", ['[{"id": 1, "quality": 0.5}]', "[[0.5, 1.0]]"])
    def test_malformed_json_workers_exit_code(self, runner, tmp_path, text):
        path = tmp_path / "workers.json"
        path.write_text(text, encoding="utf-8")
        result = runner.invoke(main, ["cp", "--workers", str(path), "--budget", "1.0"])
        assert result.exit_code == 2
        assert "error: worker entry 0" in result.output

    def test_oracle(self, runner, workers_file):
        result = runner.invoke(
            main, ["cp", "--workers", workers_file, "--budget", "0.6", "--oracle"]
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["spent"] <= 0.6

    def test_no_bonus(self, runner, workers_file):
        result = runner.invoke(
            main, ["cp", "--workers", workers_file, "--budget", "0.6", "--no-bonus"]
        )
        assert result.exit_code == 0
        assert json.loads(result.output)["bonus"] == 0.0

    def test_oracle_size_limit_exit_code(self, runner, tmp_path):
        rows = "\n".join(f"{i},0.5,0.5" for i in range(1, ORACLE_LIMIT + 2))
        path = tmp_path / "big.csv"
        path.write_text("id,quality,cost\n" + rows + "\n", encoding="utf-8")
        result = runner.invoke(main, ["cp", "--workers", str(path), "--budget", "1", "--oracle"])
        assert result.exit_code == 3

    def test_auto_solves_large_unclassified_profile(self, runner, tmp_path):
        # 20 workers fit the oracle cap: the shared dispatch sends the
        # profile to the oracle, as the scenario runner does
        rng = np.random.default_rng(7)
        rows = "\n".join(f"{i},{rng.uniform()!r},{rng.uniform()!r}" for i in range(1, 21))
        path = tmp_path / "unclassified.csv"
        path.write_text("id,quality,cost\n" + rows + "\n", encoding="utf-8")
        workers = load_workers(path)
        assert empirical_regime(workers) is Regime.UNCLASSIFIED
        result = runner.invoke(main, ["cp", "--workers", str(path), "--budget", "2.0"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["regime"] == "unclassified"
        settings = Scenario(
            population_file=None, generator={}, utility={}, bonus_policies=(), budget=2.0, seed=0
        )
        report = _solve_cp(settings, workers, make_additive(), Regime.UNCLASSIFIED)
        assert payload["utility"] == report.utility_value
        assert payload["accepted"] == list(report.accepted)

    def test_auto_reaches_the_oracle_on_an_unclassified_pool(self, runner, tmp_path):
        workers, budget = uniform_pool([1, 17], 17)
        path = write_workers(tmp_path, workers)
        result = runner.invoke(
            main, ["cp", "--workers", path, "--budget", repr(budget), "--regime", "auto"]
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["regime"] == "unclassified"
        oracle = cp_exact_oracle(load_workers(path), budget, make_additive())
        assert payload["utility"] == oracle.utility_value == pytest.approx(5.0945, abs=1e-4)
        assert payload["accepted"] == list(oracle.accepted)

    def test_auto_falls_back_past_the_oracle_cap(self, runner, tmp_path):
        # one worker too many for the oracle: the best of the regime solvers
        workers, budget = uniform_pool([1, ORACLE_LIMIT + 1], ORACLE_LIMIT + 1)
        path = write_workers(tmp_path, workers)
        workers = load_workers(path)
        assert empirical_regime(workers) is Regime.UNCLASSIFIED
        args = ["cp", "--workers", path, "--budget", repr(budget)]
        result = runner.invoke(main, args + ["--regime", "auto"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        settings = Scenario(
            population_file=None, generator={}, utility={}, bonus_policies=(), budget=budget, seed=0
        )
        report = _solve_cp(settings, workers, make_additive(), Regime.UNCLASSIFIED)
        best = max(
            solver(workers, budget, make_additive(), diagnostics=False).utility_value
            for solver in (cp_unres, cp_subres, cp_res)
        )
        assert payload["utility"] == report.utility_value == best
        assert payload["accepted"] == list(report.accepted)
        assert runner.invoke(main, args + ["--oracle"]).exit_code == 3

    def test_regime_choice(self, runner, workers_file):
        result = runner.invoke(
            main,
            ["cp", "--workers", workers_file, "--budget", "0.6", "--regime", "unres"],
        )
        assert result.exit_code == 0
        assert json.loads(result.output)["base"] == 0.0


class TestAnalysisCommands:
    def test_pob(self, runner):
        result = runner.invoke(main, ["pob", "--n", "16", "--c", "1", "--eps", "0.1"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["ratio"] == pytest.approx(0.1) and payload["bound_holds"]

    def test_pob_invalid_n(self, runner):
        result = runner.invoke(main, ["pob", "--n", "10", "--c", "1", "--eps", "0.1"])
        assert result.exit_code == 2

    def test_poa(self, runner, workers_file):
        result = runner.invoke(main, ["poa", "--workers", workers_file, "--budget", "0.6"])
        assert result.exit_code == 0
        assert "skipped" in json.loads(result.output)


BUDGET_VERBS = [
    ["pp", "--mode", "exact"],
    ["pp", "--mode", "greedy"],
    ["pp", "--mode", "relaxed"],
    ["cp"],
    ["cp", "--oracle"],
    ["cp", "--no-bonus"],
    ["cp", "--regime", "unres"],
    ["cp", "--regime", "subres"],
    ["cp", "--regime", "res"],
    ["poa"],
]


class TestBudgetValidation:
    @pytest.mark.parametrize("verb", BUDGET_VERBS, ids=" ".join)
    def test_nan_budget_is_a_usage_error(self, runner, workers_file, verb):
        result = runner.invoke(main, verb + ["--workers", workers_file, "--budget", "nan"])
        assert result.exit_code == 2
        assert "budget must be >= 0" in result.output

    @pytest.mark.parametrize("verb", BUDGET_VERBS, ids=" ".join)
    def test_infinite_budget_is_accepted(self, runner, workers_file, verb):
        result = runner.invoke(main, verb + ["--workers", workers_file, "--budget", "inf"])
        assert result.exit_code == 0

    def test_infinite_budget_exact_additive_dp(self, runner, tmp_path):
        # 30 workers are past the enumeration limit, so the knapsack DP runs
        rng = np.random.default_rng(30)
        workers = [
            WorkerProfile(float(rng.uniform()), float(rng.uniform(0.05, 1)), i)
            for i in range(1, 31)
        ]
        path = write_workers(tmp_path, workers)
        args = ["pp", "--workers", path, "--mode", "exact", "--utility", "additive"]
        result = runner.invoke(main, args + ["--budget", "inf"])
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        assert payload["x"] == [1] * 30
        above = runner.invoke(main, args + ["--budget", repr(2 * sum(w.cost for w in workers))])
        assert payload == json.loads(above.output)

    def test_infinite_budget_subres_matches_the_oracle(self, runner, tmp_path):
        rng = np.random.default_rng(12)
        curve, lo, hi = subresponsive_curve(rng)
        path = write_workers(tmp_path, curve_profile(curve, rng, 10, lo, hi))
        args = ["cp", "--workers", path, "--budget", "inf"]
        subres = runner.invoke(main, args + ["--regime", "subres"])
        oracle = runner.invoke(main, args + ["--oracle"])
        assert subres.exit_code == oracle.exit_code == 0
        assert json.loads(subres.output)["utility"] == pytest.approx(
            json.loads(oracle.output)["utility"], abs=1e-9
        )


class TestSimulateCommand:
    def test_end_to_end(self, runner, tmp_path):
        config = {
            "population": {"generator": {"n": 6, "seed": 9}},
            "utility": {"kind": "typo", "M": 25},
            "bonus_policies": [
                {"kind": "threshold", "m": 15, "M": 25},
                {"kind": "linear", "M": 25},
            ],
            "budget": 1.5,
            "seed": 9,
        }
        cfg_path = tmp_path / "scenario.json"
        cfg_path.write_text(json.dumps(config), encoding="utf-8")
        out = tmp_path / "out"
        result = runner.invoke(main, ["simulate", "--config", str(cfg_path), "--out", str(out)])
        assert result.exit_code == 0
        assert (out / "result.json").exists()
        assert (out / "utilities.csv").exists()

    @staticmethod
    def linear_sweep_config(tmp_path):
        config = {
            "population": {"generator": {"n": 6, "seed": 9}},
            "utility": {"kind": "typo", "M": 25},
            "bonus_policies": [{"kind": "linear", "M": 25}],
            "budget": 1.5,
        }
        cfg_path = tmp_path / "scenario.json"
        cfg_path.write_text(json.dumps(config), encoding="utf-8")
        return cfg_path

    def test_unwritable_out_exit_code(self, runner, tmp_path, monkeypatch):
        # the target is refused before the scenario runs
        cfg_path = self.linear_sweep_config(tmp_path)
        runs = []
        monkeypatch.setattr("crowdprice.cli.run_scenario", runs.append)
        taken = tmp_path / "taken"
        taken.write_text("not a directory", encoding="utf-8")
        for out in (taken, taken / "sub"):
            result = runner.invoke(main, ["simulate", "--config", str(cfg_path), "--out", str(out)])
            assert result.exit_code == 2
            assert "error: cannot write the results" in result.output
            assert taken.read_text(encoding="utf-8") == "not a directory"
        assert runs == []

    def test_unwritable_result_file_exit_code(self, runner, tmp_path):
        cfg_path = self.linear_sweep_config(tmp_path)
        out = tmp_path / "out"
        (out / "result.json").mkdir(parents=True)
        result = runner.invoke(main, ["simulate", "--config", str(cfg_path), "--out", str(out)])
        assert result.exit_code == 2
        assert "error: cannot write the results" in result.output

    def test_failed_run_removes_only_the_directory_it_made(self, runner, tmp_path, monkeypatch):
        cfg_path = self.linear_sweep_config(tmp_path)

        def fail(scenario):
            raise ConfigError("no run")

        monkeypatch.setattr("crowdprice.cli.run_scenario", fail)
        existing = tmp_path / "existing"
        existing.mkdir()
        for out in (tmp_path / "fresh", existing):
            result = runner.invoke(main, ["simulate", "--config", str(cfg_path), "--out", str(out)])
            assert result.exit_code == 2
            assert "error: no run" in result.output
        assert not (tmp_path / "fresh").exists()
        assert existing.is_dir()

    def test_config_error_exit_code(self, runner, tmp_path):
        cfg_path = tmp_path / "scenario.json"
        cfg_path.write_text(json.dumps({"population": {}}), encoding="utf-8")
        result = runner.invoke(main, ["simulate", "--config", str(cfg_path)])
        assert result.exit_code == 2

    def test_nan_budget_exit_code(self, runner, tmp_path):
        config = {
            "population": {"generator": {"n": 6, "seed": 9}},
            "utility": {"kind": "typo", "M": 25},
            "bonus_policies": [{"kind": "linear", "M": 25}],
            "budget": float("nan"),
        }
        cfg_path = tmp_path / "scenario.json"
        cfg_path.write_text(json.dumps(config), encoding="utf-8")
        result = runner.invoke(main, ["simulate", "--config", str(cfg_path)])
        assert result.exit_code == 2
        assert "budget must be >= 0" in result.output

    @pytest.mark.parametrize("utility", [{"kind": "typo"}, "typo"])
    def test_malformed_utility_exit_code(self, runner, tmp_path, utility):
        config = {
            "population": {"generator": {"n": 6, "seed": 9}},
            "utility": utility,
            "bonus_policies": [{"kind": "linear", "M": 25}],
            "budget": 1.5,
        }
        cfg_path = tmp_path / "scenario.json"
        cfg_path.write_text(json.dumps(config), encoding="utf-8")
        out = tmp_path / "out"
        result = runner.invoke(main, ["simulate", "--config", str(cfg_path), "--out", str(out)])
        assert result.exit_code == 2


class TestAuditCommand:
    def test_quick_audit_passes(self, runner):
        result = runner.invoke(main, ["audit", "--trials", "60", "--seed", "0"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["invert_bm_roundtrip"]["passed"]


class TestHelp:
    def test_all_verbs_documented(self, runner):
        result = runner.invoke(main, ["--help"])
        assert result.exit_code == 0
        for verb in ("pp", "cp", "pob", "poa", "simulate", "audit"):
            assert verb in result.output
