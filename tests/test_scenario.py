import itertools
import json
import math
from pathlib import Path

import pytest

from crowdprice import (
    GkpInstance,
    Regime,
    common,
    decide,
    emit_plot_data,
    run_scenario,
    solve_gkp_exact,
)
from crowdprice import scenario as scenario_module
from crowdprice.errors import ConfigError, InvariantBreach
from crowdprice.scenario import Scenario


def small_config(tmp_path=None, n=8, seed=9, budget=2.0):
    return {
        "population": {"generator": {"n": n, "seed": seed}},
        "utility": {"kind": "typo", "M": 25},
        "bonus_policies": [
            {"kind": "threshold", "m": 15, "M": 25},
            {"kind": "threshold", "m": 23, "M": 25},
            {"kind": "linear", "M": 25},
        ],
        "budget": budget,
        "seed": seed,
    }


class TestConfigValidation:
    def test_round_trip(self):
        scenario = Scenario.from_config(small_config())
        assert len(scenario.bonus_policies) == 3
        assert scenario.budget == 2.0

    def test_empty_sweep_rejected(self):
        cfg = small_config()
        cfg["bonus_policies"] = []
        with pytest.raises(ConfigError, match="nonempty"):
            Scenario.from_config(cfg)

    def test_missing_population_file(self):
        cfg = small_config()
        cfg["population"] = {"file": "/nonexistent/w.csv"}
        with pytest.raises(ConfigError, match="does not exist"):
            Scenario.from_config(cfg)

    def test_population_needs_one_source(self):
        cfg = small_config()
        cfg["population"] = {}
        with pytest.raises(ConfigError):
            Scenario.from_config(cfg)

    def test_unknown_solver_mode(self):
        cfg = small_config()
        cfg["solvers"] = {"pp": "psychic"}
        with pytest.raises(ConfigError):
            Scenario.from_config(cfg)

    @pytest.mark.parametrize("solvers", [{"cp": "regime"}, {"oracle_max_n": 16}, ["pp"]])
    def test_unknown_solver_settings(self, solvers):
        cfg = small_config()
        cfg["solvers"] = solvers
        with pytest.raises(ConfigError):
            Scenario.from_config(cfg)

    @pytest.mark.parametrize(
        "population",
        [
            {"generator": {"n": 8}, "seed": 3},
            {"generator": {"n": 8}, "files": "w.csv"},
            {"generator": {"N": 40, "sed": 3}},
            {"generator": {"n": 8, "cost_alpha": 2.0}},
            {"generator": [["n", 8]]},
        ],
    )
    def test_unknown_population_settings(self, population):
        cfg = small_config()
        cfg["population"] = population
        with pytest.raises(ConfigError, match="population"):
            Scenario.from_config(cfg)

    def test_every_generator_setting_is_accepted(self):
        cfg = small_config()
        cfg["population"] = {
            "generator": {"n": 8, "seed": 3, "alpha": 2.0, "beta": 4.0, "slope": 1.5}
        }
        assert Scenario.from_config(cfg).generator["alpha"] == 2.0

    @pytest.mark.parametrize("utility", [{"kind": "typo"}, "typo", {"kind": "psychic"}])
    def test_malformed_utility(self, utility):
        cfg = small_config()
        cfg["utility"] = utility
        with pytest.raises(ConfigError):
            Scenario.from_config(cfg)

    def test_nan_budget_rejected(self):
        with pytest.raises(ConfigError, match="budget"):
            Scenario.from_config(small_config(budget=float("nan")))

    @pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
    def test_cross_check_must_be_a_boolean(self, value):
        cfg = small_config()
        cfg["solvers"] = {"cross_check": value}
        with pytest.raises(ConfigError, match="cross_check"):
            Scenario.from_config(cfg)

    def test_bad_json_file(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError):
            Scenario.from_file(path)


class TestRunScenario:
    def test_deterministic_serialization(self, tmp_path):
        scenario = Scenario.from_config(small_config())
        first = run_scenario(scenario).to_jsonable()
        second = run_scenario(scenario).to_jsonable()
        first["metadata"].pop("wall_time_s")
        second["metadata"].pop("wall_time_s")
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)

    def test_cross_solver_ordering(self):
        result = run_scenario(Scenario.from_config(small_config()))
        for pt in result.points:
            assert pt.pp.utility_value >= pt.cp.utility_value - 1e-9
            assert pt.cp.utility_value >= pt.cp_no_bonus.utility_value - 1e-9
            assert pt.pp_no_bonus.utility_value == pt.pp.utility_value

    def test_accepted_sets_reproduce_through_decide(self):
        result = run_scenario(Scenario.from_config(small_config()))
        for pt in result.points:
            again = tuple(
                i
                for i, w in enumerate(pt.workers)
                if decide(w, (pt.cp.policy.base, pt.cp.policy.bonus))
            )
            assert again == pt.cp.accepted

    def test_regime_labels_present(self):
        result = run_scenario(Scenario.from_config(small_config()))
        assert result.points[0].regime is Regime.EFFORT_UNRESPONSIVE

    def test_file_population(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text(
            "id,quality,cost\n1,0.6,0.3\n2,0.7,0.5\n3,0.8,0.7\n", encoding="utf-8"
        )
        cfg = small_config()
        cfg["population"] = {"file": str(path)}
        result = run_scenario(Scenario.from_config(cfg))
        assert len(result.points[0].workers) == 3


def demo_config():
    # the scenario of demos/05_typo_simulation.py
    return {
        "population": {"generator": {"n": 15, "seed": 9}},
        "utility": {"kind": "typo", "M": 25},
        "bonus_policies": [{"kind": "threshold", "m": m, "M": 25} for m in range(15, 26)]
        + [{"kind": "linear", "M": 25}],
        "budget": 4.0,
        "seed": 9,
    }


class TestSharedExactSolve:
    """Sweep points with the same costs, budget and kernel identity share
    one exact personalized solve."""

    @staticmethod
    def counting(monkeypatch, name):
        calls = []
        solve = getattr(scenario_module, name)

        def spy(instance, *args):
            calls.append(instance)
            return solve(instance, *args)

        monkeypatch.setattr(scenario_module, name, spy)
        return calls

    def test_typo_sweep_solves_once(self, monkeypatch):
        calls = self.counting(monkeypatch, "solve_gkp_exact")
        points = run_scenario(Scenario.from_config(demo_config())).points
        assert len(points) == 12 and len(calls) == 1
        for pt in points:
            utility = scenario_module._utility_for_point({"kind": "typo", "M": 25}, pt.policy)
            assert pt.pp == solve_gkp_exact(GkpInstance(tuple(pt.workers), 4.0, utility))
            assert pt.pp_mode == "exact"

    def test_additive_sweep_solves_every_point(self, monkeypatch):
        calls = self.counting(monkeypatch, "solve_gkp_exact")
        cfg = small_config()
        cfg["utility"] = {"kind": "additive"}
        points = run_scenario(Scenario.from_config(cfg)).points
        assert len(calls) == len(points) == 3
        for pt in points:
            utility = scenario_module._utility_for_point({"kind": "additive"}, pt.policy)
            assert pt.pp == solve_gkp_exact(GkpInstance(tuple(pt.workers), 2.0, utility))

    @pytest.mark.filterwarnings("ignore:utility .* is not flagged")
    def test_greedy_runs_at_every_point(self, monkeypatch):
        calls = self.counting(monkeypatch, "modified_greedy")
        cfg = small_config()
        cfg["solvers"] = {"pp": "greedy"}
        points = run_scenario(Scenario.from_config(cfg)).points
        assert [inst.workers for inst in calls] == [tuple(pt.workers) for pt in points]


class TestCrossCheck:
    def test_demo_sweep_passes(self):
        cfg = demo_config()
        plain = run_scenario(Scenario.from_config(cfg))
        cfg["solvers"] = {"cross_check": True}
        checked = run_scenario(Scenario.from_config(cfg))
        assert [pt.cp for pt in checked.points] == [pt.cp for pt in plain.points]

    def test_oracle_runs_once_per_point(self, monkeypatch):
        # unclassified points (n = 15) get the oracle's report from the
        # regime dispatch, which is then not checked against a second call
        calls = []
        oracle = common.cp_exact_oracle

        def counting(*args, **kwargs):
            calls.append(args[0])
            return oracle(*args, **kwargs)

        monkeypatch.setattr(common, "cp_exact_oracle", counting)
        monkeypatch.setattr(scenario_module, "cp_exact_oracle", counting)
        cfg = demo_config()
        cfg["solvers"] = {"cross_check": True}
        points = run_scenario(Scenario.from_config(cfg)).points
        assert any(pt.regime is Regime.UNCLASSIFIED for pt in points)
        assert calls == [pt.workers for pt in points]

    def test_worse_regime_report_is_a_breach(self, monkeypatch):
        def nothing(workers, budget, utility, diagnostics=True):
            return common.make_report(workers, utility, 0.0, 0.0)

        monkeypatch.setattr(common, "cp_unres", nothing)
        cfg = small_config()
        assert run_scenario(Scenario.from_config(cfg)).points[0].cp.utility_value == 0.0
        cfg["solvers"] = {"cross_check": True}
        with pytest.raises(InvariantBreach):
            run_scenario(Scenario.from_config(cfg))


class TestThresholdOne:
    """At m = 1 the quality b_1(s) = 1 - (1 - s)^25 rounds to 1.0 for
    abilities above ~0.78, so utilities must be scored from abilities."""

    @pytest.mark.parametrize("seed", range(5))
    def test_utilities_come_from_abilities(self, seed):
        M, budget = 25, 1.5
        cfg = small_config(n=6, seed=seed, budget=budget)
        cfg["bonus_policies"] = [{"kind": "threshold", "m": 1, "M": M}]
        (pt,) = run_scenario(Scenario.from_config(cfg)).points
        s = pt.abilities
        costs = [w.cost for w in pt.workers]

        def typos(chosen):
            return M * (1.0 - math.prod(1.0 - s[i] for i in chosen))

        best = max(
            typos(chosen)
            for k in range(len(s) + 1)
            for chosen in itertools.combinations(range(len(s)), k)
            if math.fsum(costs[i] for i in chosen) <= budget
        )
        assert pt.pp.utility_value == pytest.approx(typos(pt.pp.chosen), abs=1e-12)
        assert pt.pp.utility_value == pytest.approx(best, abs=1e-12)
        assert pt.cp.utility_value == pytest.approx(typos(pt.cp.accepted), abs=1e-12)
        assert pt.cp.utility_value <= pt.pp.utility_value + 1e-12


class TestEmitPlotData:
    def test_writes_four_csvs_and_manifest(self, tmp_path):
        result = run_scenario(Scenario.from_config(small_config()))
        written = emit_plot_data(result, tmp_path)
        names = {p.name for p in written}
        assert names == {"curves.csv", "decisions.csv", "pricing.csv", "utilities.csv", "manifest.json"}
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["metadata"]["seed"] == 9

    def test_rerun_is_byte_identical(self, tmp_path):
        scenario = Scenario.from_config(small_config())
        a, b = tmp_path / "a", tmp_path / "b"
        emit_plot_data(run_scenario(scenario), a)
        emit_plot_data(run_scenario(scenario), b)
        for name in ("curves.csv", "decisions.csv", "pricing.csv", "utilities.csv", "manifest.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_zero_base_at_unresponsive_points(self, tmp_path):
        result = run_scenario(Scenario.from_config(small_config()))
        for pt in result.points:
            if pt.regime is Regime.EFFORT_UNRESPONSIVE:
                assert pt.cp.policy.base == 0.0

    def test_typo_demo_reproduces_committed_figure_data(self, tmp_path):
        # manifest.json is left out, since it records the numpy version
        emit_plot_data(run_scenario(Scenario.from_config(demo_config())), tmp_path)
        golden = Path(__file__).resolve().parents[1] / "demos" / "out"
        for name in ("curves.csv", "decisions.csv", "pricing.csv", "utilities.csv"):
            assert (tmp_path / name).read_bytes() == (golden / name).read_bytes(), name
