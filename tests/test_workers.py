import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.interpolate import PchipInterpolator

from conftest import curve_profile, responsive_curve, subresponsive_curve, unresponsive_curve

from crowdprice import (
    CommonPolicy,
    CostQualityCurve,
    Regime,
    WorkerProfile,
    classify_regime,
    decide,
    expected_payment,
    sort_by_bang_per_buck,
)
from crowdprice.bonus import generate_population, linear_policy, threshold_policy, translate
from crowdprice.workers import (
    _pchip_slopes,
    empirical_regime,
    load_workers_csv,
    load_workers_json,
    workers_to_json,
)


class TestDecide:
    def test_accepts_when_payment_covers_cost(self):
        w = WorkerProfile(quality=0.5, cost=0.25)
        assert decide(w, CommonPolicy(base=0.1, bonus=0.4))  # 0.1 + 0.2 >= 0.25

    def test_low_quality_declines_pure_bonus(self):
        # the worst-case construction relies on this: a (0.1, 1) cherry
        # declines (0, 1) while a (2, 2) expert accepts
        assert not decide(WorkerProfile(0.1, 1.0), (0.0, 1.0))
        assert decide(WorkerProfile(2.0, 2.0), (0.0, 1.0))

    def test_boundary_equality_accepts(self):
        w = WorkerProfile(quality=0.37, cost=0.81)
        assert decide(w, (w.cost, 0.0))

    @given(
        st.floats(0.0, 2.0),
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
        st.floats(0.0, 0.5),
        st.floats(0.0, 0.5),
    )
    def test_monotone_in_payments(self, r, c, p, dp, dq):
        w = WorkerProfile(r, c)
        if decide(w, (p, 0.3)):
            assert decide(w, (p + dp, 0.3 + dq))


class TestExpectedPayment:
    def test_high_quality_worker_gets_bonus_value(self):
        assert expected_payment(WorkerProfile(2.0, 2.0), (0.0, 1.0)) == 2.0

    def test_declining_worker_costs_nothing(self):
        assert expected_payment(WorkerProfile(0.1, 1.0), (0.0, 1.0)) == 0.0

    def test_fractional_bonus(self):
        pay = expected_payment(WorkerProfile(0.5, 0.25), (0.0, 5.0 / 7.0))
        assert pay == pytest.approx(5.0 / 14.0, abs=1e-12)

    def test_zero_exactly_when_declining(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            w = WorkerProfile(float(rng.uniform(0, 1)), float(rng.uniform(0, 1)))
            pq = (float(rng.uniform(0, 1)), float(rng.uniform(0, 1)))
            assert (expected_payment(w, pq) == 0.0) == (not decide(w, pq))


class TestClassifyRegime:
    def test_sqrt_is_unresponsive(self):
        curve = CostQualityCurve(f=math.sqrt)
        assert classify_regime(curve, (0.1, 1.0)) is Regime.EFFORT_UNRESPONSIVE

    def test_square_is_responsive(self):
        curve = CostQualityCurve(f=lambda x: x * x, fprime=lambda x: 2 * x, fsecond=lambda x: 2.0)
        assert classify_regime(curve, (0.1, 1.0)) is Regime.EFFORT_RESPONSIVE

    def test_linear_ties_resolve_to_unresponsive(self):
        curve = CostQualityCurve(f=lambda x: x, fprime=lambda x: 1.0, fsecond=lambda x: 0.0)
        assert classify_regime(curve, (0.1, 1.0)) is Regime.EFFORT_UNRESPONSIVE

    def test_concave_super_curve_is_subresponsive(self):
        curve = CostQualityCurve(f=lambda x: x**0.9 - 0.12)
        assert classify_regime(curve, (0.3, 0.95)) is Regime.EFFORT_SUBRESPONSIVE

    def test_scaling_does_not_change_class(self):
        for alpha in (0.25, 3.0):
            curve = CostQualityCurve(f=lambda x, a=alpha: a * math.sqrt(x))
            assert classify_regime(curve, (0.1, 1.0)) is Regime.EFFORT_UNRESPONSIVE

    def test_domain_touching_zero_rejected(self):
        with pytest.raises(ValueError):
            classify_regime(CostQualityCurve(f=math.sqrt), (0.0, 1.0))

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError):
            classify_regime(CostQualityCurve(f=math.sqrt), (0.1, 1.0), samples=1)


def _scipy_reference_regime(workers, tol=1e-6):
    """empirical_regime as it was with scipy's PchipInterpolator: the
    reference the numpy knot slopes are checked against."""
    by_cost = {}
    for w in workers:
        by_cost.setdefault(w.cost, []).append(w.quality)
    cs = np.array(sorted(by_cost))
    if len(cs) < 3 or cs[0] <= 0.0:
        return Regime.UNCLASSIFIED
    rs = np.array([float(np.mean(by_cost[c])) for c in cs])
    d1 = PchipInterpolator(cs, rs).derivative(1)(cs)
    ratio = rs / cs

    def leq(a, b):
        return bool(np.all(a <= b + tol * np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))))

    second = np.diff(d1) / np.diff(cs)
    if leq(d1, ratio):
        return Regime.EFFORT_UNRESPONSIVE
    if leq(ratio, d1) and leq(second, np.zeros_like(second)):
        return Regime.EFFORT_SUBRESPONSIVE
    if leq(ratio, d1) and leq(np.zeros_like(second), second):
        return Regime.EFFORT_RESPONSIVE
    return Regime.UNCLASSIFIED


def _family_pools(seed=606, per_family=40):
    """Pools from the conftest curve families and uniform scatter, n = 3-60."""
    rng = np.random.default_rng(seed)
    pools = []
    for family in (unresponsive_curve, subresponsive_curve, responsive_curve):
        for _ in range(per_family):
            curve, lo, hi = family(rng)
            pools.append(curve_profile(curve, rng, int(rng.integers(3, 61)), lo, hi))
    for _ in range(per_family):
        n = int(rng.integers(3, 61))
        pools.append(
            [
                WorkerProfile(float(rng.uniform()), float(rng.uniform(0.01, 1.0)), i)
                for i in range(n)
            ]
        )
    return pools


def _knots(workers):
    cs = np.array(sorted({w.cost for w in workers}))
    rs = np.array([np.mean([w.quality for w in workers if w.cost == c]) for c in cs])
    return cs, rs


class TestPchipSlopes:
    @staticmethod
    def assert_matches_scipy(x, y):
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        ours = _pchip_slopes(x, y)
        ref = PchipInterpolator(x, y).derivative(1)(x)
        # relative to the largest slope: a slope the end rule sets to 0 has
        # no scale of its own, and scipy evaluates the last cubic there
        np.testing.assert_allclose(ours, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())
        return ours

    def test_curve_families(self):
        for pool in _family_pools():
            self.assert_matches_scipy(*_knots(pool))

    def test_flat_runs(self):
        x = [0.1, 0.2, 0.4, 0.5, 0.7, 0.9]
        d = self.assert_matches_scipy(x, [0.3, 0.3, 0.3, 0.6, 0.6, 0.8])
        assert d[1] == 0.0 and d[3] == 0.0 and d[4] == 0.0
        assert not np.any(self.assert_matches_scipy([0.1, 0.5, 0.9], [0.4, 0.4, 0.4]))

    def test_secants_changing_sign_give_interior_zero(self):
        d = self.assert_matches_scipy([0.1, 0.3, 0.6, 0.8, 1.0], [0.2, 0.5, 0.1, 0.4, 0.9])
        assert d[1] == 0.0 and d[2] == 0.0
        assert d[3] > 0.0

    def test_end_rule_sign_flip_gives_zero(self):
        # first knot: d = (3*1 - 4)/2 < 0 while the first secant is 1
        d = self.assert_matches_scipy([0.0, 1.0, 2.0], [0.0, 1.0, 5.0])
        assert d[0] == 0.0
        d = self.assert_matches_scipy([0.0, 1.0, 2.0], [0.0, 4.0, 5.0])
        assert d[-1] == 0.0

    def test_end_rule_overshoot_is_capped_at_three_secants(self):
        # secants 1 then -10: the three-point estimate 6.5 is cut to 3 * 1
        d = self.assert_matches_scipy([0.0, 1.0, 2.0], [0.0, 1.0, -9.0])
        assert d[0] == 3.0
        d = self.assert_matches_scipy([0.0, 1.0, 2.0], [0.0, 10.0, 9.0])
        assert d[-1] == pytest.approx(-3.0, rel=1e-12)

    def test_three_knots(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            x = np.sort(rng.uniform(0.01, 1.0, size=3))
            self.assert_matches_scipy(x, rng.uniform(0.0, 1.0, size=3))


class TestEmpiricalRegime:
    def test_labels_match_scipy_reference_on_family_pools(self):
        pools = _family_pools()
        labels = [_scipy_reference_regime(pool) for pool in pools]
        assert [empirical_regime(pool) for pool in pools] == labels
        assert set(labels) == set(Regime)

    def test_labels_match_scipy_reference_on_demo_population(self):
        # the population and sweep of demos/05_typo_simulation.py
        population = generate_population(n=15, seed=9)
        policies = [threshold_policy(m, 25) for m in range(15, 26)] + [linear_policy(25)]
        for policy in policies:
            workers = translate(population, policy)
            assert empirical_regime(workers) is _scipy_reference_regime(workers)

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_too_few_workers_are_unclassified(self, n):
        workers = [WorkerProfile(0.3 * i + 0.1, 0.2 * i + 0.1, i) for i in range(n)]
        assert empirical_regime(workers) is Regime.UNCLASSIFIED

    def test_runtime_calls_do_not_import_scipy(self, tmp_path):
        rows = "\n".join(f"{i},{0.15 * i:.2f},{0.1 * i:.1f}" for i in range(1, 7))
        path = tmp_path / "six.csv"
        path.write_text("id,quality,cost\n" + rows + "\n", encoding="utf-8")
        script = f"""
import sys
import numpy as np
from crowdprice import Regime, WorkerProfile, cp_for_regime, make_additive, run_scenario
from crowdprice.cli import main
from crowdprice.scenario import Scenario

main(["cp", "--workers", {str(path)!r}, "--budget", "0.5", "--regime", "auto"],
     standalone_mode=False)
run_scenario(Scenario.from_config({{
    "population": {{"generator": {{"n": 8, "seed": 1}}}},
    "utility": {{"kind": "typo", "M": 25}},
    "bonus_policies": [{{"kind": "threshold", "m": 3, "M": 25}}, {{"kind": "linear", "M": 25}}],
    "budget": 1.0,
}}))
rng = np.random.default_rng(7)
pool = [WorkerProfile(float(rng.uniform()), float(rng.uniform()), i) for i in range(20)]
cp_for_regime(pool, 2.0, make_additive(), Regime.UNCLASSIFIED)
print(sorted(k for k in sys.modules if k == "scipy" or k.startswith("scipy.")))
"""
        src = str(Path(__file__).resolve().parents[1] / "src")
        path_entries = [src, os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path_entries)))
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip().splitlines()[-1] == "[]"


class TestBangPerBuckOrder:
    def test_worked_example(self):
        workers = [WorkerProfile(0.9, 0.3), WorkerProfile(0.5, 0.25), WorkerProfile(0.8, 0.5)]
        # ratios 3, 2, 1.6
        assert sort_by_bang_per_buck(workers) == [0, 1, 2]

    def test_equal_ratios_keep_input_order(self):
        workers = [WorkerProfile(0.2, 0.4), WorkerProfile(0.1, 0.2), WorkerProfile(0.3, 0.6)]
        assert sort_by_bang_per_buck(workers) == [0, 1, 2]

    def test_zero_cost_first(self):
        workers = [WorkerProfile(0.1, 0.5), WorkerProfile(0.0, 0.0), WorkerProfile(0.9, 0.0)]
        assert sort_by_bang_per_buck(workers)[:2] == [1, 2]

    def test_single_worker(self):
        assert sort_by_bang_per_buck([WorkerProfile(0.4, 0.2)]) == [0]

    @given(st.lists(st.tuples(st.floats(0, 1), st.floats(0.01, 1)), min_size=1, max_size=12))
    def test_is_an_idempotent_permutation(self, pairs):
        workers = [WorkerProfile(r, c) for r, c in pairs]
        order = sort_by_bang_per_buck(workers)
        assert sorted(order) == list(range(len(workers)))
        resorted = [workers[i] for i in order]
        assert sort_by_bang_per_buck(resorted) == list(range(len(workers)))


class TestIngest:
    CSV = "id,quality,cost\n1,0.9,0.3\n2,0.5,0.25\n"

    def test_csv_round_trip(self):
        workers = load_workers_csv(self.CSV)
        assert workers == [WorkerProfile(0.9, 0.3, 1), WorkerProfile(0.5, 0.25, 2)]
        again = load_workers_json(workers_to_json(workers))
        assert again == workers

    def test_header_required(self):
        with pytest.raises(ValueError, match="header"):
            load_workers_csv("1,0.9,0.3\n")

    def test_strict_mode_rejects_quality_above_one(self):
        with pytest.raises(ValueError, match="strict"):
            load_workers_csv("id,quality,cost\n1,2.0,2.0\n", strict=True)
        # default permits the worst-case profiles
        assert load_workers_csv("id,quality,cost\n1,2.0,2.0\n")[0].quality == 2.0

    def test_negative_values_rejected(self):
        with pytest.raises(ValueError):
            load_workers_csv("id,quality,cost\n1,-0.1,0.3\n")

    @pytest.mark.parametrize(
        "text, entry",
        [
            ('[{"id": 1, "quality": 0.5}]', 0),
            ("[[0.5, 1.0]]", 0),
            ("[0.5]", 0),
            ('[{"quality": 0.5, "cost": "cheap"}]', 0),
            ('[{"quality": null, "cost": 0.3}]', 0),
            ('[{"quality": 0.9, "cost": 0.3}, {"quality": 0.5, "price": 0.2}]', 1),
        ],
    )
    def test_malformed_json_entries_rejected(self, text, entry):
        with pytest.raises(ValueError, match=f"worker entry {entry} must be an object"):
            load_workers_json(text)

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize("field", ["quality", "cost"])
    def test_non_finite_values_rejected(self, field, value):
        row = {"quality": "0.5", "cost": "0.3", field: value}
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            load_workers_csv(f"id,quality,cost\n1,{row['quality']},{row['cost']}\n")
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            WorkerProfile(**{"quality": 0.5, "cost": 0.3, field: float(value)})
