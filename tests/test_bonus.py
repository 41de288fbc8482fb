import numpy as np
import pytest
from scipy.stats import binom

from crowdprice import (
    AbilityProfile,
    BonusPolicy,
    bm,
    generate_population,
    invert_bm,
    linear_policy,
    threshold_policy,
    translate,
)
from crowdprice.bonus import bm_array, invert_bm_array


class TestBm:
    def test_endpoints(self):
        assert bm(0.0, 25, 14) == 0.0
        assert bm(1.0, 25, 14) == 1.0

    def test_small_closed_form(self):
        # at least 1 of 2 successes: 1 - 0.25
        assert bm(0.5, 2, 1) == pytest.approx(0.75, abs=1e-15)

    def test_matches_scipy_survival_function(self):
        for M in (5, 25, 400):
            for m in (1, M // 2 + 1, M):
                for s in np.linspace(0.01, 0.99, 25):
                    assert bm(float(s), M, m) == pytest.approx(
                        float(binom.sf(m - 1, M, s)), abs=1e-12
                    )

    def test_increasing_in_ability(self):
        grid = np.linspace(0.01, 0.99, 200)
        for m in (1, 8, 19):
            vals = bm_array(grid, 25, m)
            assert np.all(np.diff(vals) >= 0)
            # strict wherever float64 has room before saturating at 1
            interior = (vals[:-1] > 1e-12) & (vals[1:] < 1.0 - 1e-12)
            assert np.all(np.diff(vals)[interior] > 0)

    def test_decreasing_in_threshold(self):
        for s in (0.2, 0.5, 0.8):
            vals = [bm(s, 25, m) for m in range(1, 26)]
            assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_large_total_does_not_overflow(self):
        assert 0.0 < bm(0.5, 10_000, 5_100) < 1.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            bm(1.5, 25, 1)
        with pytest.raises(ValueError):
            bm(0.5, 25, 0)
        with pytest.raises(ValueError):
            bm(0.5, 25, 26)


class TestInvertBm:
    def test_endpoints_exact(self):
        for m in (1, 8, 25):
            assert invert_bm(0.0, 25, m) == 0.0
            assert invert_bm(1.0, 25, m) == 1.0

    def test_round_trip_interior(self):
        for m in (1, 8, 14, 19, 23):
            r = bm(0.37, 25, m)
            assert invert_bm(r, 25, m) == pytest.approx(0.37, abs=1e-9)

    def test_m1_closed_form(self):
        r = 1.0 - 0.8**25
        assert invert_bm(r, 25, 1) == pytest.approx(0.2, abs=1e-12)

    def test_residual_contract(self):
        # |b_m(invert_bm(r)) - r| <= 1e-12 across the quality range
        for m in (1, 8, 14, 19, 23):
            grid = np.linspace(0.0, 1.0, 200)
            residual = np.abs(bm_array(invert_bm_array(grid, 25, m), 25, m) - grid)
            assert residual.max() <= 1e-12


class TestTranslate:
    def test_linear_passes_ability_through(self):
        profile = AbilityProfile(abilities=(0.7,), costs=(0.4,))
        (w,) = translate(profile, linear_policy(25))
        assert w.quality == 0.7 and w.cost == 0.4

    def test_full_threshold_with_perfect_ability(self):
        profile = AbilityProfile(abilities=(1.0,), costs=(0.4,))
        (w,) = translate(profile, threshold_policy(25, 25))
        assert w.quality == 1.0

    def test_threshold_matches_monte_carlo(self):
        # 1e6 binomial draws pin b_14(0.55) to ~3 sigma
        profile = AbilityProfile(abilities=(0.55,), costs=(0.3,))
        (w,) = translate(profile, threshold_policy(14, 25))
        draws = np.random.default_rng(0).binomial(25, 0.55, size=1_000_000)
        estimate = float(np.mean(draws >= 14))
        sigma = np.sqrt(estimate * (1 - estimate) / 1_000_000)
        assert abs(w.quality - estimate) <= 3 * sigma

    def test_qualities_match_scalar_bm_and_keep_abilities(self):
        profile = generate_population(40, seed=3)
        for policy in (threshold_policy(1, 25), threshold_policy(17, 25), linear_policy(25)):
            workers = translate(profile, policy)
            for w, s in zip(workers, profile.abilities):
                expected = s if policy.kind == "linear" else bm(s, 25, policy.m)
                assert w.quality == expected  # bitwise: bm_array is elementwise
                assert w.ability == s

    def test_threshold_preserves_cost_quality_monotonicity(self):
        costs = np.linspace(0.05, 0.95, 12)
        abilities = 1.0 / (1.0 + np.exp(-3.0 * costs))
        profile = AbilityProfile(abilities=tuple(abilities), costs=tuple(costs))
        workers = translate(profile, threshold_policy(14, 25))
        qualities = [w.quality for w in workers]
        assert all(a < b for a, b in zip(qualities, qualities[1:]))


class TestGeneratePopulation:
    def test_deterministic_per_seed(self):
        a = generate_population(15, seed=1)
        b = generate_population(15, seed=1)
        assert a.abilities == b.abilities and a.costs == b.costs

    def test_logistic_range(self):
        pop = generate_population(15, seed=1)
        assert all(0.5 < s < 1.0 for s in pop.abilities)
        assert all(0.0 < c < 1.0 for c in pop.costs)

    def test_metadata_records_generator(self):
        pop = generate_population(3, seed=5)
        assert pop.metadata["generator"] == "numpy.random.PCG64"
        assert pop.metadata["seed"] == 5

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            generate_population(0, seed=1)
        with pytest.raises(ValueError):
            generate_population(5, seed=1, cost_alpha=-1.0)


class TestPolicyTypes:
    def test_threshold_needs_valid_m(self):
        with pytest.raises(ValueError):
            BonusPolicy(kind="threshold", M=25, m=0)
        with pytest.raises(ValueError):
            BonusPolicy(kind="threshold", M=25, m=26)

    def test_labels(self):
        assert threshold_policy(14, 25).label == "m=14"
        assert linear_policy(25).label == "linear"
