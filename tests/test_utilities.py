import numpy as np
import pytest
from hypothesis import given, strategies as st

from crowdprice import (
    WorkerProfile,
    bm,
    majorizes,
    make_additive,
    make_binary_labeling,
    make_typo,
    utility_from_config,
    weakly_majorizes,
)
from crowdprice.bonus import generate_population, linear_policy, threshold_policy, translate
from crowdprice.errors import SizeError
from crowdprice.utilities import (
    UtilityFlags,
    UtilityFunction,
    check_nondecreasing,
    check_schur_convex,
    check_subadditive,
    check_symmetric,
)


class TestTypoUtility:
    def test_nobody_recruited_is_worthless(self):
        assert make_typo(25, 1).evaluate([0.0] * 6) == 0.0

    def test_single_worker_inverts_qualification(self):
        # quality b_1(0.2) maps back to ability 0.2: 25 typos * 0.2
        r = bm(0.2, 25, 1)
        assert make_typo(25, 1).evaluate([r]) == pytest.approx(5.0, abs=1e-9)

    def test_two_worker_coverage(self):
        rs = [bm(0.2, 25, 1), bm(0.5, 25, 1)]
        assert make_typo(25, 1).evaluate(rs) == pytest.approx(25 * (1 - 0.8 * 0.5), abs=1e-9)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            make_typo(25, 1).evaluate([1.2])

    def test_linear_mode_skips_inversion(self):
        u = make_typo(25, None)
        assert u.evaluate([0.2, 0.5]) == pytest.approx(25 * (1 - 0.8 * 0.5), abs=1e-12)

    def test_batch_agrees_with_scalar(self):
        u = make_typo(25, 8)
        rng = np.random.default_rng(5)
        rows = rng.uniform(0, 1, size=(20, 6))
        batch = u.evaluate_many(rows)
        for row, value in zip(rows, batch):
            assert u.evaluate(row) == value  # bitwise, same code path


class TestAdditiveUtility:
    def test_examples(self):
        assert make_additive().evaluate([]) == 0.0
        assert make_additive().evaluate([0.1] * 8) == pytest.approx(0.8, abs=1e-12)
        assert make_additive().evaluate([2.0, 2.0, 2.0, 2.0]) == 8.0


class TestBinaryLabeling:
    def test_no_information_no_utility(self):
        assert make_binary_labeling().evaluate([0.0, 0.0]) == 0.0

    def test_perfect_worker(self):
        assert make_binary_labeling().evaluate([1.0]) == pytest.approx(2.0, abs=1e-12)

    def test_single_worker_closed_form(self):
        rng = np.random.default_rng(2)
        for r in rng.uniform(0, 1, size=100):
            assert make_binary_labeling().evaluate([float(r)]) == pytest.approx(2 * r, abs=1e-9)

    def test_size_guard(self):
        with pytest.raises(SizeError):
            make_binary_labeling().evaluate([0.5] * 21)


class TestMajorization:
    def test_examples(self):
        assert weakly_majorizes([3, 1], [2, 2]) and majorizes([3, 1], [2, 2])
        assert weakly_majorizes([2, 2], [1, 1]) and not majorizes([2, 2], [1, 1])
        assert not weakly_majorizes([1, 1], [3, 0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            weakly_majorizes([1, 2], [1])

    @given(st.lists(st.floats(0, 10), min_size=1, max_size=8))
    def test_reflexive(self, xs):
        assert weakly_majorizes(xs, xs)

    @given(
        st.integers(2, 6).flatmap(
            lambda n: st.tuples(*[st.lists(st.floats(0, 5), min_size=n, max_size=n)] * 3)
        )
    )
    def test_transitive(self, triple):
        a, b, c = triple
        if weakly_majorizes(a, b) and weakly_majorizes(b, c):
            assert weakly_majorizes(a, c)

    @given(st.lists(st.floats(0, 5), min_size=1, max_size=6))
    def test_mutual_majorization_means_same_multiset(self, xs):
        ys = list(reversed(xs))
        if majorizes(xs, ys) and majorizes(ys, xs):
            assert sorted(xs) == sorted(ys)


class TestCheckers:
    def test_flagged_utilities_pass(self):
        for utility in (make_additive(), make_typo(25, 1)):
            assert check_symmetric(utility, trials=300, seed=0).passed
            assert check_nondecreasing(utility, trials=300, seed=0).passed
            assert check_subadditive(utility, trials=300, seed=0).passed
            assert check_schur_convex(utility, trials=300, seed=0).passed

    def test_subadditivity_checker_catches_a_violator(self):
        # squared sum is superadditive on disjoint supports
        bad = UtilityFunction(
            name="sum-squared",
            flags=UtilityFlags(),
            _batch=lambda rows: np.sum(rows, axis=1) ** 2,
        )
        assert not check_subadditive(bad, trials=300, seed=0).passed

    def test_schur_checker_catches_a_violator(self):
        # sum of square roots is Schur-concave
        bad = UtilityFunction(
            name="sqrt-sum",
            flags=UtilityFlags(),
            _batch=lambda rows: np.sum(np.sqrt(np.abs(rows)), axis=1),
        )
        assert not check_schur_convex(bad, trials=300, seed=0).passed

    def test_strict_threshold_typo_is_reported_not_asserted(self):
        # the m = 1 proof does not extend; just record what the audit says
        report = check_schur_convex(make_typo(25, 2), trials=200, seed=1)
        assert report.trials == 200  # outcome intentionally unasserted

    def test_replayable_seed(self):
        a = check_schur_convex(make_typo(25, 2), trials=200, seed=1)
        b = check_schur_convex(make_typo(25, 2), trials=200, seed=1)
        assert a.violations == b.violations

    def test_trials_guard(self):
        with pytest.raises(ValueError):
            check_subadditive(make_additive(), trials=0)


class TestConfig:
    def test_kinds(self):
        assert utility_from_config({"kind": "additive"}).flags.additive
        typo = utility_from_config({"kind": "typo", "M": 25, "m": 1})
        assert typo.params == {"M": 25, "m": 1}
        assert utility_from_config({"kind": "binary_labeling"}).name == "binary_labeling"

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            utility_from_config({"kind": "mystery"})


def all_masks(n):
    keys = np.arange(1 << n)
    return ((keys[:, None] >> np.arange(n)[None, :]) & 1).astype(bool)


def plain_workers(n, seed):
    rng = np.random.default_rng(seed)
    return [
        WorkerProfile(float(r), float(c), i + 1)
        for i, (r, c) in enumerate(zip(rng.uniform(0, 1, n), rng.uniform(0.05, 1, n)))
    ]


class TestBind:
    """A bound kernel scores 0/1 masks exactly as ``evaluate_many`` scores
    the matching effective-quality rows, bit for bit."""

    def assert_bitwise(self, utility, workers):
        masks = all_masks(len(workers))
        r = np.array([w.quality for w in workers])
        assert np.array_equal(utility.bind(workers)(masks), utility.evaluate_many(masks * r))

    @pytest.mark.parametrize("m", [1, 13, 20, 25, None])
    def test_typo_without_abilities(self, m):
        self.assert_bitwise(make_typo(25, m), plain_workers(12, seed=3))

    def test_additive(self):
        self.assert_bitwise(make_additive(), plain_workers(12, seed=4))

    def test_binary_labeling(self):
        self.assert_bitwise(make_binary_labeling(), plain_workers(8, seed=5))

    @pytest.mark.parametrize("m", [1, 13, 20, 25, None])
    def test_typo_scores_carried_abilities(self, m):
        profile = generate_population(10, seed=11)
        policy = linear_policy(25) if m is None else threshold_policy(m, 25)
        workers = translate(profile, policy)
        masks = all_masks(len(workers))
        values = make_typo(25, m).bind(workers)(masks)
        s = np.array(profile.abilities)
        expected = [25 * (1 - np.prod(1 - s[mask])) for mask in masks]
        assert np.max(np.abs(values - expected)) <= 1e-12

    def test_ability_beats_a_saturated_quality(self):
        # b_1(0.9) rounds to 1.0, whose inverse is ability 1; the carried
        # ability keeps the true value
        assert bm(0.9, 25, 1) == 1.0
        kernel = make_typo(25, 1).bind([WorkerProfile(1.0, 0.5, 1, ability=0.9)])
        values = kernel(np.array([[True], [False]]))
        assert values[0] == pytest.approx(25 * 0.9, abs=1e-12) and values[1] == 0.0

    def test_typo_domain_checked_when_bound(self):
        with pytest.raises(ValueError):
            make_typo(25, 1).bind([WorkerProfile(1.2, 0.5, 1)])
