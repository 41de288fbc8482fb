import math
import warnings

import numpy as np
import pytest

from conftest import (
    curve_profile,
    responsive_curve,
    subresponsive_curve,
    uniform_pool,
    unresponsive_curve,
)
from crowdprice import (
    Regime,
    WorkerProfile,
    accepted_set,
    classify_structure,
    cp_exact_oracle,
    cp_for_regime,
    cp_no_bonus,
    cp_res,
    cp_subres,
    cp_unres,
    make_additive,
    make_typo,
    structure_of,
)
import crowdprice.common as common
from crowdprice.common import (
    ORACLE_LIMIT,
    StructureKind,
    _blocking_rows,
    _least_feasible,
    _picking_rows,
    _quality_order,
    _scale,
    _Scorer,
    make_report,
)
from crowdprice.errors import SizeError
from crowdprice.halfplane import HalfPlane
from crowdprice.workers import empirical_regime
from halfplane_reference import reference_feasible_point, reference_repair_strict
from oracle_reference import reference_oracle
from test_halfplane import check_against_reference


def pob_workers(n=16, c=1.0, eps=0.1):
    groups = [(eps, c)] * (n // 2) + [(1.0, 2 * c)] * (n // 4) + [(2.0, 2 * c)] * (n // 4)
    return tuple(WorkerProfile(q, cc, i) for i, (q, cc) in enumerate(groups, start=1))


UNRES3 = (
    WorkerProfile(0.5, 0.25, 1),
    WorkerProfile(0.7, 0.5, 2),
    WorkerProfile(0.9, 1.0, 3),
)


class TestAcceptedSet:
    def test_worst_case_profile_base_only(self):
        workers = pob_workers()
        accepted, spent = accepted_set(workers, (1.0, 0.0))
        assert accepted == tuple(range(8))  # exactly the cherry pickers
        assert spent == pytest.approx(8.0)

    def test_nothing_for_free(self):
        accepted, spent = accepted_set(UNRES3, (0.0, 0.0))
        assert accepted == () and spent == 0.0

    def test_worst_case_profile_pure_bonus(self):
        workers = pob_workers()
        accepted, spent = accepted_set(workers, (0.0, 1.0))
        assert accepted == tuple(range(12, 16))  # the expert quarter
        assert spent == pytest.approx(8.0)


class TestClassifyStructure:
    QUALS = [0.9, 0.8, 0.7, 0.6, 0.5]

    def test_suffix(self):
        sc = classify_structure(self.QUALS, [3, 4, 5])
        assert sc.kind is StructureKind.PICKING_SUFFIX and (sc.lower, sc.upper) == (3, 5)

    def test_interval(self):
        sc = classify_structure(self.QUALS, [2, 3])
        assert sc.kind is StructureKind.PICKING and (sc.lower, sc.upper) == (2, 3)

    def test_blocking(self):
        sc = classify_structure(self.QUALS, [1, 5])
        assert sc.kind is StructureKind.BLOCKING and (sc.lower, sc.upper) == (2, 4)

    def test_empty_is_picking_with_no_bounds(self):
        sc = classify_structure(self.QUALS, [])
        assert sc.kind is StructureKind.PICKING and sc.lower is None

    def test_full_is_suffix_from_one(self):
        sc = classify_structure(self.QUALS, [1, 2, 3, 4, 5])
        assert sc.kind is StructureKind.PICKING_SUFFIX and sc.lower == 1

    def test_scattered_is_other(self):
        assert classify_structure(self.QUALS, [1, 3, 5]).kind is StructureKind.OTHER

    def test_split_tie_group_is_other(self):
        quals = [0.9, 0.7, 0.7, 0.5]
        assert classify_structure(quals, [1, 2]).kind is StructureKind.OTHER

    def test_complete_tie_group_is_fine(self):
        quals = [0.9, 0.7, 0.7, 0.5]
        sc = classify_structure(quals, [2, 3])
        assert sc.kind is StructureKind.PICKING and (sc.lower, sc.upper) == (2, 3)

    def test_requires_sorted_qualities(self):
        with pytest.raises(ValueError, match="descending"):
            classify_structure([0.1, 0.9], [1])

    def test_structure_of_maps_original_indices(self):
        workers = (WorkerProfile(0.2, 0.1, 1), WorkerProfile(0.9, 0.5, 2))
        sc = structure_of(workers, [0])  # lower-quality worker = rank 2
        assert sc.kind is StructureKind.PICKING_SUFFIX and sc.lower == 2


class TestCpUnres:
    def test_worked_example(self):
        report = cp_unres(UNRES3, 2.0, make_additive(), diagnostics=False)
        assert report.policy.base == 0.0
        assert report.policy.bonus == pytest.approx(5.0 / 7.0, abs=1e-12)
        assert report.accepted == (0, 1)
        assert report.spent == pytest.approx(6.0 / 7.0, abs=1e-12)
        assert report.utility_value == pytest.approx(1.2, abs=1e-12)
        # cross-check against the plane oracle
        oracle = cp_exact_oracle(UNRES3, 2.0, make_additive())
        assert oracle.utility_value == pytest.approx(1.2, abs=1e-12)

    def test_zero_budget(self):
        report = cp_unres(UNRES3, 0.0, make_additive(), diagnostics=False)
        assert report.policy == report.policy.__class__(0.0, 0.0)
        assert report.accepted == ()

    def test_slack_budget_recruits_all(self):
        report = cp_unres(UNRES3, 100.0, make_additive(), diagnostics=False)
        assert report.accepted == (0, 1, 2)
        assert report.policy.bonus == pytest.approx(1.0 / 0.9)

    def test_zero_quality_worker_skipped_as_candidate(self):
        workers = UNRES3 + (WorkerProfile(0.0, 0.4, 4),)
        report = cp_unres(workers, 2.0, make_additive(), diagnostics=False)
        assert 3 not in report.accepted

    def test_off_regime_diagnostic(self):
        convex = curve_profile(lambda c: c**2, np.random.default_rng(0), 8, 0.1, 1.0)
        with pytest.warns(UserWarning, match="responsive"):
            cp_unres(convex, 1.0, make_additive())


class TestCpSubres:
    def test_single_worker(self):
        w = (WorkerProfile(0.5, 0.25, 1),)
        report = cp_subres(w, 1.0, make_additive(), diagnostics=False)
        assert report.accepted == (0,)
        assert report.utility_value == pytest.approx(0.5)
        p, q = report.policy.base, report.policy.bonus
        assert p + 0.5 * q >= 0.25 and p + 0.5 * q <= 1.0

    def test_generous_budget_takes_all(self):
        rng = np.random.default_rng(1)
        curve, lo, hi = subresponsive_curve(rng)
        workers = curve_profile(curve, rng, 5, lo, hi)
        total = sum(w.cost for w in workers)
        report = cp_subres(workers, 5 * total, make_typo(25, 1), diagnostics=False)
        assert report.accepted == tuple(range(5))

    def test_duplicate_profiles_straddling_a_boundary(self):
        # two identical workers cannot be separated by any policy, so the
        # solver must fall back to sets that keep them together
        workers = (
            WorkerProfile(0.62, 0.8, 1),
            WorkerProfile(0.62, 0.8, 2),
            WorkerProfile(0.35, 0.4, 3),
        )
        report = cp_subres(workers, 1.0, make_additive(), diagnostics=False)
        assert (0 in report.accepted) == (1 in report.accepted)
        oracle = cp_exact_oracle(workers, 1.0, make_additive())
        assert report.utility_value == pytest.approx(oracle.utility_value, abs=1e-9)

    def test_modes_and_oracle_agree(self):
        rng = np.random.default_rng(14)
        for _ in range(25):
            curve, lo, hi = subresponsive_curve(rng)
            workers = curve_profile(curve, rng, int(rng.integers(2, 10)), lo, hi)
            budget = float(rng.uniform(0.1, 1.4) * sum(w.cost for w in workers))
            utility = make_typo(25, 1)
            binary = cp_subres(workers, budget, utility, mode="binary", diagnostics=False)
            linear = cp_subres(workers, budget, utility, mode="linear", diagnostics=False)
            oracle = cp_exact_oracle(workers, budget, utility)
            assert binary.utility_value == pytest.approx(linear.utility_value, abs=1e-9)
            assert binary.utility_value == pytest.approx(oracle.utility_value, abs=1e-9)

    def test_mode_validated(self):
        with pytest.raises(ValueError):
            cp_subres(UNRES3, 1.0, make_additive(), mode="quantum", diagnostics=False)


class TestCpRes:
    def test_zero_budget_blocks_everyone(self):
        rng = np.random.default_rng(2)
        curve, lo, hi = responsive_curve(rng)
        workers = curve_profile(curve, rng, 6, lo, hi)
        report = cp_res(workers, 0.0, make_additive(), diagnostics=False)
        assert report.accepted == ()

    def test_tiny_budget_still_finds_an_affordable_edge(self):
        rng = np.random.default_rng(3)
        curve, lo, hi = responsive_curve(rng)
        workers = curve_profile(curve, rng, 6, lo, hi)
        cheapest = min(w.cost for w in workers)
        report = cp_res(workers, cheapest * 1.05, make_additive(), diagnostics=False)
        assert len(report.accepted) >= 1
        assert report.spent <= cheapest * 1.05

    def test_two_cluster_profile_blocks_the_middle(self):
        # convex curve: cheap low-quality and expensive high-quality workers;
        # with a budget that cannot afford everyone the optimum keeps both
        # ends and drops the middle
        workers = tuple(
            WorkerProfile(c**2, c, i)
            for i, c in enumerate([0.1, 0.15, 0.5, 0.55, 0.9, 0.95], start=1)
        )
        budget = 1.1
        report = cp_res(workers, budget, make_additive(), diagnostics=False)
        oracle = cp_exact_oracle(workers, budget, make_additive())
        assert report.utility_value == pytest.approx(oracle.utility_value, abs=1e-9)
        assert report.structure.kind in (StructureKind.BLOCKING, StructureKind.PICKING,
                                         StructureKind.PICKING_SUFFIX)

    def test_modes_and_oracle_agree(self):
        rng = np.random.default_rng(15)
        for _ in range(25):
            curve, lo, hi = responsive_curve(rng)
            workers = curve_profile(curve, rng, int(rng.integers(2, 10)), lo, hi)
            budget = float(rng.uniform(0.1, 1.4) * sum(w.cost for w in workers))
            utility = make_typo(25, 1)
            binary = cp_res(workers, budget, utility, mode="binary", diagnostics=False)
            linear = cp_res(workers, budget, utility, mode="linear", diagnostics=False)
            oracle = cp_exact_oracle(workers, budget, utility)
            assert binary.utility_value == pytest.approx(linear.utility_value, abs=1e-9)
            assert binary.utility_value == pytest.approx(oracle.utility_value, abs=1e-9)


class TestInfiniteBudget:
    """At B = inf the budget rows bound nothing: the regime solvers drop
    them and take their scale from the costs, so no NaN arises."""

    @pytest.mark.parametrize(
        "maker, solver",
        [
            (unresponsive_curve, cp_unres),
            (subresponsive_curve, cp_subres),
            (responsive_curve, cp_res),
        ],
        ids=["unres", "subres", "res"],
    )
    def test_regime_solvers_reach_the_oracle(self, maker, solver):
        rng = np.random.default_rng(61)
        for _ in range(8):
            curve, lo, hi = maker(rng)
            workers = curve_profile(curve, rng, int(rng.integers(6, 15)), lo, hi)
            for utility in (make_typo(25, 1), make_additive()):
                with warnings.catch_warnings():
                    warnings.simplefilter("error", RuntimeWarning)
                    report = solver(workers, math.inf, utility, diagnostics=False)
                    oracle = cp_exact_oracle(workers, math.inf, utility)
                assert report.utility_value == pytest.approx(oracle.utility_value, abs=1e-9)

    def test_row_builders_drop_the_vacuous_rows(self):
        # a row of infinite bound becomes the all-zero row; the others stay
        r, c = [0.9, 0.6, 0.3], [0.8, 0.5, 0.2]
        for build, pairs in ((_picking_rows, [(1, 3), (2, 2)]), (_blocking_rows, [(2, 2), (1, 3)])):
            finite = build(r, c, pairs, 5.0)
            at_inf = build(r, c, pairs, math.inf)
            vacuous = finite[2] == 5.0
            assert vacuous.any() and not vacuous.all()
            for got, want in zip(at_inf, finite):
                assert (got[~vacuous] == want[~vacuous]).all()
                assert not got[vacuous].any()


class TestCpNoBonus:
    def test_worst_case_profile(self):
        workers = pob_workers()
        report = cp_no_bonus(workers, 10.0, make_additive())
        assert (report.policy.base, report.policy.bonus) == (1.0, 0.0)
        assert report.utility_value == pytest.approx(0.8)

    def test_budget_below_cheapest(self):
        report = cp_no_bonus(UNRES3, 0.1, make_additive())
        assert (report.policy.base, report.policy.bonus) == (0.0, 0.0)
        assert report.accepted == ()

    def test_uniform_costs_slack_budget(self):
        workers = tuple(WorkerProfile(0.5, 0.3, i) for i in range(4))
        report = cp_no_bonus(workers, 10.0, make_additive())
        assert report.policy.base == pytest.approx(0.3)
        assert len(report.accepted) == 4

    def test_tie_prefers_smaller_base(self):
        workers = (WorkerProfile(0.0, 0.2, 1), WorkerProfile(0.6, 0.5, 2))
        # base 0.2 and base 0 both give utility 0; prefer 0
        report = cp_no_bonus(workers, 0.4, make_additive())
        assert report.policy.base == 0.0


class TestOracle:
    def test_worst_case_profile_value(self):
        workers = pob_workers()
        report = cp_exact_oracle(workers, 10.0, make_additive(), max_n=16)
        assert report.utility_value == pytest.approx(8.0, abs=1e-12)
        assert report.spent <= 10.0

    def test_single_worker(self):
        w = (WorkerProfile(0.8, 0.3, 1),)
        assert cp_exact_oracle(w, 0.5, make_additive()).utility_value == pytest.approx(0.8)
        assert cp_exact_oracle(w, 0.1, make_additive()).utility_value == 0.0

    def test_size_guard(self):
        workers = tuple(WorkerProfile(0.5, 0.5, i) for i in range(ORACLE_LIMIT + 1))
        with pytest.raises(SizeError):
            cp_exact_oracle(workers, 1.0, make_additive())

    def test_dominates_every_solver_and_no_bonus(self):
        rng = np.random.default_rng(16)
        utility = make_typo(25, 1)
        for maker in (unresponsive_curve, subresponsive_curve, responsive_curve):
            for _ in range(8):
                curve, lo, hi = maker(rng)
                workers = curve_profile(curve, rng, int(rng.integers(2, 9)), lo, hi)
                budget = float(rng.uniform(0.1, 1.2) * sum(w.cost for w in workers))
                oracle = cp_exact_oracle(workers, budget, utility)
                for solver in (cp_unres, cp_subres, cp_res):
                    rep = solver(workers, budget, utility, diagnostics=False)
                    assert rep.utility_value <= oracle.utility_value + 1e-9
                assert cp_no_bonus(workers, budget, utility).utility_value <= (
                    oracle.utility_value + 1e-9
                )

    def test_reports_are_internally_consistent(self):
        rng = np.random.default_rng(19)
        utility = make_typo(25, 1)
        for _ in range(20):
            curve, lo, hi = unresponsive_curve(rng)
            workers = curve_profile(curve, rng, 6, lo, hi)
            budget = float(rng.uniform(0.2, 1.0) * sum(w.cost for w in workers))
            rep = cp_exact_oracle(workers, budget, utility)
            accepted, spent = accepted_set(workers, rep.policy)
            assert accepted == rep.accepted
            assert spent == rep.spent
            assert spent <= budget


def loop_oracle(workers, budget, utility):
    """The sampled-bonus oracle as one Python loop with a dict insert per
    threshold row: the reference for the array-evaluated ``cp_exact_oracle``
    (same candidates, same filter, same ranking)."""
    n = len(workers)
    r = np.array([w.quality for w in workers])
    c = np.array([w.cost for w in workers])
    eps = 1e-9 * max(1.0, float(c.max()))
    margin = 1e-9 * max(1.0, budget, float(c.max()))

    critical = {0.0}
    for i in range(n):
        if r[i] > 0.0:
            critical.add(float(c[i] / r[i]))
        for j in range(i + 1, n):
            if r[i] != r[j]:
                t = float((c[i] - c[j]) / (r[i] - r[j]))
                if t > 0.0:
                    critical.add(t)
    crit = sorted(critical)
    samples = set()
    for t in crit:
        samples.add(t)
        samples.add(t + eps)
        if t - eps >= 0.0:
            samples.add(t - eps)
    samples.update((a + b) / 2.0 for a, b in zip(crit, crit[1:]))
    samples.add(crit[-1] + max(1.0, crit[-1]))

    by_mask = {}
    for q in sorted(samples):
        bases = np.maximum(c - q * r, 0.0)
        thresholds = np.unique(np.concatenate([[0.0], bases, np.nextafter(bases, np.inf)]))
        accept = thresholds[:, None] + q * r[None, :] >= c[None, :]
        spend = thresholds * accept.sum(axis=1) + q * (accept @ r)
        for t in range(len(thresholds)):
            if spend[t] > budget + margin:
                continue
            key = np.packbits(accept[t]).tobytes()
            entry = (float(spend[t]), float(thresholds[t]), q)
            if key not in by_mask or entry < by_mask[key]:
                by_mask[key] = entry

    masks = np.array(
        [np.unpackbits(np.frombuffer(key, dtype=np.uint8), count=n).astype(bool) for key in by_mask]
    )
    values = utility.bind(workers)(masks)
    for _, (_, p, q) in sorted(zip(values, by_mask.values()), key=lambda it: (-it[0], it[1])):
        report = make_report(workers, utility, p, q)
        if report.spent <= budget:
            return report
    return make_report(workers, utility, 0.0, 0.0)


def differential_pools(rng, count, n_lo, n_hi):
    """Pools over the three regime curves and a tied 0.1 grid, each under
    typo m = 1, m = 13, linear typo and additive in turn."""
    curves = (unresponsive_curve, subresponsive_curve, responsive_curve)
    utilities = (make_typo(25, 1), make_typo(25, 13), make_typo(25, None), make_additive())
    for k in range(count):
        n = int(rng.integers(n_lo, n_hi + 1))
        if k % 4 < 3:
            curve, lo, hi = curves[k % 4](rng)
            workers = curve_profile(curve, rng, n, lo, hi)
        else:  # grid qualities and costs: lines coincide and cross at shared points
            workers = [
                WorkerProfile(int(rng.integers(0, 11)) / 10, int(rng.integers(1, 11)) / 10, i)
                for i in range(n)
            ]
        budget = float(rng.uniform(0.05, 1.3) * sum(w.cost for w in workers))
        yield workers, budget, utilities[(k // 4) % 4]


def boundary_pools():
    """Hand-built pools at the float edges of the oracle's rows, each under
    typo m = 1 and additive: duplicate lines, zero-quality workers, keys
    c - q r one or two ulps apart, and budgets equal to a candidate's exact
    spend."""

    def ulps(x, k):
        for _ in range(k):
            x = float(np.nextafter(x, np.inf))
        return x

    def pool(lines):
        return [WorkerProfile(r, c, i) for i, (r, c) in enumerate(lines, start=1)]

    duplicates = pool([(0.5, 0.3)] * 3 + [(0.8, 0.6)] * 2 + [(0.2, 0.1), (0.9, 0.9)])
    ungraded = pool([(0.0, 0.2), (0.0, 0.5), (0.0, 0.0), (0.6, 0.4), (0.3, 0.1), (0.6, 0.4)])
    # keys 1-2 ulps apart at every bonus, q = 0 included; the last two
    # lines cross at q = 0.5, where their keys round within an ulp
    close = pool(
        [(0.4, 0.3), (0.4, ulps(0.3, 1)), (0.4, ulps(0.3, 2)), (0.7, 0.5), (0.7, ulps(0.5, 1))]
        + [(0.3, 0.7), (0.7, 0.9)]
    )
    for workers in (duplicates, ungraded, close):
        for utility in (make_typo(25, 1), make_additive()):
            yield workers, 0.4 * sum(w.cost for w in workers), utility
            # the exact spend of the pure bonus that recruits each graded worker
            for w in workers[::2]:
                if w.quality > 0.0:
                    yield workers, accepted_set(workers, (0.0, w.cost / w.quality))[1], utility


class TestCpForRegime:
    def test_unclassified_pool_gets_the_oracle_optimum(self):
        # the best of the three regime solvers reaches only 4.6599 here
        workers, budget = uniform_pool([1, 17], 17)
        assert empirical_regime(workers) is Regime.UNCLASSIFIED
        utility = make_additive()
        report = cp_for_regime(workers, budget, utility, Regime.UNCLASSIFIED)
        assert report == cp_exact_oracle(workers, budget, utility)
        assert report.utility_value == pytest.approx(5.0945, abs=1e-4)


class TestOracleMatchesLoopReference:
    @staticmethod
    def check(workers, budget, utility):
        ref = loop_oracle(workers, budget, utility)
        got = cp_exact_oracle(workers, budget, utility, max_n=len(workers))
        assert got.utility_value == ref.utility_value
        assert got.accepted == ref.accepted
        tol = 1e-12 * max(1.0, budget)
        assert got.spent <= ref.spent + tol
        same_price = math.isclose(got.policy.base, ref.policy.base, rel_tol=1e-12) and (
            math.isclose(got.policy.bonus, ref.policy.bonus, rel_tol=1e-12)
        )
        # two prices of one set that spend the same up to rounding: which is
        # cheaper is float noise (the reference sums with BLAS)
        assert same_price or abs(got.spent - ref.spent) <= tol

    def test_small_pools(self):
        rng = np.random.default_rng(51)
        for workers, budget, utility in differential_pools(rng, 64, 2, 16):
            self.check(workers, budget, utility)

    def test_large_pools(self):
        rng = np.random.default_rng(52)
        for workers, budget, utility in differential_pools(rng, 6, 32, 48):
            self.check(workers, budget, utility)

    def test_two_word_pools(self):
        # more than 64 workers: each accepted set spans two 64-bit words
        rng = np.random.default_rng(54)
        for workers, budget, utility in differential_pools(rng, 2, 65, 72):
            self.check(workers, budget, utility)

    def test_float_boundary_pools(self):
        for workers, budget, utility in boundary_pools():
            self.check(workers, budget, utility)


def tight_budget_pools(rng, count):
    """Pools whose budget is the exact spend of a random policy, or one ulp
    above or below it, under typo m = 1, m = 13 and additive in turn: the
    budgets at which a row just fits or just overspends."""
    utilities = (make_typo(25, 1), make_typo(25, 13), make_additive())
    for k, (workers, _, _) in enumerate(differential_pools(rng, count, 2, 40)):
        c = max(w.cost for w in workers)
        graded = [w.cost / w.quality for w in workers if w.quality > 0.0]
        p, q = rng.uniform(0.0, 1.0, 2) * (c, max(graded, default=1.0))
        spend = accepted_set(workers, (float(p), float(q)))[1]
        for budget in (spend, float(np.nextafter(spend, np.inf)), float(np.nextafter(spend, 0.0))):
            yield workers, budget, utilities[k % 3]


class TestOracleMatchesUnprunedReference:
    """``cp_exact_oracle`` skips the bonuses and rows that must overspend
    and cuts larger chunks; ``reference_oracle`` builds every row.  Their
    reports agree under ``==``."""

    @staticmethod
    def check(pools):
        for workers, budget, utility in pools:
            got = cp_exact_oracle(workers, budget, utility, max_n=len(workers))
            assert got == reference_oracle(workers, budget, utility)

    def test_differential_pools(self):
        for seed, count, n_lo, n_hi in ((51, 64, 2, 16), (52, 6, 32, 48), (54, 2, 65, 72)):
            self.check(differential_pools(np.random.default_rng(seed), count, n_lo, n_hi))

    def test_float_boundary_pools(self):
        self.check(boundary_pools())

    def test_tight_budgets(self):
        self.check(tight_budget_pools(np.random.default_rng(57), 24))

    def test_two_word_pool_past_the_old_cap(self):
        self.check(differential_pools(np.random.default_rng(56), 1, 96, 128))


def loop_keys(workers, utility, budget, points):
    """The keys of the affordable probes, one ``make_report`` per probe: the
    reference for ``_Scorer.keys``.  A key is the rank the regime solvers
    order reports by, (-utility, spend, base, bonus)."""
    keys = []
    for p, q in points:
        report = make_report(workers, utility, p, q)
        if report.spent <= budget:
            keys.append((-report.utility_value, report.spent, p, q))
    return keys


class TestScorerMatchesMakeReport:
    @staticmethod
    def check(workers, budget, utility, points):
        ref = loop_keys(workers, utility, budget, points)
        scorer = _Scorer(workers, utility, budget)
        p, q = zip(*points)
        assert scorer.keys(p, q) == ref
        assert scorer.best(p, q) == min(ref, default=None)
        # probes dealt to seven groups, the last left empty
        group = np.arange(len(points)) % 6
        affordable = scorer.affordable(np.array(p), np.array(q), group, 7)
        for g in range(7):
            members = [point for point, k in zip(points, group) if k == g]
            assert affordable[g] == bool(loop_keys(workers, utility, budget, members))
        if ref:
            best = min(ref)
            assert scorer.report(best) == make_report(workers, utility, best[2], best[3])

    def test_random_probes(self):
        rng = np.random.default_rng(61)
        for workers, budget, utility in differential_pools(rng, 32, 2, 16):
            c = max(w.cost for w in workers)
            q_hi = max(w.cost / w.quality for w in workers if w.quality > 0.0)
            points = [(float(p), float(q)) for p, q in rng.uniform(0.0, 1.2, size=(40, 2)) * (c, q_hi)]
            points += [(w.cost, 0.0) for w in workers]
            self.check(workers, budget, utility, points)

    def test_boundary_probes(self):
        # every pure-bonus and base threshold, their one-ulp neighbours and
        # the regime solvers' +-1e-12 nudges; boundary_pools' budgets include
        # the exact fsum spend of pure-bonus probes
        for workers, budget, utility in boundary_pools():
            scale = max([1.0, budget] + [w.cost for w in workers])
            points = []
            for w in workers:
                if w.quality > 0.0:
                    q = w.cost / w.quality
                    points += [(0.0, q), (0.0, float(np.nextafter(q, 0.0))), (0.0, q * (1.0 + 5e-16))]
                for q in (0.0, 0.5, 1.0):
                    p = max(0.0, w.cost - q * w.quality)
                    for t in (p, p + 1e-12 * scale, max(0.0, p - 1e-12 * scale)):
                        points += [(t, q), (float(np.nextafter(t, np.inf)), q)]
            self.check(workers, budget, utility, points)

    def test_solver_reports_are_make_reports(self):
        rng = np.random.default_rng(62)
        for workers, budget, utility in differential_pools(rng, 16, 2, 14):
            reports = [cp_unres(workers, budget, utility, diagnostics=False)]
            for solver in (cp_subres, cp_res):
                for mode in ("binary", "linear"):
                    reports.append(solver(workers, budget, utility, mode=mode, diagnostics=False))
            reports.append(cp_no_bonus(workers, budget, utility))
            for report in reports:
                policy = report.policy
                assert report == make_report(workers, utility, policy.base, policy.bonus)


class TestOracleAtScale:
    def test_dominates_every_solver_and_reproduces(self):
        rng = np.random.default_rng(53)
        utility = make_typo(25, 1)
        for maker in (unresponsive_curve, subresponsive_curve, responsive_curve) * 2:
            curve, lo, hi = maker(rng)
            n = int(rng.integers(40, 61))
            workers = curve_profile(curve, rng, n, lo, hi)
            budget = float(rng.uniform(0.1, 1.2) * sum(w.cost for w in workers))
            oracle = cp_exact_oracle(workers, budget, utility, max_n=n)
            rivals = [cp_unres(workers, budget, utility, diagnostics=False)]
            for solver in (cp_subres, cp_res):
                for mode in ("binary", "linear"):
                    rivals.append(solver(workers, budget, utility, mode=mode, diagnostics=False))
            rivals.append(cp_no_bonus(workers, budget, utility))
            for rival in rivals:
                assert rival.utility_value <= oracle.utility_value + 1e-9
            accepted, spent = accepted_set(workers, oracle.policy)
            assert accepted == oracle.accepted
            assert spent == oracle.spent <= budget

    def test_regime_solvers_reach_the_optimum(self):
        # cp_res has its own test below
        rng = np.random.default_rng(58)
        # cp_subres runs in its default binary mode
        for maker, solver in ((unresponsive_curve, cp_unres), (subresponsive_curve, cp_subres)):
            for utility in (make_typo(25, 1), make_additive()):
                curve, lo, hi = maker(rng)
                n = int(rng.integers(60, 81))
                workers = curve_profile(curve, rng, n, lo, hi)
                budget = float(rng.uniform(0.1, 1.2) * sum(w.cost for w in workers))
                oracle = cp_exact_oracle(workers, budget, utility, max_n=n)
                report = solver(workers, budget, utility, diagnostics=False)
                assert report.utility_value == pytest.approx(oracle.utility_value, abs=1e-9)

    def test_linear_modes_reach_the_optimum(self):
        rng = np.random.default_rng(59)
        for maker, solver in ((subresponsive_curve, cp_subres), (responsive_curve, cp_res)):
            for utility in (make_typo(25, 1), make_additive()):
                curve, lo, hi = maker(rng)
                n = int(rng.integers(30, 41))
                workers = curve_profile(curve, rng, n, lo, hi)
                budget = float(rng.uniform(0.1, 1.2) * sum(w.cost for w in workers))
                oracle = cp_exact_oracle(workers, budget, utility, max_n=n)
                report = solver(workers, budget, utility, mode="linear", diagnostics=False)
                assert report.utility_value == pytest.approx(oracle.utility_value, abs=1e-9)

    def test_cp_res_reaches_the_optimum(self):
        rng = np.random.default_rng(60)
        utilities = (make_typo(25, 1), make_typo(25, 13), make_additive())
        for k in range(12):
            curve, lo, hi = responsive_curve(rng)
            n = int(rng.integers(30, 65))
            workers = curve_profile(curve, rng, n, lo, hi)
            budget = float(rng.uniform(0.05, 1.3) * sum(w.cost for w in workers))
            utility = utilities[k % 3]
            oracle = cp_exact_oracle(workers, budget, utility)
            report = cp_res(workers, budget, utility, mode="binary", diagnostics=False)
            assert report.utility_value == oracle.utility_value

    def test_cp_subres_reaches_the_optimum(self):
        # binary cp_subres bisects each scan, trusting that feasibility is
        # monotone in lo
        rng = np.random.default_rng(2027)
        utilities = (make_typo(25, 1), make_typo(25, 13), make_additive())
        for k in range(12):
            curve, lo, hi = subresponsive_curve(rng)
            n = int(rng.integers(30, 65))
            workers = curve_profile(curve, rng, n, lo, hi)
            budget = float(rng.uniform(0.05, 1.3) * sum(w.cost for w in workers))
            utility = utilities[k % 3]
            oracle = cp_exact_oracle(workers, budget, utility)
            report = cp_subres(workers, budget, utility, mode="binary", diagnostics=False)
            assert report.utility_value == oracle.utility_value


# ---------------------------------------------------------------------------
# The regime solvers against their one-system-at-a-time form
# ---------------------------------------------------------------------------


def reference_rows(r, c, lo, hi, budget, kind):
    """One system as the list of rows the solvers once built per (lo, hi),
    rows of infinite bound left out; kind "everyone" ignores lo and hi."""
    n = len(r)
    if kind == "picking":
        r_ext, c_ext = [0.0, *r, 0.0], [budget, *c, budget]
        span = range(lo, hi + 1)
        rows = [
            HalfPlane(1.0, r_ext[lo - 1], c_ext[lo - 1], strict=True),
            HalfPlane(-1.0, -r_ext[lo], -c_ext[lo]),
            HalfPlane(-1.0, -r_ext[hi], -c_ext[hi]),
            HalfPlane(1.0, r_ext[hi + 1], c_ext[hi + 1], strict=True),
            HalfPlane(float(len(span)), math.fsum(r_ext[i] for i in span), budget),
        ]
    elif kind == "blocking":
        rows = [
            HalfPlane(1.0, r[lo - 1], c[lo - 1], strict=True),
            HalfPlane(1.0, r[hi - 1], c[hi - 1], strict=True),
        ]
        if lo >= 2:
            rows.append(HalfPlane(-1.0, -r[lo - 2], -c[lo - 2]))
        if hi <= n - 1:
            rows.append(HalfPlane(-1.0, -r[hi], -c[hi]))
        outside = [i for i in range(n) if not (lo - 1 <= i <= hi - 1)]
        rows.append(HalfPlane(float(len(outside)), math.fsum(r[i] for i in outside), budget))
    else:
        rows = [HalfPlane(-1.0, -ri, -ci) for ri, ci in zip(r, c)]
        rows.append(HalfPlane(float(n), math.fsum(r), budget))
    return [row for row in rows if row.rhs < math.inf]


def reference_candidate(scorer, rows, scale):
    """The least key of one system's probes: its polygon's vertices, their
    strict repairs nudged by +-1e-12 scale, and points pulled toward the
    centroid, ranked one probe at a time by ``_Scorer.keys``."""
    result = reference_feasible_point(rows)
    if not result.feasible:
        return None
    vertices = result.vertices
    cx = sum(v[0] for v in vertices) / len(vertices)
    cy = sum(v[1] for v in vertices) / len(vertices)
    nudge = 1e-12 * scale
    points = []
    for v in vertices:
        repaired = reference_repair_strict(v, rows, scale=scale)
        if repaired is not None:
            points.append(repaired)
            points.append((repaired[0] + nudge, repaired[1]))
            points.append((max(0.0, repaired[0] - nudge), repaired[1]))
        for t in (1e-6, 0.5):
            points.append((v[0] + t * (cx - v[0]), v[1] + t * (cy - v[1])))
    p, q = zip(*points)
    return min(scorer.keys(p, q), default=None)


def reference_least_feasible(attempt, lo, hi):
    """``attempt`` at the smallest index in [lo, hi] where it returns a key,
    by one bisection, each index attempted at most once."""
    found = {}

    def feasible(i):
        if i not in found:
            found[i] = attempt(i)
        return found[i] is not None

    while lo < hi:
        mid = (lo + hi) // 2
        if feasible(mid):
            hi = mid
        else:
            lo = mid + 1
    return found[lo] if feasible(lo) else None


def reference_interval_solve(workers, budget, utility, kind, mode):
    """``cp_subres`` (kind "picking") or ``cp_res`` (kind "blocking") one
    system and one scan at a time; ``cp_res`` scans every system, so kind
    "blocking" ignores ``mode``."""
    n = len(workers)
    order = _quality_order(workers)
    r = [workers[i].quality for i in order]
    c = [workers[i].cost for i in order]
    scale = _scale(c, budget)
    scorer = _Scorer(workers, utility, budget)
    found = [min(scorer.keys([0.0], [0.0]), default=None)]
    if kind == "blocking":
        found.append(reference_candidate(scorer, reference_rows(r, c, 0, 0, budget, "everyone"), scale))

    def attempt(lo, hi):
        return reference_candidate(scorer, reference_rows(r, c, lo, hi, budget, kind), scale)

    for fixed in range(1, n + 1):
        if kind == "picking":
            hi = n + 1 - fixed
            if mode == "linear":
                found += [attempt(lo, hi) for lo in range(1, hi + 1)]
            else:
                found.append(reference_least_feasible(lambda lo: attempt(lo, hi), 1, hi))
        else:
            found += [attempt(fixed, hi) for hi in range(fixed, n + 1)]
    return scorer.report(min(key for key in found if key is not None))


def solver_pools():
    """The pools of ``TestScorerMatchesMakeReport``, the float-boundary
    pools, and four of 20-30 workers (n = 25, 26, 21, 20): binary
    ``cp_subres`` bisects round by round above 256 systems (n > 22) and
    reads one table below."""
    yield from differential_pools(np.random.default_rng(61), 32, 2, 16)
    yield from boundary_pools()
    yield from differential_pools(np.random.default_rng(63), 4, 20, 30)


class TestRegimeSolversMatchReference:
    def test_reports_match_one_system_at_a_time(self):
        for workers, budget, utility in solver_pools():
            for solver, kind in ((cp_subres, "picking"), (cp_res, "blocking")):
                for mode in ("binary", "linear"):
                    report = solver(workers, budget, utility, mode=mode, diagnostics=False)
                    # cp_res scans every system in both modes
                    want = mode if solver is cp_subres else "linear"
                    assert report == reference_interval_solve(workers, budget, utility, kind, want)

    def test_every_clipped_system_matches_the_reference(self, monkeypatch):
        # every batch the solvers hand to the kernel, each system checked
        # against the one-system reference on its rows less the all-zero ones
        batches = []
        clip = common.clip_systems

        def recording(*arrays):
            batches.append(tuple(np.copy(a) for a in arrays))
            return clip(*arrays)

        monkeypatch.setattr(common, "clip_systems", recording)
        for workers, budget, utility in solver_pools():
            scale = _scale([w.cost for w in workers], budget)
            for solver in (cp_subres, cp_res):
                for mode in ("binary", "linear"):
                    batches.clear()
                    solver(workers, budget, utility, mode=mode, diagnostics=False)
                    for arrays in batches:
                        systems = [
                            [
                                HalfPlane(*row[:3], strict=bool(row[3]))
                                for row in zip(*(a[k].tolist() for a in arrays))
                                if any(row[:3])
                            ]
                            for k in range(len(arrays[0]))
                        ]
                        check_against_reference(systems, arrays=arrays, scales=(scale,))

    def test_infinite_budget_systems_lose_rows(self):
        # at B = inf the budget rows and the picking sentinels are zeroed,
        # so one batch holds systems of 2 to 4 rows
        rng = np.random.default_rng(64)
        curve, lo, hi = responsive_curve(rng)
        workers = curve_profile(curve, rng, 9, lo, hi)
        order = _quality_order(workers)
        r = [workers[i].quality for i in order]
        c = [workers[i].cost for i in order]
        pairs = [(lo, hi) for lo in range(1, 10) for hi in range(lo, 10)]
        for build, kind in ((_picking_rows, "picking"), (_blocking_rows, "blocking")):
            arrays = build(r, c, pairs, math.inf)
            systems = [reference_rows(r, c, lo, hi, math.inf, kind) for lo, hi in pairs]
            assert {len(rows) for rows in systems} == {2, 3, 4}
            check_against_reference(systems, arrays=arrays, scales=(_scale(c, math.inf),))


class TestLockstepBisection:
    def test_each_scan_tries_what_it_tries_alone(self):
        # feasibility tables, monotone or not: the lockstep search ends each
        # scan where its own bisection ends, tries the same systems, none
        # twice, in at most ceil(log2(longest scan)) + 1 calls
        rng = np.random.default_rng(81)
        for trial in range(300):
            lengths = rng.integers(1, 48, size=int(rng.integers(1, 12))).tolist()
            if trial % 2:
                tables = [np.arange(n) >= rng.integers(0, n + 1) for n in lengths]
            else:
                tables = [rng.random(n) < rng.uniform(0.1, 0.9) for n in lengths]
            scans = [[(s, i) for i in range(n)] for s, n in enumerate(lengths)]
            calls = []

            def feasible(pairs):
                calls.append(list(pairs))
                return np.array([tables[s][i] for s, i in pairs], dtype=bool)

            chosen = _least_feasible(feasible, scans)
            want, tried = [], set()
            for s, table in enumerate(tables):

                def attempt(i, s=s, table=table):
                    tried.add((s, i))
                    return (s, i) if table[i] else None

                key = reference_least_feasible(attempt, 0, len(table) - 1)
                if key is not None:
                    want.append(key)
            assert chosen == want
            asked = [pair for call in calls for pair in call]
            assert len(asked) == len(set(asked)) and set(asked) == tried
            assert len(calls) <= math.ceil(math.log2(max(lengths))) + 1


def binary_miss_pool():
    """Responsive draw #21 (0-based; n = 36) of the stream rng(2026) that
    first draws 40 unresponsive and 40 subresponsive pools: curve, then
    n ~ U{20..40}, sorted costs, budget U(0.05, 1.3) times their sum."""
    rng = np.random.default_rng(2026)
    for maker in (unresponsive_curve, subresponsive_curve, responsive_curve):
        for index in range(40):
            curve, lo, hi = maker(rng)
            n = int(rng.integers(20, 41))
            costs = np.sort(rng.uniform(lo, hi, size=n))
            fraction = rng.uniform(0.05, 1.3)
            if maker is responsive_curve and index == 21:
                workers = [WorkerProfile(float(curve(c)), float(c), i + 1) for i, c in enumerate(costs)]
                return workers, float(fraction * costs.sum())
    raise AssertionError("unreachable")


class TestBinaryMissPool:
    """The responsive pool on which binary ``cp_res`` once missed: with
    lo = 12 only hi = 34 is feasible, and its bisection never tried it."""

    def test_linear_mode_reaches_the_oracle(self):
        workers, budget = binary_miss_pool()
        assert len(workers) == 36 and budget == pytest.approx(12.70, abs=5e-3)
        utility = make_typo(25, 1)
        oracle = cp_exact_oracle(workers, budget, utility)
        assert oracle.utility_value == pytest.approx(4.400, abs=5e-4)
        linear = cp_res(workers, budget, utility, mode="linear", diagnostics=False)
        assert linear.utility_value == oracle.utility_value

    def test_binary_mode_reaches_the_oracle(self):
        workers, budget = binary_miss_pool()
        utility = make_typo(25, 1)
        oracle = cp_exact_oracle(workers, budget, utility)
        binary = cp_res(workers, budget, utility, diagnostics=False)
        assert binary.utility_value == oracle.utility_value
