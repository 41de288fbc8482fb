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
from crowdprice.common import (
    ORACLE_LIMIT,
    StructureKind,
    _blocking_rows,
    _picking_rows,
    _Scorer,
    make_report,
)
from crowdprice.errors import SizeError
from crowdprice.workers import empirical_regime


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
        r, c = [0.9, 0.6, 0.3], [0.8, 0.5, 0.2]
        finite = _picking_rows(r, c, 1, 3, 5.0) + _blocking_rows(r, c, 2, 2, 5.0)
        at_inf = _picking_rows(r, c, 1, 3, math.inf) + _blocking_rows(r, c, 2, 2, math.inf)
        assert at_inf == [row for row in finite if row.rhs != 5.0]


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
        # cp_res is not compared: its binary mode is known to miss on some
        # responsive pools, and gets its test with the fix
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
        # binary cp_res is left out: it misses on some responsive pools
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
