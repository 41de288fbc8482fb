import itertools
import math
import tracemalloc

import numpy as np
import pytest

from conftest import random_gkp_instances
from crowdprice import (
    GkpInstance,
    WorkerProfile,
    decide,
    make_additive,
    make_binary_labeling,
    make_typo,
    modified_greedy,
    policy_from_selection,
    solve_gkp_exact,
    solve_gkp_relaxed,
    solve_opp_no_bonus,
    sort_by_bang_per_buck,
)
from crowdprice.errors import InvariantBreach, SizeError
from crowdprice import personalized
from crowdprice.personalized import _exact_by_dp


WORKERS3 = (
    WorkerProfile(0.9, 0.3, 1),
    WorkerProfile(0.5, 0.25, 2),
    WorkerProfile(0.8, 0.5, 3),
)


def rowwise_enumeration(instance):
    """Reference for the table-driven enumeration: every key's 0/1 row is
    built, and its cost total is a masked row sum over all n workers."""
    workers = instance.workers
    n = len(workers)
    budget = instance.budget
    costs = instance.costs
    if n == 0:
        return personalized._make_selection(instance, [])
    shifts = np.array([n - 1 - j for j in range(n)], dtype=np.uint32)
    margin = 1e-9 * max(1.0, budget)
    best_value = -np.inf
    best_key = None
    chunk = 1 << 18
    for start in range(0, 1 << n, chunk):
        keys = np.arange(start, min(start + chunk, 1 << n), dtype=np.uint32)
        x_rows = ((keys[:, None] >> shifts[None, :]) & 1).astype(bool)
        totals = np.where(x_rows, costs, 0.0).sum(axis=1)
        feasible = totals <= budget - margin
        borderline = np.flatnonzero(~feasible & (totals <= budget + margin))
        for t in borderline:
            if math.fsum(costs[x_rows[t]]) <= budget:
                feasible[t] = True
        if not feasible.any():
            continue
        values = instance.kernel(x_rows[feasible])
        t = int(np.argmax(values))
        if values[t] > best_value:
            best_value = float(values[t])
            best_key = int(keys[feasible][t])
    if best_key is None:
        raise InvariantBreach("the empty selection is always feasible")
    x = [bool((best_key >> (n - 1 - j)) & 1) for j in range(n)]
    return personalized._make_selection(instance, x)


def brute_force_value(workers, budget, utility):
    """Independent oracle: scan every subset."""
    best = 0.0
    for mask in itertools.product([0, 1], repeat=len(workers)):
        cost = math.fsum(w.cost for w, x in zip(workers, mask) if x)
        if cost <= budget:
            value = utility.evaluate([w.quality * x for w, x in zip(workers, mask)])
            best = max(best, value)
    return best


class TestModifiedGreedy:
    def test_worked_example(self):
        inst = GkpInstance(workers=WORKERS3, budget=0.6, utility=make_additive())
        # brute force over all 8 subsets gives 1.4 at {1, 2}
        assert brute_force_value(WORKERS3, 0.6, make_additive()) == pytest.approx(1.4)
        selection, policy = modified_greedy(inst)
        assert selection.x == (True, True, False)
        assert selection.utility_value == pytest.approx(1.4)
        assert selection.spent == pytest.approx(0.55)
        assert policy.pairs == ((0.3, 0.0), (0.25, 0.0), (0.0, 0.0))

    def test_zero_budget(self):
        inst = GkpInstance(workers=WORKERS3, budget=0.0, utility=make_additive())
        selection, _ = modified_greedy(inst)
        assert selection.x == (False, False, False)
        assert selection.utility_value == 0.0

    def test_slack_budget_takes_everyone(self):
        inst = GkpInstance(workers=WORKERS3, budget=10.0, utility=make_additive())
        selection, _ = modified_greedy(inst)
        assert all(selection.x)

    def test_warns_without_required_flags(self):
        inst = GkpInstance(workers=WORKERS3, budget=0.6, utility=make_typo(25, 2))
        with pytest.warns(UserWarning, match="subadditive"):
            modified_greedy(inst)

    def test_half_ratio_on_random_instances(self):
        for inst in random_gkp_instances(50, seed=4, max_n=10):
            exact = solve_gkp_exact(inst)
            greedy, _ = modified_greedy(inst)
            assert greedy.utility_value >= 0.5 * exact.utility_value

    def test_unaffordable_worker_does_not_stall_the_prefix(self):
        # the top bang-per-buck worker alone exceeds the budget; greedy
        # must still fill up with the affordable ones
        workers = (
            WorkerProfile(1.0, 0.9, 1),  # eta 1.11, cost > B
            WorkerProfile(0.5, 0.5, 2),
            WorkerProfile(0.4, 0.4, 3),
        )
        inst = GkpInstance(workers=workers, budget=0.8, utility=make_additive())
        selection, _ = modified_greedy(inst)
        assert selection.utility_value == pytest.approx(0.5)
        assert selection.spent <= 0.8


class TestExactSolver:
    def test_worked_example(self):
        inst = GkpInstance(workers=WORKERS3, budget=0.6, utility=make_additive())
        sel = solve_gkp_exact(inst)
        assert sel.utility_value == pytest.approx(1.4)
        assert sel.x == (True, True, False)

    def test_zero_budget(self):
        inst = GkpInstance(workers=WORKERS3, budget=0.0, utility=make_additive())
        assert solve_gkp_exact(inst).x == (False, False, False)

    def test_worst_case_profile_value(self):
        # 8x(0.1, 1), 4x(1, 2), 4x(2, 2) with budget 10: the optimum takes
        # the four experts plus one mid worker (recomputed by enumeration;
        # the grouped arithmetic sketch elsewhere is inconsistent)
        workers = tuple(
            WorkerProfile(q, c, i)
            for i, (q, c) in enumerate(
                [(0.1, 1.0)] * 8 + [(1.0, 2.0)] * 4 + [(2.0, 2.0)] * 4, start=1
            )
        )
        inst = GkpInstance(workers=workers, budget=10.0, utility=make_additive())
        assert solve_gkp_exact(inst).utility_value == pytest.approx(9.0)

    def test_matches_brute_force(self):
        utility = make_typo(25, 1)
        rng = np.random.default_rng(9)
        for _ in range(20):
            n = int(rng.integers(1, 9))
            workers = tuple(
                WorkerProfile(float(rng.uniform(0, 1)), float(rng.uniform(0.01, 1)), i)
                for i in range(n)
            )
            budget = float(rng.uniform(0, 1) * sum(w.cost for w in workers))
            inst = GkpInstance(workers=workers, budget=budget, utility=utility)
            assert solve_gkp_exact(inst).utility_value == pytest.approx(
                brute_force_value(workers, budget, utility), abs=1e-12
            )

    def test_tie_breaks_lexicographically(self):
        twins = (WorkerProfile(0.5, 0.2, 1), WorkerProfile(0.5, 0.2, 2))
        inst = GkpInstance(workers=twins, budget=0.2, utility=make_additive())
        # both singletons reach 0.5; (False, True) < (True, False)
        assert solve_gkp_exact(inst).x == (False, True)

    def test_budget_is_exact_not_tolerant(self):
        workers = (WorkerProfile(1.0, 0.1, 1),) * 3
        inst = GkpInstance(workers=workers, budget=0.3, utility=make_additive())
        sel = solve_gkp_exact(inst)
        # 0.1 * 3 sums to 0.30000000000000004 in float; fsum respects that
        assert sel.spent <= 0.3

    def test_size_guard_for_general_utility(self):
        workers = tuple(WorkerProfile(0.5, 0.5, i) for i in range(25))
        inst = GkpInstance(workers=workers, budget=5.0, utility=make_typo(25, 1))
        with pytest.raises(SizeError):
            solve_gkp_exact(inst)

    def test_dp_path_matches_enumeration(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            n = int(rng.integers(3, 12))
            workers = tuple(
                WorkerProfile(float(rng.uniform(0, 1)), float(rng.uniform(0.05, 1)), i)
                for i in range(n)
            )
            budget = float(rng.uniform(0.2, 0.9) * sum(w.cost for w in workers))
            inst = GkpInstance(workers=workers, budget=budget, utility=make_additive())
            assert _exact_by_dp(inst).utility_value == pytest.approx(
                solve_gkp_exact(inst).utility_value, abs=1e-9
            )

    def test_dp_grid_rounding_cannot_hide_the_optimum(self):
        # rounded to the nearest unit of the 1e-4 grid, each cheap worker
        # takes 2 units of a capacity of 5, so such a DP keeps only two
        workers = tuple(WorkerProfile(0.5, 0.00017, i) for i in range(3)) + tuple(
            WorkerProfile(0.1, 5.0, i) for i in range(3, 25)
        )
        inst = GkpInstance(workers=workers, budget=0.00051, utility=make_additive())
        sel = solve_gkp_exact(inst)
        assert sel.utility_value == pytest.approx(1.5, abs=1e-12)
        assert sel.chosen == (0, 1, 2)

    @staticmethod
    def _rounded_down_take(inst):
        weights = [math.floor(w.cost * 10_000 * (1.0 - 1e-12)) for w in inst.workers]
        capacity = min(math.floor(inst.budget * 10_000 * (1.0 + 1e-12)), sum(weights))
        tables = personalized._knapsack_tables(weights, inst.qualities, capacity)
        return personalized._knapsack_take(tables, weights, inst.qualities)

    def test_branch_and_bound_answers_when_the_rounded_down_set_overspends(self):
        # 1.9 grid units round down to 1, so the DP fits all three cheap
        # workers (3 of 5 units) though only two fit the true budget
        workers = (
            WorkerProfile(0.5, 0.00019, 0),
            WorkerProfile(0.4, 0.00019, 1),
            WorkerProfile(0.3, 0.00019, 2),
        ) + tuple(WorkerProfile(0.1, 5.0, i) for i in range(3, 25))
        inst = GkpInstance(workers=workers, budget=0.0005, utility=make_additive())
        assert self._rounded_down_take(inst)[:3] == [True, True, True]
        sel = solve_gkp_exact(inst)
        assert sel.chosen == (0, 1)
        assert sel.utility_value == pytest.approx(0.9, abs=1e-12)

    def test_branch_and_bound_matches_enumeration(self, monkeypatch):
        answered = []
        search = personalized._branch_and_bound

        def spy(*args):
            answered.append(True)
            return search(*args)

        monkeypatch.setattr(personalized, "_branch_and_bound", spy)
        rng = np.random.default_rng(23)
        for k in range(40):
            n = int(rng.integers(3, 13))
            # costs of a few grid units, so rounding down often overspends;
            # grid qualities make float-noise ties common
            costs = rng.uniform(1e-4, 6e-4, n)
            qualities = rng.choice([0.1, 0.2, 0.3, 0.5], n) if k % 2 else rng.uniform(0, 1, n)
            workers = tuple(
                WorkerProfile(float(qualities[i]), float(costs[i]), i) for i in range(n)
            )
            budget = float(rng.uniform(0.2, 0.9) * costs.sum())
            inst = GkpInstance(workers=workers, budget=budget, utility=make_additive())
            sel = _exact_by_dp(inst)
            assert sel.spent <= budget
            assert sel.x == solve_gkp_exact(inst).x
        assert len(answered) >= 20

    def test_branch_and_bound_node_limit_refuses(self, monkeypatch):
        monkeypatch.setattr(personalized, "_BRANCH_NODE_LIMIT", 10)
        workers = tuple(WorkerProfile(0.1 * (i % 5 + 1), 0.00019, i) for i in range(30))
        inst = GkpInstance(workers=workers, budget=0.0005, utility=make_additive())
        with pytest.raises(SizeError):
            _exact_by_dp(inst)


def enumeration_workers(rng, n, kind):
    """Uniform draws, qualities and costs on a 0.1 grid, or a few distinct
    workers each repeated (exact ties that the lexicographic rule breaks)."""
    if kind == "uniform":
        q, c = rng.uniform(0, 1, n), rng.uniform(0.01, 1, n)
    elif kind == "grid":
        q, c = rng.integers(0, 11, n) / 10, rng.integers(1, 11, n) / 10
    else:
        pick = rng.integers(0, max(1, n // 3), n)
        q, c = rng.uniform(0, 1, n)[pick], (rng.integers(1, 11, n) / 10)[pick]
    return tuple(WorkerProfile(float(q[i]), float(c[i]), i) for i in range(n))


def subset_budgets(rng, workers):
    """A random subset's fsum cost and the floats one ulp either side."""
    b = math.fsum(w.cost for w in workers if rng.random() < 0.5)
    return [v for v in (b, math.nextafter(b, -math.inf), math.nextafter(b, math.inf)) if v >= 0]


def enumeration_cases(n):
    """Instances for the differential test.  All three worker kinds and
    budgets up to n = 18, which crosses the first chunk boundaries (2^14
    keys a chunk) by one to four workers; one instance a size beyond."""
    rng = np.random.default_rng([41, n])
    kinds = ("uniform", "grid", "duplicates")
    utilities = [make_typo(25, 1), make_additive()]
    if n <= 8:  # the binary labeling kernel scores rows one by one
        utilities.append(make_binary_labeling())
    if n <= 14:
        combos = [(kind, utility) for kind in kinds for utility in utilities]
    elif n <= 18:
        combos = [(kind, utilities[i % 2]) for i, kind in enumerate(kinds)]
    else:
        combos = [(kinds[n % 3], utilities[n % 2])]
    for kind, utility in combos:
        workers = enumeration_workers(rng, n, kind)
        budgets = subset_budgets(rng, workers)
        if n > 18:
            budgets = [budgets[n % len(budgets)]]
        for budget in budgets:
            yield GkpInstance(workers=workers, budget=budget, utility=utility)


class TestTableEnumeration:
    @pytest.mark.parametrize("n", range(23))
    def test_matches_rowwise_reference(self, n):
        for inst in enumeration_cases(n):
            sel, ref = solve_gkp_exact(inst), rowwise_enumeration(inst)
            assert (sel.x, sel.utility_value, sel.spent) == (ref.x, ref.utility_value, ref.spent)

    @pytest.mark.parametrize("n", range(13))
    def test_cost_tables_match_fsum(self, n):
        rng = np.random.default_rng([43, n])
        masks = np.array(list(itertools.product([False, True], repeat=n)), dtype=bool)
        for costs in (rng.uniform(0.01, 1, n), rng.integers(0, 11, n) / 10):
            exact = np.array([math.fsum(costs[mask]) for mask in masks])
            for split in range(n + 1):
                high = personalized._subset_costs(costs[:split])
                low = personalized._subset_costs(costs[split:])
                # key h << (n - split) | l is entry (h, l), as the chunks add them
                totals = (low[None, :] + high[:, None]).ravel()
                assert np.all(np.abs(totals - exact) <= n * 2.0**-53 * exact)

    def test_first_of_tied_sets_across_chunks(self):
        # 17 identical workers and room for five: every 5-subset ties, and
        # the least key, the last five workers, wins over later chunks
        workers = tuple(WorkerProfile(0.3, 0.1, i) for i in range(17))
        budget = math.fsum([0.1] * 5)
        for utility in (make_typo(25, 1), make_additive()):
            inst = GkpInstance(workers=workers, budget=budget, utility=utility)
            assert solve_gkp_exact(inst).x == (False,) * 12 + (True,) * 5

    def test_no_full_row_table_is_built(self):
        # the row-wise enumeration held (2^18 x n) temporaries: about 50 MB
        # traced at n = 20, against about 3 MB for the cost tables
        rng = np.random.default_rng(3)
        workers = enumeration_workers(rng, 20, "uniform")
        budget = 0.5 * math.fsum(w.cost for w in workers)
        inst = GkpInstance(workers=workers, budget=budget, utility=make_typo(25, 1))
        inst.kernel  # bind (and invert qualities) before tracing
        tracemalloc.start()
        try:
            solve_gkp_exact(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


class TestRelaxation:
    def test_worked_example(self):
        order = sort_by_bang_per_buck(WORKERS3)
        inst = GkpInstance(
            workers=tuple(WORKERS3[i] for i in order), budget=0.6, utility=make_additive()
        )
        relaxed = solve_gkp_relaxed(inst)
        assert relaxed.z == (1.0, 1.0, pytest.approx(0.1, abs=1e-12))
        assert relaxed.split_index == 2

    def test_zero_budget(self):
        inst = GkpInstance(
            workers=(WorkerProfile(0.5, 0.2, 1),), budget=0.0, utility=make_additive()
        )
        relaxed = solve_gkp_relaxed(inst)
        assert relaxed.z == (0.0,)
        assert relaxed.value == 0.0

    def test_exact_budget_takes_all(self):
        workers = (WorkerProfile(0.9, 0.3, 1), WorkerProfile(0.5, 0.25, 2))
        inst = GkpInstance(workers=workers, budget=0.55, utility=make_additive())
        assert solve_gkp_relaxed(inst).z == (1.0, 1.0)

    def test_requires_sorted_input(self):
        inst = GkpInstance(
            workers=(WorkerProfile(0.1, 1.0, 1), WorkerProfile(0.9, 0.1, 2)),
            budget=1.0,
            utility=make_additive(),
        )
        with pytest.raises(ValueError, match="sorted"):
            solve_gkp_relaxed(inst)

    def test_dominates_exact_for_additive_utility(self):
        # classic fractional knapsack: the closed form is optimal when the
        # objective is the plain sum
        rng = np.random.default_rng(31)
        for _ in range(50):
            n = int(rng.integers(2, 12))
            workers = tuple(
                WorkerProfile(float(rng.uniform(0, 1)), float(rng.uniform(0.01, 1)), i)
                for i in range(n)
            )
            budget = float(rng.uniform(0, 1) * sum(w.cost for w in workers))
            inst = GkpInstance(workers=workers, budget=budget, utility=make_additive())
            order = sort_by_bang_per_buck(workers)
            sorted_inst = GkpInstance(
                workers=tuple(workers[i] for i in order), budget=budget, utility=make_additive()
            )
            assert solve_gkp_relaxed(sorted_inst).value >= solve_gkp_exact(inst).utility_value - 1e-12

    def test_known_counterexample_for_typo_utility(self):
        # The prefix-plus-split closed form is NOT the relaxation optimum
        # for the coverage utility: one expensive expert beats the whole
        # bang-per-buck prefix.  Frozen so the dominance gap stays visible;
        # see the acceptance suite notes on the dominance criterion.
        workers = (
            WorkerProfile(0.1296, 0.0449, 1),
            WorkerProfile(0.2685, 0.1264, 2),
            WorkerProfile(0.7024, 0.5209, 3),
            WorkerProfile(0.9392, 0.8169, 4),
        )
        budget = 0.8301
        utility = make_typo(25, 1)
        inst = GkpInstance(workers=workers, budget=budget, utility=utility)
        relaxed = solve_gkp_relaxed(inst)  # already bang-per-buck sorted
        exact = solve_gkp_exact(inst)
        assert exact.x == (False, False, False, True)
        assert relaxed.value < exact.utility_value  # the documented defect


class TestPolicyReconstruction:
    def test_zero_bonus_form(self):
        workers = (WorkerProfile(0.5, 0.4, 1), WorkerProfile(0.3, 0.2, 2))
        policy = policy_from_selection(workers, [True, False])
        assert policy.pairs == ((0.4, 0.0), (0.0, 0.0))

    def test_pure_bonus_form(self):
        (policy,) = [policy_from_selection((WorkerProfile(0.5, 0.25, 1),), [True], [0.0])]
        assert policy.pairs == ((0.0, 0.5),)
        w = WorkerProfile(0.5, 0.25, 1)
        assert decide(w, policy.pairs[0])
        assert policy.pairs[0][0] + policy.pairs[0][1] * w.quality == pytest.approx(0.25)

    def test_spends_sum_of_selected_costs(self):
        policy = policy_from_selection(WORKERS3, [True, True, False])
        paid = sum(p + q * w.quality for (p, q), w in zip(policy.pairs, WORKERS3))
        assert paid == pytest.approx(0.55)

    def test_zero_quality_needs_full_base(self):
        workers = (WorkerProfile(0.0, 0.3, 1),)
        assert policy_from_selection(workers, [True]).pairs == ((0.3, 0.0),)
        with pytest.raises(ValueError, match="quality 0"):
            policy_from_selection(workers, [True], [0.1])

    def test_base_choice_range_validated(self):
        with pytest.raises(ValueError, match="base choice"):
            policy_from_selection(WORKERS3, [True, False, False], [0.5, 0, 0])

    def test_two_stage_consistency(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            n = int(rng.integers(1, 8))
            workers = tuple(
                WorkerProfile(float(rng.uniform(0.05, 1)), float(rng.uniform(0.05, 1)), i)
                for i in range(n)
            )
            x = [bool(rng.integers(0, 2)) for _ in range(n)]
            policy = policy_from_selection(workers, x)
            assert [decide(w, pq) for w, pq in zip(workers, policy.pairs)] == x


class TestNoBonusEquivalence:
    def test_matches_with_bonus_optimum(self):
        for inst in random_gkp_instances(30, seed=6, max_n=10):
            assert (
                solve_opp_no_bonus(inst, mode="exact").utility_value
                == solve_gkp_exact(inst).utility_value
            )

    def test_worked_example(self):
        inst = GkpInstance(workers=WORKERS3, budget=0.6, utility=make_additive())
        assert solve_opp_no_bonus(inst).utility_value == pytest.approx(1.4)

    def test_mode_validation(self):
        inst = GkpInstance(workers=WORKERS3, budget=0.6, utility=make_additive())
        with pytest.raises(ValueError):
            solve_opp_no_bonus(inst, mode="sideways")
