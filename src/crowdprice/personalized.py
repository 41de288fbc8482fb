"""Personalized pricing via the 0-1 knapsack reduction.

Choosing which workers to recruit under per-worker prices is equivalent to
a generalized knapsack: pick a subset with cost sum within budget to
maximize the utility of their qualities.  A recruited worker can always be
paid exactly her cost as base (zero bonus), so the pricing itself is a
bookkeeping step once the subset is chosen.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import InvariantBreach, SizeError
from .utilities import MaskKernel, UtilityFunction
from .workers import PersonalizedPolicy, WorkerProfile, bang_per_buck, sort_by_bang_per_buck

__all__ = [
    "GkpInstance",
    "Selection",
    "RelaxedSolution",
    "modified_greedy",
    "solve_gkp_exact",
    "solve_gkp_relaxed",
    "policy_from_selection",
    "solve_opp_no_bonus",
]

ENUMERATION_LIMIT = 24
_DP_GRID = 10_000


@dataclass(frozen=True)
class GkpInstance:
    workers: tuple[WorkerProfile, ...]
    budget: float
    utility: UtilityFunction

    def __post_init__(self) -> None:
        if self.budget < 0:
            raise ValueError("budget must be >= 0")
        object.__setattr__(self, "workers", tuple(self.workers))

    @property
    def qualities(self) -> np.ndarray:
        return np.array([w.quality for w in self.workers])

    @property
    def costs(self) -> np.ndarray:
        return np.array([w.cost for w in self.workers])

    @cached_property
    def kernel(self) -> MaskKernel:
        """The utility bound to this worker list: 0/1 mask rows -> values."""
        return self.utility.bind(self.workers)


@dataclass(frozen=True)
class Selection:
    """A 0/1 recruitment vector with its exact cost and utility."""

    x: tuple[bool, ...]
    utility_value: float
    spent: float

    @property
    def chosen(self) -> tuple[int, ...]:
        return tuple(i for i, xi in enumerate(self.x) if xi)


@dataclass(frozen=True)
class RelaxedSolution:
    """Fractional recruitment: all-in prefix, one split worker, zeros after."""

    z: tuple[float, ...]
    value: float
    split_index: int | None


def _make_selection(instance: GkpInstance, x: Sequence[bool]) -> Selection:
    x = tuple(bool(v) for v in x)
    spent = math.fsum(w.cost for w, xi in zip(instance.workers, x) if xi)
    value = float(instance.kernel(np.array(x, dtype=bool).reshape(1, -1))[0])
    return Selection(x=x, utility_value=value, spent=spent)


def modified_greedy(
    instance: GkpInstance,
    base_choices: Sequence[float] | None = None,
) -> tuple[Selection, PersonalizedPolicy]:
    """Greedy-by-bang-per-buck versus the best affordable singleton.

    Takes workers in descending quality/cost order while the cumulative
    cost stays within budget, stops at the first worker that does not fit,
    then returns whichever of that prefix and the best single affordable
    worker has higher utility.  Workers whose cost alone exceeds the
    budget can appear in no feasible selection and are dropped up front.
    Guarantees half the optimal utility for subadditive Schur-convex
    utilities.
    """
    if not (instance.utility.flags.subadditive and instance.utility.flags.schur_convex):
        warnings.warn(
            f"utility {instance.utility.name!r} is not flagged subadditive + Schur-convex; "
            "the 1/2-approximation guarantee does not apply",
            stacklevel=2,
        )
    workers = instance.workers
    n = len(workers)
    budget = instance.budget

    order = sort_by_bang_per_buck(workers)
    affordable = [i for i in order if workers[i].cost <= budget]

    x_greedy = [False] * n
    taken_costs: list[float] = []
    for i in affordable:
        if math.fsum(taken_costs + [workers[i].cost]) <= budget:
            x_greedy[i] = True
            taken_costs.append(workers[i].cost)
        else:
            break
    greedy_sel = _make_selection(instance, x_greedy)

    best = greedy_sel
    if affordable:
        singletons = np.zeros((len(affordable), n), dtype=bool)
        singletons[np.arange(len(affordable)), affordable] = True
        singleton_values = instance.kernel(singletons)
        # smallest worker index wins ties, for determinism
        by_index = sorted(range(len(affordable)), key=lambda t: affordable[t])
        best_t = max(by_index, key=lambda t: (singleton_values[t], -affordable[t]))
        x_single = [False] * n
        x_single[affordable[best_t]] = True
        single_sel = _make_selection(instance, x_single)
        # the greedy prefix is kept only when strictly better, as in the
        # original formulation
        best = greedy_sel if greedy_sel.utility_value > single_sel.utility_value else single_sel

    policy = policy_from_selection(workers, best.x, base_choices)
    return best, policy


def policy_from_selection(
    workers: Sequence[WorkerProfile],
    x: Sequence[bool],
    base_choices: Sequence[float] | None = None,
) -> PersonalizedPolicy:
    """Per-worker prices that make exactly the selected workers accept.

    Selected worker i gets base p_i and bonus (c_i - p_i) / r_i, so her
    expected payment is exactly c_i; everyone else gets (0, 0).  The
    default p_i = c_i is the zero-bonus form.  p_i < c_i needs r_i > 0.
    """
    pairs = []
    for i, (w, xi) in enumerate(zip(workers, x)):
        if not xi:
            pairs.append((0.0, 0.0))
            continue
        p = w.cost if base_choices is None else float(base_choices[i])
        if not (0.0 <= p <= w.cost):
            raise ValueError(f"base choice for worker {w.id!r} must be in [0, cost], got {p}")
        if p == w.cost:
            pairs.append((p, 0.0))
        elif w.quality == 0.0:
            raise ValueError(
                f"worker {w.id!r} has quality 0; only base = cost can recruit her"
            )
        else:
            pairs.append((p, (w.cost - p) / w.quality))
    return PersonalizedPolicy(pairs=tuple(pairs))


def _exact_by_enumeration(instance: GkpInstance) -> Selection:
    workers = instance.workers
    n = len(workers)
    budget = instance.budget
    costs = instance.costs

    if n == 0:
        return _make_selection(instance, [])

    # bit n-1-j of the enumeration key holds x_j, so ascending keys scan
    # selections in lexicographic order and the first max is the tie-winner
    shifts = np.array([n - 1 - j for j in range(n)], dtype=np.uint32)
    margin = 1e-9 * max(1.0, budget)
    best_value = -np.inf
    best_key: int | None = None

    chunk = 1 << 18
    for start in range(0, 1 << n, chunk):
        keys = np.arange(start, min(start + chunk, 1 << n), dtype=np.uint32)
        x_rows = ((keys[:, None] >> shifts[None, :]) & 1).astype(bool)
        # a plain masked sum, not a BLAS matvec: rounding only matters
        # inside the margin, where rows are rechecked with fsum below
        totals = np.where(x_rows, costs, 0.0).sum(axis=1)
        feasible = totals <= budget - margin
        borderline = np.flatnonzero(~feasible & (totals <= budget + margin))
        for t in borderline:
            row = x_rows[t]
            if math.fsum(costs[row]) <= budget:
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
    return _make_selection(instance, x)


def _exact_by_dp(instance: GkpInstance) -> Selection:
    """Additive-utility knapsack DP on a scaled-integer cost grid."""
    workers = instance.workers
    n = len(workers)
    weights = [round(w.cost * _DP_GRID) for w in workers]
    capacity = int(math.floor(instance.budget * _DP_GRID + 1e-9))
    capacity = min(capacity, sum(weights))
    if (n + 1) * (capacity + 1) > 200_000_000:
        raise SizeError("cost grid too large for the knapsack DP")

    values = instance.qualities
    suffix = [np.zeros(capacity + 1)]
    for i in range(n - 1, -1, -1):
        prev = suffix[0]
        cur = prev.copy()
        w = weights[i]
        if w <= capacity:
            if w == 0:
                cur = prev + values[i] if values[i] > 0 else cur
            else:
                np.maximum(cur[w:], prev[:-w] + values[i], out=cur[w:])
        suffix.insert(0, cur)

    x = [False] * n
    cap = capacity
    for i in range(n):
        skip = suffix[i + 1][cap]
        take = -np.inf
        if weights[i] <= cap:
            take = values[i] + suffix[i + 1][cap - weights[i]]
        if take > skip:  # prefer skipping on ties: lexicographically smallest x
            x[i] = True
            cap -= weights[i]

    if math.fsum(w.cost for w, xi in zip(workers, x) if xi) > instance.budget:
        # grid rounding produced an unscaled-infeasible set
        if n <= ENUMERATION_LIMIT:
            return _exact_by_enumeration(instance)
        raise SizeError("DP rounding changed feasibility and instance is too large to enumerate")
    return _make_selection(instance, x)


def solve_gkp_exact(instance: GkpInstance) -> Selection:
    """Exact optimum over worker subsets.

    Subset enumeration up to 24 workers; for additive utilities beyond
    that, a knapsack DP on costs scaled by 1e4 (rounded half-even) with an
    unscaled feasibility recheck.  Ties resolve to the lexicographically
    smallest selection vector.
    """
    n = len(instance.workers)
    if n <= ENUMERATION_LIMIT:
        return _exact_by_enumeration(instance)
    if instance.utility.flags.additive:
        return _exact_by_dp(instance)
    raise SizeError(
        f"n={n} exceeds the enumeration limit ({ENUMERATION_LIMIT}) and the utility is not additive"
    )


def solve_gkp_relaxed(instance: GkpInstance) -> RelaxedSolution:
    """Closed-form optimum of the fractional relaxation.

    Requires workers sorted by descending bang-per-buck.  Fills workers
    whole until the budget breaks, puts the leftover fraction on the
    breaking worker, and zeros the rest; if the budget covers everyone the
    solution is all ones.
    """
    workers = instance.workers
    etas = [bang_per_buck(w) for w in workers]
    if any(etas[i] < etas[i + 1] for i in range(len(etas) - 1)):
        raise ValueError("workers must be sorted by descending bang-per-buck")

    budget = instance.budget
    z = [0.0] * len(workers)
    prefix: list[float] = []
    split: int | None = None
    for i, w in enumerate(workers):
        if math.fsum(prefix + [w.cost]) > budget:
            split = i
            break
        prefix.append(w.cost)
        z[i] = 1.0
    if split is not None:
        z[split] = (budget - math.fsum(prefix)) / workers[split].cost
    effective = [w.quality * zi for w, zi in zip(workers, z)]
    return RelaxedSolution(z=tuple(z), value=instance.utility.evaluate(effective), split_index=split)


def solve_opp_no_bonus(instance: GkpInstance, mode: str = "exact") -> Selection:
    """Optimal personalized pricing restricted to zero bonus.

    Paying each selected worker her cost as base reproduces any selection,
    so the no-bonus optimum coincides with the unrestricted one; this just
    delegates to the chosen solver.
    """
    if mode == "exact":
        return solve_gkp_exact(instance)
    if mode == "greedy":
        return modified_greedy(instance)[0]
    raise ValueError(f"unknown mode {mode!r} (expected 'exact' or 'greedy')")
