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
# The subset enumeration runs in chunks of 2^_LOW_BITS keys.  At n = 24 a
# chunk's kernel temporaries stay near 3 MB (2^18 keys would hold about 50 MB
# and ran slower), and its 1024 chunks keep the per-chunk Python cost small.
_LOW_BITS = 14
_DP_GRID = 10_000


@dataclass(frozen=True)
class GkpInstance:
    workers: tuple[WorkerProfile, ...]
    budget: float
    utility: UtilityFunction

    def __post_init__(self) -> None:
        if not self.budget >= 0:
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


def _subset_costs(costs: np.ndarray) -> np.ndarray:
    """Cost of every subset of ``costs``: entry k sums the costs whose bit
    is set in k, bit b standing for ``costs[-1 - b]``, built by doubling."""
    totals = np.zeros(1)
    for c in costs[::-1]:
        totals = np.concatenate([totals, totals + c])
    return totals


def _key_masks(keys: np.ndarray, n: int) -> np.ndarray:
    """0/1 rows of the n-bit keys, column j from bit n-1-j."""
    bits = np.unpackbits(keys.astype(">u4").view(np.uint8).reshape(-1, 4), axis=1)
    return bits[:, 32 - n :].astype(bool)


def _exact_by_enumeration(instance: GkpInstance) -> Selection:
    workers = instance.workers
    n = len(workers)
    budget = instance.budget
    costs = instance.costs

    if n == 0:
        return _make_selection(instance, [])

    # bit n-1-j of the enumeration key holds x_j, so ascending keys scan
    # selections in lexicographic order and the first max is the tie-winner.
    # A key splits into its high bits h (the first workers) and its low
    # bits (the last _LOW_BITS), and a chunk is one h: its totals are one
    # table of low-bit costs plus the cost of h.
    low_bits = min(n, _LOW_BITS)
    low_costs = _subset_costs(costs[n - low_bits :])
    high_costs = _subset_costs(costs[: n - low_bits])
    # Why the margin holds.  A total is a sum of at most n costs, added one
    # by one in some order.  Costs are >= 0, so every partial sum is at most
    # the exact total T, and with u = 2^-53 the float total is within
    # n u T <= 3e-15 T of T (n <= 24).  That is far inside the margin
    # 1e-9 max(1, B): a set within the budget B never reads above B + margin,
    # and a total read at most B - margin is truly within B.  Rows in
    # between are rechecked with fsum.
    margin = 1e-9 * max(1.0, budget)
    best_value = -np.inf
    best_key: int | None = None

    for h, high_cost in enumerate(high_costs):
        totals = low_costs + high_cost
        feasible = totals <= budget - margin
        borderline = np.flatnonzero(~feasible & (totals <= budget + margin))
        base = h << low_bits
        for t, row in zip(borderline, _key_masks(base + borderline, n)):
            if math.fsum(costs[row]) <= budget:
                feasible[t] = True
        keys = base + np.flatnonzero(feasible)
        if not keys.size:
            continue
        values = instance.kernel(_key_masks(keys, n))
        t = int(np.argmax(values))
        if values[t] > best_value:
            best_value = float(values[t])
            best_key = int(keys[t])

    if best_key is None:
        raise InvariantBreach("the empty selection is always feasible")
    x = [bool((best_key >> (n - 1 - j)) & 1) for j in range(n)]
    return _make_selection(instance, x)


def _knapsack_tables(
    weights: Sequence[int], values: np.ndarray, capacity: int
) -> list[np.ndarray]:
    """0-1 knapsack over integer weights: ``tables[i][k]`` is the greatest
    value that items ``i..n-1`` reach within weight ``k``."""
    n = len(weights)
    if (n + 1) * (capacity + 1) > 200_000_000:
        raise SizeError("cost grid too large for the knapsack DP")

    tables = [np.zeros(capacity + 1)]
    for i in range(n - 1, -1, -1):
        prev = tables[0]
        cur = prev.copy()
        w = weights[i]
        if w <= capacity:
            if w == 0:
                cur = prev + values[i] if values[i] > 0 else cur
            else:
                np.maximum(cur[w:], prev[:-w] + values[i], out=cur[w:])
        tables.insert(0, cur)
    return tables


def _knapsack_take(
    tables: list[np.ndarray], weights: Sequence[int], values: np.ndarray
) -> list[bool]:
    """The lexicographically smallest take vector of greatest value."""
    n = len(weights)
    x = [False] * n
    cap = len(tables[0]) - 1
    for i in range(n):
        skip = tables[i + 1][cap]
        take = -np.inf
        if weights[i] <= cap:
            take = values[i] + tables[i + 1][cap - weights[i]]
        if take > skip:  # prefer skipping on ties: lexicographically smallest x
            x[i] = True
            cap -= weights[i]
    return x


_BRANCH_NODE_LIMIT = 2_000_000


def _branch_and_bound(
    instance: GkpInstance, tables: list[np.ndarray], incumbent: float
) -> list[bool]:
    """Depth-first search over true costs, skip before take, bounded by
    the rounded-down DP tables.

    ``tables[i][k]`` bounds what items ``i..`` add within a true residual
    budget b whenever k >= b * grid, since the rounded-down weights of a
    truly feasible set sum to at most that.  Nodes whose bound falls short
    of the best value found (or of ``incumbent``, a truly feasible value)
    are cut, and the first best leaf in lexicographic order is kept.
    """
    workers = instance.workers
    n = len(workers)
    budget = instance.budget
    costs = [w.cost for w in workers]
    values = [w.quality for w in workers]
    capacity = len(tables[0]) - 1
    margin = 1e-9 * max(1.0, budget)
    slack = 1e-9 * max(1.0, incumbent)
    # incremental sums differ from one order to the next by a few ulps, so
    # values this close are ties, and the earlier set keeps its place
    tie = 1e-12 * max(1.0, incumbent)
    best_value = -math.inf
    best_x: list[bool] = []
    x = [False] * n
    nodes = 0

    def bound_index(spend: float) -> int:
        # rounded up past the float error of spend, which only loosens the bound
        k = math.floor((budget - spend + margin) * _DP_GRID * (1.0 + 1e-12)) + 1
        return min(max(k, 0), capacity)

    # skip is pushed last and so popped first: leaves come in lexicographic order
    stack = [(0, 0.0, 0.0, False)]
    while stack:
        i, spend, value, took = stack.pop()
        if i:
            x[i - 1] = took
        nodes += 1
        if nodes > _BRANCH_NODE_LIMIT:
            raise SizeError("the knapsack branch and bound exceeded its node limit")
        if i == n:
            if value > best_value + tie and (
                spend <= budget - margin
                or math.fsum(c for c, xi in zip(costs, x) if xi) <= budget
            ):
                best_value, best_x = value, x.copy()
            continue
        if value + tables[i][bound_index(spend)] + slack < max(best_value, incumbent):
            continue
        if spend + costs[i] <= budget + margin:
            stack.append((i + 1, spend + costs[i], value + values[i], True))
        stack.append((i + 1, spend, value, False))
    return best_x


def _repaired_value(instance: GkpInstance, x: Sequence[bool]) -> float:
    """The value of a truly feasible set near ``x``: drop its least valuable
    workers until it fits, then add the others that still fit."""
    workers = instance.workers
    taken = sorted((i for i, xi in enumerate(x) if xi), key=lambda i: workers[i].quality)
    rest = sorted((i for i, xi in enumerate(x) if not xi), key=lambda i: -workers[i].quality)
    chosen = set(taken)

    def spent() -> float:
        return math.fsum(workers[i].cost for i in chosen)

    for i in taken:
        if spent() <= instance.budget:
            break
        chosen.discard(i)
    for i in rest:
        chosen.add(i)
        if spent() > instance.budget:
            chosen.discard(i)
    return math.fsum(workers[i].quality for i in chosen)


def _exact_by_dp(instance: GkpInstance) -> Selection:
    """Additive-utility knapsack DP on a 1e-4 cost grid, made exact.

    Costs rounded down keep every truly feasible set DP-feasible, so the
    DP's optimum bounds the true one from above, and is the true optimum
    when it is itself feasible (rechecked with fsum).  Otherwise a branch
    and bound over the true costs, cut by the same DP tables, decides.
    """
    workers = instance.workers
    values = instance.qualities
    # the factors absorb the rounding of the products, so that the floors
    # never exceed the exact scaled costs nor undercut the exact budget
    weights = [math.floor(w.cost * _DP_GRID * (1.0 - 1e-12)) for w in workers]
    capacity = min(math.floor(instance.budget * _DP_GRID * (1.0 + 1e-12)), sum(weights))
    tables = _knapsack_tables(weights, values, capacity)
    x = _knapsack_take(tables, weights, values)
    if math.fsum(w.cost for w, xi in zip(workers, x) if xi) <= instance.budget:
        return _make_selection(instance, x)
    incumbent = _repaired_value(instance, x)
    return _make_selection(instance, _branch_and_bound(instance, tables, incumbent))


def solve_gkp_exact(instance: GkpInstance) -> Selection:
    """Exact optimum over worker subsets.

    Subset enumeration up to 24 workers, in chunks of 2^14 subsets that
    share their first workers.  A chunk's cost totals are one table of the
    subset costs of the last 14 workers plus the cost of its first ones, and
    only the rows within budget become 0/1 masks for the utility kernel.
    Rows within 1e-9 max(1, budget) of the budget are rechecked with fsum.
    For additive utilities beyond 24 workers, a knapsack DP on costs scaled
    by 1e4 and rounded down, whose tables bound a branch and bound over the
    true costs whenever the DP's own set does not fit the budget
    (``SizeError`` past its node limit).
    Ties resolve to the lexicographically smallest selection vector.
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
