"""Common pricing: one (base, bonus) pair posted to every worker.

The accepted set under a common policy is controlled only through the
geometry of the n lines p + r_i * q = c_i.  On profiles generated by a
cost-quality curve the accepted set is highly structured (a quality-rank
suffix, interval, or interval complement depending on the regime), which
the regime solvers exploit; an exact oracle over the whole (p, q) plane
serves as the regime-free ground truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .errors import SizeError
from .halfplane import HalfPlane, feasible_point, repair_strict
from .utilities import MaskKernel, UtilityFunction
from .workers import CommonPolicy, Regime, WorkerProfile, warn_if_off_regime

__all__ = [
    "StructureKind",
    "StructureClass",
    "CpSolveReport",
    "accepted_set",
    "classify_structure",
    "structure_of",
    "cp_unres",
    "cp_subres",
    "cp_res",
    "cp_no_bonus",
    "cp_exact_oracle",
    "cp_for_regime",
    "make_report",
]

# the cap on the workers handed to the exact oracle, one 64-bit word per
# accepted set: the largest word boundary at which the oracle costs at most
# twice the three regime solvers on unclassified pools (README, "Exact oracle")
ORACLE_LIMIT = 64
_ORACLE_CHUNK_ROWS = 1 << 12


class StructureKind(Enum):
    PICKING_SUFFIX = "picking-suffix"
    PICKING = "picking"
    BLOCKING = "blocking"
    OTHER = "other"


@dataclass(frozen=True)
class StructureClass:
    """Shape of an accepted set over quality-descending ranks (1-based).

    For picking kinds the bounds delimit the accepted ranks; for blocking
    they delimit the declined ranks.  The empty accepted set is picking
    with no bounds.
    """

    kind: StructureKind
    lower: int | None = None
    upper: int | None = None

    @property
    def is_picking_interval(self) -> bool:
        return self.kind in (StructureKind.PICKING, StructureKind.PICKING_SUFFIX)


@dataclass(frozen=True)
class CpSolveReport:
    policy: CommonPolicy
    accepted: tuple[int, ...]
    spent: float
    utility_value: float
    structure: StructureClass


def accepted_set(
    workers: Sequence[WorkerProfile], policy: CommonPolicy | tuple[float, float]
) -> tuple[tuple[int, ...], float]:
    """Workers accepting the common policy, and the exact payment total."""
    if isinstance(policy, CommonPolicy):
        p, q = policy.base, policy.bonus
    else:
        p, q = policy
    accepted = tuple(i for i, w in enumerate(workers) if p + q * w.quality >= w.cost)
    spent = math.fsum(p + q * workers[i].quality for i in accepted)
    return accepted, spent


def _quality_order(workers: Sequence[WorkerProfile]) -> list[int]:
    return sorted(range(len(workers)), key=lambda i: (-workers[i].quality, workers[i].cost, i))


def classify_structure(
    qualities_desc: Sequence[float], accepted_ranks: Sequence[int]
) -> StructureClass:
    """Classify an accepted rank set (1-based, over descending qualities).

    Equal-quality workers are grouped; a set counts as contiguous only if
    it is a union of complete tie-groups forming a rank interval.  A split
    tie-group is classified Other (it can only arise from unequal costs at
    equal quality).
    """
    n = len(qualities_desc)
    if any(qualities_desc[i] < qualities_desc[i + 1] for i in range(n - 1)):
        raise ValueError("qualities must be sorted in descending order")
    accepted = set(accepted_ranks)
    if not accepted.issubset(range(1, n + 1)):
        raise ValueError("accepted ranks must be within 1..n")
    if not accepted:
        return StructureClass(StructureKind.PICKING)

    groups: list[range] = []
    start = 0
    for i in range(1, n + 1):
        if i == n or qualities_desc[i] != qualities_desc[start]:
            groups.append(range(start + 1, i + 1))
            start = i
    taken: list[bool] = []
    for g in groups:
        inside = sum(1 for rank in g if rank in accepted)
        if 0 < inside < len(g):
            return StructureClass(StructureKind.OTHER)
        taken.append(inside > 0)

    def contiguous(flags: list[int]) -> bool:
        return flags == list(range(flags[0], flags[0] + len(flags)))

    lo, hi = min(accepted), max(accepted)
    accepted_groups = [k for k, t in enumerate(taken) if t]
    if contiguous(accepted_groups):
        if hi == n:
            return StructureClass(StructureKind.PICKING_SUFFIX, lo, n)
        return StructureClass(StructureKind.PICKING, lo, hi)

    declined_groups = [k for k, t in enumerate(taken) if not t]
    if declined_groups and contiguous(declined_groups):
        first = groups[declined_groups[0]][0]
        last = groups[declined_groups[-1]][-1]
        if first > 1 and last < n:
            return StructureClass(StructureKind.BLOCKING, first, last)
    return StructureClass(StructureKind.OTHER)


def structure_of(workers: Sequence[WorkerProfile], accepted: Sequence[int]) -> StructureClass:
    """Classify an accepted set given by original worker indices."""
    order = _quality_order(workers)
    rank_of = {i: rank for rank, i in enumerate(order, start=1)}
    qualities = [workers[i].quality for i in order]
    return classify_structure(qualities, [rank_of[i] for i in accepted])


def make_report(
    workers: Sequence[WorkerProfile],
    utility: UtilityFunction,
    p: float,
    q: float,
    kernel: MaskKernel | None = None,
) -> CpSolveReport:
    """Evaluate a policy honestly: accepted set, spend, utility, structure.

    ``kernel`` is ``utility.bind(workers)``, for callers that report many
    policies on one worker list; it is bound here when not given.
    """
    accepted, spent = accepted_set(workers, (p, q))
    mask = np.zeros((1, len(workers)), dtype=bool)
    mask[0, list(accepted)] = True
    if kernel is None:
        kernel = utility.bind(workers)
    return CpSolveReport(
        policy=CommonPolicy(base=p, bonus=q),
        accepted=accepted,
        spent=spent,
        utility_value=float(kernel(mask)[0]),
        structure=structure_of(workers, accepted),
    )


# the rank make_report's fields imply: (-utility, spend, base, bonus)
Key = tuple[float, float, float, float]


class _Scorer:
    """Ranks common-pricing probes on one worker list and budget by the key
    their ``make_report`` would carry, without building the reports.

    A batch of probes is tested at once with ``accepted_set``'s expression
    p + q r_i >= c_i, spend is the same ``math.fsum`` of the accepted
    payments, and each distinct set is scored once, memoised by its packed
    mask, on a single kernel row as ``make_report`` scores it; so a key
    equals the fields of its report bit for bit.
    """

    def __init__(
        self, workers: Sequence[WorkerProfile], utility: UtilityFunction, budget: float
    ) -> None:
        self.workers = workers
        self.utility = utility
        self.budget = budget
        self.kernel = utility.bind(workers)
        self.r = np.array([w.quality for w in workers], dtype=float)
        self.c = np.array([w.cost for w in workers], dtype=float)
        self.values: dict[bytes, float] = {}

    def keys(self, p: Sequence[float], q: Sequence[float]) -> list[Key]:
        """Keys of the probes (p[t], q[t]) that spend at most the budget."""
        p = np.asarray(p, dtype=float)
        q = np.asarray(q, dtype=float)
        pay = p[:, None] + q[:, None] * self.r
        accept = pay >= self.c
        width = -(-len(self.r) // 8)
        packed = np.packbits(accept, axis=1).tobytes()
        # declined workers add exact zeros, which leave the fsum unchanged
        paid = np.where(accept, pay, 0.0).tolist()
        out = []
        for t, (pt, qt) in enumerate(zip(p.tolist(), q.tolist())):
            spent = math.fsum(paid[t])
            if spent > self.budget:
                continue
            mask = packed[t * width : (t + 1) * width]
            value = self.values.get(mask)
            if value is None:
                value = self.values[mask] = float(self.kernel(accept[t : t + 1])[0])
            out.append((-value, spent, pt, qt))
        return out

    def best(self, p: Sequence[float], q: Sequence[float]) -> Key | None:
        """The least key among the affordable probes, None if there is none."""
        return min(self.keys(p, q), default=None)

    def report(self, key: Key) -> CpSolveReport:
        return make_report(self.workers, self.utility, key[2], key[3], kernel=self.kernel)


# ---------------------------------------------------------------------------
# Regime solvers
# ---------------------------------------------------------------------------


def cp_unres(
    workers: Sequence[WorkerProfile],
    budget: float,
    utility: UtilityFunction,
    diagnostics: bool = True,
) -> CpSolveReport:
    """Optimal common pricing for effort-unresponsive profiles.

    In this regime bang-per-buck decreases with cost, so every policy
    recruits a bang-per-buck prefix and a pure bonus is enough: the
    candidates are exactly the minimal bonuses c_k / r_k that recruit the
    first k workers, and the largest affordable prefix wins.  Workers with
    zero quality and positive cost would need an infinite bonus and are
    skipped as candidates.
    """
    if not budget >= 0:
        raise ValueError("budget must be >= 0")
    if diagnostics:
        warn_if_off_regime(workers, Regime.EFFORT_UNRESPONSIVE)
    bonuses = {0.0}
    for w in workers:
        if w.quality > 0.0:
            q = w.cost / w.quality
            # fl(q * r) can land one ulp under the cost; the bumped twin
            # makes sure the worker's own threshold actually recruits her
            bonuses.add(q)
            bonuses.add(q * (1.0 + 5e-16))
    scorer = _Scorer(workers, utility, budget)
    best = scorer.best(np.zeros(len(bonuses)), sorted(bonuses))
    assert best is not None  # q = 0 spends nothing
    return scorer.report(best)


def _bounded(rows: list[HalfPlane]) -> list[HalfPlane]:
    """The rows of finite bound: a row a_p p + a_q q <= inf, which an
    infinite budget gives, holds at every finite (p, q)."""
    return [row for row in rows if row.rhs < math.inf]


def _scale(c: Sequence[float], budget: float) -> float:
    """The size of the payments in play: the largest of 1, the costs and a
    finite budget."""
    return max([1.0, *c] + ([budget] if budget < math.inf else []))


def _picking_rows(
    r: Sequence[float], c: Sequence[float], lo: int, hi: int, budget: float
) -> list[HalfPlane]:
    """Rows forcing ranks lo..hi (1-based) to accept and their neighbors to
    decline, with the sentinel profile r_0 = r_{n+1} = 0, c_0 = c_{n+1} = B."""
    r_ext = [0.0, *r, 0.0]
    c_ext = [budget, *c, budget]
    span = list(range(lo, hi + 1))
    return _bounded(
        [
            HalfPlane(1.0, r_ext[lo - 1], c_ext[lo - 1], strict=True),
            HalfPlane(-1.0, -r_ext[lo], -c_ext[lo]),
            HalfPlane(-1.0, -r_ext[hi], -c_ext[hi]),
            HalfPlane(1.0, r_ext[hi + 1], c_ext[hi + 1], strict=True),
            HalfPlane(float(len(span)), math.fsum(r_ext[i] for i in span), budget),
        ]
    )


def _blocking_rows(
    r: Sequence[float], c: Sequence[float], lo: int, hi: int, budget: float
) -> list[HalfPlane]:
    """Rows forcing ranks lo..hi to decline while their neighbors accept,
    with the budget taken over the accepted complement."""
    n = len(r)
    rows = [
        HalfPlane(1.0, r[lo - 1], c[lo - 1], strict=True),
        HalfPlane(1.0, r[hi - 1], c[hi - 1], strict=True),
    ]
    if lo >= 2:
        rows.append(HalfPlane(-1.0, -r[lo - 2], -c[lo - 2]))
    if hi <= n - 1:
        rows.append(HalfPlane(-1.0, -r[hi], -c[hi]))
    outside = [i for i in range(n) if not (lo - 1 <= i <= hi - 1)]
    rows.append(
        HalfPlane(float(len(outside)), math.fsum(r[i] for i in outside), budget)
    )
    return _bounded(rows)


def _candidate(scorer: _Scorer, rows: list[HalfPlane], scale: float) -> Key | None:
    """Key of the best budget-feasible probe over the loosened polygon of
    the rows, or None when no probe is affordable.

    The minimum-payment vertex alone is not enough: it can sit exactly on
    a strict decline boundary or drop an accept-boundary worker to float
    rounding.  So every polygon vertex is probed together with points
    pulled toward the centroid (strictly interior, where all non-strict
    rows hold with real slack), vertices are repaired off strict
    boundaries by the base-payment schedule, and each probe is evaluated
    honestly through the decision rule.  The probes are ranked by
    ``scorer`` with the key ``make_report`` implies; the caller builds the
    one report of the solve from the winning key.
    """
    result = feasible_point(rows)
    if not result.feasible:
        return None
    vertices = result.vertices
    cx = sum(v[0] for v in vertices) / len(vertices)
    cy = sum(v[1] for v in vertices) / len(vertices)
    nudge = 1e-12 * scale

    points: list[tuple[float, float]] = []
    for v in vertices:
        repaired = repair_strict(v, rows, scale=scale)
        if repaired is not None:
            points.append(repaired)
            points.append((repaired[0] + nudge, repaired[1]))
            points.append((max(0.0, repaired[0] - nudge), repaired[1]))
        for t in (1e-6, 0.5):
            points.append((v[0] + t * (cx - v[0]), v[1] + t * (cy - v[1])))

    p, q = zip(*points)
    return scorer.best(p, q)


def _least_feasible(attempt: Callable[[int], Key | None], lo: int, hi: int) -> Key | None:
    """``attempt`` at the smallest index in [lo, hi] where it returns a key,
    found by bisection on the assumption that feasibility is monotone in
    the index; None when even ``hi`` is infeasible.  Each index is
    attempted at most once."""
    found: dict[int, Key | None] = {}

    def feasible(i: int) -> bool:
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


def cp_subres(
    workers: Sequence[WorkerProfile],
    budget: float,
    utility: UtilityFunction,
    mode: str = "binary",
    diagnostics: bool = True,
) -> CpSolveReport:
    """Optimal common pricing for effort-subresponsive profiles.

    Every policy recruits a quality-rank interval [l, u] here.  For each
    upper end u the solver finds the best lower end: "binary" assumes
    feasibility is monotone in l and binary-searches the smallest feasible
    one, "linear" tries every l and keeps the best report, which is the
    audit guard for that assumption.
    """
    if not budget >= 0:
        raise ValueError("budget must be >= 0")
    if mode not in ("binary", "linear"):
        raise ValueError(f"unknown mode {mode!r}")
    if diagnostics:
        warn_if_off_regime(workers, Regime.EFFORT_SUBRESPONSIVE)
    n = len(workers)
    order = _quality_order(workers)
    r = [workers[i].quality for i in order]
    c = [workers[i].cost for i in order]
    scale = _scale(c, budget)

    scorer = _Scorer(workers, utility, budget)
    found = [scorer.best([0.0], [0.0])]

    def attempt(lo: int, hi: int) -> Key | None:
        return _candidate(scorer, _picking_rows(r, c, lo, hi, budget), scale)

    for hi in range(n, 0, -1):
        if mode == "linear":
            found += [attempt(lo, hi) for lo in range(1, hi + 1)]
        else:
            found.append(_least_feasible(partial(attempt, hi=hi), 1, hi))
    # (0, 0) spends nothing, so found holds at least its key
    return scorer.report(min(key for key in found if key is not None))


def cp_res(
    workers: Sequence[WorkerProfile],
    budget: float,
    utility: UtilityFunction,
    mode: str = "binary",
    diagnostics: bool = True,
) -> CpSolveReport:
    """Optimal common pricing for effort-responsive profiles.

    The mirror of :func:`cp_subres` over blocking structures: the policy
    must make a quality-rank interval decline and everyone else accept.
    Scans the lower end l of the blocked interval; for each l, "binary"
    searches the smallest feasible upper end (the least blocking, so the
    most utility), "linear" tries them all.  The block-nobody candidate
    (accept everyone) is handled separately since it constrains all ranks.
    """
    if not budget >= 0:
        raise ValueError("budget must be >= 0")
    if mode not in ("binary", "linear"):
        raise ValueError(f"unknown mode {mode!r}")
    if diagnostics:
        warn_if_off_regime(workers, Regime.EFFORT_RESPONSIVE)
    n = len(workers)
    order = _quality_order(workers)
    r = [workers[i].quality for i in order]
    c = [workers[i].cost for i in order]
    scale = _scale(c, budget)

    scorer = _Scorer(workers, utility, budget)
    found = [scorer.best([0.0], [0.0])]

    # block nobody: everyone accepts within budget
    rows = [HalfPlane(-1.0, -ri, -ci) for ri, ci in zip(r, c)]
    rows.append(HalfPlane(float(n), math.fsum(r), budget))
    found.append(_candidate(scorer, _bounded(rows), scale))

    def attempt(lo: int, hi: int) -> Key | None:
        return _candidate(scorer, _blocking_rows(r, c, lo, hi, budget), scale)

    for lo in range(1, n + 1):
        if mode == "linear":
            found += [attempt(lo, hi) for hi in range(lo, n + 1)]
        else:
            found.append(_least_feasible(partial(attempt, lo), lo, n))
    return scorer.report(min(key for key in found if key is not None))


def cp_no_bonus(
    workers: Sequence[WorkerProfile], budget: float, utility: UtilityFunction
) -> CpSolveReport:
    """Optimal common pricing with the bonus forced to zero.

    With q = 0 the accepted set is determined by the base alone, so the
    distinct costs are the only candidate bases; ties prefer the smaller
    base.
    """
    if not budget >= 0:
        raise ValueError("budget must be >= 0")
    candidates = sorted({0.0} | {w.cost for w in workers})
    scorer = _Scorer(workers, utility, budget)
    keys = scorer.keys(candidates, np.zeros(len(candidates)))
    # p = 0 spends nothing, so keys is never empty
    return scorer.report(min(keys, key=lambda key: (key[0], key[2])))


def cp_for_regime(
    workers: Sequence[WorkerProfile],
    budget: float,
    utility: UtilityFunction,
    regime: Regime,
) -> CpSolveReport:
    """Common pricing by the solver of the profile's regime.

    An unclassified profile goes to the exact oracle when it has at most
    ``ORACLE_LIMIT`` (64) workers, and otherwise to the best of the three
    regime solvers, which are exact only on the regime they assume.
    """
    solvers = {
        Regime.EFFORT_UNRESPONSIVE: cp_unres,
        Regime.EFFORT_SUBRESPONSIVE: cp_subres,
        Regime.EFFORT_RESPONSIVE: cp_res,
    }
    if regime in solvers:
        return solvers[regime](workers, budget, utility, diagnostics=False)
    if len(workers) <= ORACLE_LIMIT:
        return cp_exact_oracle(workers, budget, utility)
    candidates = [
        solve(workers, budget, utility, diagnostics=False) for solve in solvers.values()
    ]
    return max(candidates, key=lambda rep: rep.utility_value)


# ---------------------------------------------------------------------------
# Exact oracle
# ---------------------------------------------------------------------------


def _critical_bonuses(r: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Sorted bonuses at which the threshold order c_i - q r_i can change:
    zero, every axis crossing c_i / r_i and every positive pairwise crossing."""
    i, j = np.triu_indices(len(r), 1)
    apart = r[i] != r[j]
    i, j = i[apart], j[apart]
    crossings = (c[i] - c[j]) / (r[i] - r[j])
    graded = r > 0.0
    return np.unique(
        np.concatenate([[0.0], c[graded] / r[graded], crossings[crossings > 0.0]])
    )


Candidates = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _cheapest_per_set(*parts: Candidates) -> Candidates:
    """Merge (words, spend, p, q) candidate arrays, keeping per distinct
    accepted set (a row of packed ``words``) the least (spend, p, q)."""
    words, spend, p, q = (np.concatenate(column) for column in zip(*parts))
    order = np.lexsort((q, p, spend, *words.T))
    words = words[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (words[1:] != words[:-1]).any(axis=1)
    keep = order[first]
    return words[first], spend[keep], p[keep], q[keep]


def _worker_bits(n: int) -> np.ndarray:
    """Each worker's set bit, packed as ``np.packbits`` packs a mask row and
    padded to whole 64-bit words: shape (n, ceil(n / 64))."""
    packed = np.zeros((n, -(-n // 64) * 8), dtype=np.uint8)
    packed[:, : -(-n // 8)] = np.packbits(np.eye(n, dtype=bool), axis=1)
    return packed.view(np.uint64)


def _chunk_candidates(
    q: np.ndarray, r: np.ndarray, c: np.ndarray, bits: np.ndarray, limit: float
) -> Candidates:
    """Budget-feasible (words, spend, p, q) rows of one chunk of sampled
    bonuses q, at least the cheapest of each run of rows with one set.

    At each bonus the rows are the base 0 and its one-ulp bump, which every
    clamped base max(c_i - q r_i, 0) = 0 repeats, and each positive key
    c_i - q r_i and its bump.  A row's accepted set is the prefix of the
    workers in key order below a pivot, read off a prefix-OR of their
    ``bits``, with the workers of a narrow band of keys around its base
    re-tested by the accept expression of ``accepted_set`` and flipped
    where the prefix put them on the wrong side.  Rows are laid out column
    by column with the bonus ascending, so a column's set repeats over runs
    of consecutive rows; spend is summed once per run, and a run keeps only
    its rows of least spend.
    """
    m, n = len(q), len(r)
    qr = q[:, None] * r
    keys = c - qr
    perm = np.argsort(keys, axis=1, kind="stable")
    ks = np.take_along_axis(keys, perm, axis=1)
    qr_sorted = np.take_along_axis(qr, perm, axis=1)
    c_sorted = c[perm]
    sorted_bits = bits[perm]
    prefix = np.zeros((m, n + 1, bits.shape[1]), dtype=np.uint64)
    prefix[:, 1:] = np.bitwise_or.accumulate(sorted_bits, axis=1)

    # Why a narrow band is enough.  With u = 2^-53 and M the largest of 1,
    # the c_i and the q r_i, a key k = fl(c - q r) is within u M of the
    # exact c - q r, and the accept test fl(t + q r) >= c agrees with the
    # exact t + q r >= c unless c - (t + q r) lies in (0, u c].  So a worker
    # whose key lies below t - u M accepts the base t, and one whose key
    # lies above t + 2u M declines it; a bump moves the base by one ulp, at
    # most 2u M.  Sorted keys are cut into groups wherever neighbours lie
    # more than band = 8u M apart, and a key's rows re-test its whole group,
    # so every other key is more than about 6u M from their base.  The rows
    # at 0 re-test every key within band of 0.
    band = 4.0 * np.finfo(float).eps * np.maximum(max(1.0, float(c.max())), q * r.max())
    split = np.diff(ks, axis=1) > band[:, None]
    rank = np.arange(n)
    opens = np.concatenate([np.ones((m, 1), dtype=bool), split], axis=1)
    closes = np.concatenate([split, np.ones((m, 1), dtype=bool)], axis=1)
    group_lo = np.maximum.accumulate(np.where(opens, rank, 0), axis=1)
    group_hi = np.minimum.accumulate(np.where(closes, rank + 1, n)[:, ::-1], axis=1)[:, ::-1]

    # Columns: the base 0, its bump, then each key and its bump; a key at or
    # below 0 leaves its column dead at that bonus.  [lo, hi) are the ranks
    # a row re-tests.  The pivot of the rows at 0 is lo; that of a key's rows
    # is the key's rank, one higher when the accept test takes its worker.
    base = np.empty((2 * n + 2, m))
    base[0] = 0.0
    base[1] = np.nextafter(0.0, 1.0)
    base[2::2] = ks.T
    base[3::2] = np.nextafter(ks.T, np.inf)
    lo = np.empty(base.shape, dtype=np.intp)
    hi = np.empty(base.shape, dtype=np.intp)
    pivot = np.empty(base.shape, dtype=np.intp)
    lo[:2] = pivot[:2] = np.count_nonzero(ks < -band[:, None], axis=1)
    hi[:2] = np.count_nonzero(ks <= band[:, None], axis=1)
    lo[2::2] = lo[3::2] = group_lo.T
    hi[2::2] = hi[3::2] = group_hi.T
    own = base[2:].reshape(n, 2, m) + qr_sorted.T[:, None] >= c_sorted.T[:, None]
    pivot[2:] = (rank[:, None, None] + own).reshape(2 * n, m)
    live = np.ones(base.shape, dtype=bool)
    live[2::2] = live[3::2] = ks.T > 0.0
    row = np.flatnonzero(live)
    at = row % m
    p, lo, hi, pivot = base.ravel()[row], lo.ravel()[row], hi.ravel()[row], pivot.ravel()[row]

    words = prefix.reshape(-1, bits.shape[1])[at * (n + 1) + pivot]
    size = pivot.copy()
    # re-test the band's workers, by flat (bonus, rank) index into the
    # sorted arrays, and flip those on the wrong side of the pivot
    qr_sorted, c_sorted = qr_sorted.ravel(), c_sorted.ravel()
    sorted_bits = sorted_bits.reshape(-1, bits.shape[1])
    k = np.flatnonzero((hi - lo > 1) | (row < 2 * m))
    for d in range((hi - lo)[k].max(initial=0)):
        k = k[hi[k] - lo[k] > d]
        j = lo[k] + d
        flat = at[k] * n + j
        accept = p[k] + qr_sorted[flat] >= c_sorted[flat]
        flip = accept != (j < pivot[k])
        words[k[flip]] ^= sorted_bits[flat[flip]]
        size[k[flip]] += np.where(accept[flip], 1, -1)

    # runs of one set; R_S is summed once per run
    fresh = np.ones(len(p), dtype=bool)
    fresh[1:] = (words[1:] != words[:-1]).any(axis=1)
    starts = np.flatnonzero(fresh)
    lengths = np.diff(starts, append=len(p))
    masks = np.unpackbits(words[starts].view(np.uint8), axis=1, count=n).astype(bool)
    # einsum, not a BLAS matvec: on C-ordered rows its per-row sum depends
    # on the row alone, so one set costs the same bit for bit everywhere,
    # and it wakes no helper threads
    q_row = q[at]
    spend = p * size + q_row * np.repeat(np.einsum("ij,j->i", masks, r), lengths)
    least = np.repeat(np.minimum.reduceat(spend, starts), lengths)
    keep = (spend == least) & (spend <= limit)
    return words[keep], spend[keep], p[keep], q_row[keep]


def cp_exact_oracle(
    workers: Sequence[WorkerProfile],
    budget: float,
    utility: UtilityFunction,
    max_n: int = ORACLE_LIMIT,
) -> CpSolveReport:
    """Exact optimum over all (p, q) >= 0, regime-free.

    The accepted set is piecewise constant over the arrangement of the
    lines p + r_i q = c_i, and as p grows at a fixed bonus the set fills
    in threshold order c_i - q r_i.  Sweeping q over every pairwise line
    crossing, axis crossing, their eps-neighborhoods and interval
    midpoints, and taking each threshold base payment (plus a one-ulp
    bump for boundary robustness) therefore visits every achievable
    accepted set at its cheapest attainable price.  Candidates are
    deduplicated per accepted set keeping the cheapest, then ranked by
    utility, spend, and lexicographic (p, q).

    Each (bonus, base) row's set is read off the threshold order, not
    tested worker by worker (``_chunk_candidates``): one stable sort of the
    keys per bonus, a prefix-OR of the workers' bits in ceil(n / 64) 64-bit
    words, and the size from the set's position in the order.  With
    u = 2^-53 and M the largest of 1, the c_i and the q r_i, rounding moves
    a key by at most u M; the workers whose keys chain to the base in steps
    of at most 8u M are re-tested with the accept expression p + q r_i >= c_i
    itself, so every set is exact.
    Spend is p |S| + q R_S, with R_S a per-set ``einsum``, so one set costs
    the same bit for bit wherever it occurs; a run of bonuses over which a
    threshold column keeps one set is cut to its least spend before the
    per-set merge.  The candidates, the filter and the ranking are those of
    the (rows x n) accept tensor this replaced, and so is the reported
    (p, q).

    Time is O(n^3 log n): O(n^2) bonuses, each one sort and O(n) rows.
    Rows go in chunks of ``_ORACLE_CHUNK_ROWS``, which holds the traced
    peak at 0.60-0.70 MB for n = 16-60 (0.88-1.04 MB with the tensor).
    Oracle alone, best of 7 on one responsive pool (2-vCPU VM, numpy 2.4),
    accept tensor -> prefix evaluation: n = 16: 4.8 -> 3.4 ms, n = 32:
    38 -> 20 ms, n = 48: 141 -> 61 ms, n = 60: 371 -> 136 ms.

    ``max_n`` defaults to ``ORACLE_LIMIT`` (64): up to there the oracle
    takes at most twice as long as the three regime solvers that
    ``cp_for_regime`` falls back to (median on unclassified pools: 50 vs
    37 ms at n = 64, 516 vs 110 ms at n = 128).  Callers that accept the
    cost past it pass ``max_n=n``.
    """
    if not budget >= 0:
        raise ValueError("budget must be >= 0")
    n = len(workers)
    if n > max_n:
        raise SizeError(f"n={n} exceeds the oracle limit ({max_n})")
    if n == 0:
        return make_report(workers, utility, 0.0, 0.0)

    r = np.array([w.quality for w in workers])
    c = np.array([w.cost for w in workers])
    eps = 1e-9 * max(1.0, float(c.max()))
    limit = budget + 1e-9 * max(1.0, budget, float(c.max()))

    crit = _critical_bonuses(r, c)
    below = crit - eps
    samples = np.unique(
        np.concatenate(
            [
                crit,
                crit + eps,
                below[below >= 0.0],
                (crit[:-1] + crit[1:]) / 2.0,
                [crit[-1] + max(1.0, crit[-1])],
            ]
        )
    )

    bits = _worker_bits(n)
    step = max(1, _ORACLE_CHUNK_ROWS // (2 * n + 2))
    # per-chunk candidates; merging them whenever they outnumber the merged
    # table bounds the memory and keeps the total merge work near linear
    kept: list[Candidates] = []
    pending = 0
    for start in range(0, len(samples), step):
        rows = _chunk_candidates(samples[start : start + step], r, c, bits, limit)
        kept.append(_cheapest_per_set(rows))
        pending += len(kept[-1][1])
        if pending > len(kept[0][1]):
            kept, pending = [_cheapest_per_set(*kept)], 0

    words, spend, p, q = _cheapest_per_set(*kept)
    masks = np.unpackbits(words.view(np.uint8), axis=1, count=n).astype(bool)
    kernel = utility.bind(workers)
    values = kernel(masks)
    for t in np.lexsort((q, p, spend, -values)):
        report = make_report(workers, utility, float(p[t]), float(q[t]), kernel=kernel)
        if report.spent <= budget:
            return report
    return make_report(workers, utility, 0.0, 0.0, kernel=kernel)
