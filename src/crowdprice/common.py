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
from .halfplane import _sorted_unique, clip_systems, repair_vertices
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

# the cap on the workers handed to the exact oracle, two 64-bit words per
# accepted set: the largest word boundary at which the oracle costs at most
# twice the three regime solvers on unclassified pools (README, "Exact oracle")
ORACLE_LIMIT = 128
_ORACLE_CHUNK_ROWS = 1 << 14
# (lo, hi) systems clipped and ranked together by a linear-mode regime solve
_LINEAR_BATCH = 256


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

    def to_jsonable(self) -> dict:
        """JSON form, as ``cp`` prints it without its regime."""
        return {
            "base": self.policy.base,
            "bonus": self.policy.bonus,
            "utility": self.utility_value,
            "spent": self.spent,
            "accepted": list(self.accepted),
            "structure": {
                "kind": self.structure.kind.value,
                "lower": self.structure.lower,
                "upper": self.structure.upper,
            },
        }


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

    def _paid(self, p: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each probe's accepted workers and their payments, zero elsewhere:
        declined workers add exact zeros, which leave a sum unchanged."""
        pay = p[:, None] + q[:, None] * self.r
        accept = pay >= self.c
        return accept, np.where(accept, pay, 0.0)

    def _value(self, accept: np.ndarray, mask: bytes) -> float:
        """The utility of one accepted set, a (1 x n) row, memoised."""
        value = self.values.get(mask)
        if value is None:
            value = self.values[mask] = float(self.kernel(accept)[0])
        return value

    def _spend_bounds(self, paid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """A quick sum of each row and a bound on its distance from the row's
        ``math.fsum``.  Any order of summing n nonnegative terms is within
        (n - 1) u of the exact sum relatively, and fsum within u, with
        u = 2^-53; the bound doubles that, and a spend compared by it is
        decided as the fsum would decide it."""
        approx = paid.sum(axis=1)
        return approx, approx * ((paid.shape[1] + 1) * 2.0**-52)

    def _affordable(self, paid: np.ndarray) -> np.ndarray:
        """Which probes spend at most the budget, by ``math.fsum``; only
        those the quick sum leaves in doubt are summed exactly."""
        approx, err = self._spend_bounds(paid)
        ok = approx + err <= self.budget
        doubt = np.flatnonzero(~ok & (approx - err <= self.budget))
        for t, row in zip(doubt.tolist(), paid[doubt].tolist()):
            ok[t] = math.fsum(row) <= self.budget
        return ok

    def keys(self, p: Sequence[float], q: Sequence[float]) -> list[Key]:
        """Keys of the probes (p[t], q[t]) that spend at most the budget."""
        p = np.asarray(p, dtype=float)
        q = np.asarray(q, dtype=float)
        accept, paid = self._paid(p, q)
        width = -(-len(self.r) // 8)
        packed = np.packbits(accept, axis=1).tobytes()
        paid = paid.tolist()
        out = []
        for t, (pt, qt) in enumerate(zip(p.tolist(), q.tolist())):
            spent = math.fsum(paid[t])
            if spent > self.budget:
                continue
            value = self._value(accept[t : t + 1], packed[t * width : (t + 1) * width])
            out.append((-value, spent, pt, qt))
        return out

    def best(self, p: Sequence[float], q: Sequence[float]) -> Key | None:
        """The least key among the affordable probes, None if there is none:
        ``min(self.keys(p, q))``, with only the distinct accepted sets of
        affordable probes scored and only the spends that can decide the
        minimum summed by ``math.fsum``."""
        p = np.asarray(p, dtype=float)
        q = np.asarray(q, dtype=float)
        accept, paid = self._paid(p, q)
        ok = np.flatnonzero(self._affordable(paid))
        if not len(ok):
            return None
        width = -(-len(self.r) // 8)
        packed = np.packbits(accept[ok], axis=1).tobytes()
        values = np.array(
            [
                self._value(accept[t : t + 1], packed[i * width : (i + 1) * width])
                for i, t in enumerate(ok.tolist())
            ]
        )
        # the most utility first; then the least spend, whose bounds leave
        # in doubt only the probes that can tie the least
        top = ok[values == values.max()]
        approx, err = self._spend_bounds(paid[top])
        top = top[approx - err <= (approx + err).min()]
        value = -float(values.max())
        return min(
            (value, math.fsum(paid[t].tolist()), float(p[t]), float(q[t])) for t in top.tolist()
        )

    def affordable(self, p: np.ndarray, q: np.ndarray, group: np.ndarray, groups: int) -> np.ndarray:
        """Per group g < ``groups``, whether any of its probes (the t with
        group[t] == g) is affordable: whether ``best`` of them is not None."""
        out = np.zeros(groups, dtype=bool)
        out[group[self._affordable(self._paid(p, q)[1])]] = True
        return out

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


# K half-plane systems as (K x R) arrays a_p, a_q, rhs, strict, the input of
# ``halfplane.clip_systems``; and one system's quality-rank interval (lo, hi)
Systems = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
Pair = tuple[int, int]


def _systems(
    a_p: np.ndarray, a_q: np.ndarray, rhs: np.ndarray, strict: np.ndarray, absent: np.ndarray
) -> Systems:
    """The rows, with the ``absent`` ones and those of infinite bound set to
    the all-zero row, which bounds nothing: a row a_p p + a_q q <= inf,
    which an infinite budget gives, holds at every finite (p, q)."""
    absent = absent | ~(rhs < math.inf)
    for a in (a_p, a_q, rhs):
        a[absent] = 0.0
    return a_p, a_q, rhs, strict & ~absent


def _scale(c: Sequence[float], budget: float) -> float:
    """The size of the payments in play: the largest of 1, the costs and a
    finite budget."""
    return max([1.0, *c] + ([budget] if budget < math.inf else []))


def _picking_rows(
    r: Sequence[float], c: Sequence[float], pairs: Sequence[Pair], budget: float
) -> Systems:
    """Per (lo, hi), rows forcing ranks lo..hi (1-based) to accept and their
    neighbors to decline, with the sentinel profile r_0 = r_{n+1} = 0,
    c_0 = c_{n+1} = B, and the budget over ranks lo..hi."""
    r_ext = np.array([0.0, *r, 0.0])
    c_ext = np.array([budget, *c, budget])
    lo, hi = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    one = np.ones(len(lo))
    a_p = np.array([one, -one, -one, one, hi - lo + 1.0]).T
    spans = [math.fsum(r[a - 1 : b]) for a, b in pairs]
    a_q = np.array([r_ext[lo - 1], -r_ext[lo], -r_ext[hi], r_ext[hi + 1], spans]).T
    rhs = np.array([c_ext[lo - 1], -c_ext[lo], -c_ext[hi], c_ext[hi + 1], one * budget]).T
    strict = np.tile([True, False, False, True, False], (len(lo), 1))
    return _systems(a_p, a_q, rhs, strict, np.zeros(strict.shape, dtype=bool))


def _blocking_rows(
    r: Sequence[float], c: Sequence[float], pairs: Sequence[Pair], budget: float
) -> Systems:
    """Per (lo, hi), rows forcing ranks lo..hi to decline while their
    neighbors accept (rank 0 and n + 1 have no row), with the budget over
    the accepted complement."""
    n = len(r)
    r_pad = np.array([0.0, *r, 0.0])
    c_pad = np.array([0.0, *c, 0.0])
    lo, hi = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    one = np.ones(len(lo))
    a_p = np.array([one, one, -one, -one, n - (hi - lo + 1.0)]).T
    outside = [math.fsum(r[: a - 1] + r[b:]) for a, b in pairs]
    a_q = np.array([r_pad[lo], r_pad[hi], -r_pad[lo - 1], -r_pad[hi + 1], outside]).T
    rhs = np.array([c_pad[lo], c_pad[hi], -c_pad[lo - 1], -c_pad[hi + 1], one * budget]).T
    strict = np.tile([True, True, False, False, False], (len(lo), 1))
    absent = np.zeros(strict.shape, dtype=bool)
    absent[:, 2] = lo < 2
    absent[:, 3] = hi > n - 1
    return _systems(a_p, a_q, rhs, strict, absent)


def _everyone_rows(r: Sequence[float], c: Sequence[float], budget: float) -> Systems:
    """One system: every rank accepts, within the budget."""
    n = len(r)
    a_p = np.array([[*[-1.0] * n, float(n)]])
    a_q = np.array([[*(-ri for ri in r), math.fsum(r)]])
    rhs = np.array([[*(-ci for ci in c), budget]])
    strict = np.zeros(a_p.shape, dtype=bool)
    return _systems(a_p, a_q, rhs, strict, strict.copy())


def _probes(systems: Systems, scale: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The probe points (p, q) of K systems, and the system of each.

    The minimum-payment vertex alone is not enough: it can sit exactly on
    a strict decline boundary or drop an accept-boundary worker to float
    rounding.  So every vertex of a system's loosened polygon is probed
    together with points pulled toward the centroid (strictly interior,
    where all non-strict rows hold with real slack), and vertices are
    repaired off strict boundaries by the base-payment schedule.  An empty
    polygon gives no probe.  All systems are clipped and repaired in one
    call each.
    """
    polygons = clip_systems(*systems)
    x, y, count = polygons.x, polygons.y, polygons.count
    system, vertex = np.nonzero(np.arange(x.shape[1]) < count[:, None])
    # centroids, summed vertex by vertex from 0 as sum() does; the zero
    # padding adds exact zeros
    cx, cy = np.zeros(len(count)), np.zeros(len(count))
    for v in range(x.shape[1]):
        cx += x[:, v]
        cy += y[:, v]
    cx /= np.maximum(count, 1)
    cy /= np.maximum(count, 1)
    p, q = x[system, vertex], y[system, vertex]

    ok, base = repair_vertices(p, q, system, *systems, scale)
    nudge = 1e-12 * scale
    repaired, rq, rs = base[ok], q[ok], system[ok]
    below = repaired - nudge
    probes = [
        (repaired, rq, rs),
        (repaired + nudge, rq, rs),
        (np.where(below > 0.0, below, 0.0), rq, rs),
    ]
    for t in (1e-6, 0.5):
        probes.append((p + t * (cx[system] - p), q + t * (cy[system] - q), system))
    probe_p, probe_q, group = (np.concatenate(column) for column in zip(*probes))
    return probe_p, probe_q, group


def _best_of(scorer: _Scorer, systems: Systems, scale: float) -> Key | None:
    """The least key over the probes of all the systems, each probe
    evaluated honestly through the decision rule and ranked by ``scorer``
    with the key ``make_report`` implies; the caller builds the one report
    of the solve from the winning key.  None when no probe is affordable."""
    p, q, _ = _probes(systems, scale)
    return scorer.best(p, q)


def _least_feasible(
    feasible: Callable[[list[Pair]], np.ndarray], scans: Sequence[Sequence[Pair]]
) -> list[Pair]:
    """The first system of each scan that ``feasible`` accepts, found by
    bisection over the scan; a scan whose last system fails gives none.

    The bisection trusts that feasibility is monotone along a scan, which
    holds for ``cp_subres``'s scans on the pools measured.  The scans are
    independent, so they advance in lockstep: each round tests the next
    system of every unfinished scan in one call, about log2(len) + 1 calls
    in all.  Each scan tests the systems it would alone, each at most once.
    """
    bounds = [(0, len(scan) - 1) for scan in scans]
    found: list[dict[int, bool]] = [{} for _ in scans]
    while True:
        asks = [
            (s, (lo + hi) // 2)
            for s, (lo, hi) in enumerate(bounds)
            if lo < hi or lo not in found[s]
        ]
        if not asks:
            return [scans[s][lo] for s, (lo, _) in enumerate(bounds) if found[s][lo]]
        for (s, i), ok in zip(asks, feasible([scans[s][i] for s, i in asks]).tolist()):
            found[s][i] = ok
            lo, hi = bounds[s]
            if lo < hi:
                bounds[s] = (lo, i) if ok else (i + 1, hi)


def _scan(
    scorer: _Scorer, rows: Callable[[list[Pair]], Systems], pairs: list[Pair], scale: float
) -> list[Key | None]:
    """The least key of each batch of ``_LINEAR_BATCH`` (lo, hi) systems,
    every probe of every system ranked."""
    return [
        _best_of(scorer, rows(pairs[start : start + _LINEAR_BATCH]), scale)
        for start in range(0, len(pairs), _LINEAR_BATCH)
    ]


def _interval_search(
    scorer: _Scorer,
    rows: Callable[[list[Pair]], Systems],
    scans: list[list[Pair]],
    mode: str,
    scale: float,
) -> list[Key | None]:
    """The keys ``cp_subres`` takes from its (lo, hi) systems.

    "binary" keeps each scan's first feasible system, a system being
    feasible when one of its probes is affordable, and ranks the probes of
    those systems; "linear" ranks the probes of every system
    (:func:`_scan`).  The answer is the least key either way.

    A kernel call costs about as much for a few systems as for a few
    hundred, so a binary solve with at most ``_LINEAR_BATCH`` systems in
    all tests every system in one call, and its bisections read the
    answers from that table; a larger one tests the systems its
    bisections ask for, round by round.  Either way each bisection
    consults the same systems, so it ends where it would alone.
    """
    pairs = [pair for scan in scans for pair in scan]
    if mode == "binary":
        # the probes of each tested system, kept with the system's id,
        # lo * 2^32 + hi, to rank those of the chosen ones
        tested: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []

        def feasible(asked: list[Pair]) -> np.ndarray:
            p, q, group = _probes(rows(asked), scale)
            lo, hi = np.array(asked, dtype=np.int64).reshape(-1, 2).T
            tested.append((p, q, (lo << 32 | hi)[group]))
            return scorer.affordable(p, q, group, len(asked))

        if len(pairs) <= _LINEAR_BATCH:
            table = dict(zip(pairs, feasible(pairs).tolist()))
            chosen = _least_feasible(lambda asked: np.array([table[a] for a in asked]), scans)
        else:
            chosen = _least_feasible(feasible, scans)
        if not chosen:
            return []
        p, q, system = (np.concatenate(column) for column in zip(*tested))
        mine = np.isin(system, [lo << 32 | hi for lo, hi in chosen])
        return [scorer.best(p[mine], q[mine])]
    return _scan(scorer, rows, pairs, scale)


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
    audit guard for that assumption.  Binary mode bisects all upper ends
    in lockstep (:func:`_least_feasible`).
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
    scans = [[(lo, hi) for lo in range(1, hi + 1)] for hi in range(n, 0, -1)]
    found += _interval_search(
        scorer, partial(_picking_rows, r, c, budget=budget), scans, mode, scale
    )
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
    must make a quality-rank interval [l, u] decline and everyone else
    accept.  Both modes try every interval, in batches of
    ``_LINEAR_BATCH`` systems, and keep the best report; a bisection over
    u would be unsound, since the polygons of successive u are not nested.
    The block-nobody candidate (accept everyone) is handled separately
    since it constrains all ranks.
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
    found.append(_best_of(scorer, _everyone_rows(r, c, budget), scale))
    pairs = [(lo, hi) for lo in range(1, n + 1) for hi in range(lo, n + 1)]
    found += _scan(scorer, partial(_blocking_rows, r, c, budget=budget), pairs, scale)
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
    ``ORACLE_LIMIT`` (128) workers, and otherwise to the best of the three
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
    return _sorted_unique(
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


def _overspends(floor: np.ndarray, n: int, limit: float) -> np.ndarray:
    """Whether every row whose exact spend is at least the exact value of
    ``floor`` spends more than ``limit`` in float.  A floor is a float sum
    of at most n + 1 nonnegative products, within (n + 2) u of its exact
    value relatively (u = 2^-53), and a row's spend p |S| + q R_S, R_S a
    sum of at most n terms, within (n + 2) u of its own; the margin doubles
    their sum, as ``_Scorer._spend_bounds`` does.  An infinite floor
    decides nothing."""
    return floor - floor * ((n + 2) * 2.0**-51) > limit


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

    Rows that must spend more than ``limit`` are never built.  fl(p + q r_i)
    grows with p, so every row at a bonus accepts the set of its base-0 row,
    the workers with q r_i >= c_i, and a bonus whose base-0 row overspends
    is dropped before its sort.  A key's two rows re-test only the ranks
    from its group's first, lo, up, so they accept every rank below lo; a
    key whose k lo + sum over those ranks of q r_i overspends has both rows
    dropped (its bump's base is higher still).  No dropped row can be the
    least (spend, p, q) of its set within ``limit``.
    """
    n = len(r)
    qr = q[:, None] * r
    fits = ~_overspends(np.where(qr >= c, qr, 0.0).sum(axis=1), n, limit)
    q, qr = q[fits], qr[fits]
    m = len(q)
    if not m:
        empty = np.empty(0)
        return np.empty((0, bits.shape[1]), dtype=np.uint64), empty, empty, empty
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
    # a key's rows accept the ranks below its group, which bound their spend
    below = np.zeros((m, n + 1))
    np.cumsum(qr_sorted, axis=1, out=below[:, 1:])
    floor = ks * group_lo + np.take_along_axis(below, group_lo, axis=1)
    live = np.ones(base.shape, dtype=bool)
    live[2::2] = live[3::2] = ((ks > 0.0) & ~_overspends(floor, n, limit)).T
    row = np.flatnonzero(live)
    at = row % m
    # the sort's and the grids' arrays are spent once the live rows are
    # gathered; held to the end they raise a chunk's traced peak by a third
    del qr, keys, perm, ks, group_lo, group_hi, own, below, floor, live
    p, lo, hi, pivot = base.ravel()[row], lo.ravel()[row], hi.ravel()[row], pivot.ravel()[row]
    del base

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

    Bonuses and rows that must spend more than the budget are skipped
    unbuilt, since none can be a set's cheapest price within it.

    Time is O(n^3 log n): O(n^2) bonuses, each one sort and O(n) rows.
    Rows go in chunks of ``_ORACLE_CHUNK_ROWS``: a chunk costs about 80
    numpy calls, and at 2^12 rows their overhead outweighed the
    arithmetic.  The chunks' traced peak is 1.7-2.1 MB for n = 15-64.
    Oracle alone, best of 7 on one responsive pool, budget 0.6 of the
    total cost (2-vCPU VM, numpy 2.4), 2^12 unpruned -> 2^14 pruned:
    n = 16: 2.8 -> 2.0 ms, n = 32: 17.8 -> 11.3 ms, n = 48: 58 -> 35 ms,
    n = 64: 138 -> 80 ms.

    ``max_n`` defaults to ``ORACLE_LIMIT`` (128): up to there the oracle
    takes at most twice as long as the three regime solvers that
    ``cp_for_regime`` falls back to (median on unclassified pools: 28 vs
    48 ms at n = 64, 242 vs 163 ms at n = 128, 699 vs 347 ms at n = 192).
    Callers that accept the cost past it pass ``max_n=n``.
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
    samples = _sorted_unique(
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
