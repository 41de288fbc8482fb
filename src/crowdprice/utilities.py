"""Task utility functions and their checkable structural properties.

Utilities map the vector of effective qualities (quality times the 0/1
participation decision) to a single requester payoff.  Each carries
declared flags (symmetric, non-decreasing, additive, subadditive,
Schur-convex); the flags are auditable with the randomized checkers below,
which produce evidence, not proofs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .bonus import invert_bm_array
from .errors import SizeError
from .workers import WorkerProfile

__all__ = [
    "UtilityFunction",
    "UtilityFlags",
    "AuditReport",
    "make_additive",
    "make_typo",
    "make_binary_labeling",
    "utility_from_config",
    "weakly_majorizes",
    "majorizes",
    "check_subadditive",
    "check_schur_convex",
    "check_symmetric",
    "check_nondecreasing",
    "audit_declared_flags",
]

MaskKernel = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class UtilityFlags:
    symmetric: bool = True
    nondecreasing: bool = True
    additive: bool = False
    subadditive: bool = False
    schur_convex: bool = False


@dataclass(frozen=True)
class UtilityFunction:
    """A named utility with a scalar evaluator and a row-batched one.

    ``evaluate`` takes one effective-quality sequence; ``evaluate_many``
    takes a 2-D array of them (one per row) and must agree bitwise with
    ``evaluate`` on each row, so exact solvers and single evaluations can
    be compared without float slack.  Solvers that pick subsets of a fixed
    worker list score them through :meth:`bind` instead.
    """

    name: str
    flags: UtilityFlags
    _batch: Callable[[np.ndarray], np.ndarray]
    params: dict = field(default_factory=dict, compare=False)
    _bind: Callable[[Sequence[WorkerProfile]], MaskKernel] | None = field(
        default=None, compare=False
    )

    def evaluate(self, effective_qualities: Sequence[float]) -> float:
        y = np.atleast_2d(np.asarray(effective_qualities, dtype=float))
        return float(self._batch(y)[0])

    def evaluate_many(self, rows: np.ndarray) -> np.ndarray:
        return self._batch(np.asarray(rows, dtype=float))

    def bind(self, workers: Sequence[WorkerProfile]) -> MaskKernel:
        """Fix the worker list; return a kernel scoring 0/1 mask rows.

        The kernel takes a (k, n) array whose row t marks the recruited
        workers of subset t and returns the k utilities.  By default it
        scores ``mask * quality`` with :meth:`evaluate_many`, bit for bit.
        """
        if self._bind is not None:
            return self._bind(workers)
        qualities = np.array([w.quality for w in workers], dtype=float)
        return lambda masks: self._batch(np.asarray(masks, dtype=bool) * qualities)

    def __call__(self, effective_qualities: Sequence[float]) -> float:
        return self.evaluate(effective_qualities)


# ---------------------------------------------------------------------------
# The three utility families
# ---------------------------------------------------------------------------


def _additive_batch(rows: np.ndarray) -> np.ndarray:
    return np.sum(np.sort(rows, axis=1), axis=1)


def make_additive() -> UtilityFunction:
    """Sum of effective qualities (entries are sorted first, so evaluation
    is exactly permutation-invariant)."""
    return UtilityFunction(
        name="additive",
        flags=UtilityFlags(additive=True, subadditive=True, schur_convex=True),
        _batch=_additive_batch,
    )


def _invert_rows(rows: np.ndarray, M: int, m: int) -> np.ndarray:
    # Effective-quality matrices repeat few distinct values; invert each once.
    values, inverse = np.unique(rows, return_inverse=True)
    inverted = invert_bm_array(values, M, m)
    return inverted[inverse].reshape(rows.shape)


def make_typo(M: int, m: int | None = 1) -> UtilityFunction:
    """Expected number of the M typos corrected by at least one worker.

    Each effective quality is mapped back to a correction ability through
    the inverse of the m-threshold qualification; ``m=None`` treats
    effective qualities as abilities directly (linear qualification).
    A bound kernel (:meth:`UtilityFunction.bind`) scores workers that
    carry their ability from that ability, M * (1 - prod(1 - s_i)), with
    no inversion; that also stays exact where b_m(s) rounds to 1.
    Subadditivity and Schur-convexity are declared for m = 1 only; for
    m >= 2 they are unclaimed and left to empirical audits.
    """
    if M < 1:
        raise ValueError("M must be >= 1")
    if m is not None and not (1 <= m <= M):
        raise ValueError(f"need 1 <= m <= M, got m={m}")

    def check_domain(values: np.ndarray) -> None:
        if values.size and (np.min(values) < 0.0 or np.max(values) > 1.0):
            raise ValueError("typo utility is defined on effective qualities in [0,1]")

    def batch(rows: np.ndarray) -> np.ndarray:
        check_domain(rows)
        s = rows if m is None else _invert_rows(rows, M, m)
        factors = np.sort(1.0 - s, axis=1)
        return M * (1.0 - np.prod(factors, axis=1))

    def bind(workers: Sequence[WorkerProfile]) -> MaskKernel:
        # s is each worker's ability where known; the other qualities are
        # inverted together, once.  Presorting the miss factors 1 - s makes
        # a masked product multiply in the order batch's row sort does
        # (skipped workers contribute exact 1.0s), so both agree bitwise.
        s = np.array([0.0 if w.ability is None else w.ability for w in workers])
        unknown = [i for i, w in enumerate(workers) if w.ability is None]
        if unknown:
            r = np.array([workers[i].quality for i in unknown])
            check_domain(r)
            s[unknown] = r if m is None else invert_bm_array(r, M, m)
        f = 1.0 - s
        order = np.argsort(f, kind="stable")
        f_sorted = f[order]

        def kernel(masks: np.ndarray) -> np.ndarray:
            masks = np.asarray(masks, dtype=bool)
            return M * (1.0 - np.prod(np.where(masks[:, order], f_sorted, 1.0), axis=1))

        return kernel

    claimed = m == 1 or m is None
    return UtilityFunction(
        name=f"typo(M={M},m={m if m is not None else 'linear'})",
        flags=UtilityFlags(subadditive=claimed, schur_convex=claimed),
        _batch=batch,
        params={"M": M, "m": m},
        _bind=bind,
    )


def make_binary_labeling(max_n: int = 20) -> UtilityFunction:
    """Best achievable accuracy advantage when fusing binary labels.

    Sums over all 2^n label outcomes, so n is capped (default 20).  The
    proportionality constant is fixed to 1; only ordering and monotonicity
    are meaningful, never absolute scale.
    """

    def batch(rows: np.ndarray) -> np.ndarray:
        k, n = rows.shape
        if n > max_n:
            raise SizeError(f"binary labeling utility enumerates 2^n outcomes; n={n} > {max_n}")
        if rows.size and (np.min(rows) < 0.0 or np.max(rows) > 1.0):
            raise ValueError("binary labeling utility needs entries in [0,1]")
        out = np.empty(k)
        for row_index in range(k):
            y = np.sort(rows[row_index])
            hi = (1.0 + y) / 2.0
            lo = (1.0 - y) / 2.0
            prod_true = np.ones(1)
            prod_flip = np.ones(1)
            for a, b in zip(hi, lo):
                prod_true = np.concatenate([prod_true * b, prod_true * a])
                prod_flip = np.concatenate([prod_flip * a, prod_flip * b])
            out[row_index] = float(np.sum(np.abs(prod_true - prod_flip)))
        return out

    return UtilityFunction(
        name="binary_labeling",
        flags=UtilityFlags(subadditive=True, schur_convex=True),
        _batch=batch,
        params={"max_n": max_n},
    )


def utility_from_config(cfg: dict) -> UtilityFunction:
    """Build a utility from its scenario-config form, e.g.
    ``{"kind": "typo", "M": 25, "m": 1}`` or ``{"kind": "additive"}``.
    A typo config whose ``m`` is missing or None uses linear qualification."""
    kind = cfg.get("kind")
    if kind == "additive":
        return make_additive()
    if kind == "typo":
        m = cfg.get("m")
        return make_typo(int(cfg["M"]), None if m is None else int(m))
    if kind == "binary_labeling":
        return make_binary_labeling()
    raise ValueError(f"unknown utility config {cfg!r}")


# ---------------------------------------------------------------------------
# Majorization
# ---------------------------------------------------------------------------


def weakly_majorizes(a: Sequence[float], b: Sequence[float], atol: float = 0.0) -> bool:
    """True iff every prefix sum of descending-sorted a dominates that of b."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
    pa = np.cumsum(np.sort(a)[::-1])
    pb = np.cumsum(np.sort(b)[::-1])
    return bool(np.all(pa >= pb - atol))


def majorizes(a: Sequence[float], b: Sequence[float], atol: float = 0.0) -> bool:
    """Weak majorization plus equal totals (within atol)."""
    if not weakly_majorizes(a, b, atol=atol):
        return False
    return abs(math.fsum(a) - math.fsum(b)) <= atol


# ---------------------------------------------------------------------------
# Randomized property audits
# ---------------------------------------------------------------------------


@dataclass
class AuditReport:
    property_name: str
    trials: int
    violations: int
    worst_violation: float
    seed: int
    first_counterexample: tuple | None = None

    @property
    def passed(self) -> bool:
        return self.violations == 0

    def __str__(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return (
            f"{self.property_name}: {status} "
            f"({self.trials} trials, {self.violations} violations, "
            f"worst {self.worst_violation:.3e}, seed {self.seed})"
        )


def _default_disjoint_sampler(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    n = int(rng.integers(2, 9))
    values = rng.uniform(0.0, 1.0, size=n)
    owner = rng.integers(0, 3, size=n)  # 0 -> a, 1 -> b, 2 -> neither
    a = np.where(owner == 0, values, 0.0)
    b = np.where(owner == 1, values, 0.0)
    return a, b


def check_subadditive(
    utility: UtilityFunction,
    sampler: Callable[[np.random.Generator], tuple[np.ndarray, np.ndarray]] | None = None,
    trials: int = 1000,
    seed: int = 0,
    tol: float = 1e-9,
) -> AuditReport:
    """Audit U(a + b) <= U(a) + U(b) on pairs with disjoint supports.

    Disjoint supports are the form the half-approximation argument uses
    (splitting a selection never overlaps indices), and keep a + b inside
    the utility's domain.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    sampler = sampler or _default_disjoint_sampler
    rng = np.random.Generator(np.random.PCG64(seed))
    violations, worst, first = 0, 0.0, None
    for _ in range(trials):
        a, b = sampler(rng)
        gap = utility.evaluate(a + b) - (utility.evaluate(a) + utility.evaluate(b))
        if gap > tol:
            violations += 1
            if gap > worst:
                worst = gap
            if first is None:
                first = (a.tolist(), b.tolist(), gap)
    return AuditReport("subadditive", trials, violations, worst, seed, first)


def _robin_hood(y: np.ndarray, rng: np.random.Generator, transfers: int) -> np.ndarray:
    """Mean-preserving transfers from richer to poorer entries; the result
    is majorized by the input."""
    out = y.copy()
    for _ in range(transfers):
        i, j = rng.integers(0, len(out), size=2)
        if out[i] == out[j]:
            continue
        if out[i] < out[j]:
            i, j = j, i
        d = rng.uniform(0.0, (out[i] - out[j]) / 2.0)
        out[i] -= d
        out[j] += d
    return out


def check_schur_convex(
    utility: UtilityFunction,
    trials: int = 1000,
    seed: int = 0,
    tol: float = 1e-9,
    gradient_check: bool = True,
) -> AuditReport:
    """Audit U(minor) <= U(major) on generated majorization pairs.

    Pairs are built by Robin-Hood transfers on a random vector.  For
    differentiable utilities the Schur-Ostrowski inequality
    (y_i - y_j)(dU/dy_i - dU/dy_j) >= 0 is additionally spot-checked with
    central finite differences at interior points.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.Generator(np.random.PCG64(seed))
    violations, worst, first = 0, 0.0, None
    for trial in range(trials):
        n = int(rng.integers(2, 9))
        major = rng.uniform(0.0, 1.0, size=n)
        minor = _robin_hood(major, rng, transfers=int(rng.integers(1, 4)))
        gap = utility.evaluate(minor) - utility.evaluate(major)
        if gap > tol:
            violations += 1
            worst = max(worst, gap)
            if first is None:
                first = (minor.tolist(), major.tolist(), gap)
            continue
        if gradient_check and trial % 10 == 0:
            y = rng.uniform(0.05, 0.95, size=n)
            i, j = rng.choice(n, size=2, replace=False)
            h = 1e-6
            e_i = np.zeros(n)
            e_i[i] = h
            e_j = np.zeros(n)
            e_j[j] = h
            du_i = (utility.evaluate(y + e_i) - utility.evaluate(y - e_i)) / (2 * h)
            du_j = (utility.evaluate(y + e_j) - utility.evaluate(y - e_j)) / (2 * h)
            product = (y[i] - y[j]) * (du_i - du_j)
            if product < -max(tol, 1e-6):
                violations += 1
                worst = max(worst, -product)
                if first is None:
                    first = (y.tolist(), (int(i), int(j)), product)
    return AuditReport("schur_convex", trials, violations, worst, seed, first)


def check_symmetric(
    utility: UtilityFunction, trials: int = 1000, seed: int = 0, tol: float = 1e-9
) -> AuditReport:
    rng = np.random.Generator(np.random.PCG64(seed))
    violations, worst, first = 0, 0.0, None
    for _ in range(trials):
        n = int(rng.integers(1, 9))
        y = rng.uniform(0.0, 1.0, size=n)
        perm = rng.permutation(n)
        gap = abs(utility.evaluate(y) - utility.evaluate(y[perm]))
        if gap > tol:
            violations += 1
            worst = max(worst, gap)
            if first is None:
                first = (y.tolist(), perm.tolist(), gap)
    return AuditReport("symmetric", trials, violations, worst, seed, first)


def check_nondecreasing(
    utility: UtilityFunction, trials: int = 1000, seed: int = 0, tol: float = 1e-9
) -> AuditReport:
    rng = np.random.Generator(np.random.PCG64(seed))
    violations, worst, first = 0, 0.0, None
    for _ in range(trials):
        n = int(rng.integers(1, 9))
        y = rng.uniform(0.0, 1.0, size=n)
        i = int(rng.integers(0, n))
        bumped = y.copy()
        bumped[i] = rng.uniform(y[i], 1.0)
        gap = utility.evaluate(y) - utility.evaluate(bumped)
        if gap > tol:
            violations += 1
            worst = max(worst, gap)
            if first is None:
                first = (y.tolist(), i, gap)
    return AuditReport("nondecreasing", trials, violations, worst, seed, first)


def audit_declared_flags(
    utility: UtilityFunction, trials: int = 1000, seed: int = 0, tol: float = 1e-9
) -> dict[str, AuditReport]:
    """Run every checker whose flag the utility declares True."""
    reports = {}
    if utility.flags.symmetric:
        reports["symmetric"] = check_symmetric(utility, trials, seed, tol)
    if utility.flags.nondecreasing:
        reports["nondecreasing"] = check_nondecreasing(utility, trials, seed, tol)
    if utility.flags.subadditive:
        reports["subadditive"] = check_subadditive(utility, trials=trials, seed=seed, tol=tol)
    if utility.flags.schur_convex:
        reports["schur_convex"] = check_schur_convex(utility, trials=trials, seed=seed, tol=tol)
    return reports
