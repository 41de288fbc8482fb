"""Worker profiles, the rational accept/decline rule, and cost-quality regimes.

A worker with profile ``(quality, cost)`` accepts an offer of base payment
``p`` and bonus ``q`` exactly when ``p + q * quality >= cost``.  Everything
downstream (knapsack reductions, common-pricing structure, bonus analysis)
is built on top of this rule.
"""

from __future__ import annotations

import csv
import io
import json
import math
import warnings
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "WorkerProfile",
    "CommonPolicy",
    "PersonalizedPolicy",
    "CostQualityCurve",
    "Regime",
    "decide",
    "expected_payment",
    "classify_regime",
    "sort_by_bang_per_buck",
    "bang_per_buck",
    "load_workers",
    "load_workers_csv",
    "load_workers_json",
    "workers_to_json",
    "empirical_regime",
]


@dataclass(frozen=True)
class WorkerProfile:
    """One worker's (quality, cost) pair.

    ``quality`` is the normalized expectation of the bonus payment and
    ``cost`` the opportunity cost of doing the task, in money units.
    Qualities above 1 are allowed by default (some worst-case instances
    need them); pass ``strict=True`` to loaders to enforce quality <= 1.
    ``ability`` is the per-subtask success probability s the quality was
    derived from, when known (:func:`crowdprice.bonus.translate` sets it);
    the typo utility scores such workers from s directly.
    """

    quality: float
    cost: float
    id: int | str = 0
    ability: float | None = None

    def __post_init__(self) -> None:
        if not (0.0 <= self.quality < math.inf):
            raise ValueError(f"quality must be finite and >= 0, got {self.quality!r}")
        if not (0.0 <= self.cost < math.inf):
            raise ValueError(f"cost must be finite and >= 0, got {self.cost!r}")
        if self.ability is not None and not (0.0 <= self.ability <= 1.0):
            raise ValueError(f"ability must be in [0,1], got {self.ability!r}")


@dataclass(frozen=True)
class CommonPolicy:
    """A single (base, bonus) pair offered to every worker."""

    base: float
    bonus: float

    def __post_init__(self) -> None:
        if self.base < 0 or self.bonus < 0:
            raise ValueError("base and bonus payments must be >= 0")


@dataclass(frozen=True)
class PersonalizedPolicy:
    """Per-worker (base, bonus) pairs, index-aligned with the worker list."""

    pairs: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        for p, q in self.pairs:
            if p < 0 or q < 0:
                raise ValueError("base and bonus payments must be >= 0")

    def __len__(self) -> int:
        return len(self.pairs)


def _as_pair(policy) -> tuple[float, float]:
    if isinstance(policy, CommonPolicy):
        return policy.base, policy.bonus
    p, q = policy
    return float(p), float(q)


def decide(worker: WorkerProfile, policy) -> bool:
    """Rational worker decision: accept iff base + bonus * quality >= cost.

    ``policy`` is a :class:`CommonPolicy` or a plain ``(base, bonus)`` pair.
    The comparison is non-strict: indifferent workers accept.
    """
    p, q = _as_pair(policy)
    return p + q * worker.quality >= worker.cost


def expected_payment(worker: WorkerProfile, policy) -> float:
    """Expected money paid: base + bonus * quality if the worker accepts, else 0."""
    p, q = _as_pair(policy)
    if p + q * worker.quality >= worker.cost:
        return p + q * worker.quality
    return 0.0


def bang_per_buck(worker: WorkerProfile) -> float:
    """quality / cost; zero-cost workers rank as +inf."""
    if worker.cost == 0.0:
        return math.inf
    return worker.quality / worker.cost


def sort_by_bang_per_buck(workers: Sequence[WorkerProfile]) -> list[int]:
    """Indices sorted by descending quality/cost ratio.

    Zero-cost workers come first; ties break by ascending original index,
    so the output is deterministic and idempotent on sorted input.
    """
    return sorted(range(len(workers)), key=lambda i: (-bang_per_buck(workers[i]), i))


# ---------------------------------------------------------------------------
# Cost-quality curves and regimes
# ---------------------------------------------------------------------------


class Regime(Enum):
    EFFORT_UNRESPONSIVE = "unresponsive"
    EFFORT_SUBRESPONSIVE = "subresponsive"
    EFFORT_RESPONSIVE = "responsive"
    UNCLASSIFIED = "unclassified"


@dataclass
class CostQualityCurve:
    """A monotone increasing map from cost to quality, r = f(c).

    Analytic first/second derivatives are used when supplied; otherwise
    central finite differences with step ``h = 1e-5 * domain width``.
    """

    f: Callable[[float], float]
    fprime: Callable[[float], float] | None = None
    fsecond: Callable[[float], float] | None = None
    label: str = ""

    def derivative(self, x: float, h: float) -> float:
        if self.fprime is not None:
            return self.fprime(x)
        return (self.f(x + h) - self.f(x - h)) / (2.0 * h)

    def second_derivative(self, x: float, h: float) -> float:
        if self.fsecond is not None:
            return self.fsecond(x)
        return (self.f(x + h) - 2.0 * self.f(x) + self.f(x - h)) / (h * h)


def _leq(lhs: float, rhs: float, tol: float) -> bool:
    return lhs <= rhs + tol * max(1.0, abs(lhs), abs(rhs))


def classify_regime(
    curve: CostQualityCurve,
    domain: tuple[float, float],
    samples: int = 101,
    tol: float = 1e-9,
) -> Regime:
    """Classify a cost-quality curve by comparing f'(x) against f(x)/x.

    Effort-unresponsive: f' <= f/x everywhere (bang-per-buck non-increasing).
    Effort-subresponsive: f' >= f/x and f'' <= 0 everywhere.
    Effort-responsive: f' >= f/x and f'' >= 0 everywhere.

    Equality within ``tol`` (relative) satisfies both sides of each
    inequality; precedence unresponsive > subresponsive > responsive makes
    the result total and deterministic (a linear curve is unresponsive).
    """
    lo, hi = domain
    if samples < 2:
        raise ValueError("samples must be >= 2")
    if lo <= 0.0:
        raise ValueError("domain must exclude 0 (f(x)/x is singular there)")
    if hi <= lo:
        raise ValueError("empty domain")
    h = 1e-5 * (hi - lo)
    xs = np.linspace(lo, hi, samples)

    unres = True
    super_bpb = True  # f' >= f/x at every sample
    concave = True
    convex = True
    for x in xs:
        fx = curve.f(x)
        d1 = curve.derivative(x, h)
        d2 = curve.second_derivative(x, h)
        ratio = fx / x
        if not _leq(d1, ratio, tol):
            unres = False
        if not _leq(ratio, d1, tol):
            super_bpb = False
        if not _leq(d2, 0.0, tol):
            concave = False
        if not _leq(0.0, d2, tol):
            convex = False

    if unres:
        return Regime.EFFORT_UNRESPONSIVE
    if super_bpb and concave:
        return Regime.EFFORT_SUBRESPONSIVE
    if super_bpb and convex:
        return Regime.EFFORT_RESPONSIVE
    return Regime.UNCLASSIFIED


def _pchip_end_slope(h0: float, h1: float, m0: float, m1: float) -> float:
    # one-sided three-point estimate, kept shape-preserving
    d = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def _pchip_slopes(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Knot slopes of the monotone PCHIP interpolant through (x, y).

    Needs at least three strictly increasing knots.  Interior knots take
    the weighted harmonic mean of the two neighbouring secant slopes, or 0
    where those differ in sign or either is 0 (Fritsch & Carlson, 1980);
    end knots take the one-sided three-point rule (Fritsch & Butland,
    1984).  The expressions are those of scipy's ``PchipInterpolator``.
    """
    h = np.diff(x)
    m = np.diff(y) / h
    w1 = 2.0 * h[1:] + h[:-1]
    w2 = h[1:] + 2.0 * h[:-1]
    smooth = (np.sign(m[1:]) == np.sign(m[:-1])) & (m[1:] != 0.0) & (m[:-1] != 0.0)
    d = np.zeros_like(y)
    with np.errstate(divide="ignore", invalid="ignore"):
        d[1:-1] = np.where(smooth, 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)), 0.0)
    d[0] = _pchip_end_slope(h[0], h[1], m[0], m[1])
    d[-1] = _pchip_end_slope(h[-1], h[-2], m[-1], m[-2])
    return d


def empirical_regime(workers: Sequence[WorkerProfile], tol: float = 1e-6) -> Regime:
    """Regime label of the fitted empirical cost-quality curve.

    Workers sharing a cost are collapsed to their mean quality.  The regime
    inequalities are evaluated at the sample costs using the knot slopes of
    scipy's monotone PCHIP interpolant, reimplemented in numpy
    (:func:`_pchip_slopes`); the curvature condition uses those slopes'
    knot-to-knot differences.  (The interpolant's raw second derivative is
    piecewise linear with jumps and would misclassify even exactly convex
    data.)  At the last knot the end rule's slope is returned directly,
    where scipy evaluates the last cubic, so the two can differ by about
    1e-14.
    """
    by_cost: dict[float, list[float]] = {}
    for w in workers:
        by_cost.setdefault(w.cost, []).append(w.quality)
    cs = np.array(sorted(by_cost))
    if len(cs) < 3 or cs[0] <= 0.0:
        return Regime.UNCLASSIFIED
    rs = np.array([float(np.mean(by_cost[c])) for c in cs])
    d1 = _pchip_slopes(cs, rs)
    ratio = rs / cs

    def leq(a: np.ndarray, b: np.ndarray) -> bool:
        return bool(np.all(a <= b + tol * np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))))

    second = np.diff(d1) / np.diff(cs)
    if leq(d1, ratio):
        return Regime.EFFORT_UNRESPONSIVE
    if leq(ratio, d1) and leq(second, np.zeros_like(second)):
        return Regime.EFFORT_SUBRESPONSIVE
    if leq(ratio, d1) and leq(np.zeros_like(second), second):
        return Regime.EFFORT_RESPONSIVE
    return Regime.UNCLASSIFIED


def warn_if_off_regime(workers: Sequence[WorkerProfile], expected: Regime) -> None:
    """Diagnostic used by the regime-specific common-pricing solvers."""
    observed = empirical_regime(workers)
    if observed is not expected and observed is not Regime.UNCLASSIFIED:
        warnings.warn(
            f"worker profile looks {observed.value}, solver assumes {expected.value}; "
            "result may be suboptimal",
            stacklevel=3,
        )


# ---------------------------------------------------------------------------
# Ingest
# ---------------------------------------------------------------------------

_CSV_HEADER = ["id", "quality", "cost"]


def _validate(workers: list[WorkerProfile], strict: bool) -> list[WorkerProfile]:
    if strict:
        for w in workers:
            if w.quality > 1.0:
                raise ValueError(f"strict mode: quality {w.quality} > 1 for worker {w.id!r}")
    return workers


def load_workers_csv(text: str, strict: bool = False) -> list[WorkerProfile]:
    """Parse workers from CSV with the required header ``id,quality,cost``."""
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError("empty CSV: header 'id,quality,cost' required") from None
    if [h.strip().lower() for h in header] != _CSV_HEADER:
        raise ValueError(f"CSV header must be {','.join(_CSV_HEADER)!r}, got {header!r}")
    workers = []
    for row in reader:
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != 3:
            raise ValueError(f"malformed CSV row: {row!r}")
        wid: int | str = row[0].strip()
        if isinstance(wid, str) and wid.lstrip("-").isdigit():
            wid = int(wid)
        workers.append(WorkerProfile(quality=float(row[1]), cost=float(row[2]), id=wid))
    return _validate(workers, strict)


def load_workers_json(text: str, strict: bool = False) -> list[WorkerProfile]:
    """Parse workers from a JSON array of {id, quality, cost} objects."""
    data = json.loads(text)
    if not isinstance(data, list):
        raise ValueError("worker JSON must be an array of objects")
    workers = []
    for entry in data:
        try:
            quality, cost = float(entry["quality"]), float(entry["cost"])
            wid = entry.get("id", len(workers) + 1)
        except (KeyError, TypeError, ValueError):
            raise ValueError(
                f"worker entry {len(workers)} must be an object with numeric "
                f"'quality' and 'cost': {entry!r}"
            ) from None
        workers.append(WorkerProfile(quality=quality, cost=cost, id=wid))
    return _validate(workers, strict)


def load_workers(path: str | Path, strict: bool = False) -> list[WorkerProfile]:
    """Load workers from a ``.csv`` or ``.json`` file (UTF-8, '.' decimals)."""
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    if path.suffix.lower() == ".json":
        return load_workers_json(text, strict=strict)
    return load_workers_csv(text, strict=strict)


def workers_to_json(workers: Sequence[WorkerProfile]) -> str:
    return json.dumps(
        [{"id": w.id, "quality": w.quality, "cost": w.cost} for w in workers]
    )
