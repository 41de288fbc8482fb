"""Shared instance generators for the unit and acceptance suites."""

from __future__ import annotations

import numpy as np

from crowdprice import GkpInstance, WorkerProfile, make_typo


def random_gkp_instances(count: int, seed: int, max_n: int = 14):
    """The shared corpus for the greedy/relaxation/no-bonus criteria:
    uniform qualities in [0,1], costs in (0,1], budgets up to the total."""
    rng = np.random.default_rng(seed)
    utility = make_typo(25, 1)
    out = []
    for _ in range(count):
        n = int(rng.integers(2, max_n + 1))
        qualities = rng.uniform(0.0, 1.0, size=n)
        costs = rng.uniform(0.01, 1.0, size=n)
        budget = float(rng.uniform(0.0, 1.0) * costs.sum())
        workers = tuple(
            WorkerProfile(float(qualities[i]), float(costs[i]), i + 1) for i in range(n)
        )
        out.append(GkpInstance(workers=workers, budget=budget, utility=utility))
    return out


def curve_profile(curve, rng, n, lo, hi):
    costs = np.sort(rng.uniform(lo, hi, size=n))
    return [WorkerProfile(float(curve(c)), float(c), i + 1) for i, c in enumerate(costs)]


# In-regime curve families; each returns (sampler, cost_lo, cost_hi).
def unresponsive_curve(rng):
    a = float(rng.uniform(0.5, 1.0))
    b = float(rng.uniform(0.3, 0.95))
    return (lambda c: a * c**b), 0.05, 1.0


def subresponsive_curve(rng):
    # f(x) = x^b - d is concave with rising bang-per-buck once
    # d > (1-b) * hi^b; the margin keeps it strictly in-regime
    b = float(rng.uniform(0.75, 0.9))
    d = (1.0 - b) * 1.0 + 0.02
    return (lambda c: c**b - d), 0.35, 1.0


def responsive_curve(rng):
    a = float(rng.uniform(0.5, 1.0))
    e = float(rng.uniform(1.3, 3.0))
    return (lambda c: a * c**e), 0.05, 1.0


def uniform_pool(seed, n: int):
    """Qualities U(0, 1) and costs U(0.01, 1), ids 1..n, budget half the
    total cost: mostly profiles that no regime fits, for the regime
    dispatch."""
    rng = np.random.default_rng(seed)
    r = rng.uniform(0, 1, n)
    c = rng.uniform(0.01, 1, n)
    workers = tuple(WorkerProfile(float(r[i]), float(c[i]), i + 1) for i in range(n))
    return workers, 0.5 * float(c.sum())
