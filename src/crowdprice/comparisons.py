"""Power-of-Bonus instances and Price-of-Agnosticity certificates.

The Power-of-Bonus family is a three-group worker profile (cherry pickers,
mid, high quality) on which common pricing without bonus wastes the whole
budget on cherries while a pure bonus recruits exactly the experts; the
utility ratio between the two optima is at most the cherries' quality.
The Price-of-Agnosticity certificate quantifies how much extra budget a
common policy needs to match a constant fraction of the personalized
optimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .common import cp_exact_oracle, cp_no_bonus
from .errors import InvariantBreach
from .personalized import GkpInstance, solve_gkp_exact
from .utilities import UtilityFunction, make_additive
from .workers import WorkerProfile, bang_per_buck

__all__ = [
    "PobInstance",
    "PoaCertificate",
    "PoaAuditResult",
    "build_pob_instance",
    "pob_ratio",
    "poa_constants",
    "poa_audit",
]


@dataclass(frozen=True)
class PobInstance:
    n: int
    c: float
    epsilon: float
    workers: tuple[WorkerProfile, ...]
    budget: float


def build_pob_instance(n: int, c: float, epsilon: float, relaxed: bool = False) -> PobInstance:
    """The worst-case-for-no-bonus profile with budget (n + 4) c / 2.

    First half cherries (epsilon, c), third quarter mids (1, 2c), last
    quarter highs (2, 2c).  Strict mode requires n divisible by 4 so the
    groups are exact; relaxed mode honors the floor boundaries instead.
    """
    if n < 4:
        raise ValueError("n must be >= 4")
    if not relaxed and n % 4 != 0:
        raise ValueError("n must be divisible by 4 (pass relaxed=True to allow floors)")
    if c <= 0:
        raise ValueError("c must be positive")
    if not (0.0 <= epsilon < 1.0):
        raise ValueError("epsilon must be in [0, 1)")
    workers = []
    for i in range(1, n + 1):
        if i <= n / 2:
            workers.append(WorkerProfile(quality=epsilon, cost=c, id=i))
        elif i <= 3 * n / 4:
            workers.append(WorkerProfile(quality=1.0, cost=2 * c, id=i))
        else:
            workers.append(WorkerProfile(quality=2.0, cost=2 * c, id=i))
    return PobInstance(
        n=n, c=c, epsilon=epsilon, workers=tuple(workers), budget=(n + 4) * c / 2.0
    )


def pob_ratio(instance: PobInstance, utility: UtilityFunction | None = None) -> float:
    """Utility of the no-bonus optimum over the with-bonus optimum.

    Verifies the bound ratio <= epsilon on the way out; a violation would
    mean one of the two solvers is broken.
    """
    utility = utility or make_additive()
    no_bonus = cp_no_bonus(instance.workers, instance.budget, utility)
    with_bonus = cp_exact_oracle(instance.workers, instance.budget, utility, max_n=instance.n)
    if with_bonus.utility_value <= 0.0:
        raise InvariantBreach("with-bonus optimum must be positive for n >= 4")
    ratio = no_bonus.utility_value / with_bonus.utility_value
    if ratio > instance.epsilon + 1e-12:
        raise InvariantBreach(
            f"power-of-bonus ratio {ratio} exceeds epsilon={instance.epsilon}"
        )
    return ratio


@dataclass(frozen=True)
class PoaCertificate:
    k_budget: int
    gamma: float
    delta: float
    u_pp: float | None = None
    u_cp_scaled: float | None = None


def poa_constants(workers: Sequence[WorkerProfile], budget: float) -> PoaCertificate:
    """The (gamma, delta) pair for a bang-per-buck-sorted profile.

    k is the longest affordable prefix; gamma discounts by the first
    excluded quality (with the sentinel r_{n+1} = 0 at the boundary) and
    delta is the budget inflation a pure bonus needs to recruit that same
    prefix.  delta >= 1 always, by the sort order.
    """
    etas = [bang_per_buck(w) for w in workers]
    if any(etas[i] < etas[i + 1] for i in range(len(etas) - 1)):
        raise ValueError("workers must be sorted by descending bang-per-buck")
    prefix: list[float] = []
    k = 0
    for w in workers:
        if math.fsum(prefix + [w.cost]) > budget:
            break
        prefix.append(w.cost)
        k += 1
    if k == 0:
        raise ValueError("budget affords no worker; certificate undefined")
    r_sum = math.fsum(w.quality for w in workers[:k])
    c_sum = math.fsum(prefix)
    if r_sum <= 0.0:
        raise ValueError("affordable prefix has zero total quality")
    next_quality = workers[k].quality if k < len(workers) else 0.0
    gamma = 1.0 - next_quality / r_sum
    last = workers[k - 1]
    if last.quality <= 0.0:
        delta = math.inf
    elif c_sum <= 0.0:
        raise ValueError("affordable prefix has zero total cost; delta undefined")
    else:
        delta = (last.cost / last.quality) * (r_sum / c_sum)
    return PoaCertificate(k_budget=k, gamma=gamma, delta=delta)


@dataclass(frozen=True)
class PoaAuditResult:
    certificate: PoaCertificate | None
    skipped: bool
    reason: str
    half_bound_holds: bool | None = None
    gamma_bound_holds: bool | None = None


def poa_audit(
    workers: Sequence[WorkerProfile],
    budget: float,
    utility: UtilityFunction,
    tol: float = 1e-9,
) -> PoaAuditResult:
    """Check the price-of-agnosticity bounds with exact solvers.

    Precondition: no affordable single worker contributes half or more of
    the personalized optimum; instances failing that gate are reported as
    skipped rather than as failures.  On gated instances the common-price
    optimum at budget delta * B must reach half the personalized optimum
    at budget B, and under an additive utility also the gamma fraction.
    The common-price optimum comes from the exact oracle, so profiles of
    more than ``ORACLE_LIMIT`` (128) workers raise ``SizeError``.
    """
    workers = sorted(workers, key=lambda w: (-bang_per_buck(w), str(w.id)))
    instance = GkpInstance(workers=tuple(workers), budget=budget, utility=utility)
    u_pp = solve_gkp_exact(instance).utility_value

    singleton_values = instance.kernel(np.eye(len(workers), dtype=bool))
    for w, value in zip(workers, singleton_values):
        if w.cost > budget:
            continue
        if u_pp < 2.0 * value:
            return PoaAuditResult(
                certificate=None,
                skipped=True,
                reason=f"single worker {w.id!r} contributes half or more of the optimum",
            )

    try:
        cert = poa_constants(workers, budget)
    except ValueError as exc:
        return PoaAuditResult(certificate=None, skipped=True, reason=str(exc))

    scaled = cp_exact_oracle(workers, cert.delta * budget, utility)
    u_cp = scaled.utility_value
    half_ok = u_cp >= 0.5 * u_pp - tol
    gamma_ok = None
    if utility.flags.additive:
        gamma_ok = u_cp >= cert.gamma * u_pp - tol
    return PoaAuditResult(
        certificate=PoaCertificate(
            k_budget=cert.k_budget,
            gamma=cert.gamma,
            delta=cert.delta,
            u_pp=u_pp,
            u_cp_scaled=u_cp,
        ),
        skipped=False,
        reason="",
        half_bound_holds=half_ok,
        gamma_bound_holds=gamma_ok,
    )
