"""Bonus-qualification policies: how worker ability turns into quality.

A bonus policy decides when the bonus is granted; this defines the quality
r a worker of ability s carries.  The m-threshold policy pays the bonus
when at least m of M subtasks succeed, giving r = b_m(s), the binomial
upper tail.  The linear policy pays proportionally, giving r = s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .workers import WorkerProfile

__all__ = [
    "BonusPolicy",
    "threshold_policy",
    "linear_policy",
    "AbilityProfile",
    "bm",
    "invert_bm",
    "translate",
    "generate_population",
    "policy_from_config",
]


@dataclass(frozen=True)
class BonusPolicy:
    """kind is "threshold" (requires 1 <= m <= M) or "linear"."""

    kind: str
    M: int
    m: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("threshold", "linear"):
            raise ValueError(f"unknown bonus policy kind {self.kind!r}")
        if self.M < 1:
            raise ValueError("M must be >= 1")
        if self.kind == "threshold":
            if self.m is None or not (1 <= self.m <= self.M):
                raise ValueError(f"threshold policy needs 1 <= m <= M, got m={self.m}")

    @property
    def label(self) -> str:
        return f"m={self.m}" if self.kind == "threshold" else "linear"


def threshold_policy(m: int, M: int) -> BonusPolicy:
    return BonusPolicy(kind="threshold", M=M, m=m)


def linear_policy(M: int) -> BonusPolicy:
    return BonusPolicy(kind="linear", M=M)


def policy_from_config(cfg: dict) -> BonusPolicy:
    kind = cfg.get("kind")
    if kind == "threshold":
        return threshold_policy(int(cfg["m"]), int(cfg["M"]))
    if kind == "linear":
        return linear_policy(int(cfg.get("M", 1)))
    raise ValueError(f"unknown bonus policy config {cfg!r}")


@dataclass(frozen=True)
class AbilityProfile:
    """Per-worker ability s in [0,1] and cost, before any quality translation."""

    abilities: tuple[float, ...]
    costs: tuple[float, ...]
    metadata: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        if len(self.abilities) != len(self.costs):
            raise ValueError("abilities and costs must have equal length")
        for s in self.abilities:
            if not (0.0 <= s <= 1.0):
                raise ValueError(f"ability must be in [0,1], got {s}")

    def __len__(self) -> int:
        return len(self.abilities)


_LOG_BINOM: dict[int, np.ndarray] = {}


def _log_binom(M: int) -> np.ndarray:
    table = _LOG_BINOM.get(M)
    if table is None:
        k = np.arange(M + 1)
        table = (
            math.lgamma(M + 1)
            - np.array([math.lgamma(v + 1) for v in k])
            - np.array([math.lgamma(M - v + 1) for v in k])
        )
        _LOG_BINOM[M] = table
    return table


def bm_array(s: np.ndarray, M: int, m: int) -> np.ndarray:
    """Vectorized binomial upper tail P(X >= m), X ~ Bin(M, s).

    Sums log-space terms of whichever tail is smaller, so values keep
    full relative precision near both 0 and 1.
    """
    s = np.asarray(s, dtype=float)
    if s.size and (np.min(s) < 0.0 or np.max(s) > 1.0):
        raise ValueError("s must be in [0,1]")
    if not (1 <= m <= M):
        raise ValueError(f"need 1 <= m <= M, got m={m}, M={M}")
    out = np.empty(s.shape)
    flat = s.ravel()
    res = out.ravel()
    interior = (flat > 0.0) & (flat < 1.0)
    res[flat == 0.0] = 0.0
    res[flat == 1.0] = 1.0
    if interior.any():
        si = flat[interior]
        logc = _log_binom(M)
        k = np.arange(M + 1)
        log_terms = (
            logc[None, :]
            + k[None, :] * np.log(si)[:, None]
            + (M - k)[None, :] * np.log1p(-si)[:, None]
        )
        terms = np.exp(log_terms)
        upper = terms[:, m:].sum(axis=1)
        lower = terms[:, :m].sum(axis=1)
        vals = np.where(upper <= 0.5, upper, np.clip(1.0 - lower, 0.0, 1.0))
        res[interior] = np.minimum(vals, 1.0)
    return out


def bm(s: float, M: int, m: int) -> float:
    """Probability of at least m successes in M Bernoulli(s) trials."""
    if not (0.0 <= s <= 1.0):
        raise ValueError(f"s must be in [0,1], got {s}")
    return float(bm_array(np.array([s]), M, m)[0])


def invert_bm_array(r: np.ndarray, M: int, m: int, iterations: int = 64) -> np.ndarray:
    """Vectorized inverse of b_m; see :func:`invert_bm`."""
    r = np.asarray(r, dtype=float)
    if r.size and (np.min(r) < 0.0 or np.max(r) > 1.0):
        raise ValueError("r must be in [0,1]")
    if m == 1:
        # b_1(s) = 1 - (1-s)^M inverts in closed form (log1p(-1) = -inf
        # flows through expm1 to exactly 1)
        with np.errstate(divide="ignore"):
            return -np.expm1(np.log1p(-r) / M)
    if m == M:
        # b_M(s) = s^M likewise
        return r ** (1.0 / M)
    lo = np.zeros(r.shape)
    hi = np.ones(r.shape)
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        below = bm_array(mid, M, m) < r
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    out = 0.5 * (lo + hi)
    out[r == 0.0] = 0.0
    out[r == 1.0] = 1.0
    return out


def invert_bm(r: float, M: int, m: int, iterations: int = 64) -> float:
    """Inverse of the strictly increasing b_m on [0,1], by bisection.

    Bisects on the ability interval (not on the residual), so the answer
    stays accurate even where b_m is nearly flat; exact at the endpoints.
    The single-threshold and all-threshold cases invert in closed form.
    """
    if not (0.0 <= r <= 1.0):
        raise ValueError(f"r must be in [0,1], got {r}")
    return float(invert_bm_array(np.array([r]), M, m, iterations)[0])


def translate(profile: AbilityProfile, policy: BonusPolicy) -> list[WorkerProfile]:
    """Turn abilities into worker qualities under the given bonus policy.

    Each worker keeps its ability, so utilities measured in abilities need
    not invert the quality back.
    """
    abilities = np.array(profile.abilities, dtype=float)
    if policy.kind == "threshold":
        qualities = bm_array(abilities, policy.M, policy.m)
    else:
        qualities = abilities
    return [
        WorkerProfile(quality=r, cost=c, id=i, ability=s)
        for i, (r, s, c) in enumerate(
            zip(qualities.tolist(), profile.abilities, profile.costs), start=1
        )
    ]


def _logistic_ability(c: np.ndarray, slope: float) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-slope * c))


def generate_population(
    n: int,
    seed: int,
    cost_alpha: float = 5.0,
    cost_beta: float = 5.0,
    ability_slope: float = 3.0,
) -> AbilityProfile:
    """Sample a worker population: cost ~ Beta(alpha, beta), s = logistic(slope * c).

    Deterministic for a fixed seed.  The generator algorithm and library
    version are recorded in the metadata so golden outputs stay explainable
    across platforms.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if cost_alpha <= 0 or cost_beta <= 0:
        raise ValueError("beta distribution parameters must be positive")
    rng = np.random.Generator(np.random.PCG64(seed))
    costs = rng.beta(cost_alpha, cost_beta, size=n)
    abilities = _logistic_ability(costs, ability_slope)
    return AbilityProfile(
        abilities=tuple(float(s) for s in abilities),
        costs=tuple(float(c) for c in costs),
        metadata={
            "generator": "numpy.random.PCG64",
            "numpy_version": np.__version__,
            "seed": seed,
            "cost_law": {"dist": "beta", "alpha": cost_alpha, "beta": cost_beta},
            "ability_law": {"form": "logistic", "slope": ability_slope},
        },
    )
