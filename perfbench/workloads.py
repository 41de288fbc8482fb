"""The benchmark's three workloads: their inputs, their ops and the checks.

Every input is drawn from the benchmark seed; the program receives only
the generated inputs.  Each op's outputs are checked against figures the
benchmark computes on its own (brute-force optima, utilities recomputed
from abilities, the accept rule p + q*r >= c, a fractional-knapsack bound)
or against properties the method must have.  A check never compares with
a stored copy of an earlier output.

A workload hands out rounds of ops.  A run always finishes the round it
started, so the share of failed ops is the same in every run.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

M = 25  # typos per task, as in the paper's experiment
REL_TOL = 1e-9


def close(a: float, b: float, tol: float = REL_TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


class Checks:
    """Collects the names of the checks an op's outputs failed, and the
    known program fault they are put down to, if any."""

    def __init__(self) -> None:
        self.failed: list[str] = []
        self.fault: str | None = None

    def that(self, ok: bool, name: str) -> None:
        if not ok and name not in self.failed:
            self.failed.append(name)


@dataclass
class Op:
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any, Checks], None]
    child_cpu_s: float = 0.0
    child_rss_kb: int = 0


# ---------------------------------------------------------------------------
# Figures computed apart from the program
# ---------------------------------------------------------------------------


def typo_from_abilities(abilities, chosen) -> float:
    """Expected typos corrected, M * (1 - prod(1 - s_i)), from abilities."""
    return M * (1.0 - math.prod(1.0 - abilities[i] for i in chosen))


def typo_m1_from_qualities(qualities, chosen) -> float:
    """typo(M, m=1) of qualities r_i = 1 - (1 - s_i)^M, without inverting b_m."""
    return M * (1.0 - math.prod((1.0 - qualities[i]) ** (1.0 / M) for i in chosen))


def all_masks(n: int) -> np.ndarray:
    keys = np.arange(1 << n, dtype=np.int64)
    return ((keys[:, None] >> np.arange(n)[None, :]) & 1).astype(bool)


def brute_force_typo(costs, abilities, budget) -> float:
    """Personalized optimum over all 2^n subsets, scored from abilities."""
    masks = all_masks(len(costs))
    feasible = masks[masks @ np.asarray(costs) <= budget]
    log_miss = feasible @ np.log1p(-np.asarray(abilities))
    return float(M * (1.0 - np.exp(log_miss.min())))


def brute_force_additive(costs, qualities, budget) -> float:
    masks = all_masks(len(costs))
    feasible = masks[masks @ np.asarray(costs) <= budget]
    return float((feasible @ np.asarray(qualities)).max())


def dantzig_bound(costs, qualities, budget) -> float:
    """Fractional-knapsack optimum: an upper bound for any additive selection."""
    order = sorted(range(len(costs)), key=lambda i: -qualities[i] / costs[i])
    value, left = 0.0, budget
    for i in order:
        take = min(1.0, left / costs[i])
        value += take * qualities[i]
        left -= take * costs[i]
        if left <= 0.0:
            break
    return value


def check_common_policy(ck: Checks, name: str, report: dict, qualities, costs, budget) -> list[int]:
    """The policy's accepted set and spend, recomputed by the accept rule."""
    p, q = report["base"], report["bonus"]
    accepted = [i for i, (r, c) in enumerate(zip(qualities, costs)) if p + q * r >= c]
    ck.that(accepted == list(report["accepted"]), f"{name}_accepted_set")
    spend = math.fsum(p + q * qualities[i] for i in accepted)
    ck.that(spend <= budget, f"{name}_within_budget")
    ck.that(close(spend, report["spent"]), f"{name}_spend")
    return accepted


def population(pop_seed: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Costs ~ Beta(5, 5), abilities = logistic(3 c): the documented law."""
    rng = np.random.Generator(np.random.PCG64(pop_seed))
    costs = rng.beta(5.0, 5.0, size=n)
    return costs, 1.0 / (1.0 + np.exp(-3.0 * costs))


def check_sweep_points(ck: Checks, points: list[dict], pop_seed: int, n: int, budget: float) -> None:
    """Checks shared by the figure sweep and the ``simulate`` verb."""
    costs, abilities = population(pop_seed, n)
    optimum = brute_force_typo(costs, abilities, budget)
    for pt in points:
        workers = pt["workers"]
        ck.that([w["cost"] for w in workers] == costs.tolist(), "population_costs")
        qualities = [w["quality"] for w in workers]
        pp = pt["pp"]
        chosen = [i for i, x in enumerate(pp["x"]) if x]
        ck.that(math.fsum(costs[i] for i in chosen) <= budget, "pp_within_budget")
        ck.that(close(pp["utility"], typo_from_abilities(abilities, chosen)), "pp_typo_value")
        ck.that(close(pp["utility"], optimum), "pp_brute_force")
        for name in ("cp", "cp_no_bonus"):
            accepted = check_common_policy(ck, name, pt[name], qualities, costs, budget)
            ck.that(
                close(pt[name]["utility"], typo_from_abilities(abilities, accepted)),
                f"{name}_typo_value",
            )
        ck.that(
            pt["cp_no_bonus"]["utility"] <= pt["cp"]["utility"] * (1 + REL_TOL)
            and pt["cp"]["utility"] <= pp["utility"] * (1 + REL_TOL),
            "no_bonus_le_cp_le_pp",
        )


def sweep_config(pop_seed: int, n: int, policies: list[dict], budget: float) -> dict:
    return {
        "population": {"generator": {"n": n, "seed": pop_seed}},
        "utility": {"kind": "typo", "M": M},
        "bonus_policies": policies,
        "budget": budget,
        "seed": pop_seed,
    }


def derived_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


# ---------------------------------------------------------------------------
# figure-sweep: the paper's typo experiment, one run_scenario per op
# ---------------------------------------------------------------------------

SWEEP = [{"kind": "threshold", "m": m, "M": M} for m in range(15, M + 1)] + [
    {"kind": "linear", "M": M}
]
SWEEP_N = 15
SWEEP_BUDGET = 4.0


class FigureSweep:
    """Each op runs the 12-point bonus-policy sweep on a fresh population
    and writes its figure data, as ``demos/05_typo_simulation.py`` does."""

    def __init__(self, seed: int, workdir: Path) -> None:
        from crowdprice import scenario

        self.scenario = scenario
        self.seed = seed
        self.outdir = workdir / "figure"
        self.tracer = None

    def _op(self, pop_seed: int, policies: list[dict]) -> Op:
        sc = self.scenario.Scenario.from_config(
            sweep_config(pop_seed, SWEEP_N, policies, SWEEP_BUDGET)
        )

        def call():
            result = self.scenario.run_scenario(sc)
            return result, self.scenario.emit_plot_data(result, self.outdir)

        def check(out, ck: Checks) -> None:
            result, files = out
            points = result.to_jsonable()["points"]
            ck.that(len(points) == len(policies), "sweep_points")
            check_sweep_points(ck, points, pop_seed, SWEEP_N, SWEEP_BUDGET)
            ck.that(all(Path(f).is_file() for f in files), "figure_files")
            rows = (self.outdir / "utilities.csv").read_text().splitlines()
            ck.that(len(rows) == len(policies) + 1, "figure_rows")

        return Op("sweep", call, check)

    def warm_up(self) -> list[Op]:
        # two points: loads scipy.interpolate and fills the b_m tables
        return [self._op(derived_seed(self.seed, 1, 0), [SWEEP[0], SWEEP[-1]])]

    def round(self, k: int) -> list[Op]:
        return [self._op(derived_seed(self.seed, 0, k), SWEEP)]


# ---------------------------------------------------------------------------
# cp-scale: common pricing on pools of 32-48 workers
# ---------------------------------------------------------------------------

# The in-regime curve families of tests/conftest.py; each returns
# (curve, cost_lo, cost_hi).


def unresponsive_curve(rng):
    a = float(rng.uniform(0.5, 1.0))
    b = float(rng.uniform(0.3, 0.95))
    return (lambda c: a * c**b), 0.05, 1.0


def subresponsive_curve(rng):
    b = float(rng.uniform(0.75, 0.9))
    d = (1.0 - b) * 1.0 + 0.02
    return (lambda c: c**b - d), 0.35, 1.0


def responsive_curve(rng):
    a = float(rng.uniform(0.5, 1.0))
    e = float(rng.uniform(1.3, 3.0))
    return (lambda c: a * c**e), 0.05, 1.0


FAMILIES = (unresponsive_curve, subresponsive_curve, responsive_curve)
CP_N = (32, 48)
# Each seeded cp-scale round draws one pool from every pairing of these
# halves of n and of the budget fraction, so that rounds hold a like
# amount of work (the oracle's time grows as n^4) while every pairing is
# measured: independent draws over the whole ranges spread ops_per_s by
# 11 % and op_p50_ms by 16 % across five seeds.
CP_STRATA = [(n, f) for n in ((32, 40), (41, 48)) for f in ((0.05, 0.675), (0.675, 1.3))]


def curve_pool(rng, family, n_lo: int, n_hi: int, frac_lo: float = 0.05, frac_hi: float = 1.3):
    """Draws in the order of the test corpus: curve, n ~ U{n_lo..n_hi},
    sorted costs ~ U(lo, hi), budget = U(frac_lo, frac_hi) * sum(costs)."""
    from crowdprice.workers import WorkerProfile

    curve, lo, hi = family(rng)
    n = int(rng.integers(n_lo, n_hi + 1))
    costs = np.sort(rng.uniform(lo, hi, size=n))
    budget_fraction = rng.uniform(frac_lo, frac_hi)
    workers = [WorkerProfile(float(curve(c)), float(c), i + 1) for i, c in enumerate(costs)]
    return workers, float(budget_fraction * costs.sum())


def binary_miss_pool():
    """The ``cp_res(mode="binary")`` miss of ROADMAP item 2b: responsive
    draw #21 (n = 36, 0-based) of the stream rng(2026) that first draws 40
    unresponsive and 40 subresponsive pools, n ~ U{20..40}."""
    rng = np.random.default_rng(2026)
    for family in FAMILIES:
        for index in range(40):
            pool = curve_pool(rng, family, 20, 40)
            if family is responsive_curve and index == 21:
                return pool
    raise AssertionError("unreachable")


class CpScale:
    """Each op prices one pool four ways: the fitted-regime solver (the
    scenario runner's own dispatch), the exact oracle, no bonus, greedy.

    The unresponsive and subresponsive pools are drawn from the seed.  The
    responsive pools are the same in every run: ``cp_res``'s binary search
    misses on some responsive pools (ROADMAP item 2b), and a seeded pool
    that hits it would make the share of failed ops depend on the seed."""

    KNOWN_FAULT = "cp_res_binary_miss"

    def __init__(self, seed: int, workdir: Path) -> None:
        from crowdprice import common, personalized, scenario, utilities, workers

        self.common, self.personalized, self.workers = common, personalized, workers
        self.scenario = scenario
        self.utilities = {"typo": utilities.make_typo(M, 1), "additive": utilities.make_additive()}
        self.seed = seed
        self.tracer = None
        rng = np.random.default_rng([2026, 2])
        self.fixed = [
            ("responsive-typo", *curve_pool(rng, responsive_curve, *CP_N), "typo"),
            ("responsive-additive", *curve_pool(rng, responsive_curve, *CP_N), "additive"),
            ("binary-miss-typo", *binary_miss_pool(), "typo"),
        ]

    def _binary_miss(self, pool, budget, utility, value: float) -> bool:
        """Whether a regime solver's ``value`` is ``cp_res``'s binary search
        falling short of its own linear scan (the fault of ROADMAP item 2b)."""
        if self.workers.empirical_regime(pool) not in (
            self.workers.Regime.EFFORT_RESPONSIVE, self.workers.Regime.UNCLASSIFIED
        ):
            return False
        binary = self.common.cp_res(pool, budget, utility, diagnostics=False).utility_value
        linear = self.common.cp_res(pool, budget, utility, mode="linear", diagnostics=False)
        return close(value, binary) and binary < linear.utility_value and not close(
            binary, linear.utility_value
        )

    def _op(self, kind, pool, budget, utility_kind) -> Op:
        utility = self.utilities[utility_kind]
        qualities = [w.quality for w in pool]
        costs = [w.cost for w in pool]
        instance = self.personalized.GkpInstance(tuple(pool), budget, utility)
        # cp mode auto, oracle_max_n 16, no cross-check: the runner's defaults
        settings = self.scenario.Scenario(
            population_file=None, generator={}, utility={}, bonus_policies=(),
            budget=budget, seed=0,
        )

        def call():
            regime = self.workers.empirical_regime(pool)
            return {
                "regime": self.scenario._solve_cp(settings, pool, utility, regime),
                "oracle": self.common.cp_exact_oracle(pool, budget, utility, max_n=len(pool)),
                "no_bonus": self.common.cp_no_bonus(pool, budget, utility),
                "greedy": self.personalized.modified_greedy(instance)[0],
            }

        def value(chosen):
            if utility_kind == "additive":
                return math.fsum(qualities[i] for i in chosen)
            return typo_m1_from_qualities(qualities, chosen)

        def check(out, ck: Checks) -> None:
            for name in ("regime", "oracle", "no_bonus"):
                rep = out[name]
                report = {
                    "base": rep.policy.base,
                    "bonus": rep.policy.bonus,
                    "accepted": rep.accepted,
                    "spent": rep.spent,
                }
                accepted = check_common_policy(ck, name, report, qualities, costs, budget)
                ck.that(close(rep.utility_value, value(accepted)), f"{name}_value")
            greedy = out["greedy"]
            ck.that(math.fsum(costs[i] for i in greedy.chosen) <= budget, "greedy_within_budget")
            ck.that(close(greedy.utility_value, value(greedy.chosen)), "greedy_value")
            oracle = out["oracle"].utility_value
            regime = out["regime"].utility_value
            ck.that(close(regime, oracle), "regime_equals_oracle")
            if not close(regime, oracle) and self._binary_miss(pool, budget, utility, regime):
                ck.fault = self.KNOWN_FAULT
            ck.that(oracle >= out["no_bonus"].utility_value * (1 - REL_TOL), "oracle_ge_no_bonus")
            # oracle <= personalized optimum <= 2 * greedy (greedy is a
            # 1/2-approximation for these utilities)
            ck.that(oracle <= 2.0 * greedy.utility_value * (1 + REL_TOL), "oracle_le_2_greedy")
            if utility_kind == "additive":
                bound = dantzig_bound(costs, qualities, budget)
                ck.that(oracle <= bound * (1 + REL_TOL), "oracle_le_dantzig")

        return Op(kind, call, check)

    def warm_up(self) -> list[Op]:
        rng = np.random.default_rng([self.seed, 3])
        ops = []
        for family, kind in zip(FAMILIES, ("typo", "additive", "typo")):
            pool, budget = curve_pool(rng, family, 12, 12)
            ops.append(self._op("warm-up", pool, budget, kind))
        return ops

    def round(self, k: int) -> list[Op]:
        """Four pools drawn from the seed, one per seeded curve family and
        utility, each from another stratum of ``CP_STRATA`` (the pairing
        turns with k), then the three fixed responsive pools."""
        rng = np.random.default_rng([self.seed, 2, k])
        cells = [(family, kind) for family in FAMILIES[:2] for kind in ("typo", "additive")]
        ops = []
        for j, (family, kind) in enumerate(cells):
            n_range, frac_range = CP_STRATA[(j + k) % len(CP_STRATA)]
            pool, budget = curve_pool(rng, family, *n_range, *frac_range)
            label = f"{family.__name__.split('_')[0]}-{kind}"
            ops.append(self._op(label, pool, budget, kind))
        for label, pool, budget, kind in self.fixed:
            ops.append(self._op(label, pool, budget, kind))
        return ops


# ---------------------------------------------------------------------------
# cli-cold: one fresh `python -m crowdprice.cli` process per op
# ---------------------------------------------------------------------------

POB_ARGS = ["pob", "--n", "16", "--c", "1", "--eps", "0.1"]
POB_EPS = 0.1


def write_workers(path: Path, qualities, costs) -> None:
    lines = ["id,quality,cost"] + [
        f"{i + 1},{r!r},{c!r}" for i, (r, c) in enumerate(zip(qualities, costs))
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def spawn(args: list[str], workdir: Path, op: Op, tracer) -> dict:
    """Run one CLI process to its end; returns its exit code and output."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    out_path, err_path = workdir / "stdout.txt", workdir / "stderr.txt"
    spans_path = workdir / "spans.json"
    if tracer is None:
        argv = [sys.executable, "-m", "crowdprice.cli", *args]
    else:
        argv = [sys.executable, str(HERE / "cli_traced.py"), str(time.perf_counter()),
                str(spans_path), *args]
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT, env=env)
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    op.child_cpu_s = usage.ru_utime + usage.ru_stime
    op.child_rss_kb = usage.ru_maxrss
    if tracer is not None and spans_path.exists():
        tracer.merge_json(spans_path.read_text(), parent=tracer.current())
        spans_path.unlink()
    return {
        "code": proc.returncode,
        "stdout": out_path.read_text(encoding="utf-8"),
        "stderr": err_path.read_text(encoding="utf-8"),
    }


def parse_stdout(out: dict, ck: Checks) -> dict | None:
    ck.that(out["code"] == 0, "exit_code_0")
    try:
        return json.loads(out["stdout"])
    except json.JSONDecodeError:
        ck.that(False, "json_output")
        return None


class CliCold:
    """Each op is one cold CLI process; a round runs pp, cp, poa, pob and
    simulate on 4-8 worker inputs drawn for that round."""

    # m = 1 is left out: b_1(s) rounds to 1.0 for abilities s >= ~0.78, so
    # the utility of such a point reads M (see CHANGES.md, FOUND)
    SIM_POLICIES = [
        {"kind": "threshold", "m": 13, "M": M},
        {"kind": "threshold", "m": 20, "M": M},
        {"kind": "threshold", "m": M, "M": M},
        {"kind": "linear", "M": M},
    ]

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir / "cli"
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.tracer = None

    def warm_up(self) -> list[Op]:
        # compiles and caches the package once; every op still pays the
        # interpreter start and the imports
        return [self._cli("warm-up", ["--help"], lambda out, ck: ck.that(out["code"] == 0, "exit_code_0"))]

    def _cli(self, kind: str, args: list[str], check) -> Op:
        op = Op(kind, None, check)
        op.call = lambda: spawn(args, self.workdir, op, self.tracer)
        return op

    def round(self, k: int) -> list[Op]:
        rng = np.random.default_rng([self.seed, 4, k])
        d = self.workdir / f"round{k}"
        d.mkdir(parents=True, exist_ok=True)
        return [self._pp(rng, d), self._cp(rng, d, k), self._poa(rng, d), self._pob(),
                self._simulate(rng, d)]

    def _random_workers(self, rng, path: Path):
        n = int(rng.integers(4, 9))
        qualities = rng.uniform(0.05, 1.0, size=n).tolist()
        costs = rng.uniform(0.05, 1.0, size=n).tolist()
        write_workers(path, qualities, costs)
        return qualities, costs

    def _pp(self, rng, d: Path) -> Op:
        path = d / "pp.csv"
        qualities, costs = self._random_workers(rng, path)
        budget = float(rng.uniform(0.2, 0.8)) * math.fsum(costs)
        abilities = [1.0 - (1.0 - r) ** (1.0 / M) for r in qualities]

        def check(out, ck: Checks) -> None:
            data = parse_stdout(out, ck)
            if data is None:
                return
            chosen = [i for i, x in enumerate(data["x"]) if x]
            ck.that(math.fsum(costs[i] for i in chosen) <= budget, "pp_within_budget")
            ck.that(close(data["utility"], typo_m1_from_qualities(qualities, chosen)), "pp_value")
            ck.that(close(data["utility"], brute_force_typo(costs, abilities, budget)),
                    "pp_brute_force")

        args = ["pp", "--workers", str(path), "--budget", repr(budget),
                "--utility", f"typo:M={M},m=1", "--mode", "exact"]
        return self._cli("pp", args, check)

    def _cp(self, rng, d: Path, k: int) -> Op:
        path = d / "cp.csv"
        pool, budget = curve_pool(rng, FAMILIES[k % 3], 4, 8)
        qualities = [w.quality for w in pool]
        costs = [w.cost for w in pool]
        write_workers(path, qualities, costs)

        def check(out, ck: Checks) -> None:
            data = parse_stdout(out, ck)
            if data is None:
                return
            accepted = check_common_policy(ck, "cp", data, qualities, costs, budget)
            ck.that(close(data["utility"], math.fsum(qualities[i] for i in accepted)), "cp_value")
            ck.that(data["utility"] <= brute_force_additive(costs, qualities, budget)
                    * (1 + REL_TOL), "cp_le_pp")

        args = ["cp", "--workers", str(path), "--budget", repr(budget), "--regime", "auto"]
        return self._cli("cp", args, check)

    def _poa(self, rng, d: Path) -> Op:
        path = d / "poa.csv"
        qualities, costs = self._random_workers(rng, path)
        budget = float(rng.uniform(0.2, 0.8)) * math.fsum(costs)

        def check(out, ck: Checks) -> None:
            data = parse_stdout(out, ck)
            if data is None:
                return
            if data["skipped"]:
                ck.that(bool(data["reason"]), "poa_skip_reason")
                return
            cert = data["certificate"]
            ck.that(close(cert["u_pp"], brute_force_additive(costs, qualities, budget)),
                    "poa_u_pp_brute_force")
            ck.that(cert["delta"] >= 1.0, "poa_delta_ge_1")
            ck.that(data["half_bound_holds"] is True, "poa_half_bound")
            ck.that(data["gamma_bound_holds"] is True, "poa_gamma_bound")

        args = ["poa", "--workers", str(path), "--budget", repr(budget)]
        return self._cli("poa", args, check)

    def _pob(self) -> Op:
        def check(out, ck: Checks) -> None:
            data = parse_stdout(out, ck)
            if data is None:
                return
            ck.that(data["ratio"] <= POB_EPS and data["bound_holds"] is True, "pob_ratio_le_eps")

        return self._cli("pob", POB_ARGS, check)

    def _simulate(self, rng, d: Path) -> Op:
        n = int(rng.integers(4, 9))
        pop_seed = int(rng.integers(0, 2**31))
        budget = float(rng.uniform(0.3, 0.8)) * 0.5 * n
        config = d / "scenario.json"
        config.write_text(json.dumps(sweep_config(pop_seed, n, self.SIM_POLICIES, budget)))
        outdir = d / "simulate"

        def check(out, ck: Checks) -> None:
            data = parse_stdout(out, ck)
            if data is None:
                return
            ck.that(all((outdir / f).is_file() for f in data["files"]), "simulate_files")
            result = json.loads((outdir / "result.json").read_text())
            ck.that(len(result["points"]) == len(self.SIM_POLICIES), "sweep_points")
            check_sweep_points(ck, result["points"], pop_seed, n, budget)

        args = ["simulate", "--config", str(config), "--out", str(outdir)]
        return self._cli("simulate", args, check)


WORKLOADS = {"figure-sweep": FigureSweep, "cp-scale": CpScale, "cli-cold": CliCold}
