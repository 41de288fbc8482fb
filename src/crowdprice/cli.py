"""Command-line interface.

Verbs: ``pp`` (personalized pricing), ``cp`` (common pricing), ``pob``
(power-of-bonus instance), ``poa`` (price-of-agnosticity certificate),
``simulate`` (scenario runner), ``audit`` (property suites).  All verbs
print JSON to stdout.  Exit codes: 0 success, 2 config/usage error,
3 instance too large for an exact solver, 4 internal invariant breach.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
from pathlib import Path

# The package makes no BLAS call (tests/test_imports.py guards this), so an
# OpenBLAS helper thread in a verb process only busy-waits.  Before numpy
# loads, and unless the caller chose a thread count, the process runs numpy
# on one BLAS thread.  A process that loaded numpy first is left alone.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if "numpy" not in sys.modules and not any(v in os.environ for v in _BLAS_THREAD_VARS):
    os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))

import click

from .bonus import bm, invert_bm
from .errors import ConfigError, InvariantBreach, SizeError
from .utilities import (
    audit_declared_flags,
    make_additive,
    make_binary_labeling,
    make_typo,
    utility_from_config,
)
from .workers import Regime, empirical_regime, load_workers, sort_by_bang_per_buck

# Every verb loads the modules imported above.  Each verb imports its
# solvers itself, so a cold process loads only what its verb runs.


def _parse_utility(spec: str):
    """Parse 'additive', 'binary_labeling', or 'typo:M=25,m=1'."""
    name, _, params = spec.partition(":")
    cfg: dict = {"kind": name.strip()}
    if params:
        for item in params.split(","):
            key, _, value = item.partition("=")
            cfg[key.strip()] = value.strip()
    if cfg["kind"] == "typo":
        cfg["M"] = int(cfg.get("M", 25))
        cfg["m"] = int(cfg.get("m", 1))
    try:
        return utility_from_config(cfg)
    except (KeyError, ValueError) as exc:
        raise click.UsageError(f"bad --utility {spec!r}: {exc}") from exc


def _emit(payload) -> None:
    click.echo(json.dumps(payload, indent=2, sort_keys=True))


def _wrap(fn):
    """Map package exceptions to the documented exit codes."""

    def runner(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (ConfigError, ValueError) as exc:
            if isinstance(exc, SizeError):
                click.echo(f"error: {exc}", err=True)
                sys.exit(3)
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)
        except InvariantBreach as exc:
            click.echo(f"internal invariant breach: {exc}", err=True)
            sys.exit(4)

    return runner


@click.group()
def main() -> None:
    """Posted-pricing solvers for budget-constrained worker recruitment."""


@main.command("pp")
@click.option("--workers", "workers_path", required=True, type=click.Path(exists=True))
@click.option("--budget", required=True, type=float)
@click.option("--utility", "utility_spec", default="additive", show_default=True)
@click.option(
    "--mode",
    type=click.Choice(["greedy", "exact", "relaxed"]),
    default="greedy",
    show_default=True,
)
@_wrap
def pp_command(workers_path: str, budget: float, utility_spec: str, mode: str) -> None:
    """Solve personalized pricing for a worker file."""
    from .personalized import GkpInstance, modified_greedy, solve_gkp_exact, solve_gkp_relaxed

    workers = load_workers(workers_path)
    utility = _parse_utility(utility_spec)
    instance = GkpInstance(workers=tuple(workers), budget=budget, utility=utility)
    if mode == "relaxed":
        order = sort_by_bang_per_buck(workers)
        sorted_instance = GkpInstance(
            workers=tuple(workers[i] for i in order), budget=budget, utility=utility
        )
        relaxed = solve_gkp_relaxed(sorted_instance)
        _emit(
            {
                "mode": "relaxed",
                "value": relaxed.value,
                "z_by_bang_per_buck": list(relaxed.z),
                "worker_order": [workers[i].id for i in order],
            }
        )
        return
    if mode == "exact":
        selection = solve_gkp_exact(instance)
    else:
        selection = modified_greedy(instance)[0]
    _emit(selection.to_jsonable(workers, mode))


_REGIME_NAMES = {
    Regime.EFFORT_UNRESPONSIVE: "unres",
    Regime.EFFORT_SUBRESPONSIVE: "subres",
    Regime.EFFORT_RESPONSIVE: "res",
}


@main.command("cp")
@click.option("--workers", "workers_path", required=True, type=click.Path(exists=True))
@click.option("--budget", required=True, type=float)
@click.option("--utility", "utility_spec", default="additive", show_default=True)
@click.option(
    "--regime",
    type=click.Choice(["unres", "subres", "res", "auto"]),
    default="auto",
    show_default=True,
)
@click.option("--oracle", is_flag=True, help="Use the exact (p,q)-plane oracle.")
@click.option("--no-bonus", "no_bonus", is_flag=True, help="Force the bonus to zero.")
@_wrap
def cp_command(
    workers_path: str,
    budget: float,
    utility_spec: str,
    regime: str,
    oracle: bool,
    no_bonus: bool,
) -> None:
    """Solve common pricing for a worker file."""
    from .common import cp_exact_oracle, cp_for_regime, cp_no_bonus, cp_res, cp_subres, cp_unres

    workers = load_workers(workers_path)
    utility = _parse_utility(utility_spec)
    if no_bonus:
        report = cp_no_bonus(workers, budget, utility)
    elif oracle:
        report = cp_exact_oracle(workers, budget, utility)
    elif regime == "auto":
        fitted = empirical_regime(workers)
        report = cp_for_regime(workers, budget, utility, fitted)
        regime = _REGIME_NAMES.get(fitted, fitted.value)
    else:
        solver = {"unres": cp_unres, "subres": cp_subres, "res": cp_res}[regime]
        report = solver(workers, budget, utility)
    payload = report.to_jsonable()
    payload["regime"] = regime if not (oracle or no_bonus) else None
    _emit(payload)


@main.command("pob")
@click.option("--n", required=True, type=int)
@click.option("--c", required=True, type=float)
@click.option("--eps", required=True, type=float)
@_wrap
def pob_command(n: int, c: float, eps: float) -> None:
    """Power-of-bonus ratio on the three-group worst-case instance."""
    from .comparisons import build_pob_instance, pob_ratio

    instance = build_pob_instance(n, c, eps)
    ratio = pob_ratio(instance)
    _emit(
        {
            "n": n,
            "c": c,
            "epsilon": eps,
            "budget": instance.budget,
            "ratio": ratio,
            "bound_holds": ratio <= eps + 1e-12,
        }
    )


@main.command("poa")
@click.option("--workers", "workers_path", required=True, type=click.Path(exists=True))
@click.option("--budget", required=True, type=float)
@click.option("--utility", "utility_spec", default="additive", show_default=True)
@_wrap
def poa_command(workers_path: str, budget: float, utility_spec: str) -> None:
    """Price-of-agnosticity certificate and bound check."""
    from .comparisons import poa_audit

    workers = load_workers(workers_path)
    utility = _parse_utility(utility_spec)
    result = poa_audit(workers, budget, utility)
    payload: dict = {"skipped": result.skipped, "reason": result.reason}
    if result.certificate is not None:
        cert = result.certificate
        payload["certificate"] = {
            "k_budget": cert.k_budget,
            "gamma": cert.gamma,
            "delta": cert.delta,
            "u_pp": cert.u_pp,
            "u_cp_scaled": cert.u_cp_scaled,
        }
        payload["half_bound_holds"] = result.half_bound_holds
        payload["gamma_bound_holds"] = result.gamma_bound_holds
    _emit(payload)


@main.command("simulate")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_dir", default=None, help="Output directory (overrides config).")
@_wrap
def simulate_command(config_path: str, out_dir: str | None) -> None:
    """Run a scenario config end to end and write result files.

    The output directory is made before the run, so an unwritable target
    fails before any work; if the run fails, a directory made here is
    removed again while it is still empty."""
    from .scenario import Scenario, emit_plot_data, run_scenario

    scenario = Scenario.from_file(config_path)
    target = out_dir or scenario.output_dir or os.environ.get("CROWDPRICE_OUT", "crowdprice-out")
    outdir = Path(target)

    def unwritable(exc: OSError) -> ConfigError:
        return ConfigError(f"cannot write the results to {target!r}: {exc}")

    created = not outdir.exists()
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise unwritable(exc) from exc
    try:
        result = run_scenario(scenario)
    except BaseException:
        if created:
            with contextlib.suppress(OSError):
                outdir.rmdir()
        raise
    try:
        (outdir / "result.json").write_text(result.to_json() + "\n", encoding="utf-8")
        written = emit_plot_data(result, outdir)
    except OSError as exc:
        raise unwritable(exc) from exc
    _emit(
        {
            "output_dir": str(outdir),
            "files": ["result.json"] + [p.name for p in written],
            "points": len(result.points),
        }
    )


@main.command("audit")
@click.option("--trials", default=1000, show_default=True, type=int)
@click.option("--seed", default=0, show_default=True, type=int)
@_wrap
def audit_command(trials: int, seed: int) -> None:
    """Run the randomized property suites on the built-in utilities."""
    report: dict = {}
    failures = 0
    for utility in (make_additive(), make_typo(25, 1), make_binary_labeling()):
        audits = audit_declared_flags(utility, trials=trials, seed=seed)
        report[utility.name] = {
            name: {
                "passed": audit.passed,
                "trials": audit.trials,
                "violations": audit.violations,
                "worst": audit.worst_violation,
            }
            for name, audit in audits.items()
        }
        failures += sum(0 if a.passed else 1 for a in audits.values())

    # residual round trip: qualities must map to abilities and back exactly
    grid = [bm(invert_bm(r / 100.0, 25, m), 25, m) - r / 100.0
            for m in (1, 8, 14, 19, 23) for r in range(0, 101)]
    worst_roundtrip = max(abs(v) for v in grid)
    report["invert_bm_roundtrip"] = {"worst": worst_roundtrip, "passed": worst_roundtrip <= 1e-9}
    if worst_roundtrip > 1e-9:
        failures += 1

    _emit(report)
    if failures:
        raise InvariantBreach(f"{failures} property audit(s) failed")


if __name__ == "__main__":
    main()
