"""Posted pricing for budget-constrained worker recruitment.

Personalized and common posted-pricing policies, with and without bonus
payments: exact solvers, structure-aware polynomial algorithms, greedy
approximation with a guaranteed ratio, and the bonus/agnosticity
comparisons between the four policy families.

The names below load with their module on first access (PEP 562), so
``import crowdprice`` loads no submodule and a CLI verb loads only the
modules it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "workers": (
        "WorkerProfile", "CommonPolicy", "PersonalizedPolicy", "CostQualityCurve",
        "Regime", "decide", "expected_payment", "classify_regime",
        "sort_by_bang_per_buck", "load_workers",
    ),
    "utilities": (
        "UtilityFunction", "make_additive", "make_typo", "make_binary_labeling",
        "weakly_majorizes", "majorizes", "utility_from_config",
    ),
    "bonus": (
        "BonusPolicy", "AbilityProfile", "bm", "invert_bm", "translate",
        "generate_population", "threshold_policy", "linear_policy",
    ),
    "personalized": (
        "GkpInstance", "Selection", "modified_greedy", "solve_gkp_exact",
        "solve_gkp_relaxed", "policy_from_selection", "solve_opp_no_bonus",
    ),
    "halfplane": ("HalfPlane", "FeasibilityResult", "feasible_point", "repair_strict"),
    "common": (
        "StructureKind", "StructureClass", "CpSolveReport", "accepted_set",
        "classify_structure", "structure_of", "cp_unres", "cp_subres", "cp_res",
        "cp_no_bonus", "cp_exact_oracle", "cp_for_regime",
    ),
    "comparisons": (
        "PobInstance", "PoaCertificate", "build_pob_instance", "pob_ratio",
        "poa_constants", "poa_audit",
    ),
    "scenario": ("Scenario", "RunResult", "run_scenario", "emit_plot_data"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULE_OF})
