"""Posted pricing for budget-constrained worker recruitment.

Personalized and common posted-pricing policies, with and without bonus
payments: exact solvers, structure-aware polynomial algorithms, greedy
approximation with a guaranteed ratio, and the bonus/agnosticity
comparisons between the four policy families.
"""

__version__ = "0.1.0"

from .workers import (
    CommonPolicy,
    CostQualityCurve,
    PersonalizedPolicy,
    Regime,
    WorkerProfile,
    classify_regime,
    decide,
    expected_payment,
    load_workers,
    sort_by_bang_per_buck,
)
from .utilities import (
    UtilityFunction,
    make_additive,
    make_binary_labeling,
    make_typo,
    majorizes,
    utility_from_config,
    weakly_majorizes,
)
from .bonus import (
    AbilityProfile,
    BonusPolicy,
    bm,
    generate_population,
    invert_bm,
    linear_policy,
    threshold_policy,
    translate,
)
from .personalized import (
    GkpInstance,
    Selection,
    modified_greedy,
    policy_from_selection,
    solve_gkp_exact,
    solve_gkp_relaxed,
    solve_opp_no_bonus,
)
from .halfplane import FeasibilityResult, HalfPlane, feasible_point, repair_strict
from .common import (
    CpSolveReport,
    StructureClass,
    StructureKind,
    accepted_set,
    classify_structure,
    cp_exact_oracle,
    cp_for_regime,
    cp_no_bonus,
    cp_res,
    cp_subres,
    cp_unres,
    structure_of,
)
from .comparisons import (
    PoaCertificate,
    PobInstance,
    build_pob_instance,
    poa_audit,
    poa_constants,
    pob_ratio,
)
from .scenario import RunResult, Scenario, emit_plot_data, run_scenario

__all__ = [
    "__version__",
    # workers
    "WorkerProfile", "CommonPolicy", "PersonalizedPolicy", "CostQualityCurve",
    "Regime", "decide", "expected_payment", "classify_regime",
    "sort_by_bang_per_buck", "load_workers",
    # utilities
    "UtilityFunction", "make_additive", "make_typo", "make_binary_labeling",
    "weakly_majorizes", "majorizes", "utility_from_config",
    # bonus
    "BonusPolicy", "AbilityProfile", "bm", "invert_bm", "translate",
    "generate_population", "threshold_policy", "linear_policy",
    # personalized
    "GkpInstance", "Selection", "modified_greedy", "solve_gkp_exact",
    "solve_gkp_relaxed", "policy_from_selection", "solve_opp_no_bonus",
    # halfplane
    "HalfPlane", "FeasibilityResult", "feasible_point", "repair_strict",
    # common
    "StructureKind", "StructureClass", "CpSolveReport", "accepted_set",
    "classify_structure", "structure_of", "cp_unres", "cp_subres", "cp_res",
    "cp_no_bonus", "cp_exact_oracle", "cp_for_regime",
    # comparisons
    "PobInstance", "PoaCertificate", "build_pob_instance", "pob_ratio",
    "poa_constants", "poa_audit",
    # scenario
    "Scenario", "RunResult", "run_scenario", "emit_plot_data",
]
