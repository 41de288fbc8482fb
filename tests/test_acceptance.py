"""Acceptance suite: one test per exit criterion, one printed line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Criterion 2 is expected to fail: the closed-form fractional
relaxation is provably not an upper bound for the coverage utility (see
test_personalized.TestRelaxation.test_known_counterexample_for_typo_utility
for a frozen 4-worker counterexample); the criterion is kept faithful to
its statement rather than weakened.
"""

import math
import time

import numpy as np
import pytest

from conftest import (
    curve_profile,
    random_gkp_instances,
    responsive_curve,
    subresponsive_curve,
    unresponsive_curve,
)
from crowdprice import (
    GkpInstance,
    Regime,
    WorkerProfile,
    accepted_set,
    build_pob_instance,
    cp_exact_oracle,
    cp_no_bonus,
    cp_res,
    cp_subres,
    cp_unres,
    make_additive,
    make_binary_labeling,
    make_typo,
    modified_greedy,
    poa_audit,
    pob_ratio,
    run_scenario,
    solve_gkp_exact,
    solve_gkp_relaxed,
    solve_opp_no_bonus,
    sort_by_bang_per_buck,
    structure_of,
)
from crowdprice.bonus import bm_array, invert_bm_array
from crowdprice.common import StructureKind
from crowdprice.halfplane import HalfPlane, feasible_point
from crowdprice.scenario import Scenario
from crowdprice.utilities import (
    check_nondecreasing,
    check_schur_convex,
    check_subadditive,
    check_symmetric,
)

CORPUS_SEED = 20260810


def _line(number: int, ok: bool, text: str) -> None:
    print(f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'} {text}")


def _corpus():
    return random_gkp_instances(200, seed=CORPUS_SEED, max_n=14)


def test_c01_greedy_half_approximation():
    started = time.time()
    violations = 0
    for inst in _corpus():
        exact = solve_gkp_exact(inst)
        greedy, _ = modified_greedy(inst)
        if greedy.utility_value < 0.5 * exact.utility_value:
            violations += 1
    elapsed = time.time() - started
    ok = violations == 0 and elapsed < 60.0
    _line(1, ok, f"greedy >= 1/2 exact on 200 instances ({violations} violations, {elapsed:.1f}s)")
    assert violations == 0
    assert elapsed < 60.0


def test_c02_relaxation_dominance():
    violations = 0
    worst = 0.0
    for inst in _corpus():
        exact = solve_gkp_exact(inst)
        order = sort_by_bang_per_buck(inst.workers)
        relaxed = solve_gkp_relaxed(
            GkpInstance(
                workers=tuple(inst.workers[i] for i in order),
                budget=inst.budget,
                utility=inst.utility,
            )
        )
        if relaxed.value < exact.utility_value:
            violations += 1
            worst = max(worst, exact.utility_value - relaxed.value)
    ok = violations == 0
    _line(2, ok, f"relaxation dominance on 200 instances ({violations} violations, worst gap {worst:.3f})")
    assert violations == 0, (
        f"{violations}/200 instances violate the closed-form relaxation bound "
        f"(worst gap {worst:.3f}); the underlying lemma's majorization step is "
        "false for the coverage utility — see the frozen counterexample in "
        "test_personalized.py and the project notes"
    )


def test_c03_personalized_bonus_is_free():
    mismatches = 0
    for inst in _corpus():
        if solve_opp_no_bonus(inst, mode="exact").utility_value != solve_gkp_exact(inst).utility_value:
            mismatches += 1
    _line(3, mismatches == 0, f"no-bonus personalized optimum equals unrestricted on 200 instances")
    assert mismatches == 0


def test_c04_structure_theorem():
    rng = np.random.default_rng(404)
    regimes = [
        ("sqrt", lambda c: math.sqrt(c), 0.1, 1.0, "suffix"),
        ("x^0.9-0.12", lambda c: c**0.9 - 0.12, 0.3, 0.95, "interval"),
        ("x^2", lambda c: c * c, 0.1, 1.0, "blocking"),
    ]
    total_other = 0
    for label, curve, lo, hi, expect in regimes:
        workers = curve_profile(curve, rng, 10, lo, hi)
        maxcost = max(w.cost for w in workers)
        other = 0
        for _ in range(1000):
            p, q = rng.uniform(0.0, 2.0 * maxcost, size=2)
            accepted, _ = accepted_set(workers, (float(p), float(q)))
            sc = structure_of(workers, accepted)
            empty = sc.kind is StructureKind.PICKING and sc.lower is None
            full = sc.kind is StructureKind.PICKING_SUFFIX and sc.lower == 1
            if expect == "suffix":
                fine = empty or sc.kind is StructureKind.PICKING_SUFFIX
            elif expect == "interval":
                fine = sc.is_picking_interval or empty
            else:  # decliners form a contiguous run, possibly touching an end
                prefix_accepted = sc.kind is StructureKind.PICKING and sc.lower == 1
                fine = (
                    sc.kind is StructureKind.BLOCKING
                    or sc.kind is StructureKind.PICKING_SUFFIX
                    or prefix_accepted
                    or empty
                    or full
                )
            if not fine:
                other += 1
        total_other += other
    _line(4, total_other == 0, f"1000 policies per regime classify per the structure theorem ({total_other} Other)")
    assert total_other == 0


def test_c05_regime_solvers_match_oracle():
    rng = np.random.default_rng(505)
    utility = make_typo(25, 1)
    cases = [
        (unresponsive_curve, lambda w, b: [cp_unres(w, b, utility, diagnostics=False)]),
        (
            subresponsive_curve,
            lambda w, b: [
                cp_subres(w, b, utility, mode="binary", diagnostics=False),
                cp_subres(w, b, utility, mode="linear", diagnostics=False),
            ],
        ),
        (
            responsive_curve,
            lambda w, b: [
                cp_res(w, b, utility, mode="binary", diagnostics=False),
                cp_res(w, b, utility, mode="linear", diagnostics=False),
            ],
        ),
    ]
    mismatches = 0
    for maker, solve in cases:
        for _ in range(100):
            curve, lo, hi = maker(rng)
            workers = curve_profile(curve, rng, int(rng.integers(2, 13)), lo, hi)
            budget = float(rng.uniform(0.05, 1.3) * sum(w.cost for w in workers))
            oracle = cp_exact_oracle(workers, budget, utility)
            reports = solve(workers, budget)
            for rep in reports:
                if abs(rep.utility_value - oracle.utility_value) > 1e-9:
                    mismatches += 1
            if len(reports) == 2 and abs(reports[0].utility_value - reports[1].utility_value) > 1e-9:
                mismatches += 1
    _line(5, mismatches == 0, f"regime solvers equal the oracle on 100 in-regime instances each ({mismatches} mismatches)")
    assert mismatches == 0


def test_c06_power_of_bonus():
    reference = pob_ratio(build_pob_instance(16, 1.0, 0.1))
    ok_ref = abs(reference - 0.1) <= 1e-12
    grid_ok = True
    for n in (4, 8, 16, 32):
        for eps in (0.0, 0.1, 0.5, 0.9):
            inst = build_pob_instance(n, 1.0, eps)
            if pob_ratio(inst) > eps + 1e-12:
                grid_ok = False
    _line(6, ok_ref and grid_ok, f"pob_ratio(16,1,0.1) = {reference:.12f}; bound holds on the n x eps grid")
    assert ok_ref
    assert grid_ok


def test_c07_price_of_agnosticity():
    rng = np.random.default_rng(707)
    audited = failures = 0
    while audited < 100:
        n = int(rng.integers(4, 13))
        workers = [
            WorkerProfile(float(rng.uniform(0.2, 0.9)), float(rng.uniform(0.05, 0.4)), i)
            for i in range(n)
        ]
        budget = float(rng.uniform(0.4, 0.9) * sum(w.cost for w in workers))
        result = poa_audit(workers, budget, make_typo(25, 1))
        if result.skipped:
            continue
        audited += 1
        if not result.half_bound_holds or result.certificate.delta < 1.0 - 1e-12:
            failures += 1
        additive = poa_audit(workers, budget, make_additive())
        if not additive.skipped and not (additive.half_bound_holds and additive.gamma_bound_holds):
            failures += 1
    _line(7, failures == 0, f"PoA bounds on 100 gated instances ({failures} failures)")
    assert failures == 0


def test_c08_simulation_reproduction():
    started = time.time()
    scenario = Scenario.from_config(
        {
            "population": {"generator": {"n": 15, "seed": 9}},
            "utility": {"kind": "typo", "M": 25},
            "bonus_policies": [
                {"kind": "threshold", "m": m, "M": 25} for m in range(15, 26)
            ] + [{"kind": "linear", "M": 25}],
            "budget": 4.0,
            "seed": 9,
        }
    )
    result = run_scenario(scenario)
    points = result.points
    threshold_points = points[:11]  # m = 15..25 in order

    pp_values = [pt.pp.utility_value for pt in points]
    a_ok = max(pp_values) - min(pp_values) <= 1e-9

    b_every = all(pt.cp.utility_value >= pt.cp_no_bonus.utility_value - 1e-12 for pt in points)
    best = max(points, key=lambda pt: pt.cp.utility_value)
    b_strict = best.cp.utility_value > best.cp_no_bonus.utility_value + 1e-9

    c_ok = all(
        pt.cp.policy.base == 0.0
        for pt in points
        if pt.regime is Regime.EFFORT_UNRESPONSIVE
    )

    labels = [pt.regime for pt in threshold_points]
    first_shift = next(
        (i for i, reg in enumerate(labels) if reg is not Regime.EFFORT_UNRESPONSIVE), len(labels)
    )
    m23 = labels[23 - 15]
    d_ok = (
        labels[0] is Regime.EFFORT_UNRESPONSIVE
        and m23 is Regime.EFFORT_RESPONSIVE
        and all(reg is Regime.EFFORT_UNRESPONSIVE for reg in labels[:first_shift])
        and all(reg is not Regime.EFFORT_UNRESPONSIVE for reg in labels[first_shift : 23 - 15 + 1])
    )
    elapsed = time.time() - started
    ok = a_ok and b_every and b_strict and c_ok and d_ok and elapsed < 300.0
    _line(
        8,
        ok,
        f"simulation sweep: pp-invariant={a_ok} bonus-gap={b_every and b_strict} "
        f"zero-base={c_ok} regimes={d_ok} ({elapsed:.1f}s)",
    )
    assert a_ok, "personalized optimum must not depend on the bonus policy"
    assert b_every and b_strict
    assert c_ok
    assert d_ok
    assert elapsed < 300.0


def test_c09_numerical_kernels():
    # quality -> ability -> quality residual round trip, full grid
    worst_residual = 0.0
    for m in (1, 8, 14, 19, 23):
        grid = np.linspace(0.0, 1.0, 1000)
        back = bm_array(invert_bm_array(grid, 25, m), 25, m)
        worst_residual = max(worst_residual, float(np.max(np.abs(back - grid))))
    residual_ok = worst_residual <= 1e-9

    # ability round trip where the tail function is invertible in float64:
    # where b' < 1e-6, one quality-space ulp already moves the ability by
    # more than 1e-9, so those saturated points are excluded
    worst_ability = 0.0
    kept = 0
    for m in (1, 8, 14, 19, 23):
        for s in np.linspace(0.0, 1.0, 1000):
            if 0.0 < s < 1.0:
                slope = m * math.comb(25, m) * s ** (m - 1) * (1.0 - s) ** (25 - m)
                if slope < 1e-6:
                    continue
            kept += 1
            s_val = float(s)
            round_trip = float(invert_bm_array(bm_array(np.array([s_val]), 25, m), 25, m)[0])
            worst_ability = max(worst_ability, abs(round_trip - s_val))
    ability_ok = worst_ability <= 1e-9 and kept >= 2500

    rng = np.random.default_rng(909)
    disagreements = 0
    for _ in range(500):
        rows = [
            HalfPlane(
                float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)), float(rng.uniform(-1, 2))
            )
            for _ in range(int(rng.integers(1, 6)))
        ]
        maxcost = float(rng.uniform(0.5, 3.0))
        res = feasible_point(rows)
        ps = np.linspace(0.0, maxcost, 400)
        P, Q = np.meshgrid(ps, ps)
        ok_mask = np.ones_like(P, dtype=bool)
        for row in rows:
            ok_mask &= row.a_p * P + row.a_q * Q <= row.rhs + 1e-12
        if ok_mask.any() and not res.feasible:
            disagreements += 1
        if res.feasible:
            p, q = res.witness
            for row in rows:
                nr = row.normalized()
                if nr.a_p * p + nr.a_q * q > nr.rhs + 1e-9:
                    disagreements += 1
    grid_ok = disagreements == 0

    ok = residual_ok and ability_ok and grid_ok
    _line(
        9,
        ok,
        f"kernels: round-trip residual {worst_residual:.2e}, ability {worst_ability:.2e} "
        f"({kept}/5000 invertible pts), lp2d grid disagreements {disagreements}",
    )
    assert residual_ok
    assert ability_ok
    assert grid_ok


def test_c10_utility_property_audits():
    typo = make_typo(25, 1)
    audits = {
        "symmetry": check_symmetric(typo, trials=1000, seed=10, tol=1e-9),
        "monotonicity": check_nondecreasing(typo, trials=1000, seed=10, tol=1e-9),
        "subadditivity": check_subadditive(typo, trials=1000, seed=10, tol=1e-9),
        "schur_convexity": check_schur_convex(typo, trials=1000, seed=10, tol=1e-9),
    }
    audits_ok = all(report.passed for report in audits.values())

    rng = np.random.default_rng(1010)
    binary = make_binary_labeling()
    worst = max(abs(binary.evaluate([float(r)]) - 2.0 * r) for r in rng.uniform(0, 1, 100))
    binary_ok = worst <= 1e-9
    ok = audits_ok and binary_ok
    failed = [name for name, report in audits.items() if not report.passed]
    _line(10, ok, f"utility audits pass ({'none failing' if not failed else failed}); binary n=1 worst {worst:.2e}")
    assert audits_ok, failed
    assert binary_ok
