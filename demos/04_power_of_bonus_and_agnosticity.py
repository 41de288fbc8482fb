#!/usr/bin/env python3
"""How much the bonus buys, and how little personalization costs.

The three-group worst case (cherry pickers, mids, experts) makes
no-bonus common pricing arbitrarily bad: every base-only offer that fits
the budget recruits only cherries, while a pure bonus picks out exactly
the experts.  In personalized pricing the bonus buys nothing at all.
The price-of-agnosticity certificate then bounds how much extra budget a
common policy needs to reach half (or a gamma fraction) of the
personalized optimum.
"""

import numpy as np

from crowdprice import (
    GkpInstance,
    WorkerProfile,
    build_pob_instance,
    cp_exact_oracle,
    cp_no_bonus,
    make_additive,
    poa_audit,
    poa_constants,
    pob_ratio,
    solve_gkp_exact,
    solve_opp_no_bonus,
)

print("=== power of bonus in common pricing ===")
for eps in (0.0, 0.1, 0.5):
    inst = build_pob_instance(16, 1.0, eps)
    no_bonus = cp_no_bonus(inst.workers, inst.budget, make_additive())
    with_bonus = cp_exact_oracle(inst.workers, inst.budget, make_additive())
    print(f"  cherries at quality {eps}: no-bonus {no_bonus.utility_value:.2f} "
          f"(policy base {no_bonus.policy.base}) vs with-bonus {with_bonus.utility_value:.2f} "
          f"(bonus {with_bonus.policy.bonus}) -> ratio {pob_ratio(inst):.3f} <= {eps}")

print("\n=== power of bonus in personalized pricing: none ===")
inst = build_pob_instance(16, 1.0, 0.1)
gkp = GkpInstance(workers=inst.workers, budget=inst.budget, utility=make_additive())
print(f"  with bonus {solve_gkp_exact(gkp).utility_value:.2f} "
      f"== without bonus {solve_opp_no_bonus(gkp).utility_value:.2f}")

print("\n=== price of agnosticity ===")
rng = np.random.default_rng(3)
workers = sorted(
    (
        WorkerProfile(float(rng.uniform(0.3, 0.9)), float(rng.uniform(0.05, 0.3)), i)
        for i in range(8)
    ),
    key=lambda w: -w.quality / w.cost,
)
budget = 0.6 * sum(w.cost for w in workers)
cert = poa_constants(workers, budget)
print(f"  longest affordable prefix k = {cert.k_budget}, "
      f"gamma = {cert.gamma:.3f}, delta = {cert.delta:.3f}")
result = poa_audit(workers, budget, make_additive())
if result.skipped:
    print(f"  audit skipped: {result.reason}")
else:
    c = result.certificate
    print(f"  personalized optimum at budget B: {c.u_pp:.3f}")
    print(f"  common optimum at budget delta*B:  {c.u_cp_scaled:.3f}")
    print(f"  >= 1/2 of personalized: {result.half_bound_holds}; "
          f">= gamma fraction: {result.gamma_bound_holds}")
