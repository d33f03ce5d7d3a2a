"""Locally optimal survey designs as test prices change.

Three tests are available: a rapid antigen test (RAT), an RT-PCR test,
and an antibody test.  A design assigns participants to subsets of tests
so that the total disease burden p1 + p2 + p3 is estimated with the
smallest possible variance under a fixed budget.  This script reproduces
the local designs at p = (0.10, 0.30, 0.01) for three RT-PCR price
points and then sizes the budget needed for a target margin of error.
"""

import numpy as np

from serodesign import budget_for_margin, default_model, normal_quantile, solve_c_optimal

P = np.array([0.10, 0.30, 0.01])
BUDGET = 1e7  # one crore

print("Local c-optimal designs at p =", P)
print("=" * 72)

for rtpcr_cost in (1600.0, 1000.0, 100.0):
    model = default_model(rtpcr_cost=rtpcr_cost)
    report = solve_c_optimal(P, model, budget=BUDGET)
    design = report.design
    print(f"\nRAT 450 / RTPCR {rtpcr_cost:g} / antibody 300, budget {BUDGET:,.0f}")
    print(f"  criterion value a(v*) = {report.objective:.4f}")
    print(f"  predicted Var(u'p-hat) = {report.min_variance:.3e}")
    print(f"  first-order residual  = {report.kkt_residual:.2e}")
    for pattern, fraction, count in zip(
        design.patterns, design.fractions, design.integer_counts
    ):
        if count > 0:
            tests = "+".join(
                t.id for t, m in zip(model.tests, pattern.mask) if m
            )
            print(
                f"  pattern {pattern.label} ({tests:>22}): "
                f"{100 * fraction:6.2f}% of budget, {count:>6} participants"
            )

# Cheap RT-PCR collapses the design onto a single pattern: everyone gets
# RT-PCR plus antibody.  Expensive RT-PCR drops it from the design entirely;
# what matters is information per rupee, not information per test.

print("\nBudget required for a target margin of error")
print("=" * 72)
model = default_model()
z = abs(normal_quantile(0.025))
for moe in (0.02, 0.01, 0.005):
    report = budget_for_margin(P, model, moe=moe, alpha=0.05)
    achieved = z * np.sqrt(report.min_variance)
    print(
        f"  margin {moe:.3f} at 95% confidence: budget {report.design.budget:,.0f}"
        f"  (check: z*sqrt(a/C) = {achieved:.4f})"
    )
print("\nHalving the margin quadruples the budget: accuracy is bought at a")
print("quadratic price.")
