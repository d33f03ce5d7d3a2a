"""Splitting one budget across districts and across observable groups.

For a population-weighted estimate across D districts, the optimal budget
share of district d is proportional to n_d * sqrt(a_d): population times
the standard error scale of the district's own optimal design.  The same
rule covers observable groups whose test reliabilities differ, such as
symptomatic versus asymptomatic participants.
"""

import numpy as np

from serodesign import (
    GroupSpec,
    ParameterBox,
    StratumSpec,
    allocate_districts,
    allocate_groups,
    default_model,
)

model = default_model()
BUDGET = 1e7

print("Districts with different guessed prevalences")
print("=" * 72)
strata = [
    StratumSpec(name="urban", fraction=0.45, point=np.array([0.10, 0.30, 0.01])),
    StratumSpec(name="peri-urban", fraction=0.25, point=np.array([0.06, 0.22, 0.01])),
    StratumSpec(name="rural", fraction=0.30, point=np.array([0.03, 0.12, 0.00])),
]
report = allocate_districts(strata, model, BUDGET)
for entry in report.entries:
    print(
        f"  {entry.name:>10}: population {100 * entry.fraction:4.1f}%  "
        f"a_d = {entry.criterion_value:8.2f}  "
        f"budget {entry.budget:>12,.0f} ({100 * entry.budget / BUDGET:5.2f}%)"
    )
print(f"  variance of the weighted estimate: {report.total_variance:.3e}")

print("\nSame box of uncertainty in every district")
print("=" * 72)
box = ParameterBox(lower=[0.05, 0.20, 0.00], upper=[0.09, 0.30, 0.01])
cheap = default_model(rtpcr_cost=100.0)
equal_boxes = [
    StratumSpec(name="north", fraction=0.3, box=box),
    StratumSpec(name="south", fraction=0.7, box=box),
]
report = allocate_districts(equal_boxes, cheap, BUDGET, grid_step=0.02)
for entry in report.entries:
    print(
        f"  {entry.name:>10}: population {100 * entry.fraction:4.1f}%  "
        f"budget share {100 * entry.budget / BUDGET:5.2f}%"
    )
print("With nothing to distinguish the districts, the budget follows the")
print("population exactly.")

print("\nSymptomatic versus asymptomatic participants")
print("=" * 72)
# The RAT is more sensitive on symptomatic participants (0.68 vs 0.47).
groups = [
    GroupSpec(
        name="symptomatic",
        fraction=0.1,
        point=np.array([0.10, 0.30, 0.01]),
        overrides={"rat": {"sensitivity": 0.68}},
    ),
    GroupSpec(
        name="asymptomatic",
        fraction=0.9,
        point=np.array([0.10, 0.30, 0.01]),
        overrides={"rat": {"sensitivity": 0.47}},
    ),
]
report = allocate_groups(groups, model, BUDGET)
for entry in report.entries:
    print(f"  {entry.name} ({100 * entry.fraction:.0f}% of population, "
          f"budget share {100 * entry.budget / BUDGET:.2f}%):")
    design = entry.design
    for pattern, count in zip(design.patterns, design.integer_counts):
        if count > 0:
            tests = "+".join(t.id for t, m in zip(model.tests, pattern.mask) if m)
            print(f"      {pattern.label} ({tests}): {count} participants")

print("""
The symptomatic group needs proportionally less budget because its RAT is
more reliable.  Within that group a sizable slice goes to antibody-only
testing: the active-infection fraction is already well estimated there,
so the marginal rupee is better spent pinning down past infection.""")
