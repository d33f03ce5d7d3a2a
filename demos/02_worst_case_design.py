"""Designing for the worst case over a parameter uncertainty box.

A local design is only optimal at the parameter it was designed for.
When the prevalence is only known to lie in a box, the design minimizing
the worst-case variance is the minimizing player's equilibrium strategy
of a convex-concave zero-sum game.  This script reproduces the worst-case
design for cheap RT-PCR over the published uncertainty box, certifies the
equilibrium on the grid, and prices the convenience of administering the
same test pattern to everyone.
"""

import math

import numpy as np

from serodesign import (
    ParameterBox,
    all_patterns,
    default_model,
    objective,
    saddle_check,
    worst_case_design,
)

model = default_model(rtpcr_cost=100.0)
box = ParameterBox(lower=[0.01, 0.10, 0.00], upper=[0.15, 0.50, 0.02])
BUDGET = 1e7

print("Worst-case design over the box")
print(f"  p1 in [{box.lower[0]}, {box.upper[0]}], p2 in [{box.lower[1]}, {box.upper[1]}],"
      f" p3 in [{box.lower[2]}, {box.upper[2]}]")
print("=" * 72)

report = worst_case_design(box, model, grid_step=0.01, budget=BUDGET)
design = report.design
print(f"worst-case parameter p* = {report.p_star}")
print(f"game value a(v*; p*)    = {report.objective:.4f}")
print(f"certified saddle gap    = {report.saddle_gap:.3e} "
      f"({report.saddle_gap / report.objective:.2e} relative)")
for pattern, fraction, count in zip(design.patterns, design.fractions, design.integer_counts):
    if count > 0:
        print(f"  pattern {pattern.label}: {100 * fraction:5.2f}% of budget, {count:>6} participants")

gap_p, gap_v = saddle_check(design.fractions, report.p_star, box, model, grid_step=0.01)
print(f"\nequilibrium gaps: max-player {gap_p:.3e}, min-player {gap_v:.3e}")
print("Neither player can improve by more than a fraction of a percent:")
print("the pair (v*, p*) is an approximate saddle point of the game.")

# For logistics one may prefer giving every participant the same tests.
# Restricting the whole budget to RT-PCR + antibody costs surprisingly little:
pats = all_patterns(model)
pts = box.grid(0.01)
only_011 = np.array([1.0 if t.mask == (0, 1, 1) else 0.0 for t in pats])
worst_constrained = max(objective(only_011, p, model) for p in pts)
worst_optimal = max(objective(design.fractions, p, model) for p in pts)
variance_factor = worst_constrained / worst_optimal
accuracy_factor = math.sqrt(variance_factor)

print("\nAll budget on RTPCR+antibody (25,000 participants):")
print(f"  worst-case variance factor       = {variance_factor:.6f}")
print(f"  worst-case standard-error factor = {accuracy_factor:.6f}")
print("Scaling the sample up by a fraction of a percent recovers the same")
print("margin of error, a small price for running a single test pattern.")
