"""Closed-form budget allocation across strata and observable groups.

When a weighted sum of per-stratum estimates is the target, the total
budget splits in proportion to ``n_d * sqrt(a_d)``, where n_d is the
stratum's population fraction and a_d the stratum's optimal variance
criterion; each stratum then runs its own within-stratum optimal design
at its budget share.  Strata declared with a parameter box use the
worst-case criterion instead of the local one, and observable groups
(for example symptomatic versus asymptomatic participants) may override
per-test sensitivities and specificities before their criterion is
solved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .coptimal import (
    Design,
    InfeasibleDesignError,
    SolveReport,
    solve_c_optimal,
)
from .minimax import SaddleReport, worst_case_design
from .model import DiseaseModel, ParameterBox, TestPattern, validate_parameter

__all__ = [
    "StratumSpec",
    "GroupSpec",
    "StratumAllocation",
    "AllocationReport",
    "allocate_districts",
    "allocate_groups",
    "validate_entries",
    "weighted_variance",
]


@dataclass(frozen=True, eq=False)
class StratumSpec:
    """One stratum: population fraction plus a point parameter or a box."""

    name: str
    fraction: float
    point: np.ndarray | None = None
    box: ParameterBox | None = None

    def __post_init__(self):
        if not self.name:
            raise ValueError("stratum needs a nonempty name")
        if not 0.0 < self.fraction <= 1.0:
            raise ValueError(
                f"stratum {self.name!r}: population fraction must lie in (0, 1], "
                f"got {self.fraction}"
            )
        if (self.point is None) == (self.box is None):
            raise ValueError(f"stratum {self.name!r}: give exactly one of point or box")
        if self.point is not None:
            point = np.asarray(self.point, dtype=np.float64)
            point.setflags(write=False)
            object.__setattr__(self, "point", point)


@dataclass(frozen=True, eq=False)
class GroupSpec:
    """One observable group: fraction, parameter, and test-reliability overrides."""

    name: str
    fraction: float
    point: np.ndarray
    overrides: dict | None = None

    def __post_init__(self):
        if not self.name:
            raise ValueError("group needs a nonempty name")
        if not 0.0 < self.fraction <= 1.0:
            raise ValueError(
                f"group {self.name!r}: fraction must lie in (0, 1], got {self.fraction}"
            )
        point = np.asarray(self.point, dtype=np.float64)
        point.setflags(write=False)
        object.__setattr__(self, "point", point)
        object.__setattr__(self, "overrides", dict(self.overrides or {}))

    def model(self, base: DiseaseModel) -> DiseaseModel:
        """``base`` with this group's test-reliability overrides applied."""
        return base.with_test_overrides(self.overrides) if self.overrides else base


@dataclass(frozen=True, eq=False)
class StratumAllocation:
    """One stratum's share of the budget and its within-stratum design."""

    name: str
    fraction: float
    criterion_value: float  # a_d at the stratum's optimal fractions
    report: Union[SolveReport, SaddleReport]  # priced at the stratum's budget

    @property
    def design(self) -> Design:
        return self.report.design

    @property
    def budget(self) -> float:
        return self.design.budget

    @property
    def variance(self) -> float:
        """The stratum estimate's variance at its allocated budget."""
        return self.criterion_value / self.budget


@dataclass(frozen=True, eq=False)
class AllocationReport:
    """Budget split across strata plus the per-stratum designs."""

    entries: tuple[StratumAllocation, ...]
    budget: float

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))

    @property
    def shares(self) -> np.ndarray:
        return np.array([e.budget for e in self.entries]) / self.budget

    @property
    def total_variance(self) -> float:
        return weighted_variance(self)

    def entry(self, name: str) -> StratumAllocation:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(f"no stratum named {name!r}")

    def to_dict(self) -> dict:
        return {
            "budget": self.budget,
            "total_variance": self.total_variance,
            "allocations": [
                {
                    "name": e.name,
                    "fraction": e.fraction,
                    "budget": e.budget,
                    "budget_share": e.budget / self.budget,
                    "criterion_value": e.criterion_value,
                    "report": e.report.to_dict(),
                }
                for e in self.entries
            ],
        }


def _split_budget(
    budget: float, fractions: np.ndarray, values: np.ndarray
) -> np.ndarray:
    """Budget shares proportional to fraction * sqrt(criterion value)."""
    weights = fractions * np.sqrt(values)
    return budget * weights / weights.sum()


def validate_entries(specs: Sequence[StratumSpec | GroupSpec], kind: str) -> np.ndarray:
    """Check a list of strata or groups and return their population fractions.

    The list must be nonempty, its names distinct and its fractions sum to
    1.  ``kind`` ("stratum" or "group") names the entries in error messages.
    """
    if not specs:
        raise ValueError(f"need at least one {kind}")
    names = [s.name for s in specs]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate {kind} names: {names}")
    fractions = np.array([s.fraction for s in specs])
    if abs(fractions.sum() - 1.0) > 1e-9:
        raise ValueError(f"population fractions must sum to 1, got {float(fractions.sum())!r}")
    return fractions


def _allocate(specs, kind: str, budget: float, solve) -> AllocationReport:
    """Solve each entry with ``solve(spec)``, split the budget, price each design.

    ``kind`` ("stratum" or "group") names the entries in error messages.
    """
    specs = list(specs)
    fractions = validate_entries(specs, kind)
    if not budget > 0:
        raise ValueError(f"budget must be positive, got {budget}")

    reports = []
    for s in specs:
        try:
            reports.append(solve(s))
        except InfeasibleDesignError as err:
            raise InfeasibleDesignError(f"{kind} {s.name!r}: {err}") from err
    values = np.array(
        [r.game_value if isinstance(r, SaddleReport) else r.objective for r in reports]
    )
    budgets = _split_budget(budget, fractions, values)
    entries = tuple(
        StratumAllocation(
            name=s.name,
            fraction=s.fraction,
            criterion_value=float(a),
            report=r.priced(float(b)),
        )
        for s, b, a, r in zip(specs, budgets, values, reports)
    )
    return AllocationReport(entries=entries, budget=budget)


def allocate_districts(
    strata: Sequence[StratumSpec],
    model: DiseaseModel,
    budget: float,
    grid_step: float = 0.01,
    patterns: Sequence[TestPattern] | None = None,
) -> AllocationReport:
    """Split a budget across strata and design each stratum's survey.

    Each stratum is solved for its optimal criterion value a_d (the local
    one at its point, or the worst case over its box), the budget is split
    in proportion to ``fraction * sqrt(a_d)``, and each stratum's design is
    priced at its share.  This minimizes the variance of the
    population-weighted estimate across strata.
    """

    def solve(s: StratumSpec):
        if s.point is not None:
            p = validate_parameter(s.point, model.k)
            return solve_c_optimal(p, model, patterns=patterns)
        return worst_case_design(s.box, model, grid_step=grid_step, patterns=patterns)

    return _allocate(strata, "stratum", budget, solve)


def allocate_groups(
    groups: Sequence[GroupSpec],
    model: DiseaseModel,
    budget: float,
    patterns: Sequence[TestPattern] | None = None,
) -> AllocationReport:
    """Split a budget across observable groups with their own reliabilities.

    Identical in structure to the stratum allocation, except that each
    group's criterion is solved under the group's sensitivity/specificity
    overrides (for example a rapid test that is more sensitive on
    symptomatic participants).
    """

    def solve(g: GroupSpec):
        group_model = g.model(model)
        p = validate_parameter(g.point, group_model.k)
        return solve_c_optimal(p, group_model, patterns=patterns)

    return _allocate(groups, "group", budget, solve)


def weighted_variance(report: AllocationReport) -> float:
    """Variance of the weighted estimate: sum of n_d^2 * a_d / C_d."""
    return float(
        math.fsum(
            e.fraction * e.fraction * e.criterion_value / e.budget for e in report.entries
        )
    )
