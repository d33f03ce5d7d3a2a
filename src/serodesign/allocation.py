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
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType
from typing import Sequence

import numpy as np

from .coptimal import (
    ConvergenceError,
    Design,
    InfeasibleDesignError,
    SolveReport,
    _require_budget,
    solve_c_optimal,
)
from .minimax import worst_case_design
from .model import DiseaseModel, ParameterBox, _read_only

__all__ = [
    "StratumSpec",
    "GroupSpec",
    "StratumAllocation",
    "AllocationReport",
    "allocate_districts",
    "allocate_groups",
    "validate_entries",
]


def _check_entry(kind: str, name: str, fraction: float, fraction_noun: str) -> None:
    """The rules a stratum and a group share: a name, and a fraction in (0, 1]."""
    if not name:
        raise ValueError(f"{kind} needs a nonempty name")
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"{kind} {name!r}: {fraction_noun} must lie in (0, 1], got {fraction}")


@dataclass(frozen=True, eq=False)
class StratumSpec:
    """One stratum: population fraction plus a point parameter or a box."""

    name: str
    fraction: float
    point: np.ndarray | None = None
    box: ParameterBox | None = None

    def __post_init__(self):
        _check_entry("stratum", self.name, self.fraction, "population fraction")
        if (self.point is None) == (self.box is None):
            raise ValueError(f"stratum {self.name!r}: give exactly one of point or box")
        if self.point is not None:
            object.__setattr__(self, "point", _read_only(self.point))


@dataclass(frozen=True, eq=False)
class GroupSpec:
    """One observable group: fraction, parameter, and test-reliability overrides."""

    name: str
    fraction: float
    point: np.ndarray
    overrides: Mapping[str, Mapping[str, float]] | None = None

    def __post_init__(self):
        _check_entry("group", self.name, self.fraction, "fraction")
        object.__setattr__(self, "point", _read_only(self.point))
        # a read-only copy at both levels, as for the point
        overrides = self.overrides or {}
        if not isinstance(overrides, Mapping):
            raise ValueError(f"group {self.name!r}: overrides must be a mapping, got {overrides!r}")
        copied = {}
        for test_id, entry in overrides.items():
            if not isinstance(entry, Mapping):
                raise ValueError(
                    f"group {self.name!r}: override for test {test_id!r} must be a mapping, "
                    f"got {entry!r}"
                )
            copied[test_id] = MappingProxyType(dict(entry))
        object.__setattr__(self, "overrides", MappingProxyType(copied))

    def model(self, base: DiseaseModel) -> DiseaseModel:
        """``base`` with this group's test-reliability overrides applied."""
        return base.with_test_overrides(self.overrides) if self.overrides else base


@dataclass(frozen=True, eq=False)
class StratumAllocation:
    """One stratum's share of the budget and its within-stratum design."""

    name: str
    fraction: float
    report: SolveReport  # priced at the stratum's budget; a SaddleReport for a box

    @property
    def criterion_value(self) -> float:
        """a_d, the criterion value at the stratum's optimal fractions."""
        return self.report.objective

    @property
    def design(self) -> Design:
        return self.report.design

    @property
    def budget(self) -> float:
        return self.design.budget


@dataclass(frozen=True, eq=False)
class AllocationReport:
    """Budget split across strata plus the per-stratum designs."""

    entries: tuple[StratumAllocation, ...]
    budget: float

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))

    @property
    def total_variance(self) -> float:
        """Variance of the weighted estimate: sum of n_d^2 * a_d / C_d."""
        return math.fsum(
            e.fraction * e.fraction * e.criterion_value / e.budget for e in self.entries
        )

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
    """Solve each entry with ``solve(spec, budget)``, split the budget, price each design.

    Each entry is solved at the total budget: a share is at most the total,
    so a total whose counts are exact gives exact counts at every share.
    ``kind`` ("stratum" or "group") names the entries in error messages.
    """
    specs = list(specs)
    fractions = validate_entries(specs, kind)
    _require_budget(budget)

    reports = []
    for s in specs:
        try:
            reports.append(solve(s, budget))
        except (ConvergenceError, InfeasibleDesignError, ValueError, KeyError, TypeError) as err:
            err.args = (f"{kind} {s.name!r}: {err.args[0]}",)
            raise
    weights = fractions * np.sqrt([r.objective for r in reports])
    budgets = budget * weights / weights.sum()
    entries = tuple(
        StratumAllocation(name=s.name, fraction=s.fraction, report=r.priced(float(b)))
        for s, b, r in zip(specs, budgets, reports)
    )
    return AllocationReport(entries=entries, budget=budget)


def allocate_districts(
    strata: Sequence[StratumSpec],
    model: DiseaseModel,
    budget: float,
    grid_step: float = 0.01,
) -> AllocationReport:
    """Split a budget across strata and design each stratum's survey.

    Each stratum is solved for its optimal criterion value a_d (the local
    one at its point, or the worst case over its box), the budget is split
    in proportion to ``fraction * sqrt(a_d)``, and each stratum's design is
    priced at its share.  This minimizes the variance of the
    population-weighted estimate across strata.
    """

    def solve(s: StratumSpec, budget: float):
        if s.point is not None:
            return solve_c_optimal(s.point, model, budget)
        return worst_case_design(s.box, model, grid_step=grid_step, budget=budget)

    return _allocate(strata, "stratum", budget, solve)


def allocate_groups(
    groups: Sequence[GroupSpec],
    model: DiseaseModel,
    budget: float,
) -> AllocationReport:
    """Split a budget across observable groups with their own reliabilities.

    Identical in structure to the stratum allocation, except that each
    group's criterion is solved under the group's sensitivity/specificity
    overrides (for example a rapid test that is more sensitive on
    symptomatic participants).
    """

    def solve(g: GroupSpec, budget: float):
        return solve_c_optimal(g.point, g.model(model), budget)

    return _allocate(groups, "group", budget, solve)

