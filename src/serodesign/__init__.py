"""Budget-constrained optimal designs for multi-test epidemiological surveys.

Given a set of diagnostic tests with costs, sensitivities, and
specificities, this package computes how to split a survey budget across
subsets of tests so that a linear function of the latent disease-state
probabilities is estimated with the smallest possible variance:
locally optimal designs at a guessed parameter, worst-case designs over a
parameter box, budget allocations across strata or observable groups, and
a Monte-Carlo harness that verifies the predicted variance against the
maximum-likelihood pipeline.
"""

from .allocation import (
    AllocationReport,
    GroupSpec,
    StratumAllocation,
    StratumSpec,
    allocate_districts,
    allocate_groups,
    validate_entries,
)
from .coptimal import (
    ConvergenceError,
    Design,
    InfeasibleDesignError,
    SolveReport,
    budget_for_margin,
    design_from_fractions,
    kkt_check,
    normal_quantile,
    objective,
    objective_gradient,
    solve_c_optimal,
)
from .minimax import SaddleReport, saddle_check, worst_case_design
from .model import (
    DiseaseModel,
    ParameterBox,
    TestPattern,
    TestSpec,
    all_patterns,
    check_a1,
    check_a2,
    default_model,
    fisher_info,
    make_pattern,
    validate_parameter,
)
from .simulate import (
    SurveyDataset,
    jarque_bera_pvalue,
    log_likelihood,
    mle,
    sample_outcomes,
    simulate_estimates,
    simulation_report,
)

__version__ = "0.1.0"

__all__ = [
    "AllocationReport",
    "ConvergenceError",
    "Design",
    "DiseaseModel",
    "GroupSpec",
    "InfeasibleDesignError",
    "ParameterBox",
    "SaddleReport",
    "SolveReport",
    "StratumAllocation",
    "StratumSpec",
    "SurveyDataset",
    "TestPattern",
    "TestSpec",
    "all_patterns",
    "allocate_districts",
    "allocate_groups",
    "budget_for_margin",
    "check_a1",
    "check_a2",
    "default_model",
    "design_from_fractions",
    "fisher_info",
    "jarque_bera_pvalue",
    "kkt_check",
    "log_likelihood",
    "make_pattern",
    "mle",
    "normal_quantile",
    "objective",
    "objective_gradient",
    "saddle_check",
    "sample_outcomes",
    "simulate_estimates",
    "simulation_report",
    "solve_c_optimal",
    "validate_entries",
    "validate_parameter",
    "worst_case_design",
]
