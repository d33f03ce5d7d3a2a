"""Acceptance gate: every published number and contract-level guarantee,
one criterion per test, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import math
import time

import numpy as np
import pytest

from serodesign import (
    ParameterBox,
    StratumSpec,
    GroupSpec,
    all_patterns,
    allocate_districts,
    allocate_groups,
    make_pattern,
    fisher_info,
    solve_c_optimal,
    variance_check,
)
from serodesign.coptimal import _criterion, _pattern_infos
from _suites import (
    finite_difference_fisher,
    random_interior_points,
    worst_concavity_slack,
    worst_convexity_slack,
)
from conftest import ROW1_POINT, ROW4_BOX

BUDGET = 1e7


def check(number, description, condition, detail=""):
    status = "PASS" if condition else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"[{status}] criterion {number:>2}: {description}{suffix}")
    assert condition, f"criterion {number}: {description}{suffix}"


def counts_of(design):
    return {t.label: int(w) for t, w in zip(design.patterns, design.integer_counts)}


@pytest.fixture(scope="module")
def row1(model_row1):
    start = time.perf_counter()
    report = solve_c_optimal(ROW1_POINT, model_row1, budget=BUDGET)
    return report, time.perf_counter() - start


@pytest.fixture(scope="module")
def row2(model_row2):
    return solve_c_optimal(ROW1_POINT, model_row2, budget=BUDGET)


@pytest.fixture(scope="module")
def row3(model_row4):
    return solve_c_optimal(ROW1_POINT, model_row4, budget=BUDGET)


@pytest.fixture(scope="module")
def row5(model_row1):
    groups = [
        GroupSpec(
            name="symptomatic",
            fraction=0.1,
            point=ROW1_POINT,
            overrides={"rat": {"sensitivity": 0.68}},
        ),
        GroupSpec(
            name="asymptomatic",
            fraction=0.9,
            point=ROW1_POINT,
            overrides={"rat": {"sensitivity": 0.47}},
        ),
    ]
    return allocate_groups(groups, model_row1, BUDGET)


def test_criterion_01_local_design_rtpcr_1600(row1):
    report, elapsed = row1
    counts = counts_of(report.design)
    ok = (
        abs(counts["001"] - 521) <= 2
        and abs(counts["101"] - 13125) <= 2
        and all(counts[k] == 0 for k in counts if k not in ("001", "101"))
        and elapsed < 1.0
    )
    check(
        1,
        "local design at RTPCR cost 1600 reproduces published counts",
        ok,
        f"counts={counts['001']}/{counts['101']}, {elapsed * 1e3:.0f} ms",
    )


def test_criterion_02_local_designs_rtpcr_1000_and_100(row2, row3):
    counts2 = counts_of(row2.design)
    support3 = {
        t.label for t, v in zip(row3.design.patterns, row3.design.fractions) if v > 0
    }
    counts3 = counts_of(row3.design)
    ok = (
        abs(counts2["001"] - 8000) <= 2
        and abs(counts2["011"] - 5846) <= 2
        and support3 == {"011"}
        and abs(counts3["011"] - 25000) <= 2
    )
    check(
        2,
        "local designs at RTPCR costs 1000 and 100 (single support) reproduce",
        ok,
        f"counts={counts2['001']}/{counts2['011']} and {counts3['011']} on {sorted(support3)}",
    )


def test_criterion_03_worst_case_design(row4_worst_case):
    report, elapsed = row4_worst_case
    counts = counts_of(report.design)
    split = 100 * report.design.fraction((0, 0, 1))
    ok = (
        abs(counts["001"] - 838) <= 5
        and abs(counts["011"] - 24371) <= 5
        and np.abs(report.p_star - np.array([0.06, 0.45, 0.0])).max() <= 0.02
        and abs(split - 2.5) <= 0.3
        and elapsed < 60.0
    )
    check(
        3,
        "worst-case design over the published box reproduces counts and p*",
        ok,
        f"counts={counts['001']}/{counts['011']}, p*={report.p_star}, "
        f"split={split:.2f}%, {elapsed:.1f} s",
    )


def test_criterion_04_single_pattern_restriction_factor(model_row4, row4_worst_case):
    # Restricting the budget to RTPCR+antibody degrades the worst-case
    # accuracy by the published factor.  The published value is the
    # standard-error (margin) factor: the corresponding variance factor is
    # its square (about 1.0052), which no reading of the grid reproduces.
    report, _ = row4_worst_case
    pats = all_patterns(model_row4)
    pts = ROW4_BOX.grid(0.01)
    infos = _pattern_infos(pts, model_row4, pats)
    only_011 = np.array([1.0 if t.mask == (0, 1, 1) else 0.0 for t in pats])
    worst_constrained = _criterion(only_011, infos, model_row4.u)[0].max()
    worst_optimal = _criterion(report.design.fractions, infos, model_row4.u)[0].max()
    factor = math.sqrt(worst_constrained / worst_optimal)
    ok = abs(factor - 1.0023) <= 0.0005
    check(
        4,
        "all-(0,1,1) restriction degrades worst-case accuracy by 1.0023",
        ok,
        f"factor={factor:.6f}, variance factor={worst_constrained / worst_optimal:.6f}",
    )


def test_criterion_05_group_allocation(row5):
    sym = row5.entry("symptomatic")
    asym = row5.entry("asymptomatic")
    share_sym = 100 * sym.budget / BUDGET
    ok = (
        abs(share_sym - 8.8) <= 0.3
        and abs(100 * asym.budget / BUDGET - 91.2) <= 0.3
        and abs(sym.design.integer_count((0, 0, 1)) - 300) <= 5
        and abs(sym.design.integer_count((1, 0, 1)) - 1046) <= 5
        and abs(asym.design.integer_count((1, 0, 1)) - 12167) <= 5
    )
    check(
        5,
        "symptomatic/asymptomatic allocation reproduces split and counts",
        ok,
        f"split={share_sym:.2f}%/{100 - share_sym:.2f}%, "
        f"S={sym.design.integer_count((0, 0, 1))}/{sym.design.integer_count((1, 0, 1))}, "
        f"A={asym.design.integer_count((1, 0, 1))}",
    )


def test_criterion_06_budget_scaling_exactness(model_row1):
    single = solve_c_optimal(ROW1_POINT, model_row1, budget=BUDGET)
    double = solve_c_optimal(ROW1_POINT, model_row1, budget=2 * BUDGET)
    bitwise = (single.design.fractions == double.design.fractions).all()
    halved = abs(double.min_variance - single.min_variance / 2.0) <= (
        1e-12 * single.min_variance
    )
    check(
        6,
        "doubling the budget keeps fractions bitwise and halves the variance",
        bool(bitwise and halved),
        f"max|dv|={np.abs(single.design.fractions - double.design.fractions).max():.1e}",
    )


def test_criterion_07_kkt_residuals(row1, row2, row3, row4_worst_case, row5):
    reports = [row1[0], row2, row3, row4_worst_case[0].inner] + [
        e.report for e in row5.entries
    ]
    relative = [r.kkt_residual / r.mu_star for r in reports]
    ok = max(relative) <= 1e-6
    check(
        7,
        "first-order residual at most 1e-6 relative on every solved instance",
        ok,
        f"worst={max(relative):.2e}",
    )


def test_criterion_08_information_matrix_oracle(model_row1):
    rng = np.random.default_rng(2718)
    patterns = all_patterns(model_row1)
    worst = 0.0
    for i, p in enumerate(random_interior_points(rng, 20)):
        t = patterns[i % len(patterns)]
        if sum(t.mask) == 1:
            t = make_pattern((1, 1, 1), model_row1)  # rank-1 patterns have zero rows
        closed = fisher_info(t, p, model_row1)
        oracle = finite_difference_fisher(t, p, model_row1, step=1e-4)
        worst = max(worst, np.abs(closed - oracle).max() / np.abs(oracle).max())
    ok = worst <= 1e-4
    check(
        8,
        "information matrix matches the finite-difference Hessian oracle",
        ok,
        f"worst relative error={worst:.2e} over 20 interior points",
    )


def test_criterion_09_curvature_property_suites(model_row1):
    convex_slack = worst_convexity_slack(model_row1, ROW1_POINT, n_trials=500, seed=1234)
    concave_slack = worst_concavity_slack(model_row1, n_trials=500, seed=4321)
    ok = convex_slack <= 1e-9 and concave_slack <= 1e-9
    check(
        9,
        "convexity in fractions and concavity in the parameter (500 trials each)",
        ok,
        f"worst slacks: convex={convex_slack:.2e}, concave={concave_slack:.2e}",
    )


def test_criterion_10_monte_carlo_variance(model_row1, row1):
    report, _ = row1
    start = time.perf_counter()
    _, _, ratio = variance_check(
        ROW1_POINT, model_row1, report.design.fractions, BUDGET, replications=200, seed=0
    )
    elapsed = time.perf_counter() - start
    ok = 0.90 <= ratio <= 1.10 and elapsed < 300.0
    check(
        10,
        "empirical variance of the fitted estimate matches the prediction",
        ok,
        f"ratio={ratio:.4f} over 200 replications, {elapsed:.1f} s",
    )


def test_criterion_11_equal_boxes_split_by_population(model_row4):
    box = ParameterBox(lower=[0.05, 0.20, 0.00], upper=[0.09, 0.30, 0.01])
    fractions = [0.2, 0.35, 0.45]
    strata = [
        StratumSpec(name=f"d{i}", fraction=n, box=box) for i, n in enumerate(fractions)
    ]
    report = allocate_districts(strata, model_row4, BUDGET, grid_step=0.02)
    deviation = max(
        abs(e.budget / BUDGET - n) for e, n in zip(report.entries, fractions)
    )
    ok = deviation <= 1e-9
    check(
        11,
        "identical worst-case boxes allocate budget by population share",
        ok,
        f"max deviation={deviation:.2e}",
    )
