"""Design-solver tests: the criterion kernel against explicit inverses,
criterion values, gradients, the simplex solver against published designs
and independent scalar oracles, optimality certificates, pricing a report
at another budget, and the margin-of-error budget inversion."""

import json
import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from serodesign import (
    ConvergenceError,
    DiseaseModel,
    InfeasibleDesignError,
    TestSpec,
    all_patterns,
    budget_for_margin,
    default_model,
    design_from_fractions,
    fisher_info,
    kkt_check,
    make_pattern,
    normal_quantile,
    objective,
    objective_gradient,
    solve_c_optimal,
)
from serodesign.coptimal import KKT_TOL, _criterion, _nonsingular
from _suites import (
    golden_section_two_pattern,
    random_pd_fractions,
    worst_convexity_slack,
)

P0 = np.array([0.10, 0.30, 0.01])


def nonzero_counts(design):
    return {
        t.label: int(w)
        for t, w in zip(design.patterns, design.integer_counts)
        if w > 0
    }


# Derandomized, so every run draws the same stacks.
PROPERTY = settings(
    derandomize=True,
    database=None,
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def info_stacks(draw, grid: bool, singular: bool | None = None):
    """(v, infos, u, made_singular): T pattern informations at a point,
    (T, k, k), or on a grid of m points, (T, m, k, k).

    Each information is G G' + I/20 for G with entries in [-1, 1], so every
    nonnegative nonzero blend has condition number at most 20 k^2 + 1.  At the
    points marked singular (each drawn unless ``singular`` fixes them)
    every pattern's row and column j is zeroed, or the whole information,
    so the blend there is exactly singular.
    """
    n_patterns, k = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    m = draw(st.integers(1, 6)) if grid else 1
    g = draw(arrays(np.float64, (n_patterns, m, k, k), elements=st.floats(-1.0, 1.0)))
    infos = g @ np.swapaxes(g, -1, -2) + np.eye(k) / 20.0
    flags = st.booleans() if singular is None else st.just(singular)
    made_singular = np.array(draw(st.lists(flags, min_size=m, max_size=m)))
    for i in np.flatnonzero(made_singular):
        j = draw(st.integers(0, k))  # k zeroes the whole information
        if j == k:
            infos[:, i] = 0.0
        else:
            infos[:, i, j, :] = 0.0
            infos[:, i, :, j] = 0.0
    weights = st.sampled_from([0.0, 0.1, 0.5, 1.0])
    v = np.array(draw(st.lists(weights, min_size=n_patterns, max_size=n_patterns)))
    if not v.any():
        v[draw(st.integers(0, n_patterns - 1))] = 1.0
    u = draw(st.lists(st.floats(0.1, 2.0), min_size=k, max_size=k))
    signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=k, max_size=k))
    u = np.array(u) * np.array(signs)
    if not grid:
        infos, made_singular = infos[:, 0], made_singular[0]
    return v, infos, u, made_singular


def assert_kernel_matches_inverse(v, infos, u, made_singular):
    values, x = _criterion(v, infos, u)
    values = np.asarray(values)
    blends = np.tensordot(v, infos, axes=1)
    good = _nonsingular(blends)
    assert np.array_equal(good, ~made_singular)
    assert values.shape == good.shape and x.shape == blends.shape[:-1]
    assert (values[~good] == math.inf).all()
    assert np.isnan(x[~good]).all()
    reference = np.array([u @ np.linalg.inv(a) @ u for a in blends[good]])
    np.testing.assert_allclose(values[good], reference, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(
        x[good], np.linalg.inv(blends[good]) @ u, rtol=1e-10, atol=1e-12
    )


class TestCriterionKernel:
    @PROPERTY
    @given(info_stacks(grid=False))
    def test_at_a_point(self, stack):
        assert_kernel_matches_inverse(*stack)

    @PROPERTY
    @given(info_stacks(grid=True))
    def test_on_a_grid(self, stack):
        assert_kernel_matches_inverse(*stack)

    @PROPERTY
    @given(st.booleans().flatmap(lambda grid: info_stacks(grid=grid, singular=True)))
    def test_every_blend_singular(self, stack):
        assert_kernel_matches_inverse(*stack)


class TestObjective:
    def test_single_support_equals_direct_formula(self, model_row4):
        # all budget on RTPCR+antibody at cost 400: u' (I/400)^{-1} u
        pats = all_patterns(model_row4)
        v = np.array([1.0 if t.mask == (0, 1, 1) else 0.0 for t in pats])
        info = fisher_info(make_pattern((0, 1, 1), model_row4), P0, model_row4) / 400.0
        direct = float(model_row4.u @ np.linalg.solve(info, model_row4.u))
        assert objective(v, P0, model_row4) == pytest.approx(direct, rel=1e-12)

    def test_rank_deficient_support_is_infinite(self, model_row1):
        pats = all_patterns(model_row1)
        v = np.array([1.0 if t.mask == (1, 0, 0) else 0.0 for t in pats])
        assert objective(v, P0, model_row1) == math.inf

    def test_doubling_costs_doubles_objective(self):
        m = default_model()
        m2 = default_model(rat_cost=900.0, rtpcr_cost=3200.0, antibody_cost=600.0)
        rng = np.random.default_rng(2)
        v = random_pd_fractions(rng, 7, 6)
        assert objective(v, P0, m2) == pytest.approx(2.0 * objective(v, P0, m), rel=1e-12)

    def test_convexity_in_v(self, model_row1):
        worst = worst_convexity_slack(model_row1, P0, n_trials=500, seed=1234)
        assert worst <= 1e-9


class TestGradient:
    def test_matches_finite_differences(self, model_row1):
        pats = all_patterns(model_row1)
        rng = np.random.default_rng(8)
        step = 1e-6
        for _ in range(5):
            v = random_pd_fractions(rng, len(pats), 6)
            grad = objective_gradient(v, P0, model_row1)
            for t in rng.choice(len(pats), size=3, replace=False):
                e = np.zeros(len(pats))
                e[t] = step
                fd = (
                    objective(v + e, P0, model_row1) - objective(v - e, P0, model_row1)
                ) / (2 * step)
                assert grad[t] == pytest.approx(fd, rel=1e-6)

    def test_euler_identity(self, model_row1):
        # degree -1 homogeneity: sum_t v_t * (-grad_t) equals the objective
        rng = np.random.default_rng(9)
        for _ in range(10):
            v = random_pd_fractions(rng, 7, 6)
            grad = objective_gradient(v, P0, model_row1)
            assert -float(v @ grad) == pytest.approx(
                objective(v, P0, model_row1), rel=1e-10
            )

    def test_strictly_negative_components(self, model_row1):
        rng = np.random.default_rng(10)
        for _ in range(5):
            v = random_pd_fractions(rng, 7, 6)
            assert (objective_gradient(v, P0, model_row1) < 0).all()

    def test_singular_blend_raises(self, model_row1):
        pats = all_patterns(model_row1)
        v = np.array([1.0 if t.mask == (1, 0, 0) else 0.0 for t in pats])
        with pytest.raises(ValueError, match="singular"):
            objective_gradient(v, P0, model_row1)


class TestSolver:
    def test_published_design_rtpcr_1600(self, model_row1):
        report = solve_c_optimal(P0, model_row1, budget=1e7)
        counts = nonzero_counts(report.design)
        assert set(counts) == {"001", "101"}
        assert counts["001"] == pytest.approx(521, abs=2)
        assert counts["101"] == pytest.approx(13125, abs=2)

    def test_published_design_rtpcr_1000(self, model_row2):
        report = solve_c_optimal(P0, model_row2, budget=1e7)
        counts = nonzero_counts(report.design)
        assert set(counts) == {"001", "011"}
        assert counts["001"] == pytest.approx(8000, abs=2)
        assert counts["011"] == pytest.approx(5846, abs=2)

    def test_published_design_rtpcr_100_single_support(self, model_row4):
        report = solve_c_optimal(P0, model_row4, budget=1e7)
        v = report.design.fractions
        support = {t.label for t, x in zip(report.design.patterns, v) if x > 0}
        assert support == {"011"}
        assert nonzero_counts(report.design) == {"011": 25000}

    def test_full_budget_used(self, model_row1):
        report = solve_c_optimal(P0, model_row1)
        assert report.design.fractions.sum() == pytest.approx(1.0, abs=1e-12)

    def test_support_attains_common_value(self, model_row1):
        report = solve_c_optimal(P0, model_row1)
        v = report.design.fractions
        grad = objective_gradient(v, P0, model_row1)
        sensitivities = -grad
        mu = report.mu_star
        on = v > 1e-7
        assert np.abs(sensitivities[on] - mu).max() <= 1e-6 * mu
        assert (sensitivities[~on] <= mu * (1 + 1e-6)).all()

    def test_budget_invariance(self, model_row1):
        r1 = solve_c_optimal(P0, model_row1, budget=1e7)
        r2 = solve_c_optimal(P0, model_row1, budget=2e7)
        assert (r1.design.fractions == r2.design.fractions).all()
        assert r2.min_variance == pytest.approx(r1.min_variance / 2.0, rel=1e-12)

    def test_two_pattern_solver_matches_golden_section(self, model_row2):
        pair = [make_pattern((0, 0, 1), model_row2), make_pattern((0, 1, 1), model_row2)]
        report = solve_c_optimal(P0, model_row2, patterns=pair)
        x_oracle = golden_section_two_pattern(model_row2, P0, pair)
        assert report.design.fractions[0] == pytest.approx(x_oracle, abs=1e-5)

    def test_infeasible_model_raises(self):
        base = default_model()
        flat = base.with_test_overrides(
            {t.id: {"sensitivity": 0.5, "specificity": 0.5} for t in base.tests}
        )
        with pytest.raises(InfeasibleDesignError):
            solve_c_optimal(P0, flat)

    @pytest.mark.parametrize("budget", [1.0, 2.5e3, 1e7, 3.7e9])
    def test_priced_equals_a_fresh_solve(self, model_row1, budget):
        report = solve_c_optimal(P0, model_row1, budget=1e7).priced(budget)
        fresh = solve_c_optimal(P0, model_row1, budget=budget)
        assert json.dumps(report.to_dict()) == json.dumps(fresh.to_dict())
        assert report.design.fractions.tobytes() == fresh.design.fractions.tobytes()

    def test_report_consistency(self, model_row1):
        report = solve_c_optimal(P0, model_row1, budget=1e7)
        assert report.min_variance == report.objective / 1e7
        assert report.mu_star == report.objective
        assert report.kkt_residual <= 1e-6 * report.mu_star


def seven_test_model():
    """Seven tests whose c-optimal design has a singular information matrix."""
    tests = [TestSpec(f"t{j}", 100.0 + 50.0 * j, 0.9, 0.95) for j in range(7)]
    rows = ("1000101", "0100110", "0010011", "0001111", "0000000")
    return DiseaseModel(tests=tests, nominal=[[int(c) for c in r] for r in rows], u=np.ones(4))


def random_model(rng):
    """3-5 tests, k = 2-4, distinct arbitrary nominal rows, u = 1, Dirichlet p."""
    n_tests = int(rng.integers(3, 6))
    k = int(rng.integers(2, 5))
    tests = [
        TestSpec(
            f"t{j}",
            float(rng.uniform(50.0, 2000.0)),
            float(rng.uniform(0.55, 0.99)),
            float(rng.uniform(0.55, 0.99)),
        )
        for j in range(n_tests)
    ]
    rows = rng.choice(2**n_tests, size=k + 1, replace=False)
    nominal = [[(int(r) >> j) & 1 for j in range(n_tests)] for r in rows]
    p = rng.dirichlet(np.ones(k + 1))[:k]
    return DiseaseModel(tests=tests, nominal=nominal, u=np.ones(k)), p


class TestTypedErrors:
    def test_singular_end_point_raises_convergence_error(self):
        with pytest.raises(ConvergenceError, match="singular"):
            solve_c_optimal(np.full(4, 0.1), seven_test_model(), budget=1e6)

    def test_random_models_certify_or_raise_typed(self):
        # Each solve returns a design that objective and kkt_check certify,
        # or refuses it with a typed error; a singular optimum is refused by
        # the same eigenvalue rule that makes objective call it unbounded.
        outcomes = {"certified": 0, "typed": 0}
        for seed in range(60):
            model, p = random_model(np.random.default_rng(seed))
            try:
                report = solve_c_optimal(p, model, max_iter=300)
            except InfeasibleDesignError:
                outcomes["typed"] += 1
                continue
            except ConvergenceError as exc:
                assert "singular" in str(exc)
                outcomes["typed"] += 1
                continue
            v = report.design.fractions
            assert math.isfinite(objective(v, p, model))
            assert kkt_check(v, p, model) <= KKT_TOL * report.objective
            outcomes["certified"] += 1
        assert outcomes["certified"] >= 1 and outcomes["typed"] >= 1


# A three-point design of the benchmark's fixed requests.
THREE_POINT_CASE = {
    "tests": [
        ("ab0", 1648.33, 0.7054, 0.953),
        ("ab1", 1919.04, 0.8274, 0.9708),
        ("inf2", 1784.52, 0.5665, 0.9618),
        ("inf3", 1448.92, 0.9048, 0.9327),
        ("ab4", 1393.15, 0.7764, 0.9389),
    ],
    "nominal": [[0, 0, 1, 1, 0], [1, 1, 0, 0, 1], [1, 1, 1, 1, 1], [0, 0, 0, 0, 0]],
    "point": [0.0382, 0.1569, 0.0736],
}


class TestSolverWork:
    """Support switches and three-point supports certify in a few Newton steps."""

    @pytest.mark.parametrize(
        "rtpcr_cost, p, support",
        [
            (1053.0, (0.10, 0.30, 0.01), {"001", "101"}),
            (1100.0, (0.05, 0.10, 0.02), {"011", "101"}),
        ],
    )
    def test_support_switch(self, rtpcr_cost, p, support):
        model = default_model(rtpcr_cost=rtpcr_cost)
        report = solve_c_optimal(np.array(p), model)
        design = report.design
        assert {t.label for t, v in zip(design.patterns, design.fractions) if v > 0} == support
        assert kkt_check(design.fractions, p, model) <= KKT_TOL * report.objective
        assert report.iterations <= 40

    def test_three_point_support(self):
        case = THREE_POINT_CASE
        model = DiseaseModel(
            tests=[TestSpec(*t) for t in case["tests"]], nominal=case["nominal"], u=np.ones(3)
        )
        report = solve_c_optimal(case["point"], model)
        assert np.count_nonzero(report.design.fractions) == 3
        assert kkt_check(report.design.fractions, case["point"], model) <= KKT_TOL * report.objective
        assert report.iterations <= 40


class TestDesignFromFractions:
    def test_single_pattern_counts(self, model_row4):
        pats = [make_pattern((0, 1, 1), model_row4)]
        design = design_from_fractions([1.0], 1e7, pats)
        assert design.counts[0] == pytest.approx(25000.0)
        assert design.integer_counts[0] == 25000

    def test_row2_arithmetic(self, model_row2):
        pats = [make_pattern((0, 0, 1), model_row2), make_pattern((0, 1, 1), model_row2)]
        design = design_from_fractions([0.24, 0.76], 1e7, pats)
        assert design.counts[0] == pytest.approx(0.24 * 1e7 / 300.0)
        assert design.counts[1] == pytest.approx(0.76 * 1e7 / 1300.0)
        assert list(design.integer_counts) == [8000, 5846]
        # fractional counts spend the budget exactly
        assert float(design.counts @ design.costs) == pytest.approx(1e7, rel=1e-12)

    def test_integer_design_never_overspends(self, model_row1):
        pats = all_patterns(model_row1)
        rng = np.random.default_rng(17)
        for _ in range(300):
            v = rng.dirichlet(np.full(len(pats), 0.5))
            budget = float(rng.integers(1_000, 100_000_000))
            design = design_from_fractions(v, budget, pats)
            assert design.realized_cost <= budget
            assert (np.abs(design.integer_counts - design.counts) < 1.0).all()
            # no pattern left short could still be afforded
            short = design.integer_counts < design.counts - 1e-9
            left = budget - design.realized_cost
            assert not (short & (design.costs <= left)).any()

    def test_linear_in_budget(self, model_row1):
        pats = all_patterns(model_row1)
        rng = np.random.default_rng(3)
        v = rng.dirichlet(np.ones(len(pats)))
        d1 = design_from_fractions(v, 1e6, pats)
        d2 = design_from_fractions(v, 2e6, pats)
        assert np.array_equal(d2.counts, 2.0 * d1.counts)
        assert np.array_equal(d1.fractions, d2.fractions)

    def test_rejects_nonpositive_budget(self, model_row1):
        pats = all_patterns(model_row1)
        for budget in (0.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="budget"):
                design_from_fractions(np.ones(len(pats)) / len(pats), budget, pats)


class TestKKTCheck:
    def test_solution_residual_small(self, model_row1):
        report = solve_c_optimal(P0, model_row1)
        residual = kkt_check(report.design.fractions, P0, model_row1)
        assert residual <= 1e-6 * report.mu_star

    def test_single_pattern_simplex_is_exact(self, model_row1):
        pats = [make_pattern((1, 1, 1), model_row1)]
        residual = kkt_check(np.array([1.0]), P0, model_row1, patterns=pats)
        assert residual <= 1e-10

    def test_perturbed_solution_is_flagged(self, model_row1):
        report = solve_c_optimal(P0, model_row1)
        v = report.design.fractions.copy()
        support = np.flatnonzero(v > 1e-7)
        assert support.size >= 2
        v[support[0]] += 0.05
        v[support[1]] -= 0.05
        residual = kkt_check(v, P0, model_row1)
        assert residual > 1e-3 * report.mu_star


class TestBudgetForMargin:
    def test_halving_margin_quadruples_budget(self, model_row1):
        c1 = budget_for_margin(P0, model_row1, moe=0.02)
        c2 = budget_for_margin(P0, model_row1, moe=0.01)
        assert c2 == pytest.approx(4.0 * c1, rel=1e-12)

    def test_normal_quantile_value(self):
        # two-sided 95% critical value, and agreement with an independent oracle
        assert abs(normal_quantile(0.025)) == pytest.approx(1.959963984540054, abs=1e-10)
        for q in (1e-9, 1e-4, 0.025, 0.2, 0.5, 0.8, 0.975, 1 - 1e-4, 1 - 1e-9):
            assert normal_quantile(q) == pytest.approx(
                scipy.stats.norm.ppf(q), abs=1e-10
            )

    def test_round_trip_margin(self, model_row1):
        moe, alpha = 0.015, 0.05
        budget = budget_for_margin(P0, model_row1, moe=moe, alpha=alpha)
        report = solve_c_optimal(P0, model_row1, budget=budget)
        z = abs(normal_quantile(alpha / 2.0))
        achieved = z * math.sqrt(report.min_variance)
        assert achieved == pytest.approx(moe, rel=1e-9)

    def test_rejects_bad_inputs(self, model_row1):
        with pytest.raises(ValueError, match="margin"):
            budget_for_margin(P0, model_row1, moe=0.0)
        with pytest.raises(ValueError, match="alpha"):
            budget_for_margin(P0, model_row1, moe=0.01, alpha=1.5)
