"""Design-solver tests: the criterion kernel against explicit inverses,
criterion values, gradients, the simplex solver against published designs
and independent scalar oracles, optimality certificates, pricing a report
at another budget, and the margin-of-error budget inversion."""

import json
import math
import statistics

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
    check_a1,
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
from serodesign import coptimal
from serodesign.cli import fixture_path, load_config
from serodesign.coptimal import (
    CERTIFICATE_TOL,
    KKT_TOL,
    SUPPORT_EPS,
    _criterion,
    _finish,
    _pattern_infos,
    _solve_simplex,
)
from _outcomes import outcome_rows as oracle_rows
from _suites import (
    golden_section_two_pattern,
    random_pd_fractions,
    worst_convexity_slack,
)

from conftest import SINGULAR_HESSIAN_CONFIG

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
def info_stacks(draw, grid: bool):
    """(v, infos, u): T pattern informations at a point, (T, k, k), or on a
    grid of m points, (T, m, k, k).

    Each information is G G' + I/20 for G with entries in [-1, 1], so every
    nonnegative nonzero blend has condition number at most 20 k^2 + 1.
    """
    n_patterns, k = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    m = draw(st.integers(1, 6)) if grid else 1
    g = draw(arrays(np.float64, (n_patterns, m, k, k), elements=st.floats(-1.0, 1.0)))
    infos = g @ np.swapaxes(g, -1, -2) + np.eye(k) / 20.0
    weights = st.sampled_from([0.0, 0.1, 0.5, 1.0])
    v = np.array(draw(st.lists(weights, min_size=n_patterns, max_size=n_patterns)))
    if not v.any():
        v[draw(st.integers(0, n_patterns - 1))] = 1.0
    u = draw(st.lists(st.floats(0.1, 2.0), min_size=k, max_size=k))
    signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=k, max_size=k))
    u = np.array(u) * np.array(signs)
    if not grid:
        infos = infos[:, 0]
    return v, infos, u


def assert_kernel_matches_inverse(v, infos, u):
    values, x = _criterion(v, infos, u)
    values = np.asarray(values)
    blends = np.tensordot(v, infos, axes=1)
    assert values.shape == blends.shape[:-2] and x.shape == blends.shape[:-1]
    inverses = np.linalg.inv(blends)
    np.testing.assert_allclose(values, inverses @ u @ u, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(x, inverses @ u, rtol=1e-10, atol=1e-12)


class TestCriterionKernel:
    @PROPERTY
    @given(info_stacks(grid=False))
    def test_at_a_point(self, stack):
        assert_kernel_matches_inverse(*stack)

    @PROPERTY
    @given(info_stacks(grid=True))
    def test_on_a_grid(self, stack):
        assert_kernel_matches_inverse(*stack)


@st.composite
def supported_designs(draw):
    """(model, p, v): a model of 2-5 tests and k = 2-4 with distinct nominal
    rows, an interior point p, and fractions on 1-3 random patterns."""
    n_tests = draw(st.integers(2, 5))
    k = draw(st.integers(2, min(4, 2**n_tests - 1)))
    tests = [
        TestSpec(f"t{j}", draw(st.floats(50.0, 2000.0)), draw(st.floats(0.55, 0.99)),
                 draw(st.floats(0.55, 0.99)))
        for j in range(n_tests)
    ]
    rows = draw(st.lists(st.integers(0, 2**n_tests - 1), min_size=k + 1, max_size=k + 1, unique=True))
    nominal = [[(r >> j) & 1 for j in range(n_tests)] for r in rows]
    u = np.array(draw(st.lists(st.floats(0.1, 2.0), min_size=k, max_size=k)))
    u *= draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=k, max_size=k))
    model = DiseaseModel(tests=tests, nominal=nominal, u=u)
    weights = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=k + 1, max_size=k + 1)))
    p = (weights / weights.sum())[:k]
    support = draw(st.sets(st.integers(0, 2**n_tests - 2), min_size=1, max_size=3))
    v = np.zeros(2**n_tests - 1)
    for t in support:
        v[t] = draw(st.floats(0.05, 1.0))
    return model, p, v / v.sum()


def outcome_rows(model, pattern):
    """(d, q): the pattern's rows of P(y | state), one per outcome, from
    the scalar oracle, and their deviations from the reference state."""
    q = oracle_rows(pattern, model)
    return q[:, :-1] - q[:, -1:], q


class TestIdentification:
    """A design's information is singular exactly when the outcome rows of
    its support have rank below k, at every p and for any costs."""

    @settings(PROPERTY, max_examples=200)  # about one in six supports identifies p
    @given(supported_designs())
    def test_objective_is_infinite_exactly_below_full_rank(self, case):
        model, p, v = case
        support = [(t, x) for t, x in zip(all_patterns(model), v) if x > 0]
        rows = [outcome_rows(model, t) for t, _ in support]
        value = objective(v, p, model)
        if np.linalg.matrix_rank(np.vstack([d for d, _ in rows])) < model.k:
            assert value == math.inf
            return
        info = sum(
            x / t.cost * d.T @ (d / (q @ np.append(p, 1.0 - p.sum()))[:, None])
            for (t, x), (d, q) in zip(support, rows)
        )
        expected = model.u @ np.linalg.inv(info) @ model.u
        np.testing.assert_allclose(value, expected, rtol=1e-9)

    @pytest.mark.parametrize("v", [
        [0.5, 0.5 - SUPPORT_EPS, SUPPORT_EPS],
        [0.0, 0.0, SUPPORT_EPS],
        [0.5, 0.5, 1e-12],
        [1.0, 0.0, 0.0],
        [0.0, 0.0, 0.0],
    ])
    def test_no_fraction_above_the_support_threshold_on_the_identifying_pattern(self, v):
        # two tests and k = 3: only the pattern of both tests identifies p;
        # the patterns of one test have rank 1 each, and 2 together
        tests = [TestSpec("a", 100.0, 0.9, 0.95), TestSpec("b", 300.0, 0.8, 0.97)]
        model = DiseaseModel(tests=tests, nominal=[[1, 0], [0, 1], [1, 1], [0, 0]], u=np.ones(3))
        assert objective(v, [0.1, 0.2, 0.3], model) == math.inf
        assert math.isfinite(objective([0.5, 0.5 - 2e-7, 2e-7], [0.1, 0.2, 0.3], model))


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
        mu = report.objective
        on = v > 1e-7
        assert np.abs(sensitivities[on] - mu).max() <= 1e-6 * mu
        assert (sensitivities[~on] <= mu * (1 + 1e-6)).all()

    def test_budget_invariance(self, model_row1):
        r1 = solve_c_optimal(P0, model_row1, budget=1e7)
        r2 = solve_c_optimal(P0, model_row1, budget=2e7)
        assert (r1.design.fractions == r2.design.fractions).all()
        assert r2.min_variance == pytest.approx(r1.min_variance / 2.0, rel=1e-12)

    def test_two_pattern_solver_matches_golden_section(self, model_row2):
        # the optimum lies on the 001-011 edge of the simplex, so the best
        # split along that edge is the optimal design
        pair = ((0, 0, 1), (0, 1, 1))
        report = solve_c_optimal(P0, model_row2)
        support = {t.mask for t, x in zip(report.design.patterns, report.design.fractions) if x > 0}
        assert support == set(pair)
        x_oracle = golden_section_two_pattern(model_row2, P0, pair)
        assert report.design.fraction(pair[0]) == pytest.approx(x_oracle, abs=1e-5)

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
        assert report.to_dict()["mu_star"] == report.objective
        assert report.kkt_residual <= 1e-6 * report.objective


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
        # Each solve, at an interior point and on the faces of the simplex
        # (one zero coordinate, the reference state at probability 0, a
        # vertex), returns a design that objective and kkt_check certify and
        # that is no worse than the uniform design, or refuses it with a
        # typed error; a singular optimum is refused by the same rank rule
        # on its support that makes objective call it unbounded.
        outcomes = {"certified": 0, "typed": 0}
        for seed in range(60):
            rng = np.random.default_rng(seed)
            model, p = random_model(rng)
            zero = p.copy()
            zero[rng.integers(model.k)] = 0.0
            full = rng.dirichlet(np.ones(model.k))  # sums to 1
            vertex = np.eye(model.k)[rng.integers(model.k)]
            for point in (p, zero, full, vertex):
                try:
                    report = solve_c_optimal(point, model)
                except InfeasibleDesignError:
                    outcomes["typed"] += 1
                    continue
                except ConvergenceError as exc:
                    assert "singular" in str(exc)
                    outcomes["typed"] += 1
                    continue
                v = report.design.fractions
                assert math.isfinite(objective(v, point, model))
                assert kkt_check(v, point, model) <= KKT_TOL * report.objective
                assert objective(np.full(len(v), 1.0 / len(v)), point, model) >= report.objective
                outcomes["certified"] += 1
        assert outcomes["certified"] >= 1 and outcomes["typed"] >= 1

    @pytest.mark.parametrize("cost", [1e-18, 1e-30])
    def test_singular_start_solve_raises_convergence_error(self, cost):
        # A1 holds, yet one tiny cost makes the summed cost-scaled information
        # singular in floating point at the barrier path's first solve
        model = default_model(rat_cost=cost)
        assert check_a1(P0, model).ok
        message = r"^singular summed pattern information at the barrier start$"
        with pytest.raises(ConvergenceError, match=message):
            solve_c_optimal(P0, model)
        with pytest.raises(ConvergenceError, match=message):
            _solve_simplex(_pattern_infos(P0, model), model)

    def test_singular_barrier_hessian_raises_convergence_error(self, singular_hessian_model):
        point = SINGULAR_HESSIAN_CONFIG["scenario"]["point"]
        assert check_a1(point, singular_hessian_model).ok
        with pytest.raises(ConvergenceError, match=r"^singular barrier Hessian at Newton step \d+$"):
            solve_c_optimal(point, singular_hessian_model)

    def test_indefinite_barrier_hessian_raises_convergence_error(self):
        # The summed information diag(3, -1) is invertible and the start is
        # strictly feasible, but the first barrier Hessian is indefinite,
        # with u'H^-1 u = -0.52: no positive tau centres that start.
        model = DiseaseModel(
            tests=[TestSpec("a", 1.0, 0.9, 0.9), TestSpec("b", 1.0, 0.9, 0.9)],
            nominal=[[1, 0], [0, 1], [0, 0]],
            u=[2.0, 1.0],
        )
        infos = np.zeros((3, 2, 2))
        infos[0] = np.diag([1.0, -1.0])
        infos[1] = np.diag([2.0, 0.0])
        with pytest.raises(ConvergenceError) as err:
            _solve_simplex(infos, model)
        assert str(err.value) == "barrier Hessian is not positive definite at Newton step 0"
        assert err.value.best is None

    def test_newton_step_cap_raises(self, monkeypatch, model_row1):
        monkeypatch.setattr(coptimal, "MAX_NEWTON_STEPS", 3)
        with pytest.raises(
            ConvergenceError, match="no certified optimum after 3 of at most 3 Newton steps"
        ):
            solve_c_optimal(P0, model_row1)

    def test_no_feasible_barrier_step_raises(self, monkeypatch, model_row1):
        monkeypatch.setattr(coptimal, "MAX_BACKTRACKS", 0)
        with pytest.raises(ConvergenceError, match="no strictly feasible barrier step"):
            solve_c_optimal(P0, model_row1)


class TestScaleOfU:
    """a(v; s u) = s^2 a(v; u): the solve takes the same steps to the same
    fractions at every scale of u."""

    @staticmethod
    def assert_scale_free(p, model):
        base = solve_c_optimal(p, model)
        for exponent in range(-150, 151, 50):
            s = 10.0**exponent
            scaled = DiseaseModel(tests=model.tests, nominal=model.nominal, u=model.u * s)
            report = solve_c_optimal(p, scaled)
            assert report.iterations == base.iterations, s
            assert np.abs(report.design.fractions - base.design.fractions).max() <= 1e-12, s
            assert report.objective / s / s == pytest.approx(base.objective, rel=1e-12), s

    @pytest.mark.parametrize("fixture", ["table1_row1", "table1_row2", "table1_row3"])
    def test_point_fixtures(self, fixture):
        config = load_config(fixture_path(fixture))
        self.assert_scale_free(config.scenario, config.model)

    def test_random_models(self):
        certified = 0
        for seed in range(60):
            model, p = random_model(np.random.default_rng(seed))
            try:
                solve_c_optimal(p, model)
            except ConvergenceError:  # a singular optimum, refused
                continue
            self.assert_scale_free(p, model)
            certified += 1
        assert certified >= 15


class TestCertificate:
    """A returned design's first-order residual is within CERTIFICATE_TOL of
    its criterion value, the finish residual _solve_simplex certifies; so
    no returned design comes near KKT_TOL, which kkt_check documents."""

    def test_random_model_reports(self):
        certified = 0
        for seed in range(300):
            model, p = random_model(np.random.default_rng(seed))
            try:
                report = solve_c_optimal(p, model)
            except (ConvergenceError, InfeasibleDesignError):
                continue
            assert report.kkt_residual <= CERTIFICATE_TOL * report.objective, seed
            certified += 1
        assert certified >= 80

    def test_two_state_models_certify(self):
        # With k = 1 the barrier gradient is parallel to u, so a centred
        # Newton decrement is roundoff of either sign and must not be refused.
        # One-test and multi-test models, costs over six decades, interior
        # points and both ends.
        rng = np.random.default_rng(2)
        for n_tests in (1, 2, 3):
            for _ in range(100):
                tests = [
                    TestSpec(
                        f"t{j}",
                        float(10.0 ** rng.uniform(-3.0, 3.0)),
                        float(rng.uniform(0.55, 0.99)),
                        float(rng.uniform(0.55, 0.99)),
                    )
                    for j in range(n_tests)
                ]
                rows = rng.choice(2**n_tests, size=2, replace=False)
                nominal = [[(int(r) >> j) & 1 for j in range(n_tests)] for r in rows]
                model = DiseaseModel(tests=tests, nominal=nominal, u=[rng.uniform(-5.0, 5.0)])
                for p in (0.0, rng.uniform(), 1.0):
                    report = solve_c_optimal([p], model)
                    assert report.kkt_residual <= CERTIFICATE_TOL * report.objective


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


class TestFinish:
    def test_a_repeated_active_pattern_keeps_the_step_finite(self):
        # Patterns 0 and 1 are the same matrix, so their two rows of the
        # Jacobian coincide: the least-squares solve truncates its null
        # direction and splits the multiplier evenly between them.
        b = np.array([[2.0, 0.5], [0.5, 1.0]])
        stack = np.stack([b, b, np.diag([1.0, 0.5])])
        u = np.array([1.0, 1.0])
        x = np.linalg.solve(b, u)
        y = 0.99 * x / math.sqrt(u @ x) + np.array([0.01, -0.01])
        lam = np.array([0.25, 0.3, 0.01])
        active = np.array([True, True, False])
        unit, lam_s, by = u / math.sqrt(2.0), lam[active] / math.sqrt(2.0), stack[active] @ y
        jac = np.block([[2.0 * np.einsum("t,tij->ij", lam_s, stack[active]), 2.0 * by.T],
                        [2.0 * by, np.zeros((2, 2))]])
        assert np.linalg.matrix_rank(jac) == 3
        entry = np.abs(np.concatenate([2.0 * lam_s @ by - unit, by @ y - 1.0])).max()
        y_fin, lam_fin, resid = _finish(stack.reshape(3, 4), u, y, lam, active)
        assert np.isfinite(y_fin).all() and np.isfinite(lam_fin).all()
        assert resid <= entry
        assert lam_fin[0] + lam_fin[1] == pytest.approx(math.sqrt(u @ x) / 2.0, rel=1e-12)
        assert lam_fin[2] == 0.0


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
        assert report.iterations <= 30

    def test_three_point_support(self):
        case = THREE_POINT_CASE
        model = DiseaseModel(
            tests=[TestSpec(*t) for t in case["tests"]], nominal=case["nominal"], u=np.ones(3)
        )
        report = solve_c_optimal(case["point"], model)
        assert np.count_nonzero(report.design.fractions) == 3
        assert kkt_check(report.design.fractions, case["point"], model) <= KKT_TOL * report.objective
        assert report.iterations <= 30

    def test_random_models_certify_in_few_steps(self):
        # which random models certify does not move with the barrier
        # schedule; how many Newton steps they take does
        steps, refused = [], 0
        for seed in range(300):
            model, p = random_model(np.random.default_rng(seed))
            try:
                steps.append(solve_c_optimal(p, model).iterations)
            except (ConvergenceError, InfeasibleDesignError):
                refused += 1
        assert (len(steps), refused) == (89, 211)
        assert statistics.mean(steps) <= 10


def nudged(infos, rng):
    """``infos`` with every entry moved one ulp up or down at random, then
    symmetrized by mirroring the upper triangle."""
    bumped = np.nextafter(infos, np.where(rng.random(infos.shape) < 0.5, -np.inf, np.inf))
    return np.triu(bumped) + np.swapaxes(np.triu(bumped, 1), -1, -2)


class TestIterations:
    """``iterations`` counts the barrier's Newton steps, which one ulp of the
    cost-scaled informations does not move; where a finish stops, it does."""

    @pytest.mark.parametrize("fixture", ["table1_row1", "table1_row2", "table1_row3"])
    def test_point_fixture_counts_survive_one_ulp(self, fixture):
        config = load_config(fixture_path(fixture))
        infos = _pattern_infos(config.scenario, config.model)
        steps = _solve_simplex(infos, config.model)[3]
        rng = np.random.default_rng(2026)
        counts = [_solve_simplex(nudged(infos, rng), config.model)[3] for _ in range(50)]
        assert counts == [steps] * 50

    def test_random_model_counts_survive_one_ulp(self):
        rng = np.random.default_rng(2026)
        certified = 0
        for seed in range(150):
            model, p = random_model(np.random.default_rng(seed))
            infos = _pattern_infos(p, model)
            try:
                steps = _solve_simplex(infos, model)[3]
            except ConvergenceError:  # a singular optimum, refused
                continue
            for _ in range(3):
                assert _solve_simplex(nudged(infos, rng), model)[3] == steps, seed
            certified += 1
        assert certified >= 40


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

    def test_count_a_hair_below_a_whole_number_stays_within_budget(self, model_row1):
        # 1000 participants of 101 cost 1e-10 of a participant more than the
        # budget, so the design buys 999
        full = [make_pattern((1, 0, 1), model_row1)]
        design = design_from_fractions([1.0], (1000 - 1e-10) * full[0].cost, full)
        assert 1000 - 1e-9 < design.counts[0] < 1000
        assert design.integer_counts[0] == 999
        assert design.realized_cost <= design.budget

    @pytest.mark.parametrize(
        "whole, other, other_count, expected",
        [
            # 6 of 001 lands a hair below 6, and the budget buys the sixth
            (6, 4, 7.0, {"001": 6, "101": 7}),
            # 1 of 001 lands a hair above 1; the half 111 left over would buy
            # another 001, which the hair does not earn
            (1, 6, 3.5, {"001": 1, "111": 3}),
        ],
    )
    def test_whole_counts_survive_split_roundoff(
        self, model_row1, whole, other, other_count, expected
    ):
        pats = all_patterns(model_row1)
        budget = whole * pats[0].cost + other_count * pats[other].cost
        v = np.zeros(len(pats))
        v[0] = whole * pats[0].cost / budget
        v[other] = 1.0 - v[0]
        design = design_from_fractions(v, budget, pats)
        assert 0 < abs(design.counts[0] - whole) < 1e-12  # the split's roundoff
        assert nonzero_counts(design) == expected

    def test_linear_in_budget(self, model_row1):
        pats = all_patterns(model_row1)
        rng = np.random.default_rng(3)
        v = rng.dirichlet(np.ones(len(pats)))
        d1 = design_from_fractions(v, 1e6, pats)
        d2 = design_from_fractions(v, 2e6, pats)
        assert np.array_equal(d2.counts, 2.0 * d1.counts)
        assert np.array_equal(d1.fractions, d2.fractions)

    def test_rejects_budget_beyond_exact_counts(self, model_row1):
        # from 2**53 relaxed participants on, not every count is a double,
        # so rounding to integers is no longer exact; the design refuses
        # such a budget, also when a report is priced there
        full = [make_pattern((1, 0, 1), model_row1)]
        below = design_from_fractions([1.0], 2.0**52 * full[0].cost, full)
        assert below.integer_counts[0] == 2**52
        with pytest.raises(ValueError, match=r"budget 6\.7554e\+18 .* pattern 101"):
            design_from_fractions([1.0], 2.0**53 * full[0].cost, full)
        report = solve_c_optimal(P0, model_row1)
        with pytest.raises(ValueError, match=r"budget 1e\+22 .* pattern"):
            report.priced(1e22)

    def test_rejects_nonpositive_budget(self, model_row1):
        pats = all_patterns(model_row1)
        for budget in (0.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="budget"):
                design_from_fractions(np.ones(len(pats)) / len(pats), budget, pats)


class TestKKTCheck:
    def test_solution_residual_small(self, model_row1):
        report = solve_c_optimal(P0, model_row1)
        residual = kkt_check(report.design.fractions, P0, model_row1)
        assert residual <= 1e-6 * report.objective

    def test_single_pattern_simplex_is_exact(self, model_row1):
        # a one-test model has a one-pattern simplex
        antibody = DiseaseModel(tests=model_row1.tests[2:], nominal=[[1], [0]], u=[1.0])
        residual = kkt_check(np.array([1.0]), [0.3], antibody)
        assert residual <= 1e-10

    def test_perturbed_solution_is_flagged(self, model_row1):
        report = solve_c_optimal(P0, model_row1)
        v = report.design.fractions.copy()
        support = np.flatnonzero(v > 1e-7)
        assert support.size >= 2
        v[support[0]] += 0.05
        v[support[1]] -= 0.05
        residual = kkt_check(v, P0, model_row1)
        assert residual > 1e-3 * report.objective


class TestBudgetForMargin:
    def test_halving_margin_quadruples_budget(self, model_row1):
        c1 = budget_for_margin(P0, model_row1, moe=0.02).design.budget
        c2 = budget_for_margin(P0, model_row1, moe=0.01).design.budget
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
        report = budget_for_margin(P0, model_row1, moe=moe, alpha=alpha)
        z = abs(normal_quantile(alpha / 2.0))
        achieved = z * math.sqrt(report.min_variance)
        assert achieved == pytest.approx(moe, rel=1e-9)
        assert report.design.budget == z * z * report.objective / (moe * moe)

    def test_is_the_solve_at_its_budget(self, model_row1):
        report = budget_for_margin(P0, model_row1, moe=0.01)
        solved = solve_c_optimal(P0, model_row1, budget=report.design.budget)
        assert json.dumps(report.to_dict()) == json.dumps(solved.to_dict())
        # a solve at any other budget has the same fractions and certificate
        for budget in (1e-3, 1e7):
            other = solve_c_optimal(P0, model_row1, budget=budget)
            np.testing.assert_array_equal(report.design.fractions, other.design.fractions)
            assert (report.objective, report.kkt_residual, report.iterations) == (
                other.objective, other.kkt_residual, other.iterations
            )

    def test_rejects_bad_inputs(self, model_row1):
        with pytest.raises(ValueError, match="margin"):
            budget_for_margin(P0, model_row1, moe=0.0)
        with pytest.raises(ValueError, match="alpha"):
            budget_for_margin(P0, model_row1, moe=0.01, alpha=1.5)

    @pytest.mark.parametrize("moe", [math.inf, 1e-300, 1e-170, 1e300])
    def test_rejects_a_margin_without_a_positive_finite_budget(self, model_row1, moe):
        # moe * moe is inf, underflows to 0, or gives a budget of 0 or inf
        with pytest.raises(ValueError, match="margin of error"):
            budget_for_margin(P0, model_row1, moe=moe)


def fair_coin_tests(model):
    """The model with every sensitivity and specificity 0.5: no outcome
    depends on the state, so no design identifies p."""
    return model.with_test_overrides(
        {t.id: {"sensitivity": 0.5, "specificity": 0.5} for t in model.tests}
    )


# Each rule on a solver input, with its message.
INPUT_ERRORS = {
    "fractions-shape": (
        lambda m: design_from_fractions([0.5, 0.5], 1e7, all_patterns(m)),
        ValueError,
        "need one fraction per pattern, got shape (2,)",
    ),
    "quantile-zero": (
        lambda m: normal_quantile(0.0),
        ValueError,
        "quantile argument must lie strictly in (0, 1), got 0.0",
    ),
    "quantile-one": (
        lambda m: normal_quantile(1.0),
        ValueError,
        "quantile argument must lie strictly in (0, 1), got 1.0",
    ),
    "kkt-singular-blend": (
        lambda m: kkt_check(np.eye(7)[0], P0, m),  # 001 alone cannot identify p
        ValueError,
        "blended information matrix is singular; KKT residual undefined",
    ),
    "summed-information-singular": (
        lambda m: _solve_simplex(_pattern_infos(P0, fair_coin_tests(m)), fair_coin_tests(m)),
        InfeasibleDesignError,
        "the summed pattern information matrix is singular",
    ),
}


@pytest.mark.parametrize("case", list(INPUT_ERRORS))
def test_input_error_message(case):
    call, error, message = INPUT_ERRORS[case]
    with pytest.raises(error) as err:
        call(default_model())
    assert str(err.value) == message


def test_fraction_of_an_unknown_pattern(model_row1):
    design = solve_c_optimal(P0, model_row1).design
    with pytest.raises(KeyError) as err:
        design.fraction((1, 1, 1, 1))
    assert err.value.args[0] == "pattern (1, 1, 1, 1) not in design"
