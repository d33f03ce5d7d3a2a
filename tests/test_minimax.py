"""Worst-case design tests: the game payoff's curvature, the grid search
against the published worst case and against an exhaustive scan, and
equilibrium certification."""

import json
import math

import numpy as np
import pytest

import serodesign.minimax as minimax
from serodesign import (
    ConvergenceError,
    DiseaseModel,
    InfeasibleDesignError,
    ParameterBox,
    TestSpec,
    all_patterns,
    default_model,
    objective,
    saddle_check,
    solve_c_optimal,
    worst_case_design,
)
from serodesign.coptimal import (
    _criterion,
    _pattern_infos,
    _solve_simplex,
)
from serodesign.minimax import REFINE_MAX_ROUNDS, SADDLE_TOL
from _suites import random_interior_points, random_pd_fractions, worst_concavity_slack

from conftest import ROW1_POINT, ROW4_BOX


class TestPayoff:
    def test_concave_in_parameter(self, model_row1):
        worst = worst_concavity_slack(model_row1, n_trials=500, seed=4321)
        assert worst <= 1e-9

    def test_midpoint_concavity_spot_check(self, model_row1):
        rng = np.random.default_rng(22)
        for _ in range(50):
            v = random_pd_fractions(rng, 7, 6)
            p1, p2 = random_interior_points(rng, 2)
            mid = objective(v, (p1 + p2) / 2.0, model_row1)
            chord = (objective(v, p1, model_row1) + objective(v, p2, model_row1)) / 2.0
            assert mid >= chord - 1e-9


class TestWorstCaseDesign:
    def test_published_worst_case(self, row4_worst_case):
        report, _ = row4_worst_case
        assert np.abs(report.p_star - np.array([0.06, 0.45, 0.0])).max() <= 0.02
        counts = {
            t.label: int(w)
            for t, w in zip(report.design.patterns, report.design.integer_counts)
            if w > 0
        }
        assert set(counts) == {"001", "011"}
        assert counts["001"] == pytest.approx(838, abs=5)
        assert counts["011"] == pytest.approx(24371, abs=5)
        # budget split: about 2.5% on antibody-only, the rest on RTPCR+antibody
        v001 = report.design.fraction((0, 0, 1))
        assert v001 * 100 == pytest.approx(2.5, abs=0.3)
        assert 0.0 <= report.saddle_gap <= SADDLE_TOL * report.objective

    def test_point_box_reduces_to_local_solve(self, model_row1):
        box = ParameterBox(lower=ROW1_POINT, upper=ROW1_POINT)
        saddle = worst_case_design(box, model_row1, grid_step=0.01, budget=1e7)
        local = solve_c_optimal(ROW1_POINT, model_row1, budget=1e7)
        assert np.allclose(saddle.design.fractions, local.design.fractions, atol=1e-9)
        assert saddle.objective == pytest.approx(local.objective, rel=1e-12)
        assert np.allclose(saddle.p_star, ROW1_POINT)

    def test_restricting_to_one_pattern_costs_accuracy(self, model_row4, row4_worst_case):
        # forcing the whole budget onto RTPCR+antibody degrades the worst-case
        # standard error by the published factor
        report, _ = row4_worst_case
        pats = all_patterns(model_row4)
        pts = ROW4_BOX.grid(0.01)
        infos = _pattern_infos(pts, model_row4)
        only_011 = np.array([1.0 if t.mask == (0, 1, 1) else 0.0 for t in pats])
        worst_constrained = _criterion(only_011, infos, model_row4.u)[0].max()
        worst_optimal = _criterion(report.design.fractions, infos, model_row4.u)[0].max()
        factor = math.sqrt(worst_constrained / worst_optimal)
        assert factor == pytest.approx(1.0023, abs=0.0005)

    def test_game_value_matches_payoff_at_saddle(self, model_row4, row4_worst_case):
        report, _ = row4_worst_case
        assert report.objective == pytest.approx(
            objective(report.design.fractions, report.p_star, model_row4), rel=1e-9
        )
        assert report.kkt_residual <= 1e-6 * report.objective

    def test_infeasible_box_raises(self):
        from serodesign import InfeasibleDesignError, default_model

        base = default_model()
        flat = base.with_test_overrides(
            {t.id: {"sensitivity": 0.5, "specificity": 0.5} for t in base.tests}
        )
        with pytest.raises(InfeasibleDesignError):
            worst_case_design(ROW4_BOX, flat, grid_step=0.05)

    def test_tighter_tolerance_triggers_averaging_refinement(
        self, model_row4, row4_worst_case, monkeypatch
    ):
        # the exact best response certifies at a few 1e-4; asking for better
        # engages the averaged-best-response fallback, which must only
        # improve the certificate at the same worst-case parameter
        unrefined, _ = row4_worst_case
        monkeypatch.setattr(minimax, "SADDLE_TOL", 2e-4)
        refined = worst_case_design(ROW4_BOX, model_row4, grid_step=0.01)
        assert np.array_equal(refined.p_star, unrefined.p_star)
        assert refined.saddle_gap <= 2e-4 * refined.objective
        assert refined.saddle_gap < unrefined.saddle_gap


    @pytest.mark.parametrize("budget", [1.0, 2.5e3, 3.7e9])
    def test_priced_equals_a_fresh_solve(self, model_row4, row4_worst_case, budget):
        report = row4_worst_case[0].priced(budget)
        fresh = worst_case_design(ROW4_BOX, model_row4, grid_step=0.01, budget=budget)
        assert json.dumps(report.to_dict()) == json.dumps(fresh.to_dict())
        assert report.design.fractions.tobytes() == fresh.design.fractions.tobytes()
        assert report.min_variance == fresh.min_variance


class TestSaddleCheck:
    def test_solution_certifies(self, model_row4, row4_worst_case):
        report, _ = row4_worst_case
        gap_p, gap_v = saddle_check(
            report.design.fractions, report.p_star, ROW4_BOX, model_row4, grid_step=0.01
        )
        assert gap_p >= -1e-9 and gap_v >= -1e-9
        assert gap_p <= SADDLE_TOL * report.objective
        assert gap_v <= SADDLE_TOL * report.objective

    def test_minimax_dominates_maximin(self, model_row4):
        rng = np.random.default_rng(30)
        pats = all_patterns(model_row4)
        pts = ROW4_BOX.grid(0.05)
        infos = _pattern_infos(pts, model_row4)
        for _ in range(5):
            v = random_pd_fractions(rng, len(pats), 6)
            p = pts[rng.integers(len(pts))]
            here = objective(v, p, model_row4)
            worst_over_p = _criterion(v, infos, model_row4.u)[0].max()
            best_over_v = solve_c_optimal(p, model_row4).objective
            assert worst_over_p >= here - 1e-9
            assert here >= best_over_v - 1e-9

    def test_point_box_first_gap_zero(self, model_row1):
        box = ParameterBox(lower=ROW1_POINT, upper=ROW1_POINT)
        local = solve_c_optimal(ROW1_POINT, model_row1)
        gap_p, gap_v = saddle_check(
            local.design.fractions, ROW1_POINT, box, model_row1, grid_step=0.01
        )
        assert gap_p == pytest.approx(0.0, abs=1e-12)
        assert gap_v <= 1e-6 * local.objective

    def test_design_that_does_not_identify_p_rejected(self, model_row4):
        # pattern 001 alone, the antibody test, cannot tell infection states apart
        with pytest.raises(ValueError) as err:
            saddle_check(np.eye(7)[0], [0.06, 0.45, 0.0], ROW4_BOX, model_row4)
        assert str(err.value) == "blended information matrix is singular; saddle gaps undefined"

    def test_p_star_outside_the_box_rejected(self):
        # its first gap would be negative: a(v; p*) far beyond the box
        # exceeds every value on the grid
        box = ParameterBox(lower=[0.0, 0.0, 0.0], upper=[0.1, 0.1, 0.1])
        v = np.full(7, 1.0 / 7.0)
        with pytest.raises(ValueError, match=r"p\* .* lies outside the box"):
            saddle_check(v, [0.5, 0.4, 0.05], box, default_model())
        within_slack = np.array([0.1 + 5e-13, 0.05, 0.0])
        gap_p, _ = saddle_check(v, within_slack, box, default_model(), grid_step=0.05)
        assert gap_p >= -1e-9


class TestGridBehavior:
    def test_value_sandwich(self, model_row4, row4_worst_case):
        report, _ = row4_worst_case
        # maximin on the grid equals the reported value by construction;
        # the certified minimax side exceeds it by at most the saddle gap
        gap_p, gap_v = saddle_check(
            report.design.fractions, report.p_star, ROW4_BOX, model_row4, grid_step=0.01
        )
        minimax_upper = report.objective + gap_p
        assert report.objective <= minimax_upper + 1e-12
        assert minimax_upper - report.objective <= SADDLE_TOL * report.objective

    def test_refining_grid_never_loses_value(self, model_row4, row4_worst_case):
        report_fine, _ = row4_worst_case
        report_coarse = worst_case_design(ROW4_BOX, model_row4, grid_step=0.02)
        assert report_fine.objective >= report_coarse.objective - (
            SADDLE_TOL * report_coarse.objective
        )


def exhaustive_worst_case(box, model, grid_step, saddle_tol=SADDLE_TOL):
    """Reference worst case: an inner solve at every grid point, strict
    improvement so ties keep the smallest index, then the averaged
    best-response fallback without memoized solves.  Returns
    (p*, fractions, game value, saddle gap, iterations, fallback ran)."""
    pts = box.grid(grid_step)
    infos = _pattern_infos(pts, model)
    u = model.u
    best_index, best = -1, None
    for i in range(len(pts)):
        solve = _solve_simplex(infos[:, i], model)
        if best is None or solve[1] > best[1]:
            best_index, best = i, solve
    v_star, value, _, iterations = best

    def gap_of(v):
        values = _criterion(v, infos, u)[0]
        return float(values.max() - values[best_index])

    gap = gap_of(v_star)
    refined = gap > saddle_tol * value
    if refined:
        iterates = [v_star]
        v_best, gap_best = v_star, gap
        for _ in range(REFINE_MAX_ROUNDS):
            v_avg = np.mean(iterates, axis=0)
            reply = int(np.argmax(_criterion(v_avg, infos, u)[0]))
            iterates.append(_solve_simplex(infos[:, reply], model)[0])
            gap_avg = gap_of(np.mean(iterates, axis=0))
            if gap_avg < gap_best:
                v_best, gap_best = np.mean(iterates, axis=0), gap_avg
            if gap_best <= saddle_tol * value:
                break
        v_star, gap = v_best, gap_best
        value = float(_criterion(v_star, infos, u)[0][best_index])
    return pts[best_index], v_star, value, gap, iterations, refined


def assert_matches_exhaustive(report, reference):
    p_star, fractions, value, gap, iterations, _ = reference
    assert np.array_equal(report.p_star, p_star)
    assert np.array_equal(report.design.fractions, fractions)
    assert report.objective == value
    assert report.saddle_gap == gap
    assert report.iterations == iterations


def random_box(rng):
    lower = rng.uniform([0.0, 0.05, 0.0], [0.15, 0.40, 0.05]).round(4)
    upper = lower + rng.uniform(0.01, 0.04, 3).round(4)
    return ParameterBox(lower=lower, upper=upper)


class TestBoundPrunedSearch:
    """The best-first scan returns exactly what solving every point gives."""

    def test_row4_fine_grid_matches_exhaustive(self, model_row4, row4_worst_case):
        report, _ = row4_worst_case
        reference = exhaustive_worst_case(ROW4_BOX, model_row4, 0.01)
        assert not reference[-1]
        assert_matches_exhaustive(report, reference)

    def test_row4_coarse_grid_with_fallback_matches_exhaustive(self, model_row4):
        reference = exhaustive_worst_case(ROW4_BOX, model_row4, 0.02)
        assert reference[-1]  # certification fails and the averaging runs
        report = worst_case_design(ROW4_BOX, model_row4, grid_step=0.02)
        assert_matches_exhaustive(report, reference)

    def test_support_switch_box_matches_exhaustive(self):
        model = default_model(rtpcr_cost=1053.0)
        box = ParameterBox(lower=[0.0673, 0.0754, 0.0131], upper=[0.0973, 0.1054, 0.0231])
        report = worst_case_design(box, model, grid_step=0.01)
        assert_matches_exhaustive(report, exhaustive_worst_case(box, model, 0.01))

    @pytest.mark.parametrize("seed", range(10))
    def test_random_boxes_match_exhaustive(self, seed):
        rng = np.random.default_rng(500 + seed)
        model = default_model(rtpcr_cost=float(rng.choice([100.0, 1000.0, 1600.0])))
        box = random_box(rng)
        report = worst_case_design(box, model, grid_step=0.01)
        assert_matches_exhaustive(report, exhaustive_worst_case(box, model, 0.01))

    @pytest.mark.parametrize("grid_step", [0.01, 0.02])
    def test_row4_solves_a_handful_of_points(self, model_row4, monkeypatch, grid_step):
        solves = record_inner_solves(monkeypatch)
        worst_case_design(ROW4_BOX, model_row4, grid_step=grid_step)
        assert len(ROW4_BOX.grid(grid_step)) > 300
        assert len(solves) <= 50

    def test_random_boxes_take_few_inner_solves(self, monkeypatch):
        # a scan started at the first grid point solved 20 points over these
        # boxes; starting at the all-tests design's worst point solves 13
        solves = record_inner_solves(monkeypatch)
        for seed in range(10):
            rng = np.random.default_rng(500 + seed)
            model = default_model(rtpcr_cost=float(rng.choice([100.0, 1000.0, 1600.0])))
            worst_case_design(random_box(rng), model, grid_step=0.01)
        assert len(solves) < 20

    def test_open_point_bounds_equal_the_full_grid_evaluation(self, model_row4, row4_worst_case):
        infos = _pattern_infos(ROW4_BOX.grid(0.01), model_row4)
        u = model_row4.u
        rng = np.random.default_rng(8)
        open_idx = np.sort(rng.choice(infos.shape[1], 300, replace=False))
        for v in (row4_worst_case[0].design.fractions, random_pd_fractions(rng, 7, 6)):
            full = _criterion(v, infos, u)[0][open_idx]
            bounds = _criterion(v, infos, u, open_idx)[0]
            assert bounds.tobytes() == full.tobytes()


def record_inner_solves(monkeypatch) -> list:
    """Arguments of every inner solve worst_case_design makes, in order."""
    calls = []
    real = minimax._solve_simplex

    def recorded(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(minimax, "_solve_simplex", recorded)
    return calls


class TestAllTestsPattern:
    """The pattern that runs every test gates A2 and picks the first point solved."""

    @pytest.mark.parametrize("n_tests", range(1, 8))
    def test_last_pattern_runs_every_test(self, n_tests):
        tests = [TestSpec(f"t{j}", 100.0 + j, 0.9, 0.95) for j in range(n_tests)]
        model = DiseaseModel(tests=tests, nominal=[[1] * n_tests, [0] * n_tests], u=[1.0])
        last = all_patterns(model)[-1]
        assert last.mask == (1,) * n_tests
        assert last.cost == sum(t.cost for t in tests)

    def test_a2_of_every_pattern_skipped_on_a_feasible_box(self, model_row4, monkeypatch):
        def fail(*args):
            raise AssertionError("check_a2 ran on a box whose all-tests pattern passes A2")

        monkeypatch.setattr(minimax, "check_a2", fail)
        report = worst_case_design(ROW4_BOX, model_row4, grid_step=0.05)
        assert report.objective > 0

    def test_a2_failure_message_unchanged(self, monkeypatch):
        # two tests, k = 3: states 1 and 2 give the same responses, so no
        # pattern identifies p
        tests = [TestSpec("a", 100.0, 0.9, 0.95), TestSpec("b", 300.0, 0.8, 0.97)]
        model = DiseaseModel(tests=tests, nominal=[[1, 0], [0, 1], [0, 1], [0, 0]], u=np.ones(3))
        box = ParameterBox(lower=[0.05, 0.05, 0.05], upper=[0.1, 0.1, 0.1])
        calls = []
        real = minimax.check_a2
        monkeypatch.setattr(minimax, "check_a2", lambda *args: calls.append(1) or real(*args))
        message = (
            "no pattern has uniformly positive-definite information over the box; "
            "the worst-case variance is unbounded for every design"
        )
        with pytest.raises(InfeasibleDesignError) as err:
            worst_case_design(box, model, grid_step=0.05)
        assert str(err.value) == message
        assert calls == [1]

    def test_first_point_solved_is_the_all_tests_worst(self, model_row4, monkeypatch):
        pts = ROW4_BOX.grid(0.02)
        infos = _pattern_infos(pts, model_row4)
        variance = np.linalg.solve(infos[-1], model_row4.u) @ model_row4.u
        first = int(np.argmax(variance))
        assert first != 0
        solves = record_inner_solves(monkeypatch)
        worst_case_design(ROW4_BOX, model_row4, grid_step=0.02)
        assert np.array_equal(solves[0][0], infos[:, first])

    def test_inner_solve_error_names_the_grid_point(self, model_row4, monkeypatch):
        pts = ROW4_BOX.grid(0.02)
        infos = _pattern_infos(pts, model_row4)
        first = int(np.argmax(np.linalg.solve(infos[-1], model_row4.u) @ model_row4.u))
        best = object()

        def stalled(*args):
            raise ConvergenceError("no certified optimum after 200 Newton steps", best=best)

        monkeypatch.setattr(minimax, "_solve_simplex", stalled)
        with pytest.raises(ConvergenceError) as err:
            worst_case_design(ROW4_BOX, model_row4, grid_step=0.02)
        assert str(err.value) == (
            f"inner solve at grid point p = {pts[first].tolist()}: "
            "no certified optimum after 200 Newton steps"
        )
        assert err.value.best is best
