"""Worst-case design tests: the game payoff's curvature, the grid search
against the published worst case and against an exhaustive scan, and
equilibrium certification."""

import json
import math

import numpy as np
import pytest

import serodesign.minimax as minimax
from serodesign import (
    ParameterBox,
    all_patterns,
    default_model,
    objective,
    payoff,
    saddle_check,
    solve_c_optimal,
    worst_case_design,
)
from serodesign.coptimal import _criterion, _pattern_infos, _solve_simplex
from serodesign.minimax import REFINE_MAX_ROUNDS, SADDLE_TOL
from _suites import random_interior_points, random_pd_fractions, worst_concavity_slack

from conftest import ROW1_POINT, ROW4_BOX


class TestPayoff:
    def test_equals_variance_criterion(self, model_row1):
        rng = np.random.default_rng(21)
        for _ in range(100):
            v = random_pd_fractions(rng, 7, 6)
            p = random_interior_points(rng, 1)[0]
            assert payoff(v, p, model_row1) == objective(v, p, model_row1)

    def test_concave_in_parameter(self, model_row1):
        worst = worst_concavity_slack(model_row1, n_trials=500, seed=4321)
        assert worst <= 1e-9

    def test_midpoint_concavity_spot_check(self, model_row1):
        rng = np.random.default_rng(22)
        for _ in range(50):
            v = random_pd_fractions(rng, 7, 6)
            p1, p2 = random_interior_points(rng, 2)
            mid = payoff(v, (p1 + p2) / 2.0, model_row1)
            chord = (payoff(v, p1, model_row1) + payoff(v, p2, model_row1)) / 2.0
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
        assert 0.0 <= report.saddle_gap <= SADDLE_TOL * report.game_value

    def test_point_box_reduces_to_local_solve(self, model_row1):
        box = ParameterBox(lower=ROW1_POINT, upper=ROW1_POINT)
        saddle = worst_case_design(box, model_row1, grid_step=0.01, budget=1e7)
        local = solve_c_optimal(ROW1_POINT, model_row1, budget=1e7)
        assert np.allclose(saddle.design.fractions, local.design.fractions, atol=1e-9)
        assert saddle.game_value == pytest.approx(local.objective, rel=1e-12)
        assert np.allclose(saddle.p_star, ROW1_POINT)

    def test_restricting_to_one_pattern_costs_accuracy(self, model_row4, row4_worst_case):
        # forcing the whole budget onto RTPCR+antibody degrades the worst-case
        # standard error by the published factor
        report, _ = row4_worst_case
        pats = all_patterns(model_row4)
        pts = ROW4_BOX.grid(0.01)
        infos = _pattern_infos(pts, model_row4, pats)
        only_011 = np.array([1.0 if t.mask == (0, 1, 1) else 0.0 for t in pats])
        worst_constrained = _criterion(only_011, infos, model_row4.u)[0].max()
        worst_optimal = _criterion(report.design.fractions, infos, model_row4.u)[0].max()
        factor = math.sqrt(worst_constrained / worst_optimal)
        assert factor == pytest.approx(1.0023, abs=0.0005)

    def test_game_value_matches_payoff_at_saddle(self, model_row4, row4_worst_case):
        report, _ = row4_worst_case
        assert report.game_value == pytest.approx(
            objective(report.design.fractions, report.p_star, model_row4), rel=1e-9
        )
        assert report.inner.kkt_residual <= 1e-6 * report.game_value

    def test_infeasible_box_raises(self):
        from serodesign import InfeasibleDesignError, default_model

        base = default_model()
        flat = base.with_test_overrides(
            {t.id: {"sensitivity": 0.5, "specificity": 0.5} for t in base.tests}
        )
        with pytest.raises(InfeasibleDesignError):
            worst_case_design(ROW4_BOX, flat, grid_step=0.05)

    def test_tighter_tolerance_triggers_averaging_refinement(
        self, model_row4, row4_worst_case
    ):
        # the exact best response certifies at a few 1e-4; asking for better
        # engages the averaged-best-response fallback, which must only
        # improve the certificate at the same worst-case parameter
        unrefined, _ = row4_worst_case
        refined = worst_case_design(
            ROW4_BOX, model_row4, grid_step=0.01, saddle_tol=2e-4
        )
        assert np.array_equal(refined.p_star, unrefined.p_star)
        assert refined.saddle_gap <= 2e-4 * refined.game_value
        assert refined.saddle_gap < unrefined.saddle_gap


    @pytest.mark.parametrize("budget", [1.0, 2.5e3, 3.7e9])
    def test_priced_equals_a_fresh_solve(self, model_row4, row4_worst_case, budget):
        report = row4_worst_case[0].priced(budget)
        fresh = worst_case_design(ROW4_BOX, model_row4, grid_step=0.01, budget=budget)
        assert json.dumps(report.to_dict()) == json.dumps(fresh.to_dict())
        assert report.design.fractions.tobytes() == fresh.design.fractions.tobytes()
        assert report.inner.min_variance == fresh.inner.min_variance


class TestSaddleCheck:
    def test_solution_certifies(self, model_row4, row4_worst_case):
        report, _ = row4_worst_case
        gap_p, gap_v = saddle_check(
            report.design.fractions, report.p_star, ROW4_BOX, model_row4, grid_step=0.01
        )
        assert gap_p >= -1e-9 and gap_v >= -1e-9
        assert gap_p <= SADDLE_TOL * report.game_value
        assert gap_v <= SADDLE_TOL * report.game_value

    def test_minimax_dominates_maximin(self, model_row4):
        rng = np.random.default_rng(30)
        pats = all_patterns(model_row4)
        pts = ROW4_BOX.grid(0.05)
        infos = _pattern_infos(pts, model_row4, pats)
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


class TestGridBehavior:
    def test_value_sandwich(self, model_row4, row4_worst_case):
        report, _ = row4_worst_case
        # maximin on the grid equals the reported value by construction;
        # the certified minimax side exceeds it by at most the saddle gap
        gap_p, gap_v = saddle_check(
            report.design.fractions, report.p_star, ROW4_BOX, model_row4, grid_step=0.01
        )
        minimax_upper = report.game_value + gap_p
        assert report.game_value <= minimax_upper + 1e-12
        assert minimax_upper - report.game_value <= SADDLE_TOL * report.game_value

    def test_refining_grid_never_loses_value(self, model_row4, row4_worst_case):
        report_fine, _ = row4_worst_case
        report_coarse = worst_case_design(ROW4_BOX, model_row4, grid_step=0.02)
        assert report_fine.game_value >= report_coarse.game_value - (
            SADDLE_TOL * report_coarse.game_value
        )


def exhaustive_worst_case(box, model, grid_step, saddle_tol=SADDLE_TOL):
    """Reference worst case: an inner solve at every grid point, strict
    improvement so ties keep the smallest index, then the averaged
    best-response fallback without memoized solves.  Returns
    (p*, fractions, game value, saddle gap, iterations, fallback ran)."""
    pts = box.grid(grid_step)
    infos = _pattern_infos(pts, model, all_patterns(model))
    u = model.u
    best_index, best = -1, None
    for i in range(len(pts)):
        solve = _solve_simplex(infos[:, i], u)
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
            iterates.append(_solve_simplex(infos[:, reply], u)[0])
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
    assert report.game_value == value
    assert report.saddle_gap == gap
    assert report.inner.iterations == iterations


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
        solves = []
        real = minimax._solve_simplex

        def counted(*args, **kwargs):
            solves.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(minimax, "_solve_simplex", counted)
        worst_case_design(ROW4_BOX, model_row4, grid_step=grid_step)
        assert len(ROW4_BOX.grid(grid_step)) > 300
        assert len(solves) <= 50
