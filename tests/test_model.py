"""Observation-model tests: outcome distributions, information matrices,
and the positive-definiteness assumption checks."""

import gc
import weakref

import numpy as np
import pytest

from serodesign import (
    DiseaseModel,
    ParameterBox,
    TestSpec,
    all_patterns,
    check_a1,
    check_a2,
    conditional_prob,
    default_model,
    fisher_info,
    make_pattern,
    mixture_prob,
    outcome_space,
    solve_c_optimal,
    worst_case_design,
)
from serodesign.model import PATTERN_TABLE_CACHE_SIZE, _fisher_info_grid, _pattern_tables
from _suites import finite_difference_fisher, random_interior_points

NA = None
P0 = np.array([0.10, 0.30, 0.01])


def uninformative_model():
    """Every test a coin flip: zero information in every channel."""
    base = default_model()
    return base.with_test_overrides(
        {t.id: {"sensitivity": 0.5, "specificity": 0.5} for t in base.tests}
    )


class TestTypes:
    def test_testspec_rejects_boundary_reliabilities(self):
        with pytest.raises(ValueError, match="sensitivity"):
            TestSpec(id="x", cost=100.0, sensitivity=1.0, specificity=0.9)
        with pytest.raises(ValueError, match="specificity"):
            TestSpec(id="x", cost=100.0, sensitivity=0.9, specificity=0.0)
        for cost in (0.0, np.inf):
            with pytest.raises(ValueError, match="cost"):
                TestSpec(id="x", cost=cost, sensitivity=0.9, specificity=0.9)

    def test_default_model_shape(self):
        m = default_model()
        assert m.k == 3
        assert m.n_tests == 3
        assert m.test_ids == ("rat", "rtpcr", "antibody")
        assert np.array_equal(m.u, np.ones(3))
        assert np.array_equal(m.nominal, [[1, 1, 0], [0, 0, 1], [1, 1, 1], [0, 0, 0]])
        # Reliabilities of the three channels
        assert [t.sensitivity for t in m.tests] == [0.5, 0.95, 0.921]
        assert [t.specificity for t in m.tests] == [0.975, 0.97, 0.977]

    def test_nominal_must_be_binary(self):
        for bad in (2, 1.7):
            with pytest.raises(ValueError, match="0 or 1"):
                DiseaseModel(
                    tests=default_model().tests,
                    nominal=[[1, bad, 0], [0, 0, 1], [0, 0, 0]],
                    u=np.ones(2),
                )

    def test_u_must_be_nonzero(self):
        with pytest.raises(ValueError, match="nonzero"):
            DiseaseModel(
                tests=default_model().tests,
                nominal=[[1, 1, 0], [0, 0, 1], [0, 0, 0]],
                u=np.zeros(2),
            )

    def test_pattern_cost_is_sum_of_members(self):
        m = default_model()
        assert make_pattern((1, 0, 1), m).cost == 450.0 + 300.0
        assert make_pattern((1, 1, 1), m).cost == 2350.0
        with pytest.raises(ValueError, match="at least one test"):
            make_pattern((0, 0, 0), m)

    def test_all_patterns_lexicographic(self):
        masks = [t.mask for t in all_patterns(default_model())]
        assert masks == [
            (0, 0, 1),
            (0, 1, 0),
            (0, 1, 1),
            (1, 0, 0),
            (1, 0, 1),
            (1, 1, 0),
            (1, 1, 1),
        ]

    def test_box_requires_feasible_intersection(self):
        with pytest.raises(ValueError, match="simplex"):
            ParameterBox(lower=[0.5, 0.4, 0.2], upper=[0.6, 0.5, 0.3])
        box = ParameterBox(lower=[0.0, 0.0, 0.0], upper=[0.9, 0.9, 0.9])
        pts = box.grid(0.1)
        assert (pts.sum(axis=1) <= 1.0 + 1e-9).all()


class TestNonFiniteInputs:
    # every comparison with NaN is false, so range checks alone let it through

    def test_nan_point_rejected_before_the_solver(self):
        with pytest.raises(ValueError, match=r"parameter entry 0 must be finite, got nan"):
            solve_c_optimal([np.nan, 0.3, 0.01], default_model(), budget=1e7)

    def test_nan_point_rejected_by_fisher_info(self):
        m = default_model()
        with pytest.raises(ValueError, match=r"parameter entry 1 must be finite, got nan"):
            fisher_info(make_pattern((1, 1, 1), m), [0.1, np.nan, 0.01], m)

    def test_nan_box_bound_rejected(self):
        with pytest.raises(ValueError, match=r"box lower bound 0 must be finite, got nan"):
            ParameterBox(lower=[np.nan, 0.1, 0.0], upper=[0.1, 0.2, 0.02])

    def test_infinite_box_bound_rejected(self):
        with pytest.raises(ValueError, match=r"box upper bound 1 must be finite, got inf"):
            ParameterBox(lower=[0.0, 0.1, 0.0], upper=[0.1, np.inf, 0.02])


class TestOutcomeSpace:
    def test_single_test(self):
        m = default_model()
        t = make_pattern((0, 0, 1), m)
        assert outcome_space(t) == [(NA, NA, 0), (NA, NA, 1)]

    def test_full_pattern_has_eight(self):
        m = default_model()
        assert len(outcome_space(make_pattern((1, 1, 1), m))) == 8

    def test_two_test_pattern(self):
        m = default_model()
        ys = outcome_space(make_pattern((1, 0, 1), m))
        assert len(ys) == 4
        assert all(y[1] is NA for y in ys)
        assert ys == [(0, NA, 0), (0, NA, 1), (1, NA, 0), (1, NA, 1)]


class TestConditionalProb:
    def test_antibody_sensitivity(self):
        # state index 1 has a nominal positive antibody response
        m = default_model()
        t = make_pattern((0, 0, 1), m)
        assert conditional_prob((NA, NA, 1), 1, t, m) == pytest.approx(0.921, abs=1e-15)

    def test_antibody_specificity_reference_state(self):
        m = default_model()
        t = make_pattern((0, 0, 1), m)
        assert conditional_prob((NA, NA, 0), 3, t, m) == pytest.approx(0.977, abs=1e-15)

    def test_two_test_product(self):
        # state 0 is nominally RAT-positive, antibody-negative
        m = default_model()
        t = make_pattern((1, 0, 1), m)
        assert conditional_prob((1, NA, 0), 0, t, m) == pytest.approx(0.5 * 0.977, abs=1e-15)

    def test_structural_errors(self):
        m = default_model()
        t = make_pattern((1, 0, 1), m)
        with pytest.raises(ValueError, match="not conducted"):
            conditional_prob((1, 0, 1), 0, t, m)
        with pytest.raises(ValueError, match="no value"):
            conditional_prob((NA, NA, 1), 0, t, m)

    def test_rows_sum_to_one(self):
        m = default_model()
        for t in all_patterns(m):
            for s in range(m.k + 1):
                total = sum(conditional_prob(y, s, t, m) for y in outcome_space(t))
                assert total == pytest.approx(1.0, abs=1e-12)


class TestMixtureProb:
    def test_reference_state_only(self):
        m = default_model()
        t = make_pattern((0, 0, 1), m)
        value = mixture_prob((NA, NA, 1), t, np.zeros(3), m)
        assert value == pytest.approx(1.0 - 0.977, abs=1e-15)

    def test_normalization(self):
        m = default_model()
        rng = np.random.default_rng(7)
        for t in all_patterns(m):
            p = random_interior_points(rng, 1)[0]
            total = sum(mixture_prob(y, t, p, m) for y in outcome_space(t))
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_full_pattern_against_enumeration_oracle(self):
        # independent re-derivation: per-state product over channels, then mix
        m = default_model()
        t = make_pattern((1, 1, 1), m)
        sens = [tt.sensitivity for tt in m.tests]
        spec = [tt.specificity for tt in m.tests]
        state_probs = [0.10, 0.30, 0.01, 1.0 - 0.41]

        def oracle(y):
            total = 0.0
            for s, ps in enumerate(state_probs):
                prod = 1.0
                for j in range(3):
                    nominal = m.nominal[s, j]
                    correct = sens[j] if nominal == 1 else spec[j]
                    prod *= correct if y[j] == nominal else 1.0 - correct
                total += ps * prod
            return total

        for y in outcome_space(t):
            assert mixture_prob(y, t, P0, m) == pytest.approx(oracle(y), rel=1e-13)

    def test_affine_in_p(self):
        m = default_model()
        t = make_pattern((1, 0, 1), m)
        rng = np.random.default_rng(11)
        p1, p2 = random_interior_points(rng, 2)
        lam = 0.37
        for y in outcome_space(t):
            left = mixture_prob(y, t, lam * p1 + (1 - lam) * p2, m)
            right = lam * mixture_prob(y, t, p1, m) + (1 - lam) * mixture_prob(y, t, p2, m)
            assert left == pytest.approx(right, abs=1e-15)


class TestFisherInfo:
    def test_symmetry_random(self):
        m = default_model()
        rng = np.random.default_rng(3)
        for t in all_patterns(m):
            p = random_interior_points(rng, 1)[0]
            info = fisher_info(t, p, m)
            assert np.abs(info - info.T).max() <= 1e-12

    def test_full_pattern_positive_definite(self):
        m = default_model()
        info = fisher_info(make_pattern((1, 1, 1), m), P0, m)
        assert np.linalg.eigvalsh(info)[0] > 0

    def test_psd_everywhere_and_pd_at_full_pattern_on_box_grid(self):
        m = default_model()
        box = ParameterBox(lower=[0.01, 0.10, 0.00], upper=[0.15, 0.50, 0.02])
        full = make_pattern((1, 1, 1), m)
        for p in box.grid(0.05):
            for t in all_patterns(m):
                lam_min = np.linalg.eigvalsh(fisher_info(t, p, m))[0]
                assert lam_min >= -1e-10
            assert np.linalg.eigvalsh(fisher_info(full, p, m))[0] > 1e-10

    def test_matches_finite_difference_hessian(self):
        m = default_model()
        rng = np.random.default_rng(42)
        t = make_pattern((1, 1, 1), m)
        for p in random_interior_points(rng, 5):
            closed = fisher_info(t, p, m)
            oracle = finite_difference_fisher(t, p, m, step=1e-4)
            assert np.abs(closed - oracle).max() <= 1e-4 * np.abs(oracle).max()

    def test_superset_adds_information(self):
        # conditionally independent tests: a superset's information dominates
        m = default_model()
        patterns = {t.mask: t for t in all_patterns(m)}
        rng = np.random.default_rng(5)
        p = random_interior_points(rng, 1)[0]
        pairs = [
            ((0, 0, 1), (1, 0, 1)),
            ((0, 0, 1), (0, 1, 1)),
            ((1, 0, 0), (1, 1, 0)),
            ((1, 0, 1), (1, 1, 1)),
            ((0, 1, 1), (1, 1, 1)),
        ]
        for small, big in pairs:
            gap = fisher_info(patterns[big], p, m) - fisher_info(patterns[small], p, m)
            assert np.linalg.eigvalsh(gap)[0] >= -1e-10


class TestPatternTableCache:
    def test_fresh_models_keep_the_cache_bounded(self):
        # tables are keyed by model identity, so every parsed model would
        # stay alive in an unbounded cache
        first = default_model(rtpcr_cost=99.0)
        all_patterns(first)
        released = weakref.ref(first)
        del first
        for i in range(2 * PATTERN_TABLE_CACHE_SIZE):
            model = default_model(rtpcr_cost=100.0 + i)
            fisher_info(make_pattern((1, 1, 1), model), P0, model)
        info = _pattern_tables.cache_info()
        assert info.maxsize == PATTERN_TABLE_CACHE_SIZE
        assert info.currsize == PATTERN_TABLE_CACHE_SIZE
        gc.collect()
        assert released() is None

    def test_one_table_serves_patterns_solve_and_a1(self):
        model = default_model(rtpcr_cost=1234.5)
        misses = _pattern_tables.cache_info().misses
        patterns = all_patterns(model)
        assert all_patterns(model) is patterns  # not rebuilt per call
        solve_c_optimal(P0, model)
        check_a1(P0, patterns, model)
        assert _pattern_tables.cache_info().misses == misses + 1

    def test_worst_case_builds_its_grid_informations_once(self, monkeypatch):
        from serodesign import minimax

        model = default_model(rtpcr_cost=100.0)
        box = ParameterBox(lower=[0.05, 0.20, 0.00], upper=[0.09, 0.30, 0.01])
        calls = []

        def counted(p, *args, **kwargs):
            calls.append(np.shape(p))
            return _fisher_info_grid(p, *args, **kwargs)

        monkeypatch.setattr(minimax, "_fisher_info_grid", counted)
        worst_case_design(box, model, grid_step=0.02)
        assert calls == [box.grid(0.02).shape]


class TestAssumptionChecks:
    def test_default_model_satisfies_a1(self):
        m = default_model()
        result = check_a1(P0, all_patterns(m), m)
        assert result.ok
        assert result.pattern is not None

    def test_uninformative_model_fails_a1(self):
        m = uninformative_model()
        result = check_a1(P0, all_patterns(m), m)
        assert not result.ok
        assert result.pattern is None
        # coin-flip channels carry literally zero information
        info = fisher_info(make_pattern((1, 1, 1), m), P0, m)
        assert np.abs(info).max() <= 1e-15

    def test_single_binary_test_cannot_identify_three_parameters(self):
        m = default_model()
        t = make_pattern((1, 0, 0), m)
        result = check_a1(P0, [t], m)
        assert not result.ok
        assert np.linalg.matrix_rank(fisher_info(t, P0, m), tol=1e-12) <= 1

    def test_a2_on_table_box(self):
        m = default_model()
        box = ParameterBox(lower=[0.01, 0.10, 0.00], upper=[0.15, 0.50, 0.02])
        result = check_a2(box, all_patterns(m), m, grid_step=0.01)
        assert result.ok
        assert result.lambda_min > 0
        assert result.pattern is not None

    def test_a2_point_box_reduces_to_a1(self):
        m = default_model()
        box = ParameterBox(lower=P0, upper=P0)
        a2 = check_a2(box, all_patterns(m), m, grid_step=0.01)
        a1 = check_a1(P0, all_patterns(m), m)
        assert a2.ok == a1.ok
        assert np.allclose(a2.argmin, P0)

    def test_a2_uninformative_fails(self):
        m = uninformative_model()
        box = ParameterBox(lower=[0.01, 0.10, 0.00], upper=[0.15, 0.50, 0.02])
        result = check_a2(box, all_patterns(m), m, grid_step=0.05)
        assert not result.ok
