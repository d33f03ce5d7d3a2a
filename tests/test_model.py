"""Observation-model tests: outcome distributions, information matrices,
and the positive-definiteness assumption checks."""

import gc
import weakref

import numpy as np
import pytest

from serodesign import (
    Design,
    DiseaseModel,
    GroupSpec,
    ParameterBox,
    StratumSpec,
    SurveyDataset,
    TestPattern,
    TestSpec,
    all_patterns,
    budget_for_margin,
    check_a1,
    check_a2,
    default_model,
    design_from_fractions,
    fisher_info,
    kkt_check,
    make_pattern,
    objective,
    objective_gradient,
    saddle_check,
    simulation_report,
    solve_c_optimal,
    validate_parameter,
    worst_case_design,
)
from serodesign.model import (
    MAX_GRID_POINTS,
    PATTERN_TABLE_CACHE_SIZE,
    _fisher_info_grid,
    _layout,
    _pattern_tables,
)
from _suites import finite_difference_fisher, random_interior_points

P0 = np.array([0.10, 0.30, 0.01])
SMALL_BOX = ParameterBox(lower=[0.08, 0.28, 0.0], upper=[0.12, 0.32, 0.02])


def uninformative_model():
    """Every test a coin flip: zero information in every channel."""
    base = default_model()
    return base.with_test_overrides(
        {t.id: {"sensitivity": 0.5, "specificity": 0.5} for t in base.tests}
    )


MODEL = default_model()

# Each value that keeps a caller's array: the array, and the value's array
# built from it.
HELD_ARRAYS = {
    "model-u": (np.ones(3), lambda a: DiseaseModel(MODEL.tests, MODEL.nominal, a).u),
    "model-nominal": (
        np.array(MODEL.nominal), lambda a: DiseaseModel(MODEL.tests, a, MODEL.u).nominal
    ),
    "box-lower": (SMALL_BOX.lower, lambda a: ParameterBox(a, SMALL_BOX.upper).lower),
    "box-upper": (SMALL_BOX.upper, lambda a: ParameterBox(SMALL_BOX.lower, a).upper),
    "stratum-point": (P0, lambda a: StratumSpec("north", 1.0, point=a).point),
    "group-point": (P0, lambda a: GroupSpec("all", 1.0, a).point),
    "dataset-counts": (
        np.array([3, 1]),
        lambda a: SurveyDataset((make_pattern((0, 0, 1), MODEL),), (a,), seed=0).counts[0],
    ),
    "validated-parameter": (P0, lambda a: validate_parameter(a, 3)),
}


@pytest.mark.parametrize("case", list(HELD_ARRAYS))
def test_a_value_holds_a_read_only_copy_of_its_array(case):
    values, build = HELD_ARRAYS[case]
    caller = np.array(values)  # writable, of the dtype the value keeps
    held = build(caller)
    assert caller.flags.writeable and not np.shares_memory(caller, held)
    assert not held.flags.writeable and np.array_equal(held, caller)


def test_a_grid_point_result_keeps_no_grid_alive():
    # p* and A2's argmin are copies of one point, not views into the grid
    points = [worst_case_design(SMALL_BOX, MODEL).p_star, check_a2(SMALL_BOX, MODEL).argmin]
    for point in points:
        assert point.base is None and not point.flags.writeable


class TestTypes:
    def test_testspec_rejects_boundary_reliabilities(self):
        with pytest.raises(ValueError, match="sensitivity"):
            TestSpec(id="x", cost=100.0, sensitivity=1.0, specificity=0.9)
        with pytest.raises(ValueError, match="specificity"):
            TestSpec(id="x", cost=100.0, sensitivity=0.9, specificity=0.0)
        for cost in (0.0, np.inf):
            with pytest.raises(ValueError, match="cost"):
                TestSpec(id="x", cost=cost, sensitivity=0.9, specificity=0.9)

    @pytest.mark.parametrize("field", ["cost", "sensitivity", "specificity"])
    @pytest.mark.parametrize("bad", ["0.5", True, None, 1j])
    def test_testspec_refuses_a_field_that_is_not_a_real_number(self, field, bad):
        values = {"cost": 100.0, "sensitivity": 0.9, "specificity": 0.9, field: bad}
        with pytest.raises(TypeError) as err:
            TestSpec(id="x", **values)
        assert str(err.value) == f"test 'x': {field} must be a real number, got {bad!r}"

    def test_testspec_takes_numpy_and_integer_numbers(self):
        spec = TestSpec(id="x", cost=np.int64(100), sensitivity=np.float32(0.5), specificity=0.9)
        assert spec.cost == 100 and spec.sensitivity == 0.5

    def test_override_entry_must_be_a_mapping(self):
        base = default_model()
        with pytest.raises(ValueError) as err:
            base.with_test_overrides({"rat": 0.5})
        assert str(err.value) == "override for test 'rat' must be a mapping, got 0.5"
        with pytest.raises(TypeError) as err:
            base.with_test_overrides({"rat": {"sensitivity": "x"}})
        assert str(err.value) == "test 'rat': sensitivity must be a real number, got 'x'"

    def test_overrides_take_only_reliabilities(self):
        base = default_model()
        with pytest.raises(ValueError, match=r"unknown keys \['cost'\]"):
            base.with_test_overrides({"rat": {"sensitivity": 0.68, "cost": 10}})
        sharp = base.with_test_overrides({"rat": {"sensitivity": 0.68}})
        assert sharp.tests[0] == TestSpec(id="rat", cost=450.0, sensitivity=0.68, specificity=0.975)
        assert sharp.tests[1:] == base.tests[1:]

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

    def test_grid_refuses_a_lattice_beyond_the_cap_before_building_it(self):
        m = default_model()
        box = ParameterBox(lower=[0.01, 0.10, 0.00], upper=[0.15, 0.50, 0.02])
        assert box.lattice_size(0.01) == len(box.grid(0.01)) == 15 * 41 * 3
        whole = ParameterBox(lower=[0.0, 0.0, 0.0], upper=[1.0, 1.0, 1.0])
        assert whole.lattice_size(0.01) == 101**3 <= MAX_GRID_POINTS
        with pytest.raises(ValueError, match=r"grid step 1e-09 gives a lattice of 1\.12e\+24 points"):
            box.grid(1e-9)
        with pytest.raises(ValueError, match=r"lattice of more than 1e308 points .* 2,000,000"):
            box.grid(1e-300)
        with pytest.raises(ValueError, match="lattice"):
            check_a2(box, m, grid_step=1e-9)
        with pytest.raises(ValueError, match="lattice"):
            worst_case_design(box, m, grid_step=1e-300)

    @pytest.mark.parametrize(
        "lower, upper",
        [
            ([0.5, 0.1, 0.0], [0.5, 0.2, 0.0]),
            ([0.1, 0.5, 0.0], [0.2, 0.5, 0.0]),
            ([0.5, 0.1, 0.0], [0.5, 0.1, 0.0]),
        ],
    )
    def test_a_step_below_a_fixed_axis_resolution_is_refused(self, lower, upper):
        # 0.5 + 5e-18 == 0.5: the axis fixed at 0.5 would get no sample, and
        # its count of 0 would hide every other axis from the cap
        m = default_model()
        box = ParameterBox(lower=lower, upper=upper)
        message = r"^grid step 1e-17 is below the resolution of the box's bound 0\.5 on axis "
        for call in (
            box.lattice_size,
            box.grid,
            lambda step: check_a2(box, m, grid_step=step),
            lambda step: worst_case_design(box, m, grid_step=step),
        ):
            with pytest.raises(ValueError, match=message):
                call(1e-17)

    @pytest.mark.parametrize("k", range(1, 11))
    def test_lower_corner_is_a_grid_point_at_the_simplex_cap(self, k):
        # A box may have lower bounds summing to 1 + 1e-12, the cap of the
        # grid's simplex cut, so the cut never leaves a grid empty.
        rng = np.random.default_rng(k)
        cap = 1.0 + 1e-12
        for _ in range(50):
            lower = rng.dirichlet(np.ones(k)) * (1.0 + 1e-12 * rng.uniform())
            while lower.sum() > cap:
                lower = np.nextafter(lower, 0.0)
            assert cap - 1e-12 <= lower.sum() <= cap
            upper = lower + rng.uniform(0.0, 0.15, k) * rng.integers(0, 2, k)
            pts = ParameterBox(lower=lower, upper=upper).grid(0.1)
            assert (pts[0] == lower).all()


BASE = default_model()

# Each rule a model type or helper enforces on its inputs, with its message.
VALIDATION_ERRORS = {
    "test-id-empty": (
        lambda: TestSpec(id="", cost=1.0, sensitivity=0.9, specificity=0.9),
        "test id must be a nonempty string",
    ),
    "model-no-tests": (
        lambda: DiseaseModel(tests=(), nominal=[[1], [0]], u=[1.0]),
        "model needs at least one test",
    ),
    "model-duplicate-ids": (
        lambda: DiseaseModel(tests=BASE.tests[:1] * 2, nominal=[[1, 0], [0, 0]], u=[1.0]),
        "duplicate test ids: ['rat', 'rat']",
    ),
    "model-nominal-columns": (
        lambda: DiseaseModel(tests=BASE.tests, nominal=[[1, 0], [0, 0]], u=[1.0]),
        "nominal matrix must have one column per test, got shape (2, 2)",
    ),
    "model-one-state": (
        lambda: DiseaseModel(tests=BASE.tests, nominal=[[0, 0, 0]], u=[]),
        "nominal matrix needs at least one non-reference state",
    ),
    "model-u-length": (
        lambda: DiseaseModel(tests=BASE.tests, nominal=BASE.nominal, u=[1.0, 1.0]),
        "u must have length k=3, got shape (2,)",
    ),
    "pattern-mask-entries": (
        lambda: TestPattern(mask=(1, 2, 0), cost=1.0),
        "pattern mask entries must be 0 or 1, got (1, 2, 0)",
    ),
    "pattern-cost": (
        lambda: TestPattern(mask=(1, 0, 0), cost=0.0),
        "pattern cost must be positive",
    ),
    "make-pattern-length": (
        lambda: make_pattern((1, 0), BASE),
        "mask length 2 != number of tests 3",
    ),
    "parameter-shape": (
        lambda: validate_parameter([0.1, 0.2], 3),
        "parameter must have length 3, got shape (2,)",
    ),
    "parameter-negative": (
        lambda: validate_parameter([-0.5, 0.25, 0.25], 3),
        "parameter entries must be nonnegative, got [-0.5   0.25  0.25]",
    ),
    "box-shapes": (
        lambda: ParameterBox(lower=[0.0, 0.0], upper=[0.1, 0.1, 0.1]),
        "lower and upper must be vectors of the same length",
    ),
    "box-negative-bound": (
        lambda: ParameterBox(lower=[-0.5, 0.0, 0.0], upper=[0.1, 0.1, 0.1]),
        "box lower bounds must be nonnegative, got [-0.5  0.   0. ]",
    ),
    "box-lower-above-upper": (
        lambda: ParameterBox(lower=[0.2, 0.0, 0.0], upper=[0.1, 0.1, 0.1]),
        "box needs lower <= upper in every coordinate",
    ),
    "box-dimension": (
        lambda: check_a2(ParameterBox(lower=[0.1, 0.1], upper=[0.2, 0.2]), BASE),
        "box dimension 2 != model parameter dimension 3",
    ),
    "foreign-mask": (
        lambda: fisher_info(TestPattern(mask=(1, 0), cost=1.0), P0, BASE),
        "pattern mask (1, 0) does not select from this model's 3 tests",
    ),
}


@pytest.mark.parametrize("case", list(VALIDATION_ERRORS))
def test_validation_error_message(case):
    call, message = VALIDATION_ERRORS[case]
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


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

    @pytest.mark.parametrize(
        "call",
        [
            pytest.param(
                lambda m, v: Design(patterns=all_patterns(m), fractions=v, budget=1e7), id="design"
            ),
            pytest.param(lambda m, v: objective(v, P0, m), id="objective"),
            pytest.param(lambda m, v: kkt_check(v, P0, m), id="kkt_check"),
            pytest.param(lambda m, v: saddle_check(v, P0, SMALL_BOX, m), id="saddle_check"),
        ],
    )
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_fractions_rejected(self, call, bad):
        v = np.full(7, 1.0 / 6.0)
        v[2] = bad
        with pytest.raises(ValueError, match=f"fraction 2 must be finite, got {bad}"):
            call(default_model(), v)

    def test_infinite_grid_step_rejected(self):
        with pytest.raises(ValueError, match=r"grid step must be positive and finite, got inf"):
            SMALL_BOX.lattice_size(np.inf)

    def test_a_grid_step_beyond_the_float_range_rejected(self):
        with pytest.raises(ValueError, match=r"^grid step must be positive and finite, got 1000"):
            SMALL_BOX.grid(10**400)

    @pytest.mark.parametrize("bad", ["0.01", True, None])
    def test_a_grid_step_that_is_not_a_real_number_rejected(self, bad):
        with pytest.raises(TypeError) as err:
            SMALL_BOX.grid(bad)
        assert str(err.value) == f"grid step must be a real number, got {bad!r}"

    def test_an_integer_grid_step_is_read_as_a_float(self):
        # 2**64 fits no numpy integer type, so np.arange would make objects of it
        pts = SMALL_BOX.grid(2**64)
        assert pts.dtype == np.float64
        assert np.array_equal(pts, SMALL_BOX.grid(float(2**64)))
        assert check_a2(SMALL_BOX, MODEL, grid_step=2**64).ok
        report = worst_case_design(SMALL_BOX, MODEL, grid_step=2**64)
        assert type(report.grid_step) is float and report.grid_step == 2.0**64
        assert report.to_dict()["grid_step"] == 2.0**64

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_target_rejected(self, bad):
        base = default_model()
        with pytest.raises(ValueError, match=f"u entry 0 must be finite, got {bad}"):
            DiseaseModel(tests=base.tests, nominal=base.nominal, u=[bad, 1.0, 1.0])


def outcomes(mask, m):
    """The outcomes of pattern ``mask``'s table rows, in row order: 0 or 1
    at a conducted test, -1 at one not conducted."""
    codes, _, index, spans, _, _ = _layout(m.n_tests)
    return (codes[:, spans[index[mask]]].T - 1).tolist()


def table_rows(mask, m):
    """P(y | state) of pattern ``mask``, one table row per outcome, (outcomes, k + 1)."""
    table = _pattern_tables(m)
    return table.q[table.spans[table.index[mask]]]


def mixture(mask, p, m):
    """The mixture probability ``q[:, k] + d @ p`` of pattern ``mask``'s outcomes at p."""
    table = _pattern_tables(m)
    rows = table.spans[table.index[mask]]
    return table.q[rows, m.k] + table.d[rows] @ p


class TestOutcomeSpace:
    def test_single_test(self):
        assert outcomes((0, 0, 1), default_model()) == [[-1, -1, 0], [-1, -1, 1]]

    def test_full_pattern_has_eight(self):
        m = default_model()
        assert len(outcomes((1, 1, 1), m)) == table_rows((1, 1, 1), m).shape[0] == 8

    def test_two_test_pattern(self):
        ys = outcomes((1, 0, 1), default_model())
        assert ys == [[0, -1, 0], [0, -1, 1], [1, -1, 0], [1, -1, 1]]


class TestConditionalProb:
    def test_antibody_sensitivity(self):
        # state index 1 has a nominal positive antibody response; row 1 is a positive result
        assert table_rows((0, 0, 1), default_model())[1, 1] == pytest.approx(0.921, abs=1e-15)

    def test_antibody_specificity_reference_state(self):
        assert table_rows((0, 0, 1), default_model())[0, 3] == pytest.approx(0.977, abs=1e-15)

    def test_two_test_product(self):
        # state 0 is nominally RAT-positive, antibody-negative; row 2 is that outcome
        q = table_rows((1, 0, 1), default_model())
        assert q[2, 0] == pytest.approx(0.5 * 0.977, abs=1e-15)

    def test_rows_sum_to_one(self):
        m = default_model()
        for t in all_patterns(m):
            totals = table_rows(t.mask, m).sum(axis=0)
            np.testing.assert_allclose(totals, 1.0, rtol=0, atol=1e-12)


class TestMixtureProb:
    def test_reference_state_only(self):
        value = mixture((0, 0, 1), np.zeros(3), default_model())[1]
        assert value == pytest.approx(1.0 - 0.977, abs=1e-15)

    def test_normalization(self):
        m = default_model()
        rng = np.random.default_rng(7)
        for t in all_patterns(m):
            p = random_interior_points(rng, 1)[0]
            assert mixture(t.mask, p, m).sum() == pytest.approx(1.0, abs=1e-12)

    def test_full_pattern_against_enumeration_oracle(self):
        # independent re-derivation: per-state product over channels, then mix
        m = default_model()
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

        values = mixture((1, 1, 1), P0, m)
        for y, value in zip(outcomes((1, 1, 1), m), values, strict=True):
            assert value == pytest.approx(oracle(y), rel=1e-13)

    def test_affine_in_p(self):
        m = default_model()
        rng = np.random.default_rng(11)
        p1, p2 = random_interior_points(rng, 2)
        lam = 0.37
        left = mixture((1, 0, 1), lam * p1 + (1 - lam) * p2, m)
        right = lam * mixture((1, 0, 1), p1, m) + (1 - lam) * mixture((1, 0, 1), p2, m)
        np.testing.assert_allclose(left, right, rtol=0, atol=1e-15)


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
        check_a1(P0, model)
        assert _pattern_tables.cache_info().misses == misses + 1

    def test_worst_case_builds_each_solved_point_once(self, monkeypatch):
        from serodesign import minimax

        model = default_model(rtpcr_cost=100.0)
        box = ParameterBox(lower=[0.05, 0.20, 0.00], upper=[0.09, 0.30, 0.01])
        calls = []

        def counted(p, *args, **kwargs):
            calls.append(np.array(p))
            return _fisher_info_grid(p, *args, **kwargs)

        monkeypatch.setattr(minimax, "_fisher_info_grid", counted)
        worst_case_design(box, model, grid_step=0.02)
        assert calls and all(p.shape == (3,) for p in calls)
        assert len({p.tobytes() for p in calls}) == len(calls)


class TestAssumptionChecks:
    def test_default_model_satisfies_a1(self):
        m = default_model()
        result = check_a1(P0, m)
        assert result.ok
        assert result.pattern is not None

    def test_uninformative_model_fails_a1(self):
        m = uninformative_model()
        result = check_a1(P0, m)
        assert not result.ok
        assert result.pattern is None
        # coin-flip channels carry literally zero information
        info = fisher_info(make_pattern((1, 1, 1), m), P0, m)
        assert np.abs(info).max() <= 1e-15

    def test_single_binary_test_cannot_identify_three_parameters(self):
        m = default_model()
        rat_only = DiseaseModel(tests=m.tests[:1], nominal=m.nominal[:, :1], u=m.u)
        (t,) = all_patterns(rat_only)
        result = check_a1(P0, rat_only)
        assert not result.ok
        assert np.linalg.matrix_rank(fisher_info(t, P0, rat_only), tol=1e-12) <= 1

    def test_a2_on_table_box(self):
        m = default_model()
        box = ParameterBox(lower=[0.01, 0.10, 0.00], upper=[0.15, 0.50, 0.02])
        result = check_a2(box, m, grid_step=0.01)
        assert result.ok
        assert result.lambda_min > 0
        assert result.pattern is not None

    def test_a2_point_box_reduces_to_a1(self):
        m = default_model()
        box = ParameterBox(lower=P0, upper=P0)
        a2 = check_a2(box, m, grid_step=0.01)
        a1 = check_a1(P0, m)
        assert a2.ok == a1.ok
        assert np.allclose(a2.argmin, P0)

    def test_a2_uninformative_fails(self):
        m = uninformative_model()
        box = ParameterBox(lower=[0.01, 0.10, 0.00], upper=[0.15, 0.50, 0.02])
        result = check_a2(box, m, grid_step=0.05)
        assert not result.ok


# A library call given a model, box or budget of the wrong type: the
# TypeError it raises, which names the argument.
V_UNIFORM = np.full(7, 1.0 / 7.0)
NOT_A_MODEL = "model must be a DiseaseModel, got NoneType"
NOT_A_BOX = "box must be a ParameterBox, got NoneType"
WRONG_TYPES = {
    "solve_c_optimal": (lambda: solve_c_optimal(P0, None), NOT_A_MODEL),
    "budget_for_margin": (lambda: budget_for_margin(P0, None, 0.01), NOT_A_MODEL),
    "objective": (lambda: objective(V_UNIFORM, P0, None), NOT_A_MODEL),
    "objective_gradient": (
        lambda: objective_gradient(V_UNIFORM, P0, "row1"),
        "model must be a DiseaseModel, got str",
    ),
    "kkt_check": (lambda: kkt_check(V_UNIFORM, P0, None), NOT_A_MODEL),
    "worst_case_design-model": (lambda: worst_case_design(SMALL_BOX, None), NOT_A_MODEL),
    "worst_case_design-box": (lambda: worst_case_design(None, MODEL), NOT_A_BOX),
    "saddle_check-model": (lambda: saddle_check(V_UNIFORM, P0, SMALL_BOX, None), NOT_A_MODEL),
    "saddle_check-box": (lambda: saddle_check(V_UNIFORM, P0, None, MODEL), NOT_A_BOX),
    "check_a1": (lambda: check_a1(P0, None), NOT_A_MODEL),
    "check_a2-model": (
        lambda: check_a2(SMALL_BOX, [MODEL]), "model must be a DiseaseModel, got list"
    ),
    "check_a2-box": (lambda: check_a2(None, MODEL), NOT_A_BOX),
    "simulation_report-model": (
        lambda: simulation_report(P0, None, V_UNIFORM, 1e6), NOT_A_MODEL
    ),
    "simulation_report-budget": (
        lambda: simulation_report(P0, MODEL, V_UNIFORM, None),
        "budget must be a real number, got None",
    ),
    "design-budget": (
        lambda: design_from_fractions(V_UNIFORM, "1e6", all_patterns(MODEL)),
        "budget must be a real number, got '1e6'",
    ),
}


@pytest.mark.parametrize("case", list(WRONG_TYPES))
def test_a_wrong_argument_type_raises_type_error_naming_it(case):
    call, message = WRONG_TYPES[case]
    with pytest.raises(TypeError) as err:
        call()
    assert str(err.value) == message
