"""Budget-allocation tests: the square-root splitting rule across strata
and groups, its optimality among alternative splits, and the published
symptomatic/asymptomatic allocation."""

import json
import math

import numpy as np
import pytest

from serodesign import (
    AllocationReport,
    ConvergenceError,
    GroupSpec,
    InfeasibleDesignError,
    ParameterBox,
    StratumSpec,
    allocate_districts,
    allocate_groups,
    default_model,
    solve_c_optimal,
    validate_entries,
)
from serodesign import allocation

from conftest import ROW4_BOX

P0 = np.array([0.10, 0.30, 0.01])
C = 1e7


class TestDistrictAllocation:
    def test_identical_strata_split_evenly(self, model_row1):
        strata = [
            StratumSpec(name="north", fraction=0.5, point=P0),
            StratumSpec(name="south", fraction=0.5, point=P0),
        ]
        report = allocate_districts(strata, model_row1, C)
        assert report.entry("north").budget == pytest.approx(C / 2, rel=1e-12)
        assert report.entry("south").budget == pytest.approx(C / 2, rel=1e-12)

    def test_single_stratum_gets_everything(self, model_row1):
        report = allocate_districts(
            [StratumSpec(name="all", fraction=1.0, point=P0)], model_row1, C
        )
        entry = report.entries[0]
        assert entry.budget == pytest.approx(C, rel=1e-12)
        local = solve_c_optimal(P0, model_row1, budget=C)
        assert np.allclose(entry.design.fractions, local.design.fractions)
        assert entry.criterion_value == pytest.approx(local.objective, rel=1e-12)

    def test_three_strata_match_formula_oracle(self, model_row1):
        points = [
            np.array([0.05, 0.20, 0.01]),
            np.array([0.10, 0.30, 0.01]),
            np.array([0.02, 0.45, 0.00]),
        ]
        fractions = [0.2, 0.5, 0.3]
        strata = [
            StratumSpec(name=f"d{i}", fraction=n, point=p)
            for i, (n, p) in enumerate(zip(fractions, points))
        ]
        report = allocate_districts(strata, model_row1, C)
        # hand evaluation of the allocation rule from the solved criterion values
        values = [solve_c_optimal(p, model_row1).objective for p in points]
        weights = [n * math.sqrt(a) for n, a in zip(fractions, values)]
        for entry, w in zip(report.entries, weights):
            assert entry.budget == pytest.approx(C * w / sum(weights), rel=1e-9)

    def test_budget_fully_spent(self, model_row1):
        strata = [
            StratumSpec(name="a", fraction=0.3, point=np.array([0.05, 0.2, 0.0])),
            StratumSpec(name="b", fraction=0.7, point=P0),
        ]
        report = allocate_districts(strata, model_row1, C)
        assert math.fsum(e.budget for e in report.entries) == pytest.approx(C, rel=1e-9)

    def test_share_formula_exactness(self, model_row1):
        strata = [
            StratumSpec(name="a", fraction=0.25, point=np.array([0.02, 0.15, 0.0])),
            StratumSpec(name="b", fraction=0.75, point=P0),
        ]
        report = allocate_districts(strata, model_row1, C)
        weights = [e.fraction * math.sqrt(e.criterion_value) for e in report.entries]
        for entry, w in zip(report.entries, weights):
            assert entry.budget / C == pytest.approx(w / sum(weights), abs=1e-12)

    def test_reduced_problem_stationarity(self, model_row1):
        # n_d^2 a_d / m_d^2 is the same across strata with positive budget
        strata = [
            StratumSpec(name="a", fraction=0.4, point=np.array([0.05, 0.2, 0.01])),
            StratumSpec(name="b", fraction=0.6, point=P0),
        ]
        report = allocate_districts(strata, model_row1, C)
        stationary = [
            e.fraction**2 * e.criterion_value / (e.budget / C) ** 2
            for e in report.entries
        ]
        assert stationary[0] == pytest.approx(stationary[1], rel=1e-6)

    def test_box_strata_with_equal_boxes_split_by_population(self, model_row4):
        box = ParameterBox(lower=[0.05, 0.20, 0.00], upper=[0.09, 0.30, 0.01])
        strata = [
            StratumSpec(name="a", fraction=0.3, box=box),
            StratumSpec(name="b", fraction=0.7, box=box),
        ]
        report = allocate_districts(strata, model_row4, C, grid_step=0.02)
        assert report.entry("a").budget / C == pytest.approx(0.3, abs=1e-9)
        assert report.entry("b").budget / C == pytest.approx(0.7, abs=1e-9)

    def test_zero_fraction_rejected(self, model_row1):
        with pytest.raises(ValueError, match="fraction"):
            StratumSpec(name="bad", fraction=0.0, point=P0)

    def test_fractions_must_sum_to_one(self, model_row1):
        strata = [
            StratumSpec(name="a", fraction=0.3, point=P0),
            StratumSpec(name="b", fraction=0.3, point=P0),
        ]
        with pytest.raises(ValueError, match="sum to 1"):
            allocate_districts(strata, model_row1, C)

    def test_infeasible_stratum_is_named(self, model_row1):
        flat = model_row1.with_test_overrides(
            {t.id: {"sensitivity": 0.5, "specificity": 0.5} for t in model_row1.tests}
        )
        strata = [StratumSpec(name="doomed", fraction=1.0, point=P0)]
        with pytest.raises(InfeasibleDesignError, match="doomed"):
            allocate_districts(strata, flat, C)

    @pytest.mark.parametrize("budget", [math.inf, 0.0, -1.0])
    def test_bad_budget_rejected_before_any_solve(self, model_row4, monkeypatch, budget):
        calls = []

        def counting(fn):
            def wrapper(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)

            return wrapper

        for name in ("solve_c_optimal", "worst_case_design"):
            monkeypatch.setattr(allocation, name, counting(getattr(allocation, name)))
        strata = [
            StratumSpec(name="point", fraction=0.5, point=P0),
            StratumSpec(name="box", fraction=0.5, box=ROW4_BOX),
        ]
        groups = [GroupSpec(name="all", fraction=1.0, point=P0)]
        message = f"budget must be positive and finite, got {budget}"
        with pytest.raises(ValueError, match=message):
            allocate_districts(strata, model_row4, budget)
        with pytest.raises(ValueError, match=message):
            allocate_groups(groups, model_row4, budget)
        assert calls == []


    def test_tiny_costs_solve_at_the_real_budget(self):
        # at costs of 1e-19 times the paper's, a budget of 1 would buy more
        # than 2**53 participants; every entry is solved at the budget given
        tiny = default_model(rat_cost=450e-19, rtpcr_cost=100e-19, antibody_cost=300e-19)
        strata = [
            StratumSpec(name="point", fraction=0.5, point=P0),
            StratumSpec(name="box", fraction=0.5, box=ROW4_BOX),
        ]
        report = allocate_districts(strata, tiny, 1e-12, grid_step=0.05)
        assert sum(e.budget for e in report.entries) == pytest.approx(1e-12, rel=1e-12)
        groups = allocate_groups([GroupSpec(name="all", fraction=1.0, point=P0)], tiny, 1e-12)
        assert groups.entries[0].budget == 1e-12

    def test_convergence_error_names_its_entry(self):
        # a rat test at cost 1e-18 leaves the summed information singular in
        # floating point, at the point and at grid points of the box
        tiny = default_model(rat_cost=1e-18)
        singular = "singular summed pattern information at the barrier start"
        with pytest.raises(ConvergenceError) as err:
            allocate_groups([GroupSpec(name="all", fraction=1.0, point=P0)], tiny, C)
        assert str(err.value) == f"group 'all': {singular}"
        strata = [
            StratumSpec(name="point", fraction=0.5, point=P0),
            StratumSpec(name="box", fraction=0.5, box=ROW4_BOX),
        ]
        with pytest.raises(ConvergenceError) as err:
            allocate_districts(strata, tiny, C, grid_step=0.05)
        assert str(err.value) == f"stratum 'point': {singular}"
        box = [StratumSpec(name="box", fraction=1.0, box=ROW4_BOX)]
        with pytest.raises(ConvergenceError) as err:
            allocate_districts(box, tiny, C, grid_step=0.05)
        assert str(err.value).startswith("stratum 'box': inner solve at grid point p = [")
        assert str(err.value).endswith(singular)

    @pytest.mark.parametrize("error", [ConvergenceError, InfeasibleDesignError])
    def test_entry_error_is_reraised_with_its_name(self, model_row1, monkeypatch, error):
        # the solver's own error object is re-raised, so its type and a
        # ConvergenceError's best iterate survive
        raised = error("no certified optimum")

        def failing(*args):
            raise raised

        monkeypatch.setattr(allocation, "solve_c_optimal", failing)
        with pytest.raises(error) as err:
            allocate_groups([GroupSpec(name="all", fraction=1.0, point=P0)], model_row1, C)
        assert err.value is raised
        assert str(err.value) == "group 'all': no certified optimum"


    @pytest.mark.parametrize(
        "override, error, message",
        [
            (
                {"zzz": {"sensitivity": 0.5}},
                KeyError,
                "group 'b': unknown test id 'zzz'; have ['rat', 'rtpcr', 'antibody']",
            ),
            (
                {"rat": {"sensitivity": 1.5}},
                ValueError,
                "group 'b': test 'rat': sensitivity must be strictly between 0 and 1, got 1.5",
            ),
            (
                {"rat": {"cost": 10}},
                ValueError,
                "group 'b': override for test 'rat' has unknown keys ['cost']",
            ),
            (
                {"rat": {"specificity": "0.9"}},
                TypeError,
                "group 'b': test 'rat': specificity must be a real number, got '0.9'",
            ),
        ],
    )
    def test_override_error_names_its_group(self, model_row1, override, error, message):
        groups = [
            GroupSpec(name="a", fraction=0.5, point=P0),
            GroupSpec(name="b", fraction=0.5, point=P0, overrides=override),
        ]
        with pytest.raises(error) as err:
            allocate_groups(groups, model_row1, C)
        assert err.value.args == (message,)

    def test_budget_error_names_its_stratum(self, model_row1):
        # from 2**53 relaxed participants on, integer counts are not exact
        strata = [
            StratumSpec(name="north", fraction=0.5, point=P0),
            StratumSpec(name="south", fraction=0.5, point=P0),
        ]
        with pytest.raises(ValueError) as err:
            allocate_districts(strata, model_row1, 1e22)
        assert err.value.args[0].startswith("stratum 'north': budget 1e+22 buys ")


# Each rule on a stratum, a group or a list of them, with its message.
ENTRY_ERRORS = {
    "stratum-name-empty": (
        lambda: StratumSpec(name="", fraction=0.5, point=P0),
        "stratum needs a nonempty name",
    ),
    "group-name-empty": (
        lambda: GroupSpec(name="", fraction=0.5, point=P0),
        "group needs a nonempty name",
    ),
    "stratum-fraction": (
        lambda: StratumSpec(name="a", fraction=0.0, point=P0),
        "stratum 'a': population fraction must lie in (0, 1], got 0.0",
    ),
    "group-fraction": (
        lambda: GroupSpec(name="a", fraction=1.5, point=P0),
        "group 'a': fraction must lie in (0, 1], got 1.5",
    ),
    "stratum-neither-point-nor-box": (
        lambda: StratumSpec(name="a", fraction=0.5),
        "stratum 'a': give exactly one of point or box",
    ),
    "stratum-point-and-box": (
        lambda: StratumSpec(name="a", fraction=0.5, point=P0, box=ROW4_BOX),
        "stratum 'a': give exactly one of point or box",
    ),
    "group-override-not-a-mapping": (
        lambda: GroupSpec(name="a", fraction=0.5, point=P0, overrides={"rat": 0.5}),
        "group 'a': override for test 'rat' must be a mapping, got 0.5",
    ),
    "group-overrides-not-a-mapping": (
        lambda: GroupSpec(name="a", fraction=0.5, point=P0, overrides=[("rat", {})]),
        "group 'a': overrides must be a mapping, got [('rat', {})]",
    ),
    "no-entries": (lambda: validate_entries([], "stratum"), "need at least one stratum"),
}


@pytest.mark.parametrize("case", list(ENTRY_ERRORS))
def test_entry_error_message(case):
    call, message = ENTRY_ERRORS[case]
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


def test_group_holds_a_read_only_copy_of_its_overrides():
    overrides = {"rat": {"sensitivity": 0.68}}
    group = GroupSpec(name="a", fraction=1.0, point=P0, overrides=overrides)
    overrides["rat"]["sensitivity"] = 1.5
    overrides["antibody"] = {"sensitivity": 0.5}
    assert {k: dict(v) for k, v in group.overrides.items()} == {"rat": {"sensitivity": 0.68}}
    with pytest.raises(TypeError):
        group.overrides["rat"]["sensitivity"] = 0.5
    with pytest.raises(TypeError):
        group.overrides["antibody"] = {}


def test_unknown_entry_name():
    with pytest.raises(KeyError) as err:
        AllocationReport(entries=(), budget=C).entry("west")
    assert err.value.args[0] == "no stratum named 'west'"


class TestGroupAllocation:
    def test_published_symptomatic_split(self, model_row1):
        groups = [
            GroupSpec(
                name="symptomatic",
                fraction=0.1,
                point=P0,
                overrides={"rat": {"sensitivity": 0.68}},
            ),
            GroupSpec(
                name="asymptomatic",
                fraction=0.9,
                point=P0,
                overrides={"rat": {"sensitivity": 0.47}},
            ),
        ]
        report = allocate_groups(groups, model_row1, C)
        sym = report.entry("symptomatic")
        asym = report.entry("asymptomatic")
        assert 100 * sym.budget / C == pytest.approx(8.8, abs=0.3)
        assert 100 * asym.budget / C == pytest.approx(91.2, abs=0.3)
        assert sym.design.integer_count((0, 0, 1)) == pytest.approx(300, abs=5)
        assert sym.design.integer_count((1, 0, 1)) == pytest.approx(1046, abs=5)
        assert asym.design.integer_count((1, 0, 1)) == pytest.approx(12167, abs=5)
        # the expensive RTPCR is skipped entirely in both groups
        for entry in report.entries:
            assert entry.design.integer_count((0, 1, 0)) == 0
            assert entry.design.integer_count((0, 1, 1)) == 0

    def test_entries_are_priced_at_their_budget(self, model_row1):
        groups = [
            GroupSpec(
                name="symptomatic",
                fraction=0.1,
                point=P0,
                overrides={"rat": {"sensitivity": 0.68}},
            ),
            GroupSpec(
                name="asymptomatic",
                fraction=0.9,
                point=P0,
                overrides={"rat": {"sensitivity": 0.47}},
            ),
        ]
        report = allocate_groups(groups, model_row1, C)
        for group, entry in zip(groups, report.entries):
            assert entry.budget == entry.report.design.budget
            fresh = solve_c_optimal(P0, group.model(model_row1), budget=entry.budget)
            assert json.dumps(entry.report.to_dict()) == json.dumps(fresh.to_dict())

    def test_identical_groups_split_evenly(self, model_row1):
        groups = [
            GroupSpec(name="a", fraction=0.5, point=P0),
            GroupSpec(name="b", fraction=0.5, point=P0),
        ]
        report = allocate_groups(groups, model_row1, C)
        assert report.entry("a").budget == pytest.approx(C / 2, rel=1e-12)

    def test_better_tests_mean_smaller_criterion(self, model_row1):
        sharper = {t.id: {"sensitivity": min(t.sensitivity + 0.04, 0.99)} for t in model_row1.tests}
        groups = [
            GroupSpec(name="sharp", fraction=0.5, point=P0, overrides=sharper),
            GroupSpec(name="base", fraction=0.5, point=P0),
        ]
        report = allocate_groups(groups, model_row1, C)
        sharp, base = report.entry("sharp"), report.entry("base")
        assert sharp.criterion_value < base.criterion_value
        # equal fractions, so the budget ordering follows sqrt(a) directly
        weights = [0.5 * math.sqrt(e.criterion_value) for e in report.entries]
        for entry, w in zip(report.entries, weights):
            assert entry.budget == pytest.approx(C * w / sum(weights), rel=1e-9)
        assert sharp.budget < base.budget


class TestWeightedVariance:
    def test_optimal_split_beats_random_splits(self, model_row1):
        strata = [
            StratumSpec(name="a", fraction=0.4, point=np.array([0.05, 0.2, 0.01])),
            StratumSpec(name="b", fraction=0.6, point=P0),
        ]
        report = allocate_districts(strata, model_row1, C)
        optimal = report.total_variance
        rng = np.random.default_rng(77)
        fractions = np.array([e.fraction for e in report.entries])
        values = np.array([e.criterion_value for e in report.entries])
        for _ in range(200):
            split = rng.dirichlet(np.ones(len(values)))
            if (split < 1e-6).any():
                continue
            alternative = float(np.sum(fractions**2 * values / (split * C)))
            assert alternative >= optimal - 1e-9

    def test_single_stratum_value(self, model_row1):
        report = allocate_districts(
            [StratumSpec(name="all", fraction=1.0, point=P0)], model_row1, C
        )
        entry = report.entries[0]
        assert report.total_variance == pytest.approx(entry.criterion_value / C, rel=1e-12)

    def test_equal_criteria_collapse(self, model_row1):
        # with equal a_d the weighted variance equals the unstratified a / C
        strata = [
            StratumSpec(name="a", fraction=0.35, point=P0),
            StratumSpec(name="b", fraction=0.65, point=P0),
        ]
        report = allocate_districts(strata, model_row1, C)
        a = report.entries[0].criterion_value
        assert report.total_variance == pytest.approx(a / C, rel=1e-9)
