"""Command-line interface tests: configuration validation with path-named
errors, subcommand dispatch, report stability, and exit codes."""

import copy
import json
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import serodesign
from serodesign import budget_for_margin, coptimal, simulate, solve_c_optimal
from serodesign.coptimal import _solve_simplex
from serodesign.cli import (
    _SCENARIO_FOR,
    ConfigError,
    fixture_path,
    load_config,
    main,
    parse_config,
    render_table,
    run,
)

from conftest import SINGULAR_HESSIAN_CONFIG

ROW1 = {
    "model": {
        "tests": [
            {"id": "rat", "cost": 450, "sensitivity": 0.5, "specificity": 0.975},
            {"id": "rtpcr", "cost": 1600, "sensitivity": 0.95, "specificity": 0.97},
            {"id": "antibody", "cost": 300, "sensitivity": 0.921, "specificity": 0.977},
        ],
        "nominal": [[1, 1, 0], [0, 0, 1], [1, 1, 1], [0, 0, 0]],
        "u": [1, 1, 1],
    },
    "scenario": {"point": [0.10, 0.30, 0.01]},
    "budget": 1e7,
    "options": {"currency": "Rs"},
}


STRATA = {
    **ROW1,
    "scenario": {
        "strata": [
            {"name": "north", "fraction": 0.4, "point": [0.10, 0.30, 0.01]},
            {
                "name": "south",
                "fraction": 0.6,
                "box": {"lower": [0.05, 0.20, 0.00], "upper": [0.09, 0.30, 0.01]},
            },
        ]
    },
    "options": {"currency": "Rs", "grid_step": 0.02},
}


def fixture_doc(name):
    with open(fixture_path(name), encoding="utf-8") as handle:
        return json.load(handle)


def edited(doc, value, *keys):
    """A copy of ``doc`` with the entry at ``keys`` set to ``value``."""
    doc = copy.deepcopy(doc)
    node = doc
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    return doc


def scaled(doc, scale):
    """A copy of ``doc`` with every test's cost and the budget times ``scale``.

    At 1e-19 a budget of 1 would buy more than 2**53 participants, where
    integer counts are no longer exact; the document's own budget buys as
    many as at scale 1.
    """
    doc = copy.deepcopy(doc)
    for test in doc["model"]["tests"]:
        test["cost"] *= scale
    doc["budget"] *= scale
    return doc


def with_options(config, **options):
    """``config`` with the given options set, as a library caller sets them."""
    return replace(config, options=replace(config.options, **options))


def tiny_box_config():
    doc = copy.deepcopy(ROW1)
    doc["model"]["tests"][1]["cost"] = 100
    doc["scenario"] = {"box": {"lower": [0.05, 0.20, 0.00], "upper": [0.09, 0.30, 0.01]}}
    doc["options"]["grid_step"] = 0.02
    return doc


class TestParseConfig:
    def test_row1_fixture_parses(self):
        config = load_config(fixture_path("table1_row1"))
        assert [t.cost for t in config.model.tests] == [450, 1600, 300]
        assert config.scenario_kind == "point"
        assert np.allclose(config.scenario, [0.10, 0.30, 0.01])
        assert config.budget == 1e7
        assert config.options.currency == "Rs"

    def test_all_fixtures_parse(self):
        for name in (
            "table1_row1", "table1_row2", "table1_row3", "table1_row4", "table1_row5",
            "strata_three_districts",
        ):
            config = load_config(fixture_path(name))
            assert config.budget == 1e7

    def test_empty_tests_named(self):
        doc = copy.deepcopy(ROW1)
        doc["model"]["tests"] = []
        with pytest.raises(ConfigError, match="model.tests"):
            parse_config(doc)

    def test_simplex_violation_rejected(self):
        doc = copy.deepcopy(ROW1)
        doc["scenario"] = {"point": [0.6, 0.5, 0.2]}
        with pytest.raises(ConfigError, match="scenario.point"):
            parse_config(doc)

    def test_boundary_sensitivity_rejected_with_explanation(self):
        doc = copy.deepcopy(ROW1)
        doc["model"]["tests"][0]["sensitivity"] = 1.0
        with pytest.raises(ConfigError, match="strictly between 0 and 1"):
            parse_config(doc)

    def test_two_scenarios_rejected(self):
        doc = copy.deepcopy(ROW1)
        doc["scenario"] = {
            "point": [0.1, 0.3, 0.01],
            "box": {"lower": [0, 0, 0], "upper": [0.1, 0.1, 0.1]},
        }
        with pytest.raises(ConfigError, match="exactly one"):
            parse_config(doc)

    def test_group_override_path_named(self):
        doc = copy.deepcopy(ROW1)
        doc["scenario"] = {
            "groups": [
                {"name": "g", "fraction": 1.0, "point": [0.1, 0.3, 0.01],
                 "overrides": {"nosuch": {"sensitivity": 0.5}}}
            ]
        }
        with pytest.raises(ConfigError, match=r"scenario.groups\[0\].overrides.nosuch"):
            parse_config(doc)

    def test_omitted_u_defaults_to_all_ones(self):
        doc = copy.deepcopy(ROW1)
        del doc["model"]["u"]
        config = parse_config(doc)
        assert np.array_equal(config.model.u, np.ones(3))


# A document shape the CLI rejects itself, with the error it reports.
SHAPE_ERRORS = {
    "cost-not-a-number": (
        edited(ROW1, "cheap", "model", "tests", 0, "cost"),
        "model.tests[0].cost: expected a number, got 'cheap'",
    ),
    "point-empty": (
        edited(ROW1, [], "scenario", "point"),
        "scenario.point: expected a nonempty list of numbers, got []",
    ),
    "nominal-not-rows": (
        edited(ROW1, [1, 0, 1], "model", "nominal"),
        "model.nominal: expected a list of rows",
    ),
    "box-length": (
        edited(ROW1, {"box": {"lower": [0.0, 0.1], "upper": [0.1, 0.2]}}, "scenario"),
        "scenario.box: lower and upper must each have 3 entries",
    ),
    "strata-not-a-list": (
        edited(ROW1, {"strata": {"north": 1.0}}, "scenario"),
        "scenario.strata: expected a list, got {'north': 1.0}",
    ),
    "unknown-option": (
        edited(ROW1, 2, "options", "colour"),
        "options.colour: unknown option",
    ),
    "unknown-top-level-field": (
        edited(ROW1, {}, "extra"),
        "extra: unknown top-level field",
    ),
    "budget-zero": (edited(ROW1, 0, "budget"), "budget: must be positive, got 0.0"),
    "budget-negative": (edited(ROW1, -5, "budget"), "budget: must be positive, got -5.0"),
}


@pytest.mark.parametrize("case", list(SHAPE_ERRORS))
def test_shape_error_message(case):
    doc, message = SHAPE_ERRORS[case]
    with pytest.raises(ConfigError) as err:
        parse_config(doc)
    assert str(err.value) == message


class TestRun:
    def test_c_optimal_row1(self):
        config = load_config(fixture_path("table1_row1"))
        report = run(config, "c-optimal")
        counts = report["design"]["integer_counts"]
        assert counts["001"] == pytest.approx(521, abs=2)
        assert counts["101"] == pytest.approx(13125, abs=2)
        assert report["currency"] == "Rs"

    def test_fixture_integer_designs_within_budget(self):
        def designs(node):
            if isinstance(node, dict):
                if "realized_cost" in node:
                    yield node
                for value in node.values():
                    yield from designs(value)
            elif isinstance(node, list):
                for value in node:
                    yield from designs(value)

        subcommands = {"point": "c-optimal", "box": "worst-case", "groups": "groups"}
        for row in range(1, 6):
            config = load_config(fixture_path(f"table1_row{row}"))
            report = run(config, subcommands[config.scenario_kind])
            found = list(designs(report))
            assert found
            for design in found:
                assert design["realized_cost"] <= design["budget"]
            if row == 1:
                # the published 521 / 13,125 spends 10,000,050; rounding down
                # 101 (cost 750) frees room for one more 001 (cost 300)
                counts = {k: n for k, n in found[0]["integer_counts"].items() if n}
                assert counts == {"001": 522, "101": 13124}
                assert found[0]["realized_cost"] == 9_999_600

    def test_worst_case_small_box(self):
        config = parse_config(tiny_box_config())
        report = run(config, "worst-case")
        assert report["command"] == "worst-case"
        assert report["saddle_gap"] <= 1e-3 * report["game_value"]
        assert sum(report["design"]["fractions"].values()) == pytest.approx(1.0)

    def test_groups_row5(self):
        config = load_config(fixture_path("table1_row5"))
        report = run(config, "groups")
        shares = {a["name"]: a["budget_share"] for a in report["allocations"]}
        assert shares["symptomatic"] * 100 == pytest.approx(8.8, abs=0.3)
        assert shares["asymptomatic"] * 100 == pytest.approx(91.2, abs=0.3)

    def test_strata_subcommand(self):
        doc = copy.deepcopy(ROW1)
        doc["scenario"] = {
            "strata": [
                {"name": "north", "fraction": 0.5, "point": [0.10, 0.30, 0.01]},
                {"name": "south", "fraction": 0.5, "point": [0.05, 0.20, 0.01]},
            ]
        }
        report = run(parse_config(doc), "strata")
        assert len(report["allocations"]) == 2
        total = sum(a["budget"] for a in report["allocations"])
        assert total == pytest.approx(1e7, rel=1e-9)

    def test_budget_inversion(self):
        config = load_config(fixture_path("table1_row1"))
        report = run(with_options(config, moe=0.01, alpha=0.05), "budget")
        z, required = report["z"], report["required_budget"]
        assert z == pytest.approx(1.959963984540054, abs=1e-9)
        assert z * np.sqrt(report["objective"] / required) == pytest.approx(0.01, rel=1e-9)

    @pytest.mark.parametrize(
        "row, moe, alpha", [(1, 0.01, 0.05), (2, 0.004, 0.1), (3, 0.02, 0.01)]
    )
    def test_budget_solves_once(self, monkeypatch, row, moe, alpha):
        # the report of the two-solve path: a solve inside budget_for_margin,
        # then a solve at the required budget
        config = load_config(fixture_path(f"table1_row{row}"))
        required = budget_for_margin(config.scenario, config.model, moe, alpha)
        two_solves = solve_c_optimal(config.scenario, config.model, budget=required)
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return _solve_simplex(*args, **kwargs)

        monkeypatch.setattr(coptimal, "_solve_simplex", counted)
        report = run(with_options(config, moe=moe, alpha=alpha), "budget")
        assert len(calls) == 1
        assert report["required_budget"] == required
        body = {key: report[key] for key in two_solves.to_dict()}
        assert json.dumps(body) == json.dumps(two_solves.to_dict())

    @pytest.mark.parametrize("scale", [1.0, 1e-19])
    def test_budget_for_margin_is_the_required_budget(self, scale):
        config = with_options(parse_config(scaled(ROW1, scale)), moe=0.01)
        required = run(config, "budget")["required_budget"]
        assert budget_for_margin(config.scenario, config.model, 0.01) == required

    @pytest.mark.parametrize(
        "key, value",
        [("alpha", 1.5), ("grid_step", 0.0), ("moe", float("nan")), ("seed", -1),
         ("replications", 2)],
    )
    def test_options_set_by_a_caller_are_checked(self, key, value):
        config = load_config(fixture_path("table1_row1"))
        with pytest.raises(ConfigError, match=rf"^options\.{key}: "):
            with_options(config, **{key: value})

    def test_simulate_subcommand(self):
        config = load_config(fixture_path("table1_row1"))
        report = run(with_options(config, replications=50, seed=1), "simulate")
        assert report["replications"] == 50
        assert 0.5 <= report["ratio"] <= 1.5
        assert 0.0 <= report["normality_pvalue"] <= 1.0

    def test_check_assumptions_point_and_box(self):
        report = run(load_config(fixture_path("table1_row1")), "check-assumptions")
        assert report["a1"]["ok"] is True
        report = run(parse_config(tiny_box_config()), "check-assumptions")
        assert report["a2"]["ok"] is True
        assert report["a2"]["lambda_min"] > 0

    def test_check_assumptions_point_and_box_strata(self):
        report = run(parse_config(STRATA), "check-assumptions")
        north, south = report["checks"]
        assert north["name"] == "north" and north["a1"]["ok"] is True
        assert north["a1"]["witness"] is not None
        # a box stratum reports what the top-level box check reports
        box = run(parse_config(tiny_box_config()), "check-assumptions")["a2"]
        assert south["name"] == "south" and list(south["a2"]) == list(box)
        assert south["a2"]["ok"] is True and south["a2"]["lambda_min"] > 0
        lower, upper = np.array([0.05, 0.20, 0.00]), np.array([0.09, 0.30, 0.01])
        argmin = np.array(south["a2"]["argmin"])
        assert (argmin >= lower - 1e-12).all() and (argmin <= upper + 1e-12).all()
        assert south["a2"]["witness"] is not None

    def test_scenario_mismatch_is_config_error(self):
        config = load_config(fixture_path("table1_row1"))
        with pytest.raises(ConfigError, match="needs a box scenario"):
            run(config, "worst-case")

    def test_unknown_subcommand_is_config_error(self):
        config = load_config(fixture_path("table1_row1"))
        with pytest.raises(ConfigError) as err:
            run(config, "best-case")
        assert str(err.value) == "subcommand: unknown subcommand 'best-case'"

    def test_reports_byte_identical(self):
        config = load_config(fixture_path("table1_row1"))
        a = json.dumps(run(config, "c-optimal"), indent=2)
        b = json.dumps(run(load_config(fixture_path("table1_row1")), "c-optimal"), indent=2)
        assert a == b

    def test_simulate_reports_reproducible(self):
        config = with_options(load_config(fixture_path("table1_row1")), replications=20, seed=5)
        a = json.dumps(run(config, "simulate"))
        b = json.dumps(run(config, "simulate"))
        assert a == b


ROW5 = fixture_doc("table1_row5")
SAVED_DESIGN = {"design": {"fractions": {"001": 0.5, "101": 0.5}, "budget": 1e7}}

# (subcommand, configuration, flags, --design file text or None, path in the error)
MALFORMED = {
    "override-range-groups": (
        "groups", edited(ROW5, 1.5, "scenario", "groups", 0, "overrides", "rat", "sensitivity"),
        [], None, "scenario.groups[0].overrides.rat",
    ),
    "override-cost": (
        "groups", edited(ROW5, 10, "scenario", "groups", 0, "overrides", "rat", "cost"),
        [], None, "scenario.groups[0].overrides.rat",
    ),
    "override-range-check": (
        "check-assumptions",
        edited(ROW5, 1.5, "scenario", "groups", 0, "overrides", "rat", "sensitivity"),
        [], None, "scenario.groups[0].overrides.rat",
    ),
    "duplicate-groups": (
        "groups", edited(ROW5, "symptomatic", "scenario", "groups", 1, "name"),
        [], None, "scenario.groups",
    ),
    "duplicate-strata": (
        "strata", edited(STRATA, "north", "scenario", "strata", 1, "name"),
        [], None, "scenario.strata",
    ),
    "stratum-name-number": (
        "strata", edited(STRATA, 5, "scenario", "strata", 0, "name"),
        [], None, "scenario.strata[0].name",
    ),
    "group-name-list": (
        "groups", edited(ROW5, ["x"], "scenario", "groups", 0, "name"),
        [], None, "scenario.groups[0].name",
    ),
    "seed-flag-negative": ("simulate", ROW1, ["--seed", "-1"], None, "options.seed"),
    "seed-negative": ("simulate", edited(ROW1, -3, "options", "seed"), [], None, "options.seed"),
    "seed-fractional": ("simulate", edited(ROW1, 1.7, "options", "seed"), [], None, "options.seed"),
    "replications-fractional": (
        "simulate", edited(ROW1, 8.9, "options", "replications"), [], None, "options.replications",
    ),
    "budget-nan": ("c-optimal", edited(ROW1, float("nan"), "budget"), [], None, "budget"),
    "budget-infinity": ("c-optimal", edited(ROW1, float("inf"), "budget"), [], None, "budget"),
    "grid-step-infinity": (
        "worst-case", edited(tiny_box_config(), float("inf"), "options", "grid_step"),
        [], None, "options.grid_step",
    ),
    "point-nan": (
        "c-optimal", edited(ROW1, float("nan"), "scenario", "point", 0),
        [], None, "scenario.point[0]",
    ),
    "cost-infinity": (
        "c-optimal", edited(ROW1, float("inf"), "model", "tests", 0, "cost"),
        [], None, "model.tests[0].cost",
    ),
    "nominal-fractional": (
        "c-optimal", edited(ROW1, 1.7, "model", "nominal", 0, 0), [], None, "model",
    ),
    "design-invalid-json": ("simulate", ROW1, [], "{not json", "design"),
    # deeper than the JSON decoder's recursion limit
    "design-nested-too-deep": ("simulate", ROW1, [], "[" * 100_000 + "]" * 100_000, "design"),
    "design-list": ("simulate", ROW1, [], "[1, 2]", "design"),
    "design-fractions-half": (
        "simulate", ROW1, [],
        json.dumps(edited(SAVED_DESIGN, 0.0, "design", "fractions", "101")), "design",
    ),
    "design-negative-fraction": (
        "simulate", ROW1, [],
        json.dumps(edited(SAVED_DESIGN, -0.5, "design", "fractions", "001")), "design",
    ),
    "design-zero-budget": (
        "simulate", ROW1, [], json.dumps(edited(SAVED_DESIGN, 0, "design", "budget")),
        "design.budget",
    ),
    # a budget that buys no participant leaves simulate nothing to sample
    "simulate-budget-buys-nobody": (
        "simulate", edited(ROW1, 100, "budget"), ["--replications", "8"], None, "budget",
    ),
    "design-budget-buys-nobody": (
        "simulate", ROW1, [], json.dumps(edited(SAVED_DESIGN, 50, "design", "budget")),
        "design.budget",
    ),
    # from 2**53 relaxed participants on, integer counts are not exact
    "c-optimal-budget-beyond-exact-counts": (
        "c-optimal", edited(ROW1, 1e22, "budget"), [], None, "budget",
    ),
    "worst-case-budget-beyond-exact-counts": (
        "worst-case", edited(tiny_box_config(), 1e22, "budget"), [], None, "budget",
    ),
    "strata-budget-beyond-exact-counts": (
        "strata", edited(STRATA, 1e22, "budget"), [], None, "budget",
    ),
    "moe-beyond-exact-counts": ("budget", ROW1, ["--moe", "1e-10"], None, "options.moe"),
    # moe * moe underflows to 0: no finite budget meets the margin
    "moe-squared-underflows-1e-170": ("budget", ROW1, ["--moe", "1e-170"], None, "options.moe"),
    "moe-squared-underflows-1e-300": ("budget", ROW1, ["--moe", "1e-300"], None, "options.moe"),
    "design-budget-beyond-exact-counts": (
        "simulate", ROW1, [], json.dumps(edited(SAVED_DESIGN, 1e22, "design", "budget")),
        "design.budget",
    ),
    # objective / budget overflows: a variance of Infinity is not JSON
    "c-optimal-budget-variance-overflows": (
        "c-optimal", edited(ROW1, 1e-310, "budget"), [], None, "budget",
    ),
    "worst-case-budget-variance-overflows": (
        "worst-case", edited(tiny_box_config(), 1e-310, "budget"), [], None, "budget",
    ),
    "strata-budget-variance-overflows": (
        "strata", edited(STRATA, 1e-310, "budget"), [], None, "budget",
    ),
    # the antibody test alone does not identify p: its variance is unbounded
    "design-not-identifying": (
        "simulate", ROW1, [], json.dumps({"design": {"budget": 1e7, "fractions": {"001": 1.0}}}),
        "design",
    ),
}

# A grid step whose lattice over a box is too large to build: from a flag
# and from the file, for every subcommand that grids a box.
for _subcommand, _doc in (
    ("worst-case", tiny_box_config()),
    ("strata", STRATA),
    ("check-assumptions", tiny_box_config()),
):
    for _step in (1e-9, 1e-300):
        MALFORMED[f"{_subcommand}-grid-step-flag-{_step:g}"] = (
            _subcommand, _doc, ["--grid-step", f"{_step:g}"], None, "options.grid_step",
        )
        MALFORMED[f"{_subcommand}-grid-step-file-{_step:g}"] = (
            _subcommand, edited(_doc, _step, "options", "grid_step"), [], None, "options.grid_step",
        )

# Subcommand flags that make every fixture run: a margin for budget, and
# the fewest replications simulate accepts.
FLAGS = {"budget": ["--moe", "0.01"], "simulate": ["--replications", "8"]}


# Prints the peak address space, in bytes, of a process that has run a
# small worst-case request.
FOOTPRINT = """
import contextlib, io, sys
from serodesign.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    main(["worst-case", "--config", sys.argv[1], "--grid-step", "0.05"])
with open("/proc/self/status") as status:
    print(next(int(line.split()[1]) * 1024 for line in status if line.startswith("VmPeak:")))
"""


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


class TestMain:
    @pytest.mark.parametrize("case", list(MALFORMED))
    def test_malformed_input_exit_one(self, capsys, tmp_path, case):
        subcommand, doc, flags, design, path = MALFORMED[case]
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        argv = [subcommand, "--config", str(config), *flags]
        if design is not None:
            (tmp_path / "design.json").write_text(design)
            argv += ["--design", str(tmp_path / "design.json"), "--replications", "8"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and "Traceback" not in err

    @pytest.mark.parametrize(
        "subcommand, name",
        [
            (subcommand, name)
            for name in [f"table1_row{row}" for row in range(1, 6)] + ["strata"]
            for subcommand, kinds in _SCENARIO_FOR.items()
            if (STRATA if name == "strata" else fixture_doc(name))["scenario"].keys() <= set(kinds)
        ],
    )
    def test_every_subcommand_prints_strict_json(self, capsys, tmp_path, subcommand, name):
        path = fixture_path(name)
        if name == "strata":
            path = tmp_path / "strata.json"
            path.write_text(json.dumps(STRATA))
        assert main([subcommand, "--config", str(path), *FLAGS.get(subcommand, [])]) == 0
        report = json.loads(capsys.readouterr().out, parse_constant=_no_constant)
        assert report["command"] == subcommand

    def test_success_exit_zero(self, capsys, tmp_path):
        path = tmp_path / "row1.json"
        path.write_text(json.dumps(ROW1))
        code = main(["c-optimal", "--config", str(path)])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["design"]["integer_counts"]["101"] == pytest.approx(13125, abs=2)

    def test_table_output(self, capsys, tmp_path):
        path = tmp_path / "row1.json"
        path.write_text(json.dumps(ROW1))
        code = main(["c-optimal", "--config", str(path), "--output", "table"])
        assert code == 0
        out = capsys.readouterr().out
        assert "pattern" in out and "101" in out and "fraction" in out

    def test_table_prints_money_exactly_and_nested_values_as_json(self):
        config = load_config(fixture_path("table1_row1"))
        table = render_table(run(replace(config, budget=12345678.0), "c-optimal"))
        assert "realized cost of integer design: 12345450 Rs" in table.splitlines()
        reports = [
            run(parse_config(tiny_box_config()), "worst-case"),  # box, p_star
            run(parse_config(tiny_box_config()), "check-assumptions"),  # a2
            run(load_config(fixture_path("table1_row1")), "check-assumptions"),  # a1
            run(parse_config(STRATA), "check-assumptions"),  # checks
        ]
        for report in reports:
            nested = {
                key: value
                for key, value in report.items()
                if isinstance(value, (dict, list)) and key not in ("design", "allocations")
            }
            printed = {}
            for line in render_table(report).splitlines():
                key, _, text = line.partition(": ")
                if key in nested:
                    printed[key] = text
            assert printed.keys() == nested.keys()
            for key, text in printed.items():
                assert json.loads(text) == nested[key] and text == json.dumps(nested[key])

    @pytest.mark.parametrize("subcommand, name", [("groups", "table1_row5"), ("strata", "strata")])
    def test_table_output_of_allocations(self, capsys, tmp_path, subcommand, name):
        path = fixture_path(name)
        if name == "strata":
            path = tmp_path / "strata.json"
            path.write_text(json.dumps(STRATA))
        assert main([subcommand, "--config", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert main([subcommand, "--config", str(path), "--output", "table"]) == 0
        blocks = capsys.readouterr().out.rstrip("\n").split("\n\n")[1:]
        assert len(blocks) == len(report["allocations"]) >= 2
        for entry, block in zip(report["allocations"], blocks):
            head, _, *rows, realized = block.splitlines()
            assert head.startswith(f"stratum {entry['name']}: fraction ")
            counts = entry["report"]["design"]["integer_counts"]
            assert {row.split()[0]: int(row.split()[3]) for row in rows} == counts
            assert any(counts.values())
            assert realized.startswith("realized cost of integer design: ")

    def test_out_of_memory_exit_two(self):
        # Row4's worst case at grid step 0.002 (156,981 points) needs a 75 MB
        # information stack.  Under an address-space cap 16 MB above the
        # footprint of a small request, that array cannot be allocated, and
        # the run ends in a solver error instead of a traceback.
        resource = pytest.importorskip("resource")
        if not hasattr(resource, "RLIMIT_AS") or not os.path.exists("/proc/self/status"):
            pytest.skip("needs RLIMIT_AS and /proc/self/status")
        hard = resource.getrlimit(resource.RLIMIT_AS)[1]
        src = os.path.dirname(os.path.dirname(serodesign.__file__))
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
        row4 = fixture_path("table1_row4")
        footprint = subprocess.run(
            [sys.executable, "-c", FOOTPRINT, row4],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        cap = int(footprint.stdout) + 16 * 2**20
        if hard != resource.RLIM_INFINITY and hard < cap:
            pytest.skip("the hard address-space limit is below the cap")
        done = subprocess.run(
            [sys.executable, "-m", "serodesign", "worst-case", "--config", row4,
             "--grid-step", "0.002"],
            env=env, capture_output=True, text=True, timeout=120,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, hard)),
        )
        assert done.returncode == 2, done.stderr
        assert done.stderr.startswith("solver error: out of memory: ")
        assert "Traceback" not in done.stderr

    def test_validation_error_exit_one(self, capsys, tmp_path):
        bad = copy.deepcopy(ROW1)
        bad["model"]["tests"][0]["sensitivity"] = 1.5
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        code = main(["c-optimal", "--config", str(path)])
        assert code == 1
        assert "sensitivity" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, message",
        [
            (b"\x89PNG\r\n\x1a\n\x00\xff\xfe", "<config>: not valid JSON: "),
            (b"[1, 2, 3]", "<config>: configuration must be an object"),
            (b"[" * 100_000 + b"]" * 100_000, "<config>: not valid JSON: "),
            (
                json.dumps({key: ROW1[key] for key in ("scenario", "budget")}).encode(),
                "model: missing required field",
            ),
        ],
        ids=["binary", "top-level-array", "nested-too-deep", "missing-top-level-key"],
    )
    def test_document_root_errors_exit_one(self, capsys, tmp_path, text, message):
        config = tmp_path / "config.json"
        config.write_bytes(text)
        assert main(["c-optimal", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and "Traceback" not in err

    def test_missing_file_exit_one(self, capsys, tmp_path):
        code = main(["c-optimal", "--config", str(tmp_path / "nope.json")])
        assert code == 1

    def test_solver_failure_exit_two(self, capsys, tmp_path):
        doc = copy.deepcopy(ROW1)
        for test in doc["model"]["tests"]:
            test["sensitivity"] = 0.5
            test["specificity"] = 0.5
        path = tmp_path / "flat.json"
        path.write_text(json.dumps(doc))
        code = main(["c-optimal", "--config", str(path)])
        assert code == 2
        assert "solver error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["c-optimal"], ["budget", "--moe", "0.01"], ["simulate"]])
    def test_singular_barrier_hessian_exit_two(self, capsys, tmp_path, argv):
        path = tmp_path / "near_coin.json"
        path.write_text(json.dumps(SINGULAR_HESSIAN_CONFIG))
        assert main([*argv, "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith(
            "solver error: singular barrier Hessian at Newton step "
        )

    def test_singular_end_point_exit_two(self, capsys, tmp_path):
        doc = {
            "model": {
                "tests": [
                    {"id": f"t{j}", "cost": 100 + 50 * j, "sensitivity": 0.9, "specificity": 0.95}
                    for j in range(7)
                ],
                "nominal": [
                    [int(c) for c in row]
                    for row in ("1000101", "0100110", "0010011", "0001111", "0000000")
                ],
            },
            "scenario": {"point": [0.1, 0.1, 0.1, 0.1]},
            "budget": 1e6,
        }
        path = tmp_path / "seven.json"
        path.write_text(json.dumps(doc))
        code = main(["c-optimal", "--config", str(path)])
        assert code == 2
        assert "solver error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["worst-case", "--config", fixture_path("table1_row4"), "--grid-step", "0"],
            ["worst-case", "--config", fixture_path("table1_row4"), "--grid-step", "-0.1"],
            ["budget", "--config", fixture_path("table1_row1"), "--moe", "0.01", "--alpha", "1.5"],
            ["budget", "--config", fixture_path("table1_row1"), "--moe", "0"],
            ["simulate", "--config", fixture_path("table1_row1"), "--replications", "0"],
            ["simulate", "--config", fixture_path("table1_row1"), "--replications", "1"],
            ["simulate", "--config", fixture_path("table1_row1"), "--replications", "5"],
        ],
    )
    def test_invalid_flag_exit_one(self, capsys, argv):
        # flags override the file's options and pass the same checks
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: options.") and "Traceback" not in err

    def test_mle_step_cap_exits_two(self, capsys, monkeypatch):
        monkeypatch.setattr(simulate, "MLE_MAX_STEPS", 0)
        argv = ["simulate", "--config", fixture_path("table1_row1"), "--replications", "8"]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("solver error: MLE did not converge")

    def test_replications_minimum_in_config(self):
        doc = copy.deepcopy(ROW1)
        doc["options"]["replications"] = 7
        with pytest.raises(ConfigError, match="options.replications"):
            parse_config(doc)
        doc["options"]["replications"] = 8
        assert parse_config(doc).options.replications == 8

    def test_simulate_with_design_file(self, capsys, tmp_path):
        config_path = tmp_path / "row1.json"
        config_path.write_text(json.dumps(ROW1))
        assert main(["c-optimal", "--config", str(config_path)]) == 0
        design_path = tmp_path / "design.json"
        design_path.write_text(capsys.readouterr().out)
        code = main(
            [
                "simulate",
                "--config", str(config_path),
                "--design", str(design_path),
                "--replications", "20",
                "--seed", "2",
            ]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["replications"] == 20
        assert report["predicted_variance"] > 0

    def test_design_file_at_tiny_costs(self, capsys, tmp_path):
        config_path = tmp_path / "tiny.json"
        config_path.write_text(json.dumps(scaled(ROW1, 1e-19)))
        assert main(["c-optimal", "--config", str(config_path)]) == 0
        design_path = tmp_path / "design.json"
        design_path.write_text(capsys.readouterr().out)
        argv = ["simulate", "--config", str(config_path), "--design", str(design_path)]
        assert main([*argv, "--replications", "8"]) == 0
        assert json.loads(capsys.readouterr().out)["budget"] == ROW1["budget"] * 1e-19

    def test_design_file_with_an_unknown_pattern(self, capsys, tmp_path):
        config_path = tmp_path / "row1.json"
        config_path.write_text(json.dumps(ROW1))
        design_path = tmp_path / "design.json"
        design_path.write_text(json.dumps({"fractions": {"101": 0.5, "1111": 0.5}}))
        argv = ["simulate", "--config", str(config_path), "--design", str(design_path)]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: design.fractions.1111: unknown pattern label\n"

    @pytest.mark.parametrize(
        "subcommand, name, flags",
        [
            ("budget", "table1_row1", ["--moe", "0.01"]),
            ("groups", "table1_row5", []),
            ("strata", "strata_three_districts", []),
        ],
    )
    def test_tiny_costs_solve_at_the_real_budget(self, capsys, tmp_path, subcommand, name, flags):
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(scaled(fixture_doc(name), 1e-19)))
        assert main([subcommand, "--config", str(path), *flags]) == 0
        tiny = json.loads(capsys.readouterr().out)
        assert main([subcommand, "--config", fixture_path(name), *flags]) == 0
        full = json.loads(capsys.readouterr().out)

        def designs(report):
            if "allocations" in report:
                return [entry["report"]["design"] for entry in report["allocations"]]
            return [report["design"]]

        for small, design in zip(designs(tiny), designs(full), strict=True):
            assert small["integer_counts"] == design["integer_counts"]
            assert small["fractions"] == pytest.approx(design["fractions"], abs=1e-12)

    def test_consecutive_calls_share_no_values(self, capsys):
        # the parser is built once per process; every call parses afresh
        row1 = fixture_path("table1_row1")
        assert main(["budget", "--config", row1, "--moe", "0.01", "--alpha", "0.1"]) == 0
        assert json.loads(capsys.readouterr().out)["alpha"] == 0.1
        assert main(["budget", "--config", row1]) == 1
        assert capsys.readouterr().err.startswith("error: options.moe: ")
        argv = ["simulate", "--config", row1, "--seed", "3", "--replications", "8"]
        assert main([*argv, "--output", "table"]) == 0
        assert "replications: 8" in capsys.readouterr().out
        assert main(["c-optimal", "--config", row1]) == 0
        assert json.loads(capsys.readouterr().out)["command"] == "c-optimal"
        assert main(["simulate", "--config", row1]) == 0
        report = json.loads(capsys.readouterr().out)
        assert (report["seed"], report["replications"]) == (0, 200)

    def test_simulate_at_a_point_summing_just_above_one(self, capsys, tmp_path):
        # the point passes validation (sum <= 1 + 1e-9), so sampling must take it
        path = tmp_path / "edge.json"
        path.write_text(json.dumps(edited(ROW1, [0.5, 0.5 + 5e-10, 0.0], "scenario", "point")))
        assert main(["simulate", "--config", str(path), "--replications", "8"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["replications"] == 8 and report["parameter"][1] == 0.5 + 5e-10

    def test_render_table_matches_machine_report(self):
        config = load_config(fixture_path("table1_row1"))
        report = run(config, "c-optimal")
        table = render_table(report)
        for label, count in report["design"]["integer_counts"].items():
            if count > 0:
                assert str(count) in table
