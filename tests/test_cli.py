"""Command-line interface tests: configuration validation with path-named
errors, subcommand dispatch, report stability, and exit codes."""

import copy
import json

import numpy as np
import pytest

from serodesign import budget_for_margin, coptimal, solve_c_optimal
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
        assert np.allclose(config.point, [0.10, 0.30, 0.01])
        assert config.budget == 1e7
        assert config.options.currency == "Rs"

    def test_all_fixtures_parse(self):
        for name in ("table1_row1", "table1_row2", "table1_row3", "table1_row4", "table1_row5"):
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

    def test_round_trip_identity(self):
        configs = [load_config(fixture_path(f"table1_row{row}")) for row in (1, 4, 5)]
        for config in configs + [parse_config(STRATA)]:
            again = parse_config(config.to_dict())
            assert again.to_dict() == config.to_dict()


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
        report = run(config, "budget", moe=0.01, alpha=0.05)
        z, required = report["z"], report["required_budget"]
        assert z == pytest.approx(1.959963984540054, abs=1e-9)
        assert z * np.sqrt(report["objective"] / required) == pytest.approx(0.01, rel=1e-9)

    @pytest.mark.parametrize(
        "row, moe, alpha", [(1, 0.01, 0.05), (2, 0.004, 0.1), (3, 0.02, 0.01)]
    )
    def test_budget_solves_once(self, monkeypatch, row, moe, alpha):
        # the report of the two-solve path: a solve at budget 1 inside
        # budget_for_margin, then a solve at the required budget
        config = load_config(fixture_path(f"table1_row{row}"))
        required = budget_for_margin(config.point, config.model, moe, alpha)
        two_solves = solve_c_optimal(config.point, config.model, budget=required)
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return _solve_simplex(*args, **kwargs)

        monkeypatch.setattr(coptimal, "_solve_simplex", counted)
        report = run(config, "budget", moe=moe, alpha=alpha)
        assert len(calls) == 1
        assert report["required_budget"] == required
        body = {key: report[key] for key in two_solves.to_dict()}
        assert json.dumps(body) == json.dumps(two_solves.to_dict())

    def test_simulate_subcommand(self):
        config = load_config(fixture_path("table1_row1"))
        report = run(config, "simulate", replications=50, seed=1)
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

    def test_reports_byte_identical(self):
        config = load_config(fixture_path("table1_row1"))
        a = json.dumps(run(config, "c-optimal"), indent=2)
        b = json.dumps(run(load_config(fixture_path("table1_row1")), "c-optimal"), indent=2)
        assert a == b

    def test_simulate_reports_reproducible(self):
        config = load_config(fixture_path("table1_row1"))
        a = json.dumps(run(config, "simulate", replications=20, seed=5))
        b = json.dumps(run(config, "simulate", replications=20, seed=5))
        assert a == b


ROW5 = fixture_doc("table1_row5")
SAVED_DESIGN = {"design": {"fractions": {"001": 0.5, "101": 0.5}, "budget": 1e7}}

# (subcommand, configuration, flags, --design file text or None, path in the error)
MALFORMED = {
    "override-range-groups": (
        "groups", edited(ROW5, 1.5, "scenario", "groups", 0, "overrides", "rat", "sensitivity"),
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
        "simulate", ROW1, [], json.dumps(edited(SAVED_DESIGN, 0, "design", "budget")), "design",
    ),
}

# Subcommand flags that make every fixture run: a margin for budget, and
# the fewest replications simulate accepts.
FLAGS = {"budget": ["--moe", "0.01"], "simulate": ["--replications", "8"]}


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
            (
                json.dumps({key: ROW1[key] for key in ("scenario", "budget")}).encode(),
                "model: missing required field",
            ),
        ],
        ids=["binary", "top-level-array", "missing-top-level-key"],
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

    def test_render_table_matches_machine_report(self):
        config = load_config(fixture_path("table1_row1"))
        report = run(config, "c-optimal")
        table = render_table(report)
        for label, count in report["design"]["integer_counts"].items():
            if count > 0:
                assert str(count) in table
