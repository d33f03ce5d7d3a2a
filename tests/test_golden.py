"""Golden CLI reports: each run's JSON report against a file in tests/golden.

Keys, strings, integers (counts, iterations), booleans, supports and
``p_star`` must match exactly.  Other floats match within 1e-12 relative,
not bytewise, because BLAS kernels differ between machines; a
``kkt_residual`` is roundoff of a certified solve, so its tolerance has an
absolute floor of 1e-12 times the report's criterion value.

Regenerate the files (only when a change of output is intended) with::

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import math
import os
import sys

import pytest

from serodesign.cli import fixture_path, main

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
REL_TOL = 1e-12

# Golden file name -> (subcommand, fixture, flags).
RUNS = {
    "c-optimal_row1": ("c-optimal", "table1_row1", []),
    "c-optimal_row2": ("c-optimal", "table1_row2", []),
    "c-optimal_row3": ("c-optimal", "table1_row3", []),
    "budget_row1_moe0.01": ("budget", "table1_row1", ["--moe", "0.01"]),
    "worst-case_row4_step0.01": ("worst-case", "table1_row4", ["--grid-step", "0.01"]),
    "worst-case_row4_step0.02": ("worst-case", "table1_row4", ["--grid-step", "0.02"]),
    "groups_row5": ("groups", "table1_row5", []),
    "strata_three_districts": ("strata", "strata_three_districts", []),
    "check-assumptions_row1": ("check-assumptions", "table1_row1", []),
    "check-assumptions_row4": ("check-assumptions", "table1_row4", []),
    "check-assumptions_row5": ("check-assumptions", "table1_row5", []),
    "simulate_row1_r50_seed0": (
        "simulate", "table1_row1", ["--replications", "50", "--seed", "0"],
    ),
}

EXACT_KEYS = {"p_star", "iterations"}


def _argv(name):
    subcommand, fixture, flags = RUNS[name]
    return [subcommand, "--config", fixture_path(fixture), *flags]


def _golden_path(name):
    return os.path.join(GOLDEN_DIR, f"{name}.json")


def assert_matches(actual, expected, path="report", scale=0.0):
    """``actual`` equals ``expected`` by the rules of this module."""
    assert type(actual) is type(expected), f"{path}: {actual!r} != {expected!r}"
    if isinstance(expected, dict):
        assert list(actual) == list(expected), path
        scale = abs(expected.get("objective", expected.get("game_value", scale)))
        for key, value in expected.items():
            here = f"{path}.{key}"
            if key in EXACT_KEYS:
                assert actual[key] == value, here
            elif key == "fractions":
                support = {label for label, v in value.items() if v > 0}
                assert {label for label, v in actual[key].items() if v > 0} == support, here
            if key == "kkt_residual":
                assert math.isclose(
                    actual[key], value, rel_tol=REL_TOL, abs_tol=REL_TOL * scale
                ), f"{here}: {actual[key]!r} != {value!r}"
            else:
                assert_matches(actual[key], value, here, scale)
    elif isinstance(expected, list):
        assert len(actual) == len(expected), path
        for i, (a, e) in enumerate(zip(actual, expected)):
            assert_matches(a, e, f"{path}[{i}]", scale)
    elif isinstance(expected, float):
        assert math.isclose(actual, expected, rel_tol=REL_TOL), f"{path}: {actual!r} != {expected!r}"
    else:
        assert actual == expected, path


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("name", list(RUNS))
def test_report_matches_golden(capsys, name):
    assert main(_argv(name)) == 0
    # strict JSON: NaN and Infinity are rejected
    actual = json.loads(capsys.readouterr().out, parse_constant=_no_constant)
    with open(_golden_path(name), encoding="utf-8") as handle:
        expected = json.load(handle)
    assert_matches(actual, expected)


def test_comparison_rejects_a_changed_float():
    assert_matches({"a": [1.0, 2]}, {"a": [1.0 + 1e-13, 2]})
    with pytest.raises(AssertionError):
        assert_matches({"a": [1.0 + 1e-11, 2]}, {"a": [1.0, 2]})
    with pytest.raises(AssertionError):
        assert_matches({"p_star": [0.1 + 1e-16]}, {"p_star": [0.1]})
    with pytest.raises(AssertionError):
        assert_matches({"a": 1}, {"a": 1.0})


if __name__ == "__main__":
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for name in RUNS:
        with open(_golden_path(name), "w", encoding="utf-8") as handle:
            sys.stdout = handle
            try:
                code = main(_argv(name))
            finally:
                sys.stdout = sys.__stdout__
        assert code == 0, name
        print(f"wrote {_golden_path(name)}")
