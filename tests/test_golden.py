"""Golden CLI reports: each run's JSON report against a file in tests/golden.

Keys, strings, integers (counts, iterations), booleans, supports and
``p_star`` must match exactly.  Other floats match within 1e-12 relative,
not bytewise, because BLAS kernels differ between machines; a
``kkt_residual`` is roundoff of a certified solve, so its tolerance has an
absolute floor of 1e-12 times the report's criterion value.

Regenerate the files (only when a change of output is intended) with::

    PYTHONPATH=src python tests/test_golden.py

Regeneration keeps every committed value that still matches by these
rules, so it rewrites only values that changed beyond them, and prints
each one it rewrites as ``path: old -> new``.
"""

import contextlib
import io
import json
import math
import os

import pytest

from serodesign.cli import fixture_path, main
from serodesign.coptimal import CERTIFICATE_TOL

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


def _matches(actual, expected, scale=0.0):
    try:
        assert_matches(actual, expected, scale=scale)
    except AssertionError:
        return False
    return True


def merged(actual, expected, scale=0.0):
    """``actual`` with each value that matches ``expected`` by the rules of
    assert_matches put back to the expected one."""
    if _matches(actual, expected, scale):
        return expected
    if isinstance(expected, list) and isinstance(actual, list) and len(actual) == len(expected):
        return [merged(a, e, scale) for a, e in zip(actual, expected)]
    if not (isinstance(expected, dict) and isinstance(actual, dict) and list(actual) == list(expected)):
        return actual
    scale = abs(expected.get("objective", expected.get("game_value", scale)))
    return {
        # the rules that depend on the key judge the value whole
        key: (value if _matches({key: actual[key]}, {key: value}, scale) else actual[key])
        if key in EXACT_KEYS or key == "kkt_residual"
        else merged(actual[key], value, scale)
        for key, value in expected.items()
    }


def changes(actual, expected, path="report"):
    """(path, old, new) for each value of ``expected`` that ``actual``
    replaces; a value whose keys or length change is replaced whole."""
    if isinstance(expected, dict) and isinstance(actual, dict) and list(actual) == list(expected):
        for key, value in expected.items():
            yield from changes(actual[key], value, f"{path}.{key}")
    elif isinstance(expected, list) and isinstance(actual, list) and len(actual) == len(expected):
        for i, (a, e) in enumerate(zip(actual, expected)):
            yield from changes(a, e, f"{path}[{i}]")
    elif type(actual) is not type(expected) or actual != expected:
        yield path, expected, actual


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


def solve_reports(doc):
    """Every c-optimal solve report nested in a CLI report: each dict with
    an objective.  (A worst-case game's kkt_residual is that of its design
    at p*, which need not be c-optimal there.)"""
    if isinstance(doc, list):
        for item in doc:
            yield from solve_reports(item)
    elif isinstance(doc, dict):
        if "objective" in doc:
            yield doc
        for value in doc.values():
            yield from solve_reports(value)


@pytest.mark.parametrize("name", list(RUNS))
def test_report_matches_golden(capsys, name):
    assert main(_argv(name)) == 0
    # strict JSON: NaN and Infinity are rejected
    actual = json.loads(capsys.readouterr().out, parse_constant=_no_constant)
    with open(_golden_path(name), encoding="utf-8") as handle:
        text = handle.read()
    expected = json.loads(text)
    assert_matches(actual, expected)
    # so regeneration, which writes back the committed values that match,
    # leaves the file byte for byte as it is
    assert json.dumps(expected, indent=2, allow_nan=False) + "\n" == text
    # a returned c-optimal design is certified within CERTIFICATE_TOL
    for doc in solve_reports(actual):
        assert doc["kkt_residual"] <= CERTIFICATE_TOL * doc["objective"]


def test_comparison_rejects_a_changed_float():
    assert_matches({"a": [1.0, 2]}, {"a": [1.0 + 1e-13, 2]})
    with pytest.raises(AssertionError):
        assert_matches({"a": [1.0 + 1e-11, 2]}, {"a": [1.0, 2]})
    with pytest.raises(AssertionError):
        assert_matches({"p_star": [0.1 + 1e-16]}, {"p_star": [0.1]})
    with pytest.raises(AssertionError):
        assert_matches({"a": 1}, {"a": 1.0})


def test_regeneration_keeps_values_within_tolerance():
    expected = {
        "objective": 2.0,
        "kkt_residual": 1e-13,
        "iterations": 5,
        "p_star": [0.1],
        "x": [1.0, 2.0],
        "fractions": {"a": 0.5, "b": 0.5},
    }
    actual = {
        "objective": 2.0 + 2e-12,  # beyond 1e-12 relative
        "kkt_residual": 2e-12,  # within the floor of 1e-12 times the objective
        "iterations": 5,
        "p_star": [0.1 + 1e-16],  # compared exactly
        "x": [1.0 + 1e-13, 2.0 + 1e-9],
        "fractions": {"a": 1.0, "b": 0.0},  # a support change
    }
    assert merged(actual, expected) == {
        "objective": 2.0 + 2e-12,
        "kkt_residual": 1e-13,
        "iterations": 5,
        "p_star": [0.1 + 1e-16],
        "x": [1.0, 2.0 + 1e-9],
        "fractions": {"a": 1.0, "b": 0.0},
    }
    assert merged(actual, actual) is actual
    assert merged({"a": [1.0]}, {"b": [1.0]}) == {"a": [1.0]}
    assert merged({"a": [1.0, 2.0]}, {"a": [1.0]}) == {"a": [1.0, 2.0]}


def test_changes_name_each_rewritten_value():
    expected = {"iterations": 12, "x": [1.0, 2.0], "d": {"a": 1}, "n": 1}
    actual = {"iterations": 11, "x": [1.0, 2.5], "d": {"b": 1}, "n": 1.0}
    assert list(changes(actual, expected)) == [
        ("report.iterations", 12, 11),
        ("report.x[1]", 2.0, 2.5),
        ("report.d", {"a": 1}, {"b": 1}),
        ("report.n", 1, 1.0),
    ]
    assert list(changes(expected, expected)) == []


if __name__ == "__main__":
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for name in RUNS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(_argv(name))
        assert code == 0, name
        report = json.loads(out.getvalue(), parse_constant=_no_constant)
        path = _golden_path(name)
        rewritten = [("report", None, "new file")]
        if os.path.exists(path):
            with open(path, encoding="utf-8") as handle:
                committed = json.load(handle)
            report = merged(report, committed)
            rewritten = list(changes(report, committed))
        with open(path, "w", encoding="utf-8") as handle:
            print(json.dumps(report, indent=2, allow_nan=False), file=handle)
        print(f"wrote {path}")
        for where, old, new in rewritten:
            print(f"  {where}: {old!r} -> {new!r}")
