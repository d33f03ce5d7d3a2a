"""Command-line interface: JSON configuration in, design reports out.

One configuration file drives every subcommand::

    {
      "model": {
        "tests": [
          {"id": "rat",      "cost": 450,  "sensitivity": 0.5,   "specificity": 0.975},
          {"id": "rtpcr",    "cost": 1600, "sensitivity": 0.95,  "specificity": 0.97},
          {"id": "antibody", "cost": 300,  "sensitivity": 0.921, "specificity": 0.977}
        ],
        "nominal": [[1,1,0],[0,0,1],[1,1,1],[0,0,0]],   # rows: states, last = reference
        "u": [1, 1, 1]                                   # optional, default all-ones
      },
      "scenario": <exactly one of>
          {"point": [0.10, 0.30, 0.01]}
        | {"box": {"lower": [0.01, 0.10, 0.0], "upper": [0.15, 0.50, 0.02]}}
        | {"strata": [{"name": "...", "fraction": 0.5, "point": [...] | "box": {...}}, ...]}
        | {"groups": [{"name": "...", "fraction": 0.1, "point": [...],
                       "overrides": {"rat": {"sensitivity": 0.68}}}, ...]},
      "budget": 1e7,
      "options": {            # all optional
        "grid_step": 0.01, "alpha": 0.05, "moe": null,
        "seed": 0, "replications": 200, "currency": "units"
      }
    }

Subcommands: ``c-optimal`` (point), ``worst-case`` (box), ``strata``,
``groups``, ``budget`` (point + margin of error), ``simulate`` (point),
and ``check-assumptions`` (any scenario).  ``--output table`` renders the
same machine report as an aligned text table; it is never a separate
computation path.  Exit status: 0 on success, 1 on configuration or
validation errors, 2 on solver failures.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field, replace
from importlib import resources

import numpy as np

from .allocation import GroupSpec, StratumSpec, allocate_districts, allocate_groups
from .coptimal import (
    ConvergenceError,
    InfeasibleDesignError,
    budget_for_margin,
    normal_quantile,
    solve_c_optimal,
)
from .minimax import worst_case_design
from .model import (
    DiseaseModel,
    ParameterBox,
    TestSpec,
    all_patterns,
    check_a1,
    check_a2,
)
from .simulate import MIN_REPLICATIONS, simulation_report

__all__ = ["ConfigError", "RunConfig", "parse_config", "load_config", "run", "main", "fixture_path"]

SUBCOMMANDS = (
    "c-optimal",
    "worst-case",
    "strata",
    "groups",
    "budget",
    "simulate",
    "check-assumptions",
)

_SCENARIO_FOR = {
    "c-optimal": ("point",),
    "worst-case": ("box",),
    "strata": ("strata",),
    "groups": ("groups",),
    "budget": ("point",),
    "simulate": ("point",),
    "check-assumptions": ("point", "box", "strata", "groups"),
}


class ConfigError(ValueError):
    """A configuration problem, carrying the offending document path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


@dataclass(frozen=True, eq=False)
class Options:
    grid_step: float = 0.01
    alpha: float = 0.05
    moe: float | None = None
    seed: int = 0
    replications: int = 200
    currency: str = "units"


@dataclass(frozen=True, eq=False)
class RunConfig:
    """A validated run: model, one scenario, budget, options."""

    model: DiseaseModel
    scenario_kind: str  # point | box | strata | groups
    budget: float
    options: Options = field(default_factory=Options)
    point: np.ndarray | None = None
    box: ParameterBox | None = None
    strata: tuple[StratumSpec, ...] | None = None
    groups: tuple[GroupSpec, ...] | None = None

    def to_dict(self) -> dict:
        model = {
            "tests": [
                {
                    "id": t.id,
                    "cost": t.cost,
                    "sensitivity": t.sensitivity,
                    "specificity": t.specificity,
                }
                for t in self.model.tests
            ],
            "nominal": [[int(x) for x in row] for row in self.model.nominal],
            "u": [float(x) for x in self.model.u],
        }
        if self.scenario_kind == "point":
            scenario = {"point": [float(x) for x in self.point]}
        elif self.scenario_kind == "box":
            scenario = {
                "box": {
                    "lower": [float(x) for x in self.box.lower],
                    "upper": [float(x) for x in self.box.upper],
                }
            }
        elif self.scenario_kind == "strata":
            scenario = {"strata": [_stratum_dict(s) for s in self.strata]}
        else:
            scenario = {
                "groups": [
                    {
                        "name": g.name,
                        "fraction": g.fraction,
                        "point": [float(x) for x in g.point],
                        "overrides": g.overrides,
                    }
                    for g in self.groups
                ]
            }
        options = {
            "grid_step": self.options.grid_step,
            "alpha": self.options.alpha,
            "moe": self.options.moe,
            "seed": self.options.seed,
            "replications": self.options.replications,
            "currency": self.options.currency,
        }
        return {"model": model, "scenario": scenario, "budget": self.budget, "options": options}


def _stratum_dict(s: StratumSpec) -> dict:
    out = {"name": s.name, "fraction": s.fraction}
    if s.point is not None:
        out["point"] = [float(x) for x in s.point]
    else:
        out["box"] = {
            "lower": [float(x) for x in s.box.lower],
            "upper": [float(x) for x in s.box.upper],
        }
    return out


# ---------------------------------------------------------------------------
# Parsing and validation
# ---------------------------------------------------------------------------


def _require(doc: dict, key: str, path: str):
    if key not in doc:
        raise ConfigError(f"{path}.{key}" if path else key, "missing required field")
    return doc[key]


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, f"expected a number, got {value!r}")
    return float(value)


def _vector(value, path: str) -> list[float]:
    if not isinstance(value, list) or not value:
        raise ConfigError(path, f"expected a nonempty list of numbers, got {value!r}")
    return [_number(x, f"{path}[{i}]") for i, x in enumerate(value)]


def _parse_tests(doc, path: str) -> tuple[TestSpec, ...]:
    if not isinstance(doc, list) or not doc:
        raise ConfigError(path, "expected a nonempty list of tests")
    tests = []
    for i, item in enumerate(doc):
        here = f"{path}[{i}]"
        if not isinstance(item, dict):
            raise ConfigError(here, f"expected a test object, got {item!r}")
        test_id = _require(item, "id", here)
        if not isinstance(test_id, str) or not test_id:
            raise ConfigError(f"{here}.id", "expected a nonempty string")
        try:
            tests.append(
                TestSpec(
                    id=test_id,
                    cost=_number(_require(item, "cost", here), f"{here}.cost"),
                    sensitivity=_number(
                        _require(item, "sensitivity", here), f"{here}.sensitivity"
                    ),
                    specificity=_number(
                        _require(item, "specificity", here), f"{here}.specificity"
                    ),
                )
            )
        except ValueError as err:
            raise ConfigError(here, str(err)) from None
    return tuple(tests)


def _parse_model(doc, path: str = "model") -> DiseaseModel:
    if not isinstance(doc, dict):
        raise ConfigError(path, "expected an object")
    tests = _parse_tests(_require(doc, "tests", path), f"{path}.tests")
    nominal = _require(doc, "nominal", path)
    if not isinstance(nominal, list) or not all(isinstance(r, list) for r in nominal):
        raise ConfigError(f"{path}.nominal", "expected a list of rows")
    u = doc.get("u")
    if u is None:
        u = [1.0] * (len(nominal) - 1)
    else:
        u = _vector(u, f"{path}.u")
    try:
        return DiseaseModel(tests=tests, nominal=np.array(nominal), u=np.array(u))
    except ValueError as err:
        raise ConfigError(path, str(err)) from None


def _parse_point(value, k: int, path: str) -> np.ndarray:
    vec = _vector(value, path)
    if len(vec) != k:
        raise ConfigError(path, f"expected {k} entries, got {len(vec)}")
    p = np.array(vec)
    if (p < 0).any():
        raise ConfigError(path, f"entries must be nonnegative, got {vec}")
    if p.sum() > 1.0 + 1e-9:
        raise ConfigError(path, f"entries must sum to at most 1, got sum {p.sum()}")
    return p


def _parse_box(doc, k: int, path: str) -> ParameterBox:
    if not isinstance(doc, dict):
        raise ConfigError(path, "expected an object with lower and upper")
    lower = _vector(_require(doc, "lower", path), f"{path}.lower")
    upper = _vector(_require(doc, "upper", path), f"{path}.upper")
    if len(lower) != k or len(upper) != k:
        raise ConfigError(path, f"lower and upper must each have {k} entries")
    try:
        return ParameterBox(lower=np.array(lower), upper=np.array(upper))
    except ValueError as err:
        raise ConfigError(path, str(err)) from None


def _parse_overrides(doc, model: DiseaseModel, path: str) -> dict:
    if not isinstance(doc, dict):
        raise ConfigError(path, "expected an object keyed by test id")
    for test_id, entry in doc.items():
        if test_id not in model.test_ids:
            raise ConfigError(f"{path}.{test_id}", f"unknown test id; have {list(model.test_ids)}")
        if not isinstance(entry, dict):
            raise ConfigError(f"{path}.{test_id}", "expected an object")
        for key, value in entry.items():
            if key not in ("sensitivity", "specificity", "cost"):
                raise ConfigError(f"{path}.{test_id}.{key}", "unknown override key")
            _number(value, f"{path}.{test_id}.{key}")
    return doc


def parse_config(doc: dict) -> RunConfig:
    """Validate a parsed configuration document into a RunConfig.

    Errors name the offending path in the document, for example
    ``scenario.strata[1].fraction``.
    """
    if not isinstance(doc, dict):
        raise ConfigError("", "configuration must be an object")
    unknown = set(doc) - {"model", "scenario", "budget", "options"}
    if unknown:
        raise ConfigError(sorted(unknown)[0], "unknown top-level field")
    model = _parse_model(_require(doc, "model", ""))
    k = model.k

    budget = _number(_require(doc, "budget", ""), "budget")
    if budget <= 0:
        raise ConfigError("budget", f"must be positive, got {budget}")

    scenario = _require(doc, "scenario", "")
    if not isinstance(scenario, dict):
        raise ConfigError("scenario", "expected an object")
    kinds = [key for key in ("point", "box", "strata", "groups") if key in scenario]
    if len(kinds) != 1:
        raise ConfigError(
            "scenario", f"expected exactly one of point/box/strata/groups, got {kinds or list(scenario)}"
        )
    kind = kinds[0]
    point = box = None
    strata = groups = None
    if kind == "point":
        point = _parse_point(scenario["point"], k, "scenario.point")
    elif kind == "box":
        box = _parse_box(scenario["box"], k, "scenario.box")
    elif kind == "strata":
        entries = scenario["strata"]
        if not isinstance(entries, list) or not entries:
            raise ConfigError("scenario.strata", "expected a nonempty list")
        parsed = []
        for i, item in enumerate(entries):
            here = f"scenario.strata[{i}]"
            if not isinstance(item, dict):
                raise ConfigError(here, "expected an object")
            name = _require(item, "name", here)
            fraction = _number(_require(item, "fraction", here), f"{here}.fraction")
            has_point = "point" in item
            has_box = "box" in item
            if has_point == has_box:
                raise ConfigError(here, "give exactly one of point or box")
            try:
                parsed.append(
                    StratumSpec(
                        name=name,
                        fraction=fraction,
                        point=_parse_point(item["point"], k, f"{here}.point") if has_point else None,
                        box=_parse_box(item["box"], k, f"{here}.box") if has_box else None,
                    )
                )
            except ValueError as err:
                raise ConfigError(here, str(err)) from None
        total = sum(s.fraction for s in parsed)
        if abs(total - 1.0) > 1e-9:
            raise ConfigError("scenario.strata", f"fractions must sum to 1, got {total}")
        strata = tuple(parsed)
    else:
        entries = scenario["groups"]
        if not isinstance(entries, list) or not entries:
            raise ConfigError("scenario.groups", "expected a nonempty list")
        parsed = []
        for i, item in enumerate(entries):
            here = f"scenario.groups[{i}]"
            if not isinstance(item, dict):
                raise ConfigError(here, "expected an object")
            try:
                parsed.append(
                    GroupSpec(
                        name=_require(item, "name", here),
                        fraction=_number(_require(item, "fraction", here), f"{here}.fraction"),
                        point=_parse_point(_require(item, "point", here), k, f"{here}.point"),
                        overrides=_parse_overrides(
                            item.get("overrides", {}), model, f"{here}.overrides"
                        ),
                    )
                )
            except ValueError as err:
                raise ConfigError(here, str(err)) from None
        total = sum(g.fraction for g in parsed)
        if abs(total - 1.0) > 1e-9:
            raise ConfigError("scenario.groups", f"fractions must sum to 1, got {total}")
        groups = tuple(parsed)

    opts_doc = doc.get("options", {})
    if not isinstance(opts_doc, dict):
        raise ConfigError("options", "expected an object")
    unknown = set(opts_doc) - {"grid_step", "alpha", "moe", "seed", "replications", "currency"}
    if unknown:
        raise ConfigError(f"options.{sorted(unknown)[0]}", "unknown option")
    options = Options(
        grid_step=_number(opts_doc.get("grid_step", 0.01), "options.grid_step"),
        alpha=_number(opts_doc.get("alpha", 0.05), "options.alpha"),
        moe=None if opts_doc.get("moe") is None else _number(opts_doc["moe"], "options.moe"),
        seed=int(_number(opts_doc.get("seed", 0), "options.seed")),
        replications=int(_number(opts_doc.get("replications", 200), "options.replications")),
        currency=str(opts_doc.get("currency", "units")),
    )
    _check_options(options)

    return RunConfig(
        model=model,
        scenario_kind=kind,
        budget=budget,
        options=options,
        point=point,
        box=box,
        strata=strata,
        groups=groups,
    )


def _check_options(options: Options) -> None:
    """Reject option values no subcommand can run with, from a file or a flag."""
    if not 0.0 < options.alpha < 1.0:
        raise ConfigError("options.alpha", f"must lie strictly in (0, 1), got {options.alpha}")
    if not options.grid_step > 0:
        raise ConfigError("options.grid_step", f"must be positive, got {options.grid_step}")
    if options.moe is not None and not options.moe > 0:
        raise ConfigError("options.moe", f"must be positive, got {options.moe}")
    if options.replications < MIN_REPLICATIONS:
        raise ConfigError(
            "options.replications",
            f"need at least {MIN_REPLICATIONS} replications, got {options.replications}",
        )


def load_config(path: str) -> RunConfig:
    with open(path, encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except json.JSONDecodeError as err:
            raise ConfigError("", f"not valid JSON: {err}") from None
    return parse_config(doc)


def fixture_path(name: str) -> str:
    """Path of a packaged configuration fixture, e.g. ``table1_row1``."""
    if not name.endswith(".json"):
        name = f"{name}.json"
    return str(resources.files("serodesign").joinpath("fixtures", name))


# ---------------------------------------------------------------------------
# Running subcommands
# ---------------------------------------------------------------------------


def run(
    config: RunConfig,
    subcommand: str,
    moe: float | None = None,
    alpha: float | None = None,
    grid_step: float | None = None,
    seed: int | None = None,
    replications: int | None = None,
    design_path: str | None = None,
) -> dict:
    """Dispatch one subcommand and return the machine report."""
    if subcommand not in SUBCOMMANDS:
        raise ConfigError("subcommand", f"unknown subcommand {subcommand!r}")
    if config.scenario_kind not in _SCENARIO_FOR[subcommand]:
        raise ConfigError(
            "scenario",
            f"subcommand {subcommand!r} needs a "
            f"{' or '.join(_SCENARIO_FOR[subcommand])} scenario, "
            f"got {config.scenario_kind!r}",
        )
    flags = dict(moe=moe, alpha=alpha, grid_step=grid_step, seed=seed, replications=replications)
    opts = replace(config.options, **{k: v for k, v in flags.items() if v is not None})
    _check_options(opts)
    grid_step, alpha, moe = opts.grid_step, opts.alpha, opts.moe

    header = {"command": subcommand, "currency": opts.currency, "budget": config.budget}

    if subcommand == "c-optimal":
        report = solve_c_optimal(config.point, config.model, budget=config.budget)
        return {**header, "parameter": [float(x) for x in config.point], **report.to_dict()}

    if subcommand == "worst-case":
        report = worst_case_design(
            config.box, config.model, grid_step=grid_step, budget=config.budget
        )
        return {
            **header,
            "box": {
                "lower": [float(x) for x in config.box.lower],
                "upper": [float(x) for x in config.box.upper],
            },
            **report.to_dict(),
        }

    if subcommand == "strata":
        report = allocate_districts(
            config.strata, config.model, config.budget, grid_step=grid_step
        )
        return {**header, **report.to_dict()}

    if subcommand == "groups":
        report = allocate_groups(config.groups, config.model, config.budget)
        return {**header, **report.to_dict()}

    if subcommand == "budget":
        if moe is None:
            raise ConfigError("options.moe", "budget subcommand needs a margin of error")
        required = budget_for_margin(config.point, config.model, moe, alpha)
        solve = solve_c_optimal(config.point, config.model, budget=required)
        return {
            **header,
            "parameter": [float(x) for x in config.point],
            "moe": moe,
            "alpha": alpha,
            "z": abs(normal_quantile(alpha / 2.0)),
            "required_budget": required,
            **solve.to_dict(),
        }

    if subcommand == "simulate":
        patterns = all_patterns(config.model)
        if design_path is not None:
            with open(design_path, encoding="utf-8") as handle:
                saved = json.load(handle)
            design_doc = saved.get("design", saved)
            fraction_map = design_doc.get("fractions")
            if not isinstance(fraction_map, dict):
                raise ConfigError("design.fractions", "design file has no fraction map")
            fractions = np.zeros(len(patterns))
            labels = [t.label for t in patterns]
            for label, value in fraction_map.items():
                if label not in labels:
                    raise ConfigError(f"design.fractions.{label}", "unknown pattern label")
                fractions[labels.index(label)] = _number(value, f"design.fractions.{label}")
            budget = _number(design_doc.get("budget", config.budget), "design.budget")
            v = fractions
        else:
            solve = solve_c_optimal(config.point, config.model, budget=config.budget)
            v, budget = solve.design.fractions, config.budget
        report = simulation_report(
            config.point,
            config.model,
            v,
            budget,
            replications=opts.replications,
            seed=opts.seed,
        )
        return {**header, "parameter": [float(x) for x in config.point], **report}

    # check-assumptions
    patterns = all_patterns(config.model)
    out = {**header, "scenario": config.scenario_kind}
    if config.scenario_kind == "point":
        a1 = check_a1(config.point, patterns, config.model)
        out["a1"] = {"ok": a1.ok, "witness": a1.pattern.label if a1.pattern else None}
    elif config.scenario_kind == "box":
        a2 = check_a2(config.box, patterns, config.model, grid_step=grid_step)
        out["a2"] = {
            "ok": a2.ok,
            "lambda_min": a2.lambda_min,
            "argmin": [float(x) for x in a2.argmin] if a2.argmin is not None else None,
            "witness": a2.pattern.label if a2.pattern else None,
        }
    else:
        entries = config.strata if config.scenario_kind == "strata" else config.groups
        checks = []
        for entry in entries:
            model = config.model
            if config.scenario_kind == "groups" and entry.overrides:
                model = model.with_test_overrides(entry.overrides)
                patterns_e = all_patterns(model)
            else:
                patterns_e = patterns
            if getattr(entry, "box", None) is not None:
                a2 = check_a2(entry.box, patterns_e, model, grid_step=grid_step)
                checks.append(
                    {"name": entry.name, "a2": {"ok": a2.ok, "lambda_min": a2.lambda_min}}
                )
            else:
                a1 = check_a1(entry.point, patterns_e, model)
                checks.append(
                    {
                        "name": entry.name,
                        "a1": {"ok": a1.ok, "witness": a1.pattern.label if a1.pattern else None},
                    }
                )
        out["checks"] = checks
    return out


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _design_table(design: dict, currency: str) -> list[str]:
    rows = [("pattern", "fraction", "participants", "integer", f"cost/participant ({currency})")]
    for label in design["fractions"]:
        rows.append(
            (
                label,
                f"{design['fractions'][label]:.6f}",
                f"{design['counts'][label]:.1f}",
                str(design["integer_counts"][label]),
                f"{design['pattern_costs'][label]:g}",
            )
        )
    widths = [max(len(r[i]) for r in rows) for i in range(5)]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows]
    lines.append(f"realized cost of integer design: {design['realized_cost']:g} {currency}")
    return lines


def render_table(report: dict) -> str:
    """Human-readable rendering of a machine report."""
    currency = report.get("currency", "units")
    lines = [f"command: {report.get('command', '?')}"]
    for key, value in report.items():
        if key in ("command", "design", "allocations"):
            continue
        if isinstance(value, float):
            lines.append(f"{key}: {value:.10g}")
        else:
            lines.append(f"{key}: {value}")
    if "design" in report:
        lines.append("")
        lines.extend(_design_table(report["design"], currency))
    for entry in report.get("allocations", ()):
        lines.append("")
        lines.append(
            f"stratum {entry['name']}: fraction {entry['fraction']:g}, "
            f"budget {entry['budget']:.2f} {currency} "
            f"({100 * entry['budget_share']:.2f}%)"
        )
        lines.extend(_design_table(entry["report"]["design"], currency))
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="serodesign",
        description="Budget-constrained optimal designs for multi-test surveys",
    )
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", required=True, help="path to a JSON configuration")
    parser.add_argument("--output", choices=("json", "table"), default="json")
    parser.add_argument("--grid-step", type=float, default=None, help="worst-case grid step")
    parser.add_argument("--moe", type=float, default=None, help="margin-of-error target")
    parser.add_argument("--alpha", type=float, default=None, help="confidence level parameter")
    parser.add_argument("--seed", type=int, default=None, help="simulation seed")
    parser.add_argument("--replications", type=int, default=None, help="simulation replications")
    parser.add_argument("--design", default=None, help="design report file for simulate")
    args = parser.parse_args(argv)

    try:
        config = load_config(args.config)
        report = run(
            config,
            args.subcommand,
            moe=args.moe,
            alpha=args.alpha,
            grid_step=args.grid_step,
            seed=args.seed,
            replications=args.replications,
            design_path=args.design,
        )
    except (ConfigError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (InfeasibleDesignError, ConvergenceError) as err:
        print(f"solver error: {err}", file=sys.stderr)
        return 2

    if args.output == "json":
        print(json.dumps(report, indent=2))
    else:
        print(render_table(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
