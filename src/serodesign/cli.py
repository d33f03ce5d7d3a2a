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
and ``check-assumptions`` (any scenario).  ``check-assumptions`` reports
A1 (``ok``, ``witness``) at a point and A2 (``ok``, ``lambda_min``,
``argmin``, ``witness``) over a box, for the scenario or for each of its
strata or groups.  ``--output table`` renders the same machine report as
an aligned text table; it is never a separate computation path.

The CLI checks only a document's shape: types, required keys and known
fields.  Every rule on the values (reliabilities in (0, 1), points in the
simplex, fractions summing to 1, distinct names, known override ids, ...)
is checked by the library type that owns it, while the document is read.
Numbers must be finite (``NaN`` and ``Infinity`` are rejected), ``seed``
and ``replications`` must be integers and ``seed`` nonnegative.  Any
malformed configuration or ``--design`` file exits 1 with
``error: <document path>: <reason>``; a configuration that is not a
JSON object at all has the path ``<config>``.  Exit status: 0 on
success, 1 on configuration or validation errors, 2 on solver failures.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace
from importlib import resources

import numpy as np

from .allocation import (
    GroupSpec,
    StratumSpec,
    allocate_districts,
    allocate_groups,
    validate_entries,
)
from .coptimal import (
    ConvergenceError,
    Design,
    InfeasibleDesignError,
    _margin_budget,
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
    validate_parameter,
)
from .simulate import MIN_REPLICATIONS, simulation_report

# ``budget_for_margin`` is not called here: a budget request solves once and
# prices that report at the required budget.  It stays a name of this module
# because perfbench's tracer wraps it here, and tests/test_package.py checks
# that every wrapped name resolves.

__all__ = ["ConfigError", "RunConfig", "parse_config", "load_config", "run", "main", "fixture_path"]

SCENARIO_KINDS = ("point", "box", "strata", "groups")

# Each subcommand and the scenario kinds it runs on.
_SCENARIO_FOR = {
    "c-optimal": ("point",),
    "worst-case": ("box",),
    "strata": ("strata",),
    "groups": ("groups",),
    "budget": ("point",),
    "simulate": ("point",),
    "check-assumptions": SCENARIO_KINDS,
}

SUBCOMMANDS = tuple(_SCENARIO_FOR)

# The path of an error in the configuration document as a whole.
ROOT_PATH = "<config>"


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
            "tests": [asdict(t) for t in self.model.tests],
            "nominal": [[int(x) for x in row] for row in self.model.nominal],
            "u": _floats(self.model.u),
        }
        kind = self.scenario_kind
        if kind == "point":
            scenario = _floats(self.point)
        elif kind == "box":
            scenario = _box_dict(self.box)
        else:
            scenario = [_entry_dict(e) for e in getattr(self, kind)]
        return {
            "model": model,
            "scenario": {kind: scenario},
            "budget": self.budget,
            "options": asdict(self.options),
        }


def _floats(values) -> list[float]:
    return [float(x) for x in values]


def _box_dict(box: ParameterBox) -> dict:
    return {"lower": _floats(box.lower), "upper": _floats(box.upper)}


def _entry_dict(entry: StratumSpec | GroupSpec) -> dict:
    out = {"name": entry.name, "fraction": entry.fraction}
    if entry.point is not None:
        out["point"] = _floats(entry.point)
    if isinstance(entry, GroupSpec):
        out["overrides"] = entry.overrides
    elif entry.box is not None:
        out["box"] = _box_dict(entry.box)
    return out


# ---------------------------------------------------------------------------
# Parsing: the document's shape here, every rule in the library types
# ---------------------------------------------------------------------------


@contextmanager
def _at(path: str):
    """Report a rule that a library type rejects while built here at ``path``."""
    try:
        yield
    except ConfigError:
        raise
    except KeyError as err:
        raise ConfigError(path, err.args[0]) from None
    except ValueError as err:
        raise ConfigError(path, str(err)) from None


def _require(doc: dict, key: str, path: str):
    if key not in doc:
        raise ConfigError(f"{path}.{key}" if path else key, "missing required field")
    return doc[key]


def _object(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(path, f"expected an object, got {value!r}")
    return value


def _string(value, path: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(path, f"expected a string, got {value!r}")
    return value


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, f"expected a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # NaN, infinities, integers beyond float range
        raise ConfigError(path, f"expected a finite number, got {value!r}")
    return float(value)


def _integer(value, path: str) -> int:
    if not _number(value, path).is_integer():
        raise ConfigError(path, f"expected an integer, got {value!r}")
    return int(value)


def _vector(value, path: str) -> list[float]:
    if not isinstance(value, list) or not value:
        raise ConfigError(path, f"expected a nonempty list of numbers, got {value!r}")
    return [_number(x, f"{path}[{i}]") for i, x in enumerate(value)]


def _read_json(path: str, where: str):
    with open(path, encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except ValueError as err:
            raise ConfigError(where, f"not valid JSON: {err}") from None


def _parse_tests(doc, path: str) -> tuple[TestSpec, ...]:
    if not isinstance(doc, list) or not doc:
        raise ConfigError(path, "expected a nonempty list of tests")
    tests = []
    for i, item in enumerate(doc):
        here = f"{path}[{i}]"
        test_id = _string(_require(_object(item, here), "id", here), f"{here}.id")
        numbers = {
            key: _number(_require(item, key, here), f"{here}.{key}")
            for key in ("cost", "sensitivity", "specificity")
        }
        with _at(here):
            tests.append(TestSpec(id=test_id, **numbers))
    return tuple(tests)


def _parse_model(doc, path: str = "model") -> DiseaseModel:
    tests = _parse_tests(_require(_object(doc, path), "tests", path), f"{path}.tests")
    nominal = _require(doc, "nominal", path)
    if not isinstance(nominal, list) or not all(isinstance(r, list) for r in nominal):
        raise ConfigError(f"{path}.nominal", "expected a list of rows")
    u = doc.get("u")
    u = [1.0] * (len(nominal) - 1) if u is None else _vector(u, f"{path}.u")
    with _at(path):
        return DiseaseModel(tests=tests, nominal=np.array(nominal), u=np.array(u))


def _parse_point(value, model: DiseaseModel, path: str) -> np.ndarray:
    vec = _vector(value, path)
    with _at(path):
        return validate_parameter(vec, model.k)


def _parse_box(doc, model: DiseaseModel, path: str) -> ParameterBox:
    lower = _vector(_require(_object(doc, path), "lower", path), f"{path}.lower")
    upper = _vector(_require(doc, "upper", path), f"{path}.upper")
    if len(lower) != model.k or len(upper) != model.k:
        raise ConfigError(path, f"lower and upper must each have {model.k} entries")
    with _at(path):
        return ParameterBox(lower=np.array(lower), upper=np.array(upper))


def _parse_overrides(doc, model: DiseaseModel, path: str) -> dict:
    for test_id, entry in _object(doc, path).items():
        for key, value in _object(entry, f"{path}.{test_id}").items():
            _number(value, f"{path}.{test_id}.{key}")
        with _at(f"{path}.{test_id}"):
            model.with_test_overrides({test_id: entry})
    return doc


_PARSERS = {"point": _parse_point, "box": _parse_box, "overrides": _parse_overrides}

# Per list kind: the spec it builds, the noun for one entry, and the fields
# an entry may give beyond name and fraction (True where it must).
_ENTRIES = {
    "strata": (StratumSpec, "stratum", {"point": False, "box": False}),
    "groups": (GroupSpec, "group", {"point": True, "overrides": False}),
}


def _parse_entries(kind: str, entries, model: DiseaseModel) -> tuple:
    """A strata or groups list: one spec per entry, then the rule on the list."""
    path = f"scenario.{kind}"
    if not isinstance(entries, list):
        raise ConfigError(path, f"expected a list, got {entries!r}")
    spec_type, noun, extra = _ENTRIES[kind]
    specs = []
    for i, item in enumerate(entries):
        here = f"{path}[{i}]"
        fields = {
            "name": _string(_require(_object(item, here), "name", here), f"{here}.name"),
            "fraction": _number(_require(item, "fraction", here), f"{here}.fraction"),
        }
        for key, required in extra.items():
            if required or key in item:
                fields[key] = _PARSERS[key](_require(item, key, here), model, f"{here}.{key}")
        with _at(here):
            specs.append(spec_type(**fields))
    with _at(path):
        validate_entries(specs, noun)
    return tuple(specs)


_OPTION_TYPES = {
    "grid_step": _number,
    "alpha": _number,
    "moe": _number,
    "seed": _integer,
    "replications": _integer,
    "currency": _string,
}


def _parse_options(doc) -> Options:
    values = {}
    for key, value in _object(doc, "options").items():
        if key not in _OPTION_TYPES:
            raise ConfigError(f"options.{key}", "unknown option")
        if not (key == "moe" and value is None):
            values[key] = _OPTION_TYPES[key](value, f"options.{key}")
    options = Options(**values)
    _check_options(options)
    return options


def parse_config(doc: dict) -> RunConfig:
    """Validate a parsed configuration document into a RunConfig.

    Errors name the offending path in the document, for example
    ``scenario.strata[1].fraction``.
    """
    if not isinstance(doc, dict):
        raise ConfigError(ROOT_PATH, "configuration must be an object")
    unknown = set(doc) - {"model", "scenario", "budget", "options"}
    if unknown:
        raise ConfigError(sorted(unknown)[0], "unknown top-level field")
    model = _parse_model(_require(doc, "model", ""))

    budget = _number(_require(doc, "budget", ""), "budget")
    if budget <= 0:
        raise ConfigError("budget", f"must be positive, got {budget}")

    scenario = _object(_require(doc, "scenario", ""), "scenario")
    kinds = [key for key in SCENARIO_KINDS if key in scenario]
    if len(kinds) != 1:
        raise ConfigError(
            "scenario", f"expected exactly one of point/box/strata/groups, got {kinds or list(scenario)}"
        )
    kind = kinds[0]
    if kind in _ENTRIES:
        parsed = _parse_entries(kind, scenario[kind], model)
    else:
        parsed = _PARSERS[kind](scenario[kind], model, f"scenario.{kind}")

    return RunConfig(
        model=model,
        scenario_kind=kind,
        budget=budget,
        options=_parse_options(doc.get("options", {})),
        **{kind: parsed},
    )


def _check_options(options: Options) -> None:
    """Reject option values no subcommand can run with, from a file or a flag."""
    if not 0.0 < options.alpha < 1.0:
        raise ConfigError("options.alpha", f"must lie strictly in (0, 1), got {options.alpha}")
    if not 0.0 < options.grid_step < np.inf:
        raise ConfigError(
            "options.grid_step", f"must be positive and finite, got {options.grid_step}"
        )
    if options.moe is not None and not 0.0 < options.moe < np.inf:
        raise ConfigError("options.moe", f"must be positive and finite, got {options.moe}")
    if options.seed < 0:
        raise ConfigError("options.seed", f"must be nonnegative, got {options.seed}")
    if options.replications < MIN_REPLICATIONS:
        raise ConfigError(
            "options.replications",
            f"need at least {MIN_REPLICATIONS} replications, got {options.replications}",
        )


def load_config(path: str) -> RunConfig:
    return parse_config(_read_json(path, ROOT_PATH))


def _load_design(path: str, model: DiseaseModel, budget: float) -> Design:
    """The design of a saved report, or of a bare design object, in a file."""
    saved = _object(_read_json(path, "design"), "design")
    doc = _object(saved.get("design", saved), "design")
    fraction_map = _object(_require(doc, "fractions", "design"), "design.fractions")
    patterns = all_patterns(model)
    labels = [t.label for t in patterns]
    fractions = np.zeros(len(patterns))
    for label, value in fraction_map.items():
        if label not in labels:
            raise ConfigError(f"design.fractions.{label}", "unknown pattern label")
        fractions[labels.index(label)] = _number(value, f"design.fractions.{label}")
    budget = _number(doc.get("budget", budget), "design.budget")
    with _at("design"):
        return Design(patterns=tuple(patterns), fractions=fractions, budget=budget)


def fixture_path(name: str) -> str:
    """Path of a packaged configuration fixture, e.g. ``table1_row1``."""
    if not name.endswith(".json"):
        name = f"{name}.json"
    return str(resources.files("serodesign").joinpath("fixtures", name))


# ---------------------------------------------------------------------------
# Running subcommands
# ---------------------------------------------------------------------------


def _assumptions(model: DiseaseModel, point, box: ParameterBox | None, grid_step: float) -> dict:
    """A1 at ``point``, or A2 over ``box`` when one is given, as report fields."""
    patterns = all_patterns(model)
    if box is None:
        a1 = check_a1(point, patterns, model)
        return {"a1": {"ok": a1.ok, "witness": a1.pattern.label if a1.pattern else None}}
    a2 = check_a2(box, patterns, model, grid_step=grid_step)
    return {
        "a2": {
            "ok": a2.ok,
            "lambda_min": a2.lambda_min,
            "argmin": _floats(a2.argmin) if a2.argmin is not None else None,
            "witness": a2.pattern.label if a2.pattern else None,
        }
    }


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
        return {**header, "parameter": _floats(config.point), **report.to_dict()}

    if subcommand == "worst-case":
        report = worst_case_design(
            config.box, config.model, grid_step=grid_step, budget=config.budget
        )
        return {**header, "box": _box_dict(config.box), **report.to_dict()}

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
        solve = solve_c_optimal(config.point, config.model)
        required = _margin_budget(solve, moe, alpha)
        return {
            **header,
            "parameter": _floats(config.point),
            "moe": moe,
            "alpha": alpha,
            "z": abs(normal_quantile(alpha / 2.0)),
            "required_budget": required,
            **solve.priced(required).to_dict(),
        }

    if subcommand == "simulate":
        if design_path is None:
            design = solve_c_optimal(config.point, config.model, budget=config.budget).design
        else:
            design = _load_design(design_path, config.model, config.budget)
        report = simulation_report(
            config.point,
            config.model,
            design.fractions,
            design.budget,
            replications=opts.replications,
            seed=opts.seed,
        )
        return {**header, "parameter": _floats(config.point), **report}

    # check-assumptions
    out = {**header, "scenario": config.scenario_kind}
    if config.scenario_kind in ("point", "box"):
        return {**out, **_assumptions(config.model, config.point, config.box, grid_step)}
    groups = config.scenario_kind == "groups"
    out["checks"] = [
        {
            "name": e.name,
            **_assumptions(
                e.model(config.model) if groups else config.model,
                e.point,
                None if groups else e.box,
                grid_step,
            ),
        }
        for e in config.groups or config.strata
    ]
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
