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

Flags (``--grid-step``, ``--moe``, ``--alpha``, ``--seed``,
``--replications``) are laid over the file's ``options`` before it is
parsed, so a flag passes the same one check and keeps its
``options.<key>`` path.  That check is ``RunConfig``'s own: when built,
the record of a run checks its options and budget, every place its
scenario names (its point or box, each stratum's point or box, each
group's point under its overrides) against the model at that place's
document path, and then the strata or groups list rule.
``run(config, subcommand)`` reads every setting from the ``RunConfig``,
whose ``scenario_kind`` is read off its one parsed ``scenario``, and
``check-assumptions`` reads the same places.  A library caller changes a
run with one ``dataclasses.replace(config, moe=0.01)``, which runs that
check too.

The parser checks only a document's shape (types, required keys, known
fields) and never sees the model.  Every rule on the values (points in
the simplex, fractions summing to 1, known override ids, ...) is checked
by the library type that owns it, when it or the ``RunConfig`` is built.
Numbers must be finite (``NaN`` and ``Infinity`` are rejected), ``seed``
and ``replications`` must be integers and ``seed`` nonnegative, and
``replications`` few enough that the counts of one simulate pass, at
most one column per row of the model's pattern table, fit one array.  Any
malformed configuration or ``--design`` file exits 1 with
``error: <document path>: <reason>``; a configuration that is not a
JSON object at all has the path ``<config>``.  A budget too large for
exact integer counts, or one that buys ``simulate`` no participant, has
the path the budget came from: ``budget``, ``options.moe`` for
``budget``, or ``design.budget``.  A grid step that gives a box a lattice
of more than ``MAX_GRID_POINTS`` points, or an axis no point, has the path
``options.grid_step``, from a flag or the file alike.  Exit status: 0 on
success, 1 on configuration or validation errors, 2 on solver failures,
including a run that runs out of memory (``solver error: out of memory: …``).
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import cache
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
    SUPPORT_EPS,
    ConvergenceError,
    Design,
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
    _pattern_tables,
    all_patterns,
    check_a1,
    check_a2,
    validate_parameter,
)
from .simulate import MIN_REPLICATIONS, _require_count_matrix, simulation_report

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
class RunConfig:
    """A validated run: model, one scenario, budget and options, checked when
    built, against the model too, whether from a file or by ``replace``."""

    model: DiseaseModel
    # the parsed scenario: a point array, a box, or a spec tuple
    scenario: np.ndarray | ParameterBox | tuple[StratumSpec, ...] | tuple[GroupSpec, ...]
    budget: float
    grid_step: float = 0.01
    alpha: float = 0.05
    moe: float | None = None
    seed: int = 0
    replications: int = 200
    currency: str = "units"

    def __post_init__(self):
        """Reject values no subcommand can run with, from a file, a flag or a caller."""
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError("options.alpha", f"must lie strictly in (0, 1), got {self.alpha}")
        if not 0.0 < self.grid_step < np.inf:
            raise ConfigError(
                "options.grid_step", f"must be positive and finite, got {self.grid_step}"
            )
        if self.moe is not None and not 0.0 < self.moe < np.inf:
            raise ConfigError("options.moe", f"must be positive and finite, got {self.moe}")
        for name in ("seed", "replications"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ConfigError(f"options.{name}", f"expected an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.seed < 0:
            raise ConfigError("options.seed", f"must be nonnegative, got {self.seed}")
        if self.replications < MIN_REPLICATIONS:
            raise ConfigError(
                "options.replications",
                f"need at least {MIN_REPLICATIONS} replications, got {self.replications}",
            )
        with _at("options.replications"):  # a pass has at most one column per table row
            _require_count_matrix(self.replications, 3**self.model.n_tests - 1)
        if not 0.0 < self.budget < np.inf:
            rule = "positive" if self.budget <= 0 else "finite"
            raise ConfigError("budget", f"must be {rule}, got {self.budget}")
        for path, _, model, where in self._places():
            if not isinstance(where, ParameterBox):
                with _at(path):
                    point = validate_parameter(where, model.k)
                if path == "scenario.point":
                    object.__setattr__(self, "scenario", point)
            elif where.k != model.k:
                raise ConfigError(path, f"lower and upper must each have {model.k} entries")
            else:  # a lattice that cannot be built is an error of the step, whoever set it
                with _at("options.grid_step"):
                    where.lattice_size(self.grid_step)
        if self.scenario_kind in _ENTRIES:
            with _at(f"scenario.{self.scenario_kind}"):
                validate_entries(self.scenario, _ENTRIES[self.scenario_kind][1])

    def _places(self):
        """Each place the scenario names: (path, entry name or None, the model
        there, its point or box); each group override is checked at its path."""
        kind = self.scenario_kind
        if kind not in _ENTRIES:
            yield f"scenario.{kind}", None, self.model, self.scenario
            return
        for i, e in enumerate(self.scenario):
            here, model = f"scenario.{kind}[{i}]", self.model
            for test_id, entry in (e.overrides if kind == "groups" else {}).items():
                with _at(f"{here}.overrides.{test_id}"):
                    model = model.with_test_overrides({test_id: entry})
            field = "point" if e.point is not None else "box"
            yield f"{here}.{field}", e.name, model, getattr(e, field)

    @property
    def scenario_kind(self) -> str:
        """point, box, strata or groups: read off ``scenario``."""
        if isinstance(self.scenario, ParameterBox):
            return "box"
        if isinstance(self.scenario, tuple) and self.scenario:
            for kind, (spec_type, _, _) in _ENTRIES.items():
                if all(isinstance(e, spec_type) for e in self.scenario):
                    return kind
            if any(isinstance(e, (StratumSpec, GroupSpec)) for e in self.scenario):
                kinds = [type(e).__name__ for e in self.scenario]
                raise ConfigError(
                    "scenario", f"entries must be all StratumSpec or all GroupSpec, got {kinds}"
                )
        return "point"  # any other value, which must then be a valid point


def _floats(values) -> list[float]:
    return [float(x) for x in values]


def _box_dict(box: ParameterBox) -> dict:
    return {"lower": _floats(box.lower), "upper": _floats(box.upper)}


# ---------------------------------------------------------------------------
# Parsing: the document's shape only; RunConfig and the library types own every rule
# ---------------------------------------------------------------------------


@contextmanager
def _at(path: str):
    """Report a rule that a library type rejects while built here at ``path``."""
    try:
        yield
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
        except (ValueError, RecursionError) as err:  # too deeply nested for the decoder
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


def _parse_box(doc, path: str) -> ParameterBox:
    lower = _vector(_require(_object(doc, path), "lower", path), f"{path}.lower")
    upper = _vector(_require(doc, "upper", path), f"{path}.upper")
    with _at(path):
        return ParameterBox(lower=np.array(lower), upper=np.array(upper))


def _parse_overrides(doc, path: str) -> dict:
    for test_id, entry in _object(doc, path).items():
        for key, value in _object(entry, f"{path}.{test_id}").items():
            _number(value, f"{path}.{test_id}.{key}")
    return doc


_PARSERS = {"point": _vector, "box": _parse_box, "overrides": _parse_overrides}

# Per list kind: the spec it builds, the noun for one entry, and the fields
# an entry may give beyond name and fraction (True where it must).
_ENTRIES = {
    "strata": (StratumSpec, "stratum", {"point": False, "box": False}),
    "groups": (GroupSpec, "group", {"point": True, "overrides": False}),
}


def _parse_entries(kind: str, entries) -> tuple:
    """A strata or groups list: one spec per entry, its rules left to RunConfig."""
    path = f"scenario.{kind}"
    if not isinstance(entries, list):
        raise ConfigError(path, f"expected a list, got {entries!r}")
    spec_type, noun, extra = _ENTRIES[kind]
    if not entries:  # an empty tuple would carry no scenario kind
        raise ConfigError(path, f"need at least one {noun}")
    specs = []
    for i, item in enumerate(entries):
        here = f"{path}[{i}]"
        fields = {
            "name": _string(_require(_object(item, here), "name", here), f"{here}.name"),
            "fraction": _number(_require(item, "fraction", here), f"{here}.fraction"),
        }
        for key, required in extra.items():
            if required or key in item:
                fields[key] = _PARSERS[key](_require(item, key, here), f"{here}.{key}")
        with _at(here):
            specs.append(spec_type(**fields))
    return tuple(specs)


_OPTION_TYPES = {
    "grid_step": _number,
    "alpha": _number,
    "moe": _number,
    "seed": _integer,
    "replications": _integer,
    "currency": _string,
}


def _parse_options(doc) -> dict:
    """The options, from the file with flags laid over it: types here, ranges in RunConfig."""
    values = {}
    for key, value in _object(doc, "options").items():
        if key not in _OPTION_TYPES:
            raise ConfigError(f"options.{key}", "unknown option")
        if not (key == "moe" and value is None):
            values[key] = _OPTION_TYPES[key](value, f"options.{key}")
    return values


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
    scenario = _object(_require(doc, "scenario", ""), "scenario")
    kinds = [key for key in SCENARIO_KINDS if key in scenario]
    if len(kinds) != 1:
        raise ConfigError(
            "scenario", f"expected exactly one of point/box/strata/groups, got {kinds or list(scenario)}"
        )
    kind = kinds[0]
    if kind in _ENTRIES:
        parsed = _parse_entries(kind, scenario[kind])
    else:
        parsed = _PARSERS[kind](scenario[kind], f"scenario.{kind}")

    return RunConfig(
        model=model, scenario=parsed, budget=budget, **_parse_options(doc.get("options", {}))
    )


def load_config(path: str) -> RunConfig:
    return parse_config(_read_json(path, ROOT_PATH))


def fixture_path(name: str) -> str:
    """Path of a packaged configuration fixture, e.g. ``table1_row1``."""
    if not name.endswith(".json"):
        name = f"{name}.json"
    return str(resources.files("serodesign").joinpath("fixtures", name))


# ---------------------------------------------------------------------------
# Running subcommands
# ---------------------------------------------------------------------------


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
    cheapest = min(t.cost for t in model.tests)  # buys at most one of any pattern
    with _at("design"):
        design = Design(patterns=patterns, fractions=fractions, budget=cheapest)
        if not _pattern_tables(model).identifies(design.fractions > SUPPORT_EPS):
            raise ValueError("its patterns do not identify p, so its variance is unbounded")
    with _at("design.budget"):
        return replace(design, budget=budget)


def _assumptions(model: DiseaseModel, where, grid_step: float) -> dict:
    """A1 at a point, or A2 over a ``ParameterBox``, as report fields."""
    if not isinstance(where, ParameterBox):
        a1 = check_a1(where, model)
        return {"a1": {"ok": a1.ok, "witness": a1.pattern.label if a1.pattern else None}}
    a2 = check_a2(where, model, grid_step=grid_step)
    return {
        "a2": {
            "ok": a2.ok,
            "lambda_min": a2.lambda_min,
            "argmin": _floats(a2.argmin),
            "witness": a2.pattern.label,
        }
    }


def run(config: RunConfig, subcommand: str, design_path: str | None = None) -> dict:
    """Dispatch one subcommand on ``config`` and return the machine report."""
    if subcommand not in SUBCOMMANDS:
        raise ConfigError("subcommand", f"unknown subcommand {subcommand!r}")
    kind, scenario, model = config.scenario_kind, config.scenario, config.model
    if kind not in _SCENARIO_FOR[subcommand]:
        raise ConfigError(
            "scenario",
            f"subcommand {subcommand!r} needs a "
            f"{' or '.join(_SCENARIO_FOR[subcommand])} scenario, got {kind!r}",
        )
    grid_step, alpha, moe = config.grid_step, config.alpha, config.moe
    header = {"command": subcommand, "currency": config.currency, "budget": config.budget}

    # A design rejects a budget whose counts cannot be rounded exactly; the
    # document path it reports is the one the budget came from.
    if subcommand == "c-optimal":
        with _at("budget"):
            report = solve_c_optimal(scenario, model, budget=config.budget)
        return {**header, "parameter": _floats(scenario), **report.to_dict()}

    if subcommand == "worst-case":
        with _at("budget"):
            report = worst_case_design(scenario, model, grid_step=grid_step, budget=config.budget)
        return {**header, "box": _box_dict(scenario), **report.to_dict()}

    if subcommand == "strata":
        with _at("budget"):
            report = allocate_districts(scenario, model, config.budget, grid_step=grid_step)
        return {**header, **report.to_dict()}

    if subcommand == "groups":
        with _at("budget"):
            report = allocate_groups(scenario, model, config.budget)
        return {**header, **report.to_dict()}

    if subcommand == "budget":
        if moe is None:
            raise ConfigError("options.moe", "budget subcommand needs a margin of error")
        with _at("options.moe"):
            report = budget_for_margin(scenario, model, moe, alpha)
        return {
            **header,
            "parameter": _floats(scenario),
            "moe": moe,
            "alpha": alpha,
            "z": abs(normal_quantile(alpha / 2.0)),
            "required_budget": report.design.budget,
            **report.to_dict(),
        }

    if subcommand == "simulate":
        if design_path is None:
            with _at("budget"):
                design = solve_c_optimal(scenario, model, budget=config.budget).design
        else:
            design = _load_design(design_path, model, config.budget)
        # a budget that buys no participant leaves nothing to sample
        with _at("budget" if design_path is None else "design.budget"):
            report = simulation_report(
                scenario,
                model,
                design.fractions,
                design.budget,
                replications=config.replications,
                seed=config.seed,
            )
        return {**header, "parameter": _floats(scenario), **report}

    # check-assumptions: at every place RunConfig checked, under that place's model
    out = {**header, "scenario": kind}
    places = [(name, _assumptions(at, where, grid_step)) for _, name, at, where in config._places()]
    if kind not in _ENTRIES:
        return {**out, **places[0][1]}
    return {**out, "checks": [{"name": name, **fields} for name, fields in places]}


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
                f"{design['pattern_costs'][label]:.15g}",
            )
        )
    widths = [max(len(r[i]) for r in rows) for i in range(5)]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows]
    lines.append(f"realized cost of integer design: {design['realized_cost']:.15g} {currency}")
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
        elif isinstance(value, (dict, list)):
            lines.append(f"{key}: {json.dumps(value)}")
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


@cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it unchanged."""
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
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    flags = {k: v for k, v in vars(args).items() if k in _OPTION_TYPES and v is not None}

    try:
        doc = _read_json(args.config, ROOT_PATH)
        # flags are laid over the file's options and pass the same one check
        options = doc.get("options", {}) if isinstance(doc, dict) else None
        if flags and isinstance(options, dict):
            doc["options"] = {**options, **flags}
        report = run(parse_config(doc), args.subcommand, design_path=args.design)
    except (ConfigError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (InfeasibleDesignError, ConvergenceError) as err:
        print(f"solver error: {err}", file=sys.stderr)
        return 2
    except MemoryError as err:
        print(f"solver error: out of memory: {err}", file=sys.stderr)
        return 2

    if args.output == "json":
        print(json.dumps(report, indent=2, allow_nan=False))
    else:
        print(render_table(report))
    return 0
