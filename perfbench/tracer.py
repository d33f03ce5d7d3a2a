"""Spans around serodesign's cross-module calls, and the per-layer figures.

The tracer replaces a function by a timing wrapper at the name its
caller looks it up by (``serodesign.minimax._solve_simplex`` is the name
``worst_case_design`` calls), so the program itself is unchanged.  Spans
are kept in memory as (name, parent, start, end, request) and written
out when the run ends; a layer's self time is the time of its spans minus
the part covered by their child spans.

A wrapped name that no longer exists (a later refactor renamed or
removed it) is skipped, and the metrics that need it are reported as
absent instead of failing the run.
"""

from __future__ import annotations

import importlib
import json
import re
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict

# (module, attribute, layer of the callee).  Module-level functions are
# wrapped in the namespace of the module that calls them; "ParameterBox.grid"
# is a method, wrapped on its class.
TARGETS = (
    ("cli", "solve_c_optimal", "coptimal"),
    ("cli", "budget_for_margin", "coptimal"),
    ("cli", "worst_case_design", "minimax"),
    ("cli", "allocate_districts", "allocation"),
    ("cli", "allocate_groups", "allocation"),
    ("cli", "simulation_report", "simulate"),
    ("cli", "check_a1", "model"),
    ("cli", "check_a2", "model"),
    ("cli", "all_patterns", "model"),
    ("allocation", "solve_c_optimal", "coptimal"),
    ("allocation", "worst_case_design", "minimax"),
    ("minimax", "_solve_simplex", "coptimal"),
    ("minimax", "check_a2", "model"),
    ("minimax", "_fisher_info_grid", "model"),
    ("minimax", "all_patterns", "model"),
    ("coptimal", "_solve_simplex", "coptimal"),
    ("coptimal", "check_a1", "model"),
    ("coptimal", "fisher_info", "model"),
    ("coptimal", "all_patterns", "model"),
    ("model", "fisher_info", "model"),
    ("model", "_fisher_info_grid", "model"),
    ("model", "ParameterBox.grid", "model"),
    ("simulate", "sample_outcomes", "simulate"),
    ("simulate", "mle", "simulate"),
    ("simulate", "objective", "coptimal"),
    ("simulate", "all_patterns", "model"),
    ("", "sample_outcomes", "simulate"),
    ("", "mle", "simulate"),
)


# What a span keeps of its call: FW iterations from a solve's result tuple,
# the number of points of a grid.  Anything else keeps nothing, so that no
# array outlives its call.
def _iterations(result, args):
    return result[3]


def _rows_of_result(result, args):
    return len(result)


def _rows_of_points(result, args):
    return len(args[1])


EXTRACT = {
    "coptimal._solve_simplex": _iterations,
    "minimax._solve_simplex": _iterations,
    "model.ParameterBox.grid": _rows_of_result,
    "minimax._fisher_info_grid": _rows_of_points,
    "model._fisher_info_grid": _rows_of_points,
}

# Called once per projected-gradient step of the MLE: counted, not spanned.
COUNTED = (("simulate", "_project_feasible"),)

# Root span of a request: a CLI run, or the benchmark's own library call
# (whose self time is the benchmark's, not a layer's).
ROOTS = {"cli": ("cli.main", "cli"), "library": ("bench.library_call", "bench")}
LAYERS = ("cli", "allocation", "minimax", "coptimal", "model", "simulate", "bench")

# Metric -> (unit, wrapped names it needs).
METRICS = {
    "cli.self_ms": ("ms", ()),
    "allocation.self_ms": ("ms", ("cli.allocate_districts", "cli.allocate_groups")),
    "minimax.inner_solves": ("count", ("minimax._solve_simplex",)),
    "minimax.grid_points": ("count", ("model.ParameterBox.grid", "cli.worst_case_design")),
    "minimax.certify_calls": ("count", ("minimax._solve_simplex", "model.ParameterBox.grid")),
    "minimax.self_ms": ("ms", ("cli.worst_case_design", "minimax._solve_simplex", "minimax.check_a2")),
    "coptimal.solves": ("count", ("coptimal._solve_simplex", "minimax._solve_simplex")),
    "coptimal.fw_iterations": ("count", ("coptimal._solve_simplex", "minimax._solve_simplex")),
    "coptimal.self_ms": ("ms", ("coptimal._solve_simplex", "coptimal.fisher_info", "cli.solve_c_optimal")),
    "model.table_builds": ("count", ("model._pattern_tables.cache_info",)),
    "model.table_hit_ratio": ("ratio", ("model._pattern_tables.cache_info",)),
    "model.info_matrices": ("count", ("coptimal.fisher_info", "model.fisher_info", "minimax._fisher_info_grid",
                                      "model._fisher_info_grid")),
    "model.self_ms": ("ms", ("coptimal.fisher_info", "model.fisher_info", "minimax._fisher_info_grid")),
    "simulate.sample_ms": ("ms", ("simulate.sample_outcomes",)),
    "simulate.mle_ms": ("ms", ("simulate.mle",)),
    "simulate.mle_projections": ("count", ("simulate.mle", "simulate._project_feasible")),
    "import.scipy_share": ("ratio", ()),
    "trace.overhead_pct": ("%", ()),
}


def _span_name(module: str, attr: str) -> str:
    return f"{module or 'serodesign'}.{attr}"


class Tracer:
    """Installs and removes the wrappers; records spans while installed."""

    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.spans: list = []  # (name index, parent span, start ns, end ns, request)
        self.stack: list[int] = []
        self.request = -1
        self.counts: Counter = Counter()
        self.results: dict = defaultdict(list)  # name index -> (span, parent, extracted value)
        self.missing: set[str] = set()
        self._installed: list = []
        self._targets = []
        for module, attr, layer in TARGETS:
            owner, leaf = self._resolve(module, attr)
            if owner is None:
                self.missing.add(_span_name(module, attr))
            else:
                self._targets.append((owner, leaf, self._name(_span_name(module, attr), layer)))
        self._counted = []
        for module, attr in COUNTED:
            owner, leaf = self._resolve(module, attr)
            if owner is None:
                self.missing.add(_span_name(module, attr))
            else:
                self._counted.append((owner, leaf, _span_name(module, attr)))
        self.roots = {kind: self._name(*span) for kind, span in ROOTS.items()}
        self.cache = self._table_cache()

    def _name(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.layer_of.append(layer)
        return len(self.names) - 1

    @staticmethod
    def _resolve(module: str, attr: str):
        owner = importlib.import_module(f"serodesign.{module}" if module else "serodesign")
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
            if owner is None:
                return None, None
        if not callable(getattr(owner, leaf, None)):
            return None, None
        return owner, leaf

    def _table_cache(self):
        from serodesign import model

        tables = getattr(model, "_pattern_tables", None)
        if not callable(getattr(tables, "cache_info", None)):
            self.missing.add("model._pattern_tables.cache_info")
            return None
        return tables

    def table_counts(self) -> tuple[int, int]:
        if self.cache is None:
            return 0, 0
        info = self.cache.cache_info()
        return info.hits, info.misses

    # -- recording ----------------------------------------------------------

    def _span(self, index: int, fn):
        spans, stack, results = self.spans, self.stack, self.results
        clock = time.perf_counter_ns
        extract = EXTRACT.get(self.names[index])

        def wrapper(*args, **kwargs):
            span = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[span] = (index, parent, start, end, self.request)
            if extract is not None:
                try:
                    value = extract(result, args)
                except (TypeError, IndexError):
                    value = None
                results[index].append((span, parent, value))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        for owner, leaf, index in self._targets:
            fn = getattr(owner, leaf)
            self._installed.append((owner, leaf, fn))
            setattr(owner, leaf, self._span(index, fn))
        for owner, leaf, name in self._counted:
            fn = getattr(owner, leaf)
            self._installed.append((owner, leaf, fn))
            setattr(owner, leaf, self._count(name, fn))

    def uninstall(self) -> None:
        while self._installed:
            owner, leaf, fn = self._installed.pop()
            setattr(owner, leaf, fn)

    def call(self, request: int, root: str, fn, *args):
        """Run one request under a root span ("cli" or "library")."""
        self.request = request
        return self._span(self.roots[root], fn)(*args)

    # -- output -------------------------------------------------------------

    def dump(self, path: str, summary: dict) -> None:
        columns = list(zip(*self.spans)) if self.spans else [[]] * 5
        doc = {
            "names": self.names,
            "layers": self.layer_of,
            "spans": dict(zip(("name", "parent", "start_ns", "end_ns", "request"), map(list, columns))),
            "counts": dict(self.counts),
            **summary,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)


def self_times(tracer: Tracer) -> dict:
    """Self time per layer in seconds: span time minus child span time."""
    child = [0] * len(tracer.spans)
    for _, parent, start, end, _ in tracer.spans:
        if parent >= 0:
            child[parent] += end - start
    out = dict.fromkeys(LAYERS, 0.0)
    for i, (index, _, start, end, _) in enumerate(tracer.spans):
        out[tracer.layer_of[index]] += (end - start - child[i]) * 1e-9
    return out


def layer_metrics(tracer: Tracer, requests: int, table_delta: tuple[int, int]) -> dict:
    """Per-layer figures of the traced requests (units as in METRICS)."""
    by_name = {name: i for i, name in enumerate(tracer.names)}

    def results(name):
        return tracer.results.get(by_name.get(name, -1), [])

    def spans_named(*names):
        wanted = {by_name[n] for n in names if n in by_name}
        return [s for s in tracer.spans if s[0] in wanted]

    self_s = self_times(tracer)
    per_req = 1.0 / max(requests, 1)

    solves = results("coptimal._solve_simplex") + results("minimax._solve_simplex")
    iterations = [value for _, _, value in solves if isinstance(value, int)]
    wcd = {by_name.get("cli.worst_case_design"), by_name.get("allocation.worst_case_design")}
    wcd_spans = {i for i, s in enumerate(tracer.spans) if s[0] in wcd}
    grid = {parent: rows or 0 for _, parent, rows in results("model.ParameterBox.grid") if parent in wcd_spans}
    inner = Counter(parent for _, parent, _ in results("minimax._solve_simplex"))
    fallback = sum(max(inner[s] - grid.get(s, 0), 0) for s in wcd_spans)
    info = len(spans_named("coptimal.fisher_info", "model.fisher_info"))
    for name in ("minimax._fisher_info_grid", "model._fisher_info_grid"):
        info += sum(rows or 0 for _, _, rows in results(name))
    samples = spans_named("simulate.sample_outcomes", "serodesign.sample_outcomes")
    fits = spans_named("simulate.mle", "serodesign.mle")
    hits, misses = table_delta

    values = {
        "cli.self_ms": 1e3 * self_s["cli"] * per_req,
        "allocation.self_ms": 1e3 * self_s["allocation"] * per_req,
        "minimax.inner_solves": len(results("minimax._solve_simplex")) * per_req,
        "minimax.grid_points": sum(grid.values()) * per_req,
        "minimax.certify_calls": (len(wcd_spans) + fallback) * per_req,
        "minimax.self_ms": 1e3 * self_s["minimax"] * per_req,
        "coptimal.solves": len(solves) * per_req,
        "coptimal.fw_iterations": statistics.fmean(iterations) if iterations else 0.0,
        "coptimal.self_ms": 1e3 * self_s["coptimal"] / max(len(solves), 1),
        "model.table_builds": misses * per_req,
        "model.table_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "model.info_matrices": info * per_req,
        "model.self_ms": 1e3 * self_s["model"] * per_req,
        "simulate.sample_ms": 1e-6 * sum(e - s for _, _, s, e, _ in samples) / max(len(samples), 1),
        "simulate.mle_ms": 1e-6 * sum(e - s for _, _, s, e, _ in fits) / max(len(fits), 1),
        "simulate.mle_projections": tracer.counts["simulate._project_feasible"] / max(len(fits), 1),
    }
    return {k: v for k, v in values.items() if not absent(k, tracer)}


def absent(metric: str, tracer: Tracer) -> bool:
    return any(name in tracer.missing for name in METRICS[metric][1])


# ---------------------------------------------------------------------------
# Import time
# ---------------------------------------------------------------------------

_IMPORTTIME = re.compile(r"^import time:\s+(\d+)\s+\|\s+(\d+)\s+\|(\s*)(\S+)\s*$")


def scipy_share(importtime_stderr: str) -> float:
    """Share of serodesign's import spent importing scipy, from -X importtime.

    Lines come children first; indentation gives the depth.  Only the
    outermost scipy imports count, so nested ones are not counted twice.
    """
    rows = []
    for line in importtime_stderr.splitlines():
        m = _IMPORTTIME.match(line)
        if m:
            rows.append((len(m.group(3)), m.group(4), int(m.group(2))))
    total = scipy = 0
    stack: list[tuple[int, str]] = []  # ancestors, walking parents first
    for depth, name, cumulative in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        if name == "serodesign":
            total = cumulative
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not any(n == "scipy" or n.startswith("scipy.") for _, n in stack):
            scipy += cumulative
        stack.append((depth, name))
    return scipy / total if total else 0.0


def measure_scipy_share(env: dict, samples: int = 3) -> float:
    shares = []
    for _ in range(samples):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import serodesign"],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        shares.append(scipy_share(proc.stderr))
    return statistics.median(shares)
