"""Packaging tests: what importing the package pulls in, its public names,
and the names the benchmark's tracer wraps."""

import importlib.util
import inspect
import os
import subprocess
import sys

import serodesign


def test_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(serodesign.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    probe = (
        "import sys, serodesign; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == "[]"


def test_benchmark_tracer_finds_every_wrapped_name():
    # perfbench/tracer.py wraps package functions by name and drops the
    # per-layer figures whose names no longer resolve; a rename or removal
    # of such a function should fail here rather than in a traced run
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", os.path.join(root, "perfbench", "tracer.py")
    )
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.Tracer().missing == set()


# Every public name; a name added, removed or renamed must change this list.
PUBLIC_NAMES = [
    "AllocationReport",
    "ConvergenceError",
    "Design",
    "DiseaseModel",
    "GroupSpec",
    "InfeasibleDesignError",
    "ParameterBox",
    "SaddleReport",
    "SolveReport",
    "StratumAllocation",
    "StratumSpec",
    "SurveyDataset",
    "TestPattern",
    "TestSpec",
    "all_patterns",
    "allocate_districts",
    "allocate_groups",
    "budget_for_margin",
    "check_a1",
    "check_a2",
    "default_model",
    "design_from_fractions",
    "fisher_info",
    "jarque_bera_pvalue",
    "kkt_check",
    "log_likelihood",
    "make_pattern",
    "mle",
    "normal_quantile",
    "objective",
    "objective_gradient",
    "saddle_check",
    "sample_outcomes",
    "simulate_estimates",
    "simulation_report",
    "solve_c_optimal",
    "validate_entries",
    "validate_parameter",
    "worst_case_design",
]

# Tolerances are module constants (MAX_NEWTON_STEPS, SADDLE_TOL,
# SUPPORT_EPS, PD_TOLERANCE, MLE_TOL), never parameters.
TOLERANCE_PARAMETERS = {"max_iter", "saddle_tol", "support_eps", "pd_tol", "tol"}


def test_public_names_are_pinned():
    assert serodesign.__all__ == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(serodesign, name) is not None


LIBRARY_MODULES = (
    serodesign.allocation,
    serodesign.coptimal,
    serodesign.minimax,
    serodesign.model,
    serodesign.simulate,
)


def test_each_public_name_is_declared_once_in_its_own_module():
    # the package's __all__ is the union of its modules' lists, so a name
    # must be defined where it is listed and listed nowhere else
    owners = {}
    for module in LIBRARY_MODULES:
        for name in module.__all__:
            assert name not in owners, f"{name} listed by {owners.get(name)} and {module.__name__}"
            owners[name] = module.__name__
            assert getattr(module, name).__module__ == module.__name__, name
    assert sorted(owners) == PUBLIC_NAMES


def public_signatures():
    """(name, parameter names) of every public function, and of the
    constructor and public methods of every public class but the error
    types, which take a message only."""
    for name in PUBLIC_NAMES:
        obj = getattr(serodesign, name)
        if inspect.isclass(obj) and issubclass(obj, Exception):
            continue
        yield name, set(inspect.signature(obj).parameters)
        if inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if inspect.isfunction(member) and not attr.startswith("_"):
                    yield f"{name}.{attr}", set(inspect.signature(member).parameters)


def test_no_public_callable_takes_a_tolerance():
    for name, parameters in public_signatures():
        assert not parameters & TOLERANCE_PARAMETERS, name


# A design spans every pattern of its model; only these build a record of
# the patterns a design or a dataset spends on.
TAKES_PATTERNS = {"design_from_fractions", "Design", "SurveyDataset"}


def test_only_design_records_take_patterns():
    for name, parameters in public_signatures():
        assert ("patterns" in parameters) == (name in TAKES_PATTERNS), name
