"""Packaging tests: what importing the package pulls in, and the names the
benchmark's tracer wraps."""

import importlib.util
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
