"""Packaging tests: what importing the package pulls in."""

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
