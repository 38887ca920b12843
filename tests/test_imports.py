"""Every subpackage imports first thing in a fresh interpreter.

An import cycle can hide behind an earlier import in the same process
(``import repro.core`` before ``import repro.faults``), so each import
runs alone in a subprocess.
"""

import os
import pkgutil
import subprocess
import sys

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
SUBPACKAGES = sorted(m.name for m in pkgutil.iter_modules(repro.__path__)
                     if m.ispkg)


@pytest.mark.parametrize("module", [f"repro.{name}" for name in SUBPACKAGES]
                         + ["repro.faults.plan"])
def test_imports_first_thing(module):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", f"import {module}"],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_chaos_soak_imports_no_serving_stack():
    """``repro.chaos`` is the protocol soak alone: importing it loads
    nothing of the HTTP front end."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro.chaos; "
         "print(sorted(m for m in sys.modules "
         "if m.startswith('repro.serve')))"],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_fault_model_imports_no_protocol_stack():
    """``repro.faults`` is the fault model alone: the protocol engine,
    the planners, the sweeps and the auditor import it, never the
    reverse."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro.faults; "
         "print(sorted(m for m in sys.modules if m.startswith("
         "('repro.core', 'repro.analysis', 'repro.audit'))))"],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
