"""The production packages never load the reference implementations."""

import os
import subprocess
import sys

import repro

PROBE = """
import sys
import repro, repro.core, repro.service, repro.analysis
import repro.scenarios, repro.cli
loaded = sorted(m for m in sys.modules if m.startswith("repro.reference"))
assert not loaded, loaded
"""


def test_production_imports_leave_reference_unloaded():
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", PROBE], env=env,
        capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
