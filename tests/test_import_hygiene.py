"""The production packages never load the reference implementations,
and the oracle harness depends on none of them."""

import os
import subprocess
import sys

import repro

PROBE = """
import sys
import {modules}
loaded = sorted(m for m in sys.modules if m.startswith("repro.reference"))
assert not loaded, loaded
"""


def assert_reference_unloaded_after_importing(*modules):
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", PROBE.format(modules=", ".join(modules))],
        env=env, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr


def test_production_imports_leave_reference_unloaded():
    assert_reference_unloaded_after_importing(
        "repro", "repro.core", "repro.service", "repro.analysis",
        "repro.scenarios", "repro.cli",
    )


def test_oracle_harness_imports_nothing_from_repro():
    """``repro.oracle`` must stay importable by every layer without a
    cycle.  Checked on the module's AST: importing it runs the package
    ``__init__`` (which pulls in ``repro.core``), so ``sys.modules``
    cannot tell what the module itself depends on."""
    import ast

    import repro.oracle

    with open(repro.oracle.__file__, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
    offenders = [
        name for name in imported
        if name.startswith(".") or name.split(".")[0] == "repro"
    ]
    assert not offenders, offenders


def test_oracle_harness_leaves_reference_unloaded():
    assert_reference_unloaded_after_importing("repro.oracle")
