"""The production packages never load the reference implementations,
the oracle harness depends on none of them, and the service never
reaches the sharding modules."""

import ast
import glob
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


def imported_names(path):
    """Every module name a file's import statements mention, relative
    ones with their leading dots (anywhere in the file: function-level
    imports count)."""
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            imported.append(module)
            # ``from repro.core import parallel`` names it too.
            imported += [f"{module}.{alias.name}" for alias in node.names]
    return imported


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
    import repro.oracle

    imported = imported_names(repro.oracle.__file__)
    offenders = [
        name for name in imported
        if name.startswith(".") or name.split(".")[0] == "repro"
    ]
    assert not offenders, offenders


def test_oracle_harness_leaves_reference_unloaded():
    assert_reference_unloaded_after_importing("repro.oracle")


def test_service_imports_no_sharding_module():
    """A tenant session is one serial analyzer on its pump thread:
    nothing under ``repro/service`` may import the shard router or its
    worker pool (``report_signature`` comes from
    ``repro.core.reports``)."""
    import repro.service

    sharding = ("repro.core.parallel", "repro.core.workers")
    package = os.path.dirname(repro.service.__file__)
    paths = sorted(glob.glob(os.path.join(package, "*.py")))
    assert paths
    offenders = [
        (os.path.basename(path), name)
        for path in paths
        for name in imported_names(path)
        if name.startswith(sharding)
    ]
    assert not offenders, offenders
