"""The production packages never load the reference implementations,
the oracle harness depends on none of them, nothing in the program
reaches the sharding modules (only the benchmark ledger and their own
tests still use them), nothing builds an analyzer through the
ledger's ``PipelineBuilder`` residue, and a serving process (analyzer,
service, compiled index, warm characterization load, CLI) loads no
simulator module."""

import ast
import glob
import importlib
import os
import subprocess
import sys

import pytest

import repro

SHARDING = ("repro.core.parallel", "repro.core.workers")

#: The simulated cloud, its monitoring agents and workload drivers,
#: and the figure modules that run them: what a process that only
#: analyzes never loads.
SIMULATOR = (
    "repro.sim",
    "repro.openstack.cloud", "repro.openstack.services",
    "repro.openstack.messaging", "repro.openstack.faults",
    "repro.openstack.software", "repro.openstack.broker",
    "repro.openstack.database",
    "repro.monitoring.plane", "repro.monitoring.network",
    "repro.monitoring.resources", "repro.monitoring.watchers",
    "repro.workloads.runner", "repro.workloads.tempest",
    "repro.workloads.templates", "repro.workloads.toolkit",
    "repro.evaluation.registry", "repro.evaluation.case_studies",
    "repro.evaluation.table1", "repro.evaluation.fig",
    "repro.evaluation.ablations", "repro.evaluation.overhead",
    "repro.evaluation.hansel_comparison",
)

#: The packages whose ``__init__`` exports its names lazily.
LAZY_PACKAGES = (
    "repro", "repro.analysis", "repro.core", "repro.monitoring",
    "repro.openstack", "repro.workloads",
)

PROBE = """
import sys
import {modules}
{then}
loaded = sorted(m for m in sys.modules if m.startswith({prefixes!r}))
assert not loaded, loaded
"""


def assert_unloaded_after_importing(prefixes, *modules, then=""):
    """Import ``modules`` in a fresh interpreter, run the ``then``
    statement, and require that no module under ``prefixes`` loaded."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    probe = PROBE.format(modules=", ".join(modules), prefixes=prefixes,
                         then=then)
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env=env, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr


def assert_reference_unloaded_after_importing(*modules):
    assert_unloaded_after_importing(("repro.reference",), *modules)


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
    """The analyzer is serial everywhere — a tenant session, ``repro
    analyze``, the scenario runner, the builder: no file under
    ``src/repro`` but the two sharding modules themselves may import
    the shard router or its worker pool (``report_signature`` comes
    from ``repro.core.reports``)."""
    root = os.path.dirname(repro.__file__)
    paths = sorted(glob.glob(os.path.join(root, "**", "*.py"),
                             recursive=True))
    own = {os.path.join(root, "core", "parallel.py"),
           os.path.join(root, "core", "workers.py")}
    assert own <= set(paths) and len(paths) > 100
    offenders = [
        (os.path.relpath(path, root), name)
        for path in sorted(set(paths) - own)
        for name in imported_names(path)
        if name.startswith(SHARDING)
    ]
    assert not offenders, offenders


def named_identifiers(path):
    """Every identifier a file's code names: variables, attributes,
    imported names and definitions (docstrings and comments are not
    code)."""
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update((node.name.split(".")[-1], node.asname))
        elif isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            names.add(node.name)
    return names


def test_only_the_shim_names_pipeline_builder():
    """Every program caller builds ``GretelAnalyzer(...)`` itself; the
    builder survives only as the ledger's shim in
    ``repro.core.pipeline``."""
    root = os.path.dirname(repro.__file__)
    shim = os.path.join(root, "core", "pipeline", "__init__.py")
    paths = glob.glob(os.path.join(root, "**", "*.py"), recursive=True)
    assert "PipelineBuilder" in named_identifiers(shim)
    offenders = [
        os.path.relpath(path, root) for path in sorted(paths)
        if path != shim and "PipelineBuilder" in named_identifiers(path)
    ]
    assert not offenders, offenders


def test_program_imports_leave_sharding_unloaded():
    assert_unloaded_after_importing(
        SHARDING, "repro", "repro.cli", "repro.scenarios",
        "repro.service", "repro.analysis",
    )


def test_serving_path_loads_no_simulator(full_character):
    """The layer rule of docs/architecture.md: importing the serving
    packages and loading the characterization warm (the fixture has
    written the cache file) loads nothing that simulates a cloud."""
    assert_unloaded_after_importing(
        SIMULATOR,
        "repro", "repro.core", "repro.service", "repro.analysis.compile",
        "repro.workloads.traffic", "repro.evaluation.common", "repro.cli",
        then="repro.evaluation.common.default_characterization()",
    )


def test_warm_load_builds_no_suite(full_character, monkeypatch):
    """A warm load reads the cache file; it never builds the 1200-test
    suite that only a cold build runs."""
    from repro.evaluation import common
    from repro.workloads import tempest

    def build_suite(seed=0):
        raise AssertionError("a warm load built the suite")

    monkeypatch.setattr(tempest, "build_suite", build_suite)
    monkeypatch.setattr(common, "_CHAR_CACHE", {})
    monkeypatch.setattr(common, "_SUITE_CACHE", {})
    warm = common.default_characterization()
    assert warm is not full_character
    assert common._SUITE_CACHE == {}
    operations = full_character.library.operations()
    assert warm.library.operations() == operations
    assert all(warm.library.get(op) == full_character.library.get(op)
               for op in operations)


def type_checking_imports(path):
    """``{name: module}`` of the ``from ... import`` statements under
    a file's ``if TYPE_CHECKING:``."""
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    found = {}
    for node in tree.body:
        if (isinstance(node, ast.If) and isinstance(node.test, ast.Name)
                and node.test.id == "TYPE_CHECKING"):
            for statement in node.body:
                if isinstance(statement, ast.ImportFrom):
                    found.update((alias.name, statement.module)
                                 for alias in statement.names)
    return found


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_lazy_exports_resolve_to_their_definitions(package):
    """Every name in a lazy package's ``__all__`` is imported for the
    type checkers, listed by ``dir()``, and resolves to the object of
    the module it is imported from there."""
    module = importlib.import_module(package)
    typed = type_checking_imports(module.__file__)
    assert set(typed) == set(module.__all__) - {"__version__"}
    listed = dir(module)
    for name, source in typed.items():
        assert name in listed, name
        value = getattr(importlib.import_module(source), name)
        assert getattr(module, name) is value, name
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        getattr(module, "nope")


def test_lint_without_the_ambiguity_pass_builds_no_suite(full_character):
    """Only the ambiguity pass reads the template groups that the
    1200-test suite supplies, so ``repro lint --passes integrity``
    over the warm characterization builds no suite and loads no
    simulator."""
    assert_unloaded_after_importing(
        ("repro.workloads.tempest", "repro.sim"), "repro.cli",
        then=(
            "import contextlib, io\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert repro.cli.main(['lint', '--passes', 'integrity'])"
            " == 0"
        ),
    )
