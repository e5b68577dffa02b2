"""A setting exists only where a caller varies it.

The analyzer and its oracles take their symbol table from the library
and no catalog (detection reads none), and each paper figure runs at
the one scale its module fixes.  These guards keep the removed
parameters from growing back."""

import inspect

import pytest

from repro.analysis.compile import compile_library, verify_selection
from repro.core.analyzer import GretelAnalyzer
from repro.core.characterize import characterize_suite
from repro.core.matching.oracle import verify_detection
from repro.core.parallel import ShardedAnalyzer, verify_equivalence
from repro.evaluation.registry import EXPERIMENTS

#: Takes a reduced scale: ``tests/integration/test_evaluation.py``
#: runs two points of 20K events.
REDUCED_SCALE = {"fig8c"}


@pytest.mark.parametrize("callable_", [
    GretelAnalyzer,
    ShardedAnalyzer,
    verify_equivalence,
    verify_detection,
    verify_selection,
    compile_library,
    characterize_suite,
], ids=lambda callable_: callable_.__name__)
def test_no_symbol_table_or_catalog_parameter(callable_):
    parameters = inspect.signature(callable_).parameters
    assert not {"symbols", "catalog"} & set(parameters)


@pytest.mark.parametrize("name", sorted(set(EXPERIMENTS) - REDUCED_SCALE))
def test_every_figure_runs_from_the_characterization_alone(name):
    parameters = inspect.signature(EXPERIMENTS[name].run).parameters
    assert list(parameters) == ["character"]
