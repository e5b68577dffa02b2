"""A setting exists only where a caller varies it.

The analyzer and its oracles take their symbol table from the library
and no catalog (detection reads none), and each paper figure runs at
the one scale its module fixes.  These guards keep the removed
parameters from growing back."""

import inspect

import pytest

import repro.service
from repro.analysis.compile import compile_library, verify_selection
from repro.core.analyzer import GretelAnalyzer
from repro.core.characterize import characterize_suite
from repro.core.matching.oracle import verify_detection
from repro.core.parallel import ShardedAnalyzer, verify_equivalence
from repro.evaluation.registry import EXPERIMENTS
from repro.monitoring.store import MetadataStore
from repro.service import oracle as service_oracle

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


#: The two oracles ``verify_service`` replaced: they restored through
#: a loop production never takes, and neither comes back.
RETIRED_ORACLES = ("verify_checkpoint", "verify_async")


@pytest.mark.parametrize("name", [
    "StreamingService",
    "verify_service",
    *RETIRED_ORACLES,
])
def test_no_shared_store_or_defer_parameter(name):
    """Every tenant's analyzer owns its metadata store, and no service
    session defers detection: neither can be handed in, and no retired
    oracle is left to take them."""
    if name in RETIRED_ORACLES:
        assert not hasattr(repro.service, name)
        assert not hasattr(service_oracle, name)
        return
    parameters = inspect.signature(getattr(repro.service, name)).parameters
    assert not {"store", "defer_detection"} & set(parameters)


def test_metadata_store_takes_no_parameter():
    """The per-node sample cap is a module constant: only a test ever
    varied it, and it monkeypatches ``MAX_SAMPLES_PER_NODE``."""
    assert not inspect.signature(MetadataStore).parameters


@pytest.mark.parametrize("name", sorted(set(EXPERIMENTS) - REDUCED_SCALE))
def test_every_figure_runs_from_the_characterization_alone(name):
    parameters = inspect.signature(EXPERIMENTS[name].run).parameters
    assert list(parameters) == ["character"]
