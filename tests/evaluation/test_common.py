"""Unit tests for the evaluation-harness helpers."""

import os

import pytest

from repro.core.config import GretelConfig
from repro.evaluation.common import (
    FaultRunStats,
    _trace_sources,
    default_suite,
    make_monitored_analyzer,
    p_rate_for,
)


def test_p_rate_floor_and_scaling():
    assert p_rate_for(1) == 150.0
    assert p_rate_for(100) == 1300.0
    assert p_rate_for(400) == 5200.0


def test_cache_tag_hashes_every_package_a_trace_depends_on():
    # A change to any of these can change a trace, so it must move the
    # characterization cache's tag rather than be served a stale file.
    hashed = _trace_sources()
    for package, module in (("sim", "kernel.py"),
                            ("openstack", "messaging.py"),
                            ("workloads", "runner.py")):
        suffix = os.path.join("repro", package, module)
        assert any(path.endswith(suffix) for path in hashed), suffix


def test_default_suite_memoized():
    assert default_suite(0) is default_suite(0)
    assert default_suite(0) is not default_suite(1)


def test_make_monitored_analyzer_wiring(small_character):
    cloud, plane, analyzer = make_monitored_analyzer(
        small_character, seed=1, concurrency=100,
    )
    assert analyzer.store is plane.store
    assert analyzer.alpha == GretelConfig(
        p_rate=p_rate_for(100)
    ).sliding_window_size(small_character.library.fp_max)
    # Events reach the analyzer.
    ctx = cloud.client_context()

    def op():
        yield from ctx.rest("nova", "GET", "/v2.1/limits")

    process = cloud.sim.spawn(op())
    cloud.run_until([process])
    cloud.settle(0.1)
    assert analyzer.events_processed >= 2


def test_fault_run_stats_aggregations():
    stats = FaultRunStats(reports=[], outcomes=[], injected=0, library_size=10)
    assert stats.thetas() == []
    assert stats.matched_counts() == []
    assert stats.candidate_counts() == []
    assert stats.max_report_delay() == 0.0
    assert stats.true_hits() == []


def test_distinctive_fault_api_prefers_rare_late_apis(full_character):
    import random

    from repro.evaluation.common import _distinctive_fault_api
    from repro.openstack.catalog import default_catalog

    suite = default_suite()
    test = next(t for t in suite.tests
                if t.name.startswith("compute.boot_server"))
    symbols = full_character.library.symbols
    catalog = default_catalog()
    rng = random.Random(0)
    picks = {
        _distinctive_fault_api(test, full_character, symbols, rng)
        for _ in range(30)
    }
    assert picks
    fingerprint = full_character.library.get(test.test_id)
    for key in picks:
        api = catalog.get(key)
        # Only state-change REST APIs from the operation itself.
        assert api.state_change
        assert api.kind.value == "rest"
        assert symbols.symbol(key) in fingerprint.symbols
    # Reads (the ubiquitous status polls) are never the injection site.
    assert all(not catalog.get(k).idempotent_read for k in picks)
