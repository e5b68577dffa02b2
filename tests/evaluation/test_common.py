"""Unit tests for the evaluation-harness helpers."""

import os

import pytest

from repro.core.config import GretelConfig
from repro.evaluation import common
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


def test_cache_tag_hashes_the_code_that_builds_a_library():
    # Alg. 1 (noise rules, LCS merge), symbol assignment and
    # ``characterize_suite`` with its file format turn the traces into
    # the cached library: an edit to any of them must miss the cache.
    hashed = _trace_sources()
    for module in ("fingerprint.py", "characterize.py", "symbols.py"):
        suffix = os.path.join("repro", "core", module)
        assert any(path.endswith(suffix) for path in hashed), suffix


def test_characterization_cache_keeps_one_other_tag(tmp_path, monkeypatch):
    """A fresh write deletes the other tags' files for the same seed
    and iterations, except the most recently used one; a load only
    refreshes its own file's mtime."""
    monkeypatch.setenv("GRETEL_CACHE_DIR", str(tmp_path))
    monkeypatch.setattr(common, "_CHAR_CACHE", {})
    monkeypatch.setattr(common, "default_suite", lambda seed: None)
    built = []

    def characterize_suite(suite, *, iterations, seed, cache_path):
        assert not os.path.exists(cache_path)
        built.append(os.path.basename(cache_path))
        with open(cache_path, "w") as handle:
            handle.write("{}")
        return object()

    monkeypatch.setattr(common, "characterize_suite", characterize_suite)
    monkeypatch.setattr(
        common, "load_characterization", lambda path: object()
    )
    stubs = {
        "characterization-s9-i2-old0.json": 50,
        "characterization-s9-i2-old1.json": 100,
        "characterization-s9-i2-old2.json": 200,
        "characterization-s9-i2-old3.json.tmp": 10,
        "characterization-s8-i2-old1.json": 10,
        "characterization-s9-i3-old1.json": 10,
    }
    for name, mtime in stubs.items():
        (tmp_path / name).write_text("{}")
        os.utime(tmp_path / name, (mtime, mtime))

    def cached():
        return sorted(path.name for path in tmp_path.iterdir())

    def characterize(tag):
        monkeypatch.setattr(common, "_template_space_tag", lambda: tag)
        common._CHAR_CACHE.clear()
        return common.default_characterization(9, 2)

    characterize("new")
    assert built == ["characterization-s9-i2-new.json"]
    assert cached() == sorted(
        set(stubs) - {"characterization-s9-i2-old0.json",
                      "characterization-s9-i2-old1.json"}
        | {"characterization-s9-i2-new.json"}
    )

    # A load is a use: it refreshes the file and deletes nothing.
    new = tmp_path / "characterization-s9-i2-new.json"
    os.utime(new, (150, 150))
    before = cached()
    characterize("new")
    assert len(built) == 1 and cached() == before
    assert new.stat().st_mtime > 200

    # The next fresh write keeps "new", the most recently used other.
    characterize("newer")
    assert not (tmp_path / "characterization-s9-i2-old2.json").exists()
    assert new.exists()
    assert (tmp_path / "characterization-s9-i2-newer.json").exists()


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
