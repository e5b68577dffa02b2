"""Tests for the offline characterization pipeline (§7.1)."""

import os

import pytest

from repro.openstack.catalog import default_catalog
from repro.core.characterize import characterize_suite, load_characterization
from repro.core.fingerprint import filter_noise
from repro.core.symbols import SymbolTable
from repro.workloads.tempest import TempestSuite


@pytest.fixture(scope="module")
def tiny_suite(request):
    from repro.workloads.tempest import build_suite

    suite = build_suite()
    seen = set()
    tests = []
    for test in suite.tests:
        key = test.template.name
        if key not in seen and len(tests) < 12:
            seen.add(key)
            tests.append(test)
    return TempestSuite(tests=tests)


@pytest.fixture(scope="module")
def result(tiny_suite):
    return characterize_suite(tiny_suite, iterations=2)


def test_one_fingerprint_per_test(tiny_suite, result):
    assert len(result.library) == len(tiny_suite)
    assert result.failed_tests == []


def test_fingerprints_are_noise_free(result):
    catalog = default_catalog()
    symbols = result.library.symbols
    for fingerprint in result.library:
        keys = symbols.decode(fingerprint.symbols)
        assert filter_noise(keys, catalog) == keys


def test_fingerprints_record_nodes(result):
    for fingerprint in result.library:
        assert fingerprint.nodes
        assert all(isinstance(node, str) for node in fingerprint.nodes)


def test_fingerprints_record_dependencies(result):
    for fingerprint in result.library:
        assert fingerprint.dependencies
        nodes = set(fingerprint.nodes)
        assert all(node in nodes for node, _ in fingerprint.dependencies)


def test_category_stats_populated(result, tiny_suite):
    total = sum(stats.tests for stats in result.stats.values())
    assert total == len(tiny_suite)
    for stats in result.stats.values():
        assert stats.rest_events > 0


def test_characterization_is_deterministic(tiny_suite):
    a = characterize_suite(tiny_suite, iterations=2, seed=5)
    b = characterize_suite(tiny_suite, iterations=2, seed=5)
    for op in a.library.operations():
        assert a.library.get(op).symbols == b.library.get(op).symbols


def test_cache_roundtrip(tiny_suite, tmp_path):
    path = str(tmp_path / "char.json")
    first = characterize_suite(tiny_suite, iterations=2, cache_path=path)
    assert os.path.exists(path)
    # Loading needs no suite, and equals the build fingerprint for
    # fingerprint (every field).
    second = load_characterization(path)
    assert len(second.library) == len(first.library)
    assert second.library.operations() == first.library.operations()
    for op in first.library.operations():
        assert second.library.get(op).symbols == first.library.get(op).symbols
        assert second.library.get(op) == first.library.get(op)
    assert second.failed_tests == first.failed_tests
    rows_first = {r["category"]: r for r in first.table1_rows()}
    rows_second = {r["category"]: r for r in second.table1_rows()}
    assert rows_first == rows_second


def test_table1_rows_structure(result):
    rows = result.table1_rows()
    assert rows[-1]["category"] == "total"
    categories = [row["category"] for row in rows[:-1]]
    assert set(categories) <= {"compute", "image", "network", "storage", "misc"}


def test_fp_max_positive(result):
    assert result.fp_max > 5


def test_composite_operations_subsume_simpler_ones(result):
    """§4: composite administrative tasks subsume simpler operations —
    some fingerprint's state-change sequence is a subsequence of a
    larger one's (the paper's S2 ⊂ S1 example)."""
    fingerprints = [fp for fp in result.library
                    if len(fp.state_change_symbols) >= 2]

    def is_subsequence(small, big):
        position = 0
        for symbol in small:
            position = big.find(symbol, position)
            if position < 0:
                return False
            position += 1
        return True

    pairs = [
        (a.operation, b.operation)
        for a in fingerprints for b in fingerprints
        if a is not b
        and len(a.state_change_symbols) < len(b.state_change_symbols)
        and is_subsequence(a.state_change_symbols, b.state_change_symbols)
    ]
    assert pairs, "expected at least one subsumed operation pair"
