"""Tests for fingerprint generation (Algorithm 1) and the library."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.openstack.catalog import default_catalog
from repro.core.fingerprint import (
    Fingerprint,
    FingerprintLibrary,
    filter_noise,
    generate_fingerprint,
    longest_common_subsequence,
)
from repro.core.symbols import SymbolTable
from repro.reference import prefix_lcs_lengths
from repro.reference.detector import truncate_at


@pytest.fixture(scope="module")
def catalog():
    return default_catalog()


@pytest.fixture(scope="module")
def symbols(catalog):
    return SymbolTable(catalog)


def keys(catalog, *specs):
    resolved = []
    for spec in specs:
        kind, service, method, name = spec
        if kind == "rest":
            resolved.append(catalog.find_rest(service, method, name).key)
        else:
            resolved.append(catalog.find_rpc(service, name).key)
    return resolved


# ---------------------------------------------------------------------------
# Noise filtering
# ---------------------------------------------------------------------------

def test_filter_drops_heartbeats(catalog):
    heartbeat = catalog.find_rpc("nova", "report_state").key
    boot = catalog.find_rest("nova", "POST", "/v2.1/servers").key
    assert filter_noise([heartbeat, boot, heartbeat], catalog) == [boot]


def test_filter_drops_keystone_rest(catalog):
    auth = catalog.find_rest("keystone", "POST", "/v3/auth/tokens").key
    users = catalog.find_rest("keystone", "GET", "/v3/users").key
    boot = catalog.find_rest("nova", "POST", "/v2.1/servers").key
    assert filter_noise([auth, users, boot], catalog) == [boot]


def test_filter_collapses_poll_loops(catalog):
    poll = catalog.find_rest("nova", "GET", "/v2.1/servers/{id}").key
    boot = catalog.find_rest("nova", "POST", "/v2.1/servers").key
    trace = [boot] + [poll] * 10
    assert filter_noise(trace, catalog) == [boot, poll]


def test_filter_keeps_nonconsecutive_reads(catalog):
    poll = catalog.find_rest("nova", "GET", "/v2.1/servers/{id}").key
    boot = catalog.find_rest("nova", "POST", "/v2.1/servers").key
    trace = [poll, boot, poll]
    assert filter_noise(trace, catalog) == [poll, boot, poll]


def test_filter_does_not_collapse_state_changes(catalog):
    boot = catalog.find_rest("nova", "POST", "/v2.1/servers").key
    assert filter_noise([boot, boot], catalog) == [boot, boot]


def test_filter_handles_empty_and_none_traces(catalog):
    assert filter_noise([], catalog) == []
    assert filter_noise(None, catalog) == []


def test_filter_all_noise_trace_yields_empty(catalog):
    heartbeat = catalog.find_rpc("nova", "report_state").key
    auth = catalog.find_rest("keystone", "POST", "/v3/auth/tokens").key
    assert filter_noise([heartbeat, auth, heartbeat], catalog) == []


def test_generate_with_all_noise_traces_yields_empty_fingerprint(
    catalog, symbols
):
    # All-noise traces must flow through LCS as clean empty sequences,
    # not raise from inside the pipeline.
    heartbeat = catalog.find_rpc("nova", "report_state").key
    fp = generate_fingerprint(
        "noisy-op", [[heartbeat], [heartbeat, heartbeat]], symbols, catalog
    )
    assert fp.symbols == ""
    assert fp.state_change_mask == ()


def test_noise_rules_registry_matches_filter_semantics(catalog):
    from repro.core.fingerprint import ALL_NOISE_RULES, NOISE_DROP_RULES

    assert [rule.rule_id for rule in ALL_NOISE_RULES] == [
        "noise-flag", "keystone-rest", "read-collapse",
    ]
    # Every rule can fire against the default catalog (lint NSE001
    # guards the same property).
    for rule in ALL_NOISE_RULES:
        assert any(rule.applies(api) for api in catalog.apis), rule.rule_id
    heartbeat = catalog.find_rpc("nova", "report_state")
    auth = catalog.find_rest("keystone", "POST", "/v3/auth/tokens")
    boot = catalog.find_rest("nova", "POST", "/v2.1/servers")
    assert any(rule.applies(heartbeat) for rule in NOISE_DROP_RULES)
    assert any(rule.applies(auth) for rule in NOISE_DROP_RULES)
    assert not any(rule.applies(boot) for rule in NOISE_DROP_RULES)


# ---------------------------------------------------------------------------
# LCS
# ---------------------------------------------------------------------------

def test_lcs_basics():
    assert longest_common_subsequence("abcde", "ace") == list("ace")
    assert longest_common_subsequence("", "abc") == []
    assert longest_common_subsequence("abc", "xyz") == []
    assert longest_common_subsequence("abc", "abc") == list("abc")


@given(st.text(alphabet="abcd", max_size=15), st.text(alphabet="abcd", max_size=15))
@settings(max_examples=200)
def test_lcs_properties(a, b):
    result = longest_common_subsequence(a, b)
    # Result is a subsequence of both inputs.
    for source in (a, b):
        position = -1
        for ch in result:
            position = source.find(ch, position + 1)
            assert position >= 0
    # Symmetric in length.
    assert len(result) == len(longest_common_subsequence(b, a))
    # Bounded by the shorter input.
    assert len(result) <= min(len(a), len(b))


@given(st.text(alphabet="abcd", max_size=20))
def test_lcs_identity(a):
    assert longest_common_subsequence(a, a) == list(a)


# ---------------------------------------------------------------------------
# prefix_lcs_lengths
# ---------------------------------------------------------------------------

def test_prefix_lcs_lengths_match_full_lcs():
    needle, haystack = "abcab", "xaxbxcxaxbx"
    lengths = prefix_lcs_lengths(needle, haystack)
    assert lengths[0] == 0
    for i in range(1, len(needle) + 1):
        expected = len(longest_common_subsequence(needle[:i], haystack))
        assert lengths[i] == expected


def test_prefix_lcs_empty_cases():
    assert prefix_lcs_lengths("", "abc") == [0]
    assert prefix_lcs_lengths("abc", "") == [0, 0, 0, 0]
    assert prefix_lcs_lengths("abc", "zzz") == [0, 0, 0, 0]


@given(st.text(alphabet="abc", max_size=12), st.text(alphabet="abc", max_size=30))
@settings(max_examples=200)
def test_prefix_lcs_monotone_nondecreasing(needle, haystack):
    lengths = prefix_lcs_lengths(needle, haystack)
    assert all(b - a in (0, 1) for a, b in zip(lengths, lengths[1:]))
    assert lengths[-1] <= min(len(needle), len(haystack))


# ---------------------------------------------------------------------------
# Fingerprint generation
# ---------------------------------------------------------------------------

def test_generate_single_trace(catalog, symbols):
    trace = keys(
        catalog,
        ("rest", "glance", "POST", "/v2/images"),
        ("rest", "nova", "POST", "/v2.1/servers"),
        ("rest", "nova", "GET", "/v2.1/servers/{id}"),
    )
    fingerprint = generate_fingerprint("op", [trace], symbols, catalog)
    assert len(fingerprint) == 3
    assert len(fingerprint.state_change_symbols) == 2


def test_generate_prunes_transients(catalog, symbols):
    common = keys(
        catalog,
        ("rest", "glance", "POST", "/v2/images"),
        ("rest", "nova", "POST", "/v2.1/servers"),
    )
    transient = keys(catalog, ("rest", "nova", "GET", "/v2.1/limits"))
    fingerprint = generate_fingerprint(
        "op", [common, common + transient, transient[:1] + common],
        symbols, catalog,
    )
    assert symbols.decode(fingerprint.symbols) == common


def test_generate_requires_traces(catalog, symbols):
    with pytest.raises(ValueError):
        generate_fingerprint("op", [], symbols, catalog)


def test_rest_only_prunes_rpcs(catalog, symbols):
    trace = keys(
        catalog,
        ("rest", "nova", "POST", "/v2.1/servers"),
        ("rpc", "nova", None, "build_and_run_instance"),
        ("rest", "nova", "GET", "/v2.1/servers/{id}"),
    )
    fingerprint = generate_fingerprint("op", [trace], symbols, catalog)
    pruned = fingerprint.rest_only(symbols)
    assert len(fingerprint) == 3
    assert len(pruned) == 2


def test_rest_only_matches_the_per_symbol_catalog_filter(small_character):
    """The precomputed REST set prunes exactly what asking the catalog
    for each symbol's kind does."""
    library = small_character.library
    symbols = library.symbols
    for operation in library.operations():
        fingerprint = library.get(operation)
        kept = [
            (symbol, is_sc)
            for symbol, is_sc in zip(fingerprint.symbols,
                                     fingerprint.state_change_mask)
            if symbols.api(symbol).kind.value == "rest"
        ]
        pruned = fingerprint.rest_only(symbols)
        assert pruned.symbols == "".join(s for s, _ in kept)
        assert pruned.state_change_mask == tuple(sc for _, sc in kept)
        assert pruned.operation == fingerprint.operation


def test_truncate_at_last_occurrence(catalog, symbols):
    poll = catalog.find_rest("nova", "GET", "/v2.1/servers/{id}").key
    boot = catalog.find_rest("nova", "POST", "/v2.1/servers").key
    delete = catalog.find_rest("nova", "DELETE", "/v2.1/servers/{id}").key
    fingerprint = generate_fingerprint(
        "op", [[boot, poll, delete, poll]], symbols, catalog
    )
    truncated = truncate_at(fingerprint, symbols.symbol(poll))
    assert len(truncated) == 4  # last occurrence is the final element
    truncated2 = truncate_at(fingerprint, symbols.symbol(boot))
    assert len(truncated2) == 1


def test_truncate_missing_symbol_is_identity(catalog, symbols):
    boot = catalog.find_rest("nova", "POST", "/v2.1/servers").key
    fingerprint = generate_fingerprint("op", [[boot]], symbols, catalog)
    assert truncate_at(fingerprint, "￿").symbols == fingerprint.symbols


def test_serialization_roundtrip(catalog, symbols):
    trace = keys(
        catalog,
        ("rest", "nova", "POST", "/v2.1/servers"),
        ("rpc", "nova", None, "select_destinations"),
    )
    fingerprint = generate_fingerprint(
        "op", [trace], symbols, catalog,
        category="compute", nodes=["ctrl"], dependencies=[("ctrl", "mysql")],
    )
    clone = Fingerprint.from_dict(fingerprint.to_dict())
    assert clone.symbols == fingerprint.symbols
    assert clone.state_change_mask == fingerprint.state_change_mask
    assert clone.category == "compute"
    assert clone.nodes == ("ctrl",)
    assert clone.dependencies == (("ctrl", "mysql"),)


# ---------------------------------------------------------------------------
# Library
# ---------------------------------------------------------------------------

def make_library(catalog, symbols, *ops):
    library = FingerprintLibrary(symbols)
    for name, trace in ops:
        library.add(generate_fingerprint(name, [trace], symbols, catalog))
    return library


def test_library_index(catalog, symbols):
    boot = catalog.find_rest("nova", "POST", "/v2.1/servers").key
    upload = catalog.find_rest("glance", "PUT", "/v2/images/{id}/file").key
    library = make_library(
        catalog, symbols,
        ("op-a", [boot]),
        ("op-b", [boot, upload]),
        ("op-c", [upload]),
    )
    boot_sym = symbols.symbol(boot)
    assert {fp.operation for fp in library.ops_containing(boot_sym)} == {"op-a", "op-b"}
    assert library.fp_max == 2
    assert len(library) == 3
    assert "op-a" in library
    assert library.operations() == ["op-a", "op-b", "op-c"]


def test_ops_containing_order_is_sorted_by_operation_name(
    catalog, symbols
):
    """The postings order is a pinned contract (docs/indexing.md):
    sorted by operation name, independent of insertion order."""
    boot = catalog.find_rest("nova", "POST", "/v2.1/servers").key
    library = make_library(
        catalog, symbols,
        ("op-zulu", [boot]),
        ("op-alpha", [boot]),
        ("op-mike", [boot]),
    )
    names = [
        fp.operation
        for fp in library.ops_containing(symbols.symbol(boot))
    ]
    assert names == ["op-alpha", "op-mike", "op-zulu"]
    # postings() exposes the same canonical order for every symbol.
    assert library.postings()[symbols.symbol(boot)] == tuple(names)


def test_library_version_counts_mutations(catalog, symbols):
    boot = catalog.find_rest("nova", "POST", "/v2.1/servers").key
    library = make_library(catalog, symbols, ("op-a", [boot]))
    before = library.version
    library.add(generate_fingerprint("op-b", [[boot]], symbols, catalog))
    assert library.version == before + 1


def test_library_replacement_updates_index(catalog, symbols):
    boot = catalog.find_rest("nova", "POST", "/v2.1/servers").key
    upload = catalog.find_rest("glance", "PUT", "/v2/images/{id}/file").key
    library = make_library(catalog, symbols, ("op-a", [boot]))
    library.add(generate_fingerprint("op-a", [[upload]], symbols, catalog))
    assert library.ops_containing(symbols.symbol(boot)) == []
    assert len(library.ops_containing(symbols.symbol(upload))) == 1
    # Replacement leaves no stale index entries behind.
    assert library.check_index() == []


def test_library_check_index_reports_corruption(catalog, symbols):
    boot = catalog.find_rest("nova", "POST", "/v2.1/servers").key
    library = make_library(catalog, symbols, ("op-a", [boot]))
    assert library.check_index() == []
    library._containing[symbols.symbol(boot)].add("ghost")
    problems = library.check_index()
    assert len(problems) == 1
    assert "ghost" in problems[0]


def test_library_serialization_roundtrip(catalog, symbols):
    boot = catalog.find_rest("nova", "POST", "/v2.1/servers").key
    library = make_library(catalog, symbols, ("op-a", [boot]))
    clone = FingerprintLibrary.from_dict(library.to_dict(), symbols)
    assert clone.get("op-a").symbols == library.get("op-a").symbols
