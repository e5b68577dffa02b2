"""Tests for operation detection (Algorithm 2)."""

from dataclasses import replace

import pytest

from repro.openstack.catalog import default_catalog
from repro.openstack.wire import WireEvent
from repro.core.config import GretelConfig
from repro.core.detector import OperationDetector
from repro.core.fingerprint import FingerprintLibrary, generate_fingerprint
from repro.core.symbols import SymbolTable
from repro.core.window import Snapshot


@pytest.fixture(scope="module")
def catalog():
    return default_catalog()


@pytest.fixture(scope="module")
def symbols(catalog):
    return SymbolTable(catalog)


# A small controlled universe of operations.
BOOT = ("rest", "nova", "POST", "/v2.1/servers")
PORT = ("rest", "neutron", "POST", "/v2.0/ports.json")
IMAGE = ("rest", "glance", "POST", "/v2/images")
UPLOAD = ("rest", "glance", "PUT", "/v2/images/{id}/file")
VOLUME = ("rest", "cinder", "POST", "/v2/{tenant}/volumes")
POLL = ("rest", "nova", "GET", "/v2.1/servers/{id}")
DEL_SRV = ("rest", "nova", "DELETE", "/v2.1/servers/{id}")
KEYPAIR = ("rest", "nova", "POST", "/v2.1/os-keypairs")
RPC_BUILD = ("rpc", "nova", None, "build_and_run_instance")
LIST_IMAGES = ("rest", "glance", "GET", "/v2/images")


def to_keys(catalog, specs):
    keys = []
    for kind, service, method, name in specs:
        if kind == "rest":
            keys.append(catalog.find_rest(service, method, name).key)
        else:
            keys.append(catalog.find_rpc(service, name).key)
    return keys


@pytest.fixture(scope="module")
def library(catalog, symbols):
    library = FingerprintLibrary(symbols)
    operations = {
        "op-boot": [IMAGE, UPLOAD, BOOT, RPC_BUILD, PORT, POLL, DEL_SRV],
        "op-image": [IMAGE, UPLOAD, LIST_IMAGES],
        "op-volume-boot": [VOLUME, IMAGE, UPLOAD, BOOT, RPC_BUILD, PORT, POLL],
        "op-keypair-boot": [KEYPAIR, IMAGE, UPLOAD, BOOT, RPC_BUILD, PORT, POLL],
        "op-reads": [LIST_IMAGES, POLL],
    }
    for name, specs in operations.items():
        library.add(generate_fingerprint(
            name, [to_keys(catalog, specs)], symbols, catalog,
        ))
    return library


def make_detector(library, symbols, catalog, **overrides):
    config = GretelConfig(**overrides)
    return OperationDetector(library, symbols, catalog, config)


def make_snapshot(catalog, specs, fault_spec, fault_status=500):
    keys = to_keys(catalog, specs)
    fault_key = to_keys(catalog, [fault_spec])[0]
    events = []
    fault_event = None
    for index, key in enumerate(keys):
        api = catalog.get(key)
        status = 200
        if key == fault_key and fault_event is None and index == len(keys) - 1:
            status = fault_status
        event = WireEvent(
            seq=index, api_key=key, kind=api.kind, method=api.method,
            name=api.name, src_service="x", src_node="ctrl", src_ip="1",
            dst_service=api.service, dst_node="nova-ctl", dst_ip="2",
            ts_request=index * 0.1, ts_response=index * 0.1 + 0.01,
            status=status,
        )
        events.append(event)
        if status >= 400:
            fault_event = event
    if fault_event is None:
        fault_event = events[-1]
    return Snapshot(events=events, fault_index=events.index(fault_event))


def test_detects_single_matching_operation(library, symbols, catalog):
    detector = make_detector(library, symbols, catalog)
    snapshot = make_snapshot(
        catalog, [KEYPAIR, IMAGE, UPLOAD, BOOT, PORT, POLL], POLL,
    )
    result = detector.detect(snapshot)
    assert result.operations == ["op-keypair-boot"]
    assert len(result.matched) == 1
    assert result.theta == 1.0


def test_candidates_are_ops_containing_offending_api(library, symbols, catalog):
    detector = make_detector(library, symbols, catalog)
    snapshot = make_snapshot(catalog, [IMAGE, UPLOAD], UPLOAD)
    result = detector.detect(snapshot)
    # Four fingerprints contain the upload API.
    assert result.candidates == 4


def test_selection_counters_grow_on_every_call(library, symbols, catalog):
    """Every ``candidates_for`` call is served by the shared compiled
    index, so both counters grow by the selection's size each time;
    a checkpoint carries the counters alone, with no selection to
    replay on restore."""
    poll, boot = to_keys(catalog, [POLL, BOOT])
    snapshot = make_snapshot(
        catalog, [KEYPAIR, IMAGE, UPLOAD, BOOT, PORT, POLL], POLL,
    )
    plan = [(poll, True), (poll, True), (boot, False), (poll, False),
            (boot, True), (poll, True)]

    def run(detector, steps):
        for api_key, truncate in steps:
            scanned = detector.postings_scanned
            indexed = detector.candidates_indexed
            size = len(detector.candidates_for(api_key, truncate=truncate))
            assert size > 0
            assert detector.postings_scanned == scanned + size
            assert detector.candidates_indexed == indexed + size
        detector.detect(snapshot)

    straight = make_detector(library, symbols, catalog)
    run(straight, plan)
    cut = make_detector(library, symbols, catalog)
    run(cut, plan[:3])
    state = cut.snapshot_state()
    assert "selections" not in state
    resumed = make_detector(library, symbols, catalog)
    resumed.restore_state(state)
    assert resumed.snapshot_state() == state
    run(resumed, plan[3:])
    straight.detect(snapshot)
    assert resumed.snapshot_state() == straight.snapshot_state()


def test_no_candidates_for_unknown_api(library, symbols, catalog):
    detector = make_detector(library, symbols, catalog)
    unknown = ("rest", "swift", "GET", "/info")
    snapshot = make_snapshot(catalog, [unknown], unknown)
    result = detector.detect(snapshot)
    assert result.matched == []
    assert result.candidates == 0


def test_truncation_allows_partial_execution(library, symbols, catalog):
    """A fault at the port step must match boot ops even though their
    later steps (poll/delete) never executed."""
    detector = make_detector(library, symbols, catalog)
    snapshot = make_snapshot(catalog, [VOLUME, IMAGE, UPLOAD, BOOT, PORT], PORT)
    result = detector.detect(snapshot)
    assert "op-volume-boot" in result.operations


def test_ranking_prefers_longest_corroboration(library, symbols, catalog):
    """With a keypair-boot running, the generic image op (a subsequence)
    must be outranked by the longer corroborated fingerprint."""
    detector = make_detector(library, symbols, catalog)
    snapshot = make_snapshot(
        catalog, [KEYPAIR, IMAGE, UPLOAD, BOOT, PORT, POLL], POLL,
    )
    result = detector.detect(snapshot)
    assert result.operations == ["op-keypair-boot"]
    assert "op-reads" not in result.operations


def test_relaxed_match_tolerates_interleaving(library, symbols, catalog):
    """Foreign messages between the operation's own must not break it."""
    detector = make_detector(library, symbols, catalog)
    snapshot = make_snapshot(
        catalog,
        [KEYPAIR, LIST_IMAGES, IMAGE, VOLUME, UPLOAD, LIST_IMAGES, BOOT,
         PORT, POLL],
        POLL,
    )
    result = detector.detect(snapshot)
    assert "op-keypair-boot" in result.operations


def test_performance_fault_uses_full_fingerprint(library, symbols, catalog):
    detector = make_detector(library, symbols, catalog)
    snapshot = make_snapshot(
        catalog, [IMAGE, UPLOAD, BOOT, PORT, POLL, DEL_SRV], PORT,
        fault_status=200,
    )
    result = detector.detect(snapshot, performance_fault=True)
    assert "op-boot" in result.operations


def test_rpc_pruning_flag(library, symbols, catalog):
    """With pruning off, RPC symbols participate in matching."""
    with_pruning = make_detector(library, symbols, catalog, prune_rpcs=True)
    without = make_detector(library, symbols, catalog, prune_rpcs=False)
    specs = [KEYPAIR, IMAGE, UPLOAD, BOOT, RPC_BUILD, PORT, POLL]
    snapshot = make_snapshot(catalog, specs, POLL)
    assert "op-keypair-boot" in with_pruning.detect(snapshot).operations
    assert "op-keypair-boot" in without.detect(snapshot).operations
    # The one encoder: a blank fragment excludes an event from
    # matching — pruned RPCs, and noise whatever the flag says.
    rpc = specs.index(RPC_BUILD)
    assert with_pruning.fragments(snapshot.events)[rpc] == ""
    assert all(without.fragments(snapshot.events))
    noisy = [replace(event, noise=True) for event in snapshot.events]
    assert not any(without.fragments(noisy))


def test_rpc_fault_falls_back_to_unpruned(library, symbols, catalog):
    """A fault on an RPC API must still find candidates under pruning."""
    detector = make_detector(library, symbols, catalog, prune_rpcs=True)
    snapshot = make_snapshot(
        catalog, [KEYPAIR, IMAGE, UPLOAD, BOOT, RPC_BUILD], RPC_BUILD,
    )
    result = detector.detect(snapshot)
    assert result.candidates == 3  # the three boot variants


def test_matched_events_filtered_to_operations(library, symbols, catalog):
    detector = make_detector(library, symbols, catalog)
    snapshot = make_snapshot(
        catalog, [KEYPAIR, IMAGE, VOLUME, UPLOAD, BOOT, PORT, POLL], POLL,
    )
    result = detector.detect(snapshot)
    assert result.matched_events
    volume_key = to_keys(catalog, [VOLUME])[0]
    matched_keys = {event.api_key for event in result.matched_events}
    assert volume_key not in matched_keys  # not part of the matched op


def test_coverage_reported(library, symbols, catalog):
    detector = make_detector(library, symbols, catalog)
    snapshot = make_snapshot(
        catalog, [KEYPAIR, IMAGE, UPLOAD, BOOT, PORT, POLL], POLL,
    )
    result = detector.detect(snapshot)
    assert result.coverages["op-keypair-boot"] == pytest.approx(1.0)


def test_adaptive_context_disabled_matches_whole_snapshot(
        library, symbols, catalog):
    detector = make_detector(library, symbols, catalog, adaptive_context=False)
    snapshot = make_snapshot(
        catalog, [KEYPAIR, IMAGE, UPLOAD, BOOT, PORT, POLL], POLL,
    )
    result = detector.detect(snapshot)
    assert result.iterations == 1
    assert "op-keypair-boot" in result.operations
