"""Tests for operational fault detection (regex scans)."""

import re

import pytest

from repro.openstack.apis import ApiKind
from repro.openstack.wire import WireEvent
from repro.core.analyzer import GretelAnalyzer
from repro.core.fingerprint import FingerprintLibrary
from repro.core.opfaults import RPC_ERROR_PATTERN, rpc_body_error
from repro.core.symbols import SymbolTable
from repro.openstack.catalog import default_catalog


def make_event(kind=ApiKind.REST, status=200, body=""):
    return WireEvent(
        seq=1, api_key="k", kind=kind, method="GET" if kind is ApiKind.REST else "call",
        name="/x", src_service="a", src_node="n1", src_ip="1",
        dst_service="b", dst_node="n2", dst_ip="2",
        ts_request=0.0, ts_response=0.01, status=status, body=body,
    )


def make_analyzer():
    """An analyzer over an empty library: the fault scan needs none."""
    library = FingerprintLibrary(SymbolTable(default_catalog()))
    return GretelAnalyzer(library, track_latency=False)


def test_rest_status_codes():
    """REST statuses from 400 and RPC error statuses are counted as
    operational faults; a healthy REST response is not."""
    analyzer = make_analyzer()
    for event, faults_seen in (
        (make_event(status=200), 0),
        (make_event(status=404), 1),
        (make_event(status=500), 2),
        (make_event(kind=ApiKind.RPC, status=500), 3),
    ):
        analyzer.on_event(event)
        assert analyzer.operational_faults_seen == faults_seen


def test_rpc_failure_envelope_detected():
    event = make_event(kind=ApiKind.RPC, status=200,
                       body='{"oslo.message": {"failure": "RemoteError"}}')
    assert rpc_body_error(event)


def test_rpc_timeout_detected():
    event = make_event(kind=ApiKind.RPC, status=200,
                       body="MessagingTimeout: no reply on topic nova")
    assert rpc_body_error(event)


def test_rpc_no_valid_host_detected():
    event = make_event(kind=ApiKind.RPC, status=200,
                       body='{"failure": "NoValidHost", "message": "..."}')
    assert rpc_body_error(event)


def test_rpc_healthy_body_clean():
    event = make_event(kind=ApiKind.RPC, status=200,
                       body='{"result": {"host": "compute-1"}}')
    assert not rpc_body_error(event)


def test_rpc_empty_body_clean():
    assert not rpc_body_error(make_event(kind=ApiKind.RPC, status=200))


def test_rpc_error_status_detected_without_body():
    assert rpc_body_error(make_event(kind=ApiKind.RPC, status=500))


def test_rest_fault_gate_is_rest_only():
    """Only a REST error freezes the window (§5.3.1 "Improving
    precision"); an RPC error is counted but schedules no snapshot."""
    analyzer = make_analyzer()
    for event, faults_seen, pending in (
        (make_event(status=500), 1, 1),
        (make_event(status=200), 1, 1),
        (make_event(kind=ApiKind.RPC, status=500), 2, 1),
    ):
        analyzer.on_event(event)
        assert analyzer.operational_faults_seen == faults_seen
        assert len(analyzer.window.pending) == pending


def test_generic_error_message_pattern():
    event = make_event(kind=ApiKind.RPC, status=200,
                       body='{"message": "volume backend unavailable"}')
    assert rpc_body_error(event)


#: The six separate signatures the one alternation replaced, kept as
#: its oracle: a body is faulty iff any of them matches.
SEPARATE_PATTERNS = [
    re.compile(r'"failure"\s*:'),
    re.compile(r"MessagingTimeout"),
    re.compile(r"RemoteError"),
    re.compile(r"NoValidHost"),
    re.compile(r"Traceback \(most recent call last\)"),
    re.compile(
        r'"message"\s*:\s*".*(?:error|failed|unavailable|timeout)',
        re.IGNORECASE,
    ),
]


@pytest.mark.parametrize("body, faulty", [
    # One witness per separate signature.
    ('{"failure": "x"}', True),
    ("MessagingTimeout: no reply on topic nova", True),
    ("oslo_messaging.rpc.client.RemoteError: boom", True),
    ("NoValidHost: No valid host was found", True),
    ("Traceback (most recent call last):\n  File", True),
    ('{"message": "volume backend unavailable"}', True),
    # Case is ignored only in the "message" branch.
    ('{"MESSAGE": "x FAILED"}', True),
    ("messagingtimeout", False),
    ("remoteerror novalidhost", False),
    ('"FAILURE": "x"', False),
    # Healthy bodies, and "message" without an error word.
    ('{"result": {"host": "compute-1"}}', False),
    ('{"message": "ok"}', False),
    # ``.`` stops at a newline, so the error word must share the line.
    ('{"message": "ok",\n"note": "error"}', False),
])
def test_rpc_error_pattern_table(body, faulty):
    assert (RPC_ERROR_PATTERN.search(body) is not None) is faulty
    assert any(p.search(body) for p in SEPARATE_PATTERNS) is faulty
