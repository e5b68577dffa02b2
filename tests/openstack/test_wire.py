"""Tests for wire events, their dict codec and the tap bus."""

import dataclasses
import inspect
import json
import pickle
from dataclasses import FrozenInstanceError, fields

import pytest
from hypothesis import given, settings, strategies as st

from repro.openstack.apis import ApiKind
from repro.openstack.wire import _DEFAULTS, ROW_FIELDS, TapBus, WireEvent


def make_event(seq=1, src_node="ctrl", status=200, kind=ApiKind.REST):
    return WireEvent(
        seq=seq, api_key="rest:nova:GET:/v2.1/servers", kind=kind,
        method="GET", name="/v2.1/servers",
        src_service="horizon", src_node=src_node, src_ip="10.0.0.10",
        dst_service="nova", dst_node="nova-ctl", dst_ip="10.0.0.11",
        ts_request=1.0, ts_response=1.01, status=status,
    )


def test_latency_property():
    assert abs(make_event().latency - 0.01) < 1e-9


def test_error_threshold():
    assert not make_event(status=200).error
    assert not make_event(status=399).error
    assert make_event(status=400).error
    assert make_event(status=503).error


def test_is_rest():
    assert make_event().is_rest
    assert not make_event(kind=ApiKind.RPC).is_rest


def test_node_tap_receives_only_its_traffic():
    bus = TapBus()
    seen_ctrl, seen_other = [], []
    bus.attach("ctrl", seen_ctrl.append)
    bus.attach("nova-ctl", seen_other.append)
    bus.emit(make_event(src_node="ctrl"))
    assert len(seen_ctrl) == 1
    assert len(seen_other) == 0


def test_global_tap_sees_everything():
    bus = TapBus()
    seen = []
    bus.attach_global(seen.append)
    bus.emit(make_event(src_node="ctrl"))
    bus.emit(make_event(seq=2, src_node="nova-ctl"))
    assert len(seen) == 2
    assert bus.emitted == 2


def test_detach_all():
    bus = TapBus()
    seen = []
    bus.attach_global(seen.append)
    bus.detach_all()
    bus.emit(make_event())
    assert not seen


def test_str_rendering():
    text = str(make_event())
    assert "GET" in text
    assert "horizon->nova" in text


# ---------------------------------------------------------------------------
# The dict codec: what reports print
# ---------------------------------------------------------------------------

_text = st.text(max_size=12)  # any code point: JSON must carry it
_time = st.floats(allow_nan=False, allow_infinity=False)

wire_events = st.builds(
    WireEvent,
    seq=st.integers(min_value=0), api_key=_text,
    kind=st.sampled_from(ApiKind), method=_text, name=_text,
    src_service=_text, src_node=_text, src_ip=_text,
    dst_service=_text, dst_node=_text, dst_ip=_text,
    ts_request=_time, ts_response=_time,
    status=st.integers(min_value=0, max_value=599), body=_text,
    conn=st.tuples(_text, st.integers(0, 65535),
                   _text, st.integers(0, 65535)),
    msg_id=_text, size_bytes=st.integers(min_value=0),
    noise=st.booleans(), request_id=_text, tenant=_text,
    resource_ids=st.lists(_text, max_size=3).map(tuple),
    op_id=_text, test_id=_text,
)


@given(event=wire_events)
@settings(max_examples=200, deadline=None)
def test_dict_round_trips_through_json(event):
    keyed = json.loads(json.dumps(event.to_dict()))
    assert WireEvent.from_dict(keyed) == event
    assert list(keyed) == list(ROW_FIELDS)


def test_dict_codec_examples():
    event = WireEvent(
        seq=7, api_key="rpc:nova:cast:build", kind=ApiKind.RPC,
        method="cast", name="build", src_service="nova",
        src_node="n1", src_ip="10.0.0.1", dst_service="nova",
        dst_node="n2", dst_ip="10.0.0.2", ts_request=1.5,
        ts_response=1.75, status=200, body="caf\u00e9 \u2603",
        msg_id="m-1", resource_ids=(),
    )
    keyed = event.to_dict()
    assert keyed["kind"] == "RPC"
    assert keyed["resource_ids"] == []
    assert keyed["conn"] == ["", 0, "", 0]
    assert WireEvent.from_dict(json.loads(json.dumps(keyed))) == event


def test_row_fields_are_the_dataclass_fields_in_order():
    names = [spec.name for spec in fields(WireEvent)]
    assert list(ROW_FIELDS) == names
    assert list(make_event().to_dict()) == names


def test_from_dict_fills_defaults_and_needs_the_rest():
    keyed = make_event().to_dict()
    for name in ("body", "conn", "resource_ids", "test_id"):
        del keyed[name]
    assert WireEvent.from_dict(keyed) == make_event()
    del keyed["seq"]
    with pytest.raises(KeyError, match="seq"):
        WireEvent.from_dict(keyed)


# ---------------------------------------------------------------------------
# The record: frozen, slotted, one constructor, one pickle wire
# ---------------------------------------------------------------------------

def full_event():
    """An event with every field off its default."""
    return WireEvent(
        seq=7, api_key="rpc:nova:cast:build", kind=ApiKind.RPC,
        method="cast", name="build", src_service="nova",
        src_node="n1", src_ip="10.0.0.1", dst_service="nova",
        dst_node="n2", dst_ip="10.0.0.2", ts_request=1.5,
        ts_response=1.75, status=500, body="boom",
        conn=("10.0.0.1", 32768, "10.0.0.2", 80), msg_id="m-1",
        size_bytes=160, noise=True, request_id="req-1", tenant="t-1",
        resource_ids=("vm-1", "vol-2"), op_id="op-3", test_id="test-4",
    )


def test_setting_or_deleting_a_field_is_refused():
    event = make_event()
    with pytest.raises(FrozenInstanceError):
        event.status = 500
    with pytest.raises(FrozenInstanceError):
        del event.status
    assert event.status == 200


def test_events_are_slotted():
    """No per-event ``__dict__``: each event holds its 24 slots only."""
    event = make_event()
    assert not hasattr(event, "__dict__")
    assert WireEvent.__slots__ == ROW_FIELDS


def test_equal_fields_give_equal_events_and_hashes():
    assert full_event() == full_event()
    assert hash(full_event()) == hash(full_event())
    assert full_event() != dataclasses.replace(full_event(), seq=8)
    assert len({full_event(), full_event(), make_event()}) == 2


def test_positional_and_keyword_construction_agree():
    event = full_event()
    values = [getattr(event, name) for name in ROW_FIELDS]
    assert WireEvent(*values) == event
    assert WireEvent(**dict(zip(ROW_FIELDS, values))) == event
    required = [name for name in ROW_FIELDS if name not in _DEFAULTS]
    short = WireEvent(*values[:len(required)])
    for name in ROW_FIELDS:
        expected = _DEFAULTS.get(name, getattr(event, name))
        assert getattr(short, name) == expected, name
    with pytest.raises(TypeError):
        WireEvent(*values[:len(required) - 1])
    with pytest.raises(TypeError):
        WireEvent(*values, "one too many")


def test_constructor_parameters_are_the_row_fields_in_order():
    parameters = inspect.signature(WireEvent).parameters
    assert tuple(parameters) == ROW_FIELDS
    for name, parameter in parameters.items():
        default = _DEFAULTS.get(name, inspect.Parameter.empty)
        assert parameter.default == default, name


def test_replace_keeps_the_other_fields():
    event = full_event()
    moved = dataclasses.replace(event, ts_request=3.0, ts_response=3.5)
    assert (moved.ts_request, moved.ts_response) == (3.0, 3.5)
    for name in ROW_FIELDS:
        if name not in ("ts_request", "ts_response"):
            assert getattr(moved, name) == getattr(event, name), name


@pytest.mark.parametrize("protocol", [2, 5])
def test_pickle_round_trips(protocol):
    events = [full_event(), make_event()]
    clones = pickle.loads(pickle.dumps(events, protocol=protocol))
    assert clones == events
    assert clones[0].kind is ApiKind.RPC


def test_pickle_carries_the_row_order_as_objects():
    """The pickle wire is the constructor call with the values in
    ``ROW_FIELDS`` order; ``kind``, ``conn`` and ``resource_ids``
    travel as objects, not as their JSON renderings."""
    event = full_event()
    cls, values = event.__reduce__()
    assert cls is WireEvent
    assert values == tuple(getattr(event, name) for name in ROW_FIELDS)
    assert values[ROW_FIELDS.index("kind")] is ApiKind.RPC
    assert values[ROW_FIELDS.index("conn")] == (
        "10.0.0.1", 32768, "10.0.0.2", 80)
    assert values[ROW_FIELDS.index("resource_ids")] == ("vm-1", "vol-2")
    assert b"api_key" not in pickle.dumps(event, protocol=5)


def test_repr_is_pinned():
    """Capture digests hash ``repr(event)``, so its text is a format."""
    assert repr(full_event()) == (
        "WireEvent(seq=7, api_key='rpc:nova:cast:build', "
        "kind=<ApiKind.RPC: 'rpc'>, method='cast', name='build', "
        "src_service='nova', src_node='n1', src_ip='10.0.0.1', "
        "dst_service='nova', dst_node='n2', dst_ip='10.0.0.2', "
        "ts_request=1.5, ts_response=1.75, status=500, body='boom', "
        "conn=('10.0.0.1', 32768, '10.0.0.2', 80), msg_id='m-1', "
        "size_bytes=160, noise=True, request_id='req-1', "
        "tenant='t-1', resource_ids=('vm-1', 'vol-2'), op_id='op-3', "
        "test_id='test-4')"
    )
