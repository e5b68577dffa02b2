"""Unit tests for the uniform state-lifecycle protocol helpers."""

import json

import pytest

from repro.core.state import (
    SEPARATOR,
    StateError,
    StateFormatError,
    decode_events,
    decode_key,
    encode_events,
    parse_fmt,
    require_state,
)
from repro.openstack.apis import ApiKind
from repro.openstack.wire import ROW_FIELDS, WireEvent


# ---------------------------------------------------------------------------
# parse_fmt
# ---------------------------------------------------------------------------

def test_parse_fmt_splits_layer_and_version():
    assert parse_fmt("sliding-window/v1") == ("sliding-window", 1)
    assert parse_fmt("a/v0") == ("a", 0)
    assert parse_fmt("nested/path/v12") == ("nested/path", 12)


@pytest.mark.parametrize("tag", [
    None, 7, "", "no-version", "/v1", "layer/v", "layer/vx",
    "layer/v-1", "layer/v1.5",
])
def test_parse_fmt_rejects_malformed_tags(tag):
    with pytest.raises(StateFormatError):
        parse_fmt(tag)


# ---------------------------------------------------------------------------
# require_state
# ---------------------------------------------------------------------------

def test_require_state_accepts_only_the_current_version():
    require_state({"fmt": "layer/v2"}, "layer/v2")
    # No layer migrates, so an older document is refused by name.
    with pytest.raises(StateFormatError, match="layer/v1.*layer/v2"):
        require_state({"fmt": "layer/v1"}, "layer/v2")


def test_require_state_refuses_newer_versions():
    with pytest.raises(StateFormatError, match="newer than supported"):
        require_state({"fmt": "layer/v3"}, "layer/v2")


def test_require_state_refuses_foreign_layers():
    with pytest.raises(StateFormatError, match="not a 'layer'"):
        require_state({"fmt": "other/v1"}, "layer/v1")


def test_require_state_refuses_missing_fmt():
    with pytest.raises(StateFormatError, match="no fmt tag"):
        require_state({}, "layer/v1")


def test_require_state_refuses_non_mapping():
    with pytest.raises(StateFormatError, match="must be a mapping"):
        require_state(["fmt"], "layer/v1")


def test_state_format_error_is_a_state_error():
    # Callers catch StateError for every restore failure; the fmt
    # subclass must stay inside that hierarchy.
    assert issubclass(StateFormatError, StateError)
    assert issubclass(StateError, ValueError)


# ---------------------------------------------------------------------------
# event column blocks
# ---------------------------------------------------------------------------

def make_event(seq, **fields):
    return WireEvent(
        seq, "rest:nova:GET:/v2.1/servers", ApiKind.REST, "GET",
        "/v2.1/servers", "horizon", "ctrl", "10.0.0.10", "nova",
        "nova-ctl", "10.0.0.11", seq * 1.0, seq * 1.0 + 0.01, 200,
        **fields,
    )


def round_trip(block):
    return decode_events(json.loads(json.dumps(block)))


def test_event_block_is_one_scalar_per_column():
    events = [make_event(1, conn=("a", 80, "b", 9000),
                         resource_ids=("r1", "r2"), noise=True),
              make_event(2, resource_ids=("r3",))]
    block = encode_events(events)
    assert block["rows"] == 2
    for name in ROW_FIELDS:
        if name not in ("conn", "resource_ids"):
            assert isinstance(block[name], str), name
    assert block["src_node"] == "ctrl|ctrl"
    assert block["kind"] == "00" and block["noise"] == "10"
    assert block["conn"]["lengths"] == "44"
    assert block["conn"]["kinds"] == "sqsq"
    assert block["resource_ids"] == {
        "lengths": "21", "kinds": "ss", "parts": ["r1|r3", "r2"],
    }
    assert round_trip(block) == events


def test_a_value_holding_the_separator_keeps_its_column_a_list():
    events = [make_event(1, body=f"a{SEPARATOR}b"),
              make_event(2, resource_ids=(f"x{SEPARATOR}",))]
    block = encode_events(events)
    assert block["body"] == [f"a{SEPARATOR}b", ""]
    assert block["resource_ids"]["kinds"] == "l"
    assert block["api_key"].count(SEPARATOR) == 1
    assert round_trip(block) == events


def test_empty_strings_and_empty_blocks_round_trip():
    for events in ([], [make_event(0)], [make_event(0), make_event(1)]):
        block = encode_events(events)
        assert block["body"] == SEPARATOR * max(len(events) - 1, 0)
        assert round_trip(block) == events
    empty = encode_events([])
    assert empty["rows"] == 0 and empty["seq"] == ""
    assert empty["conn"] == {"lengths": "", "kinds": "", "parts": []}


def test_an_int_beyond_int64_keeps_its_column_a_list():
    huge = [make_event(2**63), make_event(-2**63 - 1, size_bytes=2**70)]
    block = encode_events(huge)
    assert block["seq"] == [2**63, -2**63 - 1]
    assert block["size_bytes"] == [192, 2**70]
    assert isinstance(block["status"], str)
    assert round_trip(block) == huge
    edge = [make_event(2**63 - 1), make_event(-2**63)]
    assert isinstance(encode_events(edge)["seq"], str)
    assert round_trip(encode_events(edge)) == edge


def test_tuples_longer_than_nine_round_trip():
    events = [make_event(1, resource_ids=tuple(map(str, range(12)))),
              make_event(2)]
    block = encode_events(events)
    assert block["resource_ids"]["lengths"] == [12, 0]
    assert round_trip(block) == events


def corrupt(**changes):
    block = json.loads(json.dumps(encode_events(
        [make_event(1, conn=("a", 1, "b", 2)), make_event(2),
         make_event(3, resource_ids=("r",))]
    )))
    for path, value in changes.items():
        *parents, key = path.split("__")
        node = block
        for parent in parents:
            node = node[parent]
        node[key] = value
    return block


@pytest.mark.parametrize("changes, named", [
    ({"rows": "3"}, "rows: expected int, got str"),
    ({"api_key": "a|b"}, "api_key: 2 values for 3 rows"),
    ({"method": 7}, "method: expected joined text or a list, got int"),
    ({"seq": "AAAA"}, "seq: 3 bytes is not a whole number of int64"),
    ({"status": [200]}, "status: 1 values for 3 rows"),
    ({"kind": "019"}, "kind: '9' is none of kind codes"),
    ({"noise": "0x0"}, "noise: 'x' is none of 0/1 flags"),
    ({"conn__lengths": "4x4"}, "conn.lengths: expected one digit per row"),
    ({"conn__lengths": "44"}, "conn.lengths: 2 lengths for 3 rows"),
    ({"conn__kinds": "sqs"}, "conn.parts: 3 kinds and 4 parts"),
    ({"conn__kinds": "sqsz"}, r"conn.parts\[3\]: not a part of kind 'z'"),
    ({"resource_ids__parts": ["r|s"]},
     r"resource_ids.parts\[0\]: 2 values for 1 rows"),
    ({"test_id": None}, "test_id: expected joined text or a list"),
])
def test_malformed_columns_are_refused_by_key_path(changes, named):
    with pytest.raises(StateError, match=rf"^events\.{named}"):
        decode_key({"events": corrupt(**changes)}, "events", decode_events)
