"""Unit tests for the uniform state-lifecycle protocol helpers."""

import pytest

from repro.core.state import (
    StateError,
    StateFormatError,
    decode_ts,
    encode_ts,
    parse_fmt,
    require_state,
)


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
# timestamp encoding
# ---------------------------------------------------------------------------

def test_encode_ts_maps_neg_inf_to_none():
    assert encode_ts(float("-inf")) is None
    assert encode_ts(12.5) == 12.5


def test_decode_ts_round_trips():
    for value in (float("-inf"), 0.0, -3.25, 1e12):
        assert decode_ts(encode_ts(value)) == value
