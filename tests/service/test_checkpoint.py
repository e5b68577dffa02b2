"""Tests for the durable per-tenant checkpoint store."""

import json
import os

import pytest

from repro.core.state import StateError, StateFormatError
from repro.service import CheckpointStore

STATE = {"tenant": "acme", "queue": []}


def test_save_load_round_trip(tmp_path):
    store = CheckpointStore(tmp_path)
    path = store.save("acme", STATE, seq=42)
    assert path.exists()
    assert store.load("acme") == STATE
    assert store.writes == 1
    assert store.loads == 1
    # The envelope carries the watermark for observability.
    envelope = json.loads(path.read_text())
    assert envelope["seq"] == 42
    assert envelope["fmt"] == CheckpointStore.STATE_FMT


def test_saved_bytes_are_one_compact_dumps(tmp_path):
    store = CheckpointStore(tmp_path)
    state = dict(STATE, queue=[[1, "caf\u00e9", ["", 0, "", 0]]])
    path = store.save("acme", state, seq=7)
    envelope = {"fmt": CheckpointStore.STATE_FMT, "tenant": "acme",
                "seq": 7, "state": state}
    want = json.dumps(envelope, separators=(",", ":")) + "\n"
    assert path.read_bytes() == want.encode("ascii")
    assert store.load("acme") == state
    # What the saves cost, cumulative, for ServiceStats.
    store.save("acme", state, seq=8)
    assert store.writes == 2
    assert store.bytes_written == 2 * len(want) == 2 * path.stat().st_size
    assert store.save_seconds > 0.0


def test_unserializable_state_leaves_previous_checkpoint(tmp_path):
    store = CheckpointStore(tmp_path)
    store.save("acme", dict(STATE, marker=1), seq=1)
    with pytest.raises(TypeError, match="set"):
        store.save("acme", dict(STATE, marker={2}), seq=2)
    assert list(tmp_path.glob("*.tmp")) == []
    assert store.load("acme")["marker"] == 1
    assert store.writes == 1


def test_crash_before_replace_leaves_previous_checkpoint(
        tmp_path, monkeypatch):
    store = CheckpointStore(tmp_path)
    store.save("acme", dict(STATE, marker=1), seq=1)

    def killed(src, dst):
        raise OSError("killed between write and replace")

    monkeypatch.setattr(os, "replace", killed)
    with pytest.raises(OSError, match="killed"):
        store.save("acme", dict(STATE, marker=2), seq=2)
    monkeypatch.undo()
    assert store.load("acme")["marker"] == 1
    assert store.tenants() == ["acme"]  # the orphan .tmp is not listed
    store.save("acme", dict(STATE, marker=3), seq=3)
    assert store.load("acme")["marker"] == 3
    assert list(tmp_path.glob("*.tmp")) == []


def test_load_missing_returns_none(tmp_path):
    store = CheckpointStore(tmp_path)
    assert store.load("nobody") is None
    assert store.loads == 0


def test_save_overwrites_atomically(tmp_path):
    store = CheckpointStore(tmp_path)
    store.save("acme", dict(STATE, marker=1), seq=1)
    store.save("acme", dict(STATE, marker=2), seq=2)
    assert store.load("acme")["marker"] == 2
    # No temp files left behind.
    assert [p.name for p in tmp_path.glob("*.tmp")] == []


def test_tenant_ids_are_sanitized_into_filenames(tmp_path):
    store = CheckpointStore(tmp_path)
    path = store.path_for("cloud/eu-west 1")
    assert path.name == "cloud_eu-west_1.checkpoint.json"
    assert store.path_for("") .name == "_.checkpoint.json"


def test_colliding_sanitized_ids_fail_loudly(tmp_path):
    store = CheckpointStore(tmp_path)
    # "a/b" and "a_b" share a filename; loading the other tenant must
    # refuse rather than silently restore the wrong stream position.
    store.save("a/b", dict(STATE, tenant="a/b"), seq=1)
    assert store.path_for("a/b") == store.path_for("a_b")
    with pytest.raises(StateError, match="belongs to tenant"):
        store.load("a_b")


def test_corrupt_checkpoint_raises(tmp_path):
    store = CheckpointStore(tmp_path)
    store.path_for("acme").write_text("{not json")
    with pytest.raises(StateError, match="unreadable"):
        store.load("acme")


def test_foreign_envelope_fmt_raises(tmp_path):
    """The envelope's tag covers the session document inside it."""
    store = CheckpointStore(tmp_path)
    for version, match in ((99, "newer"), (1, "older")):
        store.path_for("acme").write_text(json.dumps({
            "fmt": f"gretel-checkpoint/v{version}", "tenant": "acme",
            "seq": 0, "state": {}}))
        with pytest.raises(StateFormatError, match=match):
            store.load("acme")


def test_envelope_without_state_dict_raises(tmp_path):
    store = CheckpointStore(tmp_path)
    store.path_for("acme").write_text(
        json.dumps({"fmt": CheckpointStore.STATE_FMT, "tenant": "acme",
                    "seq": 0, "state": None})
    )
    with pytest.raises(StateError, match="no state dict"):
        store.load("acme")
    # The key missing altogether is the same refusal, not a KeyError.
    store.path_for("acme").write_text(
        json.dumps({"fmt": CheckpointStore.STATE_FMT, "tenant": "acme"})
    )
    with pytest.raises(StateError, match="no state dict"):
        store.load("acme")


def test_tenants_listing_and_delete(tmp_path):
    store = CheckpointStore(tmp_path)
    for tenant in ("beta", "alpha", "gamma"):
        store.save(tenant, dict(STATE, tenant=tenant), seq=0)
    (tmp_path / "junk.checkpoint.json").write_text("not json")
    # Valid JSON that is not an envelope is skipped the same way.
    (tmp_path / "list.checkpoint.json").write_text("[]")
    (tmp_path / "null.checkpoint.json").write_text("null")
    assert store.tenants() == ["alpha", "beta", "gamma"]
    assert store.delete("beta")
    assert not store.delete("beta")
    assert store.tenants() == ["alpha", "gamma"]
