"""Tests for the durable per-tenant checkpoint store."""

import json
import os

import pytest

from repro.core.state import StateError, StateFormatError
from repro.service import CheckpointStore

STATE = {"queue": []}


def test_save_load_round_trip(tmp_path):
    store = CheckpointStore(tmp_path)
    path = store.save("acme", STATE, seq=42)
    assert path.exists()
    assert store.load_all() == {"acme": STATE}
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
    assert store.load_all() == {"acme": state}
    # What the saves cost, cumulative, for ServiceStats.
    store.save("acme", state, seq=8)
    assert store.bytes_written == 2 * len(want) == 2 * path.stat().st_size
    assert store.save_seconds > 0.0


def test_unserializable_state_leaves_previous_checkpoint(tmp_path):
    store = CheckpointStore(tmp_path)
    store.save("acme", dict(STATE, marker=1), seq=1)
    with pytest.raises(TypeError, match="set"):
        store.save("acme", dict(STATE, marker={2}), seq=2)
    assert list(tmp_path.glob("*.tmp")) == []
    assert store.load_all()["acme"]["marker"] == 1
    # The refused save wrote nothing, and counts no bytes.
    assert store.bytes_written == store.path_for("acme").stat().st_size


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
    # The orphan .tmp is not listed.
    assert store.load_all() == {"acme": dict(STATE, marker=1)}
    store.save("acme", dict(STATE, marker=3), seq=3)
    assert store.load_all()["acme"]["marker"] == 3
    assert list(tmp_path.glob("*.tmp")) == []


def test_load_missing_returns_none(tmp_path):
    """A tenant with no file is absent from the one reader's result."""
    store = CheckpointStore(tmp_path)
    assert store.load_all() == {}
    store.save("acme", STATE, seq=0)
    assert "nobody" not in store.load_all()


def test_save_overwrites_atomically(tmp_path):
    store = CheckpointStore(tmp_path)
    store.save("acme", dict(STATE, marker=1), seq=1)
    store.save("acme", dict(STATE, marker=2), seq=2)
    assert store.load_all()["acme"]["marker"] == 2
    # No temp files left behind.
    assert [p.name for p in tmp_path.glob("*.tmp")] == []


def test_tenant_ids_are_sanitized_into_filenames(tmp_path):
    """One to one: every byte outside ``[A-Za-z0-9_.~-]`` is
    percent-encoded, and the empty id, which nothing else encodes to,
    is ``%``."""
    store = CheckpointStore(tmp_path)
    assert store.path_for("tenant-0").name == "tenant-0.checkpoint.json"
    path = store.path_for("cloud/eu-west 1")
    assert path.name == "cloud%2Feu-west%201.checkpoint.json"
    assert store.path_for("").name == "%.checkpoint.json"
    assert store.path_for("%").name == "%25.checkpoint.json"


def test_ids_that_once_shared_a_file_each_keep_their_own(tmp_path):
    """"a/b" and "a_b" (and "", "_", "%") each checkpoint to a file of
    their own and come back with their own state."""
    store = CheckpointStore(tmp_path)
    tenants = ("a/b", "a_b", "", "_", "%")
    for marker, tenant in enumerate(tenants):
        store.save(tenant, dict(STATE, marker=marker), seq=marker)
    assert len(set(map(store.path_for, tenants))) == len(tenants)
    loaded = CheckpointStore(tmp_path).load_all()
    assert {tenant: loaded[tenant]["marker"] for tenant in tenants} == {
        tenant: marker for marker, tenant in enumerate(tenants)
    }


def test_a_file_under_another_tenants_name_is_refused(tmp_path):
    """The envelope's tenant is the file's identity: a file renamed to
    another tenant's name is refused on load, not restored as that
    tenant."""
    store = CheckpointStore(tmp_path)
    store.save("a/b", STATE, seq=1)
    store.path_for("a/b").rename(store.path_for("other"))
    with pytest.raises(StateError, match="belongs to tenant 'a/b'"):
        store.load_all()


def test_corrupt_checkpoint_raises(tmp_path):
    store = CheckpointStore(tmp_path)
    store.path_for("acme").write_text("{not json")
    with pytest.raises(StateError, match="unreadable checkpoint at"):
        store.load_all()


def test_foreign_envelope_fmt_raises(tmp_path):
    """The envelope's tag covers the session document inside it."""
    store = CheckpointStore(tmp_path)
    for version, match in ((99, "newer"), (1, "older")):
        store.path_for("acme").write_text(json.dumps({
            "fmt": f"gretel-checkpoint/v{version}", "tenant": "acme",
            "seq": 0, "state": {}}))
        with pytest.raises(StateFormatError, match=match):
            store.load_all()


def test_envelope_without_state_dict_raises(tmp_path):
    store = CheckpointStore(tmp_path)
    store.path_for("acme").write_text(
        json.dumps({"fmt": CheckpointStore.STATE_FMT, "tenant": "acme",
                    "seq": 0, "state": None})
    )
    with pytest.raises(StateError, match="no state dict"):
        store.load_all()
    # The key missing altogether is the same refusal, not a KeyError.
    store.path_for("acme").write_text(
        json.dumps({"fmt": CheckpointStore.STATE_FMT, "tenant": "acme"})
    )
    with pytest.raises(StateError, match="no state dict"):
        store.load_all()


def test_tenants_listing_and_delete(tmp_path):
    """``load_all`` lists every tenant, and refuses the whole directory
    over any file it cannot read: junk, valid JSON that is not an
    object, or an object that names no tenant.  It returns nothing
    then, so a restart cannot leave a tenant behind unnoticed."""
    store = CheckpointStore(tmp_path)
    for tenant in ("beta", "alpha", "gamma"):
        store.save(tenant, STATE, seq=0)
    assert sorted(store.load_all()) == ["alpha", "beta", "gamma"]
    store.path_for("beta").unlink()
    assert sorted(store.load_all()) == ["alpha", "gamma"]
    nameless = json.dumps({"fmt": CheckpointStore.STATE_FMT, "state": {}})
    for name, text, reason in (
        ("junk", "not json", "unreadable checkpoint at"),
        ("list", "[]", "is not an object"),
        ("null", "null", "is not an object"),
        ("nameless", nameless, "names no tenant"),
    ):
        junk = tmp_path / f"{name}.checkpoint.json"
        junk.write_text(text)
        with pytest.raises(StateError, match=reason) as refused:
            store.load_all()
        assert str(junk) in str(refused.value)
        junk.unlink()
    assert sorted(store.load_all()) == ["alpha", "gamma"]
