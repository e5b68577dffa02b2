"""Tests for wire-trace capture and replay."""

import json
from dataclasses import fields

import pytest

from repro.openstack.cloud import Cloud
from repro.openstack.config import CloudConfig
from repro.openstack.wire import WireEvent
from repro.workloads.capture import (
    TraceRecorder,
    load_trace,
    replay,
    rescale,
)


@pytest.fixture()
def recorded(tmp_path):
    cloud = Cloud(seed=19, config=CloudConfig(heartbeats_enabled=False))
    recorder = TraceRecorder(cloud)
    ctx = cloud.client_context(op_id="trace-op")

    def op():
        yield from ctx.rest("glance", "POST", "/v2/images", {"name": "x"})
        yield from ctx.rest("glance", "GET", "/v2/images")

    process = cloud.sim.spawn(op())
    cloud.run_until([process])
    path = str(tmp_path / "trace.jsonl")
    recorder.save(path)
    return recorder, path


def test_recorder_captures_everything(recorded):
    recorder, _ = recorded
    assert len(recorder) >= 3  # auth + two calls


def test_roundtrip_preserves_events(recorded):
    recorder, path = recorded
    loaded = load_trace(path)
    assert len(loaded) == len(recorder)
    for original, clone in zip(recorder.events, loaded):
        assert clone.api_key == original.api_key
        assert clone.kind == original.kind
        assert clone.status == original.status
        assert clone.ts_response == pytest.approx(original.ts_response)
        assert clone.op_id == original.op_id
        assert clone.conn == original.conn


def test_event_dict_roundtrip(recorded):
    """A saved line is ``WireEvent.to_dict``: every field of the
    record, so one added to ``WireEvent`` cannot be dropped from
    traces, and the loaded events equal the recorded ones."""
    recorder, path = recorded
    with open(path, encoding="utf-8") as handle:
        records = [json.loads(line) for line in handle]
    names = {spec.name for spec in fields(WireEvent)}
    assert all(set(record) == names for record in records)
    assert load_trace(path) == recorder.events


def test_rescale_preserves_latency(recorded):
    recorder, _ = recorded
    doubled = list(rescale(recorder.events, multiplier=2.0))
    for original, fast in zip(recorder.events, doubled):
        assert fast.latency == pytest.approx(original.latency)
        assert fast.ts_response == pytest.approx(original.ts_response / 2.0)


def test_rescale_validation(recorded):
    recorder, _ = recorded
    with pytest.raises(ValueError):
        list(rescale(recorder.events, multiplier=0.0))


def test_replay_into_gretel(recorded, small_character):
    from repro.core.analyzer import GretelAnalyzer
    from repro.core.config import GretelConfig

    recorder, path = recorded
    analyzer = GretelAnalyzer(small_character.library,
                              config=GretelConfig(p_rate=150.0))
    count = replay(load_trace(path), analyzer.on_event)
    assert count == len(recorder)
    assert analyzer.events_processed == count


def test_replay_faulty_trace_reproduces_detection(tmp_path, small_character,
                                                  small_suite):
    """A captured faulty run replays into the same detection offline."""
    from repro.core.analyzer import GretelAnalyzer
    from repro.core.config import GretelConfig
    from repro.workloads.runner import WorkloadRunner

    cloud = Cloud(seed=23)
    recorder = TraceRecorder(cloud)
    cloud.faults.crash_everywhere("nova-compute")
    boot = next(t for t in small_suite.tests
                if t.name.startswith("compute.boot_server"))
    WorkloadRunner(cloud).run_isolated(boot, settle=2.0)
    path = str(tmp_path / "faulty.jsonl")
    recorder.save(path)

    analyzer = GretelAnalyzer(small_character.library,
                              config=GretelConfig(p_rate=150.0),
                              track_latency=False)
    replay(load_trace(path), analyzer.on_event)
    analyzer.flush()
    assert analyzer.operational_reports
    assert analyzer.operational_reports[0].detection.matched
