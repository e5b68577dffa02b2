"""Tests for the sharded analyzer and its differential oracle."""

from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.openstack.apis import ApiKind
from repro.core.analyzer import GretelAnalyzer
from repro.core.config import GretelConfig
from repro.core.latency import PerformanceAnomaly
from repro.core.parallel import (
    ShardedAnalyzer,
    report_order_key,
    report_signature,
    source_node_key,
    verify_equivalence,
)
from repro.oracle import OracleDivergence
from repro.workloads.traffic import SyntheticStream


@pytest.fixture(scope="module")
def library(small_character):
    return small_character.library


def make_stream(library, fault_every=40, seed=3):
    return SyntheticStream(library, library.symbols,
                           fault_every=fault_every, seed=seed)


def config():
    return GretelConfig(p_rate=150.0)


# ---------------------------------------------------------------------------
# Routing
# ---------------------------------------------------------------------------

def test_router_first_seen_round_robin(library):
    analyzer = ShardedAnalyzer(library, 3, track_latency=False)
    keys = ["ctrl", "nova-ctl", "compute-1", "compute-2", "ctrl", "compute-1"]
    indices = [analyzer.shard_index(k) for k in keys]
    # New keys take shards 0, 1, 2, 0 in first-seen order; repeats are
    # sticky.
    assert indices == [0, 1, 2, 0, 0, 2]
    assert analyzer.assignment == {
        "ctrl": 0, "nova-ctl": 1, "compute-1": 2, "compute-2": 0,
    }


def test_router_is_deterministic_across_runs(library):
    events = make_stream(library).events(500)
    first = ShardedAnalyzer(library, 4, track_latency=False)
    second = ShardedAnalyzer(library, 4, track_latency=False)
    first.ingest(events)
    second.ingest(events)
    assert first.assignment == second.assignment
    assert [s.events_processed for s in first.shards] == \
        [s.events_processed for s in second.shards]


def test_custom_partition_key(library):
    events = make_stream(library).events(200)
    analyzer = ShardedAnalyzer(
        library, 2, key=lambda e: e.dst_service, track_latency=False,
    )
    analyzer.ingest(events)
    assert set(analyzer.assignment) == {e.dst_service for e in events}
    assert analyzer.events_processed == len(events)


def test_shard_count_validation(library):
    with pytest.raises(ValueError):
        ShardedAnalyzer(library, 0)


# ---------------------------------------------------------------------------
# Equivalence with the serial analyzer
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("shards", [1, 2, 4, 8])
@pytest.mark.parametrize("defer", [False, True])
def test_equivalent_to_serial(library, shards, defer):
    events = make_stream(library).events(1500)
    result = verify_equivalence(
        events, library, shards, config=config(),
        batch_size=128, defer_detection=defer, strict=True,
    )
    assert result.ok
    assert (result.facts["reference_reports"]
            == result.facts["candidate_reports"] > 0)


def test_on_event_streaming_equals_bulk_ingest(library):
    """The buffered streaming entry point produces the same reports as
    scatter-ingesting the whole stream (flush drains partial buffers)."""
    events = make_stream(library).events(1000)

    streaming = ShardedAnalyzer(library, 3, batch_size=64,
                                config=config(), track_latency=False)
    for event in events:
        streaming.on_event(event)
    streaming.flush()

    bulk = ShardedAnalyzer(library, 3, batch_size=64,
                           config=config(), track_latency=False)
    bulk.ingest(events)
    bulk.flush()

    assert [report_signature(r) for r in streaming.reports] == \
        [report_signature(r) for r in bulk.reports]


def test_counters_match_serial(library):
    events = make_stream(library).events(1200)
    serial = GretelAnalyzer(library, config=config(), track_latency=False)
    serial.feed(events)
    serial.flush()

    sharded = ShardedAnalyzer(library, 4, config=config(),
                              track_latency=False, batch_size=100)
    sharded.feed(events)
    sharded.flush()

    assert sharded.events_processed == serial.events_processed == len(events)
    assert sharded.bytes_processed == serial.bytes_processed
    assert sharded.operational_faults_seen == serial.operational_faults_seen
    assert sharded.snapshots_taken == serial.window.snapshots_taken


@given(seed=st.integers(min_value=0, max_value=30),
       shards=st.integers(min_value=1, max_value=6),
       batch=st.sampled_from([1, 7, 64, 1024]))
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_equivalence_property(library, seed, shards, batch):
    """Shard count and chunking never change the report multiset."""
    events = make_stream(library, fault_every=60, seed=seed).events(600)
    result = verify_equivalence(
        events, library, shards, batch_size=batch,
        config=config(), strict=True,
    )
    assert result.ok


# ---------------------------------------------------------------------------
# Merge stage
# ---------------------------------------------------------------------------

def test_reports_merge_in_deterministic_order(library):
    events = make_stream(library, fault_every=50).events(2000)
    analyzer = ShardedAnalyzer(library, 4, batch_size=128,
                               config=config(), track_latency=False)
    analyzer.ingest(events)
    analyzer.flush()
    merged = analyzer.reports
    assert len(merged) > 1
    keys = [report_order_key(r) for r in merged]
    assert keys == sorted(keys)
    # Merged order is reproducible and independent of shard count.
    other = ShardedAnalyzer(library, 2, batch_size=256,
                            config=config(), track_latency=False)
    other.ingest(events)
    other.flush()
    assert [report_signature(r) for r in other.reports] == \
        [report_signature(r) for r in merged]


def test_report_kind_views(library):
    events = make_stream(library, fault_every=50).events(1000)
    analyzer = ShardedAnalyzer(library, 2, config=config(),
                               track_latency=False)
    analyzer.ingest(events)
    analyzer.flush()
    assert all(r.kind == "operational" for r in analyzer.operational_reports)
    assert all(r.kind == "performance" for r in analyzer.performance_reports)
    assert len(analyzer.operational_reports) \
        + len(analyzer.performance_reports) == len(analyzer.reports)


# ---------------------------------------------------------------------------
# Deferred detection on the sharded analyzer
# ---------------------------------------------------------------------------

def test_sharded_deferred_detection_queues_snapshots(library):
    events = make_stream(library, fault_every=40).events(1200)

    deferred = ShardedAnalyzer(library, 3, batch_size=64, config=config(),
                               track_latency=False, defer_detection=True)
    deferred.ingest(events)
    deferred.flush()
    # Snapshots froze but nothing was analyzed yet.
    assert deferred.snapshots_taken > 0
    assert deferred.reports == []
    assert deferred.analysis_seconds == 0.0

    drained = deferred.process_deferred()
    assert drained == deferred.snapshots_taken
    assert len(deferred.reports) == drained > 0
    # Draining twice is a no-op.
    assert deferred.process_deferred() == 0
    assert len(deferred.reports) == drained

    inline = ShardedAnalyzer(library, 3, batch_size=64, config=config(),
                             track_latency=False)
    inline.ingest(events)
    inline.flush()
    assert [report_signature(r) for r in deferred.reports] == \
        [report_signature(r) for r in inline.reports]


def test_sharded_deferred_equivalent_to_serial_deferred(library):
    events = make_stream(library, fault_every=30).events(1500)
    result = verify_equivalence(
        events, library, 4, batch_size=96, config=config(),
        track_latency=False, defer_detection=True, strict=True,
    )
    assert result.ok
    assert result.facts["reference_reports"] > 0


# ---------------------------------------------------------------------------
# Performance path on the sharded analyzer
# ---------------------------------------------------------------------------

def perf_template(library):
    """A healthy REST event whose API the symbol table knows."""
    return next(
        e for e in make_stream(library).events(200)
        if e.kind is ApiKind.REST and e.status < 400 and not e.noise
    )


def perf_config():
    # Low-warmup level-shift settings so an 80-event series triggers.
    return GretelConfig(ls_warmup=12, ls_confirm=3, ls_min_delta=0.004,
                        p_rate=150.0)


def level_shift_events(library):
    """One API's series: 60 steady latencies, then a 0.08 s shift."""
    template = perf_template(library)

    def event(seq, latency):
        ts = seq * 0.1
        return replace(template, seq=seq, ts_request=ts - latency,
                       ts_response=ts)

    steady = [event(seq, 0.010 + (seq % 3) * 0.0005)
              for seq in range(60)]
    shifted = [event(seq, 0.080) for seq in range(60, 80)]
    return steady + shifted


def test_sharded_performance_path_reports_anomaly(library):
    events = level_shift_events(library)
    analyzer = ShardedAnalyzer(library, 2, batch_size=16,
                               config=perf_config(), track_latency=True)
    analyzer.ingest(events)
    analyzer.flush()
    assert len(analyzer.performance_reports) == 1
    report = analyzer.performance_reports[0]
    assert report.performance is not None
    assert report.performance.api_key == events[0].api_key


def test_sharded_performance_path_equivalent_to_serial(library):
    """The chunk intake's context (live window plus the chunk under
    observation) reconstructs the serial window view: the performance
    diagnosis must match exactly."""
    events = level_shift_events(library)
    result = verify_equivalence(
        events, library, 2, batch_size=16, config=perf_config(),
        track_latency=True, strict=True,
    )
    assert result.ok
    # at least the perf report
    assert result.facts["reference_reports"] >= 1


def test_sharded_perf_debounce_suppresses_repeat_anomalies(library):
    config = perf_config()
    analyzer = ShardedAnalyzer(library, 2, batch_size=16, config=config,
                               track_latency=True)
    shard = analyzer.shards[0]
    trigger = perf_template(library)

    def anomaly(ts):
        return PerformanceAnomaly(api_key=trigger.api_key, ts=ts,
                                  observed=0.08, baseline=0.01,
                                  event=trigger)

    shard.process_anomaly(anomaly(ts=100.0))
    assert len(shard.performance_reports) == 1
    # Within the debounce interval on the same API: suppressed.
    shard.process_anomaly(
        anomaly(ts=100.0 + config.perf_debounce / 2)
    )
    assert len(shard.performance_reports) == 1
    # Beyond the debounce interval: analyzed again.
    shard.process_anomaly(
        anomaly(ts=100.0 + 2 * config.perf_debounce)
    )
    assert len(shard.performance_reports) == 2
    # The merged view sees only this shard's reports.
    assert len(analyzer.performance_reports) == 2


# ---------------------------------------------------------------------------
# Oracle failure modes
# ---------------------------------------------------------------------------

def test_oracle_flags_context_splitting_partition(library):
    """A partition key that shreds one agent's FIFO stream across
    shards breaks context locality — the oracle must catch it, not
    paper over it."""
    events = make_stream(library, fault_every=30).events(1200)
    shredder = lambda event: str(event.seq % 4)  # noqa: E731
    result = verify_equivalence(
        events, library, 4, key=shredder, batch_size=64,
        config=config(), strict=False,
    )
    assert not result.ok
    assert result.missing or result.extra
    assert "DIVERGED" in result.summary()
    with pytest.raises(OracleDivergence, match="DIVERGED") as excinfo:
        verify_equivalence(
            events, library, 4, key=shredder, batch_size=64,
            config=config(), strict=True,
        )
    assert excinfo.value.result.layer == "shards"
    assert excinfo.value.result.missing or excinfo.value.result.extra


def test_oracle_summary_on_equivalent_run(library):
    events = make_stream(library).events(400)
    result = verify_equivalence(events, library, 2, config=config(),
                                strict=True)
    assert "EQUIVALENT" in result.summary()
    assert result.layer == "shards"
    assert result.facts["events"] == 400


def test_oracle_says_how_many_shards_were_active(library):
    """The default key sends a single-source stream to one shard; the
    oracle must say so rather than pass vacuously in silence."""
    events = make_stream(library).events(400)
    single = verify_equivalence(events, library, 2, config=config())
    assert single.facts["active_shards"] == 1
    assert "active_shards=1" in single.summary()
    spread = verify_equivalence(
        events, library, 2, key=lambda e: e.dst_service,
        config=config(), strict=False,
    )
    assert spread.facts["active_shards"] > 1


def test_source_node_key_reads_src_node(library):
    event = make_stream(library).events(1)[0]
    assert source_node_key(event) == event.src_node


# ---------------------------------------------------------------------------
# Process backend
# ---------------------------------------------------------------------------

def test_unknown_backend_rejected(library):
    with pytest.raises(ValueError):
        ShardedAnalyzer(library, 2, backend="threads")


@pytest.mark.parametrize("shards", [1, 2, 4, 8])
def test_process_backend_equivalent_to_serial(library, shards):
    events = make_stream(library, fault_every=40).events(1200)
    result = verify_equivalence(
        events, library, shards, batch_size=128, config=config(),
        strict=True, backend="process",
    )
    assert result.ok
    assert (result.facts["reference_reports"]
            == result.facts["candidate_reports"] > 0)


def test_process_backend_counters_and_reports_match_inline(library):
    events = make_stream(library).events(1200)
    inline = ShardedAnalyzer(library, 4, config=config(),
                             track_latency=False, batch_size=100)
    inline.feed(events)
    inline.flush()
    with ShardedAnalyzer(library, 4, config=config(),
                         track_latency=False, batch_size=100,
                         backend="process") as proc:
        proc.feed(events)
        proc.flush()
        assert proc.events_processed == len(events)
        assert proc.bytes_processed == inline.bytes_processed
        assert proc.operational_faults_seen == \
            inline.operational_faults_seen
        assert proc.snapshots_taken == inline.snapshots_taken
        assert [report_signature(r) for r in proc.reports] == \
            [report_signature(r) for r in inline.reports]


def test_process_backend_report_listeners_fire_on_parent(library):
    events = make_stream(library, fault_every=40).events(800)
    seen = []
    with ShardedAnalyzer(library, 2, batch_size=64, config=config(),
                         backend="process",
                         report_listeners=(seen.append,)) as analyzer:
        analyzer.ingest(events)
        analyzer.flush()
        assert len(seen) == len(analyzer.reports) > 0


def test_process_workers_are_spread_over_the_allowed_cpus(library):
    """One worker per core: each worker is pinned to a single allowed
    CPU and a pool no larger than the CPU set never doubles up."""
    import os

    if not hasattr(os, "sched_getaffinity"):
        pytest.skip("no CPU affinity on this platform")
    allowed = os.sched_getaffinity(0)
    if len(allowed) < 2:
        pytest.skip("one allowed CPU: placement is left alone")
    with ShardedAnalyzer(library, 2, config=config(),
                         backend="process") as analyzer:
        placed = [os.sched_getaffinity(shard.process.pid)
                  for shard in analyzer.shards]
    assert all(len(cpus) == 1 and cpus <= allowed for cpus in placed)
    assert placed[0] != placed[1]
    assert os.sched_getaffinity(0) == allowed  # the parent is untouched


# ---------------------------------------------------------------------------
# Process-backend failure modes (the negative oracle)
# ---------------------------------------------------------------------------

def test_worker_dropping_a_report_raises_divergence(library, monkeypatch):
    """A worker that loses a report must not pass the oracle."""
    from repro.core import workers

    original = workers.ProcessShard._collect
    state = {"dropped": False}

    def dropping(self, reports):
        reports = list(reports)
        if reports and not state["dropped"]:
            state["dropped"] = True
            reports = reports[1:]
        original(self, reports)

    monkeypatch.setattr(workers.ProcessShard, "_collect", dropping)
    events = make_stream(library, fault_every=40).events(800)
    with pytest.raises(OracleDivergence, match="DIVERGED") as excinfo:
        verify_equivalence(events, library, 2, batch_size=64,
                           config=config(), backend="process")
    assert excinfo.value.result.layer == "shards"
    assert len(excinfo.value.result.missing) == 1
    assert not excinfo.value.result.extra


def test_worker_duplicating_a_report_raises_divergence(
    library, monkeypatch,
):
    """A worker that double-delivers must not pass the oracle."""
    from repro.core import workers

    original = workers.ProcessShard._collect
    state = {"duplicated": False}

    def duplicating(self, reports):
        reports = list(reports)
        if reports and not state["duplicated"]:
            state["duplicated"] = True
            reports = reports + [reports[0]]
        original(self, reports)

    monkeypatch.setattr(workers.ProcessShard, "_collect", duplicating)
    events = make_stream(library, fault_every=40).events(800)
    with pytest.raises(OracleDivergence, match="DIVERGED") as excinfo:
        verify_equivalence(events, library, 2, batch_size=64,
                           config=config(), backend="process")
    assert excinfo.value.result.layer == "shards"
    assert len(excinfo.value.result.extra) == 1
    assert not excinfo.value.result.missing


def test_killed_worker_raises_worker_error_not_hang(library):
    import os
    import signal

    from repro.core.parallel import ShardWorkerError

    events = make_stream(library).events(400)
    analyzer = ShardedAnalyzer(library, 2, batch_size=64,
                               config=config(), track_latency=False,
                               backend="process")
    analyzer.ingest(events)
    victim = analyzer.shards[0]
    os.kill(victim.process.pid, signal.SIGKILL)
    victim.process.join(5)
    with pytest.raises(ShardWorkerError):
        analyzer.flush()
    # The whole pool was torn down, and further work is rejected
    # immediately instead of wedging.
    assert all(shard.closed for shard in analyzer.shards)
    with pytest.raises(ShardWorkerError):
        analyzer.flush()


def test_worker_internal_error_propagates_and_closes_pool(library):
    from repro.core.parallel import ShardWorkerError

    analyzer = ShardedAnalyzer(library, 2, config=config(),
                               track_latency=False, backend="process")
    with pytest.raises(ShardWorkerError) as excinfo:
        analyzer.shards[0].call("no-such-op")
    assert "no-such-op" in str(excinfo.value)
    assert analyzer.shards[0].closed
    analyzer.close()


def test_worker_dispatch_calls_only_analyzer_ops(library):
    """A worker op is one of the analyzer's own methods or refused:
    ``feed`` runs a chunk, and any other name (the retired chunk-body
    op included) raises instead of reaching an attribute."""
    from repro.core.workers import _dispatch

    shard = GretelAnalyzer(library, config=config())
    events = make_stream(library).events(50)
    assert _dispatch(shard, "feed", events) == 50
    assert shard.events_processed == 50
    for op in ("process_chunk", "on_event", "restore_state"):
        with pytest.raises(ValueError, match="unknown worker op"):
            _dispatch(shard, op, events)
