"""Tests for the analyzer object (construction, middleware, the
engines built from it, merged stats)."""

import pytest

from repro.core.analyzer import GretelAnalyzer
from repro.core.config import GretelConfig
from repro.core.parallel import ShardedAnalyzer
from repro.core.pipeline import (
    STAGE_NAMES,
    PipelineStats,
    StageTimer,
)
from repro.core.reports import report_signature
from repro.monitoring.store import MetadataStore
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
# Construction
# ---------------------------------------------------------------------------

def test_build_serial_equals_direct_construction(library):
    """The ledger's ``PipelineBuilder`` residue, driven in exactly the
    ledger's call sequence (``benchmarks/e2e/harness.py``'s
    ``serial_analyzer``: the chain, then ``with_middleware`` with its
    return value dropped), builds what the constructor builds."""
    from repro.core.pipeline import PipelineBuilder

    events = make_stream(library).events(800)

    def shim(on_report, observer):
        builder = (
            PipelineBuilder(library)
            .with_store(MetadataStore())
            .with_config(config())
            .on_report(on_report)
        )
        builder.with_middleware(observer)
        return builder.build_serial()

    def direct(on_report, observer):
        return GretelAnalyzer(
            library, store=MetadataStore(), config=config(),
            middleware=(observer,), report_listeners=(on_report,),
        )

    def run(build):
        seen, counters = [], StageTimer()
        analyzer = build(seen.append, counters)
        analyzer.feed(events)
        analyzer.flush()
        return [report_signature(r) for r in seen], counters

    built, built_counters = run(shim)
    wanted, wanted_counters = run(direct)
    assert built == wanted and built
    assert built_counters.items == wanted_counters.items
    assert built_counters.calls == wanted_counters.calls
    # The ledger's two other sequences: a parked analyzer and a
    # scenario replay's latency switch.
    parked = (
        PipelineBuilder(library).with_store(MetadataStore())
        .with_config(config()).defer_detection().build_serial()
    )
    assert parked.defer_detection is True
    replay = PipelineBuilder(library).track_latency(False).build_serial()
    assert replay.track_latency is False


def test_builder_defaults_resolve_collaborators(library):
    from repro.core.pipeline import PipelineBuilder

    analyzer = PipelineBuilder(library).build_serial()
    assert analyzer.library is library
    assert analyzer.store is not None
    assert analyzer.config is not None
    assert analyzer.track_latency is True
    assert analyzer.defer_detection is False


def test_builder_none_setters_keep_defaults(library):
    """The residue's two collaborator setters forward ``None``
    verbatim, and the constructor resolves it to the default."""
    from repro.core.pipeline import PipelineBuilder

    analyzer = (
        PipelineBuilder(library)
        .with_store(None)
        .with_config(None)
        .build_serial()
    )
    assert analyzer.library is library
    assert analyzer.store is not None
    assert analyzer.config is not None


def test_constructor_defaults_resolve_collaborators(library):
    """``None`` is the default of every optional collaborator, so a
    call site forwards its optional arguments verbatim."""
    for analyzer in (
        GretelAnalyzer(library),
        GretelAnalyzer(library, store=None, config=None),
    ):
        assert analyzer.library is library
        assert analyzer.detector.symbols is library.symbols
        assert analyzer.store is not None
        assert analyzer.config is not None
        assert analyzer.track_latency is True
        assert analyzer.defer_detection is False


def test_report_listener_fires(library):
    events = make_stream(library).events(600)
    seen = []
    analyzer = GretelAnalyzer(
        library, config=config(), track_latency=False,
        report_listeners=(seen.append,),
    )
    analyzer.feed(events)
    analyzer.flush()
    assert len(analyzer.reports) > 0
    assert seen == analyzer.reports


def test_builder_report_listener_on_every_shard(library):
    """``report_listeners=`` reaches every shard (the benchmark
    ledger's ``storm_shards`` workload clocks reports through it)."""
    events = make_stream(library).events(800)
    seen = []
    analyzer = ShardedAnalyzer(
        library, 3, batch_size=64, config=config(), track_latency=False,
        key=lambda event: event.tenant, report_listeners=(seen.append,),
    )
    analyzer.ingest(events)
    analyzer.flush()
    assert len(seen) == len(analyzer.reports) > 0
    assert sum(bool(shard.reports) for shard in analyzer.shards) > 1


# ---------------------------------------------------------------------------
# Middleware
# ---------------------------------------------------------------------------

def test_middleware_counts_serial_stages(library):
    events = make_stream(library).events(500)
    counters = StageTimer()
    analyzer = GretelAnalyzer(
        library, config=config(), middleware=(counters,),
    )
    analyzer.feed(events)
    analyzer.flush()
    assert counters.items["ingest"] == len(events)
    assert counters.items["window"] == len(events)
    assert counters.items["fault-scan"] == len(events)
    assert counters.calls["detect"] == len(analyzer.reports)
    assert counters.calls["publish"] == len(analyzer.reports)
    assert set(counters.calls) <= set(STAGE_NAMES)


def test_middleware_does_not_change_reports(library):
    events = make_stream(library).events(800)

    plain = GretelAnalyzer(library, config=config())
    plain.feed(events)
    plain.flush()

    observed = GretelAnalyzer(
        library, config=config(), middleware=(StageTimer(),),
    )
    observed.feed(events)
    observed.flush()

    assert [report_signature(r) for r in observed.reports] == \
        [report_signature(r) for r in plain.reports]


def test_stage_timer_summary_renders(library):
    events = make_stream(library).events(400)
    timer = StageTimer()
    analyzer = GretelAnalyzer(library, config=config(), middleware=(timer,))
    analyzer.feed(events)
    analyzer.flush()
    summary = timer.summary()
    assert "ingest" in summary
    assert "step" in summary
    assert StageTimer().summary() == "no stages observed"


# ---------------------------------------------------------------------------
# Stats
# ---------------------------------------------------------------------------

def test_pipeline_stats_add_and_merge():
    a = PipelineStats(events_processed=2, bytes_processed=10,
                      operational_faults_seen=1, snapshots_taken=1,
                      analysis_seconds=0.5)
    b = PipelineStats(events_processed=3, bytes_processed=5,
                      operational_faults_seen=0, snapshots_taken=2,
                      analysis_seconds=0.25)
    total = a + b
    assert total == PipelineStats(5, 15, 1, 3, 0.75)
    assert PipelineStats.merged([a, b, PipelineStats()]) == total
    assert PipelineStats.merged([]) == PipelineStats()


def test_sharded_stats_merge_matches_counters(library):
    events = make_stream(library).events(900)
    analyzer = ShardedAnalyzer(library, 3, batch_size=128,
                               config=config(), track_latency=False)
    analyzer.ingest(events)
    analyzer.flush()
    stats = analyzer.stats()
    assert stats == PipelineStats.merged(
        shard.stats() for shard in analyzer.shards
    )
    # The aggregate counters resolve through the same merge.
    assert analyzer.events_processed == stats.events_processed == len(events)
    assert analyzer.bytes_processed == stats.bytes_processed
    assert analyzer.snapshots_taken == stats.snapshots_taken
    assert analyzer.analysis_seconds == stats.analysis_seconds


def test_sharded_unknown_attribute_raises(library):
    analyzer = ShardedAnalyzer(library, 2, track_latency=False)
    with pytest.raises(AttributeError):
        analyzer.not_a_counter


# ---------------------------------------------------------------------------
# Engines
# ---------------------------------------------------------------------------

def test_engines_are_the_pipeline(library):
    serial = GretelAnalyzer(library, config=config())
    sharded = ShardedAnalyzer(library, 3, config=config())
    assert isinstance(serial, GretelAnalyzer)
    assert all(isinstance(shard, GretelAnalyzer)
               for shard in sharded.shards)
    # The one residue of the old composition (the ledger reads it).
    assert serial.pipeline is serial


def test_restore_refuses_per_stage_v1_state(library):
    """The analyzer document carries the one tag of every layer inside
    it, and every retired analyzer tag is refused by name, never
    migrated: ``analysis-pipeline/v1`` nested one tagged document per
    stage wrapper, v2–v6 one tagged document per layer."""
    from repro.core.state import StateFormatError

    analyzer = GretelAnalyzer(library, config=config())
    state = analyzer.snapshot_state()
    assert state["fmt"] == "analyzer-state/v1"
    assert "columns" not in state and "columns" not in state["window"]
    assert set(state["window"]) == {
        "alpha", "appended", "snapshots_taken", "events", "pending", "due",
    }
    assert set(state["latency"]) == {"tuning", "samples_fed", "detectors"}
    assert set(state["detector"]) == {
        "postings_scanned", "candidates_indexed", "matching",
    }
    for version in range(1, 7):
        older = f"analysis-pipeline/v{version}"
        with pytest.raises(StateFormatError, match=older):
            analyzer.restore_state(dict(state, fmt=older))


def test_shards_compose_shared_wiring(library):
    analyzer = ShardedAnalyzer(library, 3, config=config())
    stores = {id(shard.store) for shard in analyzer.shards}
    configs = {id(shard.config) for shard in analyzer.shards}
    windows = {id(shard.window) for shard in analyzer.shards}
    # One metadata store and config shared; per-shard windows distinct.
    assert stores == {id(analyzer.store)}
    assert configs == {id(analyzer.config)}
    assert len(windows) == 3


# ---------------------------------------------------------------------------
# Performance context
# ---------------------------------------------------------------------------

def test_performance_context_is_the_alpha_events_ending_at_the_fault(
    library,
):
    """A performance report's context is the α events ending at the
    anomalous one, cut from the live window.  The level shift sits
    past α, so the context starts past event 0 and is α long."""
    from dataclasses import replace

    alpha = 64
    tuned = GretelConfig(alpha=alpha, p_rate=150.0)
    template = next(
        e for e in make_stream(library).events(200)
        if e.status < 400 and not e.noise
    )

    def event(seq):
        latency = 0.010 + (seq % 3) * 0.0005 if seq < 280 else 0.080
        ts = seq * 0.1
        return replace(template, seq=seq, ts_request=ts - latency,
                       ts_response=ts)

    events = [event(seq) for seq in range(320)]

    analyzer = GretelAnalyzer(library, config=tuned)
    seen = []
    detect = analyzer.detector.detect

    def recording(snapshot, *, performance_fault=False):
        if performance_fault:
            seen.append(snapshot)
        return detect(snapshot, performance_fault=performance_fault)

    analyzer.detector.detect = recording
    analyzer.feed(events)

    assert len(seen) == 1
    seqs = [e.seq for e in seen[0].events]
    assert len(seqs) == alpha and seqs[0] > 0
    assert seen[0].fault_index == alpha - 1
    assert seqs[-1] == seen[0].fault.seq >= 280
