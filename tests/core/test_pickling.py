"""Picklability audit for everything the process backend ships.

The ``backend="process"`` worker protocol (repro.core.workers) moves
five kinds of values across the process boundary: the seed
(`FingerprintLibrary` + `GretelConfig` + catalog/store), chunked
`WireEvent` batches, `FaultReport` batches in replies, mergeable
`PipelineStats`, and pipeline state dicts.  These tests pin the
round-trip contract for each — not just "pickle doesn't crash" but
*behavioral* equality: an unpickled library analyzes a stream to the
same reports, and stats merged after unpickling equal stats merged
before.
"""

import pickle

import pytest

from repro.core.analyzer import GretelAnalyzer
from repro.core.config import GretelConfig
from repro.core.parallel import report_signature
from repro.core.pipeline import STAT_FIELDS, PipelineStats
from repro.monitoring.store import MetadataStore
from repro.workloads.traffic import SyntheticStream


@pytest.fixture(scope="module")
def library(small_character):
    return small_character.library


def make_stream(library, fault_every=40, seed=3):
    return SyntheticStream(library, library.symbols,
                           fault_every=fault_every, seed=seed)


def roundtrip(value):
    return pickle.loads(pickle.dumps(value))


# ---------------------------------------------------------------------------
# Wire events
# ---------------------------------------------------------------------------

def test_wire_event_batch_roundtrips(library):
    events = make_stream(library).events(500)
    clones = roundtrip(events)
    assert len(clones) == len(events)
    assert clones == events
    # Field-level identity for the routing- and analysis-critical bits.
    for event, clone in zip(events[:50], clones[:50]):
        assert clone.seq == event.seq
        assert clone.src_node == event.src_node
        assert clone.api_key == event.api_key
        assert clone.status == event.status
        assert clone.to_dict() == event.to_dict()


# ---------------------------------------------------------------------------
# Config and metadata store (the worker seed)
# ---------------------------------------------------------------------------

def test_config_roundtrips(library):
    config = GretelConfig(alpha=512, p_rate=150.0, prune_rpcs=False)
    clone = roundtrip(config)
    assert clone == config


def test_metadata_store_roundtrips():
    store = MetadataStore()
    clone = roundtrip(store)
    assert type(clone) is MetadataStore


def test_library_roundtrip_analyzes_identically(library):
    """The seed's library must hydrate to a behaviorally identical
    analyzer in the worker — same reports, same counters."""
    events = make_stream(library, fault_every=40).events(1000)
    config = GretelConfig(p_rate=150.0)

    def run(lib):
        analyzer = GretelAnalyzer(lib, config=config,
                                  track_latency=False)
        analyzer.feed(events)
        analyzer.flush()
        return analyzer

    original = run(library)
    cloned = run(roundtrip(library))
    assert [report_signature(r) for r in cloned.reports] == \
        [report_signature(r) for r in original.reports]
    assert cloned.events_processed == original.events_processed
    assert cloned.window.snapshots_taken == \
        original.window.snapshots_taken


# ---------------------------------------------------------------------------
# Fault reports (the reply payload)
# ---------------------------------------------------------------------------

def test_fault_report_roundtrips(library):
    events = make_stream(library, fault_every=40).events(1000)
    analyzer = GretelAnalyzer(library, config=GretelConfig(p_rate=150.0),
                              track_latency=False)
    analyzer.feed(events)
    analyzer.flush()
    assert analyzer.reports, "stream must produce reports to audit"
    clones = roundtrip(analyzer.reports)
    assert [report_signature(r) for r in clones] == \
        [report_signature(r) for r in analyzer.reports]
    for report, clone in zip(analyzer.reports, clones):
        assert clone.to_dict() == report.to_dict()
        assert clone.summary() == report.summary()


# ---------------------------------------------------------------------------
# Pipeline stats (merge-after-unpickle ≡ merge-before)
# ---------------------------------------------------------------------------

def _shard_stats(library):
    events = make_stream(library, fault_every=40).events(900)
    per_shard = []
    for start in (0, 300, 600):
        analyzer = GretelAnalyzer(
            library, config=GretelConfig(p_rate=150.0),
            track_latency=False,
        )
        analyzer.feed(events[start:start + 300])
        analyzer.flush()
        per_shard.append(analyzer.stats())
    return per_shard


def test_pipeline_stats_roundtrip_preserves_merge(library):
    per_shard = _shard_stats(library)
    merged_before = PipelineStats.merged(per_shard)
    merged_after = PipelineStats.merged(
        roundtrip(s) for s in per_shard
    )
    assert merged_after == merged_before
    # The merged total itself round-trips too.
    assert roundtrip(merged_before) == merged_before
    # And every declared counter field survived (no field silently
    # dropped by __reduce__/slots drift).
    for name in STAT_FIELDS:
        assert getattr(merged_after, name) == \
            getattr(merged_before, name)
