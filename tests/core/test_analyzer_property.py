"""Property tests: the analyzer never chokes on arbitrary streams."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.analyzer import GretelAnalyzer
from repro.core.config import GretelConfig
from repro.workloads.traffic import SyntheticStream


@pytest.fixture(scope="module")
def library(small_character):
    return small_character.library


@given(
    seed=st.integers(min_value=0, max_value=1000),
    fault_every=st.integers(min_value=5, max_value=500),
    count=st.integers(min_value=1, max_value=400),
)
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_analyzer_handles_arbitrary_streams(library, seed, fault_every, count):
    stream = SyntheticStream(library, library.symbols,
                             fault_every=fault_every, seed=seed)
    analyzer = GretelAnalyzer(
        library, config=GretelConfig(p_rate=150.0), track_latency=True,
    )
    analyzer.feed(stream.generate(count))
    analyzer.flush()
    # Invariants: every event accounted for, every report well-formed.
    assert analyzer.events_processed == count
    for report in analyzer.reports:
        assert report.kind in ("operational", "performance")
        assert 0.0 <= report.theta <= 1.0
        assert report.detection.candidates >= len(report.detection.matched)
        assert report.report_delay >= 0.0
    # Faults seen vs snapshots taken are consistent.
    assert analyzer.window.snapshots_taken + len(analyzer.window.pending) \
        >= len(analyzer.operational_reports)


@given(seed=st.integers(min_value=0, max_value=50))
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_deferred_equals_inline_reports(library, seed):
    """Deferring detection must not change what gets detected."""
    stream = SyntheticStream(library, library.symbols,
                             fault_every=40, seed=seed)
    events = stream.events(300)

    inline = GretelAnalyzer(library, config=GretelConfig(p_rate=150.0),
                            track_latency=False)
    inline.feed(events)
    inline.flush()

    deferred = GretelAnalyzer(library, config=GretelConfig(p_rate=150.0),
                              track_latency=False, defer_detection=True)
    deferred.feed(events)
    deferred.flush()
    deferred.process_deferred()

    assert len(inline.reports) == len(deferred.reports)
    for a, b in zip(inline.reports, deferred.reports):
        assert a.fault_event.seq == b.fault_event.seq
        assert a.detection.operations == b.detection.operations
