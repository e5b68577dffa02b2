"""Tests for the service differential oracle.

The oracle's own tests are mostly *negative*: an oracle that cannot
fail proves nothing, so the mutate hook injects both a counter-level
and a behavior-level corruption, the restart path is tampered with,
and the oracle must flag each.
"""

import pytest

from repro.core.latency import LatencyTracker
from repro.oracle import OracleDivergence
from repro.service import StreamingService, verify_service
from repro.service.oracle import _cut_points

from .conftest import CONFIG


def test_cut_points_are_interior_and_spread():
    assert _cut_points(100, 3) == (25, 50, 75)
    assert _cut_points(10, 1) == (5,)
    # Degenerate inputs yield no cuts rather than 0/total cuts.
    assert _cut_points(1, 3) == ()
    assert _cut_points(0, 1) == ()
    assert _cut_points(100, 0) == ()
    # More cuts than interior positions: deduped, still interior.
    points = _cut_points(4, 9)
    assert all(0 < p < 4 for p in points)


def test_checkpoint_restore_is_invisible(library, stream_events):
    result = verify_service(stream_events, library, cuts=3, config=CONFIG)
    assert result.ok
    assert (result.facts["reference_reports"]
            == result.facts["candidate_reports"] > 0)
    assert result.facts["cuts"] == 3
    # Every tenant bucket is restarted at each of its three cuts.
    assert result.facts["restores"] == 3 * result.facts["tenants"]
    assert result.summary().startswith("EQUIVALENT: restarted vs sync")
    assert result.to_dict()["ok"] is True


@pytest.mark.parametrize("cuts, length", [(0, 900), (-2, 900), (3, 1)])
def test_oracle_refuses_to_check_nothing(
    library, stream_events, cuts, length
):
    """No interior cut means nothing was restored: that is not a
    verdict, so the oracle refuses instead of printing EQUIVALENT."""
    with pytest.raises(ValueError, match="no interior cut"):
        verify_service(
            stream_events[:length], library, cuts=cuts, config=CONFIG,
        )


def test_oracle_flags_counter_corruption(library, stream_events):
    def bump_counter(state):
        state["counters"]["events_processed"] += 7
        return state

    with pytest.raises(OracleDivergence, match="DIVERGED") as excinfo:
        verify_service(
            stream_events, library, cuts=1, config=CONFIG,
            mutate=bump_counter,
        )
    assert excinfo.value.result.layer == "service"
    assert "] events_processed reference=" in str(excinfo.value)


def test_oracle_flags_behavioral_corruption(library, stream_events):
    def drop_pending(state):
        # Forgetting pending snapshots silently loses fault reports.
        state["window"]["due"] = []
        return state

    result = verify_service(
        stream_events, library, cuts=3, config=CONFIG,
        mutate=drop_pending, strict=False,
    )
    assert not result.ok
    assert result.missing
    assert result.summary().startswith("DIVERGED: ")


def test_strict_false_returns_instead_of_raising(library, stream_events):
    def bump_counter(state):
        state["counters"]["events_processed"] += 7
        return state

    result = verify_service(
        stream_events, library, cuts=1, config=CONFIG,
        mutate=bump_counter, strict=False,
    )
    assert not result.ok
    assert any(
        line.startswith("counter: [tenant-")
        and " events_processed reference=" in line
        for line in result.mismatches
    )


def test_oracle_flags_a_stale_latency_series(library, stream_events,
                                            monkeypatch):
    """A restored analyzer whose intake keeps feeding the series dict
    it was built with, not the one ``restore_state`` installed,
    publishes the straight run's reports and counters on a stream that
    confirms no level shift; only the final state shows it."""
    restore = LatencyTracker.restore_state

    def restore_but_feed_the_built_series(tracker, state):
        built = tracker.detectors
        restore(tracker, state)
        tracker.detectors = built

    monkeypatch.setattr(LatencyTracker, "restore_state",
                        restore_but_feed_the_built_series)
    result = verify_service(
        stream_events, library, cuts=3, config=CONFIG, strict=False,
    )
    assert not result.ok
    assert not result.missing and not result.extra
    assert result.mismatches
    assert all(line.startswith("[tenant-")
               and "] state.latency.detectors." in line
               for line in result.mismatches), result.mismatches


def test_oracle_flags_a_drain_that_skips_a_backlog_event(
        library, stream_events, snapshot_drain_skips_one):
    """Every checkpoint the service takes analyzes a parked backlog on
    the calling thread.  A snapshot whose drain skips one backlog
    event (the ``_pump_step`` seam, tampered inside ``snapshot_state``
    only) leaves each restored analyzer an event short, and the oracle
    says so."""
    skipped = snapshot_drain_skips_one
    result = verify_service(
        stream_events, library, cuts=3, config=CONFIG, strict=False,
    )
    # One skip per tenant per cut: every checkpoint had a backlog.
    assert len(skipped) == 3 * result.facts["tenants"]
    assert not result.ok
    assert result.summary().startswith("DIVERGED: ")
    assert "] events_processed reference=" in " ".join(result.mismatches)


def test_oracle_flags_a_wrong_resume_offset(library, stream_events,
                                           monkeypatch):
    """A restart that records each restored tenant's resume offset one
    event short replays that event twice.  Neither the restored
    analyzers nor the reports of a straight run show a restart, so
    only an oracle that resumes at ``resume_offsets`` catches it."""
    open_session = StreamingService._open

    def open_one_short(service, tenant, state=None):
        live = open_session(service, tenant, state)
        if state is not None:
            service.resume_offsets[tenant] -= 1
        return live

    monkeypatch.setattr(StreamingService, "_open", open_one_short)
    result = verify_service(
        stream_events, library, cuts=3, config=CONFIG, strict=False,
    )
    assert not result.ok
    assert result.summary().startswith("DIVERGED: ")
    assert any(line.startswith("resume: [tenant-")
               for line in result.mismatches), result.mismatches
    assert "] events_ingested reference=" in " ".join(result.mismatches)
