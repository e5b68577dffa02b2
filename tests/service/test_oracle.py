"""Tests for the checkpoint differential oracle.

The oracle's own tests are mostly *negative*: an oracle that cannot
fail proves nothing, so the mutate hook injects both a counter-level
and a behavior-level corruption and the oracle must flag each.
"""

import pytest

from repro.oracle import OracleDivergence
from repro.service import verify_checkpoint
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
    result = verify_checkpoint(
        stream_events, library, cuts=3, config=CONFIG,
    )
    assert result.ok
    assert (result.facts["reference_reports"]
            == result.facts["candidate_reports"] > 0)
    assert len(result.facts["cuts"]) == 3
    assert result.summary().startswith("EQUIVALENT: restored vs straight")
    assert result.to_dict()["ok"] is True


@pytest.mark.parametrize("cuts, length", [(0, 900), (-2, 900), (3, 1)])
def test_oracle_refuses_to_check_nothing(
    library, stream_events, cuts, length
):
    """No interior cut means nothing was restored: that is not a
    verdict, so the oracle refuses instead of printing EQUIVALENT."""
    with pytest.raises(ValueError, match="no interior cut"):
        verify_checkpoint(
            stream_events[:length], library, cuts=cuts, config=CONFIG,
        )


def test_oracle_flags_counter_corruption(library, stream_events):
    def bump_counter(state):
        state["counters"]["events_processed"] += 7
        return state

    with pytest.raises(OracleDivergence, match="DIVERGED") as excinfo:
        verify_checkpoint(
            stream_events, library, cuts=1, config=CONFIG,
            mutate=bump_counter,
        )
    assert excinfo.value.result.layer == "checkpoint"
    assert "counter: events_processed" in str(excinfo.value)


def test_oracle_flags_behavioral_corruption(library, stream_events):
    def drop_pending(state):
        # Forgetting pending snapshots silently loses fault reports.
        state["window"]["pending"] = []
        return state

    result = verify_checkpoint(
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

    result = verify_checkpoint(
        stream_events, library, cuts=1, config=CONFIG,
        mutate=bump_counter, strict=False,
    )
    assert not result.ok
    assert any(
        line.startswith("counter: events_processed reference=")
        for line in result.mismatches
    )
