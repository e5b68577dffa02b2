"""Property tests: snapshot/restore is invisible at every layer.

The state protocol's contract (``repro.core.state``) is *bit-identical*
rehydration: freeze a layer mid-stream through a real JSON round trip,
restore into a freshly constructed twin, and the twin must be
indistinguishable from the uninterrupted original on any subsequent
input.  These properties randomize the stream, the freeze point and
the layer tuning, and drive the original and the restored twin in
lockstep afterwards.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.matching import scoring_classes
from repro.core.streamstats.detector import IncrementalLevelShiftDetector
from repro.core.streamstats.window import SortedWindow
from repro.core.window import SlidingWindow
from repro.openstack.apis import ApiKind
from repro.openstack.wire import WireEvent


def round_trip(state):
    """An actual JSON round trip — serializability is part of the
    contract, not an assumption."""
    return json.loads(json.dumps(state))


def make_event(seq, status=200):
    return WireEvent(
        seq=seq, api_key="rest:nova:GET:/v2.1/servers", kind=ApiKind.REST,
        method="GET", name="/v2.1/servers",
        src_service="horizon", src_node="ctrl", src_ip="1",
        dst_service="nova", dst_node="nova-ctl", dst_ip="2",
        ts_request=seq * 1.0, ts_response=seq * 1.0 + 0.01, status=status,
    )


# ---------------------------------------------------------------------------
# SlidingWindow
# ---------------------------------------------------------------------------

@st.composite
def window_runs(draw):
    alpha = draw(st.integers(min_value=2, max_value=24))
    total = draw(st.integers(min_value=1, max_value=80))
    faults = draw(st.sets(
        st.integers(min_value=0, max_value=total - 1), max_size=6,
    ))
    cut = draw(st.integers(min_value=0, max_value=total))
    return alpha, total, faults, cut


@given(case=window_runs())
@settings(max_examples=120, deadline=None)
def test_sliding_window_round_trip(case):
    alpha, total, faults, cut = case

    def feed(window, seq):
        event = make_event(seq, status=500 if seq in faults else 200)
        frozen = window.append(event)
        if seq in faults:
            window.mark_fault(event)
        return [snapshot.to_dict() for snapshot in frozen]

    original = SlidingWindow(alpha=alpha)
    for seq in range(cut):
        feed(original, seq)

    restored = SlidingWindow(alpha=alpha)
    restored.restore_state(round_trip(original.snapshot_state()))

    for seq in range(cut, total):
        assert feed(original, seq) == feed(restored, seq)
    assert original.appended == restored.appended
    assert original.snapshots_taken == restored.snapshots_taken
    assert original.pending_snapshots == restored.pending_snapshots
    # End-of-stream freezes must agree too (pending order survives).
    assert (
        [s.to_dict() for s in original.flush()]
        == [s.to_dict() for s in restored.flush()]
    )


def test_sliding_window_refuses_alpha_mismatch():
    from repro.core.state import StateError

    original = SlidingWindow(alpha=8)
    state = original.snapshot_state()
    with pytest.raises(StateError, match="alpha"):
        SlidingWindow(alpha=10).restore_state(state)


# ---------------------------------------------------------------------------
# SortedWindow
# ---------------------------------------------------------------------------

finite_floats = st.floats(
    min_value=-1e9, max_value=1e9,
    allow_nan=False, allow_infinity=False,
)


@given(
    maxlen=st.integers(min_value=1, max_value=16),
    values=st.lists(finite_floats, max_size=60),
    tail=st.lists(finite_floats, max_size=30),
)
@settings(max_examples=150, deadline=None)
def test_sorted_window_round_trip(maxlen, values, tail):
    original = SortedWindow(maxlen)
    for value in values:
        original.append(value)

    restored = SortedWindow(maxlen)
    restored.restore_state(round_trip(original.snapshot_state()))

    assert list(restored) == list(original)
    assert restored.version == original.version
    for value in tail:
        original.append(value)
        restored.append(value)
        assert list(restored) == list(original)
        if len(original):
            assert restored.median_mad() == original.median_mad()
            assert restored.bounds() == original.bounds()


# ---------------------------------------------------------------------------
# IncrementalLevelShiftDetector
# ---------------------------------------------------------------------------

@st.composite
def latency_streams(draw):
    window = draw(st.integers(min_value=4, max_value=16))
    confirm = draw(st.integers(min_value=1, max_value=4))
    total = draw(st.integers(min_value=0, max_value=120))
    cut = draw(st.integers(min_value=0, max_value=total))
    # Mostly quiet samples with occasional large spikes, so alarms,
    # pending streaks, cooldowns and re-seeds all actually occur.
    samples = draw(st.lists(
        st.one_of(
            st.floats(min_value=0.001, max_value=0.02,
                      allow_nan=False),
            st.floats(min_value=0.5, max_value=5.0, allow_nan=False),
        ),
        min_size=total, max_size=total,
    ))
    return window, confirm, samples, cut


def observe(detector, ts, value):
    """Everything externally visible after one sample."""
    shift = detector.update(ts, value)
    return (
        None if shift is None else shift.to_dict(),
        detector.baseline,
        detector.threshold(),
        detector.threshold_recomputes,
        len(detector.alarms),
    )


@given(case=latency_streams())
@settings(max_examples=120, deadline=None)
def test_incremental_ls_round_trip(case):
    window, confirm, samples, cut = case

    def build():
        return IncrementalLevelShiftDetector(
            window=window, confirm=confirm, warmup=confirm + 1,
            cooldown=3.0,
        )

    original = build()
    for index, value in enumerate(samples[:cut]):
        original.update(float(index), value)

    restored = build()
    restored.restore_state(round_trip(original.snapshot_state()))

    for index in range(cut, len(samples)):
        assert (
            observe(original, float(index), samples[index])
            == observe(restored, float(index), samples[index])
        )
    assert (
        [a.to_dict() for a in original.alarms]
        == [a.to_dict() for a in restored.alarms]
    )


def test_incremental_ls_refuses_retuned_restore():
    from repro.core.state import StateError

    original = IncrementalLevelShiftDetector(window=8)
    state = original.snapshot_state()
    with pytest.raises(StateError):
        IncrementalLevelShiftDetector(window=12).restore_state(state)


# ---------------------------------------------------------------------------
# MatchSession
# ---------------------------------------------------------------------------

ALPHABET = "ABCDE"


@pytest.fixture(scope="module")
def detector(small_character):
    from repro.core.detector import OperationDetector

    library = small_character.library
    return OperationDetector(
        library, library.symbols, library.symbols.catalog,
    )


@st.composite
def match_cases(draw):
    from repro.core.detector import _Candidate

    fragments = draw(st.lists(
        st.sampled_from(list(ALPHABET) + [""]),
        min_size=1, max_size=30,
    ))
    # A few distinct preparations, each stamped out several times (as
    # the library stamps tests out of operations): the session keeps
    # one state per scoring class, so classes of size > 1 must occur.
    preps = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        needle = draw(st.text(
            alphabet=ALPHABET, min_size=1, max_size=8,
        ))
        cuts = draw(st.sets(
            st.integers(min_value=1, max_value=len(needle)), max_size=3,
        ))
        cuts.add(len(needle))
        preps.append((needle, sorted(cuts)))
    pool = [
        _Candidate(
            original=None, sc_symbols=needle, cut_lengths=list(cuts),
            full_symbols=needle, pure_read=False,
        )
        for needle, cuts in draw(st.lists(
            st.sampled_from(preps), min_size=1, max_size=8,
        ))
    ]
    # Outward-growing (lo, hi) windows with a freeze between two.
    spans = draw(st.integers(min_value=2, max_value=6))
    fault = draw(st.integers(min_value=0, max_value=len(fragments) - 1))
    windows = []
    beta = 1
    for _ in range(spans):
        windows.append((max(0, fault - beta),
                        min(len(fragments), fault + beta + 1)))
        beta += draw(st.integers(min_value=1, max_value=4))
    cut = draw(st.integers(min_value=1, max_value=spans - 1))
    return fragments, pool, windows, cut


@given(case=match_cases())
@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_match_session_round_trip(detector, case):
    fragments, pool, windows, cut = case

    def build():
        return detector.matching.session(
            fragments, scoring_classes(pool),
            threshold=detector.config.match_coverage,
            strict=not detector.config.relaxed_match,
        )

    original = build()
    finalized_orig = {}
    finalized_rest = {}
    for lo, hi in windows[:cut]:
        original.score(lo, hi, finalized_orig)

    restored = build()
    restored.restore_state(round_trip(original.snapshot_state()))
    finalized_rest.update(finalized_orig)

    for lo, hi in windows[cut:]:
        assert (
            original.score(lo, hi, finalized_orig)
            == restored.score(lo, hi, finalized_rest)
        )
        assert finalized_orig == finalized_rest


def test_match_session_refuses_candidate_count_mismatch(detector):
    from repro.core.detector import _Candidate
    from repro.core.state import StateError

    def pool(size):
        return [
            _Candidate(
                original=None, sc_symbols="AB", cut_lengths=[2],
                full_symbols="AB", pure_read=False,
            )
            for _ in range(size)
        ]

    def build(size):
        return detector.matching.session(
            ["A", "B"], scoring_classes(pool(size)),
            threshold=detector.config.match_coverage, strict=True,
        )

    state = build(2).snapshot_state()
    # One class either way: the member count still has to agree.
    assert len(state["states"]) == 1
    with pytest.raises(StateError, match="candidates"):
        build(3).restore_state(state)


def test_match_session_refuses_per_candidate_v1_state(detector):
    """``match-session/v1`` carried one entry per candidate; a v2
    session keeps one per scoring class and must not guess a mapping."""
    from repro.core.detector import _Candidate
    from repro.core.state import StateFormatError

    session = detector.matching.session(
        ["A", "B"],
        scoring_classes([_Candidate(
            original=None, sc_symbols="AB", cut_lengths=[2],
            full_symbols="AB", pure_read=False,
        )]),
        threshold=detector.config.match_coverage, strict=True,
    )
    state = session.snapshot_state()
    assert state["fmt"] == "match-session/v2"
    stale = dict(state, fmt="match-session/v1")
    with pytest.raises(StateFormatError, match="match-session/v1"):
        session.restore_state(stale)
