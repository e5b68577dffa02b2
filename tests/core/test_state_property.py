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
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import outliers
from repro.core.latency import LatencyTracker
from repro.core.state import (
    StateError,
    decode_events,
    encode_events,
    pack_floats,
    unpack_floats,
)
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
    for value in tail:
        original.append(value)
        restored.append(value)
        assert list(restored) == list(original)
        if len(original):
            med = original.median()
            assert restored.median() == med
            assert restored.mad(med) == original.mad(med)
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
    return (
        detector.update(ts, value),
        detector.baseline,
        detector.threshold(),
        detector.threshold_recomputes,
    )


@given(case=latency_streams())
@settings(max_examples=120, deadline=None)
def test_incremental_ls_round_trip(case):
    window, confirm, samples, cut = case

    with pytest.MonkeyPatch.context() as patch:
        for name, value in (
            ("LS_WINDOW", window), ("LS_CONFIRM", confirm),
            ("LS_WARMUP", confirm + 1), ("LS_COOLDOWN", 3.0),
        ):
            patch.setattr(outliers, name, value)
        original = IncrementalLevelShiftDetector()
        restored = IncrementalLevelShiftDetector()

    for index, value in enumerate(samples[:cut]):
        original.update(float(index), value)
    restored.restore_state(round_trip(original.snapshot_state()))

    for index in range(cut, len(samples)):
        assert (
            observe(original, float(index), samples[index])
            == observe(restored, float(index), samples[index])
        )


def test_incremental_ls_refuses_retuned_restore(monkeypatch):
    """The latency tracker's checkpoint records the LS tuning once, and
    a tracker built under another tuning refuses it by constant name
    (``LS_SIGMAS`` shapes no window, so only this guard catches it)."""
    original = LatencyTracker()
    original.observe(make_event(1))
    state = round_trip(original.snapshot_state())
    assert state["tuning"]["LS_SIGMAS"] == 4.0
    assert "tuning" not in state["detectors"][make_event(1).api_key]

    monkeypatch.setattr(outliers, "LS_SIGMAS", 3.0)
    with pytest.raises(
        StateError, match="LS_SIGMAS: 4.0 in the checkpoint, 3.0 here"
    ):
        LatencyTracker().restore_state(state)


def test_incremental_ls_state_does_not_grow_with_alarms():
    """A series keeps no alarm log: after 20 confirmed shifts its
    serialized state is as large as after the first, give or take the
    digits its counters gained."""
    detector = IncrementalLevelShiftDetector()
    sizes = []
    ts = 0.0
    while len(sizes) < 20:
        for value in [0.01] * 30 + [0.5] * 30:
            ts += 1.0
            if detector.update(ts, value) is not None:
                sizes.append(len(json.dumps(detector.snapshot_state())))
    assert sizes[-1] <= sizes[0] + 32, sizes


# ---------------------------------------------------------------------------
# The payload codecs: packed floats and event column blocks
# ---------------------------------------------------------------------------

def float64_bytes(values):
    return struct.pack(f"<{len(values)}d", *values)


@given(values=st.lists(st.floats(allow_subnormal=True), max_size=40))
@settings(max_examples=300, deadline=None)
def test_packed_floats_round_trip_bit_exactly(values):
    """NaN payloads, ±inf, −0.0 and subnormals survive: the bytes are
    compared, because NaN != NaN."""
    text = json.loads(json.dumps(pack_floats(values)))
    decoded = unpack_floats(text)
    assert float64_bytes(decoded) == float64_bytes(values)
    assert pack_floats(decoded) == text


def test_packed_floats_round_trip_edge_values():
    edges = [
        0.0, -0.0, float("inf"), float("-inf"),
        5e-324, -2.2250738585072e-308,  # subnormals
        struct.unpack("<d", b"\x01\x00\x00\x00\x00\x00\xf8\x7f")[0],
        struct.unpack("<d", b"\xff\xff\xff\xff\xff\xff\xf7\xff")[0],
    ]
    assert float64_bytes(unpack_floats(pack_floats(edges))) \
        == float64_bytes(edges)
    assert pack_floats([]) == ""
    assert unpack_floats(pack_floats([])) == []


wire_text = st.text(max_size=12)


@st.composite
def wire_events(draw):
    finite = st.floats(allow_nan=False)
    return WireEvent(
        draw(st.integers(min_value=-2**63, max_value=2**63)),
        draw(wire_text), draw(st.sampled_from(ApiKind)),
        *[draw(wire_text) for _ in range(8)],
        draw(finite), draw(finite),
        draw(st.integers(min_value=0, max_value=999)),
        draw(wire_text),
        draw(st.tuples(wire_text, st.integers(0, 65535),
                       wire_text, st.integers(0, 65535))),
        draw(wire_text),
        draw(st.integers(min_value=0, max_value=2**31)),
        draw(st.booleans()),
        draw(wire_text), draw(wire_text),
        draw(st.lists(wire_text, max_size=3).map(tuple)),
        draw(wire_text), draw(wire_text),
    )


@given(events=st.lists(wire_events(), max_size=12))
@settings(max_examples=150, deadline=None)
def test_event_blocks_round_trip(events):
    block = encode_events(events)
    assert decode_events(round_trip(block)) == events
    assert decode_events(block) == events
    # The timestamp columns are bit-exact too (−0.0 == 0.0).
    for name in ("ts_request", "ts_response"):
        assert float64_bytes(unpack_floats(block[name])) == float64_bytes(
            [getattr(event, name) for event in events]
        )


def float_lists(node, path="$"):
    """Paths of every JSON list in ``node`` that holds a float."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from float_lists(value, f"{path}.{key}")
    elif isinstance(node, list):
        if any(isinstance(item, float) for item in node):
            yield path
        for index, item in enumerate(node):
            yield from float_lists(item, f"{path}[{index}]")


def fmt_keys(node, path="$"):
    """Paths of every object in ``node`` that holds a ``fmt`` key."""
    if isinstance(node, dict):
        if "fmt" in node:
            yield path
        for key, value in node.items():
            yield from fmt_keys(value, f"{path}.{key}")
    elif isinstance(node, list):
        for index, item in enumerate(node):
            yield from fmt_keys(item, f"{path}[{index}]")


def test_service_checkpoint_holds_no_float_list(small_character, tmp_path):
    """The invariant that keeps the encoder off ``repr(float)``: a
    session checkpoint taken after a fault — queue non-empty, a fault
    pending, detection deferred, latency series warm — holds no JSON
    list with a float in it.  And it carries exactly two format tags,
    at the envelope root and the analyzer root: no layer below either
    tags itself."""
    from repro.core.analyzer import GretelAnalyzer
    from repro.core.config import GretelConfig
    from repro.monitoring.store import MetadataStore
    from repro.service import CheckpointStore, TenantSession
    from repro.workloads.traffic import SyntheticStream

    library = small_character.library
    events = SyntheticStream(
        library, library.symbols, fault_every=150, seed=3,
    ).events(900)
    faults = [i for i, event in enumerate(events) if event.error]
    # Stop 4 events after a fault: its α/2 = 32 post-fault events
    # have not arrived, so it is pending; earlier ones are deferred.
    stop = next(i for i in faults if i > 300) + 4
    analyzer = GretelAnalyzer(
        library, store=MetadataStore(), config=GretelConfig(alpha=64),
        defer_detection=True,
    )
    session = TenantSession("acme", analyzer)
    try:
        for event in events[:stop]:
            session.submit(event)
        session.quiesce()
        with session.parked():
            for event in events[stop:stop + 10]:
                session.submit(event)
            state = round_trip(session.snapshot_state())
    finally:
        session.close()

    assert len(decode_events(state["queue"])) == 10
    pipeline = state["analyzer"]
    assert decode_events(pipeline["window"]["pending"])
    assert pipeline["deferred"]
    assert any(
        unpack_floats(series["baseline"]["values"])
        for series in pipeline["latency"]["detectors"].values()
    )
    assert list(float_lists(state)) == []
    saved = CheckpointStore(tmp_path).save("acme", state, seq=0)
    assert list(fmt_keys(json.loads(saved.read_text()))) == [
        "$", "$.state.analyzer",
    ]
