"""The fused intake's call budget (docs/architecture.md, "One intake,
two bodies").

A fault-free REST latency sample costs three Python calls: the
analyzer's ``on_event``, its series' ``update`` and that series'
``SortedWindow.append``; an RPC adds its body scan, ``rpc_body_error``.
The test counts ``call`` events with ``sys.setprofile`` — calls, not
time — so it is deterministic.
"""

import sys
from collections import Counter

from repro.core.analyzer import GretelAnalyzer
from repro.core.config import GretelConfig
from repro.openstack.apis import ApiKind
from repro.workloads.traffic import SyntheticStream


def test_fused_intake_call_budget(small_character):
    library = small_character.library
    events = SyntheticStream(
        library, library.symbols, fault_every=10 ** 9, seed=7,
    ).events(6000)
    analyzer = GretelAnalyzer(library, config=GretelConfig(p_rate=150.0))
    analyzer.feed(events[:5000])
    # Only series that exist already: a series' first sample builds
    # its detector.
    series = analyzer.latency.detectors
    counted = [e for e in events[5000:] if e.api_key in series]
    assert len(counted) > 900
    assert not any(e.noise or e.status >= 400 for e in counted)
    rpcs = sum(e.kind is ApiKind.RPC for e in counted)
    assert 0 < rpcs < len(counted)

    calls = Counter()

    def profile(frame, what, arg):
        if what == "call":
            owner = frame.f_locals.get("self")
            name = frame.f_code.co_name
            if owner is not None:
                name = f"{type(owner).__name__}.{name}"
            calls[name] += 1

    on_event = analyzer.on_event
    sys.setprofile(profile)
    try:
        for event in counted:
            on_event(event)
    finally:
        sys.setprofile(None)

    # Every counted event is a REST or RPC latency sample on a warm
    # series: three calls each, and the body scan per RPC.
    assert calls == {
        "GretelAnalyzer.on_event": len(counted),
        "IncrementalLevelShiftDetector.update": len(counted),
        "SortedWindow.append": len(counted),
        "rpc_body_error": rpcs,
    }
    assert analyzer.stats().ls_samples_fed == 5000 + len(counted)
