"""Micro-benchmarks of GRETEL's hot paths."""

from repro.openstack.catalog import default_catalog
from repro.core.detector import MATCH_COVERAGE
from repro.core.fingerprint import (
    filter_noise,
    longest_common_subsequence,
)
from repro.core.window import SlidingWindow
from repro.reference import prefix_lcs_lengths


def test_sliding_window_append(benchmark, character):
    """Per-event cost of the dual-buffer window (the receiver's core)."""
    from repro.workloads.traffic import SyntheticStream

    stream = SyntheticStream(character.library, character.library.symbols,
                             fault_every=10**9)
    events = stream.events(2000)

    def run():
        window = SlidingWindow(alpha=768)
        for event in events:
            window.append(event)
        return window

    window = benchmark(run)
    assert len(window) == 768


def test_noise_filter(benchmark, character):
    catalog = default_catalog()
    symbols = character.library.symbols
    fingerprint = max(character.library, key=len)
    trace = symbols.decode(fingerprint.symbols) * 5

    result = benchmark(filter_noise, trace, catalog)
    assert result


def test_lcs(benchmark, character):
    symbols = character.library.symbols
    fingerprint = max(character.library, key=len)
    a = symbols.decode(fingerprint.symbols)
    b = a[1:] + a[:1]

    result = benchmark(longest_common_subsequence, a, b)
    assert len(result) >= len(a) - 2


def test_prefix_lcs(benchmark, character):
    fingerprint = max(character.library, key=len)
    needle = fingerprint.state_change_symbols
    haystack = fingerprint.symbols * 10

    lengths = benchmark(prefix_lcs_lengths, needle, haystack)
    assert lengths[-1] == len(needle)


def _levelshift_series(samples=5_000, seed=5):
    """A latency series with occasional level shifts (alarms, re-seeds
    and confirm streaks all exercised)."""
    import random

    rng = random.Random(seed)
    series = []
    ts, level = 0.0, 0.010
    for _ in range(samples):
        ts += rng.uniform(0.05, 0.15)
        if rng.random() < 0.002:
            level = 0.010 * rng.uniform(1.0, 8.0)
        series.append((ts, level * rng.uniform(0.9, 1.1)))
    return series


def test_levelshift_update(benchmark):
    """Per-sample cost of the streaming LS engine (sorted rolling
    window + median-only floor gate — the production default)."""
    from repro.core.streamstats import IncrementalLevelShiftDetector

    series = _levelshift_series()

    def run():
        update = IncrementalLevelShiftDetector().update
        return sum(update(ts, value) is not None for ts, value in series)

    assert benchmark(run)


def test_levelshift_update_reference(benchmark):
    """The same series through the from-scratch reference detector
    (three sorts per sample) — the before/after pair for streamstats."""
    from repro.reference import LevelShiftDetector

    series = _levelshift_series()

    def run():
        update = LevelShiftDetector().update
        return sum(update(ts, value) is not None for ts, value in series)

    assert benchmark(run)


def _detection_fixture(character, detector_class=None):
    from repro.core.config import GretelConfig
    from repro.core.detector import OperationDetector
    from repro.core.window import Snapshot
    from repro.workloads.traffic import SyntheticStream

    catalog = default_catalog()
    stream = SyntheticStream(character.library, character.library.symbols,
                             fault_every=700, seed=3)
    events = stream.events(1500)
    fault = next(e for e in events if e.error)
    snapshot = Snapshot(fault=fault, events=events[:1400],
                        fault_index=events.index(fault))
    detector = (detector_class or OperationDetector)(
        character.library, character.library.symbols, catalog,
        GretelConfig(p_rate=1300.0),
    )
    return detector, snapshot


def _growth_windows(detector, snapshot):
    """The (lo, hi) schedule the adaptive loop visits, precomputed."""
    config = detector.config
    alpha = max(len(snapshot.events), 2)
    beta = max(1, config.context_buffer_start(alpha) // 2)
    delta = config.context_buffer_step(alpha)
    windows = []
    while True:
        windows.append(snapshot.bounds(beta))
        if snapshot.covers_all(beta):
            return windows
        beta += delta


def test_operation_detection(benchmark, character):
    """One full Algorithm-2 pass on a realistic snapshot (the
    production detector)."""
    detector, snapshot = _detection_fixture(character)

    result = benchmark(detector.detect, snapshot)
    assert result.candidates > 0


def test_operation_detection_reference(benchmark, character):
    """The same pass with the from-scratch reference scorer — the
    before/after pair for the incremental engine."""
    from repro.reference import ScratchScoringDetector

    detector, snapshot = _detection_fixture(
        character, ScratchScoringDetector,
    )

    result = benchmark(detector.detect, snapshot)
    assert result.candidates > 0


def _fresh_schedule(character):
    """``run()`` scores one β growth schedule from scratch, candidate
    by candidate, and returns the last window's mapping."""
    from repro.reference import ScratchScoringDetector, score_buffer

    detector, snapshot = _detection_fixture(
        character, ScratchScoringDetector,
    )
    candidates = detector.candidates_for(snapshot.fault.api_key)
    windows = _growth_windows(detector, snapshot)

    def run():
        finalized = {}
        scores = {}
        for lo, hi in windows:
            scores = score_buffer(
                candidates,
                detector._buffer_symbols(snapshot, lo, hi, ""),
                detector.config, finalized,
            )
        return scores

    return run


def test_score_fresh(benchmark, character):
    """From-scratch scoring across one β growth schedule: every
    iteration re-joins, re-strips and re-runs the LCS over the whole
    window (the reference scorer's cost model)."""
    assert benchmark(_fresh_schedule(character))


def test_score_incremental(benchmark, character):
    """The same growth schedule through a MatchSession: per iteration
    only the classes that can still rank and whose relevant positions
    changed are re-scored (O(δ) steady state), scores stay keyed by
    class across the schedule and are expanded to candidates once, as
    ``detect`` does.  The session returns the ranked classes, so it
    equals the from-scratch schedule's last mapping once ranked."""
    from repro.core.matching import MatchSession, member_scores, rank

    detector, snapshot = _detection_fixture(character)
    candidates = detector.candidates_for(snapshot.fault.api_key)
    windows = _growth_windows(detector, snapshot)
    fragments = detector._session_fragments(snapshot, "")

    def run():
        session = MatchSession(
            fragments, candidates.classes,
            threshold=MATCH_COVERAGE,
            strict=not detector.config.relaxed_match,
            stats=detector.matching_stats,
        )
        finalized = {}
        scores = {}
        for lo, hi in windows:
            scores = session.score(lo, hi, finalized)
        return member_scores(candidates.classes, scores)

    scores = benchmark(run)
    assert scores and scores == rank(candidates, _fresh_schedule(character)())


def test_fingerprint_generation_cost(benchmark, character):
    """Cost of Algorithm 1 on a Compute-scale pair of traces."""
    from repro.core.fingerprint import generate_fingerprint

    catalog = default_catalog()
    symbols = character.library.symbols
    fingerprint = max(character.library, key=len)
    trace = symbols.decode(fingerprint.symbols)

    def generate():
        return generate_fingerprint("bench", [trace, trace[1:] + trace[:1]],
                                    symbols, catalog)

    result = benchmark(generate)
    assert len(result) > 0


def test_overlap_computation_cost(benchmark, character):
    from repro.evaluation import fig5

    result = benchmark(fig5.run, character)
    assert result["all"]


def test_level_shift_detector_cost(benchmark):
    """Per-sample cost of the online LS detector."""
    import random

    from repro.core.streamstats import IncrementalLevelShiftDetector

    rng = random.Random(0)
    values = [0.01 + rng.uniform(0, 0.002) for _ in range(5000)]

    def run():
        update = IncrementalLevelShiftDetector().update
        return sum(update(float(index), value) is not None
                   for index, value in enumerate(values))

    assert benchmark(run) == 0


def test_detection_cost_per_fault(benchmark, character):
    """Wall-clock cost of one full Algorithm-2 + Algorithm-3 pass."""
    from repro.core.config import GretelConfig
    from repro.evaluation.common import run_fault_workload

    def one_run():
        return run_fault_workload(
            concurrency=50, n_faults=1, character=character, seed=13,
            config=GretelConfig(p_rate=650.0),
        )

    stats = benchmark.pedantic(one_run, rounds=1, iterations=1)
    assert stats.injected == 1


def test_event_receiver_cost(benchmark, character):
    """Per-event cost of the GRETEL receiver on a clean stream."""
    from repro.core.analyzer import GretelAnalyzer
    from repro.core.config import GretelConfig
    from repro.workloads.traffic import SyntheticStream

    stream = SyntheticStream(character.library, character.library.symbols,
                             fault_every=10**9)
    events = stream.events(5_000)

    def feed():
        analyzer = GretelAnalyzer(
            character.library, config=GretelConfig(p_rate=50_000.0),
            track_latency=False, defer_detection=True,
        )
        analyzer.feed(events)
        return analyzer

    analyzer = benchmark(feed)
    assert analyzer.events_processed == 5_000


def test_hansel_stitching_cost(benchmark, character):
    """Per-event cost of HANSEL's per-message stitching."""
    from repro.baselines.hansel import HanselAnalyzer
    from repro.workloads.traffic import SyntheticStream

    stream = SyntheticStream(character.library, character.library.symbols,
                             fault_every=10**9)
    events = stream.events(5_000)

    def feed():
        hansel = HanselAnalyzer()
        hansel.feed(events)
        return hansel

    hansel = benchmark(feed)
    assert hansel.events_processed == 5_000
