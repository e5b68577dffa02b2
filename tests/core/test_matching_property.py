"""Property tests: incremental scoring is equivalent to from-scratch.

The engine's contract is *bit-identical* equivalence with ``rank``
over ``repro.reference.score_buffer`` (see ``docs/matching.md``), so
these properties randomize everything the adaptive loop varies —
snapshot contents, fault position, β growth schedule, candidate
needles, cut points and pure-read flags — and hold the two scorers to
exact equality, with the session's ``finalized`` side-channel a
subset of the reference's.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.analyzer import GretelAnalyzer
from repro.core.config import GretelConfig
from repro.core.detector import MATCH_COVERAGE, Candidate, OperationDetector
from repro.core.matching import (
    MatchSession,
    Preparation,
    member_scores,
    rank,
    scoring_classes,
    verify_detection,
)
from repro.reference import score_buffer
from repro.workloads.traffic import SyntheticStream

ALPHABET = "ABCDE"


@pytest.fixture(scope="module")
def library(small_character):
    return small_character.library


@pytest.fixture(scope="module")
def detector(library):
    """Supplies the matching engine and the default config."""
    return OperationDetector(
        library, library.symbols, library.symbols.catalog,
    )


@st.composite
def candidates(draw):
    pure_read = draw(st.booleans())
    needle = draw(st.text(alphabet=ALPHABET, min_size=1, max_size=8))
    if pure_read:
        return Candidate(None, Preparation(needle, (0,), True))
    cuts = draw(st.sets(
        st.integers(min_value=1, max_value=len(needle)), max_size=4,
    ))
    cuts.add(len(needle))
    return Candidate(
        None, Preparation(needle, tuple(sorted(cuts)), False),
    )


@st.composite
def scoring_cases(draw):
    fragments = draw(st.lists(
        st.sampled_from(list(ALPHABET) + [""]),
        min_size=1, max_size=40,
    ))
    fault = draw(st.integers(min_value=0, max_value=len(fragments) - 1))
    beta = draw(st.integers(min_value=1, max_value=6))
    delta = draw(st.integers(min_value=1, max_value=5))
    pool = draw(st.lists(candidates(), min_size=1, max_size=6))
    return fragments, fault, beta, delta, pool


def growth_windows(length, fault, beta, delta):
    """Outward β growth around ``fault``, as the adaptive loop walks."""
    windows = []
    while True:
        lo = max(0, fault - beta)
        hi = min(length, fault + beta + 1)
        windows.append((lo, hi))
        if lo == 0 and hi == length:
            return windows
        beta += delta


@st.composite
def duplicate_heavy_cases(draw):
    """``scoring_cases`` with the pool stamped out of ≤3 preparations,
    the way the library stamps tests out of operations: most scoring
    classes have several members, spread over the index range."""
    fragments, fault, beta, delta, preps = draw(scoring_cases())
    preps = preps[:3]
    pool = [
        # A fresh, un-interned copy each: classes form by key.
        Candidate(None, Preparation(*prep.preparation.key()))
        for prep in draw(st.lists(
            st.sampled_from(preps), min_size=2, max_size=12,
        ))
    ]
    return fragments, fault, beta, delta, pool


def assert_session_equals_reference(detector, fragments, pool, windows,
                                    *, config=None, finalize=True):
    """One session over ``windows`` in order against the from-scratch
    scorer on each: the session's class-keyed mappings, expanded
    through ``members``, equal the ranked per-candidate ones index for
    index, floats ``==``.  When the schedule carries ``finalized``
    dicts across the windows, the session's holds a subset of the
    reference's entries (it never scores a class that cannot rank),
    at the same values."""
    config = config or detector.config
    classes = scoring_classes(pool)
    session = MatchSession(
        fragments, classes,
        threshold=MATCH_COVERAGE,
        strict=not config.relaxed_match,
        stats=detector.matching_stats,
    )
    finalized_ref = {} if finalize else None
    finalized_inc = {} if finalize else None
    for lo, hi in windows:
        buffer_symbols = "".join(fragments[lo:hi])
        reference = score_buffer(
            pool, buffer_symbols, config, finalized_ref,
        )
        incremental = session.score(lo, hi, finalized_inc)
        assert member_scores(classes, incremental) == rank(pool, reference)
        if finalize:
            assert (member_scores(classes, finalized_inc).items()
                    <= finalized_ref.items())


def assert_session_equals_reference_on_growth(detector, case):
    """The whole growth schedule, one ``finalized`` dict per scorer."""
    fragments, fault, beta, delta, pool = case
    assert_session_equals_reference(
        detector, fragments, pool,
        growth_windows(len(fragments), fault, beta, delta),
    )


@given(case=scoring_cases())
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_session_equals_reference_on_random_growth(detector, case):
    assert_session_equals_reference_on_growth(detector, case)


@given(case=duplicate_heavy_cases())
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_session_fans_class_scores_out_to_every_member(detector, case):
    """The per-candidate reference scorer knows nothing of scoring
    classes, so equality here proves the fan-out."""
    pool = case[-1]
    assert len(scoring_classes(pool)) <= 3
    assert_session_equals_reference_on_growth(detector, case)


@given(case=scoring_cases(), strict=st.booleans())
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_session_equals_reference_without_finalization(
        detector, case, strict):
    """Single-shot windows (no ``finalized`` dict), both strictness
    profiles — the non-adaptive / performance-fault path."""
    fragments, fault, beta, delta, pool = case
    assert_session_equals_reference(
        detector, fragments, pool,
        growth_windows(len(fragments), fault, beta, delta),
        config=GretelConfig(relaxed_match=not strict), finalize=False,
    )


@st.composite
def arbitrary_window_cases(draw):
    """A snapshot, a duplicate-heavy pool and windows in no particular
    relation to one another: overlapping, disjoint, shrinking, empty,
    repeated."""
    fragments, _, _, _, pool = draw(duplicate_heavy_cases())
    bound = st.integers(min_value=0, max_value=len(fragments))
    windows = [
        tuple(sorted(pair))
        for pair in draw(st.lists(
            st.tuples(bound, bound), min_size=2, max_size=8,
        ))
    ]
    return fragments, pool, windows


@given(case=arbitrary_window_cases())
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_session_equals_reference_on_non_nested_windows(detector, case):
    """A session carries no window state of its own besides
    ``finalized``, so it scores any schedule of windows — not only a
    growing one — as the reference does.  No ``finalized`` dict here:
    finalization leans on coverage being monotone under growth, which
    an arbitrary schedule does not give."""
    fragments, pool, windows = case
    assert_session_equals_reference(
        detector, fragments, pool, windows, finalize=False,
    )


@given(
    seed=st.integers(min_value=0, max_value=200),
    fault_every=st.integers(min_value=20, max_value=200),
    count=st.integers(min_value=50, max_value=600),
)
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_detect_equivalence_on_random_streams(library, seed, fault_every,
                                              count):
    """End-to-end: full ``detect`` over randomized synthetic streams
    produces identical results from the engine and the reference
    scorer."""
    stream = SyntheticStream(library, library.symbols,
                             fault_every=fault_every, seed=seed)
    analyzer = GretelAnalyzer(
        library, track_latency=False, defer_detection=True,
    )
    analyzer.feed(stream.generate(count))
    analyzer.flush()
    snapshots = analyzer.deferred_snapshots()
    outcome = verify_detection(snapshots, library)
    assert outcome.ok, outcome.summary()
