"""Tests for the incremental scoring engine (repro.core.matching)."""

import pytest

from repro.openstack.catalog import default_catalog
from repro.openstack.wire import WireEvent
from repro.core.config import GretelConfig
from repro.core.analyzer import PERF_BUFFER_CAP
from repro.core.detector import MATCH_COVERAGE, Candidate, OperationDetector
from repro.core.fingerprint import (
    FingerprintLibrary,
    generate_fingerprint,
)
from repro.core.matching import (
    MatchSession,
    MatchingStats,
    Preparation,
    detection_signature,
    member_scores,
    rank,
    scoring_classes,
    select_cut,
    symbol_masks,
    verify_detection,
)
from repro.core.symbols import SymbolTable
from repro.core.window import Snapshot
from repro.oracle import OracleDivergence
from repro.reference import (
    ScratchScoringDetector,
    prefix_lcs_lengths,
    score_buffer,
    upper_bound,
)


@pytest.fixture(scope="module")
def catalog():
    return default_catalog()


@pytest.fixture(scope="module")
def symbols(catalog):
    return SymbolTable(catalog)


# The controlled operation universe from test_detector.py.
BOOT = ("rest", "nova", "POST", "/v2.1/servers")
PORT = ("rest", "neutron", "POST", "/v2.0/ports.json")
IMAGE = ("rest", "glance", "POST", "/v2/images")
UPLOAD = ("rest", "glance", "PUT", "/v2/images/{id}/file")
VOLUME = ("rest", "cinder", "POST", "/v2/{tenant}/volumes")
POLL = ("rest", "nova", "GET", "/v2.1/servers/{id}")
DEL_SRV = ("rest", "nova", "DELETE", "/v2.1/servers/{id}")
KEYPAIR = ("rest", "nova", "POST", "/v2.1/os-keypairs")
RPC_BUILD = ("rpc", "nova", None, "build_and_run_instance")
LIST_IMAGES = ("rest", "glance", "GET", "/v2/images")


def to_keys(catalog, specs):
    keys = []
    for kind, service, method, name in specs:
        if kind == "rest":
            keys.append(catalog.find_rest(service, method, name).key)
        else:
            keys.append(catalog.find_rpc(service, name).key)
    return keys


@pytest.fixture(scope="module")
def library(catalog, symbols):
    library = FingerprintLibrary(symbols)
    operations = {
        "op-boot": [IMAGE, UPLOAD, BOOT, RPC_BUILD, PORT, POLL, DEL_SRV],
        "op-image": [IMAGE, UPLOAD, LIST_IMAGES],
        "op-volume-boot": [VOLUME, IMAGE, UPLOAD, BOOT, RPC_BUILD, PORT, POLL],
        "op-keypair-boot": [KEYPAIR, IMAGE, UPLOAD, BOOT, RPC_BUILD, PORT,
                            POLL],
        "op-reads": [LIST_IMAGES, POLL],
    }
    for name, specs in operations.items():
        library.add(generate_fingerprint(
            name, [to_keys(catalog, specs)], symbols, catalog,
        ))
    return library


def make_detector(library, symbols, catalog, **overrides):
    config = GretelConfig(**overrides)
    return OperationDetector(library, symbols, catalog, config)


def make_snapshot(catalog, specs, fault_spec, fault_status=500, tail=()):
    """The last of ``specs`` faults when it is ``fault_spec``; the
    ``tail`` specs follow the fault, so the buffer grows past it."""
    keys = to_keys(catalog, list(specs) + list(tail))
    fault_key = to_keys(catalog, [fault_spec])[0]
    events = []
    fault_event = None
    for index, key in enumerate(keys):
        api = catalog.get(key)
        status = 200
        if (key == fault_key and fault_event is None
                and index == len(specs) - 1):
            status = fault_status
        event = WireEvent(
            seq=index, api_key=key, kind=api.kind, method=api.method,
            name=api.name, src_service="x", src_node="ctrl", src_ip="1",
            dst_service=api.service, dst_node="nova-ctl", dst_ip="2",
            ts_request=index * 0.1, ts_response=index * 0.1 + 0.01,
            status=status,
        )
        events.append(event)
        if status >= 400:
            fault_event = event
    if fault_event is None:
        fault_event = events[-1]
    return Snapshot(fault=fault_event, events=events,
                    fault_index=events.index(fault_event))


def make_candidate(needle, cuts=None, pure_read=False):
    """A fingerprint-less candidate for symbol-level engine tests."""
    return Candidate(
        None, Preparation(needle, tuple(cuts or [len(needle)]), pure_read),
    )


# -- symbol masks ---------------------------------------------------------


def window_count(masks, symbol, lo, hi):
    """Occurrences of ``symbol`` in ``[lo, hi)``, read the way the
    gate reads them: the symbol's mask under the window's bits."""
    window_bits = ((1 << (hi - lo)) - 1) << lo
    return (masks.get(symbol, 0) & window_bits).bit_count()


def test_index_counts_symbols_inside_window():
    masks = symbol_masks(["A", "B", "", "A", "C", "A"])
    assert window_count(masks, "A", 0, 6) == 3
    assert window_count(masks, "A", 1, 5) == 1
    assert window_count(masks, "A", 4, 4) == 0
    assert window_count(masks, "A", 5, 6) == 1
    assert window_count(masks, "Z", 0, 6) == 0


def test_index_excludes_blank_fragments():
    masks = symbol_masks(["", "A", ""])
    assert masks == {"A": 0b10}
    assert window_count(masks, "", 0, 3) == 0


@pytest.mark.parametrize("fragments", [
    [],
    [""],
    ["", "", ""],
    ["A"],
    ["A", "B", "", "A", "C", "A"],
    # Past one machine word, and past the detector's default α.
    (["A", "", "B", "B", "", "C", "A"] * 120)[:769],
])
def test_index_masks_agree_with_positions_bit_for_bit(fragments):
    masks = symbol_masks(fragments)
    assert masks.keys() == set(fragments) - {""}
    for symbol, mask in masks.items():
        assert [
            p for p in range(mask.bit_length()) if mask >> p & 1
        ] == [
            p for p, fragment in enumerate(fragments) if fragment == symbol
        ]
    # Every non-blank position is in exactly one mask.
    union = 0
    for mask in masks.values():
        assert not union & mask
        union |= mask
    assert union == sum(
        1 << p for p, fragment in enumerate(fragments) if fragment
    )


# -- multiplicity gate (satellite 1) --------------------------------------


def test_upper_bound_respects_multiplicities():
    """A needle 'AAB' must not be fully credited by a single 'A'
    (the set-intersection bound this replaced credited alphabet
    membership, not occurrences)."""
    preparation = Preparation("AAB", (3,), False)
    # Set-of-symbols view: both symbols present => old bound was 1.0.
    assert preparation.alphabet == frozenset("AB")
    assert upper_bound(preparation, {"A": 1, "B": 1}) == pytest.approx(2 / 3)
    assert upper_bound(preparation, {"A": 2, "B": 1}) == pytest.approx(1.0)
    # Surplus buffer copies never over-credit.
    assert upper_bound(preparation, {"A": 9, "B": 9}) == pytest.approx(1.0)


@pytest.mark.parametrize("needle,buffer_symbols", [
    ("AAB", "ABA"),
    ("AAB", "BBBA"),
    ("ABCABC", "CBACBA"),
    ("AAAA", "A"),
    ("AB", "A"),
    ("A", ""),
])
def test_upper_bound_is_a_true_upper_bound(needle, buffer_symbols):
    """The gate must never prune a candidate the LCS would accept:
    bound >= the coverage ``select_cut`` settles on, whichever cuts
    the needle is truncated at (needle ``AB``, buffer ``A``, cuts
    (1, 2): the short cut is fully covered though the needle is not,
    and gating on ``LCS / len(needle)`` dropped it)."""
    from collections import Counter

    lengths = prefix_lcs_lengths(needle, buffer_symbols)
    for first_cut in range(1, len(needle) + 1):
        cuts = tuple(sorted({first_cut, len(needle)}))
        preparation = Preparation(needle, cuts, False)
        bound = upper_bound(preparation, Counter(buffer_symbols))
        assert bound >= select_cut(cuts, lengths)[1], cuts


def test_upper_bound_monotone_under_buffer_growth():
    from collections import Counter

    preparation = Preparation("AABBC", (5,), False)
    buffer_symbols = ""
    previous = 0.0
    for extension in ["A", "B", "Z", "A", "C", "B", "A"]:
        buffer_symbols += extension
        bound = upper_bound(preparation, Counter(buffer_symbols))
        assert bound >= previous
        previous = bound


# -- select_cut -----------------------------------------------------------


def test_select_cut_prefers_coverage_then_length():
    # cut 2 fully covered beats cut 4 at 3/4.
    assert select_cut([2, 4], {2: 2, 4: 3}) == (2, 1.0)
    # Equal coverage: the longer corroboration wins.
    assert select_cut([2, 4], {2: 1, 4: 2}) == (2, 0.5)
    # Non-positive cuts are skipped outright.
    assert select_cut([0, 3], {0: 0, 3: 2}) == (2, pytest.approx(2 / 3))
    assert select_cut([], {}) == (0, 0.0)


# -- session vs reference scorer ------------------------------------------


def snapshot_windows(snapshot, config):
    """The exact (lo, hi) schedule detect() would visit."""
    alpha = max(len(snapshot.events), 2)
    beta = max(1, config.context_buffer_start(alpha) // 2)
    delta = config.context_buffer_step(alpha)
    windows = []
    while True:
        windows.append(snapshot.bounds(beta))
        if snapshot.covers_all(beta):
            return windows
        beta += delta


def test_session_matches_reference_scorer(library, symbols, catalog):
    detector = make_detector(library, symbols, catalog)
    reference_detector = ScratchScoringDetector(library, symbols, catalog)
    snapshot = make_snapshot(
        catalog,
        [KEYPAIR, LIST_IMAGES, IMAGE, VOLUME, UPLOAD, LIST_IMAGES, BOOT,
         PORT, POLL],
        POLL,
    )
    candidates = detector.candidates_for(snapshot.fault.api_key)
    session = MatchSession(
        detector._session_fragments(snapshot, ""),
        candidates.classes,
        threshold=MATCH_COVERAGE,
        strict=not detector.config.relaxed_match,
        stats=detector.matching_stats,
    )
    finalized_ref = {}
    finalized_inc = {}
    for lo, hi in snapshot_windows(snapshot, detector.config):
        reference = score_buffer(
            candidates,
            reference_detector._buffer_symbols(snapshot, lo, hi, ""),
            detector.config, finalized_ref,
        )
        incremental = session.score(lo, hi, finalized_inc)
        classes = candidates.classes
        assert member_scores(classes, incremental) == rank(
            candidates, reference,
        )
        # The session finalizes only what it scored: a subset of the
        # reference's entries, at the same values.
        assert (member_scores(classes, finalized_inc).items()
                <= finalized_ref.items())


def test_session_rescore_uses_cache(library, symbols, catalog):
    """Re-scoring an unchanged relevant span must answer from cache."""
    detector = make_detector(library, symbols, catalog)
    snapshot = make_snapshot(
        catalog, [KEYPAIR, IMAGE, UPLOAD, BOOT, PORT, POLL], POLL,
    )
    candidates = detector.candidates_for(snapshot.fault.api_key)
    session = MatchSession(
        detector._session_fragments(snapshot, ""),
        candidates.classes,
        threshold=MATCH_COVERAGE,
        strict=not detector.config.relaxed_match,
        stats=detector.matching_stats,
    )
    lo, hi = 0, len(snapshot.events)
    first = session.score(lo, hi)
    before = detector.matching_stats.rescore_hits
    second = session.score(lo, hi)
    assert second == first
    assert detector.matching_stats.rescore_hits > before


def test_reference_scorer_bypasses_engine_without_changing_results(
        library, symbols, catalog):
    reference = ScratchScoringDetector(library, symbols, catalog)
    incremental = make_detector(library, symbols, catalog)
    snapshot = make_snapshot(
        catalog, [KEYPAIR, IMAGE, VOLUME, UPLOAD, BOOT, PORT, POLL], POLL,
    )
    expected = detection_signature(reference.detect(snapshot))
    actual = detection_signature(incremental.detect(snapshot))
    assert actual == expected
    # The reference path never touches the engine; the incremental
    # path did real work.
    assert reference.matching_stats.lcs_row_extensions == 0
    assert incremental.matching_stats.lcs_row_extensions > 0


# -- scoring classes ------------------------------------------------------


def test_scoring_classes_group_identical_preparations():
    pool = [
        make_candidate("ABC", [2, 3]),
        make_candidate("ABD"),
        make_candidate("ABC", [2, 3]),
        make_candidate("ABC", [2, 3]),
    ]
    classes = scoring_classes(pool)
    # Ordered by first member; grouped by key, not by object identity
    # (none of these preparations is interned).
    assert [c.members for c in classes] == [(0, 2, 3), (1,)]
    first = classes[0].preparation
    assert first is pool[0].preparation
    assert first.key() == ("ABC", (2, 3), False)
    assert first.alphabet == frozenset("ABC")
    assert dict(first.needle_items) == {"A": 1, "B": 1, "C": 1}
    assert (first.size, first.final_length) == (3, 3)


def test_scoring_classes_separate_cuts_and_pure_read(
        library, symbols, catalog):
    """Same needle, different ``cuts`` → different classes;
    same symbols, different ``pure_read`` → different classes.  Each
    pair also *scores* differently on the window below, so merging
    either would be a wrong answer, not just a different layout."""
    detector = make_detector(library, symbols, catalog)
    pool = [
        make_candidate("ABCD", [4]),
        make_candidate("ABCD", [2, 4]),
        make_candidate("ABCD", [4], pure_read=True),
        make_candidate("ABCD", [4]),
    ]
    assert [c.members for c in scoring_classes(pool)] == [
        (0, 3), (1,), (2,),
    ]
    fragments = ["A", "B", "C"]
    classes = scoring_classes(pool)
    session = MatchSession(
        fragments, classes,
        threshold=MATCH_COVERAGE, strict=False,
        stats=detector.matching_stats,
    )
    reference = score_buffer(pool, "ABC", detector.config)
    # 3/4 passes the 0.7 threshold; the [2, 4] twin prefers its fully
    # covered short cut; the pure read needs 0.999 and is gated.
    assert reference == {0: (3, 0.75), 1: (2, 1.0), 3: (3, 0.75)}
    # Ranked, the longer corroboration wins: that is all the session
    # returns, and it fans out to both members.
    by_class = session.score(0, 3)
    assert by_class == {0: (3, 0.75)}
    assert member_scores(classes, by_class) == rank(pool, reference) == {
        0: (3, 0.75), 3: (3, 0.75),
    }


def duplicate_library(catalog, symbols):
    """Operations that differ only *after* ``PORT``: truncated at a
    ``PORT`` fault, a/b share one preparation and c/d another."""
    library = FingerprintLibrary(symbols)
    operations = {
        "op-a": [IMAGE, UPLOAD, BOOT, PORT, POLL, DEL_SRV],
        "op-b": [IMAGE, UPLOAD, BOOT, PORT, KEYPAIR],
        "op-c": [VOLUME, BOOT, PORT, POLL],
        "op-d": [VOLUME, BOOT, PORT, DEL_SRV],
        "op-e": [KEYPAIR, IMAGE, UPLOAD, BOOT, PORT],
    }
    for name, specs in operations.items():
        library.add(generate_fingerprint(
            name, [to_keys(catalog, specs)], symbols, catalog,
        ))
    return library


def test_stats_account_for_every_candidate_of_every_iteration(
        catalog, symbols):
    """On one fixed snapshot: per window, candidates gated + members
    of the classes that pass the gate + members answered from
    ``finalized`` is the whole selection.  ``candidates_gated`` counts
    candidates; ``lcs_row_extensions`` + ``rescore_hits`` count the
    evaluations actually run — one per class at most, none for a
    class whose bound cannot reach the best length."""
    from collections import Counter

    library = duplicate_library(catalog, symbols)
    detector = make_detector(library, symbols, catalog)
    reference_detector = ScratchScoringDetector(library, symbols, catalog)
    snapshot = make_snapshot(
        catalog, [KEYPAIR, IMAGE, UPLOAD, LIST_IMAGES, BOOT, POLL, PORT],
        PORT,
    )
    candidates = detector.candidates_for(snapshot.fault.api_key)
    classes = candidates.classes
    assert sorted(len(c.members) for c in classes) == [1, 2, 2]
    session = MatchSession(
        detector._session_fragments(snapshot, ""), classes,
        threshold=MATCH_COVERAGE,
        strict=not detector.config.relaxed_match,
        stats=detector.matching_stats,
    )
    stats = detector.matching_stats
    windows = snapshot_windows(snapshot, detector.config)
    finalized = {}
    accounted = 0
    for lo, hi in windows:
        buffer_counts = Counter(
            reference_detector._buffer_symbols(snapshot, lo, hi, "")
        )
        answered = sum(len(classes[i].members) for i in finalized)
        evaluated = [
            c for i, c in enumerate(classes)
            if i not in finalized and upper_bound(
                c.preparation, buffer_counts,
            ) >= MATCH_COVERAGE
        ]
        gated_before = stats.candidates_gated
        runs_before = stats.lcs_row_extensions + stats.rescore_hits
        session.score(lo, hi, finalized)
        gated = stats.candidates_gated - gated_before
        runs = stats.lcs_row_extensions + stats.rescore_hits - runs_before
        assert runs <= len(evaluated)
        fanned_out = sum(len(c.members) for c in evaluated)
        assert gated + fanned_out + answered == len(candidates)
        accounted += gated + fanned_out + answered
    assert len(windows) > 1 and finalized
    assert accounted == len(candidates) * len(windows)


# -- differential oracle --------------------------------------------------


@pytest.fixture(scope="module")
def oracle_snapshots(catalog):
    return [
        make_snapshot(
            catalog, [KEYPAIR, IMAGE, UPLOAD, BOOT, PORT, POLL], POLL,
        ),
        make_snapshot(catalog, [IMAGE, UPLOAD], UPLOAD),
        make_snapshot(
            catalog, [VOLUME, IMAGE, UPLOAD, BOOT, PORT], PORT,
        ),
        make_snapshot(
            catalog,
            [KEYPAIR, LIST_IMAGES, IMAGE, VOLUME, UPLOAD, LIST_IMAGES,
             BOOT, PORT, POLL],
            POLL,
        ),
    ]


def test_verify_detection_equivalent(
        library, oracle_snapshots, small_character):
    outcome = verify_detection(oracle_snapshots, library)
    assert outcome.ok
    assert outcome.facts["snapshots"] == len(oracle_snapshots)
    assert outcome.summary().startswith("EQUIVALENT")
    # The non-default configs the committed ablations run
    # (results/ablation_*.txt, extension_correlation_ids.txt): a
    # window tighter than the operations it watches, the buffer
    # filtered to the offending request chain, and the three switches
    # that change what bound-ordered scoring reads — the required
    # symbols, the truncation cuts and which classes are pure reads.
    streamed = small_character.library
    snapshots_at = {}
    for alpha, config in (
        (400, GretelConfig(alpha=400)),
        (768, GretelConfig(use_correlation_ids=True)),
        (768, GretelConfig(relaxed_match=False)),
        (768, GretelConfig(truncate_fingerprints=False)),
        (768, GretelConfig(prune_rpcs=False)),
    ):
        if alpha not in snapshots_at:
            snapshots_at[alpha] = wide_snapshots(streamed, alpha, 10 * alpha)
        snapshots = snapshots_at[alpha]
        assert any(snapshot.fault.request_id for snapshot in snapshots)
        outcome = verify_detection(snapshots, streamed, config=config)
        assert outcome.ok, outcome.summary()
        assert outcome.facts["snapshots"] >= 5


def test_verify_detection_raises_on_divergence(
        library, oracle_snapshots, monkeypatch):
    """A corrupted incremental scorer must trip the oracle."""
    monkeypatch.setattr(
        MatchSession, "score",
        lambda self, lo, hi, finalized=None: {},
    )
    with pytest.raises(OracleDivergence, match="DIVERGED") as excinfo:
        verify_detection(oracle_snapshots, library)
    assert excinfo.value.result.layer == "detection"
    outcome = verify_detection(
        oracle_snapshots, library, strict=False,
    )
    assert not outcome.ok
    assert outcome.mismatches


def test_verify_detection_catches_a_member_dropped_from_fan_out(
        catalog, symbols, monkeypatch):
    """The reference scores candidate by candidate, so a class that
    forgets one member shows up as a missing operation."""
    import repro.core.detector as detector_module

    def lossy(candidates):
        classes = scoring_classes(candidates)
        for scoring_class in classes:
            if len(scoring_class.members) > 1:
                scoring_class.members = scoring_class.members[:-1]
                break
        return classes

    snapshots = [make_snapshot(
        catalog, [IMAGE, UPLOAD, BOOT, PORT], PORT,
    )]
    # Selections are partitioned when their library is compiled, and
    # the compilation is memoized per library: a fresh library per
    # half keeps the tampered one out of the honest run.
    honest = verify_detection(
        snapshots, duplicate_library(catalog, symbols),
    )
    assert honest.ok
    monkeypatch.setattr(detector_module, "scoring_classes", lossy)
    outcome = verify_detection(
        snapshots, duplicate_library(catalog, symbols), strict=False,
    )
    assert not outcome.ok
    assert outcome.summary().startswith("DIVERGED")
    assert "op-b" in outcome.mismatches[0]


def test_verify_detection_covers_performance_path(
        library, oracle_snapshots):
    outcome = verify_detection(
        oracle_snapshots, library, performance_fault=True,
    )
    assert outcome.ok


def wide_snapshots(library, alpha, count):
    """Frozen snapshots of a synthetic stream under ``alpha``."""
    from repro.core.analyzer import GretelAnalyzer
    from repro.workloads.traffic import SyntheticStream

    analyzer = GretelAnalyzer(
        library, config=GretelConfig(alpha=alpha),
        track_latency=False, defer_detection=True,
    )
    analyzer.feed(SyntheticStream(
        library, library.symbols, fault_every=alpha, seed=11,
    ).generate(count))
    analyzer.flush()
    return analyzer.deferred_snapshots()


def test_verify_detection_equivalent_on_multi_word_rows(small_character):
    """Rows are as wide as the window: at α = 3072 the β-loop runs
    307- to 3072-bit integers through the recurrence (5 to 48 machine
    words), where the default α stops at 12."""
    library = small_character.library
    config = GretelConfig(alpha=3072)
    snapshots = [
        snapshot for snapshot in wide_snapshots(library, 3072, 10_000)
        if len(snapshot.events) >= 3000
    ]
    assert len(snapshots) >= 2
    detector = OperationDetector(
        library, library.symbols, library.symbols.catalog, config,
    )
    assert any(
        detector.detect(snapshot).matched for snapshot in snapshots
    )
    assert detector.matching_stats.lcs_row_extensions > 0
    outcome = verify_detection(snapshots, library, config=config)
    assert outcome.ok, outcome.summary()


def test_verify_detection_equivalent_at_perf_buffer_cap(small_character):
    """The performance path scores the whole snapshot in one window:
    ``PERF_BUFFER_CAP`` events, one 1024-bit row per class."""
    library = small_character.library
    config = GretelConfig()
    cap = PERF_BUFFER_CAP
    snapshots = []
    for snapshot in wide_snapshots(library, 2 * cap, 5 * cap):
        lo = max(0, snapshot.fault_index - cap // 2)
        events = snapshot.events[lo:lo + cap]
        if len(events) == cap:
            snapshots.append(Snapshot(
                fault=snapshot.fault, events=events,
                fault_index=snapshot.fault_index - lo,
            ))
    assert snapshots
    detector = OperationDetector(
        library, library.symbols, library.symbols.catalog, config,
    )
    results = [
        detector.detect(snapshot, performance_fault=True)
        for snapshot in snapshots
    ]
    assert all(result.beta_used == cap for result in results)
    assert any(result.matched for result in results)
    outcome = verify_detection(
        snapshots, library, config=config, performance_fault=True,
    )
    assert outcome.ok, outcome.summary()


def test_tie_on_length_is_broken_by_candidates_not_classes(
        catalog, symbols):
    """Three read-only operations share one preparation and match the
    two events around the fault; one state-changing operation reaches
    the same corroborated length two windows later and, being
    state-change evidence, displaces them.  Same length, so the larger
    window wins only because it names fewer *candidates* (1 < 3); by
    classes it is 1 against 1, a tie, and the loop would have kept the
    small window's three reads."""
    library = FingerprintLibrary(symbols)
    operations = {
        "op-read-a": [LIST_IMAGES, POLL],
        "op-read-b": [LIST_IMAGES, POLL, LIST_IMAGES],
        "op-read-c": [LIST_IMAGES, POLL, LIST_IMAGES, LIST_IMAGES],
        "op-write": [BOOT, PORT, POLL],
    }
    for name, specs in operations.items():
        library.add(generate_fingerprint(
            name, [to_keys(catalog, specs)], symbols, catalog,
        ))
    snapshot = make_snapshot(
        catalog, [BOOT, PORT, LIST_IMAGES, POLL], POLL,
    )
    detector = make_detector(library, symbols, catalog)
    candidates = detector.candidates_for(snapshot.fault.api_key)
    assert sorted(
        (c.preparation.pure_read, len(c.members))
        for c in candidates.classes
    ) == [(False, 1), (True, 3)]
    result = detector.detect(snapshot)
    assert result.operations == ["op-write"]
    assert (result.beta_used, result.iterations) == (3, 3)
    # The per-candidate loop — every class a singleton — agrees.
    reference = ScratchScoringDetector(library, symbols, catalog)
    assert detection_signature(reference.detect(snapshot)) == \
        detection_signature(result)
    # ... and one window earlier the reads were the answer.
    early = Snapshot(
        fault=snapshot.fault, events=snapshot.events[1:], fault_index=2,
    )
    assert detector.detect(early).operations == [
        "op-read-a", "op-read-b", "op-read-c",
    ]


# -- bound-ordered scoring ------------------------------------------------


def open_session(pool, fragments):
    """A session over ``pool``'s classes with its own counters, so they
    start at zero."""
    stats = MatchingStats()
    classes = scoring_classes(pool)
    session = MatchSession(
        fragments, classes, threshold=MATCH_COVERAGE, strict=False,
        stats=stats,
    )
    return session, classes, stats


def test_pure_reads_run_no_dp_once_a_state_change_class_scores():
    """The pure read ``AB`` passes the gate and would pass coverage
    (the reference scores it), but a state-change class passed
    coverage, so ranking drops every pure read: the session runs one
    DP pass, not three.  Fails if pure reads are scored whenever they
    pass the gate."""
    pool = [
        make_candidate("AB"),
        make_candidate("AB", pure_read=True),
        make_candidate("BA", pure_read=True),
    ]
    session, classes, stats = open_session(pool, ["A", "B"])
    reference = score_buffer(pool, "AB", GretelConfig())
    assert reference == {0: (2, 1.0), 1: (2, 1.0)}
    assert session.score(0, 2) == rank(pool, reference) == {0: (2, 1.0)}
    assert stats.lcs_row_extensions == 1
    assert stats.candidates_gated == 0


def test_bound_below_the_best_skips_the_dp():
    """Four classes pass the gate; the first scored (bound 3) reaches
    length 3, and every other bound is below it: one DP pass for four
    gated-in classes.  Fails if the scan does not stop at the first
    bound below the best."""
    pool = [
        make_candidate("AB"), make_candidate("ABC"),
        make_candidate("BC"), make_candidate("A"),
    ]
    session, classes, stats = open_session(pool, ["A", "B", "C"])
    assert session.score(0, 3) == {1: (3, 1.0)}
    assert stats.candidates_gated == 0
    assert stats.lcs_row_extensions == 1 < len(classes)
    assert rank(pool, score_buffer(pool, "ABC", GretelConfig())) == {
        1: (3, 1.0),
    }


def test_classes_tied_at_the_best_length_both_rank():
    """``AB`` and ``CD`` both corroborate 2 symbols: the second one's
    bound equals the best, so it is scored and ranks beside the first.
    Fails if the prune compares with ``<=``."""
    pool = [make_candidate("AB"), make_candidate("CD")]
    session, classes, stats = open_session(pool, ["A", "B", "C", "D"])
    assert session.score(0, 4) == {0: (2, 1.0), 1: (2, 1.0)}
    assert stats.lcs_row_extensions == 2


def test_class_pruned_where_the_reference_finalizes_it(catalog, symbols):
    """On the window that first holds all of ``op-long``, ``op-short``
    is fully covered too: the reference finalizes it there, the
    session skips it (bound 2 below the best, 4) and keeps skipping
    it while the buffer grows past the fault.  The session's
    ``finalized`` stays a subset of the reference's, at equal values,
    and the detection ends in the reference's result.  The subset
    check fails if a skipped class is entered in ``finalized`` with
    its cached result."""
    library = FingerprintLibrary(symbols)
    for name, specs in {
        "op-short": [KEYPAIR, PORT],
        "op-long": [KEYPAIR, IMAGE, BOOT, PORT],
    }.items():
        library.add(generate_fingerprint(
            name, [to_keys(catalog, specs)], symbols, catalog,
        ))
    snapshot = make_snapshot(
        catalog, [KEYPAIR, IMAGE, BOOT, PORT], PORT,
        tail=[LIST_IMAGES] * 5,
    )
    detector = make_detector(library, symbols, catalog)
    reference_detector = ScratchScoringDetector(library, symbols, catalog)
    candidates = detector.candidates_for(snapshot.fault.api_key)
    classes = candidates.classes
    session = MatchSession(
        detector._session_fragments(snapshot, ""), classes,
        threshold=MATCH_COVERAGE, strict=False,
        stats=detector.matching_stats,
    )
    finalized_ref = {}
    finalized_inc = {}
    skipped_final = []
    for lo, hi in snapshot_windows(snapshot, detector.config):
        reference = score_buffer(
            candidates,
            reference_detector._buffer_symbols(snapshot, lo, hi, ""),
            detector.config, finalized_ref,
        )
        ranked = session.score(lo, hi, finalized_inc)
        assert member_scores(classes, ranked) == rank(candidates, reference)
        session_final = member_scores(classes, finalized_inc)
        assert session_final.items() <= finalized_ref.items()
        skipped_final.append(sorted(
            candidates[i].fingerprint.operation
            for i in finalized_ref.keys() - session_final.keys()
        ))
    assert skipped_final[2:] == [["op-short"]] * (len(skipped_final) - 2)
    assert len(skipped_final) > 3
    result = detector.detect(snapshot)
    assert result.operations == ["op-long"]
    assert detection_signature(result) == detection_signature(
        reference_detector.detect(snapshot)
    )


# -- stats plumbing -------------------------------------------------------


def test_matching_stats_merge():
    merged = MatchingStats(
        candidates_gated=1, lcs_row_extensions=3,
        lcs_symbols_fed=4, rescore_hits=5,
    ) + MatchingStats(
        candidates_gated=10, lcs_row_extensions=30,
        lcs_symbols_fed=40, rescore_hits=50,
    )
    assert merged == MatchingStats(
        candidates_gated=11, lcs_row_extensions=33,
        lcs_symbols_fed=44, rescore_hits=55,
    )


def test_detector_exposes_matching_stats(library, symbols, catalog):
    detector = make_detector(library, symbols, catalog)
    snapshot = make_snapshot(
        catalog, [KEYPAIR, IMAGE, UPLOAD, BOOT, PORT, POLL], POLL,
    )
    detector.detect(snapshot)
    stats = detector.matching_stats
    assert stats.lcs_symbols_fed > 0
    assert stats.lcs_row_extensions > 0
