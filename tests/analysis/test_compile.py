"""Library compiler: selections, the pool, the memo and the oracle."""

import gc
import sys
import threading
import weakref
from weakref import WeakKeyDictionary

import pytest

import repro.analysis.compile as compile_module
from repro.analysis.compile import (
    CompiledIndex,
    candidate_signature,
    compile_library,
    compiled_index_for,
    selection_flags,
    verify_selection,
)
from repro.core.analyzer import GretelAnalyzer
from repro.core.config import GretelConfig
from repro.core.detector import Candidate, OperationDetector, Selection
from repro.core.fingerprint import FingerprintLibrary
from repro.monitoring.store import MetadataStore
from repro.oracle import OracleDivergence
from repro.workloads.traffic import SyntheticStream


@pytest.fixture()
def library(make_fingerprint, symbols, state_change_keys, read_keys):
    """A small mixed library: shared + distinctive symbols."""
    lib = FingerprintLibrary(symbols)
    shared = state_change_keys[:2]
    for i in range(6):
        keys = shared + [state_change_keys[2 + i], read_keys[i]]
        lib.add(make_fingerprint(f"op-{i}", keys))
    # One duplicated shape (the compiler's dedup unit).
    lib.add(make_fingerprint("op-clone", shared + [state_change_keys[2],
                                                  read_keys[0]]))
    return lib


def test_postings_mirror_the_library(library):
    index = compile_library(library)
    # Every symbol of every fingerprint has a selection per mode, in
    # postings order: sorted by operation name (the ops_containing
    # contract), over the library's own fingerprint objects.
    for symbol, operations in library.postings().items():
        for truncated in (True, False):
            served = [
                candidate.fingerprint
                for candidate in index.selection(symbol, truncated)
            ]
            assert [fp.operation for fp in served] == list(operations)
            assert all(
                fp is library.get(fp.operation) for fp in served
            )
    assert index.selection("\uffff", True) == []


def test_serves_requires_matching_selection_flags(library):
    config = GretelConfig()
    index = compile_library(library, config=config)
    assert index.serves(config)
    assert index.flags == selection_flags(config)
    flipped = GretelConfig(relaxed_match=not config.relaxed_match)
    assert not index.serves(flipped)


def test_detector_refuses_an_index_it_cannot_serve_from(library, catalog):
    """A mismatched index fails construction; it used to demote the
    detector to the full scan for life, silently."""
    index = compile_library(library, config=GretelConfig())
    flipped = GretelConfig(relaxed_match=False)
    with pytest.raises(ValueError, match="selection flags"):
        OperationDetector(
            library, library.symbols, catalog, flipped,
            compiled_index=index,
        )


def test_memoized_compile_tracks_library_version(
    library, make_fingerprint, state_change_keys
):
    first = compiled_index_for(library)
    assert compiled_index_for(library) is first
    library.add(make_fingerprint("op-extra", state_change_keys[:4]))
    second = compiled_index_for(library)
    assert second is not first
    symbol = library.get("op-extra").symbols[0]
    assert "op-extra" in [
        candidate.fingerprint.operation
        for candidate in second.selection(symbol, True)
    ]


def test_an_index_fills_from_the_postings_of_its_version(
    library, make_fingerprint, state_change_keys
):
    """A mutation is seen by the next index, never by a fill of the
    index built before it."""
    before = compiled_index_for(library)
    library.add(make_fingerprint("op-extra", state_change_keys[:4]))
    after = compiled_index_for(library)
    symbol = library.get("op-extra").symbols[0]
    assert before.filled == after.filled == 0

    def served(index):
        return [c.fingerprint.operation for c in index.selection(symbol, True)]

    assert "op-extra" in served(after)
    assert "op-extra" not in served(before)
    assert served(before) == list(before.postings[symbol])


def test_a_dropped_library_releases_its_memo_entry(
    make_fingerprint, symbols, state_change_keys
):
    """The memo is keyed weakly, and an index (its fill included)
    holds no reference to its library."""
    library = FingerprintLibrary(symbols)
    for i in range(3):
        library.add(make_fingerprint(f"op-{i}", state_change_keys[i:i + 3]))
    entries = len(compile_module._INDEX_CACHE)
    index = compiled_index_for(library)
    index.selection(symbols.symbol(state_change_keys[0]), True)
    assert len(compile_module._INDEX_CACHE) == entries + 1
    alive = weakref.ref(library)
    del library
    gc.collect()
    assert alive() is None
    assert len(compile_module._INDEX_CACHE) == entries
    # The surviving index still fills, from its own postings snapshot.
    only_op_2 = symbols.symbol(state_change_keys[4])
    assert [
        c.fingerprint.operation for c in index.selection(only_op_2, True)
    ] == ["op-2"]


@pytest.fixture()
def fresh_memo(monkeypatch):
    """An empty compile memo, so the seed library gets a new index."""
    monkeypatch.setattr(compile_module, "_INDEX_CACHE", WeakKeyDictionary())


def test_threads_share_one_index_and_one_preparation_per_key(
    full_character, fresh_memo
):
    """Four threads take the memoized index at once and fill
    overlapping symbols in different orders."""
    library = full_character.library
    order = sorted(library.postings())
    threads = 4
    barrier = threading.Barrier(threads)
    taken = [None] * threads
    served = [None] * threads

    def worker(slot):
        barrier.wait(timeout=60)
        index = taken[slot] = compiled_index_for(library)
        # Each thread starts a quarter further along, so every symbol
        # is raced by two threads that reached it in different orders.
        start = slot * len(order) // threads
        mine = order[start:] + order[:start // 2]
        modes = (True, False) if slot % 2 else (False, True)
        served[slot] = {
            (symbol, cut): index.selection(symbol, cut)
            for symbol in mine for cut in modes
        }

    workers = [
        threading.Thread(target=worker, args=(slot,))
        for slot in range(threads)
    ]
    interval = sys.getswitchinterval()
    # Switch threads often, so unguarded check-then-act would lose.
    sys.setswitchinterval(1e-6)
    try:
        for thread in workers:
            thread.start()
        for thread in workers:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in workers)

    index = taken[0]
    assert all(other is index for other in taken)
    for selections in served:
        for key, selection in selections.items():
            assert selection is index.selection(*key)
            for candidate in selection:
                preparation = candidate.preparation
                assert index.pool[preparation.key()] is preparation
    assert index.filled == 2 * len(order)
    assert sorted(index.pool) == sorted(compile_library(library).pool)


def test_first_detection_fills_only_its_own_symbol(
    full_character, fresh_memo
):
    """Analyzer construction builds the shape table; the first page
    fills its fault symbol's two selections and nothing else."""
    library = full_character.library
    analyzer = GretelAnalyzer(
        library, store=MetadataStore(), track_latency=False,
        defer_detection=True,
    )
    index = compiled_index_for(library)
    stream = SyntheticStream(
        library, library.symbols, fault_every=1000, seed=5,
    )
    analyzer.feed(stream.events(3000))
    analyzer.flush()
    first = analyzer.deferred_snapshots()[0]
    assert index.filled == 0
    analyzer.detector.detect(first)
    assert index.filled == 2
    # The two filled are the fault symbol's: looking them up again
    # fills nothing.
    symbol = library.symbols.symbol(first.fault.api_key)
    assert all(index.selection(symbol, cut) for cut in (True, False))
    assert index.filled == 2


def test_verify_selection_fills_every_selection_of_a_lazy_index(
    full_character, fresh_memo
):
    library = full_character.library
    index = compiled_index_for(library)
    assert index.filled == 0
    result = verify_selection(library, strict=False)
    assert result.ok
    assert "EQUIVALENT" in result.summary()
    assert result.facts["api_keys"] == len(library.postings()) == 189
    assert index.filled == 378


def test_hydrated_candidates_are_shared_across_detectors(
    library, catalog
):
    config = GretelConfig()
    index = compile_library(library, config=config)
    a = OperationDetector(library, library.symbols, catalog, config,
                          compiled_index=index)
    b = OperationDetector(library, library.symbols, catalog, config,
                          compiled_index=index)
    api_key = library.symbols.api_key(sorted(library.postings())[0])
    # Selections are built once, at compile time: both detectors
    # serve the same read-only list.
    assert a.candidates_for(api_key) is b.candidates_for(api_key)
    assert a.candidates_indexed > 0


def test_verify_selection_passes_on_a_fresh_index(library):
    result = verify_selection(library, strict=False)
    assert result.ok
    assert "EQUIVALENT" in result.summary()


def _tampered(library, tamper):
    """A compiled index with ``tamper`` applied to one selection."""
    index = compile_library(library)
    victim = sorted(library.postings())[0]

    def fill(symbol, operations):
        untruncated, truncated = (
            index.selection(symbol, cut) for cut in (False, True)
        )
        if symbol == victim:
            truncated = Selection(tamper(truncated, index))
        return untruncated, truncated

    return CompiledIndex(index.flags, index.pool, index.postings, fill)


def _drop_a_candidate(selection, index):
    return selection[:-1]


def _swap_a_preparation(selection, index):
    first = selection[0]
    other = next(
        preparation for preparation in index.pool.values()
        if preparation is not first.preparation
    )
    return [Candidate(first.fingerprint, other)] + selection[1:]


def test_corrupted_postings_raise_selection_divergence(library):
    for tamper, complaint in (
        (_drop_a_candidate, "multisets differ"),
        (_swap_a_preparation, "preparations or order differ"),
    ):
        tampered = _tampered(library, tamper)
        with pytest.raises(OracleDivergence, match="DIVERGED") as excinfo:
            verify_selection(library, index=tampered)
        assert excinfo.value.result.layer == "selection"
        result = verify_selection(library, index=tampered, strict=False)
        assert not result.ok
        assert result.layer == "selection"
        assert any(complaint in m for m in result.mismatches)


def test_candidate_signature_captures_preparation_content(
    library, catalog
):
    config = GretelConfig()
    detector = OperationDetector(
        library, library.symbols, catalog, config,
    )
    api_key = library.symbols.api_key(sorted(library.postings())[0])
    for candidate in detector.candidates_for(api_key):
        operation, needle, cuts, pure = candidate_signature(candidate)
        assert operation == candidate.fingerprint.operation
        assert needle == candidate.preparation.needle
        assert cuts == candidate.preparation.cuts
        assert pure == candidate.preparation.pure_read


def test_verify_selection_catches_a_cut_dropped_from_preparation(
    library, make_fingerprint, state_change_keys, read_keys, monkeypatch
):
    """The compiler and the reference scan derive preparations
    independently, so a fault in the production derivation is a
    divergence, not a change both halves share."""
    import repro.analysis.compile as compile_module
    import repro.core.detector as detector_module
    from repro.core.matching import Preparation

    # A read polled twice: two cuts for faults on it.
    poll = read_keys[0]
    library.add(make_fingerprint(
        "op-poll", [state_change_keys[0], poll, state_change_keys[1], poll],
    ))
    prepare = detector_module.prepare_candidate

    def drop_last_cut(*args, **kwargs):
        preparation = prepare(*args, **kwargs)
        if len(preparation.cuts) < 2:
            return preparation
        return Preparation(
            preparation.needle, preparation.cuts[:-1],
            preparation.pure_read,
        )

    assert verify_selection(library, strict=False).ok
    # Every binding of the production function; a fresh compile, since
    # the memo still holds the unpatched one.
    for module in (compile_module, detector_module):
        monkeypatch.setattr(module, "prepare_candidate", drop_last_cut)
    result = verify_selection(
        library, index=compile_library(library), strict=False,
    )
    assert not result.ok
    assert result.layer == "selection"
    assert "DIVERGED" in result.summary()
    assert any(
        library.symbols.api_key(library.symbols.symbol(poll)) in m
        and "preparations or order differ" in m
        for m in result.mismatches
    )
