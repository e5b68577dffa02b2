"""Library compiler: selections, the pool, the memo and the oracle."""

import pytest

from repro.analysis.compile import (
    CompiledIndex,
    candidate_signature,
    compile_library,
    compiled_index_for,
    selection_flags,
    verify_selection,
)
from repro.core.config import GretelConfig
from repro.core.detector import Candidate, OperationDetector, Selection
from repro.core.fingerprint import FingerprintLibrary
from repro.oracle import OracleDivergence


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
    selections = {
        (symbol, truncated): index.selection(symbol, truncated)
        for symbol in library.postings()
        for truncated in (True, False)
    }
    victim = (sorted(library.postings())[0], True)
    selections[victim] = Selection(tamper(selections[victim], index))
    return CompiledIndex(index.flags, index.pool, selections)


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
