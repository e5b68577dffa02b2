"""Property test: indexed candidate selection ≡ the full scan.

Algorithm 2's first step has two implementations — the reference
linear scan over ``ops_containing`` and the compiled inverted index
(``repro.analysis.compile``).  This differential property drives both
through random libraries, random selection-flag configurations, and
random offending symbols (including symbols no fingerprint contains)
and requires signature-identical candidate lists: same operations in
the same pinned order, with the same preparation content (required
symbols, truncation cut points, pure-read classification) and the same
scoring-class partition — and that the compiled side's preparations
are the entries of one pool holding each distinct one once.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis.compile import candidate_signature, compile_library
from repro.core.config import GretelConfig
from repro.core.detector import OperationDetector
from repro.core.fingerprint import Fingerprint, FingerprintLibrary
from repro.core.matching import scoring_classes
from repro.core.symbols import SymbolTable
from repro.openstack.catalog import default_catalog
from repro.reference import ScanSelectionDetector, prepare_from_scratch

_CATALOG = default_catalog()
_SYMBOLS = SymbolTable(_CATALOG)
# A mixed pool: REST state changes, reads, and RPCs so ``prune_rpcs``
# has something to prune.
_KEYS = [api.key for api in _CATALOG.apis][:48]


def _build_library(drawn):
    library = FingerprintLibrary(_SYMBOLS)
    for i, keys in enumerate(drawn):
        library.add(Fingerprint(
            operation=f"op-{i:02d}",
            symbols=_SYMBOLS.encode(keys),
            state_change_mask=tuple(
                _CATALOG.get(key).state_change for key in keys
            ),
        ))
    return library


@settings(
    max_examples=50, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_indexed_selection_equals_full_scan(data):
    drawn = data.draw(st.lists(
        st.lists(st.sampled_from(_KEYS), min_size=1, max_size=10),
        min_size=1, max_size=8,
    ))
    library = _build_library(drawn)
    config = GretelConfig(
        prune_rpcs=data.draw(st.booleans()),
        relaxed_match=data.draw(st.booleans()),
        truncate_fingerprints=data.draw(st.booleans()),
    )
    index = compile_library(library, config=config)

    indexed = OperationDetector(
        library, _SYMBOLS, _CATALOG, config, compiled_index=index,
    )
    reference = ScanSelectionDetector(library, _SYMBOLS, _CATALOG, config)

    # Queried symbols include ones absent from every fingerprint.
    queries = data.draw(st.lists(
        st.sampled_from(_KEYS), min_size=1, max_size=6, unique=True,
    ))
    for api_key in queries:
        for truncate in (True, False):
            expected = [
                candidate_signature(c) for c in
                reference.candidates_for(api_key, truncate=truncate)
            ]
            actual = [
                candidate_signature(c) for c in
                indexed.candidates_for(api_key, truncate=truncate)
            ]
            assert actual == expected, (
                f"{api_key} truncate={truncate}: indexed selection "
                f"diverged under flags {index.flags}"
            )
            # The compile-time partition is the one ``scoring_classes``
            # makes of the scanned list, which shares no object with it.
            served = indexed.candidates_for(api_key, truncate=truncate)
            scanned = reference.candidates_for(api_key, truncate=truncate)
            assert [c.members for c in served.classes] == [
                c.members for c in scoring_classes(scanned)
            ]
            for scoring_class in served.classes:
                preparation = scoring_class.preparation
                assert preparation is index.pool[preparation.key()]
                assert all(
                    served[member].preparation is preparation
                    for member in scoring_class.members
                )
    # Counters prove the indexed path actually served the lookups.
    assert indexed.candidates_indexed == indexed.postings_scanned
    # One pool entry per distinct preparation of a from-scratch sweep
    # over every posting × both modes, prepared by the reference twin:
    # the compiler's skeleton slices share no code with it.
    swept = set()
    for symbol in library.postings():
        for fingerprint in library.ops_containing(symbol):
            effective = (
                fingerprint.rest_only(_SYMBOLS) if config.prune_rpcs
                else fingerprint
            )
            for truncate in (config.truncate_fingerprints, False):
                swept.add(prepare_from_scratch(
                    fingerprint, effective, symbol,
                    truncate=truncate, relaxed=config.relaxed_match,
                ).key())
    assert set(index.pool) == swept
