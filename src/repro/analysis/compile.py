"""Fingerprint-library compiler: the static half of candidate selection.

``repro lint``'s passes *diagnose* the fingerprint library; this
module *compiles* it.  Algorithm 2's first two steps
(``GET_POSSIBLE_OFFENDING_OPERATIONS``,
``TRUNCATE_OPERATION_FINGERPRINTS``) depend only on the offline
library, so the online detector looks selections up in a
:class:`CompiledIndex` instead of deriving them per fault:

* **Selections** — per ``(symbol, truncation mode)``, the operations
  containing the symbol, sorted by operation name (the pinned
  ``ops_containing`` order), each paired with the RPC-pruned,
  truncated, cut-pointed :class:`~repro.core.matching.engine.
  Preparation` a from-scratch selection would derive at detection
  time, plus the selection's scoring-class partition.  A symbol's two
  selections are filled on its first lookup, and never change after;
* **The pool** — every preparation interned under the scorer's own
  identity ``(needle, cuts, pure_read)``.  The library stamps ~1200
  fingerprints out of ~140 operations, so ~44K postings × modes share
  ~1.2K preparations, and alphabet and counts are derived once per
  pool entry.

What is built per library and flags, once, is the shape table and a
snapshot of the library's postings: a detection pays for its own
symbol's selections (1/189 of the seed library's), not for every
symbol's.  :func:`compile_library` is the same index with every
selection filled.

Preparation slices each fingerprint shape's
:class:`~repro.core.detector.Skeleton`, derived once per index; the
reference full scan prepares from a truncated fingerprint copy
instead, and :func:`verify_selection` is the differential oracle that
holds the two derivations equal on live inputs and end-to-end
detections.

The index is in-memory only and bound to the library it was compiled
from: its candidates hold that library's fingerprint objects.
:func:`compiled_index_for` memoizes one compilation per ``(library,
version, selection flags)``, so a library that changes is recompiled,
and a detector refuses to be constructed over an index whose flags do
not match its config (``ValueError`` — a mismatched index must never
change a diagnosis).  ``docs/indexing.md`` has the design and why
there is no serialized form.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple
from weakref import WeakKeyDictionary

from repro.core.config import GretelConfig
from repro.core.detector import (
    Candidate,
    OperationDetector,
    Selection,
    Skeleton,
    prepare_candidate,
)
from repro.core.fingerprint import Fingerprint, FingerprintLibrary
from repro.core.matching.engine import Preparation, PreparationKey
from repro.core.matching.oracle import compare_detections
from repro.core.symbols import SymbolTable
from repro.core.window import Snapshot
from repro.openstack.catalog import ApiCatalog
from repro.oracle import OracleResult, diff_multisets, settle

#: The config fields that change what a prepared candidate *is*.
SelectionFlags = Tuple[bool, bool, bool]


def selection_flags(config: GretelConfig) -> SelectionFlags:
    """(prune_rpcs, relaxed_match, truncate_fingerprints) — the config
    surface candidate preparation depends on, hence the compatibility
    key between an index and a detector's config."""
    return (
        config.prune_rpcs,
        config.relaxed_match,
        config.truncate_fingerprints,
    )


#: ``fill(symbol, operations) -> (untruncated, truncated)``: one
#: symbol's two selections, prepared from the shape table.
Fill = Callable[[str, Sequence[str]], Tuple[Selection, Selection]]


class CompiledIndex:
    """The selections of one library under one set of selection flags,
    each filled on its symbol's first lookup.

    A filled selection never changes, so one index serves any number
    of detectors concurrently, and they all share the same candidate,
    preparation and scoring-class objects.  Fills run under the
    index's lock; a lookup of a filled selection takes none.
    """

    def __init__(
        self,
        flags: SelectionFlags,
        pool: Dict[PreparationKey, Preparation],
        postings: Mapping[str, Sequence[str]],
        fill: Fill,
    ) -> None:
        self.flags = flags
        #: Every preparation a filled selection refers to, interned by
        #: :meth:`Preparation.key`.
        self.pool = pool
        #: The library's postings (symbol → operation names) at the
        #: version this index was built for: fills read this snapshot,
        #: never the live library.
        self.postings = postings
        self._fill = fill
        self._selections: Dict[Tuple[str, bool], Selection] = {}
        self._lock: threading.Lock = threading.Lock()

    @property
    def filled(self) -> int:
        """How many ``(symbol, truncation mode)`` selections have been
        filled: two per symbol looked up so far."""
        return len(self._selections)

    def serves(self, config: GretelConfig) -> bool:
        """Whether this index was compiled for ``config``'s selection
        flags (a mismatched index must not be served — the detector
        refuses it at construction)."""
        return selection_flags(config) == self.flags

    def selection(self, symbol: str, truncated: bool) -> Selection:
        """The prepared candidates for faults on ``symbol``, truncated
        at it or not; empty when no operation contains the symbol."""
        found = self._selections.get((symbol, truncated))
        if found is not None:
            return found
        operations = self.postings.get(symbol)
        if operations is None:
            return Selection(())
        with self._lock:
            # Another thread may have filled the symbol while this one
            # waited for the lock.
            found = self._selections.get((symbol, truncated))
            if found is None:
                untruncated, cut = self._fill(symbol, operations)
                self._selections[symbol, False] = untruncated
                self._selections[symbol, True] = cut
                found = cut if truncated else untruncated
        return found


def _shape_index(
    library: FingerprintLibrary, config: Optional[GretelConfig],
) -> CompiledIndex:
    """``library``'s shape table and postings, as an index with no
    selection filled yet."""
    symbols = library.symbols
    flags = selection_flags(config or GretelConfig())
    prune_rpcs, relaxed, truncate_flag = flags

    pool: Dict[PreparationKey, Preparation] = {}
    # Workload templates stamp out many operations sharing one *shape*
    # — symbol sequence plus state-change mask, everything preparation
    # depends on — so RPC pruning and the skeletons run once per shape
    # (unpruned first, then effective), preparation once per (shape,
    # symbol) truncated and once per shape untruncated.
    shape_ids: Dict[Tuple[str, Tuple[bool, ...]], int] = {}
    shapes: List[Tuple[Skeleton, Skeleton]] = []
    members: Dict[str, Tuple[Fingerprint, int]] = {}
    for fingerprint in library:
        shape_key = (fingerprint.symbols, fingerprint.state_change_mask)
        shape = shape_ids.get(shape_key)
        if shape is None:
            shape = shape_ids[shape_key] = len(shapes)
            unpruned = Skeleton.of(fingerprint, relaxed)
            shapes.append((unpruned, Skeleton.of(
                fingerprint.rest_only(symbols), relaxed,
            ) if prune_rpcs else unpruned))
        members[fingerprint.operation] = (fingerprint, shape)
    # Untruncated preparations by (shape, whether pruning removed the
    # offending symbol): they do not depend on the symbol otherwise.
    whole: Dict[Tuple[int, bool], Preparation] = {}

    def select(
        symbol: str, operations: Sequence[str], truncated: bool
    ) -> Selection:
        by_shape: Dict[int, Preparation] = {}
        candidates: List[Candidate] = []
        for fingerprint, shape in map(members.__getitem__, operations):
            preparation = by_shape.get(shape)
            if preparation is None:
                unpruned, skeleton = shapes[shape]
                # Pruning removed the offending symbol itself: the
                # fault demonstrably involved the pruned RPC, so the
                # unpruned shape is prepared.
                pruned_away = symbol not in skeleton.symbols
                if pruned_away:
                    skeleton = unpruned
                if truncated:
                    preparation = prepare_candidate(
                        skeleton, symbol, truncate=True, pool=pool,
                    )
                elif (shape, pruned_away) in whole:
                    preparation = whole[shape, pruned_away]
                else:
                    preparation = whole[shape, pruned_away] = (
                        prepare_candidate(
                            skeleton, symbol, truncate=False, pool=pool,
                        )
                    )
                by_shape[shape] = preparation
            candidates.append(Candidate(fingerprint, preparation))
        return Selection(candidates)

    def fill(
        symbol: str, operations: Sequence[str]
    ) -> Tuple[Selection, Selection]:
        untruncated = select(symbol, operations, False)
        # ``candidates_for``'s rule: without ``truncate_fingerprints``
        # both modes are untruncated.
        return untruncated, (
            select(symbol, operations, True) if truncate_flag
            else untruncated
        )

    return CompiledIndex(flags, pool, library.postings(), fill)


def compile_library(
    library: FingerprintLibrary, config: Optional[GretelConfig] = None,
) -> CompiledIndex:
    """``library``'s index with every ``(symbol, truncation mode)``
    selection filled, in postings order — what the memoized index of
    :func:`compiled_index_for` holds once every symbol has faulted."""
    index = _shape_index(library, config)
    for symbol in index.postings:
        index.selection(symbol, False)
    return index


#: One library's compilations, keyed by (selection flags, version).
_LibraryIndexes = Dict[Tuple[SelectionFlags, int], CompiledIndex]

#: Per-library compile memo.  Keyed weakly so a dropped library
#: releases its compilation (an index holds the library's fingerprints
#: and a postings snapshot, never the library); stale versions are
#: evicted on the next compile.
_INDEX_CACHE: (
    "WeakKeyDictionary[FingerprintLibrary, _LibraryIndexes]"
) = WeakKeyDictionary()
#: Serializes the memo, so detectors built on several threads at once
#: share one index.
_INDEX_LOCK: threading.Lock = threading.Lock()


def compiled_index_for(
    library: FingerprintLibrary,
    symbols: Optional[SymbolTable] = None,
    catalog: Optional[ApiCatalog] = None,
    config: Optional[GretelConfig] = None,
) -> CompiledIndex:
    """The memoized index of ``library``: its shape table, each
    selection filled on its symbol's first lookup.

    All detectors over one ``(library, version, flags)`` share a single
    index — notably every tenant session of a service.
    ``symbols`` and ``catalog`` are ignored (preparation reads the
    library's own symbol table); the positionals stay because
    ``benchmarks/e2e/harness.py`` passes them and may not be edited
    here — ROADMAP item 1 PR B lists them as residue.
    """
    del symbols, catalog
    config = config or GretelConfig()
    key = (selection_flags(config), library.version)
    with _INDEX_LOCK:
        per_library = _INDEX_CACHE.setdefault(library, {})
        index = per_library.get(key)
        if index is None:
            for stale in [k for k in per_library if k[1] != library.version]:
                del per_library[stale]
            index = per_library[key] = _shape_index(library, config)
    return index


# ---------------------------------------------------------------------------
# Differential selection oracle
# ---------------------------------------------------------------------------

#: Complete comparable identity of one prepared candidate.
CandidateSignature = Tuple[str, str, Tuple[int, ...], bool]


def candidate_signature(candidate: Candidate) -> CandidateSignature:
    """(operation, needle, cuts, pure_read) — stronger than the
    operation-name multiset the acceptance bar asks for: preparation
    *content* must match, not just membership."""
    fingerprint, preparation = candidate
    return (fingerprint.operation,) + preparation.key()


def _library_api_keys(library: FingerprintLibrary) -> List[str]:
    """Every api key whose symbol some fingerprint contains, sorted."""
    return sorted(
        library.symbols.api_key(symbol) for symbol in library.postings()
    )


def verify_selection(
    library: FingerprintLibrary,
    *,
    config: Optional[GretelConfig] = None,
    snapshots: Sequence[Snapshot] = (),
    index: Optional[CompiledIndex] = None,
    strict: bool = True,
) -> OracleResult:
    """Prove indexed selection equivalent to the full scan.

    Two fresh detectors share the library and config and differ only
    in selection: the production one looks candidates up in the
    compiled index (it may be handed a pre-built — possibly tampered
    — ``index``; by default it compiles its own), the reference
    package's ``ScanSelectionDetector`` prepares every containing
    fingerprint from scratch.  Two comparisons run:

    * per api key the library contains × truncation mode, the
      prepared candidate lists must match signature-for-signature
      (operation multiset equality is implied; order and preparation
      content are held too, because both are pinned contracts);
    * per frozen snapshot, end-to-end
      :func:`~repro.core.matching.oracle.detection_signature` equality
      — indexed selection must not change a single diagnosis field.

    ``strict`` is :func:`repro.oracle.settle`'s.
    """
    from repro.reference.detector import ScanSelectionDetector

    config = config or GretelConfig()
    symbols = library.symbols
    indexed = OperationDetector(
        library, symbols, None, config, compiled_index=index,
    )
    reference = ScanSelectionDetector(library, symbols, None, config)
    api_keys = _library_api_keys(library)

    result = OracleResult(
        layer="selection",
        reference="full-scan",
        candidate="indexed",
        facts={
            "api_keys": len(api_keys),
            "truncation_modes": 2,
            "snapshots": len(snapshots),
        },
    )
    for api_key in api_keys:
        for truncate in (True, False):
            expected, actual = (
                [
                    candidate_signature(c)
                    for c in detector.candidates_for(
                        api_key, truncate=truncate
                    )
                ]
                for detector in (reference, indexed)
            )
            if expected == actual:
                continue
            missing, extra = diff_multisets(
                (sig[0] for sig in expected), (sig[0] for sig in actual)
            )
            if missing or extra:
                result.mismatches.append(
                    f"{api_key} (truncate={truncate}): candidate "
                    f"multisets differ — scan {len(expected)} vs "
                    f"indexed {len(actual)}; missing {missing[:3]}, "
                    f"extra {extra[:3]}"
                )
            else:
                result.mismatches.append(
                    f"{api_key} (truncate={truncate}): same operations "
                    "but preparations or order differ"
                )
    compare_detections(result, snapshots, reference, indexed)
    return settle(result, strict)
