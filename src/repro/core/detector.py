"""Operation detection (Algorithm 2) with the adaptive context buffer.

Given a frozen snapshot and the offending API, GRETEL:

1. collects the operations whose fingerprints *contain* the offending
   symbol (``GET_POSSIBLE_OFFENDING_OPERATIONS``);
2. truncates each fingerprint at the offending symbol
   (``TRUNCATE_OPERATION_FINGERPRINTS``) — for operational errors the
   operation never ran past the failure, so only the prefix can be in
   the snapshot.  The paper truncates at the *last* occurrence; when
   the offending API is a repeated read (a status-poll GET appears
   both mid-operation and during teardown), that single cut point
   would keep steps that never executed, so this implementation
   considers **every** occurrence as a cut point and scores the best;
3. scores each truncated fingerprint against a **context buffer** —
   a window β = c1·α centered on the fault, grown by δ = c2·α per
   side per iteration, stopping as soon as the precision θ drops or
   the buffer covers the whole snapshot (§5.3.1).

Match semantics: the paper's relaxed match requires the buffer to
preserve the order of the fingerprint's state-change symbols while
tolerating absent ones (Fig. 4 matches with symbol A missing).  We
therefore score **order-consistent coverage** — the LCS between the
truncated fingerprint's state-change symbols and the buffer, as a
fraction of the fingerprint — and accept candidates above
``MATCH_COVERAGE``, then keep only those within ``LENGTH_TOLERANCE``
symbols of the best corroborated length (the snapshot-driven
pruning that keeps GRETEL's false positives low, §7.3; the rule is
``repro.core.matching.engine.rank``).

Pure-read fingerprints (no state-change symbol at all) are scored on
their full symbol sequence instead: under the paper's literal
``read*`` regexes they would vacuously match every snapshot.

RPC symbols are pruned from fingerprints and buffer when
``prune_rpcs`` is on (§6's optimization, Fig. 7c).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from itertools import accumulate, compress
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.openstack.apis import ApiKind
from repro.openstack.catalog import ApiCatalog
from repro.openstack.wire import WireEvent
from repro.core.config import GretelConfig
from repro.core.fingerprint import Fingerprint, FingerprintLibrary
from repro.core.matching.engine import (
    MatchingStats,
    MatchSession,
    Preparation,
    PreparationKey,
    ScoringClass,
    member_scores,
    scoring_classes,
)
from repro.core.precision import theta
from repro.core.state import read_key, under
from repro.core.symbols import SymbolTable
from repro.core.window import Snapshot

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    # The compiler prepares candidates with this module's helpers, so
    # the runtime import of the compiled index must stay lazy (inside
    # ``OperationDetector.__init__``).
    from repro.analysis.compile import CompiledIndex

#: Cap on how many truncation points are tried per fingerprint.
_MAX_TRUNCATIONS = 6

#: Minimum order-consistent coverage of a (truncated) fingerprint's
#: state-change symbols for a match.  Fig. 4 shows a match with a
#: state-change symbol missing from the context buffer, so matching
#: cannot demand every literal; 0.7 tolerates scroll-out and
#: interleaving while rejecting coincidental overlaps.
MATCH_COVERAGE = 0.7
#: Stop growing the context buffer after this many iterations without
#: ranking improvement (the θ-drop stopping rule).
STOP_PATIENCE = 3

#: ``{class index: (corroborated length, coverage)}`` for the ranked
#: scoring classes of one context-buffer window — the index is into
#: the class sequence :meth:`OperationDetector._scorer` returned.
Scores = Dict[int, Tuple[int, float]]
#: ``scorer(lo, hi, finalized) -> Scores`` over ``events[lo:hi]`` of
#: one snapshot, already ranked (``repro.core.matching.engine.rank``).
#: ``finalized`` carries scores already at full coverage from a
#: smaller buffer (coverage is monotone in buffer growth, so they need
#: no re-evaluation); the scorer adds to it.
Scorer = Callable[[int, int, Optional[Scores]], Scores]


class Candidate(NamedTuple):
    """One possible offending operation: a library fingerprint paired
    with its scoring preparation."""

    fingerprint: Fingerprint
    preparation: Preparation


class Selection(List[Candidate]):
    """One prepared candidate list plus its scoring-class partition.

    What ``candidates_for`` serves.  The candidates are read-only once
    selected, so the partition (``repro.core.matching.engine.
    scoring_classes``, with the multiplicity gate's terms over the
    selection's union alphabet) is computed once, here, and travels
    with the list: the library compiler builds each selection once,
    on its symbol's first lookup, and it is shared — classes included
    — by every detector and shard over that compilation.
    """

    def __init__(self, candidates: Iterable[Candidate]) -> None:
        super().__init__(candidates)
        self.classes = scoring_classes(self)


class Skeleton(NamedTuple):
    """A fingerprint shape's required symbols — state changes, or every
    symbol in the strict ablation — with ``prefix[i]`` = how many of
    them ``symbols[:i]`` holds.  Every preparation of the shape is a
    slice of it, so the compiler derives it once per shape."""

    symbols: str
    required: str
    prefix: Sequence[int]

    @classmethod
    def of(cls, fingerprint: Fingerprint, relaxed: bool) -> "Skeleton":
        symbols = fingerprint.symbols
        if not relaxed:
            return cls(symbols, symbols, range(len(symbols) + 1))
        mask = fingerprint.state_change_mask
        return cls(symbols, "".join(compress(symbols, mask)),
                   list(accumulate(mask, initial=0)))


def prepare_candidate(
    skeleton: Skeleton,
    symbol: str,
    *,
    truncate: bool,
    pool: Dict[PreparationKey, Preparation],
) -> Preparation:
    """Prepare a shape holding ``symbol`` for scoring ``symbol`` faults.

    Truncated (Alg. 2), it ends at the last occurrence of ``symbol``
    and each occurrence is a cut: the required symbols up to it, zero
    counts dropped, equal neighbours merged, the last
    ``_MAX_TRUNCATIONS`` kept.  The reference scan derives the same
    from a truncated fingerprint copy
    (``repro.reference.detector.prepare_from_scratch``), and
    ``repro.analysis.compile.verify_selection`` holds the two equal.

    ``pool`` interns by :meth:`Preparation.key`, so alphabet and counts
    are derived once per distinct key however many postings share it.
    """
    symbols, required, prefix = skeleton
    cuts: Tuple[int, ...] = (len(required),)
    if truncate:
        end = symbols.rfind(symbol) + 1
        symbols = symbols[:end]
        required = required[:prefix[end]]
        counts: List[int] = []
        at = symbols.find(symbol)
        while at >= 0:
            count = prefix[at + 1]
            if count and (not counts or counts[-1] != count):
                counts.append(count)
            at = symbols.find(symbol, at + 1)
        cuts = tuple(counts[-_MAX_TRUNCATIONS:]) or (len(required),)
    # Pure reads (no required symbol at all) are scored on their full
    # symbol sequence instead (see the module docstring).
    pure_read = not required
    key = (symbols if pure_read else required, cuts, pure_read)
    preparation = pool.get(key)
    if preparation is None:
        preparation = pool[key] = Preparation(*key)
    return preparation


@dataclass
class DetectionResult:
    """Outcome of operation detection for one fault."""

    fault: WireEvent
    matched: List[Fingerprint]
    candidates: int              # ops containing the offending API
    theta: float
    beta_used: int               # final context-buffer radius (messages)
    iterations: int
    window_span: Tuple[float, float]  # time range of the context buffer
    matched_events: List[WireEvent] = field(default_factory=list)
    coverages: Dict[str, float] = field(default_factory=dict)

    @property
    def operations(self) -> List[str]:
        """Names of the matched operations."""
        return [fp.operation for fp in self.matched]


class OperationDetector:
    """Algorithm 2 over a fingerprint library."""

    def __init__(
        self,
        library: FingerprintLibrary,
        symbols: SymbolTable,
        catalog: ApiCatalog,
        config: Optional[GretelConfig] = None,
        *,
        compiled_index: Optional["CompiledIndex"] = None,
    ) -> None:
        self.library = library
        self.symbols = symbols
        self.catalog = catalog
        self.config = config or GretelConfig()
        self._fragment_cache: Dict[str, str] = {}
        if compiled_index is None:
            from repro.analysis.compile import compiled_index_for

            compiled_index = compiled_index_for(
                library, symbols, config=self.config,
            )
        elif not compiled_index.serves(self.config):
            # Serving preparations compiled for other selection flags
            # would change diagnoses, not just speed.
            raise ValueError(
                "compiled index was built for selection flags "
                f"{compiled_index.flags}, which do not match this "
                "detector's config; recompile the index for it"
            )
        #: Compiled selection index (``docs/indexing.md``): the
        #: library's memoized one, fetched here so its shape table is
        #: built at construction, not inside the first detection.  An
        #: injected index is used as-is (the ``verify_selection``
        #: negative-oracle tests rely on that).
        self._compiled: "CompiledIndex" = compiled_index
        #: Selection counters, surfaced through ``PipelineStats``:
        #: postings entries examined and candidates served from the
        #: compiled index, summed over every ``candidates_for`` call
        #: (equal on this path; a full scan examines postings without
        #: being served any).
        self.postings_scanned = 0
        self.candidates_indexed = 0
        #: Counters of every :class:`MatchSession` this detector opens
        #: (``docs/matching.md``), surfaced through ``PipelineStats``.
        self.matching_stats = MatchingStats()

    # -- state lifecycle (see repro.core.state) -------------------------

    def snapshot_state(self) -> Dict[str, Any]:
        """JSON-serializable rendering of the detector.

        Only the counters travel: selections live in the shared
        compiled index, a pure function of the library and config.
        """
        return {
            "postings_scanned": self.postings_scanned,
            "candidates_indexed": self.candidates_indexed,
            "matching": self.matching_stats.to_dict(),
        }

    def restore_state(self, state: Mapping[str, Any]) -> None:
        """Rehydrate a fresh detector over the same library/config."""
        postings = read_key(state, "postings_scanned", int)
        indexed = read_key(state, "candidates_indexed", int)
        matching = read_key(state, "matching", dict)
        with under("matching"):
            stats = MatchingStats(**{
                spec.name: read_key(matching, spec.name, int)
                for spec in fields(MatchingStats)
            })
        self.postings_scanned = postings
        self.candidates_indexed = indexed
        self.matching_stats = stats

    # -- candidate preparation ------------------------------------------

    def candidates_for(self, api_key: str, *,
                       truncate: bool = True) -> Selection:
        """Possible offending operations with truncation cut points.

        Candidates are ordered by operation name (the
        :meth:`FingerprintLibrary.ops_containing` contract), served
        from the compiled index.  A from-scratch preparation scan
        produces identical lists —
        ``repro.analysis.compile.verify_selection`` is the oracle.
        """
        return self._select(
            self.symbols.symbol(api_key),
            truncate and self.config.truncate_fingerprints,
        )

    def _select(self, symbol: str, truncate: bool) -> Selection:
        """One lookup in the compiled index.

        The index is memoized per ``(library, version, flags)``, so
        every detector over one library — e.g. all tenant sessions of
        a service — shares it: the same read-only candidate objects
        and one scoring-class partition.  The first lookup of a symbol
        fills that symbol's two :class:`Selection` entries, and every
        later one, from any detector, is a dict hit.
        """
        prepared = self._compiled.selection(symbol, truncate)
        self.postings_scanned += len(prepared)
        self.candidates_indexed += len(prepared)
        return prepared

    # -- buffer encoding ------------------------------------------------

    def fragments(self, events: Sequence[WireEvent]) -> List[str]:
        """One symbol fragment per event; ``""`` excludes the event
        from matching (noise always; RPCs under ``prune_rpcs``).

        The one event→fragment encoder, called once per
        :meth:`detect` on the frozen snapshot (the adaptive-growth
        loop then slices the fragments, it does not re-encode).
        Filtering is folded into a per-API cache, so steady-state
        encoding is one dict lookup per event instead of a symbol
        lookup plus kind checks.
        """
        prune = self.config.prune_rpcs
        lookup = self.symbols.symbol
        rpc = ApiKind.RPC
        cache = self._fragment_cache
        get = cache.get
        fragments: List[str] = []
        append = fragments.append
        for event in events:
            if event.noise:
                append("")
                continue
            fragment = get(event.api_key)
            if fragment is None:
                symbol = lookup(event.api_key)
                fragment = "" if (prune and event.kind is rpc) else symbol
                cache[event.api_key] = fragment
            append(fragment)
        return fragments

    def _session_fragments(self, snapshot: Snapshot,
                           correlation_id: str) -> Sequence[str]:
        """Per-event fragments for one incremental scoring session.

        Correlation filtering blanks the fragments of events outside
        the offending request, which keeps positions aligned with
        ``snapshot.events`` while matching what per-event encoding
        would keep.
        """
        encoded: Sequence[str] = self.fragments(snapshot.events)
        if correlation_id:
            encoded = [
                piece if piece and event.request_id == correlation_id
                else ""
                for piece, event in zip(
                    encoded, snapshot.events, strict=True,
                )
            ]
        return encoded

    # -- scoring --------------------------------------------------------

    def _scorer(
        self, snapshot: Snapshot, candidates: Selection,
        correlation_id: str,
    ) -> Tuple[Sequence[ScoringClass], Scorer]:
        """The scoring classes of one selection and the window scorer
        over them, for one snapshot's context-buffer loop.

        Opens an incremental :class:`MatchSession` over the
        selection's partition: matcher state stays alive across the
        loop's growing windows, so each iteration costs what
        *changed*, once per distinct preparation, and only for the
        classes that can still rank.  The loop reads the ranked
        classes it is handed and never looks inside one, so a
        from-scratch scorer hands it one singleton class per candidate
        and must end in the same result —
        ``repro.core.matching.oracle.verify_detection`` is the oracle.
        """
        return candidates.classes, MatchSession(
            self._session_fragments(snapshot, correlation_id),
            candidates.classes,
            threshold=MATCH_COVERAGE,
            strict=not self.config.relaxed_match,
            stats=self.matching_stats,
        ).score

    # -- Algorithm 2 ----------------------------------------------------

    def detect(self, snapshot: Snapshot, *,
               performance_fault: bool = False) -> DetectionResult:
        """Run operation detection on one frozen snapshot."""
        fault = snapshot.fault
        config = self.config
        candidates = self.candidates_for(
            fault.api_key, truncate=not performance_fault
        )
        total = max(len(self.library), 2)

        if not candidates:
            return DetectionResult(
                fault=fault, matched=[], candidates=0,
                theta=theta(total, 0), beta_used=0, iterations=0,
                window_span=(fault.ts_request, fault.ts_response),
            )

        correlation_id = (
            snapshot.fault.request_id if config.use_correlation_ids else ""
        )
        classes, run_scores = self._scorer(
            snapshot, candidates, correlation_id
        )

        alpha = max(len(snapshot.events), 2)
        if not config.adaptive_context or performance_fault:
            # Performance faults use the entire context buffer (§5.3.1).
            return self._finish(
                snapshot, candidates, classes, total,
                scores=run_scores(0, len(snapshot.events), None),
                beta=len(snapshot.events), iterations=1,
                events=snapshot.events,
            )

        beta = max(1, config.context_buffer_start(alpha) // 2)  # radius/side
        delta = config.context_buffer_step(alpha)
        best_scores: Optional[Scores] = None
        best_key: Tuple[int, int] = (-1, 0)
        best_beta = beta
        iterations = 0
        stalled = 0
        finalized: Scores = {}
        while True:
            iterations += 1
            lo, hi = snapshot.bounds(beta)
            scores = run_scores(lo, hi, finalized)
            if scores:
                length = max(score[0] for score in scores.values())
                # Fewer matched *candidates* breaks a tie on length.
                key = (length,
                       -sum(len(classes[i].members) for i in scores))
                if key > best_key:
                    best_key, best_scores, best_beta = key, scores, beta
                    stalled = 0
                else:
                    # Growth stopped sharpening the match (θ no longer
                    # improving / starting to drop): stop soon (§5.3.1).
                    stalled += 1
                    if stalled >= STOP_PATIENCE:
                        break
            if snapshot.covers_all(beta):
                break
            beta += delta

        final_beta = best_beta if best_scores is not None else beta
        return self._finish(
            snapshot, candidates, classes, total,
            scores=best_scores or {}, beta=final_beta, iterations=iterations,
            events=snapshot.window(final_beta),
        )

    def _finish(self, snapshot: Snapshot, candidates: List[Candidate],
                classes: Sequence[ScoringClass], total: int, *,
                scores: Scores, beta: int, iterations: int,
                events: Sequence[WireEvent]) -> DetectionResult:
        """Expand the ranked classes of the chosen window to their
        member candidates — the one fan-out of a detection."""
        ranked = member_scores(classes, scores)
        matched = [candidates[i].fingerprint for i in ranked]
        coverages = {
            candidates[i].fingerprint.operation: coverage
            for i, (_, coverage) in ranked.items()
        }
        fault = snapshot.fault
        span = (
            (events[0].ts_request, events[-1].ts_response)
            if events else (fault.ts_request, fault.ts_response)
        )
        return DetectionResult(
            fault=fault,
            matched=matched,
            candidates=len(candidates),
            theta=theta(total, len(matched)),
            beta_used=beta,
            iterations=iterations,
            window_span=span,
            matched_events=self._events_of(matched, events),
            coverages=coverages,
        )

    def _events_of(self, matched: List[Fingerprint],
                   events: Sequence[WireEvent]) -> List[WireEvent]:
        """The snapshot events whose symbols belong to matched ops."""
        if not matched:
            return []
        wanted: Set[str] = set()
        for fingerprint in matched:
            wanted.update(fingerprint.symbols)
        symbol = self.symbols.symbol
        # One symbol lookup per distinct API, not per event.
        keep: Dict[str, bool] = {}
        result: List[WireEvent] = []
        for event in events:
            if event.noise:
                continue
            api_key = event.api_key
            kept = keep.get(api_key)
            if kept is None:
                kept = keep[api_key] = symbol(api_key) in wanted
            if kept:
                result.append(event)
        return result
