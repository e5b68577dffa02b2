"""From-scratch Algorithm 2: the reference halves of
``verify_selection`` and ``verify_detection``.

:class:`~repro.core.detector.OperationDetector` runs one path: it
looks candidates up in the compiled index and scores the context
buffer through an incremental ``MatchSession``.  Each of those layers
has a slow, obviously-correct twin here, plugged into the detector's
two hooks so that the β-growth loop, ranking and result assembly are
the production code, not a copy:

* :class:`ScanSelectionDetector` prepares every containing fingerprint
  from scratch (``_select``, through :func:`prepare_from_scratch`: a
  truncated fingerprint copy, its state-change string, then its cut
  points) — the oracle half of indexed selection, sharing no
  preparation code with the compiler's skeleton slices;
* :class:`ScratchScoringDetector` re-scores each window from its joined
  symbol string, candidate by candidate (``_scorer``: one singleton
  scoring class per candidate) — the oracle half of incremental
  matching.

Each oracle uses the class that differs from production in exactly the
layer it judges, so a divergence names its layer.
"""

from __future__ import annotations

import re
from collections import Counter
from functools import lru_cache
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from repro.core.config import GretelConfig
from repro.core.detector import (
    MATCH_COVERAGE,
    Candidate,
    OperationDetector,
    Scorer,
    Scores,
    _MAX_TRUNCATIONS,
    Selection,
)
from repro.core.fingerprint import Fingerprint
from repro.core.matching.engine import (
    Preparation,
    ScoringClass,
    rank,
    select_cut,
)
from repro.core.window import Snapshot


# -- from-scratch scoring ---------------------------------------------------

def prefix_lcs_lengths(needle: str, haystack: str) -> List[int]:
    """LCS(needle[:i], haystack) for every prefix length i.

    Returns a list of ``len(needle) + 1`` integers; entry ``i`` is the
    longest order-consistent overlap between the first ``i`` symbols of
    ``needle`` and ``haystack``.  The haystack is pre-filtered to the
    needle's alphabet, which keeps the work small when the snapshot is
    dominated by other operations' symbols.

    This is the matching primitive behind the paper's relaxed match:
    Fig. 4 shows a fingerprint matching even though one of its
    state-change symbols is absent from the context buffer, so a match
    must be judged by how much of the fingerprint's symbol *order* the
    buffer corroborates, not by requiring every literal.

    Implementation: Hyyrö's bit-parallel LCS.  The row bit-vector is
    the delta-encoding of the DP table's final column — a zero bit at
    position ``i`` means ``LCS(needle[:i+1]) = LCS(needle[:i]) + 1`` —
    so one O(|haystack|) pass yields every prefix value at once.
    Fingerprints are ≲100 symbols, so the row vector is one or two
    machine words inside a Python int.
    """
    if not needle:
        return [0]
    n = len(needle)
    match: Dict[str, int] = {}
    for index, symbol in enumerate(needle):
        match[symbol] = match.get(symbol, 0) | (1 << index)

    width_mask = (1 << n) - 1
    row = width_mask  # all ones: no increments yet
    get = match.get
    for symbol in haystack:
        mask = get(symbol)
        if mask is None:
            continue
        update = row & mask
        row = ((row + update) | (row - update)) & width_mask

    result = [0] * (n + 1)
    count = 0
    for index in range(n):
        if not (row >> index) & 1:
            count += 1
        result[index + 1] = count
    return result


def upper_bound(preparation: Preparation,
                buffer_counts: Mapping[str, int]) -> float:
    """Coverage upper bound from symbol multiplicities.

    ``Σ min(needle count, buffer count) / shortest cut``: an LCS
    cannot use a buffer symbol more often than the buffer holds
    it, so a needle ``XX`` is not credited twice by a buffer with
    a single ``X`` (the set-intersection bound this replaces did).
    The credits bound ``LCS(needle[:cut], buffer)`` for every cut,
    so dividing by the shortest one bounds whichever cut
    :func:`select_cut` prefers (it exceeds 1 when a short cut could
    be fully covered; dividing by ``len(needle)`` would bound only
    the longest cut).  Monotone nondecreasing under buffer growth,
    which both the gate and the adaptive loop's ``finalized`` set
    rely on.
    """
    source = preparation.needle
    if not source:
        return 0.0
    get = buffer_counts.get
    matched = 0
    for symbol, count in preparation.needle_items:
        have = get(symbol, 0)
        matched += count if count < have else have
    return matched / preparation.gate_size


@lru_cache(maxsize=4096)
def _foreign(alphabet: FrozenSet[str]) -> "re.Pattern[str]":
    """Matches runs of symbols outside ``alphabet``."""
    return re.compile("[^" + re.escape("".join(sorted(alphabet))) + "]+")


def score_candidate(preparation: Preparation,
                    buffer_symbols: str) -> Tuple[int, float]:
    """Best (corroborated length, coverage) over truncation points.

    The corroborated length is the LCS between the truncated
    fingerprint and the buffer — how many of the operation's
    ordered symbols the buffer actually witnesses.
    """
    if preparation.alphabet:
        # C-speed removal of symbols outside the candidate's alphabet
        # before the (Python-level) LCS.
        buffer_symbols = _foreign(preparation.alphabet).sub(
            "", buffer_symbols
        )
    lengths = prefix_lcs_lengths(preparation.needle, buffer_symbols)
    if preparation.pure_read:
        total = max(1, len(preparation.needle))
        return lengths[-1], lengths[-1] / total
    return select_cut(preparation.cuts, lengths)


def score_buffer(candidates: Sequence[Candidate], buffer_symbols: str,
                 config: GretelConfig,
                 finalized: Optional[Scores] = None) -> Scores:
    """(corroborated length, coverage) per gated candidate index.

    From-scratch over the joined window string, every gated-in
    candidate scored.  ``MatchSession.score`` replays these decisions
    incrementally, once per scoring class and only for the classes
    that can rank: it must equal ``rank`` of this mapping, floats
    ``==``, for every member.
    """
    buffer_counts = Counter(buffer_symbols)
    scores: Scores = {}
    strict = not config.relaxed_match
    for index, (_, preparation) in enumerate(candidates):
        if finalized and index in finalized:
            scores[index] = finalized[index]
            continue
        required = (0.999 if preparation.pure_read or strict
                    else MATCH_COVERAGE)
        if upper_bound(preparation, buffer_counts) < required:
            continue
        length, coverage = score_candidate(preparation, buffer_symbols)
        if coverage >= required:
            scores[index] = (length, coverage)
            # A candidate is final only once its *longest* cut is
            # fully corroborated: shorter cuts at coverage 1.0 could
            # still be overtaken as the buffer grows.
            if (coverage >= 0.999
                    and length >= preparation.final_length
                    and finalized is not None):
                finalized[index] = (length, coverage)
    return scores


class ScratchScoringDetector(OperationDetector):
    """Production selection, from-scratch scoring."""

    def _buffer_symbols(self, snapshot: Snapshot, lo: int, hi: int,
                        correlation_id: str) -> str:
        """Symbol string for ``snapshot.events[lo:hi]``, re-encoded on
        every call (noise always excluded; RPCs excluded under
        pruning).

        With ``correlation_id`` set (the §5.3.1 future-work mode), only
        messages carrying the offending message's correlation header
        are matched — "reducing the number of packets against which a
        fingerprint is matched".
        """
        events = snapshot.events[lo:hi]
        fragments = self.fragments(events)
        if not correlation_id:
            return "".join(fragments)
        return "".join(
            piece for piece, event in zip(fragments, events, strict=True)
            if event.request_id == correlation_id
        )

    def _scorer(
        self, snapshot: Snapshot, candidates: List[Candidate],
        correlation_id: str,
    ) -> Tuple[Sequence[ScoringClass], Scorer]:
        """One singleton class per candidate — class index = candidate
        index — so the production loop breaks ties and fans out over
        :func:`rank` of what :func:`score_buffer` returns as it stands,
        and owes nothing to the selection's partition."""
        classes = [
            ScoringClass(preparation, (position,))
            for position, (_, preparation) in enumerate(candidates)
        ]

        def score(lo: int, hi: int,
                  finalized: Optional[Scores] = None) -> Scores:
            return rank(classes, score_buffer(
                candidates,
                self._buffer_symbols(snapshot, lo, hi, correlation_id),
                self.config, finalized,
            ))
        return classes, score


# -- from-scratch selection -------------------------------------------------

def prepare_from_scratch(
    fingerprint: Fingerprint,
    effective: Fingerprint,
    symbol: str,
    *,
    truncate: bool,
    relaxed: bool,
) -> Preparation:
    """Prepare one fingerprint for scoring against ``symbol`` faults,
    the long way: truncate a copy of it, derive that copy's required
    symbols, then walk it for the cut points.

    ``effective`` is the (possibly RPC-pruned) fingerprint; when
    pruning removed the offending symbol itself, the unpruned
    fingerprint is used for this candidate (the fault demonstrably
    involved the pruned RPC).
    """
    if symbol not in effective.symbols:
        effective = fingerprint
    longest = truncate_at(effective, symbol) if truncate else effective
    if relaxed:
        required_symbols = longest.state_change_symbols
    else:
        # Strict ablation: every symbol (reads included) is a
        # required literal.
        required_symbols = longest.symbols
    if truncate:
        cuts = _cut_lengths(longest, symbol, all_symbols=not relaxed)
    else:
        cuts = (len(required_symbols),)
    # Pure reads (no required symbol at all) are scored on their full
    # symbol sequence instead.
    pure_read = not required_symbols
    return Preparation(
        longest.symbols if pure_read else required_symbols, cuts,
        pure_read,
    )


def truncate_at(fingerprint: Fingerprint, symbol: str) -> Fingerprint:
    """Truncate at the *last* occurrence of ``symbol`` (Alg. 2)."""
    index = fingerprint.symbols.rfind(symbol)
    if index < 0:
        return fingerprint
    return Fingerprint(
        operation=fingerprint.operation,
        symbols=fingerprint.symbols[: index + 1],
        state_change_mask=fingerprint.state_change_mask[: index + 1],
        category=fingerprint.category,
        nodes=fingerprint.nodes,
        dependencies=fingerprint.dependencies,
    )


def _cut_lengths(fingerprint: Fingerprint, symbol: str,
                 all_symbols: bool = False) -> Tuple[int, ...]:
    """Required-symbol prefix lengths at each occurrence of
    ``symbol`` (state-change prefix by default; every symbol in the
    strict ablation)."""
    cuts: List[int] = []
    count = 0
    for sym, is_sc in zip(
        fingerprint.symbols, fingerprint.state_change_mask, strict=True,
    ):
        if all_symbols or is_sc:
            count += 1
        if sym == symbol:
            if not cuts or cuts[-1] != count:
                cuts.append(count)
    cuts = [c for c in cuts if c > 0]
    if not cuts:
        total = (len(fingerprint.symbols) if all_symbols
                 else len(fingerprint.state_change_symbols))
        cuts = [total]
    return tuple(cuts[-_MAX_TRUNCATIONS:])


class ScanSelectionDetector(OperationDetector):
    """From-scratch selection, production scoring.  Never consults an
    index: the base constructor fetches the library's, but this
    ``_select`` fills nothing in it."""

    def _select(self, symbol: str, truncate: bool) -> Selection:
        prune = self.config.prune_rpcs
        relaxed = self.config.relaxed_match
        prepared: List[Candidate] = []
        for fingerprint in self.library.ops_containing(symbol):
            self.postings_scanned += 1
            effective = (
                fingerprint.rest_only(self.symbols) if prune
                else fingerprint
            )
            prepared.append(Candidate(fingerprint, prepare_from_scratch(
                fingerprint, effective, symbol,
                truncate=truncate, relaxed=relaxed,
            )))
        return Selection(prepared)
