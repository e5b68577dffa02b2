"""Incremental scoring engine for Algorithm 2's context-buffer loop.

The adaptive loop in :meth:`OperationDetector.detect` evaluates every
candidate fingerprint against a window that grows by δ events per side
per iteration.  The reference scorer re-derives each score from the
whole window, so iteration ``i`` costs O(β₀ + i·δ) per candidate even
though at most 2δ events are new.  This engine keeps matcher state
alive across the iterations of one snapshot and reduces the
steady-state per-iteration cost to a function of what *changed*:

* **Scoring classes.**  The library stamps ~1200 fingerprints out of
  ~140 operations, so once candidates are truncated at the offending
  API and reduced to their state-change skeleton most of a selection
  is *the same string*: ~370 candidates per fault on the Fig. 8c
  stream, ~30 distinct ``(needle, cuts, pure_read)`` triples.
  Candidates sharing that triple get the same multiplicity bound, the
  same DP rows and the same :func:`select_cut` result on every
  window, so the triple — a :class:`Preparation`, held once per
  :class:`ScoringClass` — is the unit the session gates, DPs and
  caches, and the unit its scores are keyed by: the β-loop ranks
  classes, and :func:`member_scores` expands the winning window to
  candidate indexes once, at the end.
  :func:`scoring_classes` computes the partition once per selection;
  the library compiler runs it at compile time over preparations it
  has already interned.
* **One bit index per snapshot.**  :class:`SnapshotIndex` holds one
  Hyyrö match mask per symbol in *snapshot coordinates* (bit ``p`` ↔
  ``snapshot.events[p]``), built once per freeze.  Nothing is derived
  per needle alphabet: a window ``[lo, hi)`` is ``mask >> lo`` read
  under a ``hi − lo``-bit row, shifted once per symbol per window and
  shared by every class.  This replaces the reference path's
  per-iteration string join and per-candidate foreign-symbol regex
  strip.
* **Orientation-swapped Hyyrö rows.**  The reference scorer runs
  ``repro.reference.prefix_lcs_lengths`` with row bits over the
  *needle* and feeds the O(β) buffer through the recurrence.  The
  engine swaps the roles: bits span the window and the ≤n needle
  symbols are fed through the identical recurrence, pausing at each
  truncation cut to read off ``LCS(needle[:cut], window)`` as the
  count of zero bits.  LCS is symmetric, and a window position whose
  symbol the needle lacks matches nothing — its bit stays 1 — so
  leaving it in the row changes no count: the integers, and therefore
  every coverage float, gate decision and ranking, are bit-identical
  to the reference.  A window that holds the same relevant positions
  as the class's previous one returns its cached score without
  touching the DP.
* **Shared multiplicity gate.**  The reference's Counter-based
  upper bound is evaluated with per-symbol window counts bisected out
  of the snapshot index and cached across all classes of the
  iteration; the summed bound is an integer, so the
  resulting float (and the gate decision) is identical to the
  reference's ``Counter``-over-the-joined-string computation.

Why not the incremental Hirschberg split?  An earlier design kept a
forward row fed by right-side extensions plus a reversed-needle row
fed by reversed left-side extensions, combining them with
``LCS(N, L+R) = max_k LCS(N[:k], L) + LCS(N[k:], R)``.  Those two rows
are the wrong pair: outward feeding yields ``LCS(N[k:], L)`` and
``LCS(N[:k], R)``, whose combination computes ``LCS(N, R+L)`` — the
window with its halves *swapped* — while the split needs
``LCS(N[:k], L)`` and ``LCS(N[k:], R)``, both of which are anti-
incremental under outward growth (each left extension *prepends* to
L).  See ``docs/matching.md`` for the full argument.  The
orientation-swapped formulation needs no split: per iteration it costs
O(distinct symbols + n) operations on (hi − lo)-bit integers (2 to
12 machine words at α = 768 — the only term that grows with the
buffer, and it grows inside C), and is exact.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass, fields
from typing import (
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.matching.index import SnapshotIndex

__all__ = [
    "MatchSession",
    "MatchingEngine",
    "MatchingStats",
    "Preparation",
    "ScoringClass",
    "member_scores",
    "scoring_classes",
    "select_cut",
]

Score = Tuple[int, float]


def select_cut(
    cut_lengths: Sequence[int],
    lengths: Union[Sequence[int], Mapping[int, int]],
) -> Score:
    """Best (corroborated length, coverage) over truncation cuts.

    ``lengths`` maps a cut (a needle prefix length) to the LCS between
    that prefix and the buffer; list results from
    ``repro.reference.prefix_lcs_lengths`` index the same way, so the
    reference and incremental scorers share this exact tie-break.
    """
    best: Score = (0, 0.0)
    for cut in cut_lengths:
        if cut <= 0:
            continue
        candidate = (lengths[cut], lengths[cut] / cut)
        # Prefer the cut with the highest coverage, then length: a
        # fully-covered shorter cut beats a diluted longer one.
        if (candidate[1], candidate[0]) > (best[1], best[0]):
            best = candidate
    return best


#: What a scorer can tell two preparations apart by.
PreparationKey = Tuple[str, Tuple[int, ...], bool]


class Preparation:
    """One fingerprint made ready for scoring against one fault symbol.

    The only prepared-candidate type: ``repro.core.detector.
    prepare_candidate`` returns it, the library compiler interns it
    under :meth:`key` and a candidate is a ``(fingerprint,
    preparation)`` pair.  Everything :meth:`MatchSession.score` reads
    is a function of ``(needle, cuts, pure_read)`` — the multiplicity
    bound, the DP rows, the :func:`select_cut` result and the
    finalization length — and is derived once, here.  Read-only after
    construction: one instance is shared by every candidate, selection,
    detector and shard that scores the same skeleton.
    """

    __slots__ = (
        "needle", "cuts", "pure_read", "alphabet", "needle_items",
        "size", "gate_size", "final_length",
    )

    def __init__(
        self, needle: str, cuts: Tuple[int, ...], pure_read: bool
    ) -> None:
        #: The symbol string scored: the state-change symbols of the
        #: longest considered truncation (every symbol in the strict
        #: ablation), or its full symbol string for a pure read.
        self.needle = needle
        #: Prefix lengths into the required symbols, one per
        #: truncation point, ascending.  A pure read has no required
        #: symbol to cut at and is scored whole.
        self.cuts = cuts
        self.pure_read = pure_read
        self.alphabet: FrozenSet[str] = frozenset(needle)
        #: Needle symbol multiplicities, feeding the multiplicity gate.
        self.needle_items = tuple(Counter(needle).items())
        # ``max(1, …)``: an empty needle sums 0 credits, and 0/1 keeps
        # the 0.0 bound the reference computes without a zero division.
        self.size = max(1, len(needle))
        #: What the gate's credit sum is a fraction of: the *shortest*
        #: cut.  ``LCS(needle[:cut], window)`` is at most the credits
        #: of the whole needle, so ``credits / cuts[0]`` bounds the
        #: coverage of every cut :func:`select_cut` chooses from;
        #: ``credits / len(needle)`` bounds only the longest one, and
        #: gating on it dropped operations that failed at an early
        #: occurrence of the offending API.
        self.gate_size = self.size if pure_read else max(1, cuts[0])
        #: Corroborated length at which the score can no longer
        #: improve — the longest cut, fully covered.  Shorter cuts at
        #: coverage 1.0 could still be overtaken by a longer cut as
        #: the buffer grows, so they do not finalize.
        self.final_length = len(needle) if pure_read else cuts[-1]

    def key(self) -> PreparationKey:
        """The scorer's identity: pool-interning and class-partition
        key."""
        return (self.needle, self.cuts, self.pure_read)


@dataclass
class MatchingStats:
    """Counters the engine accumulates across sessions.

    Exposed through ``PipelineStats`` and ``repro analyze
    --stage-stats`` so the effect of the multiplicity gate and the
    incremental rows is observable in production, not only in
    benchmarks.
    """

    #: Candidates skipped by the multiplicity upper bound before any
    #: LCS work (a gated class counts every member).
    candidates_gated: int = 0
    #: DP passes actually run — window evaluations whose relevant
    #: positions changed since the class's previous iteration.
    lcs_row_extensions: int = 0
    #: Needle symbols fed through the bit-parallel recurrence across
    #: all DP passes.
    lcs_symbols_fed: int = 0
    #: Window evaluations answered from the cached result without a
    #: DP pass.
    rescore_hits: int = 0

    def __add__(self, other: "MatchingStats") -> "MatchingStats":
        # Merge by iterating own fields (the ``PipelineStats`` rule):
        # a counter added above is summed without another line here.
        return MatchingStats(**{
            spec.name: (
                getattr(self, spec.name) + getattr(other, spec.name)
            )
            for spec in fields(self)
        })

    def to_dict(self) -> Dict[str, int]:
        """JSON-serializable rendering (checkpoint/restore protocol)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, int]) -> "MatchingStats":
        """Inverse of :meth:`to_dict`."""
        return cls(**data)


@dataclass
class ScoringClass:
    """Candidates of one selection the scorer cannot tell apart:
    their shared :class:`Preparation` and their indexes into the
    selection's candidate list."""

    preparation: Preparation
    members: Tuple[int, ...]


def scoring_classes(
    candidates: Sequence[Tuple[object, Preparation]],
) -> Tuple[ScoringClass, ...]:
    """Partition one selection into its :class:`ScoringClass` es.

    The single source of the partition: the library compiler runs it
    per ``(symbol, truncation)`` over interned preparations and a
    scan-selected list goes through it as well, so it groups by
    :meth:`Preparation.key`, not by object identity.  Classes are
    ordered by first member and members ascend, so the partition is a
    pure function of the list.
    """
    groups: Dict[PreparationKey, List[int]] = {}
    for position, (_, preparation) in enumerate(candidates):
        groups.setdefault(preparation.key(), []).append(position)
    return tuple(
        ScoringClass(candidates[members[0]][1], tuple(members))
        for members in groups.values()
    )


def member_scores(
    classes: Sequence[ScoringClass], scores: Mapping[int, Score],
) -> Dict[int, Score]:
    """Scores keyed by class index, fanned out to every member.

    ``{candidate index: score}`` in ascending candidate order — what a
    per-candidate scorer returns for the same window.  The one place a
    class is expanded: the detector calls it on the winning window,
    the tests on every window they compare.
    """
    fanned = {
        member: score
        for number, score in scores.items()
        for member in classes[number].members
    }
    return dict(sorted(fanned.items()))


class _ShiftedMasks(Dict[str, int]):
    """``SnapshotIndex.masks`` right-shifted by one window's ``lo``:
    each symbol shifted on first use and shared by every class scored
    on that window (a symbol the snapshot never carries shifts to
    0)."""

    __slots__ = ("_masks", "_lo")

    def __init__(self, masks: Mapping[str, int], lo: int) -> None:
        super().__init__()
        self._masks = masks
        self._lo = lo

    def __missing__(self, symbol: str) -> int:
        mask = self[symbol] = self._masks.get(symbol, 0) >> self._lo
        return mask


class _CandidateState:
    """One scoring class's live state within a session."""

    __slots__ = (
        "preparation", "weight", "required", "relevant", "last_key",
        "last_result",
    )

    def __init__(
        self,
        scoring_class: ScoringClass,
        required: float,
        masks: Mapping[str, int],
    ) -> None:
        self.preparation = scoring_class.preparation
        #: Candidates this class answers for (what a gate skips).
        self.weight = len(scoring_class.members)
        self.required = required
        #: Snapshot positions carrying a symbol of the needle's
        #: alphabet, as a bit set.
        relevant = 0
        for symbol in self.preparation.alphabet:
            relevant |= masks.get(symbol, 0)
        self.relevant = relevant
        #: ``relevant`` restricted to the last window scored (−1:
        #: nothing scored yet) — the rescore cache key.
        self.last_key = -1
        self.last_result: Score = (0, 0.0)

    def run(
        self,
        shifted: Mapping[str, int],
        width: int,
        stats: MatchingStats,
    ) -> Score:
        """One orientation-swapped Hyyrö pass over a ``width``-event
        window.

        The recurrence is byte-for-byte the one in
        ``repro.reference.prefix_lcs_lengths``; only the roles are
        swapped — row bit ``i`` is window event ``lo + i``, and the
        needle symbols are fed through it.  A position whose symbol
        the needle lacks is in no mask, so its bit stays 1 and is
        never counted.  Bits at ``width`` and above in a shifted mask
        lie outside the window; they never enter ``row`` because
        ``update = row & mask`` confines the carry to live bits.
        """
        window_mask = (1 << width) - 1
        row = window_mask  # all ones: no increments yet
        preparation = self.preparation
        needle = preparation.needle
        if preparation.pure_read:
            for symbol in needle:
                mask = shifted[symbol]
                if mask:
                    update = row & mask
                    row = ((row + update) | (row - update)) & window_mask
            stats.lcs_symbols_fed += len(needle)
            length = width - row.bit_count()
            return length, length / preparation.size
        lengths: Dict[int, int] = {}
        cuts = preparation.cuts
        remaining = len(cuts)
        cut_index = 0
        fed = 0
        for symbol in needle:
            fed += 1
            mask = shifted[symbol]
            if mask:
                update = row & mask
                row = ((row + update) | (row - update)) & window_mask
            while cut_index < len(cuts) and cuts[cut_index] == fed:
                lengths[fed] = width - row.bit_count()
                cut_index += 1
                remaining -= 1
            if not remaining:
                break
        stats.lcs_symbols_fed += fed
        return select_cut(cuts, lengths)


class MatchSession:
    """Scoring state for one snapshot's adaptive-buffer loop.

    Replays the from-scratch reference scorer over successive windows
    of a single snapshot, class by class: :meth:`score` returns
    ``{class index: (length, coverage)}`` — the position of each
    gated :class:`ScoringClass` in the sequence the session was opened
    over, with the floats the reference computes for every member —
    while keeping each class's last result alive between calls.
    :func:`member_scores` expands a mapping to candidate indexes.
    """

    def __init__(
        self,
        index: SnapshotIndex,
        classes: Sequence[ScoringClass],
        *,
        threshold: float,
        strict: bool,
        stats: MatchingStats,
    ) -> None:
        self._index = index
        self._states = [
            _CandidateState(
                scoring_class,
                0.999 if (scoring_class.preparation.pure_read or strict)
                else threshold,
                index.masks,
            )
            for scoring_class in classes
        ]
        self._stats = stats

    def score(
        self,
        lo: int,
        hi: int,
        finalized: Optional[Dict[int, Score]] = None,
    ) -> Dict[int, Score]:
        """Score every class against ``events[lo:hi]``.

        Mirrors the reference scorer decision-for-decision: the
        finalized short-circuit, the multiplicity gate, the coverage
        threshold and the finalization rule all use the same values in
        the same order, once per class.  The gate is the reference's
        multiplicity upper bound inlined: the per-symbol window counts
        come from the index and the credit sum is an integer, so the
        resulting bound float is identical.

        A class whose relevant positions inside the window are the
        ones it was last scored on returns that result without a DP
        pass — exact for any pair of windows, nested or not, because
        those positions *are* the filtered string the reference
        scores.

        ``finalized`` is keyed like the result and must be the dict
        this session's earlier calls filled (or a copy of it).
        """
        stats = self._stats
        index_count = self._index.count
        shifted = _ShiftedMasks(self._index.masks, lo)
        width = hi - lo
        window_bits = ((1 << width) - 1) << lo
        counts: Dict[str, int] = {}
        counts_get = counts.get
        scores: Dict[int, Score] = {}
        gated = 0
        for number, state in enumerate(self._states):
            if finalized and number in finalized:
                scores[number] = finalized[number]
                continue
            preparation = state.preparation
            matched = 0
            for symbol, need in preparation.needle_items:
                have = counts_get(symbol)
                if have is None:
                    have = index_count(symbol, lo, hi)
                    counts[symbol] = have
                matched += need if need < have else have
            required = state.required
            if matched / preparation.gate_size < required:
                gated += state.weight
                continue
            key = state.relevant & window_bits
            if key == state.last_key:
                stats.rescore_hits += 1
                result = state.last_result
            else:
                stats.lcs_row_extensions += 1
                result = state.run(shifted, width, stats)
                state.last_key = key
                state.last_result = result
            length, coverage = result
            if coverage >= required:
                scores[number] = result
                # A class is final only once its *longest* cut is
                # fully corroborated (see the reference scorer).
                if (coverage >= 0.999
                        and length >= preparation.final_length
                        and finalized is not None):
                    finalized[number] = result
        stats.candidates_gated += gated
        return scores


class MatchingEngine:
    """Session factory plus cross-session counters for one detector."""

    def __init__(self) -> None:
        self.stats = MatchingStats()

    def session(
        self,
        fragments: Sequence[str],
        classes: Sequence[ScoringClass],
        *,
        threshold: float,
        strict: bool,
    ) -> MatchSession:
        """A fresh scoring session over one snapshot's fragments and
        one selection's :func:`scoring_classes`."""
        return MatchSession(
            SnapshotIndex(fragments), classes,
            threshold=threshold, strict=strict, stats=self.stats,
        )
