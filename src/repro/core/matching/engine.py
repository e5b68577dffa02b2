"""Incremental scoring engine for Algorithm 2's context-buffer loop.

The adaptive loop in :meth:`OperationDetector.detect` evaluates every
candidate fingerprint against a window that grows by δ events per side
per iteration.  The reference scorer re-derives each score from the
whole window's joined, regex-filtered string, per candidate.  This
engine indexes the snapshot once per session and scores each window
per distinct candidate, only while that candidate can still rank:

* **Scoring classes.**  The library stamps ~1200 fingerprints out of
  ~140 operations, so once candidates are truncated at the offending
  API and reduced to their state-change skeleton most of a selection
  is *the same string*: ~370 candidates per fault on the Fig. 8c
  stream, ~30 distinct ``(needle, cuts, pure_read)`` triples.
  Candidates sharing that triple get the same multiplicity bound, the
  same DP rows and the same :func:`select_cut` result on every
  window, so the triple — a :class:`Preparation`, held once per
  :class:`ScoringClass` — is the unit the session gates and DPs,
  and the unit its scores are keyed by: the β-loop ranks
  classes, and :func:`member_scores` expands the winning window to
  candidate indexes once, at the end.
  :func:`scoring_classes` computes the partition once per selection;
  the library compiler runs it at compile time over preparations it
  has already interned.
* **One bit index per snapshot.**  :func:`symbol_masks` maps each
  symbol to one Hyyrö match mask in *snapshot coordinates* (bit ``p``
  ↔ ``snapshot.events[p]``), built once per session.  Nothing is
  derived per needle alphabet: a window ``[lo, hi)`` is ``mask >> lo``
  read under a ``hi − lo``-bit row, shifted once per symbol per window
  and shared by every class.  This replaces the reference path's
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
  to the reference.
* **The multiplicity gate as one popcount.**  The reference's
  Counter-based upper bound sums ``min(need, have)`` over a needle's
  symbols.  Almost every needle symbol is needed once, so each class
  carries a ``ones`` bit set over its selection's union alphabet
  (:class:`ScoringClasses` ``.symbols``) and a short ``multi`` tuple
  for the rest; per window the session marks which union symbols
  occur in it (``present``), and a class's credits are
  ``(present & ones).bit_count()`` plus its few ``multi`` terms.  The
  credit sum is the same integer, so the bound float, the gate
  decision and ``candidates_gated`` are identical to the reference's
  ``Counter``-over-the-joined-string computation.
* **Bound-ordered scoring.**  The credits also bound the class's
  corroborated length on that window, so the session scores gated-in
  classes in descending bound order and stops once a bound falls
  below the best length seen minus ``LENGTH_TOLERANCE``; pure-read
  classes are scored only when no state-change class passed coverage.
  What it skips could not have ranked.  :meth:`MatchSession.score`
  returns the ranked classes only (:func:`rank`).

Why not an incremental Hirschberg split?  Feeding the window's halves
outward yields ``LCS(N[k:], L)`` and ``LCS(N[:k], R)``, the wrong pair
for ``LCS(N, L+R)`` (``docs/matching.md`` has the argument).  The
orientation-swapped rows need no split: an iteration costs O(distinct
symbols + n) operations on (hi − lo)-bit integers (2 to 12 machine
words at α = 768, growing inside C), and is exact.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass
from typing import (
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

__all__ = [
    "LENGTH_TOLERANCE",
    "MatchSession",
    "MatchingStats",
    "Preparation",
    "ScoringClass",
    "ScoringClasses",
    "member_scores",
    "rank",
    "scoring_classes",
    "select_cut",
    "symbol_masks",
]

Score = Tuple[int, float]

#: Among scored classes, keep those whose corroborated symbol count is
#: within this many symbols of the best one — a long ordered
#: corroboration is much stronger evidence than a short fully-covered
#: one.
LENGTH_TOLERANCE = 0


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
        "size", "gate_size", "final_length", "_key",
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
        self._key: PreparationKey = (needle, cuts, pure_read)

    def key(self) -> PreparationKey:
        """The scorer's identity: pool-interning and class-partition
        key."""
        return self._key


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
    #: DP passes run: one per window evaluation of a gated-in class
    #: whose bound could still reach the best length.
    lcs_row_extensions: int = 0
    #: Needle symbols fed through the bit-parallel recurrence across
    #: all DP passes.
    lcs_symbols_fed: int = 0

    def to_dict(self) -> Dict[str, int]:
        """JSON-serializable rendering (checkpoint/restore protocol)."""
        return asdict(self)


@dataclass
class ScoringClass:
    """Candidates of one selection the scorer cannot tell apart:
    their shared :class:`Preparation` and their indexes into the
    selection's candidate list.

    ``ones`` and ``multi`` restate the preparation's
    ``needle_items`` over the partition's union alphabet
    (:attr:`ScoringClasses.symbols`) for the multiplicity gate: bit
    ``i`` of ``ones`` is set when the needle holds ``symbols[i]``
    exactly once, and ``multi`` lists ``(i, need)`` for the symbols it
    holds more often.
    """

    preparation: Preparation
    members: Tuple[int, ...]
    ones: int = 0
    multi: Tuple[Tuple[int, int], ...] = ()


class ScoringClasses(Tuple[ScoringClass, ...]):
    """One selection's :class:`ScoringClass` es plus the gate's union
    alphabet: ``symbols`` lists, in sorted order, every symbol some
    class's needle holds; the classes' ``ones`` / ``multi`` index it."""

    symbols: Tuple[str, ...] = ()


def scoring_classes(
    candidates: Sequence[Tuple[object, Preparation]],
) -> ScoringClasses:
    """Partition one selection into its :class:`ScoringClass` es.

    The single source of the partition: the library compiler runs it
    per ``(symbol, truncation)`` over interned preparations and a
    scan-selected list goes through it as well, so it groups by
    :meth:`Preparation.key`, not by object identity.  Classes are
    ordered by first member and members ascend, so the partition is a
    pure function of the list — and so are its gate terms, derived
    here once per selection.
    """
    groups: Dict[PreparationKey, List[int]] = {}
    for position, (_, preparation) in enumerate(candidates):
        groups.setdefault(preparation.key(), []).append(position)
    alphabet: Set[str] = set()
    for members in groups.values():
        alphabet |= candidates[members[0]][1].alphabet
    symbols = tuple(sorted(alphabet))
    bit_of = {symbol: bit for bit, symbol in enumerate(symbols)}
    classes = ScoringClasses(
        _with_gate_terms(candidates[members[0]][1], tuple(members), bit_of)
        for members in groups.values()
    )
    classes.symbols = symbols
    return classes


def _with_gate_terms(
    preparation: Preparation,
    members: Tuple[int, ...],
    bit_of: Mapping[str, int],
) -> ScoringClass:
    """The class of ``preparation``, its ``ones`` / ``multi`` over the
    union alphabet numbered by ``bit_of``."""
    ones = 0
    multi: List[Tuple[int, int]] = []
    for symbol, need in preparation.needle_items:
        if need == 1:
            ones |= 1 << bit_of[symbol]
        else:
            multi.append((bit_of[symbol], need))
    return ScoringClass(preparation, members, ones, tuple(multi))


def rank(
    classes: Sequence[ScoringClass], scores: Mapping[int, Score],
) -> Dict[int, Score]:
    """Algorithm 2's ranking rule over one window's class scores.

    State-change evidence outranks read-only evidence: pure-read
    classes are considered only when no state-change class passed
    coverage.  Of that pool, keep the classes whose corroborated
    length is within ``LENGTH_TOLERANCE`` of the best.
    :meth:`MatchSession.score` applies it to what it scored; the
    reference detector applies it to the from-scratch scores.  It
    reads only ``classes[i].preparation``, so a candidate list ranks
    per-candidate scores the same way.
    """
    pool = [
        number for number in scores
        if not classes[number].preparation.pure_read
    ] or list(scores)
    if not pool:
        return {}
    floor = max(scores[number][0] for number in pool) - LENGTH_TOLERANCE
    return {
        number: scores[number] for number in pool
        if scores[number][0] >= floor
    }


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


def symbol_masks(fragments: Sequence[str]) -> Dict[str, int]:
    """Symbol → event positions as a bit set, over one snapshot's
    per-event fragments (one symbol, or ``""`` for an event excluded
    from matching).

    Bit ``p`` of ``masks[symbol]`` is set exactly when
    ``fragments[p]`` is ``symbol`` — a Hyyrö match mask over the whole
    snapshot, so the window ``[lo, hi)`` of :meth:`Snapshot.bounds` is
    bits ``lo`` to ``hi − 1``.  ``""`` fragments are in no mask.  The
    gate's window counts are the same masks under the window's bits.
    """
    masks: Dict[str, int] = {}
    get = masks.get
    for position, fragment in enumerate(fragments):
        if fragment:
            masks[fragment] = get(fragment, 0) | 1 << position
    return masks


class _ShiftedMasks(Dict[str, int]):
    """:func:`symbol_masks` right-shifted by one window's ``lo``:
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


def _run(
    preparation: Preparation,
    shifted: Mapping[str, int],
    width: int,
    stats: MatchingStats,
) -> Score:
    """One orientation-swapped Hyyrö pass over a ``width``-event window.

    The recurrence is byte-for-byte the one in
    ``repro.reference.prefix_lcs_lengths``; only the roles are
    swapped — row bit ``i`` is window event ``lo + i``, and the
    needle symbols are fed through it.  A position whose symbol the
    needle lacks is in no mask, so its bit stays 1 and is never
    counted.  Bits at ``width`` and above in a shifted mask lie
    outside the window; they never enter ``row`` because ``update =
    row & mask`` confines the carry to live bits.
    """
    stats.lcs_row_extensions += 1
    window_mask = (1 << width) - 1
    row = window_mask  # all ones: no increments yet
    needle = preparation.needle
    # A pure read has no cut (its ``cuts`` is ``(0,)``): it is read
    # off once, after the whole needle.
    stops = (len(needle),) if preparation.pure_read else preparation.cuts
    lengths: Dict[int, int] = {}
    fed = 0
    for cut in stops:
        for symbol in needle[fed:cut]:
            mask = shifted[symbol]
            if mask:
                update = row & mask
                row = ((row + update) | (row - update)) & window_mask
        fed = cut
        lengths[cut] = width - row.bit_count()
    stats.lcs_symbols_fed += fed
    if preparation.pure_read:
        return lengths[fed], lengths[fed] / preparation.size
    return select_cut(stops, lengths)


class MatchSession:
    """Scoring state for one snapshot's adaptive-buffer loop.

    Replays the from-scratch reference scorer, followed by
    :func:`rank`, over successive windows of a single snapshot, class
    by class: :meth:`score` returns ``{class index: (length,
    coverage)}`` for the *ranked* classes — the position of each
    :class:`ScoringClass` in the partition the session was opened
    over, with the floats the reference computes for every member.
    :func:`member_scores` expands a mapping to candidate indexes.  It
    keeps no per-class state between windows: only the caller's
    ``finalized`` carries over.

    ``fragments`` is the snapshot's per-event encoding, read once
    through :func:`symbol_masks`; ``stats`` is the caller's counter
    object, which every session of one detector adds to.
    """

    def __init__(
        self,
        fragments: Sequence[str],
        classes: ScoringClasses,
        *,
        threshold: float,
        strict: bool,
        stats: MatchingStats,
    ) -> None:
        masks = self._masks = symbol_masks(fragments)
        self._classes = classes
        #: Per class, the coverage a score must reach to count.
        self._required = [
            0.999 if (scoring_class.preparation.pure_read or strict)
            else threshold
            for scoring_class in classes
        ]
        #: Snapshot-wide mask per union symbol, in ``symbols`` order
        #: (what a ``multi`` term counts in a window) ...
        union = self._union = [
            masks.get(symbol, 0) for symbol in classes.symbols
        ]
        #: ... and ``(bit, mask)`` for those the snapshot carries at
        #: all: the only ones that can set a ``present`` bit.
        self._carried = [
            (1 << bit, mask) for bit, mask in enumerate(union) if mask
        ]
        self._stats = stats

    def score(
        self,
        lo: int,
        hi: int,
        finalized: Optional[Dict[int, Score]] = None,
    ) -> Dict[int, Score]:
        """Score against ``events[lo:hi]``; return the ranked classes.

        Equal to :func:`rank` over the reference scorer's mapping for
        the same window, floats ``==``.  Every class not in
        ``finalized`` passes through the multiplicity gate, whose
        credit sum is the reference's integer, so the gate decisions
        and ``candidates_gated`` are the reference's.  The gated-in
        classes are then scored in descending order of their bound,
        ``min(credits, final_length)`` — no cut's LCS exceeds either.
        State-change classes go first; pure reads are scored only
        when no state-change class passed coverage, because otherwise
        :func:`rank` drops every pure read.  Scoring stops at the
        first bound below the best length seen minus
        ``LENGTH_TOLERANCE``, the best seeded from ``finalized``.  The
        best only grows, so a class skipped there is below
        :func:`rank`'s floor.  A skipped class is not entered in
        ``finalized``; on a later, larger window it scores what
        ``finalized`` would have served (coverage is monotone under
        growth).

        Every class the bound lets through runs its DP.  ``finalized``
        is keyed like the result and must be the dict this session's
        earlier calls filled (or a copy of it).
        """
        width = hi - lo
        window_bits = ((1 << width) - 1) << lo
        present = 0
        for bit, mask in self._carried:
            if mask & window_bits:
                present |= bit
        union = self._union
        required = self._required
        scores: Dict[int, Score] = {}
        # Gated-in classes waiting for their DP, as ``(−bound, class
        # index)``: an ascending sort is descending bound.
        queued: List[Tuple[int, int]] = []
        queued_reads: List[Tuple[int, int]] = []
        best = best_read = -1
        gated = 0
        for number, scoring_class in enumerate(self._classes):
            preparation = scoring_class.preparation
            if finalized and number in finalized:
                result = scores[number] = finalized[number]
                length = result[0]
                if preparation.pure_read:
                    best_read = max(best_read, length)
                else:
                    best = max(best, length)
                continue
            credits = (present & scoring_class.ones).bit_count()
            for bit, need in scoring_class.multi:
                have = (union[bit] & window_bits).bit_count()
                credits += need if need < have else have
            if credits / preparation.gate_size < required[number]:
                gated += len(scoring_class.members)
                continue
            final_length = preparation.final_length
            bound = credits if credits < final_length else final_length
            (queued_reads if preparation.pure_read else queued).append(
                (-bound, number)
            )
        self._stats.candidates_gated += gated
        shifted = _ShiftedMasks(self._masks, lo)
        if self._scan(queued, best, scores, finalized, shifted, width) < 0:
            self._scan(
                queued_reads, best_read, scores, finalized, shifted, width,
            )
        return rank(self._classes, scores)

    def _scan(
        self,
        queued: List[Tuple[int, int]],
        best: int,
        scores: Dict[int, Score],
        finalized: Optional[Dict[int, Score]],
        shifted: Mapping[str, int],
        width: int,
    ) -> int:
        """Score ``queued`` in bound order into ``scores`` until the
        next bound cannot reach ``best`` minus the tolerance; return
        the best length that passed coverage (−1: none)."""
        stats = self._stats
        classes = self._classes
        required = self._required
        queued.sort()
        for negative_bound, number in queued:
            if -negative_bound < best - LENGTH_TOLERANCE:
                break
            preparation = classes[number].preparation
            result = _run(preparation, shifted, width, stats)
            length, coverage = result
            if coverage >= required[number]:
                scores[number] = result
                if length > best:
                    best = length
                # A class is final only once its *longest* cut is
                # fully corroborated (see the reference scorer).
                if (coverage >= 0.999
                        and length >= preparation.final_length
                        and finalized is not None):
                    finalized[number] = result
        return best
