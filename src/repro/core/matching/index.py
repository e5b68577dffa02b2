"""Per-snapshot symbol/position indexes for incremental matching.

The adaptive context buffer (Algorithm 2) re-scores the same snapshot
at a sequence of outward-growing ``[lo, hi)`` windows.  The from-scratch
scorer pays O(β) per candidate per iteration: it joins the window's
symbol fragments into a string, strips symbols outside the candidate's
alphabet with a per-candidate regex, and re-runs the bit-parallel LCS
over the result.  The structures here make every one of those steps a
function of the *snapshot* (built once) plus the window bounds (two
bisects), so the per-iteration cost no longer scales with the buffer:

* :class:`SnapshotIndex` maps each symbol to the sorted event positions
  where it occurs, replacing both the join and the regex strip —
  "which of my symbols are in the window, and where" becomes a bisect
  per symbol.
* :class:`WindowCounts` is a lazy multiplicity view of one window,
  shared by every candidate scored against it; it duck-types the
  mapping the reference multiplicity gate (``upper_bound``) reads, so
  the gate sees *identical* counts to a ``Counter`` over the joined
  window string.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterator, List, Mapping, Sequence


class SnapshotIndex:
    """Symbol → sorted event positions, over one snapshot's fragments.

    ``fragments`` is the snapshot's per-event symbol encoding (one
    symbol, or ``""`` for events excluded from matching), exactly as
    attached by the encoding window or produced by the detector's
    fragment cache.  Position ``p`` refers to ``snapshot.events[p]``,
    so the window ``[lo, hi)`` from :meth:`Snapshot.bounds` selects
    index entries directly.
    """

    __slots__ = ("fragments", "positions")

    def __init__(self, fragments: Sequence[str]) -> None:
        self.fragments = fragments
        positions: Dict[str, List[int]] = {}
        for position, fragment in enumerate(fragments):
            if fragment:
                positions.setdefault(fragment, []).append(position)
        self.positions = positions

    def count(self, symbol: str, lo: int, hi: int) -> int:
        """Occurrences of ``symbol`` at positions in ``[lo, hi)``."""
        occurrences = self.positions.get(symbol)
        if not occurrences:
            return 0
        return bisect_left(occurrences, hi) - bisect_left(occurrences, lo)


class WindowCounts(Mapping[str, int]):
    """Symbol multiplicities of one ``[lo, hi)`` window, computed
    lazily against a :class:`SnapshotIndex` and cached per symbol.

    A total mapping: symbols absent from the window (or the snapshot)
    count 0.  One instance is shared by every candidate gated against
    the same window, so each symbol's two bisects run at most once per
    buffer-growth iteration regardless of how many candidates share
    the symbol.
    """

    __slots__ = ("_index", "_lo", "_hi", "_cache")

    def __init__(self, index: SnapshotIndex, lo: int, hi: int) -> None:
        self._index = index
        self._lo = lo
        self._hi = hi
        self._cache: Dict[str, int] = {}

    def get(  # type: ignore[override]
        self, symbol: str, default: int = 0
    ) -> int:
        count = self._cache.get(symbol)
        if count is None:
            count = self._index.count(symbol, self._lo, self._hi)
            self._cache[symbol] = count
        return count if count else default

    def __getitem__(self, symbol: str) -> int:
        return self.get(symbol)

    def __iter__(self) -> Iterator[str]:
        return iter(self._index.positions)

    def __len__(self) -> int:
        return len(self._index.positions)
