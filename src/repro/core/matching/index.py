"""Per-snapshot symbol/position index for incremental matching.

The adaptive context buffer (Algorithm 2) re-scores the same snapshot
at a sequence of outward-growing ``[lo, hi)`` windows.  The from-scratch
scorer pays O(β) per candidate per iteration: it joins the window's
symbol fragments into a string, strips symbols outside the candidate's
alphabet with a per-candidate regex, and re-runs the bit-parallel LCS
over the result.  :class:`SnapshotIndex` makes every one of those
steps a function of the *snapshot* (built once) plus the window bounds
(two bisects), so the per-iteration cost no longer scales with the
buffer: it maps each symbol to the sorted event positions where it
occurs, replacing both the join and the regex strip — "which of my
symbols are in the window, and where" becomes a bisect per symbol.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Sequence


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
