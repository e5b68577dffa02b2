"""Per-snapshot symbol/position index for incremental matching.

The adaptive context buffer (Algorithm 2) re-scores the same snapshot
at a sequence of outward-growing ``[lo, hi)`` windows.  The from-scratch
scorer pays O(β) per candidate per iteration: it joins the window's
symbol fragments into a string, strips symbols outside the candidate's
alphabet with a per-candidate regex, and re-runs the bit-parallel LCS
over the result.  :class:`SnapshotIndex` makes every one of those
steps a function of the *snapshot* (built once per freeze) plus the
window bounds: it maps each symbol to the sorted event positions where
it occurs — the gate's window counts are two bisects — and to the same
positions as one integer bit set, the match mask the DP reads.  Both
are in snapshot coordinates, so nothing is derived per candidate or
per needle alphabet: a window is a shift and a width.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Sequence


class SnapshotIndex:
    """Symbol → event positions, over one snapshot's fragments.

    ``fragments`` is the snapshot's per-event symbol encoding (one
    symbol, or ``""`` for events excluded from matching), as produced
    by the detector's fragment cache.  Position ``p`` refers to
    ``snapshot.events[p]``, so the window ``[lo, hi)`` from
    :meth:`Snapshot.bounds` selects index entries directly.

    ``positions[symbol]`` is the ascending position list;
    ``masks[symbol]`` has bit ``p`` set exactly for the ``p`` in that
    list — a Hyyrö match mask over the whole snapshot.  ``""``
    fragments are in neither.
    """

    __slots__ = ("positions", "masks")

    def __init__(self, fragments: Sequence[str]) -> None:
        positions: Dict[str, List[int]] = {}
        for position, fragment in enumerate(fragments):
            if fragment:
                positions.setdefault(fragment, []).append(position)
        self.positions = positions
        masks: Dict[str, int] = {}
        for symbol, occurrences in positions.items():
            mask = 0
            for position in occurrences:
                mask |= 1 << position
            masks[symbol] = mask
        self.masks = masks

    def count(self, symbol: str, lo: int, hi: int) -> int:
        """Occurrences of ``symbol`` at positions in ``[lo, hi)``."""
        occurrences = self.positions.get(symbol)
        if not occurrences:
            return 0
        return bisect_left(occurrences, hi) - bisect_left(occurrences, lo)
