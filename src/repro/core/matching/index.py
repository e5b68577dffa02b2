"""Per-snapshot symbol index for incremental matching.

The adaptive context buffer (Algorithm 2) re-scores the same snapshot
at a sequence of outward-growing ``[lo, hi)`` windows.  The from-scratch
scorer pays O(β) per candidate per iteration: it joins the window's
symbol fragments into a string, strips symbols outside the candidate's
alphabet with a per-candidate regex, and re-runs the bit-parallel LCS
over the result.  :class:`SnapshotIndex` makes every one of those
steps a function of the *snapshot* (built once per freeze) plus the
window bounds: it maps each symbol to the event positions where it
occurs as one integer bit set, the match mask the DP reads.  The
gate's window counts are the same masks under the window's bits —
``(mask & window_bits).bit_count()``, or just whether that is
non-zero.  Masks are in snapshot coordinates, so nothing is derived
per candidate or per needle alphabet: a window is a shift and a width.
"""

from __future__ import annotations

from typing import Dict, Sequence


class SnapshotIndex:
    """Symbol → event positions as a bit set, over one snapshot's
    fragments.

    ``fragments`` is the snapshot's per-event symbol encoding (one
    symbol, or ``""`` for events excluded from matching), as produced
    by the detector's fragment cache.  Position ``p`` refers to
    ``snapshot.events[p]``, so the window ``[lo, hi)`` from
    :meth:`Snapshot.bounds` selects bits ``lo`` to ``hi − 1``.

    ``masks[symbol]`` has bit ``p`` set exactly for the positions
    ``p`` whose fragment is ``symbol`` — a Hyyrö match mask over the
    whole snapshot.  ``""`` fragments are in no mask.
    """

    __slots__ = ("masks",)

    def __init__(self, fragments: Sequence[str]) -> None:
        masks: Dict[str, int] = {}
        get = masks.get
        for position, fragment in enumerate(fragments):
            if fragment:
                masks[fragment] = get(fragment, 0) | 1 << position
        self.masks = masks
