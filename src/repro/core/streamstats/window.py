"""Sorted rolling window: the order statistics behind streaming LS.

The from-scratch reference LS detector keeps its baseline in a
``deque`` and re-sorts it three times per sample —
once for the median and twice inside the MAD — giving O(w·log w) per
latency observation.  :class:`SortedWindow` keeps the same FIFO window
*in sorted order as it rolls*: an append is one ``insort`` plus (when
full) one ``bisect`` eviction, the median is an index read, and the
MAD falls out of the sorted array without ever materializing the
deviation list (see :meth:`SortedWindow.mad`).
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import deque
from typing import Deque, Iterator, List, Tuple


class SortedWindow:
    """A bounded FIFO window of floats maintained in sorted order.

    Mirrors ``deque(maxlen=maxlen)`` eviction semantics exactly:
    appending to a full window drops the oldest value.  Iteration
    yields arrival order (like the deque it replaces); the sorted view
    is internal to the order statistics.
    """

    __slots__ = ("maxlen", "size", "med", "_arrival", "_sorted")

    def __init__(self, maxlen: int) -> None:
        if maxlen < 1:
            raise ValueError("maxlen must be at least 1")
        self.maxlen = maxlen
        #: Current fill: a plain attribute, not a ``len()`` dispatch —
        #: it is read once per detector update on the receiver hot path.
        self.size = 0
        #: :meth:`median`, kept current (0.0 when empty) for the
        #: detector's update; derived, never in the state document.
        self.med = 0.0
        self._arrival: Deque[float] = deque()
        self._sorted: List[float] = []

    def __len__(self) -> int:
        return self.size

    def __iter__(self) -> Iterator[float]:
        """Arrival order, oldest first (parity with the deque)."""
        return iter(self._arrival)

    def append(self, value: float) -> None:
        """Add ``value``; evict the oldest value if the window is full."""
        arrival = self._arrival
        ordered = self._sorted
        size = self.size
        if size == self.maxlen:
            del ordered[bisect_left(ordered, arrival.popleft())]
        else:
            self.size = size = size + 1
        arrival.append(value)
        insort(ordered, value)
        # :meth:`median`'s arithmetic, inline.
        mid = size // 2
        self.med = (ordered[mid] if size % 2
                    else 0.5 * (ordered[mid - 1] + ordered[mid]))

    def clear(self) -> None:
        """Forget every value (the detector's post-alarm re-seed)."""
        self._arrival.clear()
        self._sorted.clear()
        self.size = 0
        self.med = 0.0

    def median(self) -> float:
        """The window median, as an O(1) read of the sorted array.

        Value-identical to ``sorted(window)`` indexing: the midpoint
        for odd sizes, the two-middle average for even sizes.
        """
        ordered = self._sorted
        mid = len(ordered) // 2
        if len(ordered) % 2:
            return ordered[mid]
        return 0.5 * (ordered[mid - 1] + ordered[mid])

    def mad(self, med: float) -> float:
        """Median absolute deviation around ``med``, without sorting.

        Over the ascending window the deviations ``|v − med|`` are
        V-shaped: they descend while ``v < med`` and ascend once
        ``v ≥ med`` — two sorted runs that are *contiguous slices* of
        the sorted array.  Consequently, for any radius ``d`` the
        values within ``d`` of ``med`` form one contiguous index
        range, so the ``k+1`` smallest deviations are realized by a
        contiguous length-``k+1`` slice and the k-th order statistic
        is found by binary-searching the slice's start (the classic
        "k closest elements" search) in O(log w) — no deviation list,
        no sort, no O(w) merge.

        Returns the exact value ``median(|v − med| for v in window)``
        would: deviations are formed with the same one-subtraction
        float arithmetic, so the result is bit-identical to the
        reference detector's.
        """
        ordered = self._sorted
        n = len(ordered)
        if not n:
            raise ValueError("mad() of an empty window")
        mid = n // 2
        length = mid + 1          # slice holding ranks 0..mid
        # Leftmost start of a minimal-max-deviation slice.  The move-
        # right test compares the deviations that would be dropped and
        # gained; side-correct subtractions keep every value exact.
        lo, hi = 0, n - length
        while lo < hi:
            cut = (lo + hi) // 2
            if med - ordered[cut] > ordered[cut + length] - med:
                lo = cut + 1
            else:
                hi = cut
        left_dev = med - ordered[lo]
        right_dev = ordered[lo + length - 1] - med
        # The slice's deviations are V-shaped too, so its largest (the
        # rank-mid deviation) is at one end and its second largest
        # (rank mid−1, needed for even windows) at an end of the
        # remainder.  A deviation computed on the wrong side of the
        # median is negative and loses the max() to the true value.
        if n % 2:
            return max(left_dev, right_dev)
        if left_dev >= right_dev:
            rank_mid = left_dev
            second = max(med - ordered[lo + 1], right_dev)
        else:
            rank_mid = right_dev
            second = max(left_dev, ordered[lo + length - 2] - med)
        return 0.5 * (second + rank_mid)

    def bounds(self) -> Tuple[float, float]:
        """(min, max) of the window — O(1) reads off the sorted array."""
        ordered = self._sorted
        if not ordered:
            raise ValueError("bounds() of an empty window")
        return ordered[0], ordered[-1]

    def refill(self, values: List[float]) -> None:
        """Replace the contents with ``values``, in arrival order (the
        latency tracker's restore; it checks the length first)."""
        self._arrival.clear()
        self._arrival.extend(values)
        self._sorted = sorted(values)
        self.size = len(values)
        self.med = self.median() if values else 0.0
