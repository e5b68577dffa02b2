"""Sorted rolling window: the order statistics behind streaming LS.

The from-scratch reference LS detector keeps its baseline in a
``deque`` and re-sorts it three times per sample — once for the
median and twice inside the MAD — giving O(w·log w) per latency
observation.  :class:`SortedWindow` keeps the same FIFO window *in
sorted order as it rolls*: an append is one ``insort`` plus (when
full) one ``bisect`` eviction, and the median is kept current as an
index read.  The MAD is the reference's own arithmetic, one sort of
the deviations; the detector's floor gate asks for it only for a
sample above its median-only floor (docs/streamstats.md).
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import deque
from typing import Deque, Iterator, List

from repro.core.outliers import _median


class SortedWindow:
    """A bounded FIFO window of floats maintained in sorted order.

    Mirrors ``deque(maxlen=maxlen)`` eviction semantics exactly:
    appending to a full window drops the oldest value.  Iteration
    yields arrival order (like the deque it replaces); the sorted view
    is internal to the median.
    """

    __slots__ = ("maxlen", "size", "med", "_arrival", "_sorted")

    def __init__(self, maxlen: int) -> None:
        if maxlen < 1:
            raise ValueError("maxlen must be at least 1")
        self.maxlen = maxlen
        #: Current fill: a plain attribute, not a ``len()`` dispatch —
        #: it is read once per detector update on the receiver hot path.
        self.size = 0
        #: The window median (0.0 when empty), kept current on every
        #: append with the reference ``_median``'s arithmetic; derived,
        #: never in the state document.
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
        mid = size // 2
        self.med = (ordered[mid] if size % 2
                    else 0.5 * (ordered[mid - 1] + ordered[mid]))

    def clear(self) -> None:
        """Forget every value (the detector's post-alarm re-seed)."""
        self._arrival.clear()
        self._sorted.clear()
        self.size = 0
        self.med = 0.0

    def mad(self, med: float) -> float:
        """Median absolute deviation around ``med``: the reference
        detector's expression over the same arrival-order values, so
        the result is bit-identical to its."""
        return _median([abs(v - med) for v in self._arrival])

    def refill(self, values: List[float]) -> None:
        """Replace the contents with ``values``, in arrival order (the
        latency tracker's restore; it checks the length first)."""
        self._arrival.clear()
        self._arrival.extend(values)
        self._sorted = sorted(values)
        self.size = len(values)
        self.med = _median(self._sorted) if values else 0.0
