"""Streaming robust statistics: incremental level-shift detection.

See ``docs/streamstats.md``.  The window (``window``) keeps the LS
rolling baseline sorted as it rolls, making the median an O(1) read;
the detector (``detector``) preserves the reference LS alarm semantics
bit for bit and computes the MAD (the reference's one sort) only for a
sample above its median-only floor;
the oracle (``oracle``) proves it by differential replay.
"""

from repro.core.streamstats.detector import IncrementalLevelShiftDetector
from repro.core.streamstats.oracle import (
    verify_levelshift,
    verify_levelshift_stream,
)
from repro.core.streamstats.window import SortedWindow

__all__ = [
    "IncrementalLevelShiftDetector",
    "SortedWindow",
    "verify_levelshift",
    "verify_levelshift_stream",
]
