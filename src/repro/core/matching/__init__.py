"""Incremental matching: O(δ) re-scoring for Algorithm 2's loop.

See ``docs/matching.md``.  The engine (``engine``) keeps per-candidate
bit-parallel rows alive across context-buffer growth iterations; the
indexes (``index``) replace the per-candidate foreign-symbol regex
strip with per-snapshot symbol/position lookups; the oracle
(``oracle``) proves the engine's results bit-identical to the
from-scratch reference scorer.
"""

from repro.core.matching.engine import (
    MatchingEngine,
    MatchingStats,
    MatchSession,
    ScoringCandidate,
    select_cut,
)
from repro.core.matching.index import SnapshotIndex, WindowCounts
from repro.core.matching.oracle import (
    detection_signature,
    verify_detection,
)

__all__ = [
    "MatchSession",
    "MatchingEngine",
    "MatchingStats",
    "ScoringCandidate",
    "SnapshotIndex",
    "WindowCounts",
    "detection_signature",
    "select_cut",
    "verify_detection",
]
