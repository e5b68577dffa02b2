"""Incremental matching: O(δ) re-scoring for Algorithm 2's loop.

See ``docs/matching.md``.  The engine (``engine``) keeps one
bit-parallel row per scoring class — the candidates of a selection
that share a preparation — alive across context-buffer growth
iterations and fans each score out to the class's members; the
index (``index``) replaces the per-candidate foreign-symbol regex
strip with per-snapshot symbol/position lookups; the oracle
(``oracle``) proves the engine's results bit-identical to the
from-scratch reference scorer.
"""

from repro.core.matching.engine import (
    MatchingEngine,
    MatchingStats,
    MatchSession,
    Preparation,
    ScoringClass,
    scoring_classes,
    select_cut,
)
from repro.core.matching.index import SnapshotIndex
from repro.core.matching.oracle import (
    detection_signature,
    verify_detection,
)

__all__ = [
    "MatchSession",
    "MatchingEngine",
    "MatchingStats",
    "Preparation",
    "ScoringClass",
    "SnapshotIndex",
    "detection_signature",
    "scoring_classes",
    "select_cut",
    "verify_detection",
]
