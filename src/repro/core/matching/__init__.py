"""Incremental matching: O(δ) re-scoring for Algorithm 2's loop.

See ``docs/matching.md``.  The engine (``engine``) scores one
bit-parallel row per scoring class — the candidates of a selection
that share a preparation — per context-buffer window, in bound order
and only while a class can still rank, caching across growth
iterations; its scores are keyed by class (``member_scores`` expands
them) and already ranked (``rank``); the index (``index``) replaces
the per-candidate foreign-symbol regex strip with one set of
per-snapshot match masks; the oracle (``oracle``) proves the engine's
results bit-identical to the from-scratch reference scorer.
"""

from repro.core.matching.engine import (
    LENGTH_TOLERANCE,
    MatchingEngine,
    MatchingStats,
    MatchSession,
    Preparation,
    ScoringClass,
    ScoringClasses,
    member_scores,
    rank,
    scoring_classes,
    select_cut,
)
from repro.core.matching.index import SnapshotIndex
from repro.core.matching.oracle import (
    detection_signature,
    verify_detection,
)

__all__ = [
    "LENGTH_TOLERANCE",
    "MatchSession",
    "MatchingEngine",
    "MatchingStats",
    "Preparation",
    "ScoringClass",
    "ScoringClasses",
    "SnapshotIndex",
    "detection_signature",
    "member_scores",
    "rank",
    "scoring_classes",
    "select_cut",
    "verify_detection",
]
