"""Incremental matching: O(δ) re-scoring for Algorithm 2's loop.

See ``docs/matching.md``.  The engine (``engine``) opens one
:class:`MatchSession` per snapshot over the per-symbol match masks of
its fragments (``symbol_masks``, replacing the per-candidate
foreign-symbol regex strip) and scores one bit-parallel row per
scoring class — the candidates of a selection that share a
preparation — per context-buffer window, in bound order and only
while a class can still rank, caching across growth iterations; its
scores are keyed by class (``member_scores`` expands them) and
already ranked (``rank``); the oracle (``oracle``) proves the
engine's results bit-identical to the from-scratch reference scorer.
"""

from repro.core.matching.engine import (
    LENGTH_TOLERANCE,
    MatchingStats,
    MatchSession,
    Preparation,
    ScoringClass,
    ScoringClasses,
    member_scores,
    rank,
    scoring_classes,
    select_cut,
    symbol_masks,
)
from repro.core.matching.oracle import (
    detection_signature,
    verify_detection,
)

__all__ = [
    "LENGTH_TOLERANCE",
    "MatchSession",
    "MatchingStats",
    "Preparation",
    "ScoringClass",
    "ScoringClasses",
    "detection_signature",
    "member_scores",
    "rank",
    "scoring_classes",
    "select_cut",
    "symbol_masks",
    "verify_detection",
]
