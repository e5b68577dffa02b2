"""Stage middleware and the builder in front of the analyzer.

The paper's analyzer is a fixed chain — event receiver → sliding
window → anomaly detection → operation detection (Alg. 2) → root
cause (Alg. 3) → report (§5, Fig. 1).  One class *is* that chain:
:class:`~repro.core.analyzer.GretelAnalyzer`.  It reports its seven
stage steps to pluggable observers
(:mod:`repro.core.pipeline.middleware`), and
:class:`~repro.core.pipeline.builder.PipelineBuilder` is a fluent
keyword collector in front of its constructor.  The merged counters
(:class:`PipelineStats`, :data:`STAT_FIELDS`) are re-exported from
the analyzer.  See ``docs/architecture.md``.
"""

from repro.core.analyzer import STAT_FIELDS, PipelineStats
from repro.core.pipeline.builder import PipelineBuilder
from repro.core.pipeline.middleware import (
    STAGE_NAMES,
    StageCounters,
    StageObserver,
    StageTimer,
)

__all__ = [
    "STAGE_NAMES",
    "STAT_FIELDS",
    "PipelineBuilder",
    "PipelineStats",
    "StageCounters",
    "StageObserver",
    "StageTimer",
]
