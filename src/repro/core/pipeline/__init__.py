"""The analyzer object behind every GRETEL engine.

The paper's analyzer is a fixed chain — event receiver → sliding
window → anomaly detection → operation detection (Alg. 2) → root
cause (Alg. 3) → report (§5, Fig. 1).  One class *is* that chain:
:class:`~repro.core.pipeline.graph.AnalysisPipeline` owns the four
components, the counters and the report log, and reports its seven
stage steps to pluggable observers
(:mod:`repro.core.pipeline.middleware`).  The serial
:class:`~repro.core.analyzer.GretelAnalyzer` is a subclass that adds
only the per-event receiver, and
:class:`~repro.core.pipeline.builder.PipelineBuilder` is a fluent
keyword collector in front of its constructor.  See
``docs/architecture.md``.
"""

from repro.core.pipeline.graph import (
    STAT_FIELDS,
    AnalysisPipeline,
    PipelineStats,
)
from repro.core.pipeline.middleware import (
    STAGE_NAMES,
    StageCounters,
    StageObserver,
    StageTimer,
)

# Last: the builder imports the analyzer, which subclasses
# ``AnalysisPipeline`` from the submodule above.
from repro.core.pipeline.builder import PipelineBuilder

__all__ = [
    "STAGE_NAMES",
    "STAT_FIELDS",
    "AnalysisPipeline",
    "PipelineBuilder",
    "PipelineStats",
    "StageCounters",
    "StageObserver",
    "StageTimer",
]
