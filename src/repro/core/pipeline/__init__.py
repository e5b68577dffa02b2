"""Stage middleware around the analyzer.

The paper's analyzer is a fixed chain — event receiver → sliding
window → anomaly detection → operation detection (Alg. 2) → root
cause (Alg. 3) → report (§5, Fig. 1).  One class *is* that chain, and
its constructor is the one way to build it:
:class:`~repro.core.analyzer.GretelAnalyzer`.  It reports its seven
stage steps to pluggable observers
(:mod:`repro.core.pipeline.middleware`), attached with the
constructor's ``middleware=`` keyword.  The merged counters
(:class:`PipelineStats`, :data:`STAT_FIELDS`) are re-exported from
the analyzer.  See ``docs/architecture.md``.
"""

from typing import Any, Callable, Dict

from repro.core.analyzer import STAT_FIELDS, GretelAnalyzer, PipelineStats
from repro.core.fingerprint import FingerprintLibrary
from repro.core.pipeline.middleware import (
    STAGE_NAMES,
    StageCounters,
    StageObserver,
    StageTimer,
)


def _keyword(name: str, many: bool = False) -> Callable[..., Any]:
    """A setter for one constructor keyword (appended to if ``many``)."""

    def setter(self: "PipelineBuilder", value: Any = True) -> Any:
        if many:
            self.kwargs.setdefault(name, []).append(value)
        else:
            self.kwargs[name] = value
        return self
    return setter


class PipelineBuilder:
    """Residue, like ``compiled_index_for``'s ``catalog``: the seven
    calls the ledger (``benchmarks/e2e/``) still makes, each setting one
    constructor keyword in place.  It leaves with those calls."""

    def __init__(self, library: FingerprintLibrary) -> None:
        self.library = library
        self.kwargs: Dict[str, Any] = {}

    with_store = _keyword("store")
    with_config = _keyword("config")
    track_latency = _keyword("track_latency")
    defer_detection = _keyword("defer_detection")
    on_report = _keyword("report_listeners", many=True)
    with_middleware = _keyword("middleware", many=True)

    def build_serial(self) -> GretelAnalyzer:
        return GretelAnalyzer(self.library, **self.kwargs)


__all__ = [
    "STAGE_NAMES",
    "STAT_FIELDS",
    "PipelineStats",
    "StageCounters",
    "StageObserver",
    "StageTimer",
]
