"""GRETEL core: fingerprinting, anomaly detection, root cause analysis.

This package implements the paper's primary contribution:

* :mod:`repro.core.symbols` — one Unicode symbol per OpenStack API
  (the paper's encoding of 643 APIs for regex matching, §6);
* :mod:`repro.core.fingerprint` — Algorithm 1: noise filtering, LCS
  over repeated traces, regex construction; plus the fingerprint
  library with per-symbol indexing;
* :mod:`repro.core.opfaults` — lightweight regex detection of
  operational faults in REST/RPC messages (§5.3);
* :mod:`repro.core.outliers` / :mod:`repro.core.latency` — online
  level-shift detection over per-API latency series (the tsoutliers
  LS substitute, §6);
* :mod:`repro.core.window` — the dual-buffer sliding window of size
  α and its snapshot mechanism (§5.3.1, §6);
* :mod:`repro.core.detector` — Algorithm 2: operation detection with
  fingerprint truncation, relaxed state-change matching and the
  adaptive context buffer;
* :mod:`repro.core.rootcause` — Algorithm 3: metadata-driven root
  cause analysis;
* :mod:`repro.core.analyzer` — the analyzer that wires the four
  components above into the paper's chain behind one per-event
  receiver (:class:`~repro.core.analyzer.GretelAnalyzer`, built by
  calling its constructor; see ``docs/architecture.md``);
* :mod:`repro.core.pipeline` — its stage middleware;
* :mod:`repro.core.characterize` — the offline fingerprinting
  pipeline over a (Tempest-like) suite (§7.1).
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.core.analyzer import GretelAnalyzer, PipelineStats
    from repro.core.characterize import (
        CharacterizationResult,
        characterize_suite,
    )
    from repro.core.config import GretelConfig
    from repro.core.detector import DetectionResult, OperationDetector
    from repro.core.fingerprint import (
        Fingerprint,
        FingerprintLibrary,
        generate_fingerprint,
    )
    from repro.core.incidents import Incident, IncidentAggregator
    from repro.core.pipeline import StageTimer
    from repro.core.precision import theta
    from repro.core.reports import FaultReport, RootCauseFinding
    from repro.core.symbols import SymbolTable

__all__ = [
    "CharacterizationResult",
    "DetectionResult",
    "FaultReport",
    "Fingerprint",
    "FingerprintLibrary",
    "GretelAnalyzer",
    "GretelConfig",
    "Incident",
    "IncidentAggregator",
    "OperationDetector",
    "PipelineStats",
    "RootCauseFinding",
    "StageTimer",
    "SymbolTable",
    "characterize_suite",
    "generate_fingerprint",
    "theta",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.core.analyzer": ("GretelAnalyzer", "PipelineStats"),
    "repro.core.characterize": (
        "CharacterizationResult", "characterize_suite",
    ),
    "repro.core.config": ("GretelConfig",),
    "repro.core.detector": ("DetectionResult", "OperationDetector"),
    "repro.core.fingerprint": (
        "Fingerprint", "FingerprintLibrary", "generate_fingerprint",
    ),
    "repro.core.incidents": ("Incident", "IncidentAggregator"),
    "repro.core.pipeline": ("StageTimer",),
    "repro.core.precision": ("theta",),
    "repro.core.reports": ("FaultReport", "RootCauseFinding"),
    "repro.core.symbols": ("SymbolTable",),
})
