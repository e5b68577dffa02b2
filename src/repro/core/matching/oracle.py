"""Differential-correctness oracle: incremental vs reference scoring.

Same pattern as ``repro.core.parallel.verify_equivalence`` (PR 2): a
performance path is only trusted once it is *proven* to produce the
same diagnoses as the reference implementation on the same input.
Here the two paths are ``OperationDetector`` (the
``repro.core.matching`` engine) and the reference package's
``ScratchScoringDetector`` (the same detector with a from-scratch
scorer over the joined window string), replayed over the same frozen
snapshots; every field an operator acts on — matched operations, θ,
β_used, iteration count, per-operation coverages, matched events and
the context-buffer span — must be identical, not merely close.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from repro.core.config import GretelConfig
from repro.core.fingerprint import FingerprintLibrary
from repro.core.symbols import SymbolTable
from repro.core.window import Snapshot
from repro.openstack.catalog import ApiCatalog, default_catalog

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    # ``detector`` imports the engine, so the runtime import of the
    # detector must wait until :func:`verify_detection` is called.
    from repro.core.detector import DetectionResult

#: (fault seq, operations, θ, β_used, iterations, candidates,
#:  window span, per-operation coverages, matched event seqs).
DetectionSignature = Tuple[
    int, Tuple[str, ...], float, int, int, int,
    Tuple[float, float],
    Tuple[Tuple[str, float], ...],
    Tuple[int, ...],
]


def detection_signature(result: "DetectionResult") -> DetectionSignature:
    """Complete comparable identity of one detection outcome.

    Coverages are compared exactly (no rounding): the engine's claim
    is bit-identical floats, and the oracle holds it to that.
    """
    return (
        result.fault.seq,
        tuple(result.operations),
        result.theta,
        result.beta_used,
        result.iterations,
        result.candidates,
        result.window_span,
        tuple(sorted(result.coverages.items())),
        tuple(event.seq for event in result.matched_events),
    )


class ScoringDivergence(AssertionError):
    """The incremental engine's detections diverged from reference."""


@dataclass
class DetectionEquivalence:
    """Outcome of one incremental-vs-reference differential replay."""

    snapshots: int
    #: (reference signature, incremental signature) per divergence.
    mismatches: List[Tuple[DetectionSignature, DetectionSignature]] = (
        field(default_factory=list)
    )

    @property
    def ok(self) -> bool:
        """Whether every snapshot produced identical results."""
        return not self.mismatches

    def summary(self) -> str:
        """One operator-facing line (plus divergence details if any)."""
        verdict = "EQUIVALENT" if self.ok else "DIVERGED"
        lines = [
            f"{verdict}: incremental vs reference scoring on "
            f"{self.snapshots} snapshots — "
            f"{len(self.mismatches)} mismatches"
        ]
        for reference, incremental in self.mismatches[:5]:
            lines.append(
                f"  fault seq={reference[0]}: "
                f"reference ops={list(reference[1])} "
                f"theta={reference[2]:.4f} beta={reference[3]} vs "
                f"incremental ops={list(incremental[1])} "
                f"theta={incremental[2]:.4f} beta={incremental[3]}"
            )
        if len(self.mismatches) > 5:
            lines.append(f"  ... {len(self.mismatches) - 5} more")
        return "\n".join(lines)


def verify_detection(
    snapshots: Sequence[Snapshot],
    library: FingerprintLibrary,
    *,
    symbols: Optional[SymbolTable] = None,
    catalog: Optional[ApiCatalog] = None,
    config: Optional[GretelConfig] = None,
    performance_fault: bool = False,
    strict: bool = True,
) -> DetectionEquivalence:
    """Replay ``snapshots`` through both scoring paths and compare.

    Two fresh detectors share the library/symbols/catalog/config and
    differ only in the scorer.  With ``strict`` (the default) any
    divergence raises :class:`ScoringDivergence`; otherwise the caller
    inspects :attr:`DetectionEquivalence.ok`.
    """
    from repro.core.detector import OperationDetector
    from repro.reference.detector import ScratchScoringDetector

    config = config or GretelConfig()
    symbols = symbols or library.symbols
    catalog = catalog or default_catalog()
    reference = ScratchScoringDetector(library, symbols, catalog, config)
    incremental = OperationDetector(library, symbols, catalog, config)
    result = DetectionEquivalence(snapshots=len(snapshots))
    for snapshot in snapshots:
        expected = detection_signature(
            reference.detect(snapshot, performance_fault=performance_fault)
        )
        actual = detection_signature(
            incremental.detect(snapshot, performance_fault=performance_fault)
        )
        if expected != actual:
            result.mismatches.append((expected, actual))
    if strict and not result.ok:
        raise ScoringDivergence(result.summary())
    return result
