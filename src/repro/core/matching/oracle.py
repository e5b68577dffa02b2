"""Differential-correctness oracle: incremental vs reference scoring.

Same pattern as every ``verify_*`` oracle (``repro.oracle``): a
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

from typing import TYPE_CHECKING, Optional, Sequence, Tuple

from repro.core.config import GretelConfig
from repro.core.fingerprint import FingerprintLibrary
from repro.core.symbols import SymbolTable
from repro.core.window import Snapshot
from repro.openstack.catalog import ApiCatalog, default_catalog
from repro.oracle import OracleResult, settle

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    # ``detector`` imports the engine, so the runtime import of the
    # detector must wait until :func:`verify_detection` is called.
    from repro.core.detector import DetectionResult, OperationDetector

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


def compare_detections(
    result: OracleResult,
    snapshots: Sequence[Snapshot],
    reference: "OperationDetector",
    candidate: "OperationDetector",
    *,
    performance_fault: bool = False,
) -> None:
    """Run every snapshot through both detectors; record one mismatch
    line on ``result`` per snapshot they diagnose differently."""
    for snapshot in snapshots:
        expected, actual = (
            detection_signature(
                detector.detect(snapshot, performance_fault=performance_fault)
            )
            for detector in (reference, candidate)
        )
        if expected != actual:
            result.mismatches.append(
                f"fault seq={expected[0]}: "
                f"{result.reference} ops={list(expected[1])} "
                f"theta={expected[2]:.4f} beta={expected[3]} vs "
                f"{result.candidate} ops={list(actual[1])} "
                f"theta={actual[2]:.4f} beta={actual[3]}"
            )


def verify_detection(
    snapshots: Sequence[Snapshot],
    library: FingerprintLibrary,
    *,
    symbols: Optional[SymbolTable] = None,
    catalog: Optional[ApiCatalog] = None,
    config: Optional[GretelConfig] = None,
    performance_fault: bool = False,
    strict: bool = True,
) -> OracleResult:
    """Replay ``snapshots`` through both scoring paths and compare.

    Two fresh detectors share the library/symbols/catalog/config and
    differ only in the scorer; one mismatch line is recorded per
    snapshot whose signatures differ.  ``strict`` is
    :func:`repro.oracle.settle`'s.
    """
    from repro.core.detector import OperationDetector
    from repro.reference.detector import ScratchScoringDetector

    config = config or GretelConfig()
    symbols = symbols or library.symbols
    catalog = catalog or default_catalog()
    reference = ScratchScoringDetector(library, symbols, catalog, config)
    incremental = OperationDetector(library, symbols, catalog, config)
    result = OracleResult(
        layer="detection",
        reference="scratch",
        candidate="incremental",
        facts={"snapshots": len(snapshots)},
    )
    compare_detections(
        result, snapshots, reference, incremental,
        performance_fault=performance_fault,
    )
    return settle(result, strict)
