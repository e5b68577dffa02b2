"""Differential oracle: incremental vs reference level-shift detection.

Same pattern as ``repro.core.matching.oracle.verify_detection``: the
fast path is only trusted once it is *proven* to produce the same
outputs as the reference implementation on the same input.  Here the
two paths are the from-scratch reference ``LevelShiftDetector``
(imported from the reference package inside
:func:`verify_levelshift`, so production imports never load it) and
the :class:`~repro.core.streamstats.detector.IncrementalLevelShiftDetector`
replayed over the same (ts, value) stream; after every sample the
update result (``None`` or the full :class:`~repro.core.outliers.
LevelShift`), the baseline and the threshold must be identical — not
merely close — or the replay records a divergence.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.streamstats.detector import IncrementalLevelShiftDetector
from repro.openstack.wire import WireEvent
from repro.oracle import OracleResult, settle


def _result(series: int, samples: int) -> OracleResult:
    return OracleResult(
        layer="levelshift",
        reference="reference",
        candidate="incremental",
        facts={"series": series, "samples": samples, "alarms": 0},
    )


def _replay(
    samples: Sequence[Tuple[float, float]],
    reference: Any,
    incremental: Any,
    label: str,
) -> OracleResult:
    result = _result(series=1, samples=len(samples))
    for index, (ts, value) in enumerate(samples):
        expected = reference.update(ts, value)
        actual = incremental.update(ts, value)
        if expected is not None:
            result.facts["alarms"] += 1
        for what, want, have in (
            ("alarm", expected, actual),
            ("threshold", reference.threshold(), incremental.threshold()),
            ("baseline", reference.baseline, incremental.baseline),
        ):
            if want != have:
                result.mismatches.append(
                    f"{label}[{index}]: {what} {want!r} != {have!r}"
                )
    return result


def verify_levelshift(
    samples: Sequence[Tuple[float, float]],
    *,
    detectors: Optional[Tuple[Any, Any]] = None,
    label: str = "series",
    strict: bool = True,
) -> OracleResult:
    """Replay one (ts, value) stream through both detectors and compare.

    Two fresh detectors, both built from the ``LS_*`` tuning of
    ``repro.core.outliers``, differ only in implementation;
    ``detectors`` overrides the ``(reference, incremental)`` pair —
    the negative oracle test injects a mismatched one.  ``strict`` is
    :func:`repro.oracle.settle`'s.
    """
    if detectors is None:
        from repro.reference.levelshift import LevelShiftDetector

        detectors = (LevelShiftDetector(), IncrementalLevelShiftDetector())
    reference, incremental = detectors
    return settle(
        _replay(samples, reference, incremental, label), strict
    )


def verify_levelshift_stream(
    events: Sequence[WireEvent],
    *,
    strict: bool = True,
) -> OracleResult:
    """Replay a wire-event stream's per-API latency series differentially.

    Applies the serial latency gate (``not event.noise and not
    event.error``), buckets the stream by ``api_key`` exactly as
    :class:`~repro.core.latency.LatencyTracker` does, and runs
    :func:`verify_levelshift` on every series, so the oracle covers
    precisely the samples the production LS path would see.
    """
    series: Dict[str, List[Tuple[float, float]]] = {}
    for event in events:
        if event.noise or event.error:
            continue
        series.setdefault(event.api_key, []).append(
            (event.ts_response, event.latency)
        )
    total = _result(series=0, samples=0)
    for api_key, samples in series.items():
        total.merge(
            verify_levelshift(samples, label=api_key, strict=False)
        )
    return settle(total, strict)
