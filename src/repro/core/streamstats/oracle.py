"""Differential oracle: incremental vs reference level-shift detection.

Same pattern as ``repro.core.matching.oracle.verify_detection`` and
``repro.core.parallel.verify_equivalence``: the fast path is only
trusted once it is *proven* to produce the same outputs as the
reference implementation on the same input.  Here the two paths are
the from-scratch reference ``LevelShiftDetector`` (imported from the
reference package inside :func:`verify_levelshift`, so production
imports never load it) and the
:class:`~repro.core.streamstats.detector.IncrementalLevelShiftDetector`
replayed over the same (ts, value) stream; after every sample the
update result (``None`` or the full :class:`~repro.core.outliers.
LevelShift`), the baseline and the threshold must be identical — not
merely close — or the replay records a divergence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.config import GretelConfig
from repro.core.outliers import ls_params
from repro.core.streamstats.detector import detector_from_config
from repro.openstack.wire import WireEvent


class LevelShiftDivergence(AssertionError):
    """The incremental LS detector diverged from the reference."""


@dataclass
class LevelShiftEquivalence:
    """Outcome of one incremental-vs-reference differential replay."""

    series: int
    samples: int
    alarms: int = 0
    #: One human-readable line per divergence (series, sample, fields).
    mismatches: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether every sample produced identical detector outputs."""
        return not self.mismatches

    def summary(self) -> str:
        """One operator-facing line (plus divergence details if any)."""
        verdict = "EQUIVALENT" if self.ok else "DIVERGED"
        lines = [
            f"{verdict}: incremental vs reference level-shift on "
            f"{self.series} series / {self.samples} samples — "
            f"{self.alarms} alarms, {len(self.mismatches)} mismatches"
        ]
        lines.extend(f"  {line}" for line in self.mismatches[:5])
        if len(self.mismatches) > 5:
            lines.append(f"  ... {len(self.mismatches) - 5} more")
        return "\n".join(lines)

    def merge(self, other: "LevelShiftEquivalence") -> None:
        """Fold another series' replay into this aggregate."""
        self.series += other.series
        self.samples += other.samples
        self.alarms += other.alarms
        self.mismatches.extend(other.mismatches)


def _replay(
    samples: Sequence[Tuple[float, float]],
    reference: Any,
    incremental: Any,
    label: str,
) -> LevelShiftEquivalence:
    result = LevelShiftEquivalence(series=1, samples=len(samples))
    for index, (ts, value) in enumerate(samples):
        expected = reference.update(ts, value)
        actual = incremental.update(ts, value)
        if expected is not None:
            result.alarms += 1
        if expected != actual:
            result.mismatches.append(
                f"{label}[{index}]: alarm {expected!r} != {actual!r}"
            )
        expected_threshold = reference.threshold()
        actual_threshold = incremental.threshold()
        if expected_threshold != actual_threshold:
            result.mismatches.append(
                f"{label}[{index}]: threshold {expected_threshold!r} "
                f"!= {actual_threshold!r}"
            )
        expected_baseline = reference.baseline
        actual_baseline = incremental.baseline
        if expected_baseline != actual_baseline:
            result.mismatches.append(
                f"{label}[{index}]: baseline {expected_baseline!r} "
                f"!= {actual_baseline!r}"
            )
    return result


def verify_levelshift(
    samples: Sequence[Tuple[float, float]],
    *,
    config: Optional[GretelConfig] = None,
    detectors: Optional[Tuple[Any, Any]] = None,
    label: str = "series",
    strict: bool = True,
) -> LevelShiftEquivalence:
    """Replay one (ts, value) stream through both detectors and compare.

    Two fresh detectors with ``config``'s ls_* tuning differ only in
    implementation; ``detectors`` overrides the pair
    (testing hook — the negative oracle test injects a mismatched
    one).  With ``strict`` (the default) any divergence raises
    :class:`LevelShiftDivergence`; otherwise the caller inspects
    :attr:`LevelShiftEquivalence.ok`.
    """
    base = config or GretelConfig()
    if detectors is None:
        from repro.reference.levelshift import LevelShiftDetector

        incremental = detector_from_config(base)
        reference = LevelShiftDetector(**ls_params(incremental))
    else:
        reference, incremental = detectors
    result = _replay(samples, reference, incremental, label)
    if strict and not result.ok:
        raise LevelShiftDivergence(result.summary())
    return result


def verify_levelshift_stream(
    events: Sequence[WireEvent],
    *,
    config: Optional[GretelConfig] = None,
    strict: bool = True,
) -> LevelShiftEquivalence:
    """Replay a wire-event stream's per-API latency series differentially.

    Applies the serial latency gate (``not event.noise and not
    event.error``), buckets the stream by ``api_key`` exactly as
    :class:`~repro.core.latency.LatencyTracker` does, and runs
    :func:`verify_levelshift` on every series, so the oracle covers
    precisely the samples the production LS path would see.
    """
    base = config or GretelConfig()
    series: Dict[str, List[Tuple[float, float]]] = {}
    for event in events:
        if event.noise or event.error:
            continue
        series.setdefault(event.api_key, []).append(
            (event.ts_response, event.latency)
        )
    total = LevelShiftEquivalence(series=0, samples=0)
    for api_key, samples in series.items():
        total.merge(
            verify_levelshift(
                samples, config=base, label=api_key, strict=False
            )
        )
    if strict and not total.ok:
        raise LevelShiftDivergence(total.summary())
    return total
