"""Pluggable per-stage observers for the analysis pipeline.

Middleware sees ``(stage, seconds, items)`` after every instrumented
stage step.  The serial per-event fast path stays uninstrumented
unless at least one observer is attached (the receiver budget in §7.4
is under a microsecond per event), so attaching middleware trades a
little throughput for visibility.
"""

from __future__ import annotations

from typing import Dict, Protocol, Tuple

#: Stage names reported to observers, in graph order.
STAGE_NAMES: Tuple[str, ...] = (
    "ingest",
    "fault-scan",
    "window",
    "latency",
    "detect",
    "rootcause",
    "publish",
)


class StageObserver(Protocol):
    """Anything with an ``observe(stage, seconds, items)`` method."""

    def observe(self, stage: str, seconds: float, items: int) -> None:
        """Called after one stage step over ``items`` events/reports,
        which took ``seconds`` of wall clock."""


class StageTimer:
    """Accumulates wall-clock seconds, calls and items per stage."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.items: Dict[str, int] = {}

    def observe(self, stage: str, seconds: float, items: int) -> None:
        self.seconds[stage] = self.seconds.get(stage, 0.0) + seconds
        self.calls[stage] = self.calls.get(stage, 0) + 1
        self.items[stage] = self.items.get(stage, 0) + items

    def summary(self) -> str:
        """Stages sorted by accumulated cost, one line each."""
        ordered = sorted(
            self.seconds, key=lambda stage: self.seconds[stage],
            reverse=True,
        )
        lines = [
            "%10s %10.2f ms  (%d step%s)"
            % (
                stage,
                self.seconds[stage] * 1e3,
                self.calls[stage],
                "" if self.calls[stage] == 1 else "s",
            )
            for stage in ordered
        ]
        return "\n".join(lines) if lines else "no stages observed"
