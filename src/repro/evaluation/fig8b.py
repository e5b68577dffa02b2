"""Fig. 8b — performance faults under injected network latency.

The paper ran 200 concurrent Tempest operations (~20 min), used ``tc``
to add 50 ms to all Glance traffic for 10 minutes starting at the
5-minute mark, and observed 18 level-shift alarms on Glance's
image-metadata API during the injection window.

We reproduce the mechanism at a compressed time scale (the simulated
operations are faster than real Tempest tests by roughly the same
factor): a sustained 200-op workload, a latency injection on the
Glance node for the middle half of the run, and the LS alarm series
for ``GET /v2/images/{id}``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.core.characterize import CharacterizationResult
from repro.core.config import GretelConfig
from repro.evaluation.common import (
    default_characterization,
    default_suite,
    ls_alarms,
    make_monitored_analyzer,
    p_rate_for,
    record_ls_series,
)
from repro.workloads.runner import WorkloadRunner

#: The most frequently invoked Glance API (image metadata by id).
TARGET_API = "rest:glance:GET:/v2/images/{id}"


@dataclass
class Fig8bResult:
    """Series, alarms and reports for the injected-latency experiment."""

    series: List[Tuple[float, float]]
    alarms: List[Tuple[float, float, float]]   # (ts, observed, baseline)
    injection_window: Tuple[float, float]
    injected_delay: float
    reports: List = field(default_factory=list)
    operations_completed: int = 0

    @property
    def alarms_in_window(self) -> int:
        """Alarms raised during the latency-injection window."""
        lo, hi = self.injection_window
        return sum(1 for ts, _, _ in self.alarms if lo <= ts <= hi + 5.0)

    @property
    def alarms_outside_window(self) -> int:
        """False alarms: raised outside the injection window."""
        return len(self.alarms) - self.alarms_in_window


def run(
    character: Optional[CharacterizationResult] = None,
    *,
    concurrency: int = 200,
    duration: float = 80.0,
    injected_delay: float = 0.050,
    seed: int = 23,
) -> Fig8bResult:
    """Sustained workload with a tc-style latency injection on Glance."""
    character = character or default_characterization()
    config = GretelConfig(p_rate=p_rate_for(concurrency))
    ls_series: List[Tuple[float, float]] = []
    cloud, plane, analyzer = make_monitored_analyzer(
        character, seed=seed, concurrency=concurrency,
        config=config, track_latency=True,
        intercept=record_ls_series(TARGET_API, ls_series),
    )

    series: List[Tuple[float, float]] = []
    cloud.taps.attach_global(
        lambda event: series.append((event.ts_response, event.latency))
        if event.api_key == TARGET_API else None
    )

    start = duration * 0.25
    end = duration * 0.75
    cloud.faults.inject_latency("glance-node", injected_delay, start=start, end=end)

    runner = WorkloadRunner(cloud)
    outcomes = runner.run_sustained(
        default_suite().tests, concurrency=concurrency,
        duration=duration, seed=seed,
    )
    analyzer.flush()

    return Fig8bResult(
        series=series,
        alarms=ls_alarms(ls_series),
        injection_window=(start, end),
        injected_delay=injected_delay,
        reports=analyzer.performance_reports,
        operations_completed=len(outcomes),
    )


def format_report(result: Fig8bResult) -> str:
    """Render the Fig. 8b series, chart and alarm summary."""
    lo, hi = result.injection_window
    before = [l for ts, l in result.series if ts < lo]
    during = [l for ts, l in result.series if lo <= ts <= hi]
    mean = lambda xs: sum(xs) / len(xs) if xs else 0.0  # noqa: E731
    from repro.reporting import render_series

    chart = render_series(
        [(ts, latency * 1000) for ts, latency in result.series],
        label="  latency (ms); ^ = LS alarms",
        markers=[ts for ts, _, _ in result.alarms],
        unit="ms",
    )
    lines = [
        "Fig. 8b: performance faults under injected Glance latency",
        f"  injected delay: {result.injected_delay * 1000:.0f} ms over "
        f"[{lo:.0f}s, {hi:.0f}s); samples: {len(result.series)}",
        chart,
        f"  mean latency before: {mean(before) * 1000:.2f} ms; during: "
        f"{mean(during) * 1000:.2f} ms",
        f"  LS alarms: {len(result.alarms)} total, "
        f"{result.alarms_in_window} inside the window, "
        f"{result.alarms_outside_window} outside "
        f"(paper: 18 alarms, all during the injection)",
        f"  performance fault reports: {len(result.reports)}",
    ]
    return "\n".join(lines)


def check(result: Fig8bResult) -> None:
    """The figure's shape: the LS detector alarms during the injection
    window and adapts rather than re-alarming continuously, and
    performance-fault reports flow from the alarms."""
    assert 1 <= result.alarms_in_window <= 25, result.alarms_in_window
    assert result.reports
