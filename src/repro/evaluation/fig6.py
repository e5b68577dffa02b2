"""Fig. 6 — anomalous latency for Neutron's ``GET /v2.0/ports.json``.

The paper observed a latency level shift on Neutron port queries
during a 400-operation run, which GRETEL's LS detector flagged and
root-caused to a CPU surge on the Neutron server (§7.2.2, §3.1.2).
We reproduce the mechanism end to end: a sustained parallel workload,
a CPU surge injected on the Neutron node mid-run, the per-API latency
series, the level-shift alarms, and the resulting performance fault
reports with their root cause.
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

#: The API whose latency the figure plots.
TARGET_API = "rest:neutron:GET:/v2.0/ports.json"
#: The paper's run: 400 parallel operations for 60 simulated seconds.
CONCURRENCY = 400
DURATION = 60.0
SEED = 11
#: CPU load (0..1) the surge adds on the Neutron node, from 40 % to
#: 80 % of the run.
SURGE = 0.55


@dataclass
class Fig6Result:
    """Latency series, alarms and fault reports for the experiment."""

    series: List[Tuple[float, float]]          # (ts, latency seconds)
    alarms: List[Tuple[float, float, float]]   # (ts, observed, baseline)
    surge_window: Tuple[float, float]
    reports: List = field(default_factory=list)
    cpu_root_cause_found: bool = False
    operations_completed: int = 0

    @property
    def alarms_in_window(self) -> int:
        """Alarms raised during the CPU-surge window."""
        lo, hi = self.surge_window
        return sum(1 for ts, _, _ in self.alarms if lo <= ts <= hi + 5.0)


def run(character: Optional[CharacterizationResult] = None) -> Fig6Result:
    """The figure: :func:`run_surge` at the paper's scale."""
    return run_surge(character, CONCURRENCY, DURATION, SEED)


def run_surge(
    character: Optional[CharacterizationResult],
    concurrency: int,
    duration: float,
    seed: int,
) -> Fig6Result:
    """Sustained workload with a mid-run CPU surge on the Neutron node
    (the figure, and at a smaller size the §7.2.2 case study)."""
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

    surge_start = duration * 0.4
    surge_end = duration * 0.8
    cloud.faults.cpu_surge("neutron-ctl", SURGE, start=surge_start, end=surge_end)

    runner = WorkloadRunner(cloud)
    outcomes = runner.run_sustained(
        default_suite().tests, concurrency=concurrency,
        duration=duration, seed=seed,
    )
    analyzer.flush()

    alarms = ls_alarms(ls_series)
    performance = analyzer.performance_reports
    cpu_found = any(
        cause.kind == "resource" and cause.subject == "cpu"
        and cause.node == "neutron-ctl"
        for report in performance
        for cause in report.root_causes
    )
    return Fig6Result(
        series=series,
        alarms=alarms,
        surge_window=(surge_start, surge_end),
        reports=performance,
        cpu_root_cause_found=cpu_found,
        operations_completed=len(outcomes),
    )


def format_report(result: Fig6Result) -> str:
    """Series + alarm summary rendering."""
    latencies = [latency for _, latency in result.series]
    if not latencies:
        return "Fig. 6: no samples collected"
    lo, hi = result.surge_window
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
        "Fig. 6: Neutron GET /v2.0/ports.json latency under CPU surge",
        f"  samples: {len(result.series)}; ops completed: {result.operations_completed}",
        f"  CPU surge window: [{lo:.0f}s, {hi:.0f}s)",
        chart,
        f"  mean latency before surge: {mean(before) * 1000:.2f} ms",
        f"  mean latency during surge: {mean(during) * 1000:.2f} ms"
        f"  (x{mean(during) / max(mean(before), 1e-9):.1f})",
        f"  level-shift alarms: {len(result.alarms)} "
        f"({result.alarms_in_window} inside the surge window)",
        f"  CPU root cause on neutron-ctl found: {result.cpu_root_cause_found} "
        f"(paper: GRETEL attributed the latency to Neutron-server CPU)",
    ]
    return "\n".join(lines)


def check(result: Fig6Result) -> None:
    """The level shift is detected during (not before) the surge, and
    root cause analysis pins the CPU on the Neutron node."""
    assert result.alarms
    assert result.alarms_in_window >= 1
    assert result.cpu_root_cause_found
