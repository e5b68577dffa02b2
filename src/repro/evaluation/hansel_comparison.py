"""§9.2 — the qualitative + quantitative GRETEL/HANSEL comparison.

The paper's related-work section contrasts the two systems point by
point.  This experiment runs both on *identical* monitored traffic —
a concurrent workload with injected faults — and tabulates:

* whether a high-level operation is named (GRETEL) vs a low-level
  message chain (HANSEL);
* whether a root cause is produced;
* reporting latency: GRETEL's α/2 window fill vs HANSEL's 30 s bucket;
* chain length vs matched-operation count (HANSEL's identifier
  stitching links the faulty request to successful operations that
  share tenant identifiers, §9.2 point 5).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from repro.baselines.hansel import HanselAnalyzer
from repro.core.characterize import CharacterizationResult
from repro.core.config import GretelConfig
from repro.evaluation.common import (
    default_characterization,
    default_suite,
    make_monitored_analyzer,
    p_rate_for,
    _distinctive_fault_api,
)
from repro.workloads.runner import WorkloadRunner

#: One workload: 100 concurrent operations, 4 of them hit by an
#: injected API error.
CONCURRENCY = 100
N_FAULTS = 4
SEED = 41


@dataclass
class ComparisonResult:
    """Side-by-side outcome on one workload."""

    faults_injected: int
    gretel_reports: int
    gretel_named_operation: int          # reports with >=1 matched op
    gretel_root_causes: int              # reports with >=1 finding
    gretel_mean_ops_matched: float
    gretel_max_report_delay: float
    hansel_reports: int
    hansel_mean_chain_length: float
    hansel_min_reporting_latency: float
    events_on_wire: int


def run(
    character: Optional[CharacterizationResult] = None,
) -> ComparisonResult:
    """Run both analyzers on one faulty concurrent workload."""
    character = character or default_characterization()
    suite = default_suite()
    rng = random.Random(SEED)

    cloud, plane, analyzer = make_monitored_analyzer(
        character, seed=SEED, concurrency=CONCURRENCY,
        config=GretelConfig(p_rate=p_rate_for(CONCURRENCY)),
    )
    hansel = HanselAnalyzer()
    events = []
    cloud.taps.attach_global(hansel.on_event)
    cloud.taps.attach_global(events.append)

    mix = suite.sample(CONCURRENCY, rng)
    eligible = [t for t in suite.tests if t.category in ("compute", "network")]
    faulty = [rng.choice(eligible) for _ in range(N_FAULTS)]
    symbols = character.library.symbols
    injected = 0
    for test in faulty:
        api_key = _distinctive_fault_api(test, character, symbols, rng)
        if api_key is None:
            continue
        cloud.faults.inject_api_error(api_key, 500, "injected", count=1,
                                      op_id=test.test_id)
        injected += 1

    WorkloadRunner(cloud).run_concurrent(mix + faulty, stagger=0.01, settle=2.0)
    analyzer.flush()
    hansel.flush()

    gretel = analyzer.operational_reports
    mean = lambda xs: sum(xs) / len(xs) if xs else 0.0  # noqa: E731
    return ComparisonResult(
        faults_injected=injected,
        gretel_reports=len(gretel),
        gretel_named_operation=sum(1 for r in gretel if r.detection.matched),
        gretel_root_causes=sum(1 for r in gretel if r.root_causes),
        gretel_mean_ops_matched=mean([len(r.detection.matched) for r in gretel]),
        gretel_max_report_delay=max((r.report_delay for r in gretel), default=0.0),
        hansel_reports=len(hansel.reports),
        hansel_mean_chain_length=mean([r.chain_length for r in hansel.reports]),
        hansel_min_reporting_latency=min(
            (r.reporting_latency for r in hansel.reports), default=0.0),
        events_on_wire=len(events),
    )


def format_report(result: ComparisonResult) -> str:
    """Render the §9.2 side-by-side table."""
    return "\n".join([
        "§9.2: GRETEL vs HANSEL on identical monitored traffic",
        f"  workload: {result.events_on_wire} wire events, "
        f"{result.faults_injected} injected faults",
        f"  {'':26s}{'GRETEL':>12s}{'HANSEL':>12s}",
        f"  {'fault reports':26s}{result.gretel_reports:>12d}"
        f"{result.hansel_reports:>12d}",
        f"  {'names operation?':26s}"
        f"{result.gretel_named_operation:>11d}/{result.gretel_reports:<4d}"
        f"{'never':>7s}",
        f"  {'root cause produced?':26s}"
        f"{result.gretel_root_causes:>11d}/{result.gretel_reports:<4d}"
        f"{'never':>7s}",
        f"  {'output size':26s}"
        f"{result.gretel_mean_ops_matched:>9.1f} ops"
        f"{result.hansel_mean_chain_length:>8.1f} msgs",
        f"  {'reporting latency':26s}"
        f"{result.gretel_max_report_delay:>10.2f}s "
        f"{result.hansel_min_reporting_latency:>10.2f}s",
        "  (paper: HANSEL's 30s buckets vs GRETEL's <2s even at 400 ops)",
    ])


def check(result: ComparisonResult) -> None:
    """§9.2's contrasts hold on this workload."""
    assert result.faults_injected == 4
    assert result.gretel_reports >= result.faults_injected
    assert result.hansel_reports >= result.faults_injected
    # §9.2 point 2: GRETEL names operations; HANSEL cannot.
    assert result.gretel_named_operation >= result.gretel_reports * 0.7
    # §9.2 point 1: GRETEL produces root causes for injected API errors
    # only when node metadata is anomalous — but the fields exist and
    # the reporting latency contrast always holds:
    assert result.gretel_max_report_delay < 2.0
    assert result.hansel_min_reporting_latency >= 30.0
