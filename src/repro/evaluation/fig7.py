"""Fig. 7 — GRETEL's precision under parallel workloads (§7.3).

* **Fig. 7a** — precision θ for 100–400 parallel tests × {1,4,8,16}
  injected operational faults (paper: >98 % everywhere, marginally
  increasing with load);
* **Fig. 7b** — operations matched per fault, "with API error" (no
  snapshot: every operation containing the offending API) versus with
  the snapshot from the context buffer, at 8 faults;
* **Fig. 7c** — operations matched with and without RPC symbols in
  the fingerprints (the §6 pruning optimization), 100 tests, 8 faults.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.characterize import CharacterizationResult
from repro.core.config import GretelConfig
from repro.evaluation.common import (
    default_characterization,
    p_rate_for,
    run_fault_workload,
)

#: Paper headline: θ exceeds 98 % in every scenario.
PAPER_MIN_THETA = 0.98

CONCURRENCIES = (100, 200, 300, 400)
FAULT_COUNTS = (1, 4, 8, 16)


@dataclass
class PrecisionCell:
    """One (concurrency, faults) grid cell."""

    concurrency: int
    faults: int
    theta: float
    matched_mean: float
    candidates_mean: float
    true_hit_rate: float
    reports: int
    max_report_delay: float
    #: Reports whose snapshot matched no operation at all.
    no_match: int = 0


def aggregate(concurrency: int, faults: int,
              character: CharacterizationResult,
              seeds: Sequence[int],
              fault_phase: str = "late",
              **overrides: object) -> PrecisionCell:
    """One §7.3 cell: the fault workload once per seed under
    ``GretelConfig(p_rate=..., **overrides)``, per-report statistics
    pooled across the seeds."""
    thetas: List[float] = []
    matched: List[int] = []
    candidates: List[int] = []
    hits: List[bool] = []
    delay = 0.0
    for seed in seeds:
        config = GretelConfig(p_rate=p_rate_for(concurrency), **overrides)
        stats = run_fault_workload(
            concurrency=concurrency, n_faults=faults,
            character=character, seed=seed, config=config,
            fault_phase=fault_phase,
        )
        thetas.extend(stats.thetas())
        matched.extend(stats.matched_counts())
        candidates.extend(stats.candidate_counts())
        hits.extend(stats.true_hits())
        delay = max(delay, stats.max_report_delay())
    mean = lambda xs: sum(xs) / len(xs) if xs else 0.0  # noqa: E731
    return PrecisionCell(
        concurrency=concurrency, faults=faults,
        theta=mean(thetas), matched_mean=mean(matched),
        candidates_mean=mean(candidates),
        true_hit_rate=mean([1.0 if h else 0.0 for h in hits]),
        reports=len(thetas), max_report_delay=delay,
        no_match=sum(1 for n in matched if n == 0),
    )


def run_fig7a(
    character: Optional[CharacterizationResult] = None,
    *,
    concurrencies: Sequence[int] = CONCURRENCIES,
    fault_counts: Sequence[int] = FAULT_COUNTS,
    seeds: Sequence[int] = (3, 4),
) -> List[PrecisionCell]:
    """The full precision grid."""
    character = character or default_characterization()
    return [
        aggregate(concurrency, faults, character, seeds)
        for concurrency in concurrencies
        for faults in fault_counts
    ]


def run_fig7b(
    character: Optional[CharacterizationResult] = None,
    *,
    concurrencies: Sequence[int] = CONCURRENCIES,
    seeds: Sequence[int] = (3, 4),
) -> List[PrecisionCell]:
    """Operations matched (API error only vs snapshot), 8 faults."""
    character = character or default_characterization()
    return [
        aggregate(concurrency, 8, character, seeds)
        for concurrency in concurrencies
    ]


def run_fig7c(
    character: Optional[CharacterizationResult] = None,
    *,
    seeds: Sequence[int] = (3, 4, 5),
) -> Dict[str, PrecisionCell]:
    """RPC pruning ablation: 100 tests, 8 faults."""
    character = character or default_characterization()
    return {
        "without_rpcs": aggregate(100, 8, character, seeds, prune_rpcs=True),
        "with_rpcs": aggregate(100, 8, character, seeds, prune_rpcs=False),
    }


def format_fig7a(cells: List[PrecisionCell]) -> str:
    """Render the Fig. 7a grid."""
    lines = [
        "Fig. 7a: precision θ (paper: >98% in all scenarios)",
        f"{'conc':>6s} {'faults':>7s} {'theta':>8s} {'true-hit':>9s} "
        f"{'reports':>8s} {'max delay':>10s}",
    ]
    for cell in cells:
        lines.append(
            f"{cell.concurrency:6d} {cell.faults:7d} {cell.theta:8.4f} "
            f"{cell.true_hit_rate:9.2f} {cell.reports:8d} "
            f"{cell.max_report_delay:9.2f}s"
        )
    return "\n".join(lines)


def format_fig7b(cells: List[PrecisionCell]) -> str:
    """Render the Fig. 7b comparison."""
    lines = [
        "Fig. 7b: operations matched per fault, 8 injected faults",
        f"{'conc':>6s} {'with API error':>15s} {'with snapshot':>14s}",
    ]
    for cell in cells:
        lines.append(
            f"{cell.concurrency:6d} {cell.candidates_mean:15.1f} "
            f"{cell.matched_mean:14.1f}"
        )
    return "\n".join(lines)


def format_fig7c(cells: Dict[str, PrecisionCell]) -> str:
    """Render the Fig. 7c ablation."""
    lines = [
        "Fig. 7c: RPC pruning (100 tests, 8 faults)",
        f"{'variant':>14s} {'matched':>9s} {'theta':>8s}",
    ]
    for name, cell in cells.items():
        lines.append(f"{name:>14s} {cell.matched_mean:9.1f} {cell.theta:8.4f}")
    return "\n".join(lines)


def check_fig7a(cells: List[PrecisionCell]) -> None:
    """The paper's headline: precision above 98% in every scenario."""
    thetas = [cell.theta for cell in cells if cell.reports]
    assert thetas
    assert min(thetas) > 0.96, min(thetas)
    assert sum(thetas) / len(thetas) > 0.975


def check_fig7b(cells: List[PrecisionCell]) -> None:
    """The figure's shape: the snapshot narrows the candidate set by a
    large factor relative to matching on the error API alone."""
    for cell in cells:
        assert cell.matched_mean < cell.candidates_mean / 3, cell


def check_fig7c(cells: Dict[str, PrecisionCell]) -> None:
    """The paper: including RPCs improves precision only marginally —
    both variants land in the same precision regime."""
    without, with_rpcs = cells["without_rpcs"], cells["with_rpcs"]
    assert abs(without.theta - with_rpcs.theta) < 0.03
    assert without.theta > 0.95
