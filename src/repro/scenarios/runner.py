"""Scenario execution: capture once, replay once, grade everything.

:func:`run_scenario` drives one scenario end to end:

1. **capture** — the scenario's seeded simulation runs once, recording
   the full wire stream and the populated metadata store;
2. **replay** — the capture is fed through a fresh serial analyzer;
3. **grade** — the scenario's oracle battery judges the replay.

:func:`run_catalog` runs any subset of the registry and micro-averages
the per-scenario confusion counts into catalog-wide precision /
recall / F1 (the Fig. 5–7 shape).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Type, Union

from repro.core.characterize import CharacterizationResult
from repro.core.analyzer import GretelAnalyzer
from repro.core.reports import FaultReport
from repro.evaluation.common import DetectionCounts
from repro.scenarios import registry
from repro.scenarios.base import CapturedRun, Scenario
from repro.scenarios.oracles import (
    GradingContext,
    OracleOutcome,
    detection_counts,
    oracles_for,
)

ScenarioRef = Union[str, Type[Scenario]]


def _replay(captured: CapturedRun, scenario: Scenario) -> List[FaultReport]:
    """Feed the capture through a fresh serial analyzer."""
    analyzer = GretelAnalyzer(
        scenario.character.library, store=captured.store,
        config=scenario.analyzer_config(),
        track_latency=scenario.track_latency,
    )
    analyzer.feed(captured.events)
    analyzer.flush()
    return list(analyzer.reports)


@dataclass
class ScenarioResult:
    """Everything one scenario run produced."""

    name: str
    family: str
    seed: int
    events: int
    injected: int
    duration: float
    counts: DetectionCounts
    serial_outcomes: List[OracleOutcome] = field(default_factory=list)
    serial_reports: int = 0

    # The frozen ledger (benchmarks/e2e/workloads.py) still reads the
    # second replay's grades; there is no second replay.
    @property
    def sharded_outcomes(self) -> List[OracleOutcome]:
        return []

    @property
    def equivalence(self) -> Optional[OracleOutcome]:
        return None

    @property
    def passed(self) -> bool:
        """No FAIL among the replay's graded oracles."""
        return all(outcome.ok for outcome in self.serial_outcomes)

    @property
    def exit_code(self) -> int:
        """Process exit code for this scenario alone: 0 pass, 1 fail.

        Part of the CLI exit-code contract (``repro scenarios run``):
        0 = every graded oracle passed, 1 = any FAIL (or, at the CLI
        layer, scorecard drift), 2 = usage error.  Usage errors never
        originate here — the runner only grades.
        """
        return 0 if self.passed else 1

    def to_dict(self) -> Dict[str, object]:
        """JSON-stable rendering (used by the committed scorecard)."""
        return {
            "name": self.name,
            "family": self.family,
            "seed": self.seed,
            "events": self.events,
            "injected": self.injected,
            "duration": round(self.duration, 3),
            "serial_reports": self.serial_reports,
            "counts": self.counts.as_dict(),
            "serial": [o.as_dict() for o in self.serial_outcomes],
            "passed": self.passed,
        }


def _resolve(ref: ScenarioRef) -> Type[Scenario]:
    if isinstance(ref, str):
        return registry.get(ref)
    return ref


def run_scenario(
    ref: ScenarioRef,
    character: CharacterizationResult,
    *,
    seed: int = 0,
    detect: bool = True,
) -> ScenarioResult:
    """Capture, replay and grade one scenario.

    ``detect=False`` skips the replay and grades an empty report list —
    the degenerate no-detector run the negative-path tests use to
    prove 0/0 precision stays undefined instead of crashing.
    """
    scenario = _resolve(ref)(character, seed=seed)
    captured = scenario.capture()
    expectation = scenario.expectation(captured)
    ctx = GradingContext(
        scenario=scenario, captured=captured, expectation=expectation,
        reports=_replay(captured, scenario) if detect else [],
    )
    return ScenarioResult(
        name=scenario.name,
        family=scenario.family,
        seed=seed,
        events=len(captured.events),
        injected=captured.injected,
        duration=captured.duration,
        counts=detection_counts(ctx),
        serial_outcomes=[
            oracle.grade(ctx) for oracle in oracles_for(scenario)
        ],
        serial_reports=len(ctx.reports),
    )


@dataclass
class CatalogResult:
    """A full (or filtered) catalog run with micro-averaged totals."""

    results: List[ScenarioResult]
    seed: int
    # Accepted and ignored: the frozen ledger
    # (benchmarks/e2e/workloads.py) still passes ``shards=4``.
    shards: Optional[int] = None

    @property
    def counts(self) -> DetectionCounts:
        """Catalog-wide micro-average of the confusion counts."""
        return DetectionCounts.micro(r.counts for r in self.results)

    @property
    def all_pass(self) -> bool:
        """Whether every scenario passed every graded oracle."""
        return all(r.passed for r in self.results)

    @property
    def exit_code(self) -> int:
        """Process exit code for the catalog: 0 all pass, 1 any fail.

        See :attr:`ScenarioResult.exit_code` for the full contract;
        ``repro scenarios run`` returns exactly this unless a usage
        error (2) or baseline drift (1) intervenes first.
        """
        return 0 if self.all_pass else 1

    def to_dict(self) -> Dict[str, object]:
        """JSON-stable rendering (used by the committed scorecard)."""
        return {
            "seed": self.seed,
            "scenarios": [r.to_dict()
                          for r in sorted(self.results,
                                          key=lambda r: r.name)],
            "catalog": self.counts.as_dict(),
            "all_pass": self.all_pass,
        }


def run_catalog(
    character: CharacterizationResult,
    *,
    seed: int = 0,
    names: Optional[Sequence[str]] = None,
) -> CatalogResult:
    """Run every (or the named subset of) registered scenario."""
    selected = list(names) if names else registry.names()
    results = [
        run_scenario(name, character, seed=seed)
        for name in selected
    ]
    return CatalogResult(results=results, seed=seed)
