"""Fault-injection scenario catalog with graded oracles.

An SREGym-style evaluation subsystem: each registered
:class:`~repro.scenarios.base.Scenario` bundles a deterministic seeded
fault injector, a traffic profile, and a machine-checkable
expectation; graded oracles turn GRETEL's fault reports into
PASS/FAIL/SKIP verdicts with precision / recall / F1 scores over one
serial replay of each capture.  See ``docs/scenarios.md``.
"""

from repro.scenarios import catalog as _catalog  # noqa: F401
from repro.scenarios.base import (
    CapturedRun,
    CauseSpec,
    Expectation,
    FaultSpec,
    Localization,
    Scenario,
    ScenarioError,
)
from repro.scenarios.oracles import (
    FAIL,
    PASS,
    SKIP,
    DetectionOracle,
    FalsePositiveOracle,
    GradingContext,
    LocalizationOracle,
    Oracle,
    OracleOutcome,
    oracles_for,
)
from repro.scenarios.registry import (
    all_scenarios,
    get,
    names,
    register_for_testing,
    scenario,
)
from repro.scenarios.runner import (
    CatalogResult,
    ScenarioResult,
    run_catalog,
    run_scenario,
)
from repro.scenarios.scorecard import (
    SCHEMA,
    build_scorecard,
    diff_scorecards,
    dump_scorecard,
    render_scorecard,
)

__all__ = [
    "FAIL",
    "PASS",
    "SCHEMA",
    "SKIP",
    "CapturedRun",
    "CatalogResult",
    "CauseSpec",
    "DetectionOracle",
    "Expectation",
    "FalsePositiveOracle",
    "FaultSpec",
    "GradingContext",
    "Localization",
    "LocalizationOracle",
    "Oracle",
    "OracleOutcome",
    "Scenario",
    "ScenarioError",
    "ScenarioResult",
    "all_scenarios",
    "build_scorecard",
    "diff_scorecards",
    "dump_scorecard",
    "get",
    "names",
    "oracles_for",
    "register_for_testing",
    "render_scorecard",
    "run_catalog",
    "run_scenario",
    "scenario",
]
