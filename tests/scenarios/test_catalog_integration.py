"""Integration: the shipped catalog passes end to end at the pinned seed.

Runs the full catalog once (one serial replay each, all oracles),
then checks the scorecard round-trips through JSON, matches the
committed ``results/SCENARIOS.json`` baseline, and that the CLI
surface behaves.
"""

import json
import os
from dataclasses import replace

import pytest

from repro.core.analyzer import GretelAnalyzer
from repro.scenarios import (
    CauseSpec,
    build_scorecard,
    diff_scorecards,
    dump_scorecard,
    names,
    register_for_testing,
    run_catalog,
    run_scenario,
)
from repro.scenarios.catalog import (
    CorrelatedMultiService,
    IdenticalFaultStorm,
)

PINNED_SEED = 0
SCORECARD_PATH = os.path.join(
    os.path.dirname(__file__), "..", "..", "results", "SCENARIOS.json",
)


@pytest.fixture(scope="module")
def catalog_result(full_character):
    return run_catalog(full_character, seed=PINNED_SEED)


@pytest.mark.slow
def test_full_catalog_passes(catalog_result):
    assert catalog_result.all_pass
    assert len(catalog_result.results) == len(names()) >= 9
    for result in catalog_result.results:
        failed = [o for o in result.serial_outcomes if not o.ok]
        assert not failed, (result.name, failed)
        # The frozen benchmark ledger still reads these two.
        assert result.sharded_outcomes == []
        assert result.equivalence is None


@pytest.mark.slow
def test_per_scenario_precision_recall_reported(catalog_result):
    for result in catalog_result.results:
        rendered = result.counts.as_dict()
        assert set(rendered) >= {"precision", "recall", "f1",
                                 "instances"}
        if result.counts.instances:
            assert rendered["recall"] is not None
    micro = catalog_result.counts
    assert micro.precision is not None and micro.precision > 0.9
    assert micro.recall == 1.0


@pytest.mark.slow
def test_scorecard_round_trips_through_json(catalog_result):
    document = build_scorecard(catalog_result)
    reloaded = json.loads(dump_scorecard(document))
    assert reloaded == document
    assert reloaded["schema"] == "gretel-scenarios/v2"
    assert reloaded["seed"] == PINNED_SEED
    assert "shards" not in reloaded
    for entry in reloaded["scenarios"]:
        assert not {"shards", "sharded", "sharded_reports",
                    "equivalence"} & set(entry)
    scenario_names = [e["name"] for e in reloaded["scenarios"]]
    assert scenario_names == sorted(scenario_names) == names()
    assert diff_scorecards(document, reloaded) == []


@pytest.mark.slow
def test_committed_scorecard_has_not_drifted(catalog_result):
    with open(SCORECARD_PATH, "r", encoding="utf-8") as handle:
        committed = json.load(handle)
    fresh = build_scorecard(catalog_result)
    drift = diff_scorecards(committed, fresh)
    assert drift == [], "\n".join(drift)


def test_identical_fault_storm_redraws_a_faultable_test(full_character):
    """Seed 3's first draw is a compute test with no state-change REST
    API; capture must redraw, not assert."""
    scenario = IdenticalFaultStorm(full_character, seed=3)
    captured = scenario.capture()
    assert captured.injected == scenario.n_faults
    assert captured.meta["api_key"]


def test_detect_disabled_control_grades_without_crashing(full_character):
    result = run_scenario("noop_control", full_character,
                          seed=PINNED_SEED, detect=False)
    assert result.passed
    assert result.counts.precision is None
    assert result.counts.recall is None
    [outcome] = result.serial_outcomes
    assert outcome.counts["precision"] is None


def test_wrong_localization_contract_fails_live(full_character):
    """End-to-end negative path: grading is not vacuous.

    A clone of the cheapest live scenario claims mysql on the control
    node caused both of its faults; Algorithm 3 (correctly) finds the
    disk and ntp faults instead, so the localization oracle must FAIL
    the run.
    """

    class WronglyLocalized(CorrelatedMultiService):
        name = "test_wrongly_localized"

        def expectation(self, captured):
            real = super().expectation(captured)
            wrong = CauseSpec("software", "mysql", "ctrl")
            return replace(real, faults=tuple(
                replace(spec, cause=wrong) for spec in real.faults
            ))

    undo = register_for_testing(WronglyLocalized)
    try:
        result = run_scenario("test_wrongly_localized", full_character,
                              seed=PINNED_SEED)
    finally:
        undo()
    assert not result.passed
    grades = {o.oracle: o for o in result.serial_outcomes}
    assert grades["localization"].grade == "FAIL"
    assert "mysql" in grades["localization"].detail
    # Detection itself still passes: the faults fired and were found.
    assert grades["detection"].grade == "PASS"


@pytest.mark.parametrize("seed", [0, 7])
def test_concurrent_faults_each_name_only_their_own_cause(
        full_character, seed):
    """Two faults share every snapshot of this scenario, yet each page
    names exactly one cause, its own fault's: Alg. 3 reads the page's
    own error list, not every error the snapshot holds."""
    scenario = CorrelatedMultiService(full_character, seed=seed)
    captured = scenario.capture()
    analyzer = GretelAnalyzer(full_character.library, store=captured.store,
                              config=scenario.analyzer_config())
    analyzer.feed(captured.events)
    analyzer.flush()

    ntp = ("software", "ntp", "cinder-node")
    expected = {"glance": ("resource", "disk", "glance-node"),
                "keystone": ntp, "cinder": ntp}
    assert analyzer.reports
    for report in analyzer.reports:
        causes = [(c.kind, c.subject, c.node) for c in report.root_causes]
        assert causes == [expected[report.fault_event.dst_service]]


# -- CLI surface ------------------------------------------------------------

def test_cli_scenarios_list_json(capsys):
    from repro.cli import main

    assert main(["scenarios", "list", "--format", "json"]) == 0
    entries = json.loads(capsys.readouterr().out)
    assert [e["name"] for e in entries] == names()
    assert all({"family", "description", "is_control"} <= set(e)
               for e in entries)


def test_cli_scenarios_run_json_round_trip(full_character, capsys):
    from repro.cli import main

    code = main(["scenarios", "run", "--scenario", "noop_control",
                 "--seed", str(PINNED_SEED), "--format", "json"])
    assert code == 0
    document = json.loads(capsys.readouterr().out)
    assert document["schema"] == "gretel-scenarios/v2"
    assert [e["name"] for e in document["scenarios"]] == ["noop_control"]
    assert document["all_pass"] is True


def test_cli_scenarios_run_rejects_unknown_name(capsys):
    from repro.cli import main

    assert main(["scenarios", "run", "--scenario", "nope"]) == 2
    assert "unknown scenario" in capsys.readouterr().err
