"""Registry behavior and the shipped catalog's shape guarantees."""

import pytest

from repro.scenarios import (
    Scenario,
    all_scenarios,
    get,
    names,
    register_for_testing,
)
from repro.scenarios.registry import scenario


def test_names_sorted_and_stable():
    listed = names()
    assert listed == sorted(listed)
    assert [cls.name for cls in all_scenarios()] == listed


def test_get_unknown_raises_with_choices():
    with pytest.raises(KeyError) as excinfo:
        get("no_such_scenario")
    assert "broker_partition" in str(excinfo.value)


def test_duplicate_registration_rejected():
    class Dup(Scenario):
        name = "broker_partition"
        family = "test"
        description = "dup"

        def capture(self):
            raise NotImplementedError

        def expectation(self, captured):
            raise NotImplementedError

    with pytest.raises(ValueError):
        scenario(Dup)


def test_unnamed_registration_rejected():
    class NoName(Scenario):
        family = "test"
        description = "unnamed"

        def capture(self):
            raise NotImplementedError

        def expectation(self, captured):
            raise NotImplementedError

    with pytest.raises(ValueError):
        scenario(NoName)


def test_register_for_testing_undo():
    class Temp(Scenario):
        name = "temp_test_scenario"
        family = "test"
        description = "temp"

        def capture(self):
            raise NotImplementedError

        def expectation(self, captured):
            raise NotImplementedError

    undo = register_for_testing(Temp)
    assert get("temp_test_scenario") is Temp
    undo()
    assert "temp_test_scenario" not in names()


def test_register_for_testing_replace_restores_original():
    original = get("noop_control")

    class Shadow(Scenario):
        name = "noop_control"
        family = "test"
        description = "shadow"

        def capture(self):
            raise NotImplementedError

        def expectation(self, captured):
            raise NotImplementedError

    with pytest.raises(ValueError):
        register_for_testing(Shadow)
    undo = register_for_testing(Shadow, replace=True)
    assert get("noop_control") is Shadow
    undo()
    assert get("noop_control") is original


# -- catalog shape (the ISSUE's acceptance floor) ---------------------------

def test_catalog_meets_coverage_floor():
    catalog = all_scenarios()
    assert len(catalog) >= 9
    families = [cls.family for cls in catalog]
    multi = [f for f in families if f in ("multiservice", "cascade")]
    assert len(multi) >= 2
    controls = [cls for cls in catalog if cls.is_control]
    assert len(controls) >= 1


def test_catalog_goes_past_the_papers_four_fault_types():
    families = {cls.family for cls in all_scenarios()}
    beyond_paper = {"rpc", "partition", "config", "multiservice",
                    "slow-burn", "cascade", "control"}
    assert beyond_paper <= families


def test_every_scenario_declares_its_contract():
    for cls in all_scenarios():
        assert cls.name and cls.family and cls.description
