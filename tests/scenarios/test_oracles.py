"""Unit tests for the graded oracles, including the negative paths.

The negative tests are the point: a deliberately wrong localization
contract must FAIL (grading is not vacuous), and a control graded
over zero reports must score precision as the undefined 0/0 — never
crash, never count as 0 or 1.
"""

from dataclasses import replace

from repro.evaluation.common import DetectionCounts, safe_ratio
from repro.monitoring.store import MetadataStore
from repro.scenarios import (
    FAIL,
    PASS,
    SKIP,
    CapturedRun,
    CauseSpec,
    DetectionOracle,
    Expectation,
    FalsePositiveOracle,
    FaultSpec,
    GradingContext,
    Localization,
    LocalizationOracle,
    oracles_for,
)
from repro.scenarios.oracles import detection_counts
from tests.scenarios.conftest import make_report


def _ctx(expectation, reports, scenario=None):
    captured = CapturedRun(events=[], store=MetadataStore(),
                           injected=1, duration=1.0)
    return GradingContext(scenario=scenario, captured=captured,
                          expectation=expectation, reports=reports)


SPEC = FaultSpec(label="x", start=0.0, services=("nova",),
                 statuses=(500,), count=2)


# -- detection --------------------------------------------------------------

def test_detection_passes_on_perfect_run():
    exp = Expectation(faults=(SPEC,))
    reports = [make_report(ts=0.5), make_report(ts=1.0)]
    outcome = DetectionOracle().grade(_ctx(exp, reports))
    assert outcome.grade == PASS
    assert outcome.score == 1.0
    assert outcome.counts["precision"] == 1.0
    assert outcome.counts["recall"] == 1.0


def test_detection_fails_below_recall_floor():
    exp = Expectation(faults=(SPEC,), min_recall=1.0)
    outcome = DetectionOracle().grade(_ctx(exp, [make_report(ts=0.5)]))
    assert outcome.grade == FAIL
    assert "recall" in outcome.detail


def test_detection_fails_below_precision_floor():
    exp = Expectation(faults=(SPEC,), min_precision=1.0)
    reports = [make_report(ts=0.5), make_report(ts=1.0),
               make_report(service="glance", status=413)]
    outcome = DetectionOracle().grade(_ctx(exp, reports))
    assert outcome.grade == FAIL
    assert "precision" in outcome.detail


def test_detection_fails_on_silent_run():
    exp = Expectation(faults=(SPEC,))
    outcome = DetectionOracle().grade(_ctx(exp, []))
    assert outcome.grade == FAIL
    assert outcome.score is None  # F1 undefined with no reports


def test_detection_recall_is_instance_level():
    # One chatty fault instance producing 5 reports must not mask the
    # missed second instance.
    exp = Expectation(faults=(SPEC,), min_recall=1.0)
    reports = [make_report(ts=0.1 * i) for i in range(1, 6)]
    counts = detection_counts(_ctx(exp, reports))
    assert counts.true_reports == 5
    assert counts.detected_instances == 2  # capped at spec.count
    assert counts.recall == 1.0


# -- localization (incl. the deliberately-wrong negative path) -------------

def _loc_exp(localization=None, cause=None):
    spec = replace(SPEC, cause=cause)
    return Expectation(faults=(spec,), localization=localization)


def test_localization_confirms_expected_facts():
    loc = Localization(services=("nova",),
                       operation="tempest-compute-0001")
    exp = _loc_exp(loc, CauseSpec("software", "rabbitmq", "ctrl"))
    reports = [make_report(operations=("tempest-compute-0001",),
                           causes=(("software", "rabbitmq", "ctrl"),))]
    outcome = LocalizationOracle().grade(_ctx(exp, reports))
    assert outcome.grade == PASS
    assert outcome.score == 1.0
    assert outcome.counts == {"checks": 3, "failed": 0}


def test_wrong_expected_cause_fails_not_vacuously():
    # The scenario (wrongly) claims mysql on ctrl died; Algorithm 3
    # correctly found rabbitmq.  The oracle must FAIL, proving the
    # contract is actually checked.
    exp = _loc_exp(cause=CauseSpec("software", "mysql", "ctrl"))
    reports = [make_report(causes=(("software", "rabbitmq", "ctrl"),))]
    outcome = LocalizationOracle().grade(_ctx(exp, reports))
    assert outcome.grade == FAIL
    assert "mysql" in outcome.detail


def test_wrong_expected_node_fails():
    exp = _loc_exp(cause=CauseSpec("software", "rabbitmq", "compute-1"))
    reports = [make_report(causes=(("software", "rabbitmq", "ctrl"),))]
    outcome = LocalizationOracle().grade(_ctx(exp, reports))
    assert outcome.grade == FAIL


def test_cause_on_any_node_accepted():
    # A cause on the spec is a contract of its own: no Localization
    # is needed for it to be graded.
    exp = _loc_exp(cause=CauseSpec("software", "rabbitmq"))
    reports = [make_report(causes=(("software", "rabbitmq", "ctrl"),))]
    outcome = LocalizationOracle().grade(_ctx(exp, reports))
    assert outcome.grade == PASS
    assert outcome.counts == {"checks": 1, "failed": 0}


def test_expected_cause_named_second_is_not_confirmed():
    # The page names the expected cause, but behind another finding:
    # Algorithm 3's verdict is its first finding, so the fact fails.
    exp = _loc_exp(cause=CauseSpec("software", "rabbitmq", "ctrl"))
    reports = [make_report(causes=(("software", "mysql", "ctrl"),
                                   ("software", "rabbitmq", "ctrl")))]
    outcome = LocalizationOracle().grade(_ctx(exp, reports))
    assert outcome.grade == FAIL
    assert "rabbitmq" in outcome.detail


def test_cause_on_another_faults_page_is_not_confirmed():
    # Two concurrent faults: the glance page leads with the nova
    # fault's cause.  Each cause counts only on its own fault's pages,
    # so the nova fact holds and the glance fact fails.
    nova = replace(SPEC, count=1,
                   cause=CauseSpec("software", "nova-api", "nova-ctl"))
    glance = FaultSpec(label="y", start=0.0, services=("glance",),
                       statuses=(413,),
                       cause=CauseSpec("resource", "disk", "glance-node"))
    reports = [
        make_report(causes=(("software", "nova-api", "nova-ctl"),)),
        make_report(service="glance", status=413,
                    causes=(("software", "nova-api", "nova-ctl"),
                            ("resource", "disk", "glance-node"))),
    ]
    exp = Expectation(faults=(nova, glance))
    outcome = LocalizationOracle().grade(_ctx(exp, reports))
    assert outcome.grade == FAIL
    assert outcome.counts == {"checks": 2, "failed": 1}
    assert "disk@glance-node" in outcome.detail
    assert "nova-api" not in outcome.detail


def test_operation_hit_rate_below_floor_fails():
    loc = Localization(operation="tempest-compute-0001",
                       min_operation_rate=0.5)
    reports = [make_report(operations=("tempest-compute-9999",)),
               make_report(operations=("tempest-compute-9998",)),
               make_report(operations=("tempest-compute-0001",))]
    outcome = LocalizationOracle().grade(_ctx(_loc_exp(loc), reports))
    assert outcome.grade == FAIL
    assert "hit rate" in outcome.detail


def test_localization_fails_with_no_attributed_reports():
    exp = _loc_exp(cause=CauseSpec("software", "rabbitmq"))
    outcome = LocalizationOracle().grade(_ctx(exp, []))
    assert outcome.grade == FAIL
    assert outcome.score == 0.0


def test_localization_skips_without_contract():
    exp = Expectation(faults=(SPEC,), localization=None)
    outcome = LocalizationOracle().grade(_ctx(exp, []))
    assert outcome.grade == SKIP
    assert outcome.ok


# -- controls: undefined precision must not crash ---------------------------

def test_control_zero_over_zero_precision_is_undefined():
    exp = Expectation(faults=())
    outcome = FalsePositiveOracle().grade(_ctx(exp, []))
    assert outcome.grade == PASS
    assert outcome.counts["precision"] is None
    assert "undefined (0/0)" in outcome.detail


def test_control_fails_on_any_report():
    exp = Expectation(faults=())
    outcome = FalsePositiveOracle().grade(_ctx(exp, [make_report()]))
    assert outcome.grade == FAIL
    assert outcome.counts["precision"] == 0.0


def test_safe_ratio_and_counts_never_divide_by_zero():
    assert safe_ratio(0, 0) is None
    empty = DetectionCounts()
    assert empty.precision is None
    assert empty.recall is None
    assert empty.f1 is None
    rendered = empty.as_dict()
    assert rendered["precision"] is None
    assert rendered["recall"] is None


def test_micro_average_sums_counts():
    merged = DetectionCounts.micro([
        DetectionCounts(true_reports=3, false_reports=1, instances=2,
                        detected_instances=2),
        DetectionCounts(true_reports=1, false_reports=0, instances=1,
                        detected_instances=0),
    ])
    assert merged.true_reports == 4
    assert merged.precision == 0.8
    assert merged.recall == 2 / 3


# -- battery selection ------------------------------------------------------

def test_oracles_for_control_vs_fault_scenario(small_character):
    from tests.scenarios.test_base import _Stub, _StubControl

    fault_battery = oracles_for(_Stub(small_character))
    assert [o.name for o in fault_battery] == ["detection",
                                              "localization"]
    control_battery = oracles_for(_StubControl(small_character))
    assert [o.name for o in control_battery] == ["false-positives"]
