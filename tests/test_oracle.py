"""The shared differential-oracle harness (``repro.oracle``).

Each ``verify_*`` has its own positive and negative tests beside the
layer it checks; these cover what they share — the multiset diff, the
result type's rendering / serialization / merge, and the promise that
all five speak one dialect.
"""

import json

import pytest

from repro.core.analyzer import GretelAnalyzer
from repro.core.config import GretelConfig
from repro.monitoring.store import MetadataStore
from repro.oracle import (
    DETAIL_LIMIT,
    LAYERS,
    OracleDivergence,
    OracleResult,
    diff_counters,
    diff_multisets,
    settle,
)
from repro.workloads.traffic import SyntheticStream

CONFIG = GretelConfig(alpha=64)


def signature(seq, operations=("boot",), theta=0.5, kind="operational"):
    return (kind, seq, tuple(operations), theta, ())


def result(**overrides):
    fields = {
        "layer": "shards", "reference": "serial", "candidate": "2-shard",
        "facts": {"events": 10},
    }
    fields.update(overrides)
    return OracleResult(**fields)


# ---------------------------------------------------------------------------
# diff_multisets / diff_counters
# ---------------------------------------------------------------------------

def test_diff_multisets_counts_multiplicity_not_membership():
    twice, once = signature(1), signature(2)
    missing, extra = diff_multisets(
        [twice, twice, once], [twice, once, once]
    )
    # Same *sets* on both sides; only the multiplicities differ.
    assert missing == [twice]
    assert extra == [once]


def test_diff_multisets_is_order_independent_and_sorted():
    missing, extra = diff_multisets(iter([3, 1, 2, 9]), iter([2, 1, 3, 7, 5]))
    assert missing == [9]
    assert extra == [5, 7]
    assert diff_multisets([], []) == ([], [])


def test_diff_counters_names_each_disagreement():
    lines = diff_counters(
        {"events": 5, "reports": 2, "only_here": 1},
        {"events": 5, "reports": 3},
        scope="tenant-0",
    )
    assert lines == [
        "counter: [tenant-0] only_here reference=1 candidate=None",
        "counter: [tenant-0] reports reference=2 candidate=3",
    ]
    assert diff_counters({"a": 1}, {"a": 1}) == []


# ---------------------------------------------------------------------------
# OracleResult
# ---------------------------------------------------------------------------

def test_unknown_layer_is_rejected():
    with pytest.raises(ValueError, match="unknown oracle layer"):
        result(layer="vibes")


def test_summary_speaks_one_vocabulary():
    clean = result()
    assert clean.ok
    assert clean.summary() == (
        "EQUIVALENT: 2-shard vs serial analysis on events=10 — "
        "0 missing, 0 extra, 0 mismatches"
    )
    dirty = result(
        missing=[signature(7, ("boot", "attach"))],
        extra=[signature(9, (), kind="performance") + ("tenant-1",)],
        mismatches=["counter: events reference=1 candidate=2"],
    )
    assert not dirty.ok
    lines = dirty.summary().splitlines()
    assert lines[0].startswith("DIVERGED: 2-shard vs serial analysis")
    assert lines[1] == (
        "  missing: operational fault seq=7 ops=[boot,attach] "
        "theta=0.5000"
    )
    # A trailing scope label (the service oracle's tenant) is shown.
    assert lines[2] == (
        "  extra: [tenant-1] performance fault seq=9 ops=[<none>] "
        "theta=0.5000"
    )
    assert lines[3] == "  counter: events reference=1 candidate=2"


def test_summary_truncates_each_list_after_the_limit():
    many = DETAIL_LIMIT + 3
    summary = result(
        missing=[signature(seq) for seq in range(many)],
        mismatches=[f"line {index}" for index in range(many)],
    ).summary()
    lines = summary.splitlines()
    assert sum(line.startswith("  missing: ") for line in lines) == (
        DETAIL_LIMIT
    )
    assert "  ... 3 more missing" in lines
    assert sum(line.startswith("  line ") for line in lines) == DETAIL_LIMIT
    assert lines[-1] == "  ... 3 more"
    assert "extra:" not in summary


def test_non_report_signatures_render_as_repr():
    summary = result(missing=["op-a", 3]).summary()
    assert "  missing: 'op-a'" in summary
    assert "  missing: 3" in summary


def test_to_dict_round_trips_through_json():
    outcome = result(
        facts={"events": 10, "cuts": (3, 6)},
        missing=[signature(7)],
        mismatches=["counter: events reference=1 candidate=2"],
    )
    document = outcome.to_dict()
    assert json.loads(json.dumps(document)) == document
    assert document["ok"] is False
    assert document["facts"] == {"events": 10, "cuts": [3, 6]}
    assert document["missing"] == [["operational", 7, ["boot"], 0.5, []]]
    assert document["summary"] == outcome.summary()


def test_merge_adds_facts_and_concatenates_divergences():
    total = OracleResult(
        layer="levelshift", reference="reference", candidate="incremental",
        facts={"series": 1, "samples": 40, "alarms": 0},
    )
    total.merge(OracleResult(
        layer="levelshift", reference="reference", candidate="incremental",
        facts={"series": 1, "samples": 2, "alarms": 1, "late": 5},
        missing=[1], extra=[2], mismatches=["api[3]: alarm"],
    ))
    assert total.facts == {
        "series": 2, "samples": 42, "alarms": 1, "late": 5,
    }
    assert (total.missing, total.extra) == ([1], [2])
    assert total.mismatches == ["api[3]: alarm"]
    assert not total.ok
    with pytest.raises(ValueError, match="cannot merge"):
        total.merge(result())


def test_settle_raises_only_when_strict():
    dirty = result(mismatches=["x"])
    assert settle(dirty, strict=False) is dirty
    assert settle(result(), strict=True).ok
    with pytest.raises(OracleDivergence, match="DIVERGED") as excinfo:
        settle(dirty, strict=True)
    assert excinfo.value.result is dirty
    assert isinstance(excinfo.value, AssertionError)
    assert str(excinfo.value) == dirty.summary()


# ---------------------------------------------------------------------------
# All five oracles, one dialect
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def library(small_character):
    return small_character.library


@pytest.fixture(scope="module")
def events(library):
    stream = SyntheticStream(
        library, library.symbols, fault_every=100, seed=3,
    )
    return stream.events(400)


@pytest.fixture(scope="module")
def snapshots(library, events):
    serial = GretelAnalyzer(
        library, store=MetadataStore(), config=CONFIG, defer_detection=True,
    )
    serial.feed(events)
    serial.flush()
    return serial.deferred_snapshots()


#: ``verify_service`` runs under the names of the two oracles it
#: replaced, at the two settings CI runs ``serve --verify`` at: the
#: default queue, where each checkpoint analyzes a long backlog, and a
#: 16-slot queue that blocks four producers.
SERVICE_RUNS = {
    "checkpoint": dict(producers=2),
    "async": dict(producers=4, queue_capacity=16),
}

#: One run per oracle layer, the service layer's under both names.
RUNS = sorted(set(LAYERS) - {"service"} | set(SERVICE_RUNS))


def run_oracle(run, library, events, snapshots):
    if run == "shards":
        from repro.core.parallel import verify_equivalence

        return verify_equivalence(events, library, 2, config=CONFIG)
    if run == "detection":
        from repro.core.matching import verify_detection

        return verify_detection(snapshots, library, config=CONFIG)
    if run == "levelshift":
        from repro.core.streamstats import verify_levelshift_stream

        return verify_levelshift_stream(events)
    if run == "selection":
        from repro.analysis.compile import verify_selection

        return verify_selection(
            library, config=CONFIG, snapshots=snapshots,
        )
    from repro.service import verify_service

    return verify_service(
        events, library, tenants=2, cuts=2, config=CONFIG,
        **SERVICE_RUNS[run],
    )


@pytest.mark.parametrize("run", RUNS)
def test_every_oracle_returns_the_same_shape(
    run, library, events, snapshots
):
    assert snapshots
    outcome = run_oracle(run, library, events, snapshots)
    layer = "service" if run in SERVICE_RUNS else run
    assert isinstance(outcome, OracleResult)
    assert outcome.layer == layer
    assert outcome.ok
    assert outcome.summary().startswith(
        f"EQUIVALENT: {outcome.candidate} vs {outcome.reference} "
        f"{LAYERS[layer]} on "
    )
    document = outcome.to_dict()
    assert set(document) == {
        "layer", "ok", "reference", "candidate", "facts",
        "missing", "extra", "mismatches", "summary",
    }
    assert document["facts"]
    assert json.loads(json.dumps(document)) == document
