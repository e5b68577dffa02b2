import json
import re
import subprocess
import sys
import time
from collections import Counter

import pytest

import compare
import harness
import workloads

RUN = str(harness.HERE / "run.py")
SPEC = harness.load_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def smoke_run(workload, seconds=0.5):
    return harness.Run(workload, 5, seconds, False, "smoke", harness.now())


@pytest.fixture(scope="module")
def smoke_ledger(tmp_path_factory):
    """The operator's command at smoke scale, both modes."""
    out = tmp_path_factory.mktemp("ledger") / "smoke.json"
    began = time.perf_counter()
    done = subprocess.run(
        [sys.executable, RUN, "--scale", "smoke", "--seconds", "1",
         "--traced", "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    wall = time.perf_counter() - began
    assert done.returncode == 0, done.stdout + done.stderr
    with open(out, encoding="utf-8") as handle:
        return json.load(handle), wall, done.stdout


def test_smoke_is_quick_and_emits_every_metric(smoke_ledger):
    ledger, wall, _ = smoke_ledger
    assert wall < 30.0
    for section in ("end_to_end", "per_layer"):
        names = [m["name"] for m in SPEC[section]]
        assert all(re.fullmatch(r"[A-Za-z0-9_.-]+", n) for n in names)
        for workload in WORKLOADS:
            assert sorted(ledger[section][workload]) == sorted(names)
    for workload in WORKLOADS:
        for name, row in ledger["end_to_end"][workload].items():
            assert row["median"] > 0, (workload, name)
    # Every layer metric is exercised by some workload.
    idle_on_seed = {"characterize.cold_build_s", "session.events_shed",
                    "faults.unreported"}
    for metric in SPEC["per_layer"]:
        name = metric["name"]
        touched = any(ledger["per_layer"][w][name]["median"]
                      for w in WORKLOADS)
        assert touched or name in idle_on_seed, name


def test_runner_block_is_recorded(smoke_ledger):
    ledger, _, stdout = smoke_ledger
    runner = ledger["runner"]
    assert runner["tracemalloc"] is False
    assert runner["nproc"] >= 1 and runner["python"]
    detail = ledger["detail"]["storm_shards"]["end_to_end"][0]
    assert detail["runner"]["PYTHONHASHSEED"] == "0"
    assert detail["runner"]["shards"] == min(runner["nproc"], 4)
    if runner["nproc"] < detail["runner"]["shards"] + 1:
        assert "unobserved" in stdout


def test_stage_rows_sum_to_the_pass_wall(smoke_ledger):
    ledger, _, _ = smoke_ledger
    for workload in ("quiet_serial", "storm_serial"):
        layers = ledger["per_layer"][workload]
        rows = sum(row["median"] for name, row in layers.items()
                   if name.startswith("pipeline.")
                   and name.endswith(".self_s"))
        assert rows > 0
        total = rows + layers["pipeline.unattributed_s"]["median"]
        wall = layers["pipeline.pass_wall_s"]["median"]
        assert abs(total - wall) <= 0.05 * wall
        assert layers["pipeline.unattributed_s"]["median"] >= 0


def test_a_dropped_report_fails_the_gate(monkeypatch, capsys):
    real = harness.serial_analyzer
    built = []

    def lossy_after_reference(library, on_report, observer=None):
        built.append(1)
        if len(built) == 1:
            return real(library, on_report, observer)
        dropped = []

        def lossy(report):
            if dropped:
                on_report(report)
            dropped.append(report)

        return real(library, lossy, observer)

    monkeypatch.setattr(harness, "serial_analyzer", lossy_after_reference)
    run = smoke_run("storm_serial")
    workloads.storm_serial(run)
    run.e2e["setup_s"] = run.setup_own
    run.e2e["peak_rss_mb"] = run.peak_rss_mb()
    assert run.finish() == 1
    assert run.failed >= 1
    assert run.layers["faults.unreported"] == 1
    assert run.e2e["localization_recall"] < 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] >= 1


def test_latency_is_taken_from_due_time(monkeypatch):
    """A sink that stalls its pump delays later reports; the open-loop
    generator keeps its schedule, so the stall shows as report
    latency and not as generator lag."""
    from repro.service import StreamingService

    real = StreamingService.on_report

    def stalling(self, sink):
        stalls = Counter()

        def wrapped(tenant, report):
            sink(tenant, report)
            stalls[tenant] += 1
            if stalls[tenant] <= 3:
                time.sleep(0.2)

        real(self, wrapped)

    monkeypatch.setattr(StreamingService, "on_report", stalling)
    run = smoke_run("paced_service", seconds=3.0)
    workloads.paced_service(run)
    assert not run.problems
    assert run.detail["latency_max_ms"] > 200.0
    assert run.detail["loadgen_lag_ms_p95"] < 100.0


def test_same_seed_same_inputs():
    run = smoke_run("storm_serial")
    library = harness.load_library(run)
    ranges = [(0, 3000, 30)]
    first = harness.build_stream(run, library, "s", 3000, ranges)
    again = harness.build_stream(run, library, "s", 3000, ranges)
    assert first == again
    assert len(first[1]) == 30
    other = harness.Run("storm_serial", 6, 0.5, False, "smoke", 0.0)
    second = harness.build_stream(other, library, "s", 3000, ranges)
    assert second != first
    # Every seed carries the same fault mix.
    plan = Counter(harness.fault_plan(library, 30))
    for events, seqs in (first, second):
        by_seq = {e.seq: e for e in events}
        assert all(by_seq[s].status == 500 for s in seqs)
        assert Counter(by_seq[s].api_key for s in seqs) == plan
        assert sum(e.status >= 400 for e in events) == len(seqs)


def test_stage_recorder_subtracts_nested_stages():
    recorder = harness.StageRecorder()
    began = harness.now()
    while harness.now() - began < 0.02:
        pass
    recorder.observe("detect", 0.02, 1)
    recorder.observe("publish", 0.0, 1)
    recorder.observe("latency", harness.now() - began + 0.01, 1)
    assert recorder.self_s["detect"] == pytest.approx(0.02)
    assert recorder.self_s["latency"] < 0.015


def ledger(values, spread=0.0):
    row = {"unit": "events/s", "values": values, "spread": spread,
           "median": sorted(values)[len(values) // 2]}
    cells = {m["name"]: dict(row) for m in SPEC["end_to_end"]}
    return {"runner": {}, "end_to_end": {"storm_serial": cells},
            "per_layer": {}}


def test_compare_verdicts(capsys):
    base = ledger([100.0, 101.0, 102.0])
    assert compare.compare(base, ledger([99.0, 100.0, 101.0])) == 0
    assert compare.compare(base, ledger([50.0, 51.0, 52.0])) == 1
    assert "exceeds" in capsys.readouterr().out
    # Worse by more than the bound, but the runs overlap and the
    # spread is wider than the bound: not resolved either way.
    noisy = ledger([40.0, 60.0, 120.0], spread=1.3)
    assert compare.compare(base, noisy) == 0
    assert "unresolved" in capsys.readouterr().out
