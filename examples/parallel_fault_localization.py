#!/usr/bin/env python3
"""§3.1.3 — pinpointing one failed operation among many parallel ones.

A production-like mix of 120 concurrent administrative operations runs
against the cloud; exactly one of them (a volume-attach scenario) is
made faulty.  Log analysis sees nothing at ERROR level; HANSEL reports
a low-level message chain 30+ seconds later; GRETEL names the faulty
high-level operation within its sliding window.

"Parallel" is the workload, not the analyzer: one ``GretelAnalyzer``,
built here with a ``StageTimer`` middleware, takes every capture
agent's wire events and reports what each pipeline stage cost.

Run:  python examples/parallel_fault_localization.py
"""

import random

from repro import Cloud, GretelAnalyzer, GretelConfig, MonitoringPlane, WorkloadRunner
from repro.baselines.hansel import HanselAnalyzer
from repro.core.pipeline import StageTimer
from repro.baselines.loganalysis import LogAnalysisBaseline
from repro.evaluation.common import default_characterization, default_suite, p_rate_for


def main() -> None:
    character = default_characterization()
    suite = default_suite()

    cloud = Cloud(seed=77)
    plane = MonitoringPlane(cloud)
    timer = StageTimer()
    analyzer = GretelAnalyzer(
        character.library,
        store=plane.store,
        config=GretelConfig(p_rate=p_rate_for(120)),
        track_latency=False,
        middleware=[timer],
    )
    plane.subscribe_events(analyzer.on_event)
    plane.start()

    hansel = HanselAnalyzer()
    wire_log = []
    cloud.taps.attach_global(hansel.on_event)
    cloud.taps.attach_global(wire_log.append)

    rng = random.Random(4)
    mix = suite.sample(120, rng)
    faulty = next(t for t in suite.tests
                  if t.name.startswith("compute.attach_volume"))
    cloud.faults.inject_api_error(
        "rest:nova:POST:/v2.1/servers/{id}/os-volume_attachments",
        500, "volume attach failed", count=1, op_id=faulty.test_id,
    )

    print(f"Running {len(mix)} healthy operations + 1 faulty "
          f"({faulty.name}) concurrently...")
    outcomes = WorkloadRunner(cloud).run_concurrent(
        mix + [faulty], stagger=0.01, settle=2.0
    )
    analyzer.flush()
    hansel.flush()

    failed = [o for o in outcomes if not o.ok]
    print(f"Outcomes: {len(outcomes) - len(failed)} ok, {len(failed)} failed\n")

    print("--- log analysis ---")
    logs = LogAnalysisBaseline()
    logs.ingest(wire_log)
    for level in ("ERROR", "WARNING"):
        diagnosis = logs.diagnose(level)
        print(f"  at {level}: found_anything={diagnosis['found_anything']} "
              f"(after {diagnosis['answer_latency']:.0f}s of collation)")

    print("\n--- HANSEL ---")
    for report in hansel.reports[:2]:
        print(f"  chain of {report.chain_length} messages ending at "
              f"{report.fault_event.method} {report.fault_event.name}; "
              f"reported {report.reporting_latency:.0f}s after the fault; "
              f"no operation name, no root cause")

    print("\n--- GRETEL ---")
    for report in analyzer.operational_reports[:3]:
        hit = faulty.test_id in report.detection.operations
        print(f"  fault {report.fault_event.method} {report.fault_event.name} "
              f"[{report.fault_event.status}]")
        print(f"    matched {len(report.detection.matched)} operation(s), "
              f"theta={report.theta:.4f}, "
              f"ground-truth operation in set: {hit}")
        print(f"    reported {report.report_delay:.2f}s after the fault")

    print("\n  per-stage wall clock (StageTimer):")
    for line in timer.summary().splitlines():
        print(f"    {line}")


if __name__ == "__main__":
    main()
