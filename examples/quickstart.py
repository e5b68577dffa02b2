#!/usr/bin/env python3
"""Quickstart: fingerprint a suite, break the cloud, let GRETEL explain.

Walks the full GRETEL pipeline in five steps:

1. generate the Tempest-like suite and characterize it offline
   (Algorithm 1 — operational fingerprints);
2. stand up a monitored deployment (network taps + collectd-style
   resource agents + dependency watchers on every node) and build the
   analyzer with the ``GretelAnalyzer`` constructor, attaching a custom
   middleware (a per-stage latency histogram — see
   ``docs/architecture.md``);
3. inject a fault: crash the Neutron Linux bridge agent on every
   hypervisor (the paper's §7.2.3 scenario);
4. run an administrative operation that trips over it;
5. print GRETEL's fault report: the offending API, the identified
   high-level operation(s), the precision θ, and the root cause;
6. print where the analysis wall clock went, stage by stage.

Run:  python examples/quickstart.py
"""

from repro import Cloud, GretelAnalyzer, GretelConfig, MonitoringPlane, WorkloadRunner
from repro.evaluation.common import default_characterization, default_suite


class StageLatencyHistogram:
    """Custom pipeline middleware: a log2 histogram of per-stage step
    latencies (anything with ``observe(stage, seconds, items)`` fits
    the ``StageObserver`` protocol)."""

    def __init__(self):
        self.buckets = {}

    def observe(self, stage, seconds, items):
        micros = max(1, int(seconds * 1e6))
        bucket = micros.bit_length() - 1   # floor(log2(µs))
        per_stage = self.buckets.setdefault(stage, {})
        per_stage[bucket] = per_stage.get(bucket, 0) + 1

    def render(self):
        lines = []
        for stage, histogram in sorted(self.buckets.items()):
            bars = "  ".join(
                f"~{2 ** bucket}µs ×{count}"
                for bucket, count in sorted(histogram.items())
            )
            lines.append(f"{stage:>10s}: {bars}")
        return "\n".join(lines)


def main() -> None:
    print("== 1. Characterizing the 1200-test suite (cached after first run)")
    character = default_characterization()
    print(f"   {len(character.library)} operational fingerprints, "
          f"largest = {character.fp_max} APIs")

    print("== 2. Deploying a monitored cloud")
    cloud = Cloud(seed=2026)
    plane = MonitoringPlane(cloud)
    histogram = StageLatencyHistogram()
    analyzer = GretelAnalyzer(
        character.library,
        store=plane.store,
        config=GretelConfig(p_rate=150.0),
        middleware=[histogram],
    )
    plane.subscribe_events(analyzer.on_event)
    plane.start()

    print("== 3. Injecting the fault: crashing every Linux bridge agent")
    downed = cloud.faults.crash_everywhere("neutron-plugin-linuxbridge-agent")
    print(f"   crashed on: {', '.join(downed)}")

    print("== 4. A tenant boots a VM...")
    suite = default_suite()
    boot = next(t for t in suite.tests if t.name.startswith("compute.boot_server"))
    outcome = WorkloadRunner(cloud).run_isolated(boot, settle=2.0)
    analyzer.flush()
    print(f"   operation ok={outcome.ok}")
    if outcome.error:
        print(f"   dashboard says: {outcome.error.splitlines()[0][:90]}")

    print("== 5. GRETEL's diagnosis")
    for report in analyzer.reports:
        print(f"   {report.summary()}")
        print(f"   precision theta = {report.theta:.4f} "
              f"({len(report.detection.matched)} of "
              f"{len(character.library)} operations matched)")

    ok = any(
        cause.subject == "neutron-plugin-linuxbridge-agent"
        for report in analyzer.reports for cause in report.root_causes
    )
    print(f"\nRoot cause (dead L2 agent) localized: {ok}")

    print("== 6. Per-stage latency histogram (custom middleware)")
    print(histogram.render())


if __name__ == "__main__":
    main()
