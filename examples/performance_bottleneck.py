#!/usr/bin/env python3
"""§3.1.2 / §7.2.2 — localizing a performance fault (no error anywhere).

Operations keep *succeeding*, just slowly: a CPU surge on the Neutron
server inflates the latency of its port APIs.  Nothing is logged at
any level; HANSEL never triggers (no operational error exists).
GRETEL's level-shift detector flags the latency anomaly, fingerprints
identify the affected operation type, and root cause analysis finds
the CPU surge on the Neutron node.

Run:  python examples/performance_bottleneck.py
"""

from repro.evaluation import case_studies
from repro.evaluation.common import default_characterization


def main() -> None:
    character = default_characterization()
    print("Running a sustained parallel workload with a CPU surge on "
          "the Neutron server mid-run...")
    # The case study's 60 operations x 30 s capture: the smallest run
    # that still shows the mechanism (repro evaluate fig6 is the
    # paper-scale one).
    result = case_studies.neutron_api_latency(character)
    print(result.summary())

    print("\nLevel-shift alarms (observed vs baseline latency):")
    for ts, observed, baseline in result.details["alarms"][:8]:
        print(f"  t={ts:7.2f}s  {baseline * 1000:6.2f} ms -> "
              f"{observed * 1000:6.2f} ms")

    print("\nPerformance fault reports:")
    for report in result.reports[:4]:
        print(f"  {report.summary()}")

    if result.diagnosis_correct:
        print("\nGRETEL attributed the latency increase to CPU pressure "
              "on neutron-ctl — the paper's §7.2.2 diagnosis.")
    else:
        print("\nRoot cause not found (try a longer run).")


if __name__ == "__main__":
    main()
