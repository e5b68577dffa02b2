"""Compare two ledgers written by ``run.py``.

    python benchmarks/e2e/compare.py A.json B.json

For every (end-to-end metric, workload) prints both medians, the
relative difference with A as its base, the metric's bound from
``BENCHMARK.json`` and a verdict:

``within``      B's median is no worse than A's by more than the bound;
``exceeds``     it is worse by more than the bound, and the runs
                resolve it;
``unresolved``  it is worse by more than the bound but either side's
                run-to-run spread is wider than the bound, and not
                every B run is worse than every A run.

Exit 1 on any ``exceeds``.  Per-layer metrics have no bound; their
relative differences are printed for reading the budget, never judged.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Dict, List

import harness


def worse_by(base: float, other: float, better: str) -> float:
    """How much worse ``other`` is than ``base``, as a share of base."""
    if base == 0:
        return 0.0 if other == 0 else float("inf")
    change = (other - base) / abs(base)
    return change if better == "lower" else -change


def verdict(a: Dict[str, Any], b: Dict[str, Any], better: str,
            bound: float) -> str:
    if worse_by(a["median"], b["median"], better) <= bound:
        return "within"
    if better == "lower":
        separated = min(b["values"]) > max(a["values"])
    else:
        separated = max(b["values"]) < min(a["values"])
    noisy = max(a["spread"], b["spread"]) > bound
    return "unresolved" if noisy and not separated else "exceeds"


def compare(a: Dict[str, Any], b: Dict[str, Any]) -> int:
    spec = harness.load_spec()
    print(f"A: {json.dumps(a['runner'], sort_keys=True)}")
    print(f"B: {json.dumps(b['runner'], sort_keys=True)}")
    exceeded: List[str] = []
    for metric in spec["end_to_end"]:
        name, better = metric["name"], metric["better"]
        for workload in a["end_to_end"]:
            if workload not in b["end_to_end"]:
                continue
            row_a = a["end_to_end"][workload][name]
            row_b = b["end_to_end"][workload][name]
            outcome = verdict(row_a, row_b, better, metric["bound"])
            if outcome == "exceeds":
                exceeded.append(f"{name} on {workload}")
            change = worse_by(row_a["median"], row_b["median"], better)
            print(
                f"{name:24s} {workload:17s} A {row_a['median']:14.4f} "
                f"B {row_b['median']:14.4f} {metric['unit']:9s} "
                f"worse by {change:+.3f} of A (spread A "
                f"{row_a['spread']:.3f} B {row_b['spread']:.3f}) "
                f"bound {metric['bound']:.2f} {outcome}"
            )
    for workload, table in a["per_layer"].items():
        for name, row_a in table.items():
            row_b = b["per_layer"].get(workload, {}).get(name)
            if row_b is None or not (row_a["median"] or row_b["median"]):
                continue
            base = row_a["median"]
            change = (row_b["median"] - base) / abs(base) if base else 0.0
            print(f"{name:38s} {workload:17s} A {base:14.4f} "
                  f"B {row_b['median']:14.4f} {row_a['unit']:9s} "
                  f"{change:+.3f} of A")
    for line in exceeded:
        print(f"EXCEEDS {line}")
    return 1 if exceeded else 0


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        sys.stderr.write(__doc__ or "")
        return 2
    ledgers = []
    for path in argv:
        with open(path, encoding="utf-8") as handle:
            ledgers.append(json.load(handle))
    return compare(*ledgers)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
