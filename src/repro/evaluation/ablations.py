"""Ablations of the design choices DESIGN.md calls out, and the §5.3.1
correlation-identifier extension.

Each ablation disables one GRETEL mechanism and re-runs the §7.3 fault
workload (100 concurrent tests, 8 injected faults, three seeds),
quantifying what the mechanism buys.  Two need no cloud: the noise
filter is judged on fingerprint sizes, the detector choice on one
synthetic latency series.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from repro.core.characterize import CharacterizationResult, characterize_suite
from repro.core.fingerprint import longest_common_subsequence
from repro.core.outliers import StaticThresholdDetector
from repro.core.streamstats import IncrementalLevelShiftDetector
from repro.evaluation.common import default_suite
from repro.evaluation.fig7 import PrecisionCell, aggregate
from repro.openstack.cloud import Cloud
from repro.workloads.tempest import TempestSuite

SEEDS = (3, 4, 5)

#: ``{variant: cell}`` — what the workload ablations return.
Cells = Dict[str, PrecisionCell]


def _cell(character: CharacterizationResult, fault_phase: str = "late",
          **overrides: object) -> PrecisionCell:
    return aggregate(100, 8, character, SEEDS, fault_phase=fault_phase,
                     **overrides)


# -- Alg. 2's truncation ----------------------------------------------------

def run_truncation(character: CharacterizationResult) -> Cells:
    """Without truncation, operational faults must match full
    fingerprints that never finished executing.  Early-phase faults
    are the discriminating case — for a fault near the end of an
    operation the truncated and full fingerprints coincide."""
    return {
        "with": _cell(character, fault_phase="early"),
        "without": _cell(character, fault_phase="early",
                         truncate_fingerprints=False),
    }


def format_truncation(cells: Cells) -> str:
    with_trunc, without = cells["with"], cells["without"]
    return "\n".join([
        "Ablation: fingerprint truncation at the offending API (Alg. 2)",
        "(early-phase faults: the operation never ran past the failure)",
        f"  with truncation:    theta={with_trunc.theta:.4f} "
        f"matched={with_trunc.matched_mean:.1f} "
        f"ground-truth hit rate={with_trunc.true_hit_rate:.2f}",
        f"  without truncation: theta={without.theta:.4f} "
        f"matched={without.matched_mean:.1f} "
        f"ground-truth hit rate={without.true_hit_rate:.2f}",
        "  (without truncation, the smaller match sets are bystander"
        " operations: the faulty operation itself cannot match its own"
        " full fingerprint)",
    ])


def check_truncation(cells: Cells) -> None:
    assert cells["with"].theta > 0.94
    # Truncation is what lets the incomplete faulty operation match.
    assert cells["with"].true_hit_rate > cells["without"].true_hit_rate


# -- §5.3.1's relaxation ----------------------------------------------------

def run_relaxed_match(character: CharacterizationResult) -> Cells:
    """Strict matching requires every symbol (reads included) in
    order.  When the sliding window is tight relative to operation
    length — exactly when the paper's relaxation matters — strict
    matching returns *no* operation far more often."""
    return {
        "relaxed": _cell(character, alpha=400),
        "strict": _cell(character, alpha=400, relaxed_match=False),
    }


def format_relaxed_match(cells: Cells) -> str:
    relaxed, strict = cells["relaxed"], cells["strict"]
    return "\n".join([
        "Ablation: relaxed (state-change-order) vs strict matching",
        "(sliding window deliberately tight: alpha=400 under 100-op load)",
        f"  relaxed: theta={relaxed.theta:.4f} "
        f"matched={relaxed.matched_mean:.1f} "
        f"no-match faults={relaxed.no_match}/{relaxed.reports}",
        f"  strict:  theta={strict.theta:.4f} "
        f"matched={strict.matched_mean:.1f} "
        f"no-match faults={strict.no_match}/{strict.reports}",
    ])


def check_relaxed_match(cells: Cells) -> None:
    # The relaxation is what keeps false negatives down when parts of
    # the fingerprint fall outside the window (Fig. 4's missing-A case).
    assert cells["strict"].no_match > cells["relaxed"].no_match


# -- the adaptive context buffer --------------------------------------------

def run_context_buffer(character: CharacterizationResult) -> Cells:
    """The adaptive context buffer vs matching the whole window."""
    return {
        "adaptive": _cell(character),
        "whole": _cell(character, adaptive_context=False),
    }


def format_context_buffer(cells: Cells) -> str:
    adaptive, whole = cells["adaptive"], cells["whole"]
    return "\n".join([
        "Ablation: adaptive context buffer (grow by delta until theta drops)",
        f"  adaptive:     theta={adaptive.theta:.4f} "
        f"matched={adaptive.matched_mean:.1f}",
        f"  whole window: theta={whole.theta:.4f} "
        f"matched={whole.matched_mean:.1f}",
    ])


def check_context_buffer(cells: Cells) -> None:
    assert cells["adaptive"].theta >= cells["whole"].theta - 0.02


# -- §5.3.1 future work: correlation identifiers ----------------------------

def run_correlation_ids(character: CharacterizationResult) -> Cells:
    """Correlation identifiers shrink the match pool to the offending
    request chain."""
    return {
        "baseline": _cell(character),
        "correlated": _cell(character, use_correlation_ids=True),
    }


def format_correlation_ids(cells: Cells) -> str:
    baseline, correlated = cells["baseline"], cells["correlated"]
    return "\n".join([
        "Extension: correlation-id filtering (paper §5.3.1 future work)",
        f"  without correlation ids: theta={baseline.theta:.4f} "
        f"matched={baseline.matched_mean:.1f} "
        f"ground-truth hit rate={baseline.true_hit_rate:.2f}",
        f"  with correlation ids:    theta={correlated.theta:.4f} "
        f"matched={correlated.matched_mean:.1f} "
        f"ground-truth hit rate={correlated.true_hit_rate:.2f}",
    ])


def check_correlation_ids(cells: Cells) -> None:
    baseline, correlated = cells["baseline"], cells["correlated"]
    # Filtering to the request chain pins the ground-truth operation.
    assert correlated.true_hit_rate >= baseline.true_hit_rate
    assert correlated.true_hit_rate >= 0.85
    assert correlated.theta >= baseline.theta - 0.03


# -- Algorithm 1's noise filter ---------------------------------------------

def run_noise_filter(
    character: Optional[CharacterizationResult] = None,
) -> Tuple[float, float]:
    """Average fingerprint size of ten Compute tests with the noise
    filter and without it (the LCS of the raw traces, which carry
    heartbeats, keystone legs and poll loops)."""
    sample = TempestSuite(tests=[
        t for t in default_suite().tests if t.category == "compute"
    ][:10])
    traces: List[List[str]] = []

    def recording_cloud(seed: int) -> Cloud:
        cloud = Cloud(seed=seed)
        trace: List[str] = []
        traces.append(trace)
        cloud.taps.attach_global(lambda event: trace.append(event.api_key))
        return cloud

    iterations = 2
    filtered = characterize_suite(
        sample, iterations=iterations, seed=99,
        cloud_factory=recording_cloud,
    )
    raw_sizes = [
        len(longest_common_subsequence(
            *sorted(traces[first:first + iterations], key=len)
        ))
        for first in range(0, len(traces), iterations)
    ]
    sizes = [len(fingerprint) for fingerprint in filtered.library]
    return sum(sizes) / len(sizes), sum(raw_sizes) / len(raw_sizes)


def format_noise_filter(sizes: Tuple[float, float]) -> str:
    filtered_size, raw_size = sizes
    return "\n".join([
        "Ablation: Algorithm 1 noise filtering",
        f"  avg fingerprint size with filter:    {filtered_size:.1f}",
        f"  avg fingerprint size without filter: {raw_size:.1f}",
        f"  noise fraction removed: {1 - filtered_size / raw_size:.0%}",
    ])


def check_noise_filter(sizes: Tuple[float, float]) -> None:
    filtered_size, raw_size = sizes
    assert raw_size > filtered_size


# -- §6: LS, not a static threshold -----------------------------------------

def run_detector_choice(
    character: Optional[CharacterizationResult] = None,
) -> Dict[str, Tuple[int, int]]:
    """Feed both detectors the same drifting latency series (organic
    load growth + one injected shift); ``(alarms, alarms during the
    shift)`` per detector."""
    rng = random.Random(7)
    detectors = (("LS", IncrementalLevelShiftDetector()),
                 ("static", StaticThresholdDetector(threshold=0.015)))
    alarms = {name: [0, 0] for name, _ in detectors}
    ts = 0.0
    for step in range(2000):
        ts += 0.05
        base = 0.010 + 0.000008 * step          # slow organic drift
        if 600 <= step < 900:
            base += 0.040                        # the injected shift
        value = base + rng.uniform(0, 0.002)
        for name, detector in detectors:
            shift = detector.update(ts, value)
            if shift is None:
                continue
            alarms[name][0] += 1
            if 30.0 <= shift.ts <= 47.0:
                alarms[name][1] += 1
    return {name: (total, during) for name, (total, during) in alarms.items()}


def format_detector_choice(alarms: Dict[str, Tuple[int, int]]) -> str:
    return "\n".join([
        "Ablation: LS (adaptive) vs static-threshold latency detection",
        "(organic drift + one 40ms injected shift at t=[30s,45s))",
        f"  LS:     {alarms['LS'][0]} alarms, "
        f"{alarms['LS'][1]} during the injected shift",
        f"  static: {alarms['static'][0]} alarms, "
        f"{alarms['static'][1]} during the injected shift",
        "  (the static threshold keeps alarming once drift crosses it;",
        "   LS adapts and re-alarms only on genuine shifts)",
    ])


def check_detector_choice(alarms: Dict[str, Tuple[int, int]]) -> None:
    assert alarms["LS"][1] >= 1
    assert alarms["static"][0] > 3 * max(1, alarms["LS"][0])
