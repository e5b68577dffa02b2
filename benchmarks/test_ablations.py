"""Ablation benches for the design choices DESIGN.md calls out.

Each ablation disables one GRETEL mechanism and re-runs a reduced
§7.3-style fault workload, quantifying what the mechanism buys.
"""

from conftest import full_scale

from repro.core.config import GretelConfig
from repro.evaluation.common import p_rate_for, run_fault_workload


def _run(character, seed=3, fault_phase="late", **overrides):
    config = GretelConfig(p_rate=p_rate_for(100), **overrides)
    return run_fault_workload(
        concurrency=100, n_faults=8, character=character,
        seed=seed, config=config, fault_phase=fault_phase,
    )


def _aggregate(character, seeds, fault_phase="late", **overrides):
    thetas, matched, hits = [], [], []
    misses = 0
    for seed in seeds:
        stats = _run(character, seed=seed, fault_phase=fault_phase,
                     **overrides)
        thetas.extend(stats.thetas())
        matched.extend(stats.matched_counts())
        hits.extend(stats.true_hits())
        misses += sum(1 for n in stats.matched_counts() if n == 0)
    mean = lambda xs: sum(xs) / len(xs) if xs else 0.0  # noqa: E731
    return {
        "theta": mean(thetas),
        "matched": mean(matched),
        "reports": len(thetas),
        "false_negatives": misses,
        "true_hit": mean([1.0 if h else 0.0 for h in hits]),
    }


def _seeds():
    return (3, 4, 5) if full_scale() else (3,)


def test_ablation_truncation(character, save_result):
    """Alg. 2's truncation: without it, operational faults must match
    full fingerprints that never finished executing.  Early-phase
    faults are the discriminating case — for a fault near the end of
    an operation the truncated and full fingerprints coincide."""
    with_trunc = _aggregate(character, _seeds(), fault_phase="early")
    without = _aggregate(character, _seeds(), fault_phase="early",
                         truncate_fingerprints=False)
    save_result("ablation_truncation", "\n".join([
        "Ablation: fingerprint truncation at the offending API (Alg. 2)",
        "(early-phase faults: the operation never ran past the failure)",
        f"  with truncation:    theta={with_trunc['theta']:.4f} "
        f"matched={with_trunc['matched']:.1f} "
        f"ground-truth hit rate={with_trunc['true_hit']:.2f}",
        f"  without truncation: theta={without['theta']:.4f} "
        f"matched={without['matched']:.1f} "
        f"ground-truth hit rate={without['true_hit']:.2f}",
        "  (without truncation, the smaller match sets are bystander"
        " operations: the faulty operation itself cannot match its own"
        " full fingerprint)",
    ]))
    assert with_trunc["theta"] > 0.94
    # Truncation is what lets the incomplete faulty operation match.
    assert with_trunc["true_hit"] > without["true_hit"]


def test_ablation_relaxed_match(character, save_result):
    """§5.3.1's relaxation: strict matching requires every symbol
    (reads included) in order.  When the sliding window is tight
    relative to operation length — exactly when the paper's relaxation
    matters — strict matching returns *no* operation far more often."""
    relaxed = _aggregate(character, _seeds(), alpha=400)
    strict = _aggregate(character, _seeds(), alpha=400, relaxed_match=False)
    save_result("ablation_relaxed_match", "\n".join([
        "Ablation: relaxed (state-change-order) vs strict matching",
        "(sliding window deliberately tight: alpha=400 under 100-op load)",
        f"  relaxed: theta={relaxed['theta']:.4f} "
        f"matched={relaxed['matched']:.1f} "
        f"no-match faults={relaxed['false_negatives']}/{relaxed['reports']}",
        f"  strict:  theta={strict['theta']:.4f} "
        f"matched={strict['matched']:.1f} "
        f"no-match faults={strict['false_negatives']}/{strict['reports']}",
    ]))
    # The relaxation is what keeps false negatives down when parts of
    # the fingerprint fall outside the window (Fig. 4's missing-A case).
    assert strict["false_negatives"] > relaxed["false_negatives"]


def test_ablation_adaptive_context(character, save_result):
    """The adaptive context buffer vs matching the whole window."""
    adaptive = _aggregate(character, _seeds())
    whole = _aggregate(character, _seeds(), adaptive_context=False)
    save_result("ablation_context_buffer", "\n".join([
        "Ablation: adaptive context buffer (grow by delta until theta drops)",
        f"  adaptive:     theta={adaptive['theta']:.4f} "
        f"matched={adaptive['matched']:.1f}",
        f"  whole window: theta={whole['theta']:.4f} "
        f"matched={whole['matched']:.1f}",
    ]))
    assert adaptive["theta"] >= whole["theta"] - 0.02


def test_extension_correlation_ids(character, save_result):
    """§5.3.1 future work: correlation identifiers shrink the match
    pool to the offending request chain."""
    baseline = _aggregate(character, _seeds())
    correlated = _aggregate(character, _seeds(), use_correlation_ids=True)
    save_result("extension_correlation_ids", "\n".join([
        "Extension: correlation-id filtering (paper §5.3.1 future work)",
        f"  without correlation ids: theta={baseline['theta']:.4f} "
        f"matched={baseline['matched']:.1f} "
        f"ground-truth hit rate={baseline['true_hit']:.2f}",
        f"  with correlation ids:    theta={correlated['theta']:.4f} "
        f"matched={correlated['matched']:.1f} "
        f"ground-truth hit rate={correlated['true_hit']:.2f}",
    ]))
    # Filtering to the request chain pins the ground-truth operation.
    assert correlated["true_hit"] >= baseline["true_hit"]
    assert correlated["true_hit"] >= 0.85
    assert correlated["theta"] >= baseline["theta"] - 0.03


def test_ablation_noise_filter(character, save_result):
    """Algorithm 1's noise filtering: without it, fingerprints carry
    heartbeats, keystone legs and poll loops."""
    from repro.openstack.catalog import default_catalog
    from repro.core.fingerprint import generate_fingerprint
    from repro.core.characterize import characterize_suite
    from repro.workloads.tempest import TempestSuite
    from repro.evaluation.common import default_suite

    # Re-trace a handful of tests and compare fingerprint sizes with
    # the noise filter on vs off (off = raw trace into the LCS).
    suite = default_suite()
    sample = TempestSuite(tests=[
        t for t in suite.tests if t.category == "compute"
    ][:10])
    filtered = characterize_suite(sample, iterations=2, seed=99)

    catalog = default_catalog()
    symbols = filtered.library.symbols
    import repro.core.fingerprint as fp_module

    original = fp_module.filter_noise
    fp_module.filter_noise = lambda keys, _catalog: list(keys)
    try:
        raw = characterize_suite(sample, iterations=2, seed=99)
    finally:
        fp_module.filter_noise = original

    mean = lambda lib: sum(len(f) for f in lib) / len(lib)  # noqa: E731
    filtered_size = mean(filtered.library)
    raw_size = mean(raw.library)
    save_result("ablation_noise_filter", "\n".join([
        "Ablation: Algorithm 1 noise filtering",
        f"  avg fingerprint size with filter:    {filtered_size:.1f}",
        f"  avg fingerprint size without filter: {raw_size:.1f}",
        f"  noise fraction removed: {1 - filtered_size / raw_size:.0%}",
    ]))
    assert raw_size > filtered_size


def test_ablation_detector_choice(character, save_result):
    """§6: why LS and not a static threshold — feed both detectors the
    same drifting latency series (organic load growth + one injected
    shift) and count alarms."""
    import random

    from repro.core.outliers import StaticThresholdDetector
    from repro.core.streamstats import IncrementalLevelShiftDetector

    rng = random.Random(7)
    series = []
    ts = 0.0
    for step in range(2000):
        ts += 0.05
        base = 0.010 + 0.000008 * step          # slow organic drift
        if 600 <= step < 900:
            base += 0.040                        # the injected shift
        series.append((ts, base + rng.uniform(0, 0.002)))

    adaptive = IncrementalLevelShiftDetector(min_delta=0.004, cooldown=5.0)
    static = StaticThresholdDetector(threshold=0.015)
    for ts, value in series:
        adaptive.update(ts, value)
        static.update(ts, value)

    in_window = lambda alarms: sum(  # noqa: E731
        1 for a in alarms if 30.0 <= a.ts <= 47.0
    )
    save_result("ablation_detector_choice", "\n".join([
        "Ablation: LS (adaptive) vs static-threshold latency detection",
        "(organic drift + one 40ms injected shift at t=[30s,45s))",
        f"  LS:     {len(adaptive.alarms)} alarms, "
        f"{in_window(adaptive.alarms)} during the injected shift",
        f"  static: {len(static.alarms)} alarms, "
        f"{in_window(static.alarms)} during the injected shift",
        "  (the static threshold keeps alarming once drift crosses it;",
        "   LS adapts and re-alarms only on genuine shifts)",
    ]))
    assert in_window(adaptive.alarms) >= 1
    assert len(static.alarms) > 3 * max(1, len(adaptive.alarms))
