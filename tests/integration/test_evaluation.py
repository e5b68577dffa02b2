"""Smoke tests for the evaluation harness modules (reduced scales)."""

import pytest

from repro.evaluation import fig5, fig7, fig8c, table1
from repro.evaluation.common import run_fault_workload
from repro.core.config import GretelConfig


def test_table1_rows(full_character):
    rows = table1.run(full_character)
    # Table 1's shape: Compute dominates every column.
    table1.check(rows)
    by_category = {r["category"]: r for r in rows}
    assert by_category["compute"]["tests"] == 517
    for other in ("image", "network", "storage", "misc"):
        assert (by_category["compute"]["rest_events"]
                > by_category[other]["rest_events"])
    report = table1.format_report(rows)
    assert "compute" in report and "|" in report


def test_fig5_overlap_shape(full_character):
    series = fig5.run(full_character)
    assert len(series["all"]) == fig5.REPRESENTATIVES
    # Storage/image/misc barely overlap with instance operations.
    for category in ("storage", "image", "misc"):
        values = series[category]
        assert values[len(values) // 2] < 0.20, category
    # No representative is fully contained in another category.
    fig5.check(series, full_character)
    assert fig5.low_overlap_fraction(series) >= 0.0


def test_fig7_precision_cell(full_character):
    """One grid cell at reduced scale: θ must clear the paper's bar."""
    stats = run_fault_workload(
        concurrency=100, n_faults=8, character=full_character, seed=3,
        config=GretelConfig(p_rate=1300.0),
    )
    assert stats.injected == 8
    thetas = stats.thetas()
    assert sum(thetas) / len(thetas) > 0.97
    # Fig. 7b's shape: snapshot matching narrows far below the
    # API-error-only candidate set.
    assert sum(stats.matched_counts()) < sum(stats.candidate_counts()) / 3
    assert stats.max_report_delay() < 2.0


def test_fig8c_throughput_shape(full_character):
    points = fig8c.run(full_character, fault_frequencies=(100, 2000),
                       events_per_point=20_000)
    frequent, rare = points
    # Rarer faults → higher effective throughput (the Fig. 8c shape).
    assert rare.gretel_effective_eps > frequent.gretel_effective_eps
    # GRETEL's ingest path beats HANSEL's per-message stitching.
    assert rare.gretel_ingest_eps > rare.hansel_eps
    assert frequent.snapshots > rare.snapshots
    report = fig8c.format_report(points)
    assert "HANSEL" in report


def test_suite_covers_only_subset_of_public_apis(full_character):
    """§7.1's limitation: Tempest exercises only a subset of the 643
    public APIs, so characterization cannot fingerprint everything."""
    from repro.openstack.catalog import PUBLIC_REST_API_COUNT, default_catalog

    catalog = default_catalog()
    used = set()
    for stats in full_character.stats.values():
        used |= stats.unique_rest
    rest_used = [k for k in used if catalog.get(k).kind.value == "rest"]
    assert len(rest_used) < PUBLIC_REST_API_COUNT
    # A meaningful chunk is exercised nonetheless.
    assert len(rest_used) > 100


def test_alpha_scales_with_paper_formula(full_character):
    """α = 2·max{FP_max, P_rate·t} responds to both drivers."""
    from repro.core.analyzer import GretelAnalyzer
    from repro.core.config import GretelConfig

    slow = GretelAnalyzer(full_character.library,
                          config=GretelConfig(p_rate=10.0))
    fast = GretelAnalyzer(full_character.library,
                          config=GretelConfig(p_rate=5000.0))
    assert slow.alpha == 2 * full_character.library.fp_max
    assert fast.alpha == 10_000
