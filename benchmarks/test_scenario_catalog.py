"""Scenario catalog — graded fault-injection evaluation scorecard.

Small scale runs the cheap live/synthetic scenarios; full scale runs
the entire catalog including the sustained-load performance capture
and renders the committed-scorecard table under ``results/``.
"""

from conftest import full_scale

from repro.scenarios import (
    build_scorecard,
    names,
    render_scorecard,
    run_catalog,
)

#: The sustained 48-way, 24-simulated-second capture dominates wall
#: clock; small scale leaves it (and only it) out.
EXPENSIVE = ("performance_level_shift",)


def test_scenario_catalog_scorecard(character, save_result):
    if full_scale():
        selected = None
    else:
        selected = [n for n in names() if n not in EXPENSIVE]
    result = run_catalog(character, seed=0, names=selected)
    document = build_scorecard(result)
    save_result("scenario_catalog", render_scorecard(document))
    assert result.all_pass
    # ``repro scenarios run`` returns exactly this predicate as its
    # exit code (0 pass / 1 fail — the CLI exit-code contract).
    assert result.exit_code == 0
    # Catalog-wide micro-averaged detection quality (Fig. 5-7 shape):
    # every injected fault instance is recalled, and report precision
    # stays high even with the level-shift detector's warm-up noise.
    assert result.counts.recall == 1.0
    assert result.counts.precision is not None
    assert result.counts.precision >= 0.9
