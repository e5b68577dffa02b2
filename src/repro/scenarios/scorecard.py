"""The committed catalog scorecard and its drift gate.

``results/SCENARIOS.json`` is the pinned-seed record of what the
catalog scores: per-scenario oracle grades, confusion counts, and the
micro-averaged catalog precision / recall / F1.  CI re-runs the
catalog at the same seed and diffs against the committed file — the
scorecard only changes when a commit *deliberately* moves detection
quality, and the diff is the review artifact.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from repro.scenarios.runner import CatalogResult

SCHEMA = "gretel-scenarios/v2"


def build_scorecard(result: CatalogResult) -> Dict[str, Any]:
    """The JSON-stable scorecard document for one catalog run."""
    document = result.to_dict()
    document["schema"] = SCHEMA
    return document


def render_scorecard(document: Dict[str, Any]) -> str:
    """Human-readable table of a scorecard document."""
    def fmt(value: Optional[float]) -> str:
        return "  n/a" if value is None else f"{value:.3f}"

    lines: List[str] = []
    header = (f"{'scenario':<26} {'family':<13} {'grade':<5} "
              f"{'prec':>5} {'rec':>5} {'reports':>7}")
    lines.append(header)
    lines.append("-" * len(header))
    for entry in document["scenarios"]:
        counts = entry["counts"]
        grade = "PASS" if entry["passed"] else "FAIL"
        lines.append(
            f"{entry['name']:<26} {entry['family']:<13} {grade:<5} "
            f"{fmt(counts['precision']):>5} {fmt(counts['recall']):>5} "
            f"{entry['serial_reports']:>7}"
        )
    catalog = document["catalog"]
    lines.append("-" * len(header))
    lines.append(
        f"{'catalog (micro)':<26} {'':<13} "
        f"{'PASS' if document['all_pass'] else 'FAIL':<5} "
        f"{fmt(catalog['precision']):>5} {fmt(catalog['recall']):>5}"
    )
    f1 = catalog["f1"]
    lines.append(
        f"seed={document['seed']} "
        f"f1={'n/a' if f1 is None else format(f1, '.3f')}"
    )
    return "\n".join(lines)


def dump_scorecard(document: Dict[str, Any]) -> str:
    """Canonical serialized form (what gets committed)."""
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def diff_scorecards(committed: Dict[str, Any],
                    fresh: Dict[str, Any]) -> List[str]:
    """Human-readable drift between two scorecards; empty = no drift.

    Compares the gate-relevant facts — schema, seed, the
    scenario set, each scenario's pass verdict and confusion counts,
    and the catalog micro-average — while ignoring free-text details
    so reworded oracle messages don't trip CI.
    """
    drift: List[str] = []
    for key in ("schema", "seed"):
        if committed.get(key) != fresh.get(key):
            drift.append(
                f"{key}: committed {committed.get(key)!r} "
                f"!= fresh {fresh.get(key)!r}"
            )

    def by_name(doc: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
        return {e["name"]: e for e in doc.get("scenarios", [])}

    old, new = by_name(committed), by_name(fresh)
    for name in sorted(set(old) - set(new)):
        drift.append(f"scenario removed: {name}")
    for name in sorted(set(new) - set(old)):
        drift.append(f"scenario added: {name}")
    for name in sorted(set(old) & set(new)):
        for key in ("passed", "counts", "injected", "events",
                    "serial_reports"):
            if old[name].get(key) != new[name].get(key):
                drift.append(
                    f"{name}.{key}: committed {old[name].get(key)!r} "
                    f"!= fresh {new[name].get(key)!r}"
                )
    for key in ("catalog", "all_pass"):
        if committed.get(key) != fresh.get(key):
            drift.append(
                f"{key}: committed {committed.get(key)!r} "
                f"!= fresh {fresh.get(key)!r}"
            )
    return drift
