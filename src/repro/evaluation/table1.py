"""Table 1 — characterization of the Tempest-like suite (§7.1)."""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.characterize import CharacterizationResult
from repro.evaluation.common import default_characterization

#: The paper's Table 1, for side-by-side reporting.
PAPER_TABLE1 = [
    {"category": "compute", "tests": 517, "unique_rpc": 61, "unique_rest": 195,
     "rpc_events": 77_200, "rest_events": 87_800,
     "avg_fp_with_rpc": 100, "avg_fp_without_rpc": 56},
    {"category": "image", "tests": 55, "unique_rpc": 10, "unique_rest": 38,
     "rpc_events": 900, "rest_events": 4_800,
     "avg_fp_with_rpc": 18, "avg_fp_without_rpc": 15},
    {"category": "network", "tests": 251, "unique_rpc": 24, "unique_rest": 70,
     "rpc_events": 20_200, "rest_events": 18_500,
     "avg_fp_with_rpc": 31, "avg_fp_without_rpc": 16},
    {"category": "storage", "tests": 84, "unique_rpc": 11, "unique_rest": 40,
     "rpc_events": 3_500, "rest_events": 6_200,
     "avg_fp_with_rpc": 17, "avg_fp_without_rpc": 15},
    {"category": "misc", "tests": 293, "unique_rpc": 11, "unique_rest": 20,
     "rpc_events": 9_100, "rest_events": 14_100,
     "avg_fp_with_rpc": 16, "avg_fp_without_rpc": 11},
]


def run(character: Optional[CharacterizationResult] = None) -> List[Dict]:
    """Regenerate the measured Table 1 rows."""
    character = character or default_characterization()
    return character.table1_rows()


def format_report(rows: List[Dict]) -> str:
    """Measured-vs-paper rendering."""
    paper = {row["category"]: row for row in PAPER_TABLE1}
    lines = [
        "Table 1: Tempest suite characterization (measured | paper)",
        f"{'category':10s} {'tests':>12s} {'uRPC':>11s} {'uREST':>11s} "
        f"{'RPC evts':>15s} {'REST evts':>16s} {'fp w/RPC':>13s} {'fp w/o':>12s}",
    ]
    for row in rows:
        name = row["category"]
        reference = paper.get(name, {})

        def cell(key: str, width: int) -> str:
            measured = row.get(key)
            expected = reference.get(key)
            m = "-" if measured is None else f"{measured:g}"
            p = "-" if expected is None else f"{expected:g}"
            return f"{m}|{p}".rjust(width)

        lines.append(
            f"{name:10s} {cell('tests', 12)} {cell('unique_rpc', 11)} "
            f"{cell('unique_rest', 11)} {cell('rpc_events', 15)} "
            f"{cell('rest_events', 16)} {cell('avg_fp_with_rpc', 13)} "
            f"{cell('avg_fp_without_rpc', 12)}"
        )
    return "\n".join(lines)


def check(rows: List[Dict]) -> None:
    """Shape: Compute dominates tests, events and fingerprint size."""
    by_category = {r["category"]: r for r in rows}
    assert by_category["total"]["tests"] == 1200
    for other in ("image", "network", "storage", "misc"):
        assert (by_category["compute"]["avg_fp_with_rpc"]
                > by_category[other]["avg_fp_with_rpc"]), other
