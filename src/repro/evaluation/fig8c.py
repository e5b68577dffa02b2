"""Fig. 8c — analyzer throughput versus fault frequency (§7.4.1).

The paper replays synthetic event streams at up to 50K packets/second
with one fault every 100/500/1000/1500/2000 messages.  GRETEL
processes events at near line rate when faults are rare (~77 Mbps at
1/2K) and drops to ~7.5 Mbps at 1/100 because each fault freezes a
snapshot; HANSEL, which stitches on *every* message, peaks at ~1.6K
messages/second regardless.

We measure the same three quantities on the same fabricated streams:

* ingestion throughput of the GRETEL event receiver with detection
  deferred to the worker thread (the paper's architecture — the
  receiver is what the 50K events/s claim is about);
* effective throughput with detection cost included (snapshot
  matching on the same core);
* HANSEL's per-message stitching throughput.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.baselines.hansel import HanselAnalyzer
from repro.core.analyzer import GretelAnalyzer
from repro.core.characterize import CharacterizationResult
from repro.core.config import GretelConfig
from repro.evaluation.common import default_characterization
from repro.monitoring.store import MetadataStore
from repro.workloads.traffic import SyntheticStream

FAULT_FREQUENCIES = (100, 500, 1000, 1500, 2000)
#: Seed of every point's synthetic stream.
SEED = 5

#: Paper reference points (Mbps at the two extremes).
PAPER_MBPS_AT_1_IN_100 = 7.5
PAPER_MBPS_AT_1_IN_2000 = 77.0
PAPER_HANSEL_MSGS_PER_S = 1600.0


@dataclass
class ThroughputPoint:
    """Throughput at one fault frequency."""

    fault_every: int
    events: int
    gretel_ingest_eps: float        # events/second, detection deferred
    gretel_ingest_mbps: float
    gretel_effective_eps: float     # including detection cost
    gretel_effective_mbps: float
    hansel_eps: float
    hansel_mbps: float
    snapshots: int


def run(
    character: Optional[CharacterizationResult] = None,
    *,
    fault_frequencies: Sequence[int] = FAULT_FREQUENCIES,
    events_per_point: int = 60_000,
) -> List[ThroughputPoint]:
    """Measure GRETEL and HANSEL on identical synthetic streams."""
    character = character or default_characterization()
    symbols = character.library.symbols
    # The paper replays stress traffic into the analyzer as deployed —
    # sliding window α = 768 (its testbed value), not an α rescaled to
    # the replay rate.
    config = GretelConfig(alpha=768)
    points: List[ThroughputPoint] = []
    for fault_every in fault_frequencies:
        stream = SyntheticStream(
            character.library, symbols,
            fault_every=fault_every, seed=SEED,
        )
        events = stream.events(events_per_point)
        total_bytes = stream.total_bytes(events)

        analyzer = GretelAnalyzer(
            character.library, store=MetadataStore(), config=config,
            track_latency=False, defer_detection=True,
        )
        started = time.perf_counter()
        analyzer.feed(events)
        analyzer.flush()
        ingest_seconds = time.perf_counter() - started

        started = time.perf_counter()
        snapshots = analyzer.process_deferred()
        detect_seconds = time.perf_counter() - started

        hansel = HanselAnalyzer()
        started = time.perf_counter()
        hansel.feed(events)
        hansel.flush()
        hansel_seconds = time.perf_counter() - started

        count = len(events)
        to_mbps = lambda secs: (total_bytes * 8 / 1e6) / secs  # noqa: E731
        points.append(ThroughputPoint(
            fault_every=fault_every,
            events=count,
            gretel_ingest_eps=count / ingest_seconds,
            gretel_ingest_mbps=to_mbps(ingest_seconds),
            gretel_effective_eps=count / (ingest_seconds + detect_seconds),
            gretel_effective_mbps=to_mbps(ingest_seconds + detect_seconds),
            hansel_eps=count / hansel_seconds,
            hansel_mbps=to_mbps(hansel_seconds),
            snapshots=snapshots,
        ))
    return points


def format_report(points: List[ThroughputPoint]) -> str:
    """Render the Fig. 8c throughput table and bars."""
    lines = [
        "Fig. 8c: throughput vs fault frequency",
        "(paper: ~7.5 Mbps at 1/100 -> ~77 Mbps / 50K eps at 1/2K; "
        "HANSEL ~1.6K msgs/s)",
        f"{'1 fault per':>12s} {'GRETEL ingest':>20s} {'GRETEL effective':>22s} "
        f"{'HANSEL':>18s} {'snapshots':>10s}",
    ]
    for p in points:
        lines.append(
            f"{p.fault_every:12d} "
            f"{p.gretel_ingest_eps:10.0f}e/s {p.gretel_ingest_mbps:6.1f}Mb "
            f"{p.gretel_effective_eps:12.0f}e/s {p.gretel_effective_mbps:6.1f}Mb "
            f"{p.hansel_eps:10.0f}e/s {p.hansel_mbps:4.1f}Mb "
            f"{p.snapshots:10d}"
        )
    if points:
        from repro.reporting import render_bars

        first, last = points[0], points[-1]
        lines.append(
            f"  shape check: effective throughput rises "
            f"{last.gretel_effective_eps / max(first.gretel_effective_eps, 1):.1f}x "
            f"from 1/{first.fault_every} to 1/{last.fault_every}; "
            f"GRETEL ingest beats HANSEL by "
            f"{last.gretel_ingest_eps / max(last.hansel_eps, 1):.0f}x"
        )
        lines.append("  receiver throughput (Mbps) by fault frequency, "
                     "vs HANSEL's per-message stitching:")
        lines.append(render_bars(
            [(f"GRETEL 1/{p.fault_every}", round(p.gretel_ingest_mbps, 1))
             for p in points] + [("HANSEL", round(points[-1].hansel_mbps, 1))],
            unit=" Mbps",
        ))
    return "\n".join(lines)


def check(points: List[ThroughputPoint]) -> None:
    """The figure's claim is its shape, not its absolute columns."""
    frequent, rare = points[0], points[-1]
    # Shape 1: throughput rises as faults get rarer.
    assert rare.gretel_effective_eps > frequent.gretel_effective_eps * 1.5
    # Shape 2: the ingest path sustains tens of thousands of events/s.
    assert rare.gretel_ingest_eps > 10_000
    # Shape 3: GRETEL ingest is an order of magnitude beyond HANSEL's
    # per-message stitching.
    assert rare.gretel_ingest_eps > rare.hansel_eps * 5
