"""Wire-trace capture and replay.

The paper's stress experiments replay recorded traffic with tcpreplay
(§7.4.1).  This module gives the reproduction the same workflow:

* :class:`TraceRecorder` taps a cloud and accumulates its wire events,
  with JSONL export;
* :func:`load_trace` / :func:`replay` bring a recorded trace back and
  pump it through any analyzer (GRETEL, HANSEL, ...), optionally
  rescaled in time — the tcpreplay ``--multiplier`` knob.

Recorded traces are plain JSONL, one event per line
(:meth:`~repro.openstack.wire.WireEvent.to_dict`, the keyed rendering
reports print: every field, ground-truth labels included), so they
can be inspected, filtered or synthesized with standard tools.
"""

from __future__ import annotations

import json
from typing import Callable, Iterable, Iterator, List, Optional

from repro.openstack.cloud import Cloud
from repro.openstack.wire import WireEvent


class TraceRecorder:
    """Accumulates a cloud's wire events for later replay."""

    def __init__(self, cloud: Optional[Cloud] = None):
        self.events: List[WireEvent] = []
        if cloud is not None:
            self.attach(cloud)

    def attach(self, cloud: Cloud) -> None:
        """Start capturing every wire event of ``cloud``."""
        cloud.taps.attach_global(self.events.append)

    def save(self, path: str) -> int:
        """Write the trace as JSONL; returns the event count."""
        with open(path, "w", encoding="utf-8") as handle:
            for event in self.events:
                handle.write(json.dumps(event.to_dict()) + "\n")
        return len(self.events)

    def __len__(self) -> int:
        return len(self.events)


def load_trace(path: str) -> List[WireEvent]:
    """Load a JSONL trace from disk."""
    events = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                events.append(WireEvent.from_dict(json.loads(line)))
    return events


def rescale(events: Iterable[WireEvent], multiplier: float) -> Iterator[WireEvent]:
    """Speed a trace up (multiplier > 1) or slow it down, like
    ``tcpreplay --multiplier``: timestamps shrink by the factor,
    latencies (response − request) are preserved."""
    if multiplier <= 0:
        raise ValueError("multiplier must be positive")
    from dataclasses import replace

    for event in events:
        latency = event.latency
        new_response = event.ts_response / multiplier
        yield replace(event, ts_request=new_response - latency,
                      ts_response=new_response)


def replay(events: Iterable[WireEvent],
           sink: Callable[[WireEvent], None]) -> int:
    """Pump a trace through an analyzer's ``on_event``; returns count."""
    count = 0
    for event in events:
        sink(event)
        count += 1
    return count
