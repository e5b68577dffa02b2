"""Differential oracle: checkpoint/kill/restore must change nothing.

:func:`verify_checkpoint` replays one event stream twice with the
same configuration:

* **straight** — one analyzer consumes the whole stream;
* **restored** — the stream is cut at ``K`` evenly spaced points; at
  each cut the running analyzer's state is frozen through an actual
  ``json.dumps``/``json.loads`` round trip (so "JSON-serializable" is
  exercised, not assumed), the analyzer is discarded, and a *freshly
  built* analyzer is rehydrated to continue the stream.

Both halves must publish the identical multiset of fault reports
(compared via :func:`repro.core.reports.report_signature`) and end
with identical :class:`~repro.core.analyzer.PipelineStats`
(every counter except wall-clock ``analysis_seconds``).  Any
divergence raises :class:`~repro.oracle.OracleDivergence` — counters
too, since a checkpoint that silently resets e.g.
``postings_scanned`` would corrupt capacity planning after every
service restart.

The ``mutate`` hook lets tests prove the oracle actually fires:
it edits the decoded state dict before restore, and a correct
implementation must then diverge (or refuse to restore).
"""

from __future__ import annotations

import json
from dataclasses import asdict
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.analyzer import GretelAnalyzer
from repro.core.config import GretelConfig
from repro.core.fingerprint import FingerprintLibrary
from repro.core.reports import ReportSignature, report_signature
from repro.monitoring.store import MetadataStore
from repro.openstack.wire import WireEvent
from repro.oracle import (
    OracleResult,
    diff_counters,
    diff_multisets,
    settle,
)

#: Stats fields that legitimately differ between runs.
_TIMING_FIELDS = ("analysis_seconds",)

StateMutator = Callable[[Dict[str, Any]], Dict[str, Any]]


def _cut_points(total: int, cuts: int) -> Tuple[int, ...]:
    """``cuts`` evenly spaced interior indices of a ``total``-event
    stream (never 0 or ``total`` — those are degenerate)."""
    if total < 2 or cuts < 1:
        return ()
    step = total / (cuts + 1)
    points = sorted(
        {min(total - 1, max(1, round(step * (i + 1))))
         for i in range(cuts)}
    )
    return tuple(points)


def verify_checkpoint(
    events: Sequence[WireEvent],
    library: FingerprintLibrary,
    cuts: int = 3,
    *,
    config: Optional[GretelConfig] = None,
    track_latency: bool = True,
    defer_detection: bool = False,
    mutate: Optional[StateMutator] = None,
    strict: bool = True,
) -> OracleResult:
    """Prove checkpoint/kill/restore is invisible on ``events``.

    The restored half kills and rehydrates the analyzer at ``cuts``
    evenly spaced points; each checkpoint crosses a real JSON round
    trip.  Both halves share one empty metadata store (no caller has
    ever handed in a populated one), so Alg. 3 finds no root cause on
    either and the findings compared are empty on both; a counter
    divergence is a ``counter: <name> ...`` line in ``mismatches``.
    ``mutate`` edits each decoded state dict before restore — the
    negative-test hook.  ``strict`` is :func:`repro.oracle.settle`'s.
    Raises :class:`ValueError` when there is no interior cut to take
    (``cuts < 1`` or fewer than 2 events): a verdict that restored
    nothing would check nothing.
    """
    points = _cut_points(len(events), cuts)
    if not points:
        raise ValueError(
            f"no interior cut point: cuts={cuts} on a "
            f"{len(events)}-event stream (need cuts >= 1 and at "
            f"least 2 events)"
        )
    store = MetadataStore()

    def replay(
        points: Tuple[int, ...]
    ) -> Tuple[List[ReportSignature], Dict[str, Any]]:
        """Run ``events`` through an analyzer that is killed and
        rehydrated at each of ``points`` (none: the straight half)."""
        signatures: List[ReportSignature] = []

        def build() -> GretelAnalyzer:
            analyzer = GretelAnalyzer(
                library, store=store, config=config,
                track_latency=track_latency,
                defer_detection=defer_detection,
            )
            analyzer.on_report(
                lambda report: signatures.append(report_signature(report))
            )
            return analyzer

        analyzer = build()
        position = 0
        for cut in points:
            for event in events[position:cut]:
                analyzer.on_event(event)
            position = cut
            state = json.loads(json.dumps(analyzer.snapshot_state()))
            if mutate is not None:
                state = mutate(state)
            analyzer = build()
            analyzer.restore_state(state)
        for event in events[position:]:
            analyzer.on_event(event)
        analyzer.flush()
        if defer_detection:
            analyzer.process_deferred()
        stats = asdict(analyzer.stats())
        for name in _TIMING_FIELDS:
            del stats[name]
        return signatures, stats

    straight, straight_stats = replay(())
    restored, restored_stats = replay(points)

    missing, extra = diff_multisets(straight, restored)
    result = OracleResult(
        layer="checkpoint",
        reference="straight",
        candidate="restored",
        facts={
            "events": len(events),
            "cuts": list(points),
            "reference_reports": len(straight),
            "candidate_reports": len(restored),
        },
        missing=missing,
        extra=extra,
        mismatches=diff_counters(straight_stats, restored_stats),
    )
    return settle(result, strict)
