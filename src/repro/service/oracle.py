"""Differential oracle: checkpoint/kill/restore must change nothing.

:func:`verify_checkpoint` replays one event stream twice with the
same configuration:

* **straight** — one analyzer consumes the whole stream;
* **restored** — the stream runs through a
  :class:`~repro.service.session.TenantSession` and is cut at ``K``
  evenly spaced points.  Before each cut the pump is parked for the
  last ``queue_capacity`` events, so the session's snapshot has a
  backlog to analyze first, as a checkpoint under load does; the
  session document then crosses an actual ``json.dumps``/
  ``json.loads`` round trip (so "JSON-serializable" is exercised, not
  assumed), the session is discarded, and a *freshly built* one is
  rehydrated to continue the stream.

Both halves must publish the identical multiset of fault reports
(compared via :func:`repro.core.reports.report_signature`), end
with identical :class:`~repro.core.analyzer.PipelineStats`
(every counter except wall-clock ``analysis_seconds``) and end in
the identical ``snapshot_state()`` document (the same clock field
aside).  Any divergence raises
:class:`~repro.oracle.OracleDivergence` — counters too, since a
checkpoint that silently resets e.g. ``postings_scanned`` would
corrupt capacity planning after every service restart, and state
too, since a restored analyzer that feeds a stale latency series
publishes the same reports until the next level shift.

The ``mutate`` hook lets tests prove the oracle actually fires:
it edits the decoded analyzer document before restore, and a correct
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
from repro.openstack.wire import WireEvent
from repro.oracle import (
    OracleResult,
    diff_counters,
    diff_multisets,
    settle,
)
from repro.service.session import TenantSession

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


def _state_mismatches(reference: Any, candidate: Any,
                      path: str = "state") -> List[str]:
    """One ``state.<key path> differs`` line per leaf where two
    ``snapshot_state()`` documents disagree (lists compare whole)."""
    if isinstance(reference, dict) and isinstance(candidate, dict):
        return [
            line
            for key in sorted(set(reference) | set(candidate), key=str)
            for line in _state_mismatches(
                reference.get(key), candidate.get(key), f"{path}.{key}"
            )
        ]
    return [] if reference == candidate else [f"{path} differs"]


def verify_checkpoint(
    events: Sequence[WireEvent],
    library: FingerprintLibrary,
    cuts: int = 3,
    *,
    config: Optional[GretelConfig] = None,
    track_latency: bool = True,
    mutate: Optional[StateMutator] = None,
    strict: bool = True,
) -> OracleResult:
    """Prove checkpoint/kill/restore is invisible on ``events``.

    The restored half kills and rehydrates its session at ``cuts``
    evenly spaced points, each snapshot analyzing a parked backlog
    first; each checkpoint crosses a real JSON round trip.  Every
    analyzer of both halves owns an empty metadata store, as a
    service tenant's does, so Alg. 3 finds no root cause on either
    and the findings compared are empty on both; a counter
    divergence is a ``counter: <name> ...`` line in ``mismatches``,
    a final-state one a ``state.<key path> differs`` line.
    ``mutate`` edits each decoded analyzer document before restore — the
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

    def replay(
        points: Tuple[int, ...]
    ) -> Tuple[List[ReportSignature], Dict[str, Any], Dict[str, Any]]:
        """Run ``events`` through an analyzer, or (given ``points``)
        through a session that is killed and rehydrated at each of
        them; returns the reports, stats and final analyzer state."""
        signatures: List[ReportSignature] = []

        def build() -> GretelAnalyzer:
            analyzer = GretelAnalyzer(
                library, config=config, track_latency=track_latency,
            )
            analyzer.on_report(
                lambda report: signatures.append(report_signature(report))
            )
            return analyzer

        if points:
            analyzer = _through_sessions(events, points, build, mutate)
        else:
            analyzer = build()
            analyzer.feed(events)
            analyzer.flush()
        stats = asdict(analyzer.stats())
        state = json.loads(json.dumps(analyzer.snapshot_state()))
        for name in _TIMING_FIELDS:
            del stats[name]
            del state["counters"][name]
        return signatures, stats, state

    straight, straight_stats, straight_state = replay(())
    restored, restored_stats, restored_state = replay(points)

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
        mismatches=(
            diff_counters(straight_stats, restored_stats)
            + _state_mismatches(straight_state, restored_state)
        ),
    )
    return settle(result, strict)


def _through_sessions(
    events: Sequence[WireEvent],
    points: Tuple[int, ...],
    build: Callable[[], GretelAnalyzer],
    mutate: Optional[StateMutator],
) -> GretelAnalyzer:
    """The restored half: ``events`` through a session killed and
    rehydrated at each of ``points``; returns the last session's
    analyzer, flushed."""
    session = TenantSession("oracle", build())
    try:
        position = 0
        for cut in points:
            held = max(position, cut - session.queue_capacity)
            for event in events[position:held]:
                session.submit(event)
            session.quiesce()
            with session.parked():
                for event in events[held:cut]:
                    session.submit(event)
                state = json.loads(json.dumps(session.snapshot_state()))
            session.close()
            if mutate is not None:
                state["analyzer"] = mutate(state["analyzer"])
            session = TenantSession("oracle", build())
            session.restore_state(state)
            position = cut
        for event in events[position:]:
            session.submit(event)
        session.flush()
        return session.analyzer
    finally:
        session.close()
