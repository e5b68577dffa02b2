"""The dual-buffer sliding window and its snapshot mechanism.

§5.3.1 / §6: GRETEL keeps a sliding window of α messages.  On
detecting an anomaly it slides the window ahead by α/2 messages and
waits for the event receiver to fill the remaining α/2, so the frozen
snapshot holds both the past and the future of the faulty message.
The implementation mirrors the paper's dual-buffer trick: a deque of
the most recent α events with two logical pointers α apart; freezing
is a copy of the deque once enough post-fault events arrived.

Multiple overlapping faults are supported: each fault registers its
own pending snapshot, and each snapshot completes after its own α/2
subsequent events (or a flush).  Pending snapshots are stored as
absolute due positions (the ``appended`` count at which they freeze),
which makes the per-event cost a single front-of-list comparison.

The window holds events and nothing else.  Turning a snapshot's
events into symbol fragments is operation detection's job, done once
per :meth:`~repro.core.detector.OperationDetector.detect`; a stream
that never faults never encodes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Mapping, Tuple

from repro.core.state import (
    StateError,
    decode_events,
    decode_key,
    encode_events,
    read_key,
)
from repro.openstack.wire import WireEvent


@dataclass
class Snapshot:
    """A frozen window of events centered on one faulty message."""

    fault: WireEvent
    events: List[WireEvent]
    fault_index: int           # position of the fault inside ``events``

    def __len__(self) -> int:
        return len(self.events)

    def bounds(self, radius: int) -> Tuple[int, int]:
        """Index range of events within ``radius`` of the fault."""
        lo = max(0, self.fault_index - radius)
        hi = min(len(self.events), self.fault_index + radius + 1)
        return lo, hi

    def window(self, radius: int) -> List[WireEvent]:
        """Events within ``radius`` positions of the fault (the context
        buffer's current extent)."""
        lo, hi = self.bounds(radius)
        return self.events[lo:hi]

    def covers_all(self, radius: int) -> bool:
        """Whether ``radius`` already spans the whole snapshot."""
        return (self.fault_index - radius <= 0
                and self.fault_index + radius + 1 >= len(self.events))

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable rendering (checkpoint/restore protocol).

        One event column block (:func:`~repro.core.state.encode_events`)
        holds the fault, then the snapshot's events.
        """
        return {
            "events": encode_events([self.fault, *self.events]),
            "fault_index": self.fault_index,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Snapshot":
        """Inverse of :meth:`to_dict`; a document that does not decode
        raises :class:`~repro.core.state.StateError` naming the key."""
        events = decode_key(data, "events", decode_events)
        if not events:
            raise StateError("no fault event", "events")
        return cls(
            fault=events[0],
            events=events[1:],
            fault_index=read_key(data, "fault_index", int),
        )


class SlidingWindow:
    """Dual-buffer sliding window of the α most recent events."""

    def __init__(self, alpha: int):
        if alpha < 2:
            raise ValueError("alpha must be at least 2")
        self.alpha = alpha
        self._events: Deque[WireEvent] = deque(maxlen=alpha)
        #: (fault, due ``appended`` count); dues are non-decreasing
        #: because every fault waits the same α/2.
        self._pending: List[Tuple[WireEvent, int]] = []
        self.snapshots_taken = 0
        self.appended = 0

    def append(self, event: WireEvent) -> List[Snapshot]:
        """Add one event; returns any snapshots that completed."""
        self._events.append(event)
        self.appended += 1
        completed: List[Snapshot] = []
        while self._pending and self._pending[0][1] <= self.appended:
            fault, _ = self._pending.pop(0)
            completed.append(self._freeze(fault))
        return completed

    def live_events(self) -> List[WireEvent]:
        """A copy of the current window contents, oldest first.

        Public view for consumers that need the live window — the
        performance-fault context (§5.3.1) is cut from it: the α
        events ending at the most recently appended one.
        """
        return list(self._events)

    def mark_fault(self, fault: WireEvent) -> None:
        """Register a fault; its snapshot freezes after α/2 more events."""
        self._pending.append((fault, self.appended + self.alpha // 2))

    def flush(self) -> List[Snapshot]:
        """Force-freeze all pending snapshots (end of stream)."""
        completed = [self._freeze(fault) for fault, _ in self._pending]
        self._pending.clear()
        return completed

    def _freeze(self, fault: WireEvent) -> Snapshot:
        events = list(self._events)
        try:
            fault_index = next(
                i for i, e in enumerate(events) if e.seq == fault.seq
            )
        except StopIteration:
            # The fault scrolled out (pathologically bursty stream);
            # anchor at the window start so analysis can still proceed.
            fault_index = 0
            events = [fault] + events
        self.snapshots_taken += 1
        return Snapshot(fault=fault, events=events,
                        fault_index=fault_index)

    @property
    def pending_snapshots(self) -> int:
        """Snapshots still waiting for their post-fault half."""
        return len(self._pending)

    def __len__(self) -> int:
        return len(self._events)

    # -- state lifecycle (see repro.core.state) -------------------------

    def snapshot_state(self) -> Dict[str, Any]:
        """JSON-serializable rendering of the live window.

        The window's events and the pending faults are one event
        column block each; ``due`` lists each pending fault's due
        ``appended`` count.
        """
        return {
            "alpha": self.alpha,
            "appended": self.appended,
            "snapshots_taken": self.snapshots_taken,
            "events": encode_events(self._events),
            "pending": encode_events(fault for fault, _ in self._pending),
            "due": [due for _, due in self._pending],
        }

    def restore_state(self, state: Mapping[str, Any]) -> None:
        """Rehydrate a freshly constructed window of the same α."""
        alpha = read_key(state, "alpha", int)
        if alpha != self.alpha:
            raise StateError(
                f"{alpha} in the checkpoint, {self.alpha} here", "alpha"
            )
        # Read everything before installing anything: a refused
        # document leaves the window as it was.
        events = decode_key(state, "events", decode_events)
        faults = decode_key(state, "pending", decode_events)
        dues = read_key(state, "due", list)
        if any(type(due) is not int for due in dues):
            raise StateError("expected a list of int", "due")
        if len(dues) != len(faults):
            raise StateError(
                f"{len(dues)} dues for {len(faults)} pending faults", "due"
            )
        appended = read_key(state, "appended", int)
        snapshots_taken = read_key(state, "snapshots_taken", int)
        self._events.clear()
        self._events.extend(events)
        self._pending = list(zip(faults, dues))
        self.appended = appended
        self.snapshots_taken = snapshots_taken
