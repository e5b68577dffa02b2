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
subsequent events (or a flush).  A pending snapshot is nothing but its
absolute due position (the ``appended`` count at which it freezes),
which makes the per-event cost a single front-of-list comparison; its
fault is the event appended α/2 counts before the due, still in the
window, so a fault is stored once, as a position.

The window holds events and nothing else.  Turning a snapshot's
events into symbol fragments is operation detection's job, done once
per :meth:`~repro.core.detector.OperationDetector.detect`; a stream
that never faults never encodes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Mapping, Sequence, Tuple

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

    events: List[WireEvent]
    fault_index: int           # position of the fault inside ``events``

    @property
    def fault(self) -> WireEvent:
        """The faulty message the snapshot is centered on."""
        return self.events[self.fault_index]

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


class SlidingWindow:
    """Dual-buffer sliding window of the α most recent events."""

    def __init__(self, alpha: int):
        if alpha < 2:
            raise ValueError("alpha must be at least 2")
        self.alpha = alpha
        self._events: Deque[WireEvent] = deque(maxlen=alpha)
        #: The due ``appended`` count of each snapshot still waiting
        #: for its post-fault half, non-decreasing because every fault
        #: waits the same α/2.  Its fault is the event appended at
        #: count ``due − α//2``.
        self.pending: List[int] = []
        self.snapshots_taken = 0
        self.appended = 0
        #: The fused intake's :meth:`append`, inline: ``push`` (the
        #: deque's C append; restored in place), count ``appended``,
        #: and :meth:`freeze_due` once the front due is reached.
        self.push = self._events.append

    def append(self, event: WireEvent) -> Sequence[Snapshot]:
        """Add one event; returns any snapshots that completed (the
        shared empty tuple when none did)."""
        self._events.append(event)
        self.appended += 1
        if self.pending and self.pending[0] <= self.appended:
            return self.freeze_due()
        return ()

    def freeze_due(self) -> List[Snapshot]:
        """Freeze every pending snapshot whose due count is reached."""
        ready = [due for due in self.pending if due <= self.appended]
        del self.pending[:len(ready)]   # dues are non-decreasing
        return [self._freeze(due) for due in ready]

    def live_events(self) -> List[WireEvent]:
        """A copy of the current window contents, oldest first.

        Public view for consumers that need the live window — the
        performance-fault context (§5.3.1) is cut from it: the α
        events ending at the most recently appended one.
        """
        return list(self._events)

    def mark_fault(self) -> None:
        """Register the event just appended as a fault; its snapshot
        freezes after α/2 more events."""
        self.pending.append(self.appended + self.alpha // 2)

    def flush(self) -> List[Snapshot]:
        """Force-freeze all pending snapshots (end of stream)."""
        completed = [self._freeze(due) for due in self.pending]
        self.pending.clear()
        return completed

    def _freeze(self, due: int) -> Snapshot:
        # The fault is anchored by position, not by seq (a stream may
        # carry one seq twice): ``mark_fault`` ran when it was appended,
        # at count ``due − α//2``, and the newest event is ``appended``.
        events = list(self._events)
        self.snapshots_taken += 1
        return Snapshot(
            events=events,
            fault_index=len(events) - 1
            - (self.appended - (due - self.alpha // 2)),
        )

    def __len__(self) -> int:
        return len(self._events)

    # -- state lifecycle (see repro.core.state) -------------------------

    def snapshot_state(self) -> Dict[str, Any]:
        """JSON-serializable rendering of the live window.

        The window's events are one event column block; ``due`` lists
        each pending snapshot's due ``appended`` count, which names
        its fault by position.
        """
        return {
            "alpha": self.alpha,
            "appended": self.appended,
            "snapshots_taken": self.snapshots_taken,
            "events": encode_events(self._events),
            "due": list(self.pending),
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
        dues = read_key(state, "due", list)
        if any(type(due) is not int for due in dues):
            raise StateError("expected a list of int", "due")
        appended = read_key(state, "appended", int)
        snapshots_taken = read_key(state, "snapshots_taken", int)
        # The window holds the last α of ``appended`` events, and every
        # due names a fault appended at a count of at least 1 within
        # the last α/2, so still in the window and not yet frozen.
        if len(events) != min(self.alpha, appended):
            raise StateError(
                f"{len(events)} events after {appended} appended "
                f"(alpha {self.alpha})", "events"
            )
        half = self.alpha // 2
        low = max(appended, half)
        for index, due in enumerate(dues):
            if index and due < dues[index - 1]:
                raise StateError(
                    f"{due} after {dues[index - 1]}: dues decrease",
                    f"due[{index}]",
                )
            if not low < due <= appended + half:
                raise StateError(
                    f"{due} is outside ({low}, {appended + half}]",
                    f"due[{index}]",
                )
        self._events.clear()
        self._events.extend(events)
        self.pending = list(dues)
        self.appended = appended
        self.snapshots_taken = snapshots_taken
