"""A compact process-based discrete-event simulation kernel.

The kernel follows the classic event-heap design: a priority queue of
``(time, sequence, callback)`` entries drained in timestamp order.
Simulated activities are Python generators that ``yield`` *waitables*
(:class:`Timeout`, :class:`Event`, :class:`AllOf`, :class:`AnyOf` or
another :class:`Process`), and are resumed with the waitable's value
once it triggers.

Ordering contract
-----------------
Entries due at the same instant run in the order they were queued
(FIFO), and scenario traces depend on it byte for byte.  A process
that yields a :class:`Timeout` is queued once, as its own wake-up;
when the wake-up comes due it first steps behind every entry already
due at that instant, even one queued after the process yielded, and
ahead of anything queued at the instant itself.  ``Event``,
``Process``, ``AllOf`` and ``AnyOf`` waits resume through a zero-delay
callback queued when the event fires, so a ``Timeout`` resumes exactly
where an :class:`Event` fired at its deadline would resume its waiter,
for one heap entry instead of two.

Example
-------
>>> sim = Simulator()
>>> def worker(sim, results):
...     yield Timeout(5.0)
...     results.append(sim.now)
>>> results = []
>>> _ = sim.spawn(worker(sim, results))
>>> sim.run()
>>> results
[5.0]
"""

from __future__ import annotations

import itertools
from heapq import heappop, heappush
from typing import (
    Any, Callable, Generator, Iterable, List, Optional, Sequence, Union,
)


class SimulationError(RuntimeError):
    """Raised for invalid uses of the simulation kernel."""


class Interrupt(Exception):  # noqa: N818 - SimPy's name, public API
    """Thrown into a process that another process interrupted.

    The ``cause`` attribute carries the value supplied to
    :meth:`Process.interrupt`.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class ProcessKilled(Exception):  # noqa: N818 - public API
    """Raised inside a process that was forcibly killed."""


class Event:
    """A one-shot event that processes may wait on.

    An event starts *pending*; it is fired exactly once with
    :meth:`succeed` or :meth:`fail`.  Processes that yielded the event
    before it fired are resumed when it fires; a process that yields an
    already-fired event resumes immediately (on the next scheduler
    step) with the stored value or exception.
    """

    __slots__ = ("sim", "_callbacks", "triggered", "ok", "value")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self._callbacks: Optional[List[Callable[["Event"], None]]] = []
        self.triggered = False
        self.ok = True
        self.value: Any = None

    def succeed(self, value: Any = None) -> "Event":
        """Fire the event successfully, delivering ``value`` to waiters."""
        self._trigger(ok=True, value=value)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Fire the event with an exception, which is raised in waiters."""
        if not isinstance(exception, BaseException):
            raise SimulationError(
                "Event.fail() requires an exception instance")
        self._trigger(ok=False, value=exception)
        return self

    def _trigger(self, ok: bool, value: Any) -> None:
        if self.triggered:
            raise SimulationError("event already triggered")
        self.triggered = True
        self.ok = ok
        self.value = value
        callbacks, self._callbacks = self._callbacks, None
        for callback in callbacks or ():
            self.sim.schedule(0.0, callback, self)

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run ``callback(event)`` when the event fires (or now if fired)."""
        if self.triggered:
            self.sim.schedule(0.0, callback, self)
        else:
            assert self._callbacks is not None
            self._callbacks.append(callback)


class Timeout:
    """A delay of ``delay`` simulated seconds.

    ``value`` is delivered to the yielding process when the timeout
    elapses (defaults to ``None``).
    """

    __slots__ = ("delay", "value")

    def __init__(self, delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout: {delay!r}")
        self.delay = float(delay)
        self.value = value


class AllOf:
    """Wait for every waitable in ``events``; resumes with their values."""

    __slots__ = ("events",)

    def __init__(self, events: Iterable[Any]):
        self.events = list(events)


class AnyOf:
    """Wait for the first waitable in ``events``; resumes with its value."""

    __slots__ = ("events",)

    def __init__(self, events: Iterable[Any]):
        self.events = list(events)


class Process:
    """A simulated activity driven by a generator.

    A process is itself a waitable: yielding a process blocks until it
    terminates and delivers its return value (set via ``return`` in the
    generator).  Use :meth:`interrupt` to throw :class:`Interrupt` into
    a blocked process and :meth:`kill` to terminate it silently.
    """

    __slots__ = ("sim", "name", "_generator", "_done_event", "_waiting_on",
                 "_alive")

    def __init__(self, sim: "Simulator", generator: Generator,
                 name: str = ""):
        if not hasattr(generator, "send"):
            raise SimulationError(
                "Process requires a generator, got "
                f"{type(generator).__name__}; "
                "did you forget to call the generator function?"
            )
        self.sim = sim
        self.name = name or getattr(generator, "__name__", "process")
        self._generator = generator
        self._done_event = Event(sim)
        # What the process is blocked on: an Event, or the sequence
        # number of its own queued Timeout wake-up.
        self._waiting_on: Union[Event, int, None] = None
        self._alive = True

    # -- waitable protocol -------------------------------------------------

    @property
    def done(self) -> Event:
        """Event fired with the process return value on termination."""
        return self._done_event

    @property
    def alive(self) -> bool:
        """True while the underlying generator has not finished."""
        return self._alive

    # -- control ------------------------------------------------------------

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its wait point."""
        if not self._alive:
            return
        self.sim.schedule(0.0, self._throw, Interrupt(cause))

    def kill(self) -> None:
        """Terminate the process without delivering a value."""
        if not self._alive:
            return
        self._alive = False
        self._waiting_on = None
        self._generator.close()
        if not self._done_event.triggered:
            self._done_event.succeed(None)

    # -- internal stepping ---------------------------------------------------

    def _start(self) -> None:
        self._step(self._generator.send, None)

    def _resume(self, event: Event) -> None:
        if not self._alive or self._waiting_on is not event:
            return
        self._waiting_on = None
        if event.ok:
            self._step(self._generator.send, event.value)
        else:
            self._step(self._generator.throw, event.value)

    def _wake(self, token: int, value: Any) -> None:
        """A yielded Timeout elapsed: resume now, or re-queue behind
        what is already due at this instant."""
        sim = self.sim
        heap = sim._heap
        if heap and heap[0][0] == sim.now:
            heappush(heap, (sim.now, next(sim._sequence),
                            self._wake_due, (token, value)))
        elif self._waiting_on is token:
            self._waiting_on = None
            self._step(self._generator.send, value)

    def _wake_due(self, token: int, value: Any) -> None:
        # ``token`` is the very int object ``_waiting_on`` held at the
        # yield; an interrupt or kill since then has replaced it.
        if self._waiting_on is not token:
            return
        self._waiting_on = None
        self._step(self._generator.send, value)

    def _throw(self, exc: BaseException) -> None:
        if not self._alive:
            return
        self._waiting_on = None
        self._step(self._generator.throw, exc)

    def _step(self, advance: Callable[[Any], Any], arg: Any) -> None:
        try:
            target = advance(arg)
        except StopIteration as stop:
            self._finish(ok=True, value=stop.value)
            return
        except (ProcessKilled, GeneratorExit):
            self._finish(ok=True, value=None)
            return
        except BaseException as exc:  # noqa: BLE001 - propagated to waiters
            self._finish(ok=False, value=exc)
            return
        if isinstance(target, Timeout):
            sim = self.sim
            token = next(sim._sequence)
            self._waiting_on = token
            heappush(sim._heap, (sim.now + target.delay, token, self._wake,
                                 (token, target.value)))
        else:
            self._block_on(self.sim._as_event(target))

    def _block_on(self, event: Event) -> None:
        self._waiting_on = event
        event.add_callback(self._resume)

    def _finish(self, ok: bool, value: Any) -> None:
        self._alive = False
        if self._done_event.triggered:
            return
        if ok:
            self._done_event.succeed(value)
        elif self._done_event._callbacks:
            self._done_event.fail(value)
        else:
            # Nobody is waiting: surface the crash instead of losing it.
            self._done_event.fail(value)
            self.sim._record_orphan_failure(self, value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "alive" if self._alive else "done"
        return f"<Process {self.name} {state} t={self.sim.now:.3f}>"


class Simulator:
    """The discrete-event loop: clock plus a pending-event heap.

    Callbacks scheduled for the same timestamp run in scheduling order
    (FIFO), which the rest of the reproduction relies on for
    reproducibility; the module docstring states where a ``Timeout``
    resume falls in that order.
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: List[Any] = []
        self._sequence = itertools.count()
        self._orphan_failures: List[Any] = []
        self._process_count = 0

    # -- scheduling -----------------------------------------------------------

    def schedule(self, delay: float, callback: Callable, *args: Any) -> None:
        """Run ``callback(*args)`` after ``delay`` simulated seconds."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past: {delay!r}")
        heappush(self._heap,
                 (self.now + delay, next(self._sequence), callback, args))

    def call_at(self, when: float, callback: Callable, *args: Any) -> None:
        """Run ``callback(*args)`` at absolute simulated time ``when``.

        The absolute-time twin of :meth:`schedule`: fault-injection
        scripts (``repro.scenarios``) pin their perturbations to fixed
        points on the simulated clock *before* the workload starts, so
        a scenario's injection timeline is part of its seed-determined
        identity rather than relative to whenever the injector runs.
        """
        if when < self.now:
            raise SimulationError(
                f"cannot schedule into the past: t={when!r} < now={self.now!r}"
            )
        heappush(self._heap, (when, next(self._sequence), callback, args))

    def spawn(self, generator: Generator, name: str = "") -> Process:
        """Create and start a :class:`Process` from ``generator``."""
        process = Process(self, generator, name=name)
        self._process_count += 1
        self.schedule(0.0, process._start)
        return process

    def event(self) -> Event:
        """Create a fresh untriggered :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Convenience constructor mirroring :class:`Timeout`."""
        return Timeout(delay, value)

    # -- running -------------------------------------------------------------

    def run(self, until: Optional[float] = None) -> float:
        """Drain the event heap, optionally stopping at time ``until``.

        Returns the clock value when the run stops.  Raises the first
        orphaned process failure (a crash nobody was waiting on), so
        bugs in simulated components do not vanish silently.
        """
        while self._heap:
            when, _seq, callback, args = self._heap[0]
            if until is not None and when > until:
                self.now = until
                break
            heappop(self._heap)
            self.now = when
            callback(*args)
            if self._orphan_failures:
                self._raise_orphans()
        else:
            if until is not None and until > self.now:
                self.now = until
        return self.now

    def run_processes(self, processes: Sequence[Process],
                      deadline: float) -> bool:
        """Drain the heap until every process in ``processes`` finished.

        Returns False when it stopped because a step ran past
        ``deadline`` (that step has run), True otherwise, including
        when the heap runs dry first.  A finished process never
        restarts, so one index walks past the finished ones instead
        of re-checking the whole list on every step.
        """
        heap = self._heap
        index, count = 0, len(processes)
        while True:
            while index < count and not processes[index]._alive:
                index += 1
            if index == count or not heap:
                return True
            when, _seq, callback, args = heappop(heap)
            self.now = when
            callback(*args)
            if self._orphan_failures:
                self._raise_orphans()
            if when > deadline:
                return False

    def step(self) -> bool:
        """Process a single pending callback; returns False when idle."""
        if not self._heap:
            return False
        when, _seq, callback, args = heappop(self._heap)
        self.now = when
        callback(*args)
        if self._orphan_failures:
            self._raise_orphans()
        return True

    def _raise_orphans(self) -> None:
        """Surface the first unobserved process crash.

        The original exception is re-raised (annotated with process
        identity) so bugs in simulated components keep their type.
        """
        process, exc = self._orphan_failures.pop(0)
        exc.args = (
            f"[process {process.name!r} at t={self.now:.6f}] "
            + (str(exc.args[0]) if exc.args else ""),
        ) + tuple(exc.args[1:])
        raise exc

    @property
    def pending(self) -> int:
        """Number of callbacks waiting in the heap."""
        return len(self._heap)

    # -- waitable coercion ---------------------------------------------------

    def _as_event(self, target: Any) -> Event:
        """Normalize anything a process can yield into an :class:`Event`."""
        if isinstance(target, Event):
            return target
        if isinstance(target, Timeout):
            event = Event(self)
            self.schedule(target.delay, event.succeed, target.value)
            return event
        if isinstance(target, Process):
            return target.done
        if isinstance(target, AllOf):
            return self._all_of(target.events)
        if isinstance(target, AnyOf):
            return self._any_of(target.events)
        raise SimulationError(
            f"cannot wait on {type(target).__name__}: {target!r}")

    def _all_of(self, targets: List[Any]) -> Event:
        gate = Event(self)
        events = [self._as_event(t) for t in targets]
        if not events:
            gate.succeed([])
            return gate
        remaining = [len(events)]
        values: List[Any] = [None] * len(events)

        def on_fire(index: int, fired: Event) -> None:
            if gate.triggered:
                return
            if not fired.ok:
                gate.fail(fired.value)
                return
            values[index] = fired.value
            remaining[0] -= 1
            if remaining[0] == 0:
                gate.succeed(list(values))

        for index, event in enumerate(events):
            event.add_callback(
                lambda fired, index=index: on_fire(index, fired))
        return gate

    def _any_of(self, targets: List[Any]) -> Event:
        gate = Event(self)
        events = [self._as_event(t) for t in targets]
        if not events:
            gate.succeed(None)
            return gate

        def on_fire(fired: Event) -> None:
            if gate.triggered:
                return
            if fired.ok:
                gate.succeed(fired.value)
            else:
                gate.fail(fired.value)

        for event in events:
            event.add_callback(on_fire)
        return gate

    def _record_orphan_failure(self, process: Process, exc: Any) -> None:
        self._orphan_failures.append((process, exc))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Simulator t={self.now:.3f} pending={len(self._heap)}>"
