"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.sim import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Simulator,
    Timeout,
)


def test_clock_starts_at_zero():
    assert Simulator().now == 0.0


def test_timeout_advances_clock():
    sim = Simulator()
    results = []

    def proc():
        yield Timeout(5.0)
        results.append(sim.now)

    sim.spawn(proc())
    sim.run()
    assert results == [5.0]


def test_timeout_delivers_value():
    sim = Simulator()
    seen = []

    def proc():
        value = yield Timeout(1.0, value="hello")
        seen.append(value)

    sim.spawn(proc())
    sim.run()
    assert seen == ["hello"]


def test_negative_timeout_rejected():
    with pytest.raises(SimulationError):
        Timeout(-1.0)


def test_schedule_into_past_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-0.5, lambda: None)


def test_events_fire_in_timestamp_order():
    sim = Simulator()
    order = []
    for delay in (3.0, 1.0, 2.0):
        sim.schedule(delay, order.append, delay)
    sim.run()
    assert order == [1.0, 2.0, 3.0]


def test_same_timestamp_fifo_order():
    sim = Simulator()
    order = []
    for tag in range(10):
        sim.schedule(1.0, order.append, tag)
    sim.run()
    assert order == list(range(10))


def test_run_until_stops_clock():
    sim = Simulator()
    fired = []
    sim.schedule(10.0, fired.append, True)
    assert sim.run(until=5.0) == 5.0
    assert not fired
    sim.run()
    assert fired


def test_run_until_beyond_heap_advances_clock():
    sim = Simulator()
    sim.run(until=42.0)
    assert sim.now == 42.0


def test_nested_yield_from():
    sim = Simulator()
    log = []

    def inner():
        yield Timeout(1.0)
        return "inner-done"

    def outer():
        result = yield from inner()
        log.append((sim.now, result))

    sim.spawn(outer())
    sim.run()
    assert log == [(1.0, "inner-done")]


def test_process_return_value_via_wait():
    sim = Simulator()
    got = []

    def child():
        yield Timeout(2.0)
        return 99

    def parent():
        child_proc = sim.spawn(child())
        value = yield child_proc
        got.append(value)

    sim.spawn(parent())
    sim.run()
    assert got == [99]


def test_event_succeed_resumes_waiters():
    sim = Simulator()
    gate = sim.event()
    seen = []

    def waiter():
        value = yield gate
        seen.append(value)

    sim.spawn(waiter())
    sim.schedule(3.0, gate.succeed, "fired")
    sim.run()
    assert seen == ["fired"]


def test_event_fail_raises_in_waiter():
    sim = Simulator()
    gate = sim.event()
    caught = []

    def waiter():
        try:
            yield gate
        except ValueError as exc:
            caught.append(str(exc))

    sim.spawn(waiter())
    sim.schedule(1.0, gate.fail, ValueError("boom"))
    sim.run()
    assert caught == ["boom"]


def test_event_double_trigger_rejected():
    sim = Simulator()
    gate = sim.event()
    gate.succeed(1)
    with pytest.raises(SimulationError):
        gate.succeed(2)


def test_event_fail_requires_exception():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.event().fail("not an exception")


def test_already_fired_event_resumes_immediately():
    sim = Simulator()
    gate = sim.event()
    gate.succeed("early")
    seen = []

    def waiter():
        value = yield gate
        seen.append((sim.now, value))

    sim.spawn(waiter())
    sim.run()
    assert seen == [(0.0, "early")]


def test_all_of_collects_values():
    sim = Simulator()
    got = []

    def proc():
        values = yield AllOf([Timeout(1.0, "a"), Timeout(3.0, "b"), Timeout(2.0, "c")])
        got.append((sim.now, values))

    sim.spawn(proc())
    sim.run()
    assert got == [(3.0, ["a", "b", "c"])]


def test_all_of_empty():
    sim = Simulator()
    got = []

    def proc():
        values = yield AllOf([])
        got.append(values)

    sim.spawn(proc())
    sim.run()
    assert got == [[]]


def test_any_of_returns_first():
    sim = Simulator()
    got = []

    def proc():
        value = yield AnyOf([Timeout(5.0, "slow"), Timeout(1.0, "fast")])
        got.append((sim.now, value))

    sim.spawn(proc())
    sim.run()
    assert got == [(1.0, "fast")]


def test_interrupt_raises_in_process():
    sim = Simulator()
    caught = []

    def victim():
        try:
            yield Timeout(100.0)
        except Interrupt as interrupt:
            caught.append((sim.now, interrupt.cause))

    process = sim.spawn(victim())
    sim.schedule(2.0, process.interrupt, "reason")
    sim.run()
    assert caught == [(2.0, "reason")]


def test_kill_terminates_silently():
    sim = Simulator()
    ran = []

    def victim():
        yield Timeout(100.0)
        ran.append(True)

    process = sim.spawn(victim())
    sim.schedule(1.0, process.kill)
    sim.run()
    assert not ran
    assert not process.alive


def test_orphan_crash_surfaces():
    sim = Simulator()

    def crasher():
        yield Timeout(1.0)
        raise RuntimeError("unobserved crash")

    sim.spawn(crasher())
    with pytest.raises(RuntimeError, match="unobserved crash"):
        sim.run()


def test_watched_crash_propagates_to_waiter():
    sim = Simulator()
    caught = []

    def crasher():
        yield Timeout(1.0)
        raise RuntimeError("observed crash")

    def watcher():
        try:
            yield sim.spawn(crasher())
        except RuntimeError as exc:
            caught.append(str(exc))

    sim.spawn(watcher())
    sim.run()
    assert caught == ["observed crash"]


def test_spawn_requires_generator():
    sim = Simulator()
    with pytest.raises(SimulationError):
        Process(sim, lambda: None)  # type: ignore[arg-type]


def test_yield_invalid_object_crashes_process():
    sim = Simulator()

    def proc():
        yield 42

    sim.spawn(proc())
    with pytest.raises(SimulationError):
        sim.run()


def test_step_returns_false_when_idle():
    sim = Simulator()
    assert sim.step() is False
    sim.schedule(1.0, lambda: None)
    assert sim.step() is True
    assert sim.pending == 0


def test_many_processes_complete():
    sim = Simulator()
    done = []

    def worker(index):
        yield Timeout(index * 0.1)
        done.append(index)

    for index in range(100):
        sim.spawn(worker(index))
    sim.run()
    assert sorted(done) == list(range(100))


def test_call_at_fires_at_absolute_time():
    sim = Simulator()
    fired = []
    sim.call_at(2.5, lambda: fired.append(sim.now))
    sim.call_at(1.0, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [1.0, 2.5]


def test_call_at_passes_arguments():
    sim = Simulator()
    seen = []
    sim.call_at(0.5, seen.append, "payload")
    sim.run()
    assert seen == ["payload"]


def test_call_at_into_past_rejected():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    assert sim.now == 1.0
    with pytest.raises(SimulationError):
        sim.call_at(0.5, lambda: None)


def test_call_at_now_is_allowed():
    sim = Simulator()
    fired = []
    sim.call_at(0.0, fired.append, True)
    sim.run()
    assert fired == [True]


def test_call_at_same_time_fifo_with_schedule():
    sim = Simulator()
    order = []
    sim.schedule(1.0, order.append, "schedule")
    sim.call_at(1.0, order.append, "call_at")
    sim.run()
    assert order == ["schedule", "call_at"]


# -- same-instant ordering ---------------------------------------------------
#
# A process that yields ``Timeout(d)`` resumes *behind* every entry
# already due at the instant the timeout elapses, even one queued
# after the process yielded.  Scenario traces depend on this order, so
# these tests pin it.


def test_timeout_resumes_after_callbacks_already_due_at_that_instant():
    sim = Simulator()
    order = []

    def proc():
        yield Timeout(2.0)
        order.append("process")

    sim.spawn(proc())
    sim.run(until=1.0)  # the process has yielded; its timeout is queued
    sim.schedule(1.0, order.append, "schedule")
    sim.call_at(2.0, order.append, "call_at")
    sim.run()
    assert order == ["schedule", "call_at", "process"]


def test_callback_queued_at_the_instant_itself_runs_after_the_resume():
    sim = Simulator()
    order = []

    def proc():
        yield Timeout(2.0)
        order.append("process")

    def first():
        order.append("first")
        sim.schedule(0.0, order.append, "queued-by-first")

    sim.spawn(proc())
    sim.run(until=1.0)
    sim.call_at(2.0, first)
    sim.run()
    assert order == ["first", "process", "queued-by-first"]


@pytest.mark.parametrize("gate_position, expected", [
    (0, ["waiter", "p1", "p2"]),
    (1, ["p1", "waiter", "p2"]),
    (2, ["p1", "p2", "waiter"]),
])
def test_tied_timeouts_resume_in_yield_order_around_an_event_waiter(
        gate_position, expected):
    sim = Simulator()
    gate = sim.event()
    order = []

    def waiter():
        yield gate
        order.append("waiter")

    def sleeper(name):
        yield Timeout(1.0)
        order.append(name)

    sim.spawn(waiter())
    starts = [lambda: sim.spawn(sleeper("p1")),
              lambda: sim.spawn(sleeper("p2"))]
    starts.insert(gate_position,
                  lambda: sim.schedule(0.0, sim.call_at, 1.0,
                                       gate.succeed, "go"))
    for start in starts:
        start()
    sim.run()
    assert order == expected


@pytest.mark.parametrize("interrupt_first, expected", [
    # Interrupt queued before the timeout: it wins, the elapsed wake
    # is stale and dropped, the re-armed timeout runs to 4.0.
    (True, [("interrupt", 2.0, "x"), ("elapsed", 4.0)]),
    # Interrupt queued after the timeout, same instant: the process
    # resumes first, then takes the interrupt at its next wait.
    (False, [("elapsed", 2.0), ("interrupt", 2.0, "x")]),
])
def test_interrupt_at_the_instant_a_timeout_elapses(interrupt_first,
                                                    expected):
    sim = Simulator()
    log = []
    pause = Timeout(2.0)  # reused across waits on purpose

    def victim():
        for _ in range(2):
            try:
                yield pause
                log.append(("elapsed", sim.now))
            except Interrupt as interrupt:
                log.append(("interrupt", sim.now, interrupt.cause))

    process = sim.spawn(victim())
    if not interrupt_first:
        sim.run(until=1.0)  # the process has yielded; its timeout is queued
    # Before the first run, the interrupt is queued ahead of the
    # timeout, which the process only yields once it starts.
    sim.call_at(2.0, process.interrupt, "x")
    sim.run()
    assert log == expected
    assert sum(1 for entry in log if entry[0] == "interrupt") == 1
    assert not process.alive


@pytest.mark.parametrize("kill_at, kill_before_timeout", [
    (1.0, False), (2.0, True), (2.0, False),
])
def test_process_killed_mid_timeout_never_resumes(kill_at,
                                                  kill_before_timeout):
    sim = Simulator()
    ran = []
    finished = []

    def victim():
        yield Timeout(2.0)
        ran.append(sim.now)

    process = sim.spawn(victim())
    if not kill_before_timeout:
        sim.run(until=0.5)
    sim.call_at(kill_at, process.kill)
    process.done.add_callback(lambda event: finished.append(sim.now))
    sim.run()
    assert ran == []
    assert finished == [kill_at]
    assert not process.alive
    assert sim.pending == 0


def test_run_processes_returns_once_the_listed_processes_finish():
    sim = Simulator()

    def sleeper(delay):
        yield Timeout(delay)

    def background():
        while True:
            yield Timeout(0.5)

    sim.spawn(background())
    slow, fast = sim.spawn(sleeper(3.0)), sim.spawn(sleeper(1.0))
    assert sim.run_processes([fast, slow], deadline=10.0)
    assert sim.now == 3.0
    assert not slow.alive
    assert sim.pending > 0  # the background process is still queued


def test_run_processes_stops_after_the_step_past_the_deadline():
    sim = Simulator()

    def forever():
        while True:
            yield Timeout(1.0)

    process = sim.spawn(forever())
    assert not sim.run_processes([process], deadline=2.5)
    assert sim.now == 3.0
    assert process.alive
