"""Discrete-event simulation kernel for the GRETEL reproduction.

This package provides a compact, dependency-free process-based
discrete-event simulator in the spirit of SimPy.  The simulated
OpenStack deployment (:mod:`repro.openstack`), the monitoring plane
(:mod:`repro.monitoring`) and the workload drivers
(:mod:`repro.workloads`) are all built as processes on top of this
kernel, which gives the reproduction a single, deterministic notion of
time shared by every component.

The public surface is intentionally small:

``Simulator``
    The event loop.  Owns the clock and the pending-event heap.
``Process``
    A generator-based simulated activity, created via
    :meth:`Simulator.spawn`.
``Timeout`` / ``Event`` / ``AllOf`` / ``AnyOf``
    The things a process may ``yield`` to block on.
``RandomStreams``
    Named, seeded random streams so independent subsystems draw from
    independent deterministic sequences.

Ordering contract: entries due at the same instant run in the order
they were queued (FIFO), and a process's ``Timeout`` resume queues
behind every entry already due at the instant it elapses, even one
queued after the process yielded.  Every captured trace depends on
this order byte for byte (see :mod:`repro.sim.kernel`).
"""

from repro.sim.kernel import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    Process,
    ProcessKilled,
    SimulationError,
    Simulator,
    Timeout,
)
from repro.sim.randomness import RandomStreams

__all__ = [
    "AllOf",
    "AnyOf",
    "Event",
    "Interrupt",
    "Process",
    "ProcessKilled",
    "RandomStreams",
    "SimulationError",
    "Simulator",
    "Timeout",
]
