"""Scenario anatomy: capture, ground truth, expectation.

A :class:`Scenario` bundles the three things one fault-injection
experiment needs (the SREGym ``Problem`` shape, see SNIPPETS.md):

* a **deterministic, seeded fault injector** over the simulated
  OpenStack — every perturbation is pinned to the simulated clock via
  :meth:`repro.sim.Simulator.call_at` or the
  :class:`~repro.openstack.faults.FaultInjector` primitives, so the
  same seed reproduces the same timeline;
* a **traffic profile** — the workload the faults strike (a concurrent
  Tempest-style mix, a sustained load, or a fabricated
  :class:`~repro.workloads.traffic.SyntheticStream`);
* an **expectation** — machine-checkable ground truth
  (:class:`FaultSpec` instances plus a :class:`Localization`) that the
  graded oracles in :mod:`repro.scenarios.oracles` compare against
  GRETEL's fault reports.

Capture and grading are split on purpose: :meth:`Scenario.capture`
runs the (expensive) simulation exactly once and records the wire
stream every monitoring agent emitted plus the populated metadata
store; graders then *replay* that capture through a fresh analyzer
cheaply.  The replayed results are provably the
live results — the monitoring plane's tap bus captures each event at
its source-node agent exactly once, in the order the analyzer saw it.
"""

from __future__ import annotations

import abc
import random
import zlib
from dataclasses import dataclass, field
from typing import Any, ClassVar, Dict, List, Optional, Tuple

from repro.core.characterize import CharacterizationResult
from repro.core.config import GretelConfig
from repro.core.reports import FaultReport
from repro.evaluation.common import p_rate_for
from repro.monitoring.plane import MonitoringPlane
from repro.monitoring.store import MetadataStore
from repro.openstack.cloud import Cloud
from repro.openstack.wire import WireEvent
from repro.workloads.runner import WorkloadRunner


class ScenarioError(RuntimeError):
    """An ill-formed scenario (e.g. a non-control that injected nothing)."""


@dataclass(frozen=True)
class CauseSpec:
    """One root-cause finding Algorithm 3 is expected to produce."""

    kind: str                  # "resource" | "software"
    subject: str               # metric or process name
    node: Optional[str] = None  # None = any node

    def leads(self, report: FaultReport) -> bool:
        """Whether this is ``report``'s first root-cause finding."""
        return any(c.kind == self.kind and c.subject == self.subject
                   and self.node in (None, c.node)
                   for c in report.root_causes[:1])


@dataclass(frozen=True)
class FaultSpec:
    """Ground truth for one injected fault condition.

    A spec both *attributes* reports (is this report explained by my
    injection?) and *counts instances* for recall: ``count`` is the
    number of independently injected fault instances this spec stands
    for (e.g. 8 parallel instances of the same faulty test).
    """

    label: str
    #: Injection window on the simulated clock; ``end=None`` is
    #: open-ended (the fault persisted until the capture drained).
    start: float
    end: Optional[float] = None
    #: Grace period after ``end`` during which cascaded errors (e.g.
    #: status polls of an already-failed instance) still attribute.
    slack: float = 2.0
    #: Report kind this fault manifests as.
    kind: str = "operational"
    #: Acceptable offending-event destination services; () = any.
    services: Tuple[str, ...] = ()
    #: Acceptable offending-event statuses; () = any error status.
    statuses: Tuple[int, ...] = ()
    #: Restrict attribution to one ground-truth operation instance.
    op_id: Optional[str] = None
    #: Number of injected fault instances this spec represents.
    count: int = 1
    #: The root cause Algorithm 3 must name first on this fault's
    #: pages; None = no cause to check.
    cause: Optional[CauseSpec] = None

    def attributes(self, report: FaultReport) -> bool:
        """Whether ``report`` is explained by this injection."""
        if report.kind != self.kind:
            return False
        if not report.within(self.start, self.end, self.slack):
            return False
        if self.services and not report.implicates_service(*self.services):
            return False
        if self.statuses and report.fault_event.status not in self.statuses:
            return False
        if self.op_id is not None and report.fault_event.op_id != self.op_id:
            return False
        return True


@dataclass(frozen=True)
class Localization:
    """What a correct Alg. 3 verdict names for this scenario, beyond
    each fault's own :attr:`FaultSpec.cause`.

    Grading is *graded*, not all-or-nothing: every attributed report
    must target an expected service (when given), and the ground-truth
    operation must be among the matched operations of at least
    ``min_operation_rate`` of the attributed reports that carry
    operation ground truth.
    """

    services: Tuple[str, ...] = ()
    operation: Optional[str] = None
    min_operation_rate: float = 0.5


@dataclass(frozen=True)
class Expectation:
    """The full graded contract for one scenario."""

    faults: Tuple[FaultSpec, ...]
    #: Floors for the detection oracle (report-level precision,
    #: instance-level recall).
    min_precision: float = 1.0
    min_recall: float = 1.0
    localization: Optional[Localization] = None


@dataclass
class CapturedRun:
    """One live simulation's complete observable record."""

    #: The wire events, in the exact order the live analyzer saw them.
    events: List[WireEvent]
    #: The populated (now read-only) metadata store: resource samples,
    #: process liveness, dependency polls.  Replays consult it so
    #: Algorithm 3 sees the same world the live run did.
    store: MetadataStore
    #: Number of fault injections that actually took effect.
    injected: int
    #: Simulated seconds the capture spans.
    duration: float
    #: Scenario-private facts recorded at capture time (chosen tests,
    #: injection timeline, ...), consumed by :meth:`Scenario.expectation`.
    meta: Dict[str, Any] = field(default_factory=dict)


class Scenario(abc.ABC):
    """One registered fault-injection experiment."""

    #: Registry key, e.g. ``"broker_partition"``.
    name: ClassVar[str] = ""
    #: Problem family, e.g. ``"cascade"`` or ``"control"``.
    family: ClassVar[str] = ""
    #: One-line operator-facing description.
    description: ClassVar[str] = ""
    #: Controls measure false positives; they are the only scenarios
    #: allowed to inject nothing.
    is_control: ClassVar[bool] = False
    #: Whether replays track per-API latency (performance scenarios).
    track_latency: ClassVar[bool] = False
    #: Concurrency the analyzer window is calibrated for.
    concurrency: ClassVar[int] = 24

    def __init__(self, character: CharacterizationResult, *,
                 seed: int = 0) -> None:
        self.character = character
        self.seed = seed

    # -- deterministic identity -------------------------------------------

    def rng(self) -> random.Random:
        """A seeded stream unique to (scenario name, seed).

        The salt is a CRC of the scenario name, not ``hash()``, so the
        stream is stable across interpreter hash randomization.
        """
        salt = zlib.crc32(self.name.encode("utf-8"))
        return random.Random(self.seed * 1_000_003 + salt)

    def analyzer_config(self) -> GretelConfig:
        """The replay configuration (window calibrated to concurrency)."""
        return GretelConfig(p_rate=p_rate_for(self.concurrency))

    # -- the contract ------------------------------------------------------

    @abc.abstractmethod
    def capture(self) -> CapturedRun:
        """Run the seeded simulation once; record everything observable."""

    @abc.abstractmethod
    def expectation(self, captured: CapturedRun) -> Expectation:
        """The graded ground-truth contract for ``captured``."""

    # -- capture plumbing shared by live scenarios -------------------------

    def _open_capture(self) -> Tuple[Cloud, MonitoringPlane,
                                     List[WireEvent], WorkloadRunner]:
        """A monitored cloud whose full egress stream is recorded."""
        cloud = Cloud(seed=self.seed)
        plane = MonitoringPlane(cloud)
        captured: List[WireEvent] = []
        plane.subscribe_events(captured.append)
        plane.start()
        return cloud, plane, captured, WorkloadRunner(cloud)

    def _seal(self, events: List[WireEvent], store: MetadataStore, *,
              injected: int, duration: float,
              meta: Optional[Dict[str, Any]] = None) -> CapturedRun:
        """Seal a capture; enforce the ≥1-injection invariant.

        A scenario that claims to inject faults but didn't (an API key
        that never fired, a ``fault_every`` larger than the stream, a
        mistimed window) would otherwise grade vacuously — only
        explicit controls may produce a fault-free capture.
        """
        if injected < 1 and not self.is_control:
            raise ScenarioError(
                f"scenario {self.name!r} injected no faults: a non-control "
                "scenario must verify at least one injection took effect "
                "(set is_control=True if a fault-free run is the point)"
            )
        return CapturedRun(
            events=list(events),
            store=store,
            injected=injected,
            duration=duration,
            meta=dict(meta or {}),
        )

    def _finish(self, cloud: Cloud, plane: MonitoringPlane,
                captured: List[WireEvent], *, injected: int,
                meta: Optional[Dict[str, Any]] = None) -> CapturedRun:
        """Seal a live capture from its cloud and monitoring plane."""
        return self._seal(
            captured, plane.store, injected=injected,
            duration=cloud.sim.now, meta=meta,
        )
