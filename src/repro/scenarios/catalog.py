"""The built-in scenario catalog: nine fault families plus controls.

The paper evaluates four fault types (API errors, resource
exhaustion, dead software dependencies, latency shifts).  This
catalog keeps those and goes past them with the SREGym problem
families the ROADMAP names: RPC retry storms, broker partitions,
config drift, correlated multi-service faults, slow-burn resource
leaks, cascading failures, and no-op controls for false-positive
measurement.

Every scenario is deterministic at a given seed: test selection comes
from the scenario's salted RNG, and every perturbation is pinned to
the simulated clock (``Simulator.call_at``) so the injection timeline
is part of the scenario's identity.  See ``docs/scenarios.md`` for
the anatomy and a guide to adding one.
"""

from __future__ import annotations

import random
from typing import ClassVar, List, Tuple

from repro.core.config import GretelConfig
from repro.evaluation.common import (
    _distinctive_fault_api,
    default_suite,
)
from repro.monitoring.store import MetadataStore
from repro.scenarios.base import (
    CapturedRun,
    CauseSpec,
    Expectation,
    FaultSpec,
    Localization,
    Scenario,
    ScenarioError,
)
from repro.scenarios.registry import scenario
from repro.workloads.tempest import TempestTest
from repro.workloads.traffic import SyntheticStream

#: The broker and its host in the default topology.
BROKER_NODE = "ctrl"
BROKER_PROCESS = "rabbitmq"
#: The L2 agent of §7.2.3.
L2_AGENT = "neutron-plugin-linuxbridge-agent"


def _find_test(prefix: str) -> TempestTest:
    """First suite test whose name starts with ``prefix``."""
    suite = default_suite()
    return next(t for t in suite.tests if t.name.startswith(prefix))


def _upload_test() -> TempestTest:
    """The 2 GB image-upload test (§7.2.1's workload)."""
    suite = default_suite()
    return next(
        t for t in suite.tests
        if t.name.startswith("image.upload")
        and t.variant.get("size_gb") == 2.0
    )


def _sample_mix(rng: random.Random, n: int, *,
                categories: Tuple[str, ...] = (),
                exclude_templates: Tuple[str, ...] = ()) -> List[TempestTest]:
    """``n`` background tests drawn from the (filtered) suite."""
    suite = default_suite()
    pool = [
        t for t in suite.tests
        if (not categories or t.category in categories)
        and t.template.name not in exclude_templates
    ]
    return [rng.choice(pool) for _ in range(n)]


# ---------------------------------------------------------------------------
# Storms
# ---------------------------------------------------------------------------

@scenario
class IdenticalFaultStorm(Scenario):
    """Fig. 8a's hard case: many instances of the *same* faulty test.

    Eight parallel instances of one compute test each take an injected
    500 on a distinctive state-change API, amid a healthy 24-test
    background mix.  Detection must attribute a report to (almost)
    every instance and name the single shared operation.
    """

    name = "identical_fault_storm"
    family = "storm"
    description = ("8 identical faulty test instances under a healthy "
                   "background mix (Fig. 8a shape)")
    concurrency = 32
    n_faults: ClassVar[int] = 8

    def capture(self) -> CapturedRun:
        rng = self.rng()
        cloud, plane, captured, runner = self._open_capture()
        suite = default_suite()
        remaining = [t for t in suite.tests if t.category == "compute"]
        api_key = None
        while api_key is None:
            if not remaining:
                raise ScenarioError(
                    f"{self.name}: no compute test has a distinctive "
                    "state-change REST API to fault"
                )
            # Some compute tests change no state over REST: redraw.
            faulty = rng.choice(remaining)
            remaining.remove(faulty)
            api_key = _distinctive_fault_api(
                faulty, self.character, self.character.library.symbols,
                rng,
            )
        for _ in range(self.n_faults):
            cloud.faults.inject_api_error(
                api_key, 500, "Injected identical fault", count=1,
                op_id=faulty.test_id,
            )
        mix = _sample_mix(rng, self.concurrency - self.n_faults,
                          exclude_templates=(faulty.template.name,))
        runner.run_concurrent(mix + [faulty] * self.n_faults,
                              stagger=0.05, settle=3.0)
        return self._finish(
            cloud, plane, captured,
            injected=cloud.faults.injected_error_count,
            meta={"test_id": faulty.test_id,
                  "api_key": api_key,
                  "service": api_key.split(":")[1]},
        )

    def expectation(self, captured: CapturedRun) -> Expectation:
        test_id = str(captured.meta["test_id"])
        service = str(captured.meta["service"])
        spec = FaultSpec(
            label="identical-500-storm", start=0.0,
            services=(service,), statuses=(500,),
            op_id=test_id, count=self.n_faults,
        )
        return Expectation(
            faults=(spec,),
            min_precision=1.0, min_recall=0.75,
            localization=Localization(
                services=(service,), operation=test_id,
                min_operation_rate=0.5,
            ),
        )


@scenario
class SyntheticErrorBurst(Scenario):
    """Fault slots on a fabricated single-source stream (Fig. 8c shape).

    A :class:`SyntheticStream` with one fault slot per 800 events —
    the stream itself is the ground truth.
    """

    name = "synthetic_error_burst"
    family = "storm"
    description = ("fabricated 4.8K-event stream with one fault slot "
                   "per 800 events")
    track_latency = True
    n_events: ClassVar[int] = 4800
    fault_every: ClassVar[int] = 800

    def analyzer_config(self) -> GretelConfig:
        return GretelConfig(alpha=768)

    def capture(self) -> CapturedRun:
        library = self.character.library
        stream = SyntheticStream(
            library, library.symbols, fault_every=self.fault_every,
            concurrency=32, rate_pps=20_000.0, seed=self.seed,
        )
        events = stream.events(self.n_events)
        errors = [e for e in events if e.error]
        assert stream.fault_slots(self.n_events) >= 1
        return self._seal(
            events, MetadataStore(),
            injected=len(errors),
            duration=events[-1].ts_response if events else 0.0,
            meta={"errors": [
                {"op_id": e.op_id, "service": e.dst_service,
                 "status": e.status}
                for e in errors
            ]},
        )

    def expectation(self, captured: CapturedRun) -> Expectation:
        specs = tuple(
            FaultSpec(
                label=f"burst-{i}", start=0.0,
                services=(str(err["service"]),),
                statuses=(int(str(err["status"])),),
                op_id=str(err["op_id"]),
            )
            for i, err in enumerate(list(captured.meta["errors"]))
        )
        return Expectation(faults=specs, min_precision=1.0,
                           min_recall=1.0)


# ---------------------------------------------------------------------------
# Performance
# ---------------------------------------------------------------------------

@scenario
class PerformanceLevelShift(Scenario):
    """§7.2.2 / Fig. 6: a CPU surge inflates Neutron API latencies.

    A sustained 48-way workload runs for 24 simulated seconds; a 60%
    CPU surge strikes the Neutron controller mid-run.  The level-shift
    detector must alarm inside the surge window and Algorithm 3 must
    name the CPU on ``neutron-ctl``.
    """

    name = "performance_level_shift"
    family = "performance"
    description = ("mid-run 60% CPU surge on neutron-ctl under a "
                   "sustained 48-way workload (Fig. 6 shape)")
    track_latency = True
    concurrency = 48
    duration: ClassVar[float] = 24.0
    surge: ClassVar[float] = 0.6

    def capture(self) -> CapturedRun:
        cloud, plane, captured, runner = self._open_capture()
        start = self.duration * 0.4
        end = self.duration * 0.9
        cloud.faults.cpu_surge("neutron-ctl", self.surge,
                               start=start, end=end)
        runner.run_sustained(
            default_suite().tests, concurrency=self.concurrency,
            duration=self.duration, seed=self.seed,
        )
        return self._finish(
            cloud, plane, captured, injected=1,
            meta={"surge_window": (start, end)},
        )

    def expectation(self, captured: CapturedRun) -> Expectation:
        start, end = captured.meta["surge_window"]
        # Nova's interface attach/detach operations proxy to Neutron,
        # so their observed latencies inflate with the surge too — a
        # genuine cascade, not a stray.  The precision floor of 0.8
        # tolerates the level-shift detector's few warm-up alarms
        # (fired before the surge while baselines are still settling).
        spec = FaultSpec(
            label="neutron-cpu-surge", start=float(start), end=float(end),
            slack=3.0, kind="performance",
            services=("neutron", "nova"),
            cause=CauseSpec("resource", "cpu", "neutron-ctl"),
        )
        return Expectation(
            faults=(spec,),
            min_precision=0.8, min_recall=1.0,
            localization=Localization(services=("neutron", "nova")),
        )


# ---------------------------------------------------------------------------
# RPC / messaging failures
# ---------------------------------------------------------------------------

@scenario
class RpcRetryStorm(Scenario):
    """Scheduler RPC failing under retries, surfacing as REST errors.

    Every ``select_destinations`` call fails from t=0.5 on — the shape
    of an RPC retry storm where retries never land.  RPC errors alone
    never freeze GRETEL's window (only REST errors do); the fault is
    detectable because failed scheduling cascades into "No valid
    host" 500s on the boot status polls.
    """

    name = "rpc_retry_storm"
    family = "rpc"
    description = ("nova scheduler RPC fails from t=0.5; detection "
                   "rides the cascaded REST 500s")
    concurrency = 22
    n_boots: ClassVar[int] = 6

    def capture(self) -> CapturedRun:
        rng = self.rng()
        cloud, plane, captured, runner = self._open_capture()
        cloud.faults.inject_api_error(
            "rpc:nova:call:select_destinations", 504,
            "Messaging timeout (retry storm)", count=None, start=0.5,
        )
        boot = _find_test("compute.boot_server")
        mix = _sample_mix(
            rng, self.concurrency - self.n_boots,
            categories=("network", "image", "storage", "misc"),
        )
        runner.run_concurrent(mix + [boot] * self.n_boots,
                              stagger=0.05, settle=3.0)
        return self._finish(
            cloud, plane, captured,
            injected=cloud.faults.injected_error_count,
            meta={"boot_test_id": boot.test_id},
        )

    def expectation(self, captured: CapturedRun) -> Expectation:
        boot_id = str(captured.meta["boot_test_id"])
        spec = FaultSpec(
            label="scheduler-rpc-storm", start=0.5,
            services=("nova",), statuses=(500,),
            count=self.n_boots,
        )
        return Expectation(
            faults=(spec,),
            min_precision=1.0, min_recall=0.75,
            localization=Localization(
                services=("nova",), operation=boot_id,
                min_operation_rate=0.5,
            ),
        )


@scenario
class BrokerPartition(Scenario):
    """The message broker drops off the network mid-run.

    RabbitMQ is crashed at t=0.5 and stays down (a partitioned broker
    is not a transient blip).  Every RPC times out; boots fail with
    "No valid host"; status polls cascade into REST 500s.  Algorithm 3
    must find the dead broker process on the control node.
    """

    name = "broker_partition"
    family = "partition"
    description = ("rabbitmq crashed at t=0.5 and never restarted; "
                   "all RPC times out, boots cascade into 500s")
    concurrency = 24
    n_boots: ClassVar[int] = 4

    def capture(self) -> CapturedRun:
        rng = self.rng()
        cloud, plane, captured, runner = self._open_capture()
        cloud.sim.call_at(0.5, cloud.faults.crash_process,
                          BROKER_NODE, BROKER_PROCESS)
        boot = _find_test("compute.boot_server")
        mix = _sample_mix(rng, self.concurrency - self.n_boots)
        runner.run_concurrent(mix + [boot] * self.n_boots,
                              stagger=0.05, settle=3.0)
        return self._finish(cloud, plane, captured, injected=1,
                            meta={"boot_test_id": boot.test_id})

    def expectation(self, captured: CapturedRun) -> Expectation:
        spec = FaultSpec(
            label="broker-partition", start=0.5, statuses=(500,),
            count=self.n_boots,
            cause=CauseSpec("software", BROKER_PROCESS, BROKER_NODE),
        )
        return Expectation(
            faults=(spec,),
            min_precision=1.0, min_recall=0.75,
        )


# ---------------------------------------------------------------------------
# Config drift
# ---------------------------------------------------------------------------

@scenario
class ConfigDrift(Scenario):
    """A bad policy rollout: one API starts answering 403.

    From t=0.5 every ``add_router_interface`` call is rejected with
    403 — the signature of a mis-deployed ``policy.json``.  No process
    dies and no resource is anomalous; detection and operation
    localization carry the whole verdict.
    """

    name = "config_drift"
    family = "config"
    description = ("add_router_interface answers 403 from t=0.5 "
                   "(bad policy rollout); no dead process to find")
    concurrency = 20
    n_routers: ClassVar[int] = 5
    drift_at: ClassVar[float] = 0.5

    API_KEY: ClassVar[str] = (
        "rest:neutron:PUT:/v2.0/routers/{id}/add_router_interface"
    )

    def capture(self) -> CapturedRun:
        rng = self.rng()
        cloud, plane, captured, runner = self._open_capture()
        cloud.faults.inject_api_error(
            self.API_KEY, 403,
            "Policy does not allow add_router_interface "
            "(bad policy.json rollout)",
            count=None, start=self.drift_at,
        )
        router = _find_test("network.router_lifecycle")
        mix = _sample_mix(
            rng, self.concurrency - self.n_routers,
            exclude_templates=("network.router_lifecycle",),
        )
        runner.run_concurrent(mix + [router] * self.n_routers,
                              stagger=0.05, settle=3.0)
        return self._finish(
            cloud, plane, captured,
            injected=cloud.faults.injected_error_count,
            meta={"router_test_id": router.test_id},
        )

    def expectation(self, captured: CapturedRun) -> Expectation:
        router_id = str(captured.meta["router_test_id"])
        spec = FaultSpec(
            label="policy-403-drift", start=self.drift_at,
            services=("neutron",), statuses=(403,),
            count=self.n_routers,
        )
        return Expectation(
            faults=(spec,),
            min_precision=1.0, min_recall=0.75,
            localization=Localization(
                services=("neutron",), operation=router_id,
                min_operation_rate=0.5,
            ),
        )


# ---------------------------------------------------------------------------
# Correlated / cascading failures
# ---------------------------------------------------------------------------

@scenario
class CorrelatedMultiService(Scenario):
    """Two unrelated faults strike two services at the same time.

    The Glance node runs out of disk (uploads fail 413) while NTP dies
    on the Cinder node (Keystone rejects the skewed tokens with 401 and
    Cinder itself degrades to 503).  One capture, two fault conditions,
    two distinct root causes: each page names its own fault's cause
    only (disk on Glance pages, NTP on Keystone and Cinder pages).
    """

    name = "correlated_multiservice"
    family = "multiservice"
    description = ("glance-node disk full (413s) while ntp dies on "
                   "cinder-node (401s) — two concurrent root causes")
    concurrency = 16
    n_uploads: ClassVar[int] = 3
    n_queries: ClassVar[int] = 3

    def capture(self) -> CapturedRun:
        rng = self.rng()
        cloud, plane, captured, runner = self._open_capture()
        cloud.faults.fill_disk("glance-node", leave_free_gb=6.0)
        cloud.faults.crash_process("cinder-node", "ntp")
        upload = _upload_test()
        queries = _find_test("storage.queries")
        mix = _sample_mix(
            rng, self.concurrency - self.n_uploads - self.n_queries,
            categories=("compute", "network", "misc"),
        )
        tests = (mix + [upload] * self.n_uploads
                 + [queries] * self.n_queries)
        runner.run_concurrent(tests, stagger=0.1, settle=3.0)
        return self._finish(cloud, plane, captured, injected=2)

    def expectation(self, captured: CapturedRun) -> Expectation:
        disk = FaultSpec(
            label="glance-disk-full", start=0.0,
            services=("glance",), statuses=(413,),
            count=self.n_uploads,
            cause=CauseSpec("resource", "disk", "glance-node"),
        )
        # The dead NTP cascades two ways: Keystone rejects the skewed
        # tokens (401) and Cinder itself degrades (503).
        auth = FaultSpec(
            label="cinder-ntp-skew", start=0.0,
            services=("keystone", "cinder"), statuses=(401, 503),
            count=self.n_queries,
            cause=CauseSpec("software", "ntp", "cinder-node"),
        )
        return Expectation(
            faults=(disk, auth),
            min_precision=1.0, min_recall=0.75,
            localization=Localization(
                services=("glance", "keystone", "cinder"),
            ),
        )


@scenario
class CascadingAgentFailure(Scenario):
    """§7.2.3 as a cascade: the L2 agent dies, *nova* reports errors.

    The Linux bridge agent is crashed on every hypervisor at t=0.3.
    nova-compute stays up, yet boots fail with "No valid host" — the
    fault surfaces two services away from its cause.  Algorithm 3 must
    cross the cascade and name the dead agent.
    """

    name = "cascading_agent_failure"
    family = "cascade"
    description = ("linuxbridge agent crashed on all hypervisors at "
                   "t=0.3; boots fail on nova, cause lives on neutron")
    concurrency = 20
    n_boots: ClassVar[int] = 4

    def capture(self) -> CapturedRun:
        rng = self.rng()
        cloud, plane, captured, runner = self._open_capture()
        cloud.sim.call_at(0.3, cloud.faults.crash_everywhere, L2_AGENT)
        boot = _find_test("compute.boot_server")
        mix = _sample_mix(
            rng, self.concurrency - self.n_boots,
            categories=("image", "storage", "misc"),
        )
        runner.run_concurrent(mix + [boot] * self.n_boots,
                              stagger=0.05, settle=3.0)
        return self._finish(cloud, plane, captured, injected=1,
                            meta={"boot_test_id": boot.test_id})

    def expectation(self, captured: CapturedRun) -> Expectation:
        boot_id = str(captured.meta["boot_test_id"])
        spec = FaultSpec(
            label="l2-agent-cascade", start=0.3,
            services=("nova",), statuses=(500,),
            count=self.n_boots,
            cause=CauseSpec("software", L2_AGENT),
        )
        return Expectation(
            faults=(spec,),
            min_precision=1.0, min_recall=0.75,
            localization=Localization(
                services=("nova",), operation=boot_id,
                min_operation_rate=0.5,
            ),
        )


# ---------------------------------------------------------------------------
# Slow burn
# ---------------------------------------------------------------------------

@scenario
class SlowBurnDiskLeak(Scenario):
    """A resource leak that crosses the failure threshold mid-run.

    Nine scheduled steps drain the Glance node's disk between t=0.5
    and t=4.5; image uploads staggered to start after the drain fail
    with 413.  Unlike a fill-at-t=0 fault, early traffic is healthy —
    detection must fire only once the leak has burned down the disk.
    """

    name = "slow_burn_disk_leak"
    family = "slow-burn"
    description = ("glance-node disk drained in 9 steps over "
                   "[0.5, 4.5]; late uploads fail 413")
    concurrency = 15
    n_uploads: ClassVar[int] = 3
    leak_steps: ClassVar[int] = 9

    def capture(self) -> CapturedRun:
        rng = self.rng()
        cloud, plane, captured, runner = self._open_capture()
        resources = cloud.resources["glance-node"]
        free0 = resources.disk_free_gb(0.0)
        step_gb = max(0.0, free0 - 6.0) / self.leak_steps
        for step in range(self.leak_steps):
            cloud.sim.call_at(0.5 + 0.5 * step,
                              resources.consume_disk, step_gb)
        upload = _upload_test()
        mix = _sample_mix(
            rng, self.concurrency - self.n_uploads,
            categories=("compute", "network", "storage", "misc"),
        )
        runner.run_concurrent(mix + [upload] * self.n_uploads,
                              stagger=0.4, settle=3.0)
        return self._finish(cloud, plane, captured,
                            injected=self.leak_steps,
                            meta={"free0": free0})

    def expectation(self, captured: CapturedRun) -> Expectation:
        spec = FaultSpec(
            label="glance-disk-leak", start=4.0,
            services=("glance",), statuses=(413,),
            count=self.n_uploads,
            cause=CauseSpec("resource", "disk", "glance-node"),
        )
        return Expectation(
            faults=(spec,),
            min_precision=1.0, min_recall=0.75,
            localization=Localization(services=("glance",)),
        )


# ---------------------------------------------------------------------------
# Controls
# ---------------------------------------------------------------------------

@scenario
class NoopControl(Scenario):
    """A healthy live run: any report is a false positive."""

    name = "noop_control"
    family = "control"
    description = ("24-way healthy workload, nothing injected; "
                   "measures live false positives")
    is_control = True
    concurrency = 24

    def capture(self) -> CapturedRun:
        rng = self.rng()
        cloud, plane, captured, runner = self._open_capture()
        mix = _sample_mix(rng, self.concurrency)
        runner.run_concurrent(mix, stagger=0.05, settle=3.0)
        return self._finish(cloud, plane, captured, injected=0)

    def expectation(self, captured: CapturedRun) -> Expectation:
        return Expectation(faults=())


@scenario
class NoopSyntheticControl(Scenario):
    """The traffic-module footgun as a *deliberate* control.

    ``fault_every`` larger than the stream opens zero fault slots —
    exactly the silent mistake :meth:`SyntheticStream.fault_slots`
    exposes and non-control scenarios must assert against.  Here the
    fault-free stream is the point: a 4K-event healthy replay that
    must stay silent.
    """

    name = "noop_synthetic_control"
    family = "control"
    description = ("4K-event synthetic stream with fault_every > "
                   "length (zero fault slots); must stay silent")
    is_control = True
    track_latency = True
    n_events: ClassVar[int] = 4000
    fault_every: ClassVar[int] = 5000

    def analyzer_config(self) -> GretelConfig:
        return GretelConfig(alpha=768)

    def capture(self) -> CapturedRun:
        library = self.character.library
        stream = SyntheticStream(
            library, library.symbols, fault_every=self.fault_every,
            concurrency=32, rate_pps=20_000.0, seed=self.seed,
        )
        assert stream.fault_slots(self.n_events) == 0
        events = stream.events(self.n_events)
        errors = sum(1 for e in events if e.error)
        return self._seal(
            events, MetadataStore(), injected=errors,
            duration=events[-1].ts_response if events else 0.0,
        )

    def expectation(self, captured: CapturedRun) -> Expectation:
        return Expectation(faults=())


__all__ = [
    "BrokerPartition",
    "CascadingAgentFailure",
    "ConfigDrift",
    "CorrelatedMultiService",
    "IdenticalFaultStorm",
    "NoopControl",
    "NoopSyntheticControl",
    "PerformanceLevelShift",
    "RpcRetryStorm",
    "SlowBurnDiskLeak",
    "SyntheticErrorBurst",
]
