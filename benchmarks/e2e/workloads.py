"""The five workloads (README.md says why each exists).

Each function takes a :class:`harness.Run`, builds its inputs from the
run's seed, computes the reference, calls ``run.ready()`` at the first
timed event, measures for ``run.seconds`` and fills ``run.e2e`` (or,
in a traced run, ``run.layers``).
"""

from __future__ import annotations

import gc
import shutil
import statistics
import time
from collections import Counter
from typing import Any, Dict, List, Sequence, Tuple

import harness
from harness import Run, now

#: Input sizes per ``--scale``.  ``full`` is what the driver runs;
#: ``smoke`` exists for the self-tests.
SIZES: Dict[str, Dict[str, Any]] = {
    "full": {
        # Fig. 8c spans 1 fault per 100 .. 2000 events; quiet sits
        # beyond the rare end, storm at the frequent end.
        "quiet": {"events": 150_000, "faults": 40, "passes": 3},
        "storm": {"events": 16_000, "faults": 160, "passes": 3},
        "paced": {"rate": 6_000.0, "paced_share": 0.7, "stretches": 6,
                  "burst": 5_000, "bursts": 12, "tail": 1_000,
                  "fault_every": 500, "handover_faults": 12},
        "catalog_skip": (),
    },
    "smoke": {
        "quiet": {"events": 10_000, "faults": 4, "passes": 1},
        "storm": {"events": 1_500, "faults": 12, "passes": 1},
        "paced": {"rate": 4_000.0, "paced_share": 0.6, "stretches": 2,
                  "burst": 1_000, "bursts": 2, "tail": 300,
                  "fault_every": 250, "handover_faults": 6},
        # 85 % of the catalog's wall is the first one's capture.
        "catalog_skip": ("performance_level_shift", "broker_partition",
                         "synthetic_error_burst"),
    },
}

#: Events per ``ShardedAnalyzer.ingest`` call (its own default chunk).
CHUNK = 1024

#: The catalog runs at the seed of the committed scorecard
#: (``results/SCENARIOS.json``), whatever ``--seed`` says: its oracles
#: are calibrated there (11 of seeds 0..23 fail one or crash a
#: capture) and the scenario seed alone moves its median report
#: latency 4.8 .. 7.8 ms (README, "What sizing found").
SCENARIO_SEED = 0


# ---------------------------------------------------------------------------
# quiet_serial / storm_serial
# ---------------------------------------------------------------------------

def quiet_serial(run: Run) -> None:
    _serial(run, SIZES[run.scale]["quiet"])


def storm_serial(run: Run) -> None:
    _serial(run, SIZES[run.scale]["storm"])


def _serial(run: Run, size: Dict[str, int]) -> None:
    library = harness.load_library(run)
    events, injected = harness.build_stream(
        run, library, "stream", size["events"],
        [(0, size["events"], size["faults"])],
    )
    run.ready()
    with run.tracer.span("reference.run"):  # doubles as the warm-up
        want, closing = harness.serial_reference(library, events)
    run.tick()
    if run.trace:
        _serial_traced(run, library, events, closing, want)
        return

    walls: List[float] = []
    rates: List[float] = []
    latency: List[float] = []
    began = now()
    while run.budget_left(began, walls, size["passes"]):
        gc.collect()
        with run.tracer.span("pass"):
            done = harness.SerialPass(library, events, closing)
        run.expect_reports(f"pass {len(walls)}", done.signatures, want)
        scale = run.calibrate()
        walls.append(done.wall)
        rates.append(len(events) / (done.wall * scale))
        latency.extend(ms * scale for ms in done.latency_ms)
    run.detail["passes_events_per_s"] = rates
    run.detail["passes_raw_events_per_s"] = [
        len(events) / wall for wall in walls
    ]
    run.e2e["events_per_s"] = harness.closed_loop_rate(rates)
    # A serial analyzer is its own in-process reference.
    run.e2e["inline_events_per_s"] = run.e2e["events_per_s"]
    harness.latency_cells(run, latency)
    harness.detection_cells(
        run, sum(done.signatures.values()), injected,
        [signature[1] for signature in done.signatures.elements()],
    )


def _serial_traced(run: Run, library: Any, events: Sequence[Any],
                   closing: Dict[harness.ReportKey, int],
                   want: Counter) -> None:
    """One untraced pass for the base, one observed pass for the stage
    budget, then direct loops over single layers."""
    from repro.core.detector import OperationDetector
    from repro.core.latency import LatencyTracker
    from repro.core.pipeline import PipelineBuilder
    from repro.core.rootcause import RootCauseEngine
    from repro.core.window import SlidingWindow
    from repro.monitoring.store import MetadataStore
    from repro.openstack.catalog import default_catalog

    layers = run.layers
    base = harness.SerialPass(library, events, closing)
    harness.latency_cells(run, base.latency_ms)
    recorder = harness.StageRecorder()
    with run.tracer.span("pass.traced"):
        traced = harness.SerialPass(library, events, closing, recorder)
    run.expect_reports("traced pass", traced.signatures, want)
    for stage, seconds in recorder.self_s.items():
        layers[f"pipeline.{stage}.self_s"] = seconds
        layers[f"pipeline.{stage}.items"] = recorder.items[stage]
    layers["pipeline.unattributed_s"] = (
        traced.wall - sum(recorder.self_s.values())
    )
    layers["pipeline.pass_wall_s"] = traced.wall
    layers["trace.overhead_ratio"] = traced.wall / base.wall
    harness.stats_cells(run, traced.analyzer.stats())

    window = SlidingWindow(harness.ALPHA)
    with run.tracer.span("window.append") as span:
        for event in events:
            window.append(event)
    layers["window.append_us_per_event"] = (
        (span["end"] - span["start"]) * 1e6 / len(events)
    )
    tracker = LatencyTracker(harness.config())
    clean = [e for e in events if not e.noise and not e.error]
    with run.tracer.span("latency.observe") as span:
        for event in clean:
            tracker.observe(event)
    layers["latency.observe_us_per_event"] = (
        (span["end"] - span["start"]) * 1e6 / len(clean)
    )

    # Freeze every snapshot without analysing it, then time each
    # public detection call on its own.
    parked = (
        PipelineBuilder(library).with_store(MetadataStore())
        .with_config(harness.config()).defer_detection().build_serial()
    )
    for event in events:
        parked.on_event(event)
    parked.flush()
    detector = OperationDetector(
        library, library.symbols, default_catalog(), harness.config()
    )
    engine = RootCauseEngine(MetadataStore(), harness.config())
    select_us: List[float] = []
    detect_ms: List[float] = []
    cause_us: List[float] = []
    for snapshot in parked.pipeline.deferred_snapshots():
        with run.tracer.span("detector.detect"):
            t0 = now()
            detector.candidates_for(snapshot.fault.api_key)
            t1 = now()
            detection = detector.detect(snapshot)
            t2 = now()
            engine.analyze(detection, [snapshot.fault])
            t3 = now()
        select_us.append((t1 - t0) * 1e6)
        detect_ms.append((t2 - t1) * 1e3)
        cause_us.append((t3 - t2) * 1e6)
    layers["detector.candidates_for_us"] = statistics.mean(select_us)
    layers["detector.detect_ms_p50"] = harness.percentile(detect_ms, 50)
    layers["detector.detect_ms_p95"] = harness.percentile(detect_ms, 95)
    layers["rootcause.analyze_us"] = statistics.mean(cause_us)
    harness.setup_cells(run)


# ---------------------------------------------------------------------------
# storm_shards
# ---------------------------------------------------------------------------

def tenant_key(event: Any) -> str:
    """Partition key: the synthetic stream has one source node, so the
    default source-node key would put every event on one shard."""
    return event.tenant


class ShardedPass:
    """The storm stream through one fresh ``ShardedAnalyzer``."""

    def __init__(self, run: Run, library: Any, events: Sequence[Any],
                 shards: int, backend: str,
                 closing: Dict[harness.ReportKey, int],
                 learn: bool = False) -> None:
        from repro.core.parallel import ShardedAnalyzer, report_signature
        from repro.monitoring.store import MetadataStore

        span = run.tracer.span
        prefix = f"parallel.{backend}"
        due: List[float] = []
        self.latency_ms: List[float] = []
        self.signatures: Counter = Counter()

        def on_report(report: Any) -> None:
            key = harness.report_key(report)
            if learn:  # the reference pass: which chunk closed it
                closing[key] = len(due) - 1
            self.latency_ms.append((now() - due[closing[key]]) * 1e3)
            self.signatures[report_signature(report)] += 1

        with span(f"{prefix}.startup"):
            analyzer = ShardedAnalyzer(
                library, shards, key=tenant_key, batch_size=CHUNK,
                store=MetadataStore(), config=harness.config(),
                backend=backend, report_listeners=(on_report,),
            )
        try:
            started = now()
            with span(f"{prefix}.ingest"):
                for lo in range(0, len(events), CHUNK):
                    due.append(now())
                    analyzer.ingest(events[lo:lo + CHUNK])
            with span(f"{prefix}.flush"):
                due.append(now())
                analyzer.flush()
            self.wall = now() - started
            self.stats = analyzer.stats()
            self.assignment = analyzer.assignment
        finally:
            with span(f"{prefix}.close"):
                analyzer.close()


def storm_shards(run: Run) -> None:
    import os
    import pickle
    from multiprocessing.reduction import ForkingPickler

    size = SIZES[run.scale]["storm"]
    library = harness.load_library(run)
    events, injected = harness.build_stream(
        run, library, "stream", size["events"],
        [(0, size["events"], size["faults"])],
    )
    shards = min(os.cpu_count() or 1, 4)
    run.detail["shards"] = shards
    run.ready()
    closing: Dict[harness.ReportKey, int] = {}
    with run.tracer.span("reference.run"):
        # The inline backend is the reference half of the program's
        # own shard oracle; both backends must reproduce it.
        want = ShardedPass(run, library, events, shards, "inline",
                           closing, learn=True).signatures
    run.tick()

    passes: Dict[str, List[ShardedPass]] = {"inline": [], "process": []}
    rates: Dict[str, List[float]] = {"inline": [], "process": []}
    latency: List[float] = []
    minimum = 1 if run.trace else size["passes"]
    began = now()
    walls: List[float] = []
    while run.budget_left(began, walls, minimum):
        pair = now()
        for backend in ("inline", "process"):  # alternated: same run
            gc.collect()
            done = ShardedPass(run, library, events, shards, backend,
                               closing)
            run.expect_reports(f"{backend} pass {len(walls)}",
                               done.signatures, want)
            scale = run.calibrate()
            passes[backend].append(done)
            rates[backend].append(len(events) / (done.wall * scale))
            if backend == "process":
                latency.extend(ms * scale for ms in done.latency_ms)
        walls.append(now() - pair)
        if run.trace:
            break
    last = passes["process"][-1]
    run.detail["passes_events_per_s"] = rates["process"]
    run.detail["passes_inline_events_per_s"] = rates["inline"]
    run.e2e["events_per_s"] = harness.closed_loop_rate(rates["process"])
    run.e2e["inline_events_per_s"] = harness.closed_loop_rate(
        rates["inline"])
    harness.latency_cells(run, latency)
    harness.detection_cells(
        run, sum(last.signatures.values()), injected,
        [signature[1] for signature in last.signatures.elements()],
    )
    if not run.trace:
        return

    layers = run.layers
    count = len(passes["process"])
    for backend in ("inline", "process"):
        for phase in ("startup", "ingest", "flush", "close"):
            # The reference pass also ran inline spans: one more pass.
            spans = count + (backend == "inline")
            layers[f"parallel.{backend}.{phase}_s"] = (
                run.tracer.seconds(f"parallel.{backend}.{phase}") / spans
            )
    layers["parallel.process_over_inline"] = (
        statistics.median(rates["process"])
        / statistics.median(rates["inline"])
    )
    run.detail["process_over_inline_observed"] = (
        (os.cpu_count() or 1) >= shards + 1
    )
    per_shard = Counter(
        last.assignment[tenant_key(event)] for event in events
    )
    layers["parallel.shard_skew"] = (
        max(per_shard.values()) * shards / len(events)
    )
    chunks = [events[lo:lo + CHUNK] for lo in range(0, len(events), CHUNK)]
    with run.tracer.span("workers.wire_encode") as span:
        wire = [bytes(ForkingPickler.dumps(chunk)) for chunk in chunks]
    layers["workers.wire_encode_us_per_event"] = (
        (span["end"] - span["start"]) * 1e6 / len(events)
    )
    with run.tracer.span("workers.wire_decode") as span:
        for blob in wire:
            pickle.loads(blob)
    layers["workers.wire_decode_us_per_event"] = (
        (span["end"] - span["start"]) * 1e6 / len(events)
    )
    layers["workers.wire_bytes_per_event"] = (
        sum(len(blob) for blob in wire) / len(events)
    )
    harness.stats_cells(run, last.stats)
    layers["trace.overhead_ratio"] = 1.0  # spans wrap whole phases
    harness.setup_cells(run)


# ---------------------------------------------------------------------------
# paced_service
# ---------------------------------------------------------------------------

TENANTS = ("tenant-a", "tenant-b")

#: Events before the restart that the second fault range reaches
#: back over: less than alpha/2, so their snapshots are still open
#: when the checkpoint is taken.
HANDOVER = 300


def paced_service(run: Run) -> None:
    from repro.core.parallel import report_signature
    from repro.service import CheckpointStore, StreamingService

    size = SIZES[run.scale]["paced"]
    library = harness.load_library(run)
    paced = int(size["rate"] * size["paced_share"] * run.seconds
                / len(TENANTS))
    cut = paced + size["burst"] * size["bursts"]  # the restart
    length = cut + size["tail"]
    streams: Dict[str, List[Any]] = {}
    want: Dict[str, Counter] = {}
    closing: Dict[str, Dict[harness.ReportKey, int]] = {}
    injected: List[Tuple[str, int]] = []
    for tenant in TENANTS:
        # Faults strike the paced phase (latency samples) and the
        # last events before and after the restart (snapshots pending
        # across it).  The bursts carry none: they measure the router
        # and the checkpoints, which detection would bury.
        streams[tenant], seqs = harness.build_stream(
            run, library, tenant, length, [
                (0, paced, max(1, paced // size["fault_every"])),
                (cut - HANDOVER, length, size["handover_faults"]),
            ],
        )
        injected.extend((tenant, seq) for seq in seqs)
    run.ready()
    for tenant in TENANTS:
        with run.tracer.span("reference.run"):
            want[tenant], closing[tenant] = harness.serial_reference(
                library, streams[tenant]
            )
    run.tick(2)

    saves: List[Tuple[float, int]] = []  # (milliseconds, bytes)

    class TimedStore(CheckpointStore):
        """The constructor-injected seam: times every save."""

        def save(self, tenant: str, state: Any, *, seq: int) -> Any:
            with run.tracer.span("checkpoint.save") as span:
                path = super().save(tenant, state, seq=seq)
            saves.append(((span["end"] - span["start"]) * 1e3,
                          path.stat().st_size))
            return path

    root = harness.OUT / f"checkpoints-{run.workload}-{run.seed}"
    shutil.rmtree(root, ignore_errors=True)

    def service() -> StreamingService:
        return StreamingService(
            library, config=harness.config(), async_ingest=True,
            policy="block", checkpoint_every=5000,
            checkpoint_store=TimedStore(root), restore=True,
        )

    got: Dict[str, Counter] = {tenant: Counter() for tenant in TENANTS}
    reported: List[Tuple[str, int]] = []
    arrived: List[Tuple[str, harness.ReportKey, float]] = []
    listening = [True]

    def sink(tenant: str, report: Any) -> None:  # on a pump thread
        if listening[0]:
            arrived.append((tenant, harness.report_key(report), now()))
            got[tenant][report_signature(report)] += 1
            reported.append((tenant, report.fault_event.seq))

    first = service()
    second = None
    first.on_report(sink)
    submit_s: List[float] = []
    depth: List[int] = []
    lag_s: List[float] = []
    try:
        # Phase A, open loop: within a stretch, event g is due at
        # start + g / rate whatever the service does; the generator
        # sleeps between 1 ms ticks (spinning would take the GIL from
        # the pumps).  The phase is cut into stretches with a drain
        # and a kernel run between them, so that each stretch is
        # calibrated by the host speed around it, and the tenants take
        # turns: with both pumps detecting at once the GIL hands the
        # median report latency +-20 % from run to run.
        interval = 1.0 / size["rate"]
        stretch = -(-paced * len(TENANTS) // size["stretches"])
        due_at: Dict[str, List[float]] = {t: [] for t in TENANTS}
        scale_at: Dict[str, List[float]] = {t: [] for t in TENANTS}
        paced_wall = 0.0
        for turn in range(size["stretches"]):
            tenant = TENANTS[turn % len(TENANTS)]
            dues = due_at[tenant]
            lo = len(dues)
            hi = min(lo + stretch, paced)
            live = first.session(tenant)
            start = now() + 0.005
            with run.tracer.span("loadgen.paced"):
                while len(dues) < hi:
                    due = start + (len(dues) - lo) * interval
                    ahead = due - now()
                    if ahead > 0:
                        time.sleep(min(ahead, 0.001))
                        continue
                    lag_s.append(-ahead)
                    if run.trace:
                        depth.append(live.queued)
                    t0 = now()
                    first.submit(streams[tenant][len(dues)],
                                 tenant=tenant)
                    submit_s.append(now() - t0)
                    dues.append(due)
                paced_wall += now() - start
                first.drain()
            scale_at[tenant] += [run.calibrate(2)] * (hi - lo)
        latency = [
            (at - due_at[tenant][index]) * 1e3 * scale_at[tenant][index]
            for tenant, key, at in list(arrived)
            for index in (closing[tenant].get(key, length),)
            if index < paced
        ]
        total = paced * len(TENANTS)

        # Phase B, closed loop: bursts submitted flat out, each
        # followed by a drain.
        rates: List[float] = []
        for lo in range(paced, cut, size["burst"]):
            with run.tracer.span("burst") as span:
                for offset in range(lo, lo + size["burst"]):
                    for tenant in TENANTS:
                        first.submit(streams[tenant][offset],
                                     tenant=tenant)
                first.drain()
            rates.append(size["burst"] * len(TENANTS)
                         / ((span["end"] - span["start"]) * run.calibrate()))

        # Restart: checkpoint every tenant, restore into a second
        # service, finish the stream there.  (Not ``shutdown`` first:
        # its flush would close pending snapshots early and the
        # restored half could not reproduce the reference.)
        for tenant in TENANTS:
            if run.trace:
                with run.tracer.span("checkpoint.snapshot"):
                    first.session(tenant).snapshot_state()
            first.checkpoint(tenant)
        second = service()
        second.on_report(sink)
        with run.tracer.span("checkpoint.restore"):
            restored = second.restore_all()
        run.expect(restored == len(TENANTS),
                   f"restore_all revived {restored} of {len(TENANTS)}")
        for offset in range(cut, length):
            for tenant in TENANTS:
                second.submit(streams[tenant][offset], tenant=tenant)
        second.flush()
        for tenant in TENANTS:
            run.expect_reports(f"{tenant} (restored at {cut})",
                               got[tenant], want[tenant])
        stats = first.stats()
        shed = stats.events_shed + second.stats().events_shed
        run.expect(shed == 0, f"{shed} event(s) shed under policy=block")
    finally:
        listening[0] = False  # shutdown flushes; those are not ours
        for live in (second, first):
            if live is not None:
                live.shutdown()
        shutil.rmtree(root, ignore_errors=True)

    run.detail["passes_events_per_s"] = rates
    run.e2e["events_per_s"] = harness.closed_loop_rate(rates)
    run.e2e["inline_events_per_s"] = run.e2e["events_per_s"]
    harness.latency_cells(run, latency)
    harness.detection_cells(
        run, sum(sum(c.values()) for c in got.values()),
        injected, reported,
    )
    run.detail["loadgen_lag_ms_p95"] = harness.percentile(lag_s, 95) * 1e3
    if not run.trace:
        return

    layers = run.layers
    layers["session.submit_us_p50"] = (
        harness.percentile(submit_s, 50) * 1e6
    )
    layers["session.submit_ms_p99"] = (
        harness.percentile(submit_s, 99) * 1e3
    )
    layers["session.queue_depth_p95"] = harness.percentile(depth, 95)
    layers["session.events_shed"] = shed
    layers["loadgen.lag_ms_p95"] = run.detail["loadgen_lag_ms_p95"]
    layers["loadgen.achieved_rate"] = total / paced_wall
    save_ms = [ms for ms, _ in saves]
    layers["checkpoint.save_ms_p50"] = harness.percentile(save_ms, 50)
    layers["checkpoint.save_ms_p95"] = harness.percentile(save_ms, 95)
    layers["checkpoint.bytes"] = saves[-1][1]
    layers["checkpoint.count"] = len(saves)
    layers["checkpoint.snapshot_ms"] = (
        run.tracer.seconds("checkpoint.snapshot") * 1e3 / len(TENANTS)
    )
    layers["checkpoint.restore_s"] = run.tracer.seconds(
        "checkpoint.restore")
    layers["service.burst_events_per_s"] = run.e2e["events_per_s"]
    layers["trace.overhead_ratio"] = 1.0  # wrappers only, no observer
    harness.setup_cells(run)


# ---------------------------------------------------------------------------
# scenario_catalog
# ---------------------------------------------------------------------------

def scenario_catalog(run: Run) -> None:
    from repro.core.pipeline import PipelineBuilder
    from repro.evaluation.common import default_characterization
    from repro.scenarios import registry
    from repro.scenarios.runner import CatalogResult, run_scenario

    harness.load_library(run)
    character = default_characterization()  # memoized by the load
    seed = SCENARIO_SEED
    names = [name for name in registry.names()
             if name not in SIZES[run.scale]["catalog_skip"]]
    run.detail["scenario_seed"] = seed
    run.ready()
    marks = len(run.pace.ticks)

    captures: Dict[str, Any] = {}

    def captured_once(cls: Any) -> Any:
        """The scenario with its capture served from our own timed
        call, so the simulator runs once per scenario (as it does
        inside ``run_catalog``) and we still hold the events."""

        class Captured(cls):  # type: ignore[misc, valid-type]
            def capture(self) -> Any:
                return captures[cls.name]

        return Captured

    span = run.tracer.span
    results = []
    latency: List[float] = []
    events = 0
    wall = 0.0
    hooked = 0.0
    for name in names:
        began = now()
        cls = registry.get(name)
        scenario = cls(character, seed=seed)
        with span("sim.capture"):
            captures[name] = capture = scenario.capture()
        events += len(capture.events)

        # Our own serial replay, only to put a clock on each report;
        # its wall is kept out of the catalog's.
        due = [0.0]
        sample: List[float] = []
        analyzer = (
            PipelineBuilder(character.library).with_store(capture.store)
            .with_config(scenario.analyzer_config())
            .track_latency(scenario.track_latency)
            .on_report(lambda _: sample.append((now() - due[0]) * 1e3))
            .build_serial()
        )
        with span("scenarios.replay_serial") as replay:
            for event in capture.events:
                due[0] = now()
                analyzer.on_event(event)
            due[0] = now()
            analyzer.flush()

        with span("scenarios.run_scenario"):
            results.append(run_scenario(
                captured_once(cls), character, seed=seed
            ))
        replayed = replay["end"] - replay["start"]
        wall += now() - began - replayed
        hooked += replayed
        latency.extend(sample)
        run.tick()
    # One capture is 85 % of the wall and cannot be interrupted, so
    # the whole catalog is scaled by the mean of the kernel runs
    # between scenarios.  Layer numbers stay raw.
    if not run.trace:
        pace = statistics.mean(run.pace.ticks[marks - 1:])
        scale = run.pace.factor(pace, pace)
        wall *= scale
        latency = [ms * scale for ms in latency]
    catalog = CatalogResult(results=results, seed=seed, shards=4)

    for result in results:
        outcomes = result.serial_outcomes + result.sharded_outcomes
        if result.equivalence is not None:
            outcomes = outcomes + [result.equivalence]
        for outcome in outcomes:
            run.expect(outcome.ok, f"{result.name}: {outcome.oracle} "
                       f"{outcome.grade} - {outcome.detail}")
    counts = catalog.counts
    reports = sum(result.serial_reports for result in results)
    run.e2e["events_per_s"] = events / wall
    run.e2e["inline_events_per_s"] = run.e2e["events_per_s"]
    harness.latency_cells(run, latency)
    run.e2e["localization_precision"] = counts.precision or 0.0
    run.e2e["localization_recall"] = counts.recall or 0.0
    run.e2e["reports_per_fault"] = reports / max(1, counts.instances)
    run.detail["catalog_wall_s"] = wall
    if not run.trace:
        return

    layers = run.layers
    layers["scenarios.catalog_wall_s"] = wall
    layers["sim.capture_s"] = run.tracer.seconds("sim.capture")
    layers["scenarios.replay_serial_s"] = hooked
    layers["scenarios.run_scenario_s"] = run.tracer.seconds(
        "scenarios.run_scenario")
    layers["faults.injected"] = counts.instances
    layers["faults.unreported"] = (
        counts.instances - counts.detected_instances
    )
    layers["trace.overhead_ratio"] = 1.0  # spans wrap whole scenarios
    harness.setup_cells(run)


WORKLOADS = {
    "quiet_serial": quiet_serial,
    "storm_serial": storm_serial,
    "storm_shards": storm_shards,
    "paced_service": paced_service,
    "scenario_catalog": scenario_catalog,
}
