"""Streaming-service soak: one long-lived tenant session under load.

Replays the Fig. 8c synthetic stream (60K events at full scale) as
one *continuous* multi-pass feed — 10× the stream at full scale, with
timestamps and sequence numbers advancing across passes —
checkpointing to disk every pass, and asserts the three properties a
standing service must hold that a batch drain never exercises:

* **flat memory** — traced heap (``tracemalloc``) after the last pass
  stays within a small factor of the steady-state reference (taken
  after pass 2, once warmup caches and the retention ring have
  filled): the session's retention hand-off really does bound state
  by α + queue capacity + the retention ring, not by events ingested;
* **bounded state** — window ≤ α, queue empty post-flush, retention
  ring ≤ its cap, the pipeline's report log drained;
* **sustained throughput** — streaming-path events/s ≥ 90% of an
  in-run serial baseline draining the *same continuous multi-pass
  stream* (so both halves do steady-state work — warmed level-shift
  detectors cost more per event than a cold single pass).
  Checkpoint writes are timed separately: a snapshot costs O(state),
  not O(events), so it amortizes with checkpoint interval instead of
  scaling with ingest.

Both halves run under tracemalloc — it slows allocation-heavy code
down several-fold, so timing one half outside it would skew the
ratio arbitrarily.

The second soak (``test_service_async_soak``) is the async ingest
router under the same discipline but multi-tenant and concurrent: N
producer threads × M tenant sessions on the **process backend** (the
production configuration — pump threads feeding per-tenant worker
pools), swept over tenant counts, with exact submit/accept/shed
accounting per leg, the same flat-memory ceiling, and both
differential oracles (checkpoint and async, inline and process
backends) run on the measured stream.

This file asserts *properties*, not speed: every ratio it checks has
both halves measured in this run.  The service's throughput, latency
and RSS record is the ``paced_service`` workload on the ledger
(``benchmarks/e2e``); the 1→4-tenant aggregate ratio is printed with
the runner's core count but not gated (on one core it cannot exceed
1).  Artifacts (full scale only): ``results/service_soak.txt`` and
``results/service_async_soak.txt``.
"""

import gc
import os
import time
import tracemalloc
from dataclasses import replace

from conftest import full_scale

from repro.core.analyzer import GretelAnalyzer
from repro.core.config import GretelConfig
from repro.monitoring.store import MetadataStore
from repro.service import (
    CheckpointStore,
    StreamingService,
    TenantSession,
    verify_async,
    verify_checkpoint,
)
from repro.service.async_oracle import drive_producers
from repro.workloads.traffic import SyntheticStream

FAULT_EVERY = 1000
ALPHA = 768          # the paper's testbed α, as in Fig. 8c
SEED = 5             # the Fig. 8c stream seed
QUEUE_CAPACITY = 4096
#: Small on purpose: the flat-memory assertion below measures the
#: session, and a roomy ring still filling up would read as growth.
RETENTION = 8

#: Acceptance floors (ISSUE 8): the long-lived session must sustain
#: ≥ this fraction of the serial drain's events/s, and the traced
#: heap after the final pass must stay within this factor of the
#: steady-state reference.
TARGET_THROUGHPUT_RATIO = 0.9
MEMORY_GROWTH_CEILING = 1.35

#: Tenant-count sweep for the async soak: (tenants, timed passes).
#: Every leg gets one extra untimed warmup pass (worker-pool spawn,
#: cold caches).  Full scale totals ~12.5M events across the sweep.
ASYNC_SWEEP_FULL = ((1, 10), (2, 20), (4, 38))
ASYNC_SWEEP_SMALL = ((1, 2), (2, 2), (4, 3))


def _pass_events(events, index, stride, count_stride):
    """Pass ``index`` of the continuous replay.

    Each pass advances timestamps and sequence numbers by one stream
    length — replaying identical timestamps would send time backwards
    at every pass boundary, which is a pathological stream (level-
    shift baselines invalidate, pending snapshots mis-order), not a
    soak.  Pass 0 is the original list, so the two halves below see
    byte-identical streams without holding ``passes`` copies alive.
    """
    if index == 0:
        return events
    dt = stride * index
    dseq = count_stride * index
    return [
        replace(
            event,
            seq=event.seq + dseq,
            ts_request=event.ts_request + dt,
            ts_response=event.ts_response + dt,
        )
        for event in events
    ]


def _drain_serial(library, events, config, passes, stride, count):
    """In-run baseline: one batch analyzer draining the same
    continuous multi-pass stream; returns (events/s, reports)."""
    analyzer = GretelAnalyzer(
        library, store=MetadataStore(), config=config,
    )
    on_event = analyzer.on_event
    started = time.perf_counter()
    for index in range(passes):
        for event in _pass_events(events, index, stride, count):
            on_event(event)
    elapsed = time.perf_counter() - started
    return (passes * count) / elapsed, len(analyzer.reports)


def _render(payload):
    lines = [
        "service soak — one tenant session, "
        f"{payload['passes']}x {payload['events_per_pass']} events "
        f"(scale: {payload['scale']})",
        "",
        f"{'serial drain':>22s} {payload['serial_events_per_s']:12,.0f}"
        " events/s",
        f"{'service session':>22s} {payload['service_events_per_s']:12,.0f}"
        " events/s"
        f"  (ratio {payload['throughput_ratio']:.2f})",
        "",
        f"{'steady-state heap':>22s} {payload['heap_steady_bytes']:12,d} B"
        "  (after pass 2)",
        f"{'heap after last pass':>22s} {payload['heap_last_bytes']:12,d} B"
        f"  (growth {payload['heap_growth']:.2f}x)",
        "",
        f"reports: {payload['reports']}, checkpoints: "
        f"{payload['checkpoints_written']} "
        f"({payload['checkpoint_seconds']:.2f}s), "
        f"{payload['events_shed']} events shed",
    ]
    return "\n".join(lines)


def test_service_soak(character, save_result, tmp_path):
    library = character.library
    passes = 10 if full_scale() else 3
    event_count = 60_000 if full_scale() else 12_000
    stream = SyntheticStream(
        library, library.symbols, fault_every=FAULT_EVERY, seed=SEED,
    )
    events = stream.events(event_count)
    config = GretelConfig(alpha=ALPHA)
    stride = (
        events[-1].ts_response - events[0].ts_request
        + 1.0 / stream.rate_pps
    )

    # Untimed warmup: the first drain pays one-off costs (lazy catalog
    # construction, symbol-encode caches) that would otherwise land
    # entirely on whichever half runs first.
    _drain_serial(library, events, config, 1, stride, event_count)

    gc.collect()
    tracemalloc.start()
    serial_eps, serial_reports = _drain_serial(
        library, events, config, passes, stride, event_count,
    )

    store = CheckpointStore(tmp_path / "soak-checkpoints")
    session = TenantSession(
        "soak",
        GretelAnalyzer(library, store=MetadataStore(), config=config),
        queue_capacity=QUEUE_CAPACITY,
        policy="block",
        report_retention=RETENTION,
    )
    sink_counts = {"reports": 0}

    def _count(tenant, report):
        # Count only — a sink that retains report objects (each holds
        # its matched-event list) would read as heap growth.
        sink_counts["reports"] += 1

    session.on_report(_count)

    heap_per_pass = []
    elapsed = 0.0
    checkpoint_seconds = 0.0
    for index in range(passes):
        # The streaming path is on the throughput clock — replay
        # construction mirrors the serial half, submit/drain is the
        # session.  The per-pass checkpoint is timed separately: its
        # cost is constant per snapshot (state size ~α + queue), not
        # per event, so it amortizes with pass length instead of
        # scaling with it.  The gc + heap probe is instrumentation.
        started = time.perf_counter()
        replay = _pass_events(events, index, stride, event_count)
        for event in replay:
            session.submit(event)
        session.drain()
        elapsed += time.perf_counter() - started
        started = time.perf_counter()
        store.save("soak", session.snapshot_state(),
                   seq=session.events_ingested)
        checkpoint_seconds += time.perf_counter() - started
        # Release this pass's replay copy before measuring, so the
        # heap series tracks the session, not the measurement loop.
        replay = None
        gc.collect()
        heap_per_pass.append(tracemalloc.get_traced_memory()[0])
    tracemalloc.stop()
    service_eps = (passes * event_count) / elapsed

    # Steady-state heap reference: after pass 2 the warmup caches are
    # built and the retention ring holds full-stream reports; from
    # there on the session must be flat.
    heap_steady = heap_per_pass[min(1, len(heap_per_pass) - 1)]
    growth = heap_per_pass[-1] / heap_steady
    ratio = service_eps / serial_eps

    payload = {
        "scale": "full" if full_scale() else "small",
        "passes": passes,
        "events_per_pass": event_count,
        "serial_events_per_s": serial_eps,
        "service_events_per_s": service_eps,
        "throughput_ratio": ratio,
        "heap_steady_bytes": heap_steady,
        "heap_last_bytes": heap_per_pass[-1],
        "heap_growth": growth,
        "reports": session.reports_emitted,
        "events_shed": session.events_shed,
        "checkpoints_written": store.writes,
        "checkpoint_seconds": checkpoint_seconds,
    }
    # The rendered table is a full-scale artifact; a smoke run must
    # not clobber it with reduced-stream numbers.
    if full_scale():
        save_result("service_soak", _render(payload))
    else:
        print()
        print(_render(payload))

    # Correctness first: the session consumed the identical continuous
    # stream the serial baseline did, so its published reports must
    # match exactly — the queue changes *when* events are analyzed,
    # never *what* is diagnosed.
    assert session.events_analyzed == passes * event_count
    assert session.events_shed == 0
    assert session.reports_emitted == serial_reports
    assert sink_counts["reports"] == session.reports_emitted

    # Bounded state: a long-lived session must not grow with ingest.
    session.flush()
    assert session.queued == 0
    assert len(session.analyzer.window) <= ALPHA
    assert len(session.recent_reports) <= RETENTION
    assert not session.analyzer.reports, (
        "pipeline report log not drained — session memory would grow "
        "with every fault"
    )

    # Flat memory: heap after the last pass vs the steady state.
    assert growth <= MEMORY_GROWTH_CEILING, (
        f"traced heap grew {growth:.2f}x across {passes} passes "
        f"({heap_steady:,d} -> {heap_per_pass[-1]:,d} bytes); "
        f"ceiling {MEMORY_GROWTH_CEILING}x"
    )

    # Sustained throughput: the queue hand-off must stay in the noise
    # next to the pipeline itself.
    assert ratio >= TARGET_THROUGHPUT_RATIO, (
        f"service session sustained only {ratio:.2f}x the serial "
        f"drain ({service_eps:,.0f} vs {serial_eps:,.0f} events/s); "
        f"floor {TARGET_THROUGHPUT_RATIO}x"
    )


# ---------------------------------------------------------------------------
# The async ingest router: N producers x M tenants, process backend
# ---------------------------------------------------------------------------

def _async_leg(
    library, events, config, tenants, passes, stride, count,
    checkpoint_dir, heap_series=None,
):
    """One sweep point: ``tenants`` pump sessions on the process
    backend, one producer thread per tenant (a single producer per
    tenant preserves per-tenant stream order, so every tenant must
    emit an identical report log — asserted below).

    Pass structure mirrors the sync soak: per pass the producers
    submit concurrently, the service drains (a quiesce barrier), and
    the per-pass checkpoint is written off the clock.  Pass 0 is an
    untimed warmup (worker-pool spawn, cold caches).  Returns the
    leg's payload fragment.
    """
    store = CheckpointStore(checkpoint_dir)
    service = StreamingService(
        library,
        config=config,
        queue_capacity=QUEUE_CAPACITY,
        policy="block",
        report_retention=RETENTION,
        checkpoint_store=store,
        shards=1,
        backend="process",
        async_ingest=True,
    )
    sink_counts = {"reports": 0}

    def _count(tenant, report):
        # Count only — retaining report objects would read as heap
        # growth (each holds its matched-event list).  Fires on pump
        # threads; the single shared counter update is GIL-atomic
        # enough for a tally that is only read after the final join.
        sink_counts["reports"] += 1

    service.on_report(_count)
    keys = [f"soak-{index}" for index in range(tenants)]

    elapsed = 0.0
    try:
        for index in range(passes + 1):
            replay = _pass_events(events, index, stride, count)
            timed = index > 0
            started = time.perf_counter()
            # Every tenant replays the whole pass from its own
            # producer thread (sessions — and their worker processes
            # — are created before the first thread starts).
            drive_producers(
                service, dict.fromkeys(keys, replay), tenants,
            )
            service.drain()
            if timed:
                elapsed += time.perf_counter() - started
            service.checkpoint_all()
            replay = None
            if heap_series is not None and timed:
                gc.collect()
                heap_series.append(tracemalloc.get_traced_memory()[0])

        service.flush()
        total = tenants * (passes + 1) * count
        stats = service.stats()
        per_tenant_reports = sorted(
            live.reports_emitted for live in service.sessions.values()
        )
        # No loss, no duplication, nothing left behind: every offer
        # was accepted (block policy), analyzed, and — because each
        # tenant consumed the identical stream in the identical order
        # — diagnosed identically.
        assert stats.events_submitted == total
        assert stats.events_accepted == total
        assert stats.events_analyzed == total
        assert stats.events_shed == 0
        assert stats.queued == 0
        assert stats.reports == sink_counts["reports"]
        assert per_tenant_reports[0] == per_tenant_reports[-1], (
            f"tenants diverged: per-tenant report counts "
            f"{per_tenant_reports}"
        )
        for live in service.sessions.values():
            assert len(live.recent_reports) <= RETENTION
    finally:
        service.shutdown()
    for live in service.sessions.values():
        assert not live.pump_alive

    eps = (tenants * passes * count) / elapsed
    return {
        "tenants": tenants,
        "passes": passes,
        "events_per_s": eps,
        "reports_per_tenant": per_tenant_reports[0],
    }


def _run_oracles(library, events, config):
    """Both differential oracles on the measured stream: checkpoint
    (sync router) plus async on both analyzer backends.  Strict — a
    divergence fails the soak with the oracle's own summary."""
    return {
        "verify_checkpoint": verify_checkpoint(
            events, library, cuts=2, config=config,
        ),
        "verify_async_inline": verify_async(
            events, library, tenants=4, producers=4, config=config,
        ),
        "verify_async_process": verify_async(
            events, library, tenants=4, producers=4, config=config,
            shards=1, backend="process",
        ),
    }


def _render_async(payload):
    lines = [
        "service async soak — pump router, process backend "
        f"(scale: {payload['scale']})",
        "",
    ]
    for leg in payload["sweep"]:
        lines.append(
            f"{leg['tenants']:>8d} tenant(s) "
            f"{leg['events_per_s']:12,.0f} events/s"
            f"  ({leg['passes']}x{payload['events_per_pass']} "
            f"events each, {leg['reports_per_tenant']} reports/tenant)"
        )
    lines += [
        "",
        f"{'1->4 tenant scaling':>22s} "
        f"{payload['tenant_scaling']:11.2f}x"
        f"  ({payload['runner_cpu_count']} core(s), not gated)",
        "",
        f"{'steady-state heap':>22s} "
        f"{payload['heap_steady_bytes']:12,d} B",
        f"{'heap after last pass':>22s} "
        f"{payload['heap_last_bytes']:12,d} B"
        f"  (growth {payload['heap_growth']:.2f}x)",
        "",
        "oracles: " + ", ".join(
            f"{name} {'EQUIVALENT' if result.ok else 'DIVERGED'}"
            for name, result in payload["oracles"].items()
        ),
    ]
    return "\n".join(lines)


def test_service_async_soak(character, save_result, tmp_path):
    library = character.library
    sweep = ASYNC_SWEEP_FULL if full_scale() else ASYNC_SWEEP_SMALL
    event_count = 60_000 if full_scale() else 12_000
    oracle_count = 20_000 if full_scale() else 6_000
    stream = SyntheticStream(
        library, library.symbols, fault_every=FAULT_EVERY, seed=SEED,
    )
    events = stream.events(event_count)
    config = GretelConfig(alpha=ALPHA)
    stride = (
        events[-1].ts_response - events[0].ts_request
        + 1.0 / stream.rate_pps
    )

    # The whole sweep runs under tracemalloc: the flat-memory claim
    # needs the heap series, and every leg pays the same tracer tax.
    gc.collect()
    tracemalloc.start()
    heap_series = []
    legs = []
    for tenants, passes in sweep:
        legs.append(_async_leg(
            library, events, config, tenants, passes, stride,
            event_count, tmp_path / f"async-ckpt-{tenants}",
            # The memory series tracks the biggest leg — the one the
            # flat-memory claim is about.
            heap_series=heap_series if tenants == 4 else None,
        ))
    tracemalloc.stop()

    by_tenants = {leg["tenants"]: leg for leg in legs}
    scaling = (
        by_tenants[4]["events_per_s"] / by_tenants[1]["events_per_s"]
    )
    heap_steady = heap_series[min(1, len(heap_series) - 1)]
    growth = heap_series[-1] / heap_steady

    oracles = _run_oracles(library, events[:oracle_count], config)

    payload = {
        "scale": "full" if full_scale() else "small",
        "events_per_pass": event_count,
        "sweep": legs,
        "tenant_scaling": scaling,
        "runner_cpu_count": os.cpu_count() or 1,
        "heap_steady_bytes": heap_steady,
        "heap_last_bytes": heap_series[-1],
        "heap_growth": growth,
        "oracles": oracles,
    }
    if full_scale():
        save_result("service_async_soak", _render_async(payload))
    else:
        print()
        print(_render_async(payload))

    # Correctness: both differential oracles must hold on the very
    # stream the numbers were measured on.
    assert all(result.ok for result in oracles.values()), oracles

    # Flat memory under concurrent multi-tenant ingest.
    assert growth <= MEMORY_GROWTH_CEILING, (
        f"traced heap grew {growth:.2f}x across the 4-tenant soak "
        f"({heap_steady:,d} -> {heap_series[-1]:,d} bytes); "
        f"ceiling {MEMORY_GROWTH_CEILING}x"
    )
